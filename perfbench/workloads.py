"""The three workloads: fixed case lists, inputs drawn from the seed, gates.

Each workload loads one layer heavily and leaves the others mostly idle,
so that a change to one layer shows on one workload and not on the rest:

- ``construct``: few calls on large spectral objects (trigpoly sampling
  and products, measure transforms and convolution).
- ``certify``: the solvers (simplex LP and the avoiding-set branch and
  bound); trigpoly idle, measures light.
- ``cli``: many small, overhead-dominated calls through ``cli.main`` in
  process, reusing the layers above at small sizes.

A case is a closure that calls the library (timed), a function turning
its result into plain data (untimed) and a gate check on that data.
Cases call the library through module attributes, so that tracing sees
them.
"""

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gate
import pins
from vdcset import blocks, certify, cli, measures, tower

DATA = Path(__file__).resolve().parent / "data"
SPOT_FREQUENCIES = 64  # seed-chosen product-spectrum spot checks per case
TOWER_EPS_PRIME = 0.3


@dataclass
class Case:
    name: str
    size: str
    run: callable
    extract: callable
    check: callable
    perturb: callable  # data -> a wrong copy, for the gate self-test


@dataclass
class Workload:
    cases: list
    warmup: list  # small cases of every kind, run during set-up
    layers: list  # traced functions that must record calls


# --- construct -------------------------------------------------------------

def _spot(rng, order):
    return [int(v) for v in rng.integers(0, order, size=SPOT_FREQUENCIES)]


def _nudge(data, key):
    out = dict(data)
    w = np.array(out[key], dtype=float)
    w[len(w) // 3] += 1e-6
    out[key] = w
    return out


def block_case(ell, q, k, rng):
    params = blocks.BlockParams(ell, q, k)
    spot = _spot(rng, params.order)
    return Case(
        name=f"block_{ell}_{q}_{k}",
        size=f"N={params.order}",
        run=lambda: blocks.build_block(params),
        extract=lambda sigma: {"weights": np.array(sigma.weights)},
        check=lambda d: gate.check_block(d["weights"], ell, q, k, spot),
        perturb=lambda d: _nudge(d, "weights"),
    )


def witness_case(q, p, rng, j=1):
    params = blocks.WitnessParams(j, 0.01, q, p)
    spot = _spot(rng, params.order)

    def run():
        mu, sigma = blocks.build_witness(params)
        return mu, sigma, blocks.zero_set(mu, params.order)

    return Case(
        name=f"witness_q{q}_p{p}",
        size=f"N={params.order}",
        run=run,
        extract=lambda res: {
            "mu": np.array(res[0].weights),
            "sigma": np.array(res[1].weights),
            "zeros": sorted(res[2]),
        },
        check=lambda d: gate.check_witness(d["mu"], d["sigma"], d["zeros"], j, q, p, spot),
        perturb=lambda d: _nudge(d, "mu"),
    )


def tower_stages(depth, r_set=(1, 2), n=2, max_freq=21):
    """Stages whose dilations just clear the growth inequality."""
    dilations = [max_freq]
    while len(dilations) < depth:
        dilations.append(2 * (max_freq + 1) * dilations[-1] + 1)
    return [tower.TowerStage(r_set, n, TOWER_EPS_PRIME, max_freq, d) for d in dilations]


def tower_case(depth):
    stages = tower_stages(depth)
    # the uniform measure on the cube roots of unity kills 1 and 2 and has atom 1/3 > eps'
    beta = measures.uniform(3)

    def run():
        products = tower.build_tower(stages, [beta] * depth)
        return products, tower.claim_residuals(stages, products)

    def perturb(d):
        last = dict(d["products"][-1])
        last[0] = last[0] + 1e-6
        return {**d, "products": d["products"][:-1] + [last]}

    return Case(
        name=f"tower_depth{depth}",
        size=f"terms={41**depth}",
        run=run,
        extract=lambda res: {"products": [p.coeffs for p in res[0]], "residuals": res[1]},
        check=lambda d: gate.check_tower(
            [(s.r_set, s.eps_prime, s.max_freq, s.dilation) for s in stages],
            d["products"],
            d["residuals"],
        ),
        perturb=perturb,
    )


def construct(seed):
    rng = np.random.default_rng(seed)
    cases = [
        block_case(8, 64, 1, rng),
        block_case(8, 128, 1, rng),
        block_case(8, 64, 2, rng),
        witness_case(64, 2, rng),
        witness_case(64, 3, rng),
        tower_case(4),
    ]
    warmup = [block_case(2, 64, 0, rng), witness_case(64, 1, rng), tower_case(2)]
    layers = [
        "trigpoly.sample_values", "trigpoly.multiply", "measures.AtomicMeasure.init",
        "measures.fourier", "measures.from_samples", "measures.convolve",
        "blocks.block_polynomials", "blocks.block_residuals", "blocks.build_block",
        "blocks.build_witness", "blocks.zero_set", "tower.tower_block",
        "tower.tower_extend", "tower.claim_residuals",
    ]
    return Workload(cases, warmup, layers)


# --- certify ---------------------------------------------------------------

EPSILON = 0.1


def lp_case(r_set, order, pinned, name):
    r_set = tuple(r_set)

    def perturb(d):
        return {**d, "atom": d["atom"] * (1 - 1e-6)}

    return Case(
        name=name,
        size=f"N={order} |R|={len(r_set)}",
        run=lambda: certify.certify_not_vdc(r_set, EPSILON, order),
        extract=lambda w: {
            "weights": np.array(w.measure.weights),
            "atom": w.atom,
            "not_vdc": w.not_vdc,
        },
        check=lambda d: gate.check_lp(d["weights"], d["atom"], d["not_vdc"], r_set, EPSILON, pinned),
        perturb=perturb,
    )


def avoid_case(r_set, n, pinned, name):
    r_set = tuple(r_set)

    def perturb(d):
        witness = sorted(d["witness"])
        return {"alpha": d["alpha"], "witness": witness[:-1] + [witness[0] + r_set[0]]}

    return Case(
        name=name,
        size=f"n={n} |R|={len(r_set)}",
        run=lambda: certify.max_avoiding_set(r_set, n),
        extract=lambda res: {"alpha": res[0], "witness": list(res[1])},
        check=lambda d: gate.check_avoiding(d["alpha"], d["witness"], r_set, n, pinned),
        perturb=perturb,
    )


def certify_workload(seed):
    rand = random.Random(seed)
    cases = [
        lp_case(pins.R1TO8, n, atom, f"lp_r1to8_n{n}") for n, atom in pins.LP_R1TO8.items()
    ]
    for base in rand.sample(sorted(pins.LP_BASES_N64), 4):
        unit = rand.randrange(3, 64, 2)
        r_set = sorted((unit * r) % 64 for r in base)
        name = f"lp_{unit}x{''.join(map(str, base))}_n64"
        cases.append(lp_case(r_set, 64, pins.LP_BASES_N64[base], name))
    cases += [
        avoid_case(pins.SQUARES, n, pins.ALPHA_SQUARES[n], f"avoid_squares_n{n}") for n in (60, 80)
    ]
    for t in rand.sample(sorted(pins.ALPHA_SQUARES_PLUS_N70), 4):
        cases.append(
            avoid_case(pins.SQUARES + (t,), 70, pins.ALPHA_SQUARES_PLUS_N70[t], f"avoid_squares_plus{t}_n70")
        )
    warmup = [
        lp_case((1, 2, 3), 64, pins.LP_BASES_N64[(1, 2, 3)], "lp_warmup"),
        avoid_case(pins.SQUARES, 40, pins.ALPHA_SQUARES[40], "avoid_warmup"),
    ]
    layers = [
        "simplex.solve_lp", "certify.max_atom_lp", "certify.reverify_witness",
        "certify.max_avoiding_set", "measures.AtomicMeasure.init", "measures.fourier",
    ]
    return Workload(cases, warmup, layers)


# --- cli -------------------------------------------------------------------

def cli_case(name, argv, expect):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def perturb(d):
        return {"code": int(not d["code"]), "text": d["text"]}

    return Case(
        name=name,
        size=" ".join(Path(a).name if a.startswith(str(DATA)) else a for a in argv),
        run=run,
        extract=lambda res: {"code": res[0], "text": res[1]},
        check=lambda d: gate.check_cli(d["code"], d["text"], expect),
        perturb=perturb,
    )


def cli_workload(seed):
    rand = random.Random(seed)

    def s():  # the --seed of one randomized command
        return str(rand.randrange(1 << 30))

    squares = str(DATA / "squares.txt")
    r1to8 = str(DATA / "r1to8.txt")
    r12 = str(DATA / "r12.txt")
    stages = str(DATA / "tower2.json")
    ok = {"code": 0}
    cases = [
        cli_case("verify_kernels", ["verify-kernels", "--seed", s()], ok),
        cli_case("verify_kernels_4096", ["verify-kernels", "--grid", "4096", "--nmax", "16", "--seed", s()], ok),
        cli_case("build_block", ["build-block", "--ell", "2", "--q", "32", "--k", "1"], ok),
        cli_case("build_witness", ["build-witness", "--j", "1", "--eps", "0.01", "--q", "64", "--p", "2", "--seed", s()], ok),
        # the squares are not 0.2-recurrent at n=40 (alpha=12 > 8): FAIL is the right answer
        cli_case(
            "certify_recurrence",
            ["certify-recurrence", "--set-file", squares, "--eps", "0.2", "--n", "40"],
            {"code": 1, "fail": {"alpha_within_budget": pins.ALPHA_SQUARES[40]}},
        ),
        cli_case(
            "certify_vdc_r12",
            ["certify-vdc", "--set-file", r12, "--eps", "0.1", "--order", "8"],
            {"code": 0, "flags": {"atom": pins.LP_R12_N8}},
        ),
        cli_case(
            "certify_vdc_n32",
            ["certify-vdc", "--set-file", r1to8, "--eps", "0.1", "--order", "32"],
            {"code": 0, "flags": {"atom": pins.LP_R1TO8[32]}},
        ),
        cli_case(
            "certify_vdc_n128",
            ["certify-vdc", "--set-file", r1to8, "--eps", "0.1", "--order", "128"],
            {"code": 0, "flags": {"atom": pins.LP_R1TO8[128]}},
        ),
        cli_case("lemma_prt", ["lemma-prt", "--seed", s()], ok),
        cli_case("lemma_digits", ["lemma-digits", "--q", "64", "--p", "3", "--trials", "6", "--seed", s()], ok),
        cli_case(
            "lemma_pair",
            ["lemma-pair", "--q", "6", "--p", "6", "--ell", "2", "--size", "24000", "--trials", "4", "--seed", s()],
            ok,
        ),
        cli_case("tower", ["tower", "--stages-file", stages], ok),
    ]
    warmup = [
        cli_case("warmup_block", ["build-block", "--ell", "2", "--q", "64", "--k", "0"], ok),
        cli_case("warmup_tower", ["tower", "--stages-file", stages], ok),
        cli_case("warmup_pair", ["lemma-pair", "--q", "4", "--p", "4", "--ell", "2", "--size", "140", "--trials", "2"], ok),
    ]
    layers = [
        "cli.main", "combinatorics.digit_difference", "combinatorics.find_agreement_pair",
        "combinatorics.strong_poincare", "trigpoly.sample_values", "blocks.build_block",
        "blocks.build_witness", "certify.max_atom_lp", "certify.max_avoiding_set",
        "simplex.solve_lp", "tower.tower_block", "tower.tower_extend",
    ]
    return Workload(cases, warmup, layers)


WORKLOADS = {"construct": construct, "certify": certify_workload, "cli": cli_workload}
