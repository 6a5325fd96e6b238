"""Command-line surface: reproducible JSON reports for every builder,
certifier, and lemma-verification suite.

Exit status: 0 when every check in the report passed, 1 otherwise
(including named parameter-ledger violations); 2 for usage errors such as
an unreadable set file.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import blocks, certify, combinatorics, measures, tower, trigpoly
from .reports import RunReport

KERNEL_GRID_FACTOR = 2  # grid must exceed 2*nmax^2 to resolve the kernel products


def read_set_file(path: str) -> list:
    """One integer per line; blank lines and '#' comments are ignored."""
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(int(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not an integer: {text!r}") from exc
    return values


def _random_real_poly(rng, degree: int, scale: float = 1.0) -> trigpoly.TrigPoly:
    coeffs = {0: complex(rng.normal() * scale)}
    for m in range(1, degree + 1):
        c = complex(rng.normal(), rng.normal()) * scale
        coeffs[m] = c
        coeffs[-m] = c.conjugate()
    return trigpoly.TrigPoly(coeffs, real=True)


def _random_convex_profile(rng, max_cutoff: int = 16) -> trigpoly.ConvexProfile:
    cutoff = int(rng.integers(1, max_cutoff + 1))
    drops = np.sort(rng.random(cutoff))[::-1]
    values = np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]])
    return trigpoly.ConvexProfile(tuple(values))


def cmd_verify_kernels(args, report: RunReport) -> None:
    rng = np.random.default_rng(args.seed)
    grid, nmax, tol = args.grid, args.nmax, args.tol
    sufficient = grid > KERNEL_GRID_FACTOR * nmax * nmax
    report.add(
        "grid_sufficient",
        sufficient,
        value=grid,
        detail=f"need grid > {KERNEL_GRID_FACTOR}*nmax^2 = {KERNEL_GRID_FACTOR * nmax * nmax}",
    )
    if not sufficient:
        return

    worst_identity = 0.0
    worst_low, worst_high = float("inf"), float("-inf")
    for n in range(1, nmax + 1):
        fn = trigpoly.sample_values(trigpoly.fejer(n), grid).real
        worst_low = min(worst_low, float(fn.min()))
        worst_high = max(worst_high, float((fn - n).max()))
        for m in range(1, nmax + 1):
            fm = trigpoly.sample_values(trigpoly.fejer(m), grid).real
            fnm = trigpoly.sample_values(trigpoly.fejer(n * m), grid).real
            lhs = fn * fm[(n * np.arange(grid)) % grid]
            worst_identity = max(worst_identity, float(np.abs(lhs - fnm).max()))
    report.add("fejer_product_identity", worst_identity < tol, worst_identity, tol)
    report.add("fejer_lower_bound", worst_low >= -1e-12, worst_low, 1e-12)
    report.add("fejer_upper_bound", worst_high <= 1e-12, worst_high, 1e-12)

    worst_mult = 0.0
    for _ in range(20):
        f = _random_real_poly(rng, int(rng.integers(0, 6)))
        g = _random_real_poly(rng, int(rng.integers(0, 6)))
        prod = trigpoly.multiply(f, g)
        for t in rng.random(5):
            lhs = trigpoly.evaluate(prod, t)
            rhs = trigpoly.evaluate(f, t) * trigpoly.evaluate(g, t)
            worst_mult = max(worst_mult, abs(lhs - rhs))
    report.add("multiply_pointwise", worst_mult < tol, worst_mult, tol)

    worst_kernel_coeff = 0.0
    worst_domination = float("inf")
    worst_fixpoint = 0.0
    for _ in range(20):
        big_r = int(rng.integers(1, 5))
        big_l = int(rng.integers(1, 5))
        kernel = trigpoly.domination_kernel(big_r, big_l)
        rl = big_r * big_l
        worst_kernel_coeff = max(
            worst_kernel_coeff,
            max(abs(kernel.coeff(m) - 1.0) for m in range(-rl, rl + 1)),
        )
        g = _random_real_poly(rng, rl // 2)  # |g|^2 then has degree <= RL
        f = trigpoly.multiply(g, trigpoly.conjugate_reflect(g))
        fixpoint = trigpoly.convolve(f, kernel)
        worst_fixpoint = max(
            worst_fixpoint,
            max(abs(fixpoint.coeff(m) - f.coeff(m)) for m in f.coeffs) if f.coeffs else 0.0,
        )
        dominated = trigpoly.add(
            trigpoly.scale(trigpoly.convolve(f, trigpoly.fejer(big_l)), 4.0 * big_r),
            trigpoly.scale(f, -1.0),
        )
        worst_domination = min(
            worst_domination, trigpoly.grid_min(dominated, max(grid, 1024))
        )
    report.add("domination_kernel_coeffs", worst_kernel_coeff < 1e-12, worst_kernel_coeff, 1e-12)
    report.add("domination_fixpoint", worst_fixpoint < 1e-12, worst_fixpoint, 1e-12)
    report.add("domination_lower_bound", worst_domination >= -tol, worst_domination, tol)

    worst_profile = float("inf")
    for _ in range(20):
        poly = trigpoly.convex_poly(_random_convex_profile(rng))
        worst_profile = min(
            worst_profile, trigpoly.grid_min(poly, trigpoly.positivity_grid(poly.degree))
        )
    report.add("convex_profile_positivity", worst_profile >= -tol, worst_profile, tol)

    worst_sampling = 0.0
    for _ in range(20):
        deg = int(rng.integers(0, 8))
        poly = _random_real_poly(rng, deg)
        mean = trigpoly.sample_mean(poly, deg + 1 + int(rng.integers(1, 4)))
        worst_sampling = max(worst_sampling, abs(mean - poly.coeff(0)))
    report.add("sampling_identity", worst_sampling < tol, worst_sampling, tol)


EMIT_ATOM_LIMIT = 1 << 16


def _emit_measure(report: RunReport, label: str, measure, path: str) -> None:
    if measure.order > EMIT_ATOM_LIMIT:
        report.flags[f"{label}_not_emitted"] = (
            f"order {measure.order} exceeds the {EMIT_ATOM_LIMIT}-atom emission gate"
        )
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(measure.to_json())
    report.attach_file(label, path)


def cmd_build_block(args, report: RunReport) -> None:
    params = blocks.BlockParams(args.ell, args.q, args.k)
    ledger = params.ledger()
    for name, ok in ledger:
        report.add(f"ledger: {name}", ok)
    if params.violations():
        report.flags["invalid_params"] = "; ".join(params.violations())
        return
    _, _, sample_poly = blocks.block_polynomials(params)
    report.flags["sample_poly_degree"] = sample_poly.degree
    report.flags["degree_below_order"] = sample_poly.degree < params.order
    sigma = blocks.build_block(params, check=False)
    res = blocks.block_residuals(sigma, params)
    report.add("mass_excess", res["mass_excess"] <= args.tol, res["mass_excess"], args.tol)
    report.add(
        "plus_band_residual",
        res["plus_band_residual"] < args.tol,
        res["plus_band_residual"],
        args.tol,
    )
    report.add(
        "minus_band_residual",
        res["minus_band_residual"] < args.tol,
        res["minus_band_residual"],
        args.tol,
    )
    report.add("min_weight", res["min_weight"] >= -1e-12, res["min_weight"], 1e-12)
    report.flags["order"] = sigma.order
    report.flags["mass"] = sigma.mass()
    if args.emit_measure:
        _emit_measure(report, "measure", sigma, args.emit_measure)


def cmd_build_witness(args, report: RunReport) -> None:
    rng = np.random.default_rng(args.seed)
    p = args.p
    if p is None:
        canonical = blocks.WitnessParams(args.j, args.eps, args.q, 1).canonical_p
        feasible = blocks.max_feasible_depth(args.q)
        if args.q**canonical > blocks.atom_budget():
            report.flags["refused"] = (
                f"canonical depth P={canonical} needs {args.q}^{canonical} atoms, "
                f"beyond the budget {blocks.atom_budget()}; maximal feasible P is {feasible}"
            )
            report.add("canonical_depth_feasible", False, value=canonical)
            return
        p = canonical
    params = blocks.WitnessParams(args.j, args.eps, args.q, p)
    bad = [name for name, ok in params.ledger() if not ok]
    report.add("parameter_ledger", not bad, detail="; ".join(bad))
    if bad:
        report.flags["invalid_params"] = "; ".join(bad)
        return
    report.flags["relaxed"] = params.relaxed
    report.flags["canonical_p"] = params.canonical_p
    try:
        mu, sigma = blocks.build_witness(params, tol=args.tol)
    except blocks.AtomBudgetError as exc:
        report.flags["refused"] = str(exc)
        report.add("atom_budget", False, detail=str(exc))
        return
    members = blocks.digit_pattern_members(args.j, args.q, p)
    expected = p * 8 * args.j * (8 * args.j - 1) ** (p - 1)
    report.add("digit_pattern_count", len(members) == expected, len(members))
    worst_zero = max(abs(mu.fourier(y)) for y in members)
    report.add("pattern_zeros_residual", worst_zero < args.tol, worst_zero, args.tol)

    sigmas = [blocks.build_block(blocks.BlockParams(params.ell, args.q, k)) for k in range(p)]
    worst_product = 0.0
    for y in rng.integers(0, params.order, size=100):
        y = int(y)
        digits = combinatorics.int_to_digits(y, args.q, p)
        partial = 0
        predicted = 1.0 + 0.0j
        for k in range(p):
            partial += digits[k] * args.q**k
            predicted *= sigmas[k].fourier(partial)
        worst_product = max(worst_product, abs(sigma.fourier(y) - predicted))
    report.add("product_spectrum_residual", worst_product < args.tol, worst_product, args.tol)

    atom = float(mu.weights[0])
    report.add("mass", abs(mu.mass() - 1.0) < args.tol, mu.mass(), args.tol)
    report.add(
        "atom_lower_bound",
        atom >= params.atom_lower_bound() - args.tol,
        atom,
        args.tol,
        detail=f"guaranteed {params.atom_lower_bound():.6g}",
    )
    report.flags["atom"] = atom
    report.flags["atom_exceeds_eps"] = atom > args.eps
    report.flags["eps_claim_applies"] = not params.relaxed
    if args.emit:
        _emit_measure(report, "witness_measure", mu, args.emit)


def cmd_certify_recurrence(args, report: RunReport) -> None:
    r_set = read_set_file(args.set_file)
    cert = certify.certify_recurrence(r_set, args.eps, args.n)
    report.add(
        "alpha_within_budget",
        cert.certified,
        cert.alpha,
        detail=f"alpha {cert.alpha} vs eps*n = {args.eps * args.n}",
    )
    report.flags["certificate"] = json.loads(cert.to_json())


def cmd_certify_vdc(args, report: RunReport) -> None:
    r_set = read_set_file(args.set_file)
    witness = certify.certify_not_vdc(r_set, args.eps, args.order)
    checks = certify.reverify_witness(witness)
    report.add("witness_min_weight", checks["min_weight"] >= -1e-12, checks["min_weight"], 1e-12)
    report.add("witness_mass", checks["mass_error"] <= 1e-12, checks["mass_error"], 1e-12)
    report.add("witness_residual", checks["residual"] < args.tol, checks["residual"], args.tol)
    report.flags["atom"] = witness.atom
    report.flags["not_vdc"] = witness.not_vdc
    report.flags["certificate"] = json.loads(witness.to_json())


def cmd_lemma_prt(args, report: RunReport) -> None:
    rng = np.random.default_rng(args.seed)
    failures = 0
    tested = 0

    def fails(m, mapping, subset) -> bool:
        n, overlap = combinatorics.strong_poincare(combinatorics.FiniteSystem(m, mapping, subset))
        density = len(subset) / m
        return n > -(-2 * m // len(subset)) or 2 * overlap < density * density - 1e-15

    for m in range(1, args.m_max + 1):
        for shift in range(m):
            mapping = tuple((x + shift) % m for x in range(m))
            for mask in range(1, 1 << m):
                subset = frozenset(i for i in range(m) if mask >> i & 1)
                tested += 1
                failures += fails(m, mapping, subset)
    for _ in range(args.random_trials):
        m = int(rng.integers(2, args.random_size + 1))
        mapping = tuple(int(v) for v in rng.permutation(m))
        count = int(rng.integers(1, m + 1))
        subset = frozenset(int(v) for v in rng.choice(m, size=count, replace=False))
        tested += 1
        failures += fails(m, mapping, subset)
    report.add("poincare_failures", failures == 0, failures, detail=f"{tested} systems")


def cmd_lemma_digits(args, report: RunReport) -> None:
    rng = np.random.default_rng(args.seed)
    space = args.q**args.p
    found, verified = 0, 0
    for _ in range(args.trials):
        size = int(np.ceil(args.density * space))
        members = rng.choice(space, size=size, replace=False)
        elements = set(int(v) for v in members)
        y = combinatorics.digit_difference(elements, args.j, args.q, args.p)
        if y is None:
            continue
        found += 1
        in_difference_set = any(e + y in elements for e in elements)
        digits = combinatorics.int_to_digits(y, args.q, args.p)
        marked = [i for i, d in enumerate(digits) if args.q // 2 <= d < args.q // 2 + 8 * args.j]
        windows = len(marked) == 1 and all(
            1 <= d < 8 * args.j for i, d in enumerate(digits) if i != marked[0]
        )
        if in_difference_set and windows:
            verified += 1
    report.add("all_found", found == args.trials, found, detail=f"{args.trials} trials")
    report.add("all_verified", verified == found, verified)
    report.flags["density"] = args.density


def cmd_lemma_pair(args, report: RunReport) -> None:
    rng = np.random.default_rng(args.seed)
    space = args.q**args.p
    hypothesis = args.size * args.ell > space and args.p > args.q * np.log(args.ell)
    report.flags["density_hypothesis"] = bool(hypothesis)
    not_found = 0
    bad_bullets = 0
    for _ in range(args.trials):
        members = rng.choice(space, size=args.size, replace=False)
        vectors = [
            combinatorics.DigitVector(
                args.q, combinatorics.int_to_digits(int(v), args.q, args.p)
            )
            for v in members
        ]
        pair = combinatorics.find_agreement_pair(vectors, args.ell)
        if pair is None:
            not_found += 1
            continue
        x, xp, s = pair.x.coords, pair.x_prime.coords, pair.s
        ok = (
            x[:s] == xp[:s]
            and x[s] == 0
            and xp[s] == args.q // 2
            and all(
                combinatorics.circular_distance(a, b, args.q) <= 2
                for a, b in zip(x[s + 1 :], xp[s + 1 :])
            )
        )
        if not ok:
            bad_bullets += 1
    report.flags["not_found"] = not_found
    report.add("bullets_verified", bad_bullets == 0, bad_bullets)
    if hypothesis:
        report.add("found_under_hypothesis", not_found == 0, not_found)


def cmd_tower(args, report: RunReport) -> None:
    with open(args.stages_file, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if "eps_prime" in config:
        eps_prime = float(config["eps_prime"])
    else:
        eps_prime = tower.eps_prime_for(float(config["eps"]))
    report.flags["eps_prime"] = eps_prime
    stages = []
    betas = []
    for entry in config.get("stages", []):
        stage = tower.TowerStage(
            r_set=tuple(entry["r_set"]),
            n=int(entry["n"]),
            eps_prime=eps_prime,
            max_freq=int(entry["max_freq"]),
            dilation=int(entry["dilation"]),
        )
        stages.append(stage)
        if "beta_weights" in entry:
            beta = measures.AtomicMeasure(
                len(entry["beta_weights"]), np.array(entry["beta_weights"], dtype=float)
            )
        else:
            beta = _beta_for_stage(stage, entry.get("beta_order"))
        betas.append(beta)
    if not stages:
        report.flags["empty"] = True
        return
    products = tower.build_tower(stages, betas, tol=args.tol)
    for res in tower.claim_residuals(stages, products):
        j = res["stage"]
        report.add(f"stage{j}_vanishing_tail", res["vanishing_tail"] <= args.tol,
                   res["vanishing_tail"], args.tol)
        report.add(f"stage{j}_frozen_window", res["frozen_window"] <= args.tol,
                   res["frozen_window"], args.tol)
        report.add(f"stage{j}_mean", res["mean_deviation"] <= args.tol,
                   res["mean_deviation"], args.tol)
        report.add(f"stage{j}_marked_frequency", res["marked_frequency"] <= args.tol,
                   res["marked_frequency"], args.tol)


def _beta_for_stage(stage, beta_order=None) -> measures.AtomicMeasure:
    """A probability measure killing the stage's recurrence set with atom
    above eps_prime, from the LP certifier (smallest workable order)."""
    top = max(stage.r_set) if stage.r_set else 1
    orders = [beta_order] if beta_order else range(top + 1, 4 * top + 5)
    for order in orders:
        try:
            witness = certify.max_atom_lp(stage.r_set, order)
        except certify.LpInfeasibleError:
            continue
        if witness.atom > stage.eps_prime:
            return witness.measure
    raise RuntimeError(
        f"no LP witness with atom above {stage.eps_prime} found for {stage.r_set}"
    )


COMMANDS = {
    "verify-kernels": cmd_verify_kernels,
    "build-block": cmd_build_block,
    "build-witness": cmd_build_witness,
    "certify-recurrence": cmd_certify_recurrence,
    "certify-vdc": cmd_certify_vdc,
    "lemma-prt": cmd_lemma_prt,
    "lemma-digits": cmd_lemma_digits,
    "lemma-pair": cmd_lemma_pair,
    "tower": cmd_tower,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-out", type=str, default=None, help="write the report here")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    common.add_argument("--tol", type=float, default=1e-9, help="residual tolerance")

    parser = argparse.ArgumentParser(
        prog="vdcset",
        description="builders and certifiers for finite recurrence / vdC-failure witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-kernels", parents=[common])
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--nmax", type=int, default=8)

    p = sub.add_parser("build-block", parents=[common])
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-measure", type=str, default=None)

    p = sub.add_parser("build-witness", parents=[common])
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--emit", type=str, default=None)

    p = sub.add_parser("certify-recurrence", parents=[common])
    p.add_argument("--set-file", type=str, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("certify-vdc", parents=[common])
    p.add_argument("--set-file", type=str, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("lemma-prt", parents=[common])
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--random-size", type=int, default=64)
    p.add_argument("--random-trials", type=int, default=200)

    p = sub.add_parser("lemma-digits", parents=[common])
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--density", type=float, default=0.97)

    p = sub.add_parser("lemma-pair", parents=[common])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("tower", parents=[common])
    p.add_argument("--stages-file", type=str, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k not in ("command", "json_out")}
    report = RunReport(command=args.command, params=params)
    start = time.perf_counter()
    try:
        COMMANDS[args.command](args, report)
    except (blocks.BlockParamsError, blocks.BlockBulletError, certify.LpInfeasibleError,
            ValueError) as exc:
        report.flags["error"] = str(exc)
        report.add("completed", False, detail=str(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_s = time.perf_counter() - start
    report.print_lines()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
