"""Command-line surface: reproducible JSON reports for every builder,
certifier, and lemma-verification suite.

Exit status: 0 when every check in the report passed, 1 otherwise
(including named parameter-ledger violations); 2 for usage errors such as
an unreadable set file.
"""

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import blocks, certify, combinatorics, measures, tower, trigpoly
from .reports import RunReport

KERNEL_GRID_FACTOR = 2  # grid must exceed 2*nmax^2 to resolve the kernel products


def read_set_file(path: str) -> list:
    """One positive integer per line; blank lines and '#' comments are ignored."""
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
            if values[-1] < 1:
                raise ValueError(f"{path}:{lineno}: not a positive integer: {text!r}")
    return values


def cmd_verify_kernels(args, report: RunReport) -> None:
    need = KERNEL_GRID_FACTOR * args.nmax * args.nmax
    detail = f"need grid > {KERNEL_GRID_FACTOR}*nmax^2 = {need}"
    if report.add("grid_sufficient", args.grid > need, args.grid, detail=detail).passed:
        res = trigpoly.kernel_residuals(args.grid, args.nmax, np.random.default_rng(args.seed))
        report.checks += trigpoly.kernel_checks(res)


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
    for name, ok in params.ledger():
        report.add(f"ledger: {name}", ok)
    if params.violations():
        report.flags["invalid_params"] = "; ".join(params.violations())
        return
    report.flags["sample_poly_degree"] = params.sample_degree
    report.flags["degree_below_order"] = params.sample_degree < params.order
    sigma = blocks.build_block(params)
    report.checks += blocks.block_checks(blocks.block_residuals(sigma, params))
    report.flags["order"] = sigma.order
    report.flags["mass"] = sigma.mass()
    if args.emit_measure:
        _emit_measure(report, "measure", sigma, args.emit_measure)


def cmd_build_witness(args, report: RunReport) -> None:
    p = args.p
    if p is None:  # log(2*j^2) needs j >= 1; otherwise the ledger names j and P stays 1
        p = blocks.WitnessParams(args.j, args.eps, args.q, 1).canonical_p if args.j >= 1 else 1
    params = blocks.WitnessParams(args.j, args.eps, args.q, p)
    bad = params.violations()
    report.add("parameter_ledger", not bad, detail="; ".join(bad))
    if bad:
        report.flags["invalid_params"] = "; ".join(bad)
        return
    report.flags["relaxed"] = params.relaxed
    report.flags["canonical_p"] = params.canonical_p
    mu, _ = blocks.build_witness(params)
    res = blocks.witness_residuals(mu, params)
    report.checks += blocks.witness_checks(res)
    report.flags["atom"] = res["atom"]
    report.flags["atom_exceeds_eps"] = res["atom"] > args.eps
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
    report.checks += witness.checks
    report.flags["atom"] = witness.atom
    report.flags["not_vdc"] = witness.not_vdc
    report.flags["lp"] = witness.diagnostics
    report.flags["certificate"] = json.loads(witness.to_json())


def cmd_lemma_prt(args, report: RunReport) -> None:
    if args.random_size < 2:
        raise ValueError(f"random systems need --random-size >= 2, got {args.random_size}")
    rng = np.random.default_rng(args.seed)
    failures = 0
    tested = 0

    def failed(m, n, count, size):  # the recurrence bound, in integers like poincare_returns
        return (n > -(-2 * m // size)) | (2 * count * m < size * size)

    for m in range(1, args.m_max + 1):
        members = (np.arange(1, 1 << m)[:, None] >> np.arange(m) & 1).astype(bool)  # all masks
        sizes = members.sum(axis=1)
        for shift in range(m):
            n, count = combinatorics.poincare_returns((np.arange(m) + shift) % m, members)
            tested += len(members)
            failures += int(np.count_nonzero(failed(m, n, count, sizes)))
    for _ in range(args.random_trials):
        m = int(rng.integers(2, args.random_size + 1))
        mapping = rng.permutation(m).tolist()
        count = int(rng.integers(1, m + 1))
        subset = rng.choice(m, size=count, replace=False).tolist()
        n, overlap = combinatorics.strong_poincare(combinatorics.FiniteSystem(m, mapping, subset))
        tested += 1
        failures += bool(failed(m, n, round(overlap * m), len(subset)))
    report.add("poincare_failures", failures == 0, failures, detail=f"{tested} systems")


def cmd_lemma_digits(args, report: RunReport) -> None:
    rng = np.random.default_rng(args.seed)
    space = args.q**args.p
    found, verified = 0, 0
    for _ in range(args.trials):
        size = int(np.ceil(args.density * space))
        members = rng.choice(space, size=size, replace=False)
        y = combinatorics.digit_difference(members, args.j, args.q, args.p)
        if y is None:
            continue
        found += 1
        present = np.bincount(members, minlength=space).astype(bool)  # is y = e' - e in E - E?
        verified += bool((present[: space - y] & present[y:]).any())
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
        pair = combinatorics.find_agreement_pair(members, args.ell, q=args.q, p=args.p)
        if pair is None:
            not_found += 1
            continue
        bad_bullets += not combinatorics.bullets_hold(
            pair.x.coords, pair.x_prime.coords, pair.s, args.q
        )
    report.flags["not_found"] = not_found
    report.add("bullets_verified", bad_bullets == 0, bad_bullets)
    if hypothesis:
        report.add("found_under_hypothesis", not_found == 0, not_found)


def cmd_tower(args, report: RunReport) -> None:
    with open(args.stages_file, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict) or not isinstance(config.get("stages", []), list):
        raise ValueError("the stages file must be an object whose 'stages' is a list")
    try:
        eps_prime = (float(config["eps_prime"]) if "eps_prime" in config
                     else tower.eps_prime_for(float(config["eps"])))
    except (KeyError, TypeError):
        raise ValueError("the stages file needs eps or eps_prime as a number") from None
    report.flags["eps_prime"] = eps_prime
    stages, betas = [], []
    for index, entry in enumerate(config.get("stages", []), 1):
        try:
            stage = tower.TowerStage(
                r_set=tuple(entry["r_set"]),
                n=int(entry["n"]),
                eps_prime=eps_prime,
                max_freq=int(entry["max_freq"]),
                dilation=int(entry["dilation"]),
            )
            beta_order = int(entry.get("beta_order") or 0)
            beta = None
            if "beta_weights" in entry:  # AtomicMeasure checks the shape and every weight
                weights = np.array(entry["beta_weights"], dtype=float)
                beta = measures.AtomicMeasure(weights.size, weights)
        except KeyError as exc:
            raise ValueError(f"stage {index} lacks the key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"stage {index} is malformed: {exc}") from None
        stages.append(stage)
        betas.append(_beta_for_stage(stage, beta_order, index) if beta is None else beta)
    if not stages:
        report.flags["empty"] = True
        return
    products = tower.build_tower(stages, betas)
    report.checks += tower.claim_checks(tower.claim_residuals(stages, products))


def _beta_for_stage(stage, beta_order, index: int) -> measures.AtomicMeasure:
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
    raise ValueError(
        f"stage {index}: no LP witness with atom above {stage.eps_prime} found for {stage.r_set}"
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


@functools.cache  # one parser per process: each parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-out", type=str, default=None, help="write the report here")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites")

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
    except (blocks.BlockParamsError, blocks.BlockBulletError, blocks.AtomBudgetError,
            certify.LpInfeasibleError, certify.LpDegenerateError,
            certify.WitnessVerificationError, ValueError) as exc:
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
