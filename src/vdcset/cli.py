"""Command-line surface: reproducible JSON reports for every builder,
certifier, and lemma-verification suite.

Exit status: 0 when every check in the report passed, 1 otherwise
(including named refusals of invalid parameters); 2 for usage errors such
as an unreadable set file.
"""

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import blocks, certify, combinatorics, measures, simplex, tower, trigpoly
from .reports import Check, RunReport


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
    sigma = blocks.build_block(blocks.BlockParams(args.ell, args.q, args.k))
    report.flags["sample_poly_degree"] = sigma.params.sample_degree
    report.checks += sigma.checks
    report.flags["order"] = sigma.order
    report.flags["mass"] = sigma.mass()
    if args.emit_measure:
        _emit_measure(report, "measure", sigma, args.emit_measure)


def cmd_build_witness(args, report: RunReport) -> None:
    p = args.p
    if p is None:  # the canonical depth needs j >= 1; below it WitnessParams names j, with P = 1
        p = blocks.canonical_depth(args.j, args.q) if args.j >= 1 else 1
    params = blocks.WitnessParams(args.j, args.eps, args.q, p)
    report.flags["relaxed"] = params.relaxed
    report.flags["canonical_p"] = params.canonical_p
    mu, _ = blocks.build_witness(params)
    report.checks += mu.checks
    report.flags["atom"] = float(mu.weights[0])
    report.flags["atom_exceeds_eps"] = report.flags["atom"] > args.eps
    if args.emit:
        _emit_measure(report, "witness_measure", mu, args.emit)


def cmd_certify_recurrence(args, report: RunReport) -> None:
    r_set = read_set_file(args.set_file)
    cert = certify.certify_recurrence(r_set, args.eps, args.n)
    report.checks.append(Check("alpha_within_budget", cert.certified, cert.alpha,
                               detail=f"alpha {cert.alpha} vs eps*n = {args.eps * args.n}"))
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
    top = args.m_max  # the widest subset table; no budget admits 2^64 cells, so the count stops there
    measures.require_budget((2 ** min(top, 64) - 1) * top, f"subset table of (2^{top} - 1)*{top} cells")
    measures.require_budget(args.random_size, f"random system of {args.random_size} points")
    rng = np.random.default_rng(args.seed)
    tested = 0  # poincare_returns raises RecurrenceBoundError on any row past its horizon
    for m in range(1, args.m_max + 1):
        members = (np.arange(1, 1 << m)[:, None] >> np.arange(m) & 1).astype(bool)  # all masks
        for shift in range(m):
            combinatorics.poincare_returns((np.arange(m) + shift) % m, members)
            tested += len(members)
    for _ in range(args.random_trials):
        m = int(rng.integers(2, args.random_size + 1))
        mapping = rng.permutation(m)
        mask = np.zeros(m, dtype=bool)
        mask[rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)] = True
        combinatorics.strong_poincare(mapping, mask)
        tested += 1
    report.checks.append(Check("poincare_systems", tested > 0, tested))


def cmd_lemma_digits(args, report: RunReport) -> None:
    combinatorics.digit_windows(args.j, args.q, args.p)  # refused even when no trial would run
    space = combinatorics.grid_cells(args.q, args.p)  # before the draw allocates Q^P
    if not 0.0 < args.density <= 1.0:  # also refuses nan
        raise ValueError(f"density must lie in (0, 1], got {args.density}")
    rng = np.random.default_rng(args.seed)
    found, verified = 0, 0
    size = int(np.ceil(args.density * space))
    for _ in range(args.trials):
        members = combinatorics.random_mask(rng, space, size)
        y = combinatorics.digit_difference(members, args.j, args.q, args.p)
        if y is None:
            continue
        found += 1
        verified += bool((members[: space - y] & members[y:]).any())  # is y = e' - e in E - E?
    report.checks += [Check("all_found", 0 < found == args.trials, found, detail=f"{args.trials} trials"),
                      Check("all_verified", verified == found, verified)]
    report.flags["density"] = args.density


def cmd_lemma_pair(args, report: RunReport) -> None:
    space = combinatorics.grid_cells(args.q, args.p)  # before the draw allocates Q^P
    if not 1 <= args.size <= space:
        raise ValueError(f"--size must lie in [1, Q^P] = [1, {space}], got {args.size}")
    guarantee = combinatorics.density_guarantee(args.size, args.ell, args.q, args.p)  # refuses ell < 1
    rng = np.random.default_rng(args.seed)
    report.flags["density_hypothesis"] = guarantee
    found = 0  # find_agreement_pair raises on a broken bullet or on a miss the guarantee rules out
    for _ in range(args.trials):
        members = combinatorics.random_mask(rng, space, args.size)
        found += combinatorics.find_agreement_pair(members, args.ell, q=args.q, p=args.p) is not None
    report.checks.append(Check("pairs_found", args.trials > 0, found, detail=f"{args.trials} trials"))


STAGE_KEYS = ("r_set", "n", "max_freq", "dilation")


def cmd_tower(args, report: RunReport) -> None:
    with open(args.stages_file, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict) or not isinstance(config.get("stages", []), list):
        raise ValueError("the stages file must be an object whose 'stages' is a list")
    if "eps_prime" not in config:
        raise ValueError("the stages file needs eps_prime, with eps_prime/(1 + eps_prime) > eps")
    eps_prime = report.flags["eps_prime"] = config["eps_prime"]  # TowerStage reads every value
    stages = []
    for index, entry in enumerate(config.get("stages", []), 1):
        unknown = sorted(entry.keys() - STAGE_KEYS) if isinstance(entry, dict) else []
        if unknown:  # a key the file gives is never silently dropped for a default, such as an LP beta
            raise ValueError(f"stage {index} has unknown keys {unknown}; "
                             f"a stage holds only {', '.join(STAGE_KEYS)}")
        try:
            stages.append(tower.TowerStage(eps_prime=eps_prime, **{key: entry[key] for key in STAGE_KEYS}))
        except KeyError as exc:
            raise ValueError(f"stage {index} lacks the key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"stage {index} is malformed: {exc}") from None
    betas = []
    for index, stage in enumerate(stages, 1):
        try:
            betas.append(tower.lp_beta(stage))
        except ValueError as exc:
            raise ValueError(f"stage {index}: {exc}") from None
    products = tower.build_tower(stages, betas)
    report.checks += tower.claim_checks(tower.claim_residuals(stages, products))


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
    except (blocks.BlockBulletError, measures.AtomBudgetError, simplex.LpInfeasibleError,
            simplex.LpDegenerateError, simplex.LpUnboundedError, certify.WitnessVerificationError,
            combinatorics.RecurrenceBoundError, combinatorics.AgreementSearchError,
            ValueError) as exc:
        report.flags["error"] = str(exc)
        report.checks.append(Check("completed", False, detail=str(exc)))
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
