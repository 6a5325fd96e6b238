"""Seeded argv fuzz of every subcommand: each run ends in a JSON report and exit 0 or 1.

Each parameter is drawn from its range (the bounds the library or the CLI
refuses outside of), its edges and the values just outside it.  A run that
exits 0 must have tested something: at least one check row, all passing.
The atom budget is small, so every refusal of an oversized input shows
without a large allocation.  A second, drawn-valid half builds towers that
are valid by construction: each must exit 0 with every row passing.
"""

import json
import math

import numpy as np
import pytest

from vdcset import cli

RUNS_PER_COMMAND = 12
ATOM_BUDGET = 1 << 14

# inclusive ranges, an int range with an optional step (Q is even); a float range's edges are
# drawn as well, whether or not it is open there
RANGES = {
    "verify-kernels": {"--grid": (1, 1024), "--nmax": (1, 8)},
    "build-block": {"--ell": (1, 4), "--q": (8, 128, 2), "--k": (0, 2)},
    "build-witness": {"--j": (1, 2), "--eps": (0.0, 0.5), "--q": (50, 128, 2), "--p": (1, 2)},
    "certify-recurrence": {"--eps": (0.0, 1.0), "--n": (1, 80)},
    "certify-vdc": {"--eps": (0.0, 1.0), "--order": (1, 256)},
    "lemma-prt": {"--m-max": (0, 8), "--random-size": (2, 64), "--random-trials": (0, 20)},
    "lemma-digits": {"--j": (1, 2), "--q": (18, 64, 2), "--p": (1, 2), "--trials": (0, 4),
                     "--density": (0.0, 1.0)},
    "lemma-pair": {"--q": (2, 8, 2), "--p": (1, 4), "--ell": (1, 4), "--size": (1, 4096), "--trials": (0, 4)},
}
SET_FILE = {"certify-recurrence", "certify-vdc"}


def draw(rng, lo, hi, step=1):
    """A value inside the range half the time, else an edge or a value just outside it."""
    if isinstance(lo, float):
        inside, off = rng.uniform(lo, hi), [lo, hi, lo - 0.01, hi + 0.01, math.nan]
    else:
        inside, off = lo + step * int(rng.integers(0, (hi - lo) // step + 1)), [lo, hi, lo - 1, hi + 1]
    return inside if rng.random() < 0.5 else off[int(rng.integers(len(off)))]


# a stages-file value of the wrong type: never truncated or parsed, always refused
RETYPES = (float, lambda value: value + 0.5, str, lambda value: True)


def retype(rng, value):
    return RETYPES[int(rng.integers(len(RETYPES)))](value)


def stage_entries(rng, eps_prime):
    """Zero to two stages; each field is valid three times in four, else one step outside its ledger,
    and in one stage of four, one field (or the last r_set member) is retyped as a float, a string or
    a bool.  Returns the stages and whether a field was retyped."""
    valid = lambda good, bad: good if rng.random() < 0.75 else bad
    entries, prev, retyped = [], None, False
    for _ in range(int(rng.integers(0, 3))):
        n = int(rng.integers(1, 4))
        r_set = sorted({int(r) for r in rng.integers(1, n + 1, size=int(rng.integers(1, 3)))})
        need = math.floor(n * (n + 1) / eps_prime) + 1
        max_freq = valid(need, need - 1)
        grown = max_freq if prev is None else 2 * (prev["max_freq"] + 1) * prev["dilation"] + 1
        prev = {"r_set": valid(r_set, r_set + [n + 1]), "n": n, "max_freq": max_freq,
                "dilation": valid(grown, grown - 1)}
        entries.append(dict(prev))
        if rng.random() < 0.25:
            key, retyped = list(prev)[int(rng.integers(len(prev)))], True
            value = prev[key]
            entries[-1][key] = [*value[:-1], retype(rng, value[-1])] if key == "r_set" else retype(rng, value)
    return entries, retyped


def fuzz_argv(rng, command, tmp_path):
    """The argv of one run, and whether it must end in a refusal."""
    if command == "tower":
        eps_prime = float(draw(rng, 0.0, 0.5))
        path = tmp_path / "stages.json"
        stages, retyped = stage_entries(rng, eps_prime if 0 < eps_prime < 0.5 else 0.3)
        if rng.random() < 0.125:
            eps_prime, retyped = (str(eps_prime), True)[int(rng.integers(2))], True
        path.write_text(json.dumps({"eps_prime": eps_prime, "stages": stages}), encoding="utf-8")
        return ["tower", "--stages-file", str(path)], retyped
    argv = [command, "--seed", str(int(rng.integers(0, 1 << 16)))]
    for flag, bounds in RANGES[command].items():
        argv += [flag, str(draw(rng, *bounds))]
    if command in SET_FILE:
        path = tmp_path / "set.txt"
        path.write_text("\n".join(map(str, sorted({int(r) for r in rng.integers(1, 9, size=3)}))),
                        encoding="utf-8")
        argv += ["--set-file", str(path)]
    return argv, False


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_fuzzed_argv_ends_in_a_report(tmp_path, monkeypatch, command):
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(ATOM_BUDGET))
    rng = np.random.default_rng(sorted(cli.COMMANDS).index(command))
    out = tmp_path / "r.json"
    for _ in range(RUNS_PER_COMMAND):
        argv, retyped = fuzz_argv(rng, command, tmp_path)
        out.unlink(missing_ok=True)
        code = cli.main(argv + ["--json-out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        assert code in ((1,) if retyped else (0, 1)), argv
        assert report["pass"] is (code == 0), argv
        if code == 0:
            assert report["checks"] and all(c["pass"] for c in report["checks"]), argv
        else:
            assert not all(c["pass"] for c in report["checks"]), argv


def valid_tower(rng):
    """A stages file valid by construction: one to three stages sharing eps' in [0.05, 0.3],
    n in {1, 2}, a non-empty r_set inside [1, n], max_freq = floor(n*(n+1)/eps') + 1 and the
    ledger's dilations.  None when its product's prod(2*max_freq - 1) terms exceed the budget."""
    eps_prime = float(rng.uniform(0.05, 0.3))
    stages, prev = [], None
    for _ in range(int(rng.integers(1, 4))):
        n = int(rng.integers(1, 3))
        max_freq = math.floor(n * (n + 1) / eps_prime) + 1
        dilation = max_freq if prev is None else 2 * (prev["max_freq"] + 1) * prev["dilation"] + 1
        r_set = sorted({int(r) for r in rng.integers(1, n + 1, size=int(rng.integers(1, 3)))})
        prev = {"r_set": r_set, "n": n, "max_freq": max_freq, "dilation": dilation}
        stages.append(prev)
    if math.prod(2 * stage["max_freq"] - 1 for stage in stages) > ATOM_BUDGET:
        return None
    return {"eps_prime": eps_prime, "stages": stages}


def test_drawn_valid_towers_pass(tmp_path, monkeypatch):
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(ATOM_BUDGET))
    rng = np.random.default_rng(len(cli.COMMANDS))  # a seed no fuzzed command uses
    path, out = tmp_path / "stages.json", tmp_path / "r.json"
    built = 0
    while built < RUNS_PER_COMMAND:
        config = valid_tower(rng)
        if config is None:
            continue
        path.write_text(json.dumps(config), encoding="utf-8")
        out.unlink(missing_ok=True)
        code = cli.main(["tower", "--stages-file", str(path), "--json-out", str(out)])
        checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
        assert code == 0 and len(checks) == 4 * len(config["stages"]), config
        assert all(c["pass"] for c in checks), config
        built += 1
