"""Correctness gate: checks every case's output with arithmetic of its own.

Nothing here calls vdcset.  Transforms come from ``numpy.fft``
(``fft(w)[k] = sum_j w_j exp(-2*pi*i*k*j/N)``, the library's definition
of ``fourier``), block transforms from their closed form, and optimal
values from pins computed outside the solver under test (``pins.py``).
Each check returns a list of failure messages; an empty list passes.
"""

import itertools
import re

import numpy as np

EVAL_TOL = 1e-9   # the library's evaluation tolerance
COEFF_TOL = 1e-12  # the library's coefficient and weight tolerance
MASS_CONSTANT = 320.0


def _over(label, value, tol):
    return [f"{label} {value:.3g} > {tol:g}"] if not value <= tol else []


def block_transform(ell: int, q: int, k: int, freqs) -> np.ndarray:
    """Closed-form transform of the (ell, Q, k) block at integer frequencies.

    The block is the point pair at +-1/N plus the samples of
    s = 16*ell*(p conv F_{Q^k}) + r*p, so its transform at m is
    cos(2*pi*m/N) + s_hat(m) + s_hat(m - N) for 0 <= m < N.
    """
    n = q ** (k + 1)
    edge = ell * q**k
    fejer_n = q**k
    half = n // 2
    spikes = [(edge, 1.0), (-edge, 1.0)] + [
        (sign * (half + shift), -0.5) for sign in (1, -1) for shift in (-edge, edge)
    ]

    def p_hat(m):
        m = np.abs(m)
        return np.where(m <= edge, 1.0 - np.cos(2.0 * np.pi * (edge - m) / n), 0.0)

    def s_hat(m):
        fejer = np.clip(1.0 - np.abs(m) / fejer_n, 0.0, None)
        out = 16.0 * ell * p_hat(m) * fejer
        for shift, weight in spikes:
            out = out + weight * p_hat(m - shift)
        return out

    m = np.asarray(freqs, dtype=np.int64) % n
    return np.cos(2.0 * np.pi * m / n) + s_hat(m) + s_hat(m - n)


def check_block(weights, ell: int, q: int, k: int, spot) -> list:
    """The block guarantees at 1e-9 plus seed-chosen spot frequencies."""
    n = q ** (k + 1)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        return [f"block has shape {w.shape}, expected ({n},)"]
    spectrum = np.fft.fft(w)
    edge = ell * q**k
    half = n // 2
    plus = float(np.abs(spectrum[q**k : edge + 1] - 1.0).max())
    minus = float(np.abs(spectrum[half : half + edge + 1] + 1.0).max())
    excess = float(w.sum()) - (1.0 + MASS_CONSTANT * ell**3 / q**2)
    spot_err = float(np.abs(spectrum[np.asarray(spot) % n] - block_transform(ell, q, k, spot)).max())
    return (
        _over("plus band residual", plus, EVAL_TOL)
        + _over("minus band residual", minus, EVAL_TOL)
        + _over("mass excess", excess, EVAL_TOL)
        + _over("negative weight", -float(w.min()), COEFF_TOL)
        + _over("spot transform error", spot_err, EVAL_TOL)
    )


def digit_patterns(j: int, q: int, p: int) -> np.ndarray:
    """Integers whose base-Q digits lie in [1, 8j) except exactly one in [Q/2, Q/2 + 8j)."""
    low = range(1, 8 * j)
    high = range(q // 2, q // 2 + 8 * j)
    out = set()
    for marked in range(p):
        pools = [high if i == marked else low for i in range(p)]
        for digits in itertools.product(*pools):
            out.add(sum(d * q**i for i, d in enumerate(digits)))
    return np.array(sorted(out), dtype=np.int64)


def check_witness(mu, sigma, zeros, j: int, q: int, p: int, spot) -> list:
    """Digit-pattern zeros, unit mass, the guaranteed atom, the product
    spectrum at seed-chosen frequencies and the reported zero set."""
    n = q**p
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu.shape != (n,) or sigma.shape != (n,):
        return [f"witness shapes {mu.shape}, {sigma.shape}, expected ({n},)"]
    mu_hat = np.fft.fft(mu)
    members = digit_patterns(j, q, p)
    pattern = float(np.abs(mu_hat[members]).max())
    mass = abs(float(mu.sum()) - 1.0)
    bound = 1.0 / (1.0 + (1.0 + MASS_CONSTANT * (8 * j) ** 3 / q**2) ** p)
    spot = np.asarray(spot, dtype=np.int64) % n
    predicted = np.ones(spot.shape, dtype=complex)
    for k in range(p):
        predicted *= block_transform(8 * j, q, k, spot % q ** (k + 1))
    product = float(np.abs(np.fft.fft(sigma)[spot] - predicted).max())
    failures = (
        _over("pattern zero residual", pattern, EVAL_TOL)
        + _over("mass error", mass, EVAL_TOL)
        + _over("atom shortfall", bound - float(mu[0]), EVAL_TOL)
        + _over("product spectrum error", product, EVAL_TOL)
        + _over("negative weight", -float(mu.min()), COEFF_TOL)
    )
    zeros = np.array(sorted(zeros), dtype=np.int64)
    missing = np.setdiff1d(members, zeros)
    if missing.size:
        failures.append(f"zero set misses {missing.size} pattern members, first {int(missing[0])}")
    if zeros.size:
        failures += _over("largest transform on the zero set", float(np.abs(mu_hat[zeros]).max()), EVAL_TOL)
    return failures


def check_lp(weights, atom: float, not_vdc: bool, r_set, epsilon: float, pinned: float) -> list:
    """Re-verification of an LP witness plus its optimal atom against the pin."""
    w = np.asarray(weights, dtype=float)
    n = w.size
    spectrum = np.fft.fft(w)
    residual = max((abs(spectrum[r % n]) for r in r_set), default=0.0)
    failures = (
        _over("negative weight", -float(w.min()), COEFF_TOL)
        + _over("mass error", abs(float(w.sum()) - 1.0), COEFF_TOL)
        + _over("transform residual on R", float(residual), EVAL_TOL)
        + _over("atom differs from pinned optimum by", abs(atom - pinned), EVAL_TOL)
    )
    if atom != float(w[0]):
        failures.append(f"reported atom {atom} is not the weight at 0, {float(w[0])}")
    if bool(not_vdc) != (atom > epsilon + EVAL_TOL):
        failures.append(f"not_vdc={not_vdc} contradicts atom {atom} against epsilon {epsilon}")
    return failures


def check_avoiding(alpha: int, witness, r_set, n: int, pinned: int) -> list:
    """alpha against the pin and a direct pairwise check of the witness."""
    failures = []
    if alpha != pinned:
        failures.append(f"alpha {alpha} differs from pinned {pinned}")
    members = sorted(set(int(v) for v in witness))
    if len(members) != alpha or len(witness) != alpha:
        failures.append(f"witness has {len(members)} distinct members for alpha {alpha}")
    if members and (members[0] < 0 or members[-1] >= n):
        failures.append(f"witness leaves [0, {n})")
    diffs = set(int(r) for r in r_set)
    clash = [(a, b) for a, b in itertools.combinations(members, 2) if b - a in diffs]
    if clash:
        failures.append(f"witness pair {clash[0]} differs by an element of R")
    return failures


def check_tower(stages, products, residuals) -> list:
    """The four frozen-spectrum guarantees, recomputed from the coefficients.

    ``stages`` holds (r_set, eps_prime, max_freq, dilation) per stage,
    ``products`` the coefficient dicts of the running products, and
    ``residuals`` the library's own claim residuals, which must agree.
    """
    if len(products) != len(stages):
        return [f"{len(products)} running products for {len(stages)} stages"]
    failures = []
    for i, ((r_set, eps_prime, max_freq, dilation), coeffs) in enumerate(zip(stages, products)):
        freqs = np.fromiter(coeffs.keys(), dtype=np.int64, count=len(coeffs))
        values = np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs))
        if i + 1 < len(stages):
            threshold = stages[i + 1][3]
        else:
            threshold = 2 * (max_freq + 1) * dilation + 1
        outside = np.abs(freqs) >= threshold
        tail = float(np.abs(values[outside]).max()) if outside.any() else 0.0
        frozen = 0.0
        if i + 1 < len(products):
            nxt = products[i + 1]
            window = {int(m) for m in freqs[~outside]}
            window |= {m for m in nxt if abs(m) < threshold}
            frozen = max((abs(coeffs.get(m, 0j) - nxt.get(m, 0j)) for m in window), default=0.0)
        mean = abs(coeffs.get(0, 0j) - 1.0)
        marked = max((abs(coeffs.get(2 * dilation * r, 0j) + eps_prime) for r in r_set), default=0.0)
        label = f"stage {i + 1}"
        failures += (
            _over(f"{label} vanishing tail", tail, EVAL_TOL)
            + _over(f"{label} frozen window", float(frozen), EVAL_TOL)
            + _over(f"{label} mean deviation", mean, EVAL_TOL)
            + _over(f"{label} marked frequency", float(marked), EVAL_TOL)
        )
    if len(residuals) != len(stages):
        failures.append(f"claim_residuals reported {len(residuals)} stages for {len(stages)}")
    for row in residuals:
        for key in ("vanishing_tail", "frozen_window", "mean_deviation", "marked_frequency"):
            failures += _over(f"claim_residuals stage {row['stage']} {key}", row[key], EVAL_TOL)
    return failures


_CHECK_LINE = re.compile(r"^(PASS|FAIL) (.+?)(?: value=(\S+))?(?: \(tol [^)]*\))?(?: \[.*\])?$")


def parse_cli(text: str) -> dict:
    """Check lines, flags and the closing verdict of one CLI report."""
    checks, flags, verdict = {}, {}, None
    for line in text.splitlines():
        if line.startswith("FLAG "):
            key, _, value = line[5:].partition(" = ")
            flags[key] = value
        elif line.startswith(("OK ", "FAILED ")):
            verdict = line.split(" ", 1)[0]
        else:
            match = _CHECK_LINE.match(line)
            if match:
                checks[match.group(2)] = (match.group(1), match.group(3))
    return {"checks": checks, "flags": flags, "verdict": verdict}


def check_cli(code: int, text: str, expect: dict) -> list:
    """The expected verdict of one command.

    ``expect`` gives the exit ``code``; ``fail`` maps each check that must
    print FAIL to its pinned value (all others must PASS); ``flags`` maps a
    numeric flag to its pinned value, compared at 1e-9.
    """
    report = parse_cli(text)
    failures = []
    if code != expect["code"]:
        failures.append(f"exit code {code}, expected {expect['code']}")
    want_fail = expect.get("fail", {})
    if not report["checks"]:
        failures.append("no check lines printed")
    for name, (mark, value) in report["checks"].items():
        if name in want_fail:
            if mark != "FAIL" or value != str(want_fail[name]):
                failures.append(f"check {name} printed {mark} value={value}, expected FAIL value={want_fail[name]}")
        elif mark != "PASS":
            failures.append(f"check {name} printed FAIL")
    for name in want_fail:
        if name not in report["checks"]:
            failures.append(f"check {name} missing")
    expected_verdict = "OK" if expect["code"] == 0 else "FAILED"
    if report["verdict"] != expected_verdict:
        failures.append(f"verdict {report['verdict']}, expected {expected_verdict}")
    for key, pinned in expect.get("flags", {}).items():
        try:
            value = float(report["flags"][key])
        except (KeyError, ValueError):
            failures.append(f"flag {key} missing or not a number")
            continue
        if not abs(value - pinned) <= EVAL_TOL:
            failures.append(f"flag {key} = {value}, pinned {pinned}")
    return failures
