import inspect
import json
import math

import pytest

from vdcset import blocks, certify, cli, simplex, tower


def run(argv):
    return cli.main(argv)


def load_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_report_schema(report):
    assert set(report) == {
        "command",
        "params",
        "checks",
        "flags",
        "artifacts",
        "wall_time_s",
        "pass",
    }
    for check in report["checks"]:
        assert set(check) == {"name", "pass", "value", "tolerance", "detail"}


def test_verify_kernels_defaults_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify-kernels", "--json-out", str(out)]) == 0
    report = load_report(out)
    check_report_schema(report)
    assert report["pass"] is True
    assert any(c["name"] == "fejer_product_identity" for c in report["checks"])
    text = capsys.readouterr().out
    assert "OK verify-kernels" in text


def test_verify_kernels_nmax_one(tmp_path):
    assert run(["verify-kernels", "--nmax", "1", "--json-out", str(tmp_path / "r.json")]) == 0


def test_verify_kernels_insufficient_grid(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify-kernels", "--grid", "2", "--json-out", str(out)]) == 1
    report = load_report(out)
    assert report["pass"] is False
    assert report["checks"][0]["name"] == "grid_sufficient"


def test_build_block_pass_and_emit(tmp_path):
    out = tmp_path / "r.json"
    measure_path = tmp_path / "sigma.json"
    code = run(
        [
            "build-block", "--ell", "2", "--q", "64", "--k", "0",
            "--emit-measure", str(measure_path), "--json-out", str(out),
        ]
    )
    assert code == 0
    report = load_report(out)
    check_report_schema(report)
    assert report["artifacts"]["measure"]["path"] == str(measure_path)
    assert len(report["artifacts"]["measure"]["sha256"]) == 64
    from vdcset.measures import AtomicMeasure

    sigma = AtomicMeasure.from_json(measure_path.read_text())
    assert sigma.order == 64


def test_build_block_named_violation(tmp_path):
    out = tmp_path / "r.json"
    assert run(["build-block", "--ell", "2", "--q", "8", "--k", "0", "--json-out", str(out)]) == 1
    report = load_report(out)
    assert "Q > 4*ell" in report["flags"]["invalid_params"]


def test_build_block_bigger_case():
    assert run(["build-block", "--ell", "3", "--q", "128", "--k", "1"]) == 0


def test_build_witness_relaxed(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        ["build-witness", "--j", "1", "--eps", "0.01", "--q", "64", "--p", "2",
         "--json-out", str(out)]
    )
    assert code == 0
    report = load_report(out)
    assert report["flags"]["relaxed"] is True
    counts = {c["name"]: c for c in report["checks"]}
    assert counts["digit_pattern_count"]["value"] == 112
    assert counts["pattern_zeros_residual"]["pass"]


def test_build_witness_canonical_refusal(tmp_path):
    out = tmp_path / "r.json"
    assert run(["build-witness", "--j", "1", "--eps", "0.01", "--q", "64",
                "--json-out", str(out)]) == 1
    report = load_report(out)
    check_report_schema(report)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [
        ("parameter_ledger", True), ("completed", False)]
    assert "maximal feasible P for Q=64 is 4" in report["flags"]["error"]


def test_build_witness_ledger_violation(tmp_path):
    out = tmp_path / "r.json"
    assert run(["build-witness", "--j", "1", "--eps", "0.01", "--q", "18",
                "--p", "1", "--json-out", str(out)]) == 1
    report = load_report(out)
    assert "Q > 4*ell" in report["flags"]["invalid_params"]


def test_build_witness_canonical_depth_needs_a_valid_j(tmp_path, capsys):
    # without --p the canonical depth takes log(2*j^2); j = 0 must reach the ledger instead
    out = tmp_path / "r.json"
    assert run(["build-witness", "--j", "0", "--eps", "0.01", "--q", "64",
                "--json-out", str(out)]) == 1
    assert "FAIL parameter_ledger [j >= 1" in capsys.readouterr().out
    report = load_report(out)
    check_report_schema(report)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("parameter_ledger", False)]
    assert "j >= 1" in report["flags"]["invalid_params"]


def test_set_file_parsing(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("# comment\n1\n2  # trailing\n\n3\n", encoding="utf-8")
    assert cli.read_set_file(str(path)) == [1, 2, 3]
    bad = tmp_path / "bad.txt"
    bad.write_text("x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:1"):
        cli.read_set_file(str(bad))
    # R is a set of positive integers: r <= 0 would be dropped by one certifier, folded by another
    for text, lineno in (("5\n-3\n", 2), ("0\n", 1)):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad.txt:{lineno}: not a positive"):
            cli.read_set_file(str(bad))


def test_certify_recurrence_cli(tmp_path):
    setf = tmp_path / "set.txt"
    setf.write_text("\n".join(str(r) for r in range(1, 8)), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["certify-recurrence", "--set-file", str(setf), "--eps", "0.2",
                "--n", "8", "--json-out", str(out)]) == 0
    report = load_report(out)
    assert report["flags"]["certificate"]["alpha"] == 1


def test_certify_vdc_cli(tmp_path):
    setf = tmp_path / "set.txt"
    setf.write_text("\n".join(str(r) for r in range(1, 8)), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["certify-vdc", "--set-file", str(setf), "--eps", "0.1",
                "--order", "8", "--json-out", str(out)]) == 0
    report = load_report(out)
    assert report["flags"]["atom"] == pytest.approx(0.125, abs=1e-9)
    assert report["flags"]["not_vdc"] is True


def test_certify_vdc_reports_solver_diagnostics(tmp_path):
    setf = tmp_path / "set.txt"
    setf.write_text("\n".join(str(r) for r in range(1, 9)), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["certify-vdc", "--set-file", str(setf), "--eps", "0.1",
                "--order", "128", "--json-out", str(out)]) == 0
    lp = load_report(out)["flags"]["lp"]
    assert set(lp) == {"rows", "crossover_steps", "phase2_pivots", "basis_condition"}
    assert lp["rows"] <= 1 + 8  # one mass row and one cosine row per r


def test_certify_vdc_reverifies_once(tmp_path, monkeypatch):
    real, calls = certify.reverify_witness, []

    def counted(witness):
        calls.append(witness.order)
        return real(witness)

    monkeypatch.setattr(certify, "reverify_witness", counted)
    setf = tmp_path / "set.txt"
    setf.write_text("\n".join(str(r) for r in range(1, 9)), encoding="utf-8")
    assert run(["certify-vdc", "--set-file", str(setf), "--eps", "0.1", "--order", "32"]) == 0
    assert calls == [32]


@pytest.mark.parametrize("failure", ["stall", "reverification"])
def test_certify_vdc_solver_failure_is_reported(tmp_path, monkeypatch, capsys, failure):
    if failure == "stall":
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", 0)
    else:
        def bad_checks(witness, tol=certify.RESIDUAL_TOL):
            return {"min_weight": 0.0, "mass_error": 0.0, "residual": 0.0,
                    "dual_bound": 1.0, "dual_min_slack": 0.0, "duality_gap": 0.5}

        monkeypatch.setattr(certify, "reverify_witness", bad_checks)
    setf = tmp_path / "set.txt"
    setf.write_text("\n".join(str(r) for r in range(1, 9)), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["certify-vdc", "--set-file", str(setf), "--eps", "0.1",
                "--order", "32", "--json-out", str(out)]) == 1
    assert "FAIL completed" in capsys.readouterr().out
    report = load_report(out)
    check_report_schema(report)
    assert report["pass"] is False
    assert [c["name"] for c in report["checks"]] == ["completed"]


def test_certify_vdc_missing_file():
    assert run(["certify-vdc", "--set-file", "/nonexistent/file", "--eps", "0.1",
                "--order", "8"]) == 2


def test_lemma_prt_cli(tmp_path):
    out = tmp_path / "r.json"
    assert run(["lemma-prt", "--m-max", "6", "--random-trials", "50",
                "--json-out", str(out)]) == 0
    assert load_report(out)["pass"] is True


def test_lemma_digits_cli(tmp_path):
    out = tmp_path / "r.json"
    assert run(["lemma-digits", "--j", "1", "--q", "64", "--p", "2", "--trials", "10",
                "--json-out", str(out)]) == 0
    report = load_report(out)
    assert report["pass"] is True


def test_lemma_pair_cli_hypothesis_and_sparse(tmp_path):
    out = tmp_path / "r.json"
    assert run(["lemma-pair", "--q", "4", "--p", "4", "--ell", "2", "--size", "140",
                "--trials", "10", "--json-out", str(out)]) == 0
    report = load_report(out)
    assert report["flags"]["density_hypothesis"] is True
    assert report["flags"]["not_found"] == 0
    # far below density: NotFound is reported with a flag but exit stays 0
    out2 = tmp_path / "r2.json"
    assert run(["lemma-pair", "--q", "4", "--p", "4", "--ell", "2", "--size", "2",
                "--trials", "5", "--json-out", str(out2)]) == 0
    report2 = load_report(out2)
    assert report2["flags"]["density_hypothesis"] is False
    assert report2["flags"]["not_found"] == 5


def test_tower_cli(tmp_path):
    stages = {
        "eps_prime": 0.3,
        "stages": [
            {"r_set": [1], "n": 1, "max_freq": 7, "dilation": 7},
            {"r_set": [1], "n": 1, "max_freq": 7, "dilation": 113},
        ],
    }
    path = tmp_path / "stages.json"
    path.write_text(json.dumps(stages), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["tower", "--stages-file", str(path), "--json-out", str(out)]) == 0
    report = load_report(out)
    names = [c["name"] for c in report["checks"]]
    assert "stage2_marked_frequency" in names
    assert report["pass"] is True


def test_tower_growth_violation(tmp_path):
    stages = {
        "eps_prime": 0.3,
        "stages": [
            {"r_set": [1], "n": 1, "max_freq": 7, "dilation": 7},
            {"r_set": [1], "n": 1, "max_freq": 7, "dilation": 100},
        ],
    }
    path = tmp_path / "stages.json"
    path.write_text(json.dumps(stages), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["tower", "--stages-file", str(path), "--json-out", str(out)]) == 1
    report = load_report(out)
    assert "must exceed" in report["flags"]["error"]


@pytest.mark.parametrize(
    "entry, message",
    [
        pytest.param({"r_set": list(range(1, 9)), "n": 8, "max_freq": 300, "dilation": 300,
                      "beta_order": 9}, "stage 1: no LP witness", id="no-lp-witness"),
        pytest.param({"r_set": [1], "max_freq": 7, "dilation": 7}, "stage 1 lacks the key 'n'",
                     id="missing-key"),
    ],
)
def test_tower_stage_errors_are_reported(tmp_path, capsys, entry, message):
    path = tmp_path / "stages.json"
    path.write_text(json.dumps({"eps_prime": 0.3, "stages": [entry]}), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["tower", "--stages-file", str(path), "--json-out", str(out)]) == 1
    report = load_report(out)
    check_report_schema(report)
    assert message in report["flags"]["error"]
    assert report["checks"][-1]["name"] == "completed"
    assert f"FAIL completed [{message}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "config, message",
    [
        pytest.param({"stages": [{"r_set": [1], "n": 1, "max_freq": 7, "dilation": 7}]},
                     "needs eps or eps_prime", id="no-eps"),
        pytest.param({"eps": None, "stages": []}, "needs eps or eps_prime", id="eps-null"),
        pytest.param({"eps_prime": 0.3, "stages": [{"r_set": 3, "n": 1, "max_freq": 7,
                                                    "dilation": 7}]},
                     "stage 1 is malformed", id="r-set-not-a-list"),
        pytest.param([1, 2], "must be an object", id="top-level-list"),
        pytest.param({"eps_prime": 0.3, "stages": {"a": 1}}, "'stages' is a list",
                     id="stages-not-a-list"),
        pytest.param({"eps_prime": 0.3, "stages": [{"r_set": [1], "n": 1, "max_freq": 7,
                                                    "dilation": 7, "beta_weights": 3}]},
                     "stage 1 is malformed", id="beta-weights-not-a-list"),
        pytest.param({"eps_prime": 0.3, "stages": [{"r_set": [1], "n": 1, "max_freq": 7,
                                                    "dilation": 7, "beta_weights": [0.5, -0.5]}]},
                     "stage 1 is malformed: negative weight", id="beta-weights-negative"),
        pytest.param({"eps_prime": 0.3, "stages": [{"r_set": [1], "n": 1, "max_freq": 7,
                                                    "dilation": 7, "beta_weights": []}]},
                     "stage 1 is malformed: order must be >= 1", id="beta-weights-empty"),
        pytest.param({"eps_prime": 0.3, "stages": [{"r_set": [1], "n": 1, "max_freq": 7,
                                                    "dilation": 7, "beta_order": "x"}]},
                     "stage 1 is malformed", id="beta-order-not-an-integer"),
    ],
)
def test_malformed_stage_files_are_reported(tmp_path, capsys, config, message):
    path = tmp_path / "stages.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["tower", "--stages-file", str(path), "--json-out", str(out)]) == 1
    report = load_report(out)
    check_report_schema(report)
    assert message in report["flags"]["error"]
    assert "FAIL completed [" in capsys.readouterr().out


def test_tower_product_over_the_atom_budget_is_reported(tmp_path, capsys):
    stage = {"r_set": [1], "n": 1, "max_freq": 10**9, "dilation": 10**9, "beta_weights": [0.5, 0.5]}
    path = tmp_path / "stages.json"
    path.write_text(json.dumps({"eps_prime": 0.3, "stages": [stage]}), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["tower", "--stages-file", str(path), "--json-out", str(out)]) == 1
    report = load_report(out)
    check_report_schema(report)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("completed", False)]
    assert "tower product of 1999999999 terms exceeds the atom budget" in report["flags"]["error"]
    assert "FAIL completed [tower product" in capsys.readouterr().out


def test_tower_empty_stages(tmp_path):
    path = tmp_path / "stages.json"
    path.write_text('{"eps_prime": 0.3, "stages": []}', encoding="utf-8")
    assert run(["tower", "--stages-file", str(path)]) == 0


def test_reports_are_reproducible(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["verify-kernels", "--seed", "3", "--nmax", "4"]
    assert run(argv + ["--json-out", str(first)]) == 0
    assert run(argv + ["--json-out", str(second)]) == 0
    a, b = load_report(first), load_report(second)
    for ca, cb in zip(a["checks"], b["checks"]):
        assert ca["name"] == cb["name"] and ca["pass"] == cb["pass"]
        if isinstance(ca["value"], float):
            assert abs(ca["value"] - cb["value"]) <= 1e-12
        else:
            assert ca["value"] == cb["value"]


def test_emit_size_gate(tmp_path):
    import numpy as np

    from vdcset.measures import AtomicMeasure
    from vdcset.reports import RunReport

    big = AtomicMeasure(cli.EMIT_ATOM_LIMIT * 2, np.zeros(cli.EMIT_ATOM_LIMIT * 2))
    report = RunReport(command="x", params={})
    target = tmp_path / "big.json"
    cli._emit_measure(report, "measure", big, str(target))
    assert not target.exists()
    assert "emission gate" in report.flags["measure_not_emitted"]


def test_atom_budget_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("VDC_ATOM_BUDGET", "100")
    out = tmp_path / "r.json"
    assert run(["build-witness", "--j", "1", "--eps", "0.01", "--q", "64", "--p", "2",
                "--json-out", str(out)]) == 1
    report = load_report(out)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [
        ("parameter_ledger", True), ("completed", False)]
    assert "atom budget 100; maximal feasible P for Q=64 is 1" in report["flags"]["error"]


def test_build_block_atom_budget_is_reported(tmp_path, monkeypatch):
    monkeypatch.setenv("VDC_ATOM_BUDGET", "100")
    out = tmp_path / "r.json"
    assert run(["build-block", "--ell", "2", "--q", "64", "--k", "1", "--json-out", str(out)]) == 1
    report = load_report(out)
    check_report_schema(report)
    assert "atom budget" in report["flags"]["error"]
    assert report["checks"][-1]["name"] == "completed"


def test_build_witness_builds_each_block_once(monkeypatch):
    from vdcset import blocks

    built = []
    real = blocks.build_block

    def counted(params, **kwargs):
        built.append(params.k)
        return real(params, **kwargs)

    monkeypatch.setattr(blocks, "build_block", counted)
    assert run(["build-witness", "--j", "1", "--eps", "0.01", "--q", "64", "--p", "2"]) == 0
    assert built == [0, 1]


def test_build_block_computes_block_polynomials_once(monkeypatch, capsys):
    from vdcset import blocks

    calls, sampled = [], []
    real, real_samples = blocks.block_polynomials, blocks.from_samples

    def counted(params):
        calls.append(params)
        return real(params)

    def counted_samples(poly, order):
        sampled.append(order)
        return real_samples(poly, order)

    # the traced benchmark books both layers on the construct path: each must run once
    monkeypatch.setattr(blocks, "block_polynomials", counted)
    monkeypatch.setattr(blocks, "from_samples", counted_samples)
    assert run(["build-block", "--ell", "2", "--q", "32", "--k", "1"]) == 0
    assert calls == [blocks.BlockParams(2, 32, 1)]
    assert sampled == [1024]
    assert "FLAG sample_poly_degree = 639" in capsys.readouterr().out


def beta_stage_file(tmp_path, mass):
    """A one-stage tower file whose beta is uniform on 3 points with this mass."""
    stages = {
        "eps_prime": 0.3,
        "stages": [{"r_set": [1], "n": 1, "max_freq": 7, "dilation": 7,
                    "beta_weights": [mass / 3] * 3}],
    }
    path = tmp_path / "stages.json"
    path.write_text(json.dumps(stages), encoding="utf-8")
    return str(path)


def test_tower_beta_mass_within_tolerance(tmp_path):
    # mass 1 + 5e-10 passes check_beta at tol 1e-9, so the stage must build
    out = tmp_path / "r.json"
    path = beta_stage_file(tmp_path, 1.0 + 5e-10)
    assert run(["tower", "--stages-file", path, "--json-out", str(out)]) == 0
    checks = {c["name"]: c for c in load_report(out)["checks"]}
    assert checks["stage1_mean"]["value"] == pytest.approx(5e-10, abs=1e-12)


def test_tower_beta_mass_beyond_tolerance_fails(tmp_path, capsys):
    # mass 1 + 1e-7 misses the pinned 1e-9: no option can loosen it
    assert run(["tower", "--stages-file", beta_stage_file(tmp_path, 1.0 + 1e-7)]) == 1
    out = capsys.readouterr().out
    assert "FAIL completed" in out
    assert "not 1 within 1e-09" in out


def test_tower_rejects_non_finite_beta_weights(tmp_path, capsys):
    # nan passed check_beta and the stage positivity test, failing only at stage1_mean
    stages = {"eps_prime": 0.3, "stages": [{"r_set": [1], "n": 1, "max_freq": 7, "dilation": 7,
                                            "beta_weights": [math.nan, 0.3333, 0.3333]}]}
    path = tmp_path / "stages.json"
    path.write_text(json.dumps(stages), encoding="utf-8")
    assert run(["tower", "--stages-file", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL completed [stage 1 is malformed: weight 0 is not finite: nan" in out


LEDGER_NAMES = [
    "ledger: ell >= 1", "ledger: k >= 0", "ledger: Q even", "ledger: Q > 4*ell",
    "ledger: Q/2 - 2*ell > ell", "ledger: ell*Q^k < Q^(k+1)/2 - ell*Q^k",
    "ledger: -Q^(k+1)/2 + ell*Q^k < -Q^k", "ledger: 2*ell*Q^k - Q^(k+1)/2 < -ell*Q^k",
]
TOWER_NAMES = [
    f"stage{j}_{name}"
    for j in (1, 2)
    for name in ("vanishing_tail", "frozen_window", "mean", "marked_frequency")
]
README_ARGV = {
    "verify-kernels": ["verify-kernels"],
    "build-block": ["build-block", "--ell", "2", "--q", "64", "--k", "0"],
    "build-witness": ["build-witness", "--j", "1", "--eps", "0.01", "--q", "64"],
    "certify-recurrence": ["certify-recurrence", "--set-file", "R.txt", "--eps", "0.2", "--n", "8"],
    "certify-vdc": ["certify-vdc", "--set-file", "R.txt", "--eps", "0.1", "--order", "8"],
    "lemma-prt": ["lemma-prt"],
    "lemma-digits": ["lemma-digits", "--q", "64", "--p", "2"],
    "lemma-pair": ["lemma-pair", "--q", "4", "--p", "4", "--ell", "2", "--size", "140"],
    "tower": ["tower", "--stages-file", "stages.json"],
}


def write_readme_inputs(tmp_path, monkeypatch):
    """Work in tmp_path beside the README's set file R.txt and two-stage stages.json."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "R.txt").write_text("\n".join(str(r) for r in range(1, 8)), encoding="utf-8")
    (tmp_path / "stages.json").write_text(json.dumps({
        "eps_prime": 0.3,
        "stages": [
            {"r_set": [1], "n": 1, "max_freq": 7, "dilation": 7},
            {"r_set": [1], "n": 1, "max_freq": 7, "dilation": 113},
        ],
    }), encoding="utf-8")


@pytest.mark.parametrize(
    "argv, names",
    [
        pytest.param(["verify-kernels"], [
            "grid_sufficient", "fejer_product_identity", "fejer_lower_bound",
            "fejer_upper_bound", "multiply_pointwise", "domination_kernel_coeffs",
            "domination_fixpoint", "domination_lower_bound", "convex_profile_positivity",
            "sampling_identity",
        ], id="verify-kernels"),
        pytest.param(
            ["build-block", "--ell", "2", "--q", "64", "--k", "0"],
            LEDGER_NAMES + ["mass_excess", "plus_band_residual", "minus_band_residual"],
            id="build-block",
        ),
        pytest.param(
            ["build-witness", "--j", "1", "--eps", "0.01", "--q", "64", "--p", "2"],
            ["parameter_ledger", "digit_pattern_count", "pattern_zeros_residual", "mass",
             "atom_lower_bound"],
            id="build-witness",
        ),
        pytest.param(["build-witness", "--j", "1", "--eps", "0.01", "--q", "64"],
                     ["parameter_ledger", "completed"], id="build-witness-canonical"),
        pytest.param(["certify-recurrence", "--set-file", "R.txt", "--eps", "0.2", "--n", "8"],
                     ["alpha_within_budget"], id="certify-recurrence"),
        pytest.param(["certify-vdc", "--set-file", "R.txt", "--eps", "0.1", "--order", "8"],
                     ["witness_mass", "witness_residual", "dual_bound",
                      "dual_min_slack", "duality_gap"], id="certify-vdc"),
        pytest.param(["lemma-prt"], ["poincare_failures"], id="lemma-prt"),
        pytest.param(["lemma-digits", "--q", "64", "--p", "2"], ["all_found", "all_verified"],
                     id="lemma-digits"),
        pytest.param(["lemma-pair", "--q", "4", "--p", "4", "--ell", "2", "--size", "140"],
                     ["bullets_verified", "found_under_hypothesis"], id="lemma-pair"),
        pytest.param(["tower", "--stages-file", "stages.json"], TOWER_NAMES, id="tower"),
    ],
)
def test_readme_commands_print_pinned_checks(tmp_path, monkeypatch, capsys, argv, names):
    write_readme_inputs(tmp_path, monkeypatch)
    run(argv + ["--json-out", "r.json"])
    assert [c["name"] for c in load_report(tmp_path / "r.json")["checks"]] == names
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith(("PASS ", "FAIL "))]
    assert len(printed) == len(names)
    for line, name in zip(printed, names):
        assert line[5:].startswith(name)


@pytest.mark.parametrize(
    "argv, tolerances",
    [
        pytest.param(["verify-kernels"], {
            "grid_sufficient": None, "fejer_product_identity": 1e-9, "fejer_lower_bound": 1e-12,
            "fejer_upper_bound": 1e-12, "multiply_pointwise": 1e-9,
            "domination_kernel_coeffs": 1e-12, "domination_fixpoint": 1e-12,
            "domination_lower_bound": 1e-9, "convex_profile_positivity": 1e-9,
            "sampling_identity": 1e-9,
        }, id="verify-kernels"),
        pytest.param(["build-block", "--ell", "2", "--q", "64", "--k", "0"], {
            **dict.fromkeys(LEDGER_NAMES),
            "mass_excess": 1e-9, "plus_band_residual": 1e-9, "minus_band_residual": 1e-9,
        }, id="build-block"),
        pytest.param(["build-witness", "--j", "1", "--eps", "0.01", "--q", "64", "--p", "2"], {
            "parameter_ledger": None, "digit_pattern_count": None,
            "pattern_zeros_residual": 1e-9, "mass": 1e-9, "atom_lower_bound": 1e-9,
        }, id="build-witness"),
        pytest.param(["certify-vdc", "--set-file", "R.txt", "--eps", "0.1", "--order", "8"], {
            "witness_mass": 1e-12, "witness_residual": 1e-9,
            "dual_bound": 1e-9, "dual_min_slack": 1e-9, "duality_gap": 1e-9,
        }, id="certify-vdc"),
        pytest.param(["tower", "--stages-file", "stages.json"], dict.fromkeys(TOWER_NAMES, 1e-9),
                     id="tower"),
    ],
)
def test_readme_commands_pin_check_tolerances(tmp_path, monkeypatch, argv, tolerances):
    write_readme_inputs(tmp_path, monkeypatch)
    assert run(argv + ["--json-out", "r.json"]) == 0
    checks = load_report(tmp_path / "r.json")["checks"]
    assert {c["name"]: c["tolerance"] for c in checks} == tolerances
    assert [c["name"] for c in checks] == list(tolerances)


def test_readme_argv_cover_every_subcommand():
    assert sorted(README_ARGV) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(README_ARGV))
def test_no_subcommand_accepts_a_tolerance(command, capsys):
    parser = cli.build_parser()
    parser.parse_args(README_ARGV[command])
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(README_ARGV[command] + ["--tol", "1e-9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("function", [
    blocks.build_block, blocks.build_witness, blocks.block_checks, blocks.witness_checks,
    certify.reverify_witness, certify.VdcFailureWitness.checks.func, tower.check_beta,
    tower.tower_block, tower.build_tower, simplex.solve_lp, blocks.zero_set,
], ids=lambda f: f.__name__)
def test_acceptance_functions_take_no_tolerance(function):
    assert "tol" not in inspect.signature(function).parameters


@pytest.mark.parametrize("argv, bound", [
    pytest.param(["verify-kernels", "--nmax", "0"], "nmax >= 1", id="verify-kernels"),
    pytest.param(["lemma-digits", "--q", "64", "--p", "0"], "P >= 1", id="lemma-digits"),
    pytest.param(["lemma-prt", "--random-size", "1"], "--random-size >= 2", id="lemma-prt"),
])
def test_out_of_range_arguments_name_their_bound(tmp_path, argv, bound):
    out = tmp_path / "r.json"
    assert run(argv + ["--json-out", str(out)]) == 1
    assert bound in load_report(out)["flags"]["error"]


def test_cached_parser_carries_no_state(tmp_path, monkeypatch):
    reports = []

    class RecordingReport(cli.RunReport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            reports.append(self)

    monkeypatch.setattr(cli, "RunReport", RecordingReport)
    out = tmp_path / "r.json"
    run(["lemma-digits", "--q", "16", "--p", "2", "--density", "0.5", "--json-out", str(out)])
    assert load_report(out)["params"]["density"] == 0.5
    out.unlink()
    run(["lemma-digits", "--q", "16", "--p", "2"])
    assert reports[1].params["density"] == 0.97
    assert "json_out" not in reports[1].params and not out.exists()
    assert cli.build_parser() is cli.build_parser()
