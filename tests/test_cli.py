import inspect
import json
from pathlib import Path

import pytest

from vdcset import blocks, certify, cli, simplex, tower

from measure_helpers import measure_from_json


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
    # kernel_residuals refuses the grid by name, as it refuses --nmax 0
    out = tmp_path / "r.json"
    assert run(["verify-kernels", "--grid", "2", "--json-out", str(out)]) == 1
    report = load_report(out)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("completed", False)]
    assert report["flags"]["error"] == "kernel identities need grid > 2*nmax^2 = 128, got 2"


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
    sigma = measure_from_json(measure_path.read_text())
    assert sigma.order == 64


def test_build_block_named_violation(tmp_path, capsys):
    # BlockParams refuses at construction; the refusal takes main's one named-error path
    out = tmp_path / "r.json"
    assert run(["build-block", "--ell", "2", "--q", "8", "--k", "0", "--json-out", str(out)]) == 1
    report = load_report(out)
    check_report_schema(report)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("completed", False)]
    assert report["flags"]["error"].startswith("block parameters (ell=2, Q=8, k=0) violate: Q > 4*ell; ")
    assert "FAIL completed [block parameters" in capsys.readouterr().out


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
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("completed", False)]
    assert "maximal feasible P for Q=64 is 4" in report["flags"]["error"]


def test_build_witness_ledger_violation(tmp_path):
    out = tmp_path / "r.json"
    assert run(["build-witness", "--j", "1", "--eps", "0.01", "--q", "18",
                "--p", "1", "--json-out", str(out)]) == 1
    report = load_report(out)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("completed", False)]
    assert "block k=0: Q > 4*ell" in report["flags"]["error"]


def test_build_witness_canonical_depth_needs_a_valid_j(tmp_path, capsys):
    # without --p the canonical depth takes log(2*j^2); j = 0 must reach the ledger instead
    out = tmp_path / "r.json"
    assert run(["build-witness", "--j", "0", "--eps", "0.01", "--q", "64",
                "--json-out", str(out)]) == 1
    refusal = ("witness parameters (j=0, Q=64, P=1) violate: "
               "digit patterns need j >= 1 and P >= 1, got j=0, P=1; ")  # digit_windows' message first
    assert f"FAIL completed [{refusal}" in capsys.readouterr().out
    report = load_report(out)
    check_report_schema(report)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("completed", False)]
    assert report["flags"]["error"].startswith(refusal)


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


@pytest.mark.parametrize("eps", ["nan", "inf", "-1", "0", "1"])
@pytest.mark.parametrize("command, size", [("certify-recurrence", "--n"), ("certify-vdc", "--order")])
def test_certify_commands_refuse_epsilon_outside_the_unit_interval(tmp_path, command, size, eps):
    setf = tmp_path / "set.txt"
    setf.write_text("1\n2\n", encoding="utf-8")
    out = tmp_path / "r.json"
    assert run([command, "--set-file", str(setf), "--eps", eps, size, "8", "--json-out", str(out)]) == 1
    assert "epsilon" in load_report(out)["flags"]["error"]


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


@pytest.mark.parametrize("residuals, argv, order", [
    pytest.param("block_residuals", ["build-block", "--ell", "2", "--q", "32", "--k", "1"], 32**2,
                 id="build-block"),
    pytest.param("witness_residuals", ["build-witness", "--j", "1", "--eps", "0.01", "--q", "64", "--p", "2"],
                 64**2, id="build-witness"),
])
def test_builders_compute_their_table_once(monkeypatch, residuals, argv, order):
    real, calls = getattr(blocks, residuals), []

    def counted(measure, params):
        calls.append(measure.order)
        return real(measure, params)

    monkeypatch.setattr(blocks, residuals, counted)
    assert run(argv) == 0
    assert calls == [order]


def test_certify_vdc_reads_an_r_past_int64_by_its_residue(tmp_path):
    big = 10**20 + 1  # 10^20 is a multiple of 16, so big reads the order-16 roots as 1 does
    setf = tmp_path / "set.txt"
    setf.write_text(f"3\n{big}\n", encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["certify-vdc", "--set-file", str(setf), "--eps", "0.1", "--order", "16",
                "--json-out", str(out)]) == 0
    report = load_report(out)
    assert all(c["pass"] for c in report["checks"])
    assert report["flags"]["certificate"]["R"] == [3, big]
    assert report["flags"]["atom"] == pytest.approx(certify.max_atom_lp([1, 3], 16).atom, abs=1e-12)


@pytest.mark.parametrize("failure", ["stall", "reverification"])
def test_certify_vdc_solver_failure_is_reported(tmp_path, monkeypatch, capsys, failure):
    if failure == "stall":
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", 0)
    else:
        def bad_checks(witness):
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
    report = load_report(out)
    assert report["pass"] is True
    # every non-empty subset of m points under each of the m rotations, then the random systems
    assert report["checks"][0]["value"] == sum(m * (2**m - 1) for m in range(1, 7)) + 50


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
    assert report["checks"] == [{"name": "pairs_found", "pass": True, "value": 10,
                                 "tolerance": None, "detail": "10 trials"}]
    # far below density: no pair is found, which the library allows there, and exit stays 0
    out2 = tmp_path / "r2.json"
    assert run(["lemma-pair", "--q", "4", "--p", "4", "--ell", "2", "--size", "2",
                "--trials", "5", "--json-out", str(out2)]) == 0
    report2 = load_report(out2)
    assert report2["flags"]["density_hypothesis"] is False
    assert [(c["name"], c["pass"], c["value"]) for c in report2["checks"]] == [("pairs_found", True, 0)]


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
        pytest.param({"r_set": [1, 2, 3], "n": 3, "max_freq": 41, "dilation": 41},  # best atom 1/4
                     "stage 1: no LP witness with atom above 0.3 found for (1, 2, 3)", id="no-lp-witness"),
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


def stage_file(first, second=None):
    """A stages file of one valid stage, or two when second is given, with these values put in."""
    stages = [{"r_set": [1], "n": 1, "max_freq": 7, "dilation": 7} | first]
    if second is not None:
        stages.append({"r_set": [1], "n": 1, "max_freq": 7, "dilation": 113} | second)
    return {"eps_prime": 0.3, "stages": stages}


UNKNOWN_KEY = "stage 1 has unknown keys ['{}']; a stage holds only r_set, n, max_freq, dilation"


@pytest.mark.parametrize(
    "config, message",
    [
        pytest.param({"stages": [{"r_set": [1], "n": 1, "max_freq": 7, "dilation": 7}]},
                     "the stages file needs eps_prime", id="no-eps"),
        pytest.param({"eps": None, "stages": []}, "the stages file needs eps_prime", id="eps-null"),
        pytest.param({"eps": 0.2, "stages": [{"r_set": [1], "n": 1, "max_freq": 9, "dilation": 9}]},
                     "the stages file needs eps_prime, with eps_prime/(1 + eps_prime) > eps", id="eps-only"),
        pytest.param(stage_file({"n": 2.7, "max_freq": 21, "dilation": 21}),
                     "stage 1 is malformed: n must be an integer, got 2.7",
                     id="n-float"),
        pytest.param(stage_file({"max_freq": 30.9, "dilation": 30}),
                     "stage 1 is malformed: max_freq must be an integer, got 30.9", id="max-freq-float"),
        pytest.param(stage_file({}, {"dilation": 113.9}),
                     "stage 2 is malformed: dilation must be an integer, got 113.9", id="dilation-float"),
        pytest.param(stage_file({"r_set": "12", "n": 2, "max_freq": 21, "dilation": 21}),
                     "stage 1 is malformed: r_set must be a list of integers, got '12'", id="r-set-string"),
        pytest.param(stage_file({"r_set": [1.9, 2], "n": 2, "max_freq": 21, "dilation": 21}),
                     "stage 1 is malformed: r_set must be a list of integers, got [1.9, 2]",
                     id="r-set-float-member"),
        pytest.param(stage_file({"r_set": {"1": 0, "2": 0}, "n": 2, "max_freq": 21, "dilation": 21}),
                     "stage 1 is malformed: r_set must be a list of integers, got {'1': 0, '2': 0}",
                     id="r-set-object"),
        pytest.param(stage_file({"n": True}), "stage 1 is malformed: n must be an integer, got True",
                     id="n-bool"),
        pytest.param(stage_file({}) | {"eps_prime": "0.3"},
                     "stage 1 is malformed: eps_prime must be a number, got '0.3'", id="eps-prime-string"),
        pytest.param({"eps_prime": 0.3, "stages": [{"r_set": 3, "n": 1, "max_freq": 7,
                                                    "dilation": 7}]},
                     "stage 1 is malformed", id="r-set-not-a-list"),
        pytest.param([1, 2], "must be an object", id="top-level-list"),
        pytest.param({"eps_prime": 0.3, "stages": {"a": 1}}, "'stages' is a list",
                     id="stages-not-a-list"),
        pytest.param({"eps_prime": 0.3, "stages": [{"r_set": [1], "n": 1, "max_freq": 7,
                                                    "dilation": 7, "beta_weights": 3}]},
                     UNKNOWN_KEY.format("beta_weights"), id="beta-weights-not-a-list"),
        pytest.param({"eps_prime": 0.3, "stages": [{"r_set": [1], "n": 1, "max_freq": 7,
                                                    "dilation": 7, "beta_weights": [0.5, -0.5]}]},
                     UNKNOWN_KEY.format("beta_weights"), id="beta-weights-negative"),
        pytest.param({"eps_prime": 0.3, "stages": [{"r_set": [1], "n": 1, "max_freq": 7,
                                                    "dilation": 7, "beta_weights": []}]},
                     UNKNOWN_KEY.format("beta_weights"), id="beta-weights-empty"),
        pytest.param({"eps_prime": 0.3, "stages": [{"r_set": [1], "n": 1, "max_freq": 7,
                                                    "dilation": 7, "beta_order": "x"}]},
                     UNKNOWN_KEY.format("beta_order"), id="beta-order-not-an-integer"),
        pytest.param({"eps_prime": 0.3, "stages": [3]}, "stage 1 is malformed", id="stage-not-an-object"),
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
    stage = {"r_set": [1], "n": 1, "max_freq": 10**9, "dilation": 10**9}
    path = tmp_path / "stages.json"
    path.write_text(json.dumps({"eps_prime": 0.3, "stages": [stage]}), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["tower", "--stages-file", str(path), "--json-out", str(out)]) == 1
    report = load_report(out)
    check_report_schema(report)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("completed", False)]
    assert "tower product of 1999999999 terms exceeds the atom budget" in report["flags"]["error"]
    assert "FAIL completed [tower product" in capsys.readouterr().out


R1TO8 = str(Path(__file__).resolve().parent.parent / "perfbench" / "data" / "r1to8.txt")


@pytest.mark.parametrize("argv, owner, name, refusal", [
    pytest.param(["certify-vdc", "--set-file", R1TO8, "--eps", "0.1", "--order", "100000000"],
                 cli.np, "arange",
                 "LP of 9 rows on 50000001 orbit columns (450000009 entries) exceeds the atom budget",
                 id="certify-vdc"),
    pytest.param(["verify-kernels", "--grid", "400000000", "--nmax", "2"], cli.trigpoly, "sample_values",
                 "Fejer table of at least 2 kernels on grid 400000000 exceeds the atom budget",
                 id="verify-kernels"),
    pytest.param(["lemma-digits", "--q", "64", "--p", "5"], cli.np.random, "default_rng",
                 "Q^P = 1073741824 exceeds the 16777216 cell limit", id="lemma-digits"),
    pytest.param(["lemma-pair", "--q", "64", "--p", "5", "--ell", "2", "--size", "200000000"],
                 cli.np.random, "default_rng", "Q^P = 1073741824 exceeds the 16777216 cell limit",
                 id="lemma-pair"),
    # Q^(k+1) has 5420 digits, past Python's int-to-str limit: the refusal words it as a power
    pytest.param(["build-block", "--ell", "2", "--q", "64", "--k", "3000"], blocks, "block_polynomials",
                 "block order 64^3001 exceeds the atom budget", id="build-block-power"),
    pytest.param(["lemma-prt", "--m-max", "40"], cli.np.random, "default_rng",
                 "subset table of (2^40 - 1)*40 cells exceeds the atom budget", id="lemma-prt-subsets"),
    pytest.param(["lemma-prt", "--random-size", "1000000000", "--random-trials", "1"], cli.np.random,
                 "default_rng", "random system of 1000000000 points exceeds the atom budget",
                 id="lemma-prt-random"),
])
def test_oversized_inputs_are_refused_before_they_allocate(tmp_path, monkeypatch, capsys, argv,
                                                           owner, name, refusal):
    def refuse(*args, **kwargs):  # the allocation the refusal must come before
        raise AssertionError(f"{name} was called before the size was refused")

    monkeypatch.setattr(owner, name, refuse)
    out = tmp_path / "r.json"
    assert run(argv + ["--json-out", str(out)]) == 1
    report = load_report(out)
    check_report_schema(report)
    assert refusal in report["flags"]["error"]
    assert (report["checks"][-1]["name"], report["checks"][-1]["pass"]) == ("completed", False)
    assert f"FAIL completed [{refusal}" in capsys.readouterr().out


def test_kernel_table_budget_counts_distinct_orders(tmp_path, monkeypatch):
    # orders n*m for n, m <= 4: {1, 2, 3, 4, 6, 8, 9, 12, 16}, nine Fejer rows of 64 points
    argv = ["verify-kernels", "--grid", "64", "--nmax", "4", "--json-out", str(tmp_path / "r.json")]
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(9 * 64))
    assert run(argv) == 0
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(9 * 64 - 1))
    assert run(argv) == 1
    assert "at least 9 kernels on grid 64" in load_report(tmp_path / "r.json")["flags"]["error"]


def test_lemma_grids_are_refused_at_the_cell_limit(tmp_path, monkeypatch):
    from vdcset import combinatorics

    argv = ["lemma-digits", "--q", "32", "--p", "2", "--trials", "1", "--json-out", str(tmp_path / "r.json")]
    monkeypatch.setattr(combinatorics, "GRID_CELL_LIMIT", 1024)
    assert run(argv) == 0
    monkeypatch.setattr(combinatorics, "GRID_CELL_LIMIT", 1023)
    assert run(argv) == 1
    assert "Q^P = 1024 exceeds the 1023 cell limit" in load_report(tmp_path / "r.json")["flags"]["error"]


def test_tower_empty_stages(tmp_path):
    # a tower of no stages tests nothing, so an empty or a missing list is refused rather than passed
    path, out = tmp_path / "stages.json", tmp_path / "r.json"
    for text in ('{"eps_prime": 0.3, "stages": []}', '{"eps_prime": 0.3}'):
        path.write_text(text, encoding="utf-8")
        assert run(["tower", "--stages-file", str(path), "--json-out", str(out)]) == 1
        report = load_report(out)
        assert [(c["name"], c["pass"]) for c in report["checks"]] == [("completed", False)]
        assert report["flags"]["error"] == "a tower needs at least one stage"


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
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("completed", False)]
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
            "fejer_product_identity", "fejer_lower_bound",
            "fejer_upper_bound", "multiply_pointwise", "domination_kernel_coeffs",
            "domination_fixpoint", "domination_lower_bound", "convex_profile_positivity",
            "sampling_identity",
        ], id="verify-kernels"),
        pytest.param(
            ["build-block", "--ell", "2", "--q", "64", "--k", "0"],
            ["mass_excess", "plus_band_residual", "minus_band_residual"],
            id="build-block",
        ),
        pytest.param(
            ["build-witness", "--j", "1", "--eps", "0.01", "--q", "64", "--p", "2"],
            ["digit_pattern_count", "pattern_zeros_residual", "mass", "atom_lower_bound"],
            id="build-witness",
        ),
        pytest.param(["build-witness", "--j", "1", "--eps", "0.01", "--q", "64"],
                     ["completed"], id="build-witness-canonical"),
        pytest.param(["certify-recurrence", "--set-file", "R.txt", "--eps", "0.2", "--n", "8"],
                     ["alpha_within_budget"], id="certify-recurrence"),
        pytest.param(["certify-vdc", "--set-file", "R.txt", "--eps", "0.1", "--order", "8"],
                     ["witness_mass", "witness_residual", "dual_bound",
                      "dual_min_slack", "duality_gap"], id="certify-vdc"),
        pytest.param(["lemma-prt"], ["poincare_systems"], id="lemma-prt"),
        pytest.param(["lemma-digits", "--q", "64", "--p", "2"], ["all_found", "all_verified"],
                     id="lemma-digits"),
        pytest.param(["lemma-pair", "--q", "4", "--p", "4", "--ell", "2", "--size", "140"],
                     ["pairs_found"], id="lemma-pair"),
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
            "fejer_product_identity": 1e-9, "fejer_lower_bound": 1e-12,
            "fejer_upper_bound": 1e-12, "multiply_pointwise": 1e-9,
            "domination_kernel_coeffs": 1e-12, "domination_fixpoint": 1e-12,
            "domination_lower_bound": 1e-9, "convex_profile_positivity": 1e-9,
            "sampling_identity": 1e-9,
        }, id="verify-kernels"),
        pytest.param(["build-block", "--ell", "2", "--q", "64", "--k", "0"], {
            "mass_excess": 1e-9, "plus_band_residual": 1e-9, "minus_band_residual": 1e-9,
        }, id="build-block"),
        pytest.param(["build-witness", "--j", "1", "--eps", "0.01", "--q", "64", "--p", "2"], {
            "digit_pattern_count": None,
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
    blocks.build_block, blocks.build_witness,
    pytest.param(blocks.BlockMeasure.checks.func, id="BlockMeasure.checks"),
    pytest.param(blocks.WitnessMeasure.checks.func, id="WitnessMeasure.checks"),
    certify.reverify_witness, certify.VdcFailureWitness.checks.func, tower.check_beta,
    tower.tower_block, tower.build_tower, simplex.solve_lp, blocks.zero_set,
], ids=lambda f: f.__name__)
def test_acceptance_functions_take_no_tolerance(function):
    assert "tol" not in inspect.signature(function).parameters


@pytest.mark.parametrize("argv, bound", [
    pytest.param(["verify-kernels", "--nmax", "0"], "nmax >= 1", id="verify-kernels"),
    pytest.param(["lemma-digits", "--q", "64", "--p", "0"], "P >= 1", id="lemma-digits"),
    pytest.param(["lemma-prt", "--random-size", "1"], "--random-size >= 2", id="lemma-prt"),
    pytest.param(["lemma-pair", "--q", "4", "--p", "0", "--ell", "2", "--size", "1"],
                 "grids need Q >= 2 and P >= 1, got Q=4, P=0", id="lemma-pair"),
    *[pytest.param(["lemma-pair", "--q", "4", "--p", "2", "--ell", "2", "--size", size],
                   f"--size must lie in [1, Q^P] = [1, 16], got {size}", id=f"lemma-pair-size-{size}")
      for size in ("0", "-1", "17", "100")],
    *[pytest.param(["lemma-pair", "--q", "2", "--p", "1", "--ell", ell, "--size", "1", "--trials", "4"],
                   f"ell must be >= 1, got {ell}", id=f"lemma-pair-ell-{ell}") for ell in ("0", "-1")],
    pytest.param(["verify-kernels", "--grid", "100", "--nmax", "8"],
                 "kernel identities need grid > 2*nmax^2 = 128, got 100", id="verify-kernels-grid"),
    pytest.param(["build-witness", "--j", "1", "--eps", "0.7", "--q", "64", "--p", "1"],
                 "violate: 0 < epsilon < 1/2", id="build-witness"),
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


@pytest.mark.parametrize("trials", ["100", "0"])
def test_lemma_digits_refuses_j_zero_by_name(tmp_path, capsys, trials):
    out = tmp_path / "r.json"
    argv = ["lemma-digits", "--q", "4", "--p", "2", "--j", "0", "--trials", trials]
    assert run(argv + ["--json-out", str(out)]) == 1
    refusal = "digit patterns need j >= 1 and P >= 1, got j=0, P=2"
    assert f"FAIL completed [{refusal}]" in capsys.readouterr().out
    report = load_report(out)
    check_report_schema(report)
    assert report["flags"]["error"] == refusal
    assert [c["name"] for c in report["checks"]] == ["completed"]


def _raise(error):
    def raising(*args, **kwargs):
        raise error
    return raising


@pytest.mark.parametrize("argv, owner, name, error", [
    pytest.param(["lemma-prt"], cli.combinatorics, "poincare_returns",
                 cli.combinatorics.RecurrenceBoundError("a row has no qualifying n"), id="recurrence-bound"),
    pytest.param(["certify-vdc", "--set-file", R1TO8, "--eps", "0.1", "--order", "32"], certify, "solve_lp",
                 simplex.LpUnboundedError("objective unbounded along column 3"), id="lp-unbounded"),
    pytest.param(["lemma-pair", "--q", "4", "--p", "4", "--ell", "2", "--size", "140", "--trials", "2"],
                 cli.combinatorics, "_agreement_candidates",
                 cli.combinatorics.AgreementSearchError("agreement candidate breaks a bullet"),
                 id="agreement-search"),
])
def test_named_library_errors_end_in_a_report(tmp_path, monkeypatch, capsys, argv, owner, name, error):
    monkeypatch.setattr(owner, name, _raise(error))
    out = tmp_path / "r.json"
    assert run(argv + ["--json-out", str(out)]) == 1
    assert f"FAIL completed [{error}]" in capsys.readouterr().out
    report = load_report(out)
    check_report_schema(report)
    assert report["flags"]["error"] == str(error)
    assert (report["checks"][-1]["name"], report["checks"][-1]["pass"]) == ("completed", False)


@pytest.mark.parametrize("p, emitted", [(2, True), (3, False)])
def test_build_witness_emit(tmp_path, p, emitted):
    import hashlib

    out, target = tmp_path / "r.json", tmp_path / "mu.json"
    argv = ["build-witness", "--j", "1", "--eps", "0.01", "--q", "64", "--p", str(p)]
    assert run(argv + ["--emit", str(target), "--json-out", str(out)]) == 0
    report = load_report(out)
    if emitted:
        mu, _ = blocks.build_witness(blocks.WitnessParams(1, 0.01, 64, p))
        assert target.read_text(encoding="utf-8") == mu.to_json()
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert report["artifacts"]["witness_measure"] == {"path": str(target), "sha256": digest}
        assert "witness_measure_not_emitted" not in report["flags"]
    else:
        assert not target.exists() and report["artifacts"] == {}
        assert "262144 exceeds the 65536-atom emission gate" in report["flags"]["witness_measure_not_emitted"]


def test_tower_bad_second_stage_is_named(tmp_path, capsys):
    # TowerStage refuses at construction, inside the loop that numbers the stages
    stages = {"eps_prime": 0.3, "stages": [{"r_set": [1], "n": 1, "max_freq": 7, "dilation": 7},
                                           {"r_set": [1], "n": 1, "max_freq": 6, "dilation": 113}]}
    path = tmp_path / "stages.json"
    path.write_text(json.dumps(stages), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["tower", "--stages-file", str(path), "--json-out", str(out)]) == 1
    refusal = "stage 2 is malformed: max_freq 6 must exceed n*(n+1)/eps_prime = 6.66"
    assert f"FAIL completed [{refusal}" in capsys.readouterr().out
    report = load_report(out)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("completed", False)]
    assert report["flags"]["error"].startswith(refusal)


@pytest.mark.parametrize("argv, row", [
    pytest.param(["lemma-prt", "--m-max", "0", "--random-trials", "0"], "poincare_systems", id="lemma-prt"),
    pytest.param(["lemma-digits", "--q", "64", "--p", "2", "--trials", "0"], "all_found", id="lemma-digits"),
    pytest.param(["lemma-pair", "--q", "4", "--p", "4", "--ell", "2", "--size", "140", "--trials", "0"],
                 "pairs_found", id="lemma-pair"),
])
def test_lemma_runs_over_no_instance_fail(tmp_path, argv, row):
    out = tmp_path / "r.json"
    assert run(argv + ["--json-out", str(out)]) == 1
    checks = {c["name"]: c for c in load_report(out)["checks"]}
    assert (checks[row]["pass"], checks[row]["value"]) == (False, 0)


@pytest.mark.parametrize("density", ["1.5", "nan", "inf", "0", "-0.5"])
def test_lemma_digits_refuses_density_outside_the_unit_interval(tmp_path, monkeypatch, capsys, density):
    monkeypatch.setattr(cli.np.random, "default_rng", _raise(AssertionError("drew before the density check")))
    out = tmp_path / "r.json"
    assert run(["lemma-digits", "--q", "32", "--p", "2", "--density", density, "--json-out", str(out)]) == 1
    refusal = f"density must lie in (0, 1], got {float(density)}"
    assert f"FAIL completed [{refusal}]" in capsys.readouterr().out
    assert load_report(out)["flags"]["error"] == refusal
