import json
import math
import os
import subprocess
import sys

import pytest

from fracsum.cli import main, parse_complex, read_records_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--format", "json", *argv)
    return code, json.loads(out)


def without_timing(record):
    record = dict(record)
    record.pop("timing_ms", None)
    return record


# -------------------------------------------------------------- parsing

@pytest.mark.parametrize("text,expect", [
    ("2", 2 + 0j),
    ("2+0i", 2 + 0j),
    ("-0.5-3i", -0.5 - 3j),
    ("0.5+14.1347251417i", 0.5 + 14.1347251417j),
    ("1e-3+2.5e1i", 1e-3 + 25j),
    ("3i", 3j),
    ("-i", -1j),
])
def test_parse_complex(text, expect):
    assert parse_complex(text) == expect


def test_parse_complex_rejects_garbage():
    from fracsum import DomainError
    with pytest.raises(DomainError):
        parse_complex("2+3")
    with pytest.raises(DomainError):
        parse_complex("")


# ----------------------------------------------------------------- eval

def test_eval_fracpow_unit(capsys):
    code, rec = run_json(capsys, "eval", "fracpow", "--x", "1", "--s", "2+0i")
    assert code == 0
    assert abs(rec["results"]["value"]["re"] - 1.0) < 1e-12
    assert rec["schema_version"] == "1"


def test_eval_sumlog(capsys):
    code, rec = run_json(capsys, "eval", "sumlog", "--x", "0.5")
    assert code == 0
    assert abs(rec["results"]["value"]["re"] - (-0.1207822376352452)) < 1e-10


def test_eval_sigma_agrees_with_fracpow(capsys):
    code, sig = run_json(capsys, "eval", "sigma", "--x", "0.5", "--s", "2+0i")
    assert code == 0
    assert sig["results"]["converged"] is True
    code, closed = run_json(capsys, "eval", "fracpow", "--x", "0.5", "--s", "2+0i")
    dv = sig["results"]["value"]["re"] - closed["results"]["value"]["re"]
    assert abs(dv) < 1e-6


def test_eval_sigma_flat_growing_summand_converges(capsys):
    # v^(1/2) grows but is flat; its limit converges under strict defaults
    code, sig = run_json(capsys, "eval", "sigma", "--x", "0.5", "--s=-0.5")
    assert code == 0
    assert sig["results"]["converged"] is True
    code, closed = run_json(capsys, "eval", "fracpow", "--x", "0.5", "--s=-0.5")
    dv = sig["results"]["value"]["re"] - closed["results"]["value"]["re"]
    assert abs(dv) < 1e-8


def test_eval_domain_error_exit_2(capsys):
    code, out = run_cli(capsys, "eval", "fracpow", "--x", "-2", "--s", "2+0i")
    assert code == 2
    assert "error" in out


def test_eval_sigma_non_flat_summand_exit_2(capsys):
    # v^1 is not asymptotically flat, so the limit cannot give x(x+1)/2
    code, out = run_json(capsys, "eval", "sigma", "--x", "0.5", "--s", "-1")
    assert code == 2
    assert out["diagnostics"][0]["error_class"] == "DomainError"


@pytest.mark.parametrize("argv,expect", [
    (("eval", "fracpow", "--x", "0.5"), 0),
    (("norm", "--T", "50"), 2),  # reaches the Re(s) > 0 domain check
])
def test_negative_complex_s_as_separate_argument(capsys, argv, expect):
    # argparse alone takes "-0.25+3i" for an option and exits 2 on usage
    code, joined = run_json(capsys, *argv, "--s", "-0.25+3i")
    assert code == expect
    code, glued = run_json(capsys, *argv, "--s=-0.25+3i")
    assert code == expect
    assert without_timing(joined) == without_timing(glued)


def test_eval_missing_s_exit_2(capsys):
    code, _ = run_cli(capsys, "eval", "sigma", "--x", "0.5")
    assert code == 2


def test_eval_strict_convergence_exit_3(capsys):
    code, out = run_cli(capsys, "--abs-tol", "1e-16",
                        "eval", "sigma", "--x", "5.5", "--s", "0.3+0i")
    assert code == 3
    assert "ConvergenceError" in out


def test_eval_no_strict_reports_diagnostic(capsys):
    code, rec = run_json(capsys, "--no-strict", "--abs-tol", "1e-16",
                         "eval", "sigma", "--x", "5.5", "--s", "0.3+0i")
    assert code == 0
    assert rec["results"]["converged"] is False
    assert any("converge" in d["message"] for d in rec["diagnostics"])


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "fracpow"])  # missing --x
    assert exc.value.code == 2


# ---------------------------------------------------------------- verify

def test_verify_lemmas_passes(capsys):
    code, rec = run_json(capsys, "verify", "lemmas")
    assert code == 0
    assert rec["results"]["n_failed"] == 0


def test_verify_coarse_step_fails(capsys):
    code, rec = run_json(capsys, "verify", "operators", "--diff-step", "1e-2")
    assert code == 1
    assert rec["results"]["n_failed"] >= 1
    names = [c["name"] for c in rec["results"]["checks"] if not c["passed"]]
    assert "numeric_derivative_matches_analytic" in names


def test_verify_em_terms_reaches_operator_suite(capsys):
    code, rec = run_json(capsys, "verify", "operators", "--em-terms", "12")
    _, default = run_json(capsys, "verify", "operators")
    assert code == 0
    assert rec["results"]["checks"] != default["results"]["checks"]


def test_verify_deterministic_across_runs(capsys):
    code1, rec1 = run_json(capsys, "verify", "all", "--seed", "7")
    code2, rec2 = run_json(capsys, "verify", "all", "--seed", "7")
    assert code1 == code2 == 0
    assert without_timing(rec1) == without_timing(rec2)


# ----------------------------------------------------------------- zeros

def test_zeros_first_three(capsys, tmp_path):
    csv = tmp_path / "zeros.csv"
    code, rec = run_json(capsys, "zeros", "0", "30", "--csv", str(csv))
    assert code == 0
    assert rec["results"]["n_zeros"] == 3
    ts = [row["t"] for row in rec["results"]["zeros"]]
    assert abs(ts[0] - 14.134725142) < 1e-6
    assert abs(ts[1] - 21.022039639) < 1e-6
    assert abs(ts[2] - 25.010857580) < 1e-6
    assert all(row["lambda_is_real"] for row in rec["results"]["zeros"])

    rows = read_records_csv(str(csv))
    assert len(rows) == 3
    # round trip with zero loss: repr-serialized floats parse back exactly
    for row, rec_row in zip(rows, rec["results"]["zeros"]):
        assert row["t"] == rec_row["t"]
        assert row["lambda_re"] == rec_row["lambda_re"]


def test_zeros_empty_range(capsys):
    code, rec = run_json(capsys, "zeros", "0", "10")
    assert code == 0
    assert rec["results"]["n_zeros"] == 0
    assert rec["results"]["zeros"] == []


def test_zeros_bad_range_exit_2(capsys):
    code, _ = run_cli(capsys, "zeros", "5", "3")
    assert code == 2


def test_zeros_csv_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "zeros", "10", "22", "--csv", str(a))
    run_cli(capsys, "zeros", "10", "22", "--csv", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


# ------------------------------------------------------------------ scan

def test_scan_critical_column(capsys, tmp_path):
    csv = tmp_path / "scan.csv"
    code, rec = run_json(capsys, "scan", "0.5", "0.5", "0", "5", "1", "11",
                         "--csv", str(csv))
    assert code == 0
    rows = read_records_csv(str(csv))
    assert len(rows) == 11
    assert all(r["lambda_im"] == 0.0 for r in rows)
    assert [r["s_im"] for r in rows] == sorted(r["s_im"] for r in rows)


def test_scan_pole_cell_flagged(capsys):
    code, rec = run_json(capsys, "scan", "0.9", "1.1", "-0.0005", "0.0005",
                         "3", "3")
    assert code == 0
    flags = [c["flags"] for c in rec["results"]["cells"]]
    assert "pole" in flags
    assert flags.count("ok") >= 6


def test_scan_csv_deterministic_and_parallel_equal(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "scan", "0.1", "0.9", "10", "14", "5", "9", "--csv", str(a))
    run_cli(capsys, "--jobs", "4", "scan", "0.1", "0.9", "10", "14", "5", "9",
            "--csv", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_scan_domain_error(capsys):
    code, _ = run_cli(capsys, "scan", "-0.2", "0.5", "0", "1", "3", "3")
    assert code == 2


def test_scan_mostly_failed_cells_exit_3(capsys):
    # above the supported |Im s| every cell fails; partial results are still
    # emitted but the run reports the convergence failure
    code, rec = run_json(capsys, "scan", "0.5", "0.5", "149", "151", "1", "3")
    assert code == 3
    assert rec["results"]["n_error"] == 3
    assert all(c["flags"].startswith("error") for c in rec["results"]["cells"])


# ------------------------------------------------------------------ norm

def test_norm_finite_trend(capsys):
    code, rec = run_json(capsys, "norm", "--s", "0.75+5i", "--T", "400")
    assert code == 0
    assert abs(rec["results"]["decay_exponent"] - (-1.5)) < 0.2
    assert rec["results"]["verdict"] == "finite-trend"


def test_norm_divergent_trend(capsys):
    code, rec = run_json(capsys, "norm", "--s", "0.25", "--T", "400")
    assert code == 0
    assert abs(rec["results"]["decay_exponent"] - (-0.5)) < 0.2
    assert rec["results"]["verdict"] == "divergent-trend"


def test_norm_steep_decay(capsys):
    code, rec = run_json(capsys, "norm", "--s", "2", "--T", "200")
    assert code == 0
    assert abs(rec["results"]["decay_exponent"] - (-4.0)) < 0.2


def test_norm_domain_exit_2(capsys):
    code, _ = run_cli(capsys, "norm", "--s", "0.25", "--T", "50")
    assert code == 2


# ----------------------------------------------------------- environment

def test_env_variable_fallback(capsys, monkeypatch):
    monkeypatch.setenv("FRACSUM_ABS_TOL", "1e-16")
    code, _ = run_cli(capsys, "eval", "sigma", "--x", "5.5", "--s", "0.3+0i")
    assert code == 3
    # explicit flag wins over the environment
    code, rec = run_json(capsys, "--abs-tol", "1e-8",
                         "eval", "sigma", "--x", "5.5", "--s", "0.3+0i")
    assert code == 0


def test_global_flags_accepted_after_subcommand(capsys):
    code, rec = run_json(capsys, "eval", "fracpow", "--x", "1", "--s", "2+0i",
                         "--em-terms", "60")
    assert code == 0


def test_zeros_numeric_residual_flag(capsys):
    # the nested operator pipeline at the first zero; slow path, narrow range
    code, rec = run_json(capsys, "zeros", "14", "15", "--numeric-residual")
    assert code == 0
    row = rec["results"]["zeros"][0]
    assert not math.isnan(row["numeric_residual"])
    assert row["numeric_residual"] < 1e-3


# -------------------------------------------------------------- process

def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run(
        [sys.executable, "-m", "fracsum", "--format", "json",
         "eval", "fracpow", "--x", "1", "--s", "2+0i"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert abs(rec["results"]["value"]["re"] - 1.0) < 1e-12
