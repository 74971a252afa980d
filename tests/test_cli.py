import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fracsum import (OperatorConfig, SpecFunConfig, SummationConfig, cli, core, eigen_residual,
                     specfun, spectrum)
from fracsum.specfun import TARGET_ABS_TOL, hurwitz_zeta, hurwitz_zeta_with_error
from fracsum.cli import main, parse_complex, read_records_csv
from oracles import traced_peak


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


def run_table(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, re.sub(r"timing_ms = \S+", "timing_ms = <T>", out)


# -------------------------------------------------------------- parsing

@pytest.mark.parametrize("text,expect", [
    ("2", 2 + 0j),
    ("2+0i", 2 + 0j),
    ("-0.5-3i", -0.5 - 3j),
    ("0.5+14.1347251417i", 0.5 + 14.1347251417j),
    ("1e-3+2.5e1i", 1e-3 + 25j),
    ("3i", 3j),
    ("-i", complex(0.0, -1.0)),
    ("+2-i", complex(2.0, -1.0)),
    ("1E-3-2E+1i", complex(1e-3, -20.0)),
    ("inf-infi", complex(math.inf, -math.inf)),
    ("-0-0i", complex(-0.0, -0.0)),
])
def test_parse_complex(text, expect):
    # repr tells the signs of zeros apart, which == does not
    assert repr(parse_complex(text)) == repr(expect)


def test_parse_complex_rejects_garbage():
    from fracsum import DomainError
    # "5 +i": the README's format has no spaces
    for text in ("2+3", "", "5 +i", "2+-3i"):
        with pytest.raises(DomainError):
            parse_complex(text)


# ----------------------------------------------------------------- eval

def test_eval_fracpow_unit(capsys):
    code, rec = run_json(capsys, "eval", "fracpow", "--x", "1", "--s", "2+0i")
    assert code == 0
    assert abs(rec["results"]["value"]["re"] - 1.0) < 1e-12
    assert rec["inputs"]["s"] == {"re": 2.0, "im": 0.0}
    assert rec["schema_version"] == "1"


def test_eval_sumlog(capsys):
    code, rec = run_json(capsys, "eval", "sumlog", "--x", "0.5")
    assert code == 0
    assert abs(rec["results"]["value"]["re"] - (-0.1207822376352452)) < 1e-10


def test_eval_at_large_x(capsys):
    # log Gamma(x + 1) and the harmonic number Psi(x + 1) + gamma at an x
    # where the Stirling series' powers of x overflow
    from scipy.special import digamma
    code, rec = run_json(capsys, "eval", "sumlog", "--x", "1e21")
    assert code == 0
    expect = math.lgamma(1e21 + 1)
    assert abs(rec["results"]["value"]["re"] - expect) <= 1e-15 * expect
    code, rec = run_json(capsys, "eval", "fracpow", "--x", "1e21", "--s", "1")
    assert code == 0
    expect = digamma(1e21 + 1) + 0.5772156649015329
    assert abs(rec["results"]["value"]["re"] - expect) <= 1e-15 * expect


def test_eval_fracpow_near_float_max(capsys):
    # zeta(s, x + 1) at x = 1.7e308, where w / (s - 1) overflows but
    # x^[-s] ~ 4 (x + 1)^(1/4) is finite
    code, rec = run_json(capsys, "eval", "fracpow", "--x", "1.7e308", "--s", "0.75")
    assert code == 0
    expect = 4.0 * 1.7e308 ** 0.25
    assert abs(rec["results"]["value"]["re"] - expect) <= 1e-12 * expect
    assert rec["results"]["value"]["im"] == 0.0


@pytest.mark.parametrize("x", [0.5, 2e3, 1e5, 1e21])
def test_eval_sumlog_err_estimate_holds_the_rounding(capsys, x):
    # one ulp of the value is 2.3e-10 at x = 1e5 and 8.4e6 at x = 1e21, far
    # above the series' own TARGET_ABS_TOL; the bound must cover both
    code, rec = run_json(capsys, "eval", "sumlog", "--x", repr(x))
    assert code == 0
    res = rec["results"]
    assert abs(res["value"]["re"] - math.lgamma(x + 1.0)) <= res["err_estimate"]
    assert res["err_estimate"] < 1e-12 + 1e-15 * abs(res["value"]["re"])


def test_kernel_calls_per_command(capsys, monkeypatch):
    # eval fracpow takes x^[-s] and its bound from one Hurwitz kernel call
    # per a; the zeros record takes its columns in one array pass at a = 1/2,
    # with zeta(s) from the zero search's own call
    calls = []
    kernel = specfun._hurwitz_kernel

    def counting(*args):
        calls.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(specfun, "_hurwitz_kernel", counting)
    for argv, want in ((("eval", "fracpow", "--x", "0.5", "--s", "0.5+14i"), 2),
                       (("zeros", "0", "100"), 8)):
        specfun._riemann_zeta_cached.cache_clear()
        calls.clear()
        code, _ = run_json(capsys, *argv)
        assert code == 0
        assert len(calls) == want, argv


@pytest.mark.filterwarnings("ignore::fracsum.CancellationWarning")
@pytest.mark.parametrize("s,on_digamma", [
    ("1", True), ("1.000000005", True), ("1.00000002", False), ("2+3i", False),
])
def test_eval_fracpow_err_estimate_by_branch(capsys, s, on_digamma):
    # |s - 1| below core._S_ONE_EXACT (1e-8) takes the digamma branch and
    # its target; above it the bound is zeta(s)'s plus zeta(s, x + 1)'s
    z = parse_complex(s)
    assert on_digamma == (abs(z - 1.0) < core._S_ONE_EXACT)
    code, rec = run_json(capsys, "eval", "fracpow", "--x", "0.5", "--s", s)
    assert code == 0
    if on_digamma:
        want = TARGET_ABS_TOL
    else:
        want = hurwitz_zeta_with_error(z, 1.0)[1] + hurwitz_zeta_with_error(z, 1.5)[1]
    assert rec["results"]["err_estimate"] == want


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


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_eval_sigma_non_finite_x_exit_2(capsys, x):
    code, rec = run_json(capsys, "eval", "sigma", f"--x={x}", "--s", "2")
    assert code == 2
    assert rec["diagnostics"][0]["error_class"] == "DomainError"
    assert "x > -1" in rec["diagnostics"][0]["message"]


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


def test_n0_flag_is_a_usage_error():
    # the schedule's base index is the library's: no flag sets it
    with pytest.raises(SystemExit) as exc:
        main(["--n0", "128", "eval", "sigma", "--x", "0.5", "--s", "2"])
    assert exc.value.code == 2


def test_nan_tail_estimate_exits_3(capsys):
    # far up the line the Hurwitz tail estimate is NaN: no value is reported
    code, rec = run_json(capsys, "eval", "fracpow", "--x", "0.5",
                         "--s", "200.44674247267193+18530676611667.473i")
    assert code == 3
    assert rec["diagnostics"][0]["error_class"] == "ConvergenceError"
    assert rec["results"] == {}


@pytest.mark.parametrize("x", ["1e300", "1e7"])
def test_huge_x_is_a_domain_error(capsys, x):
    # refused before any node of the exact shift is built
    code, rec = run_json(capsys, "eval", "sigma", "--x", x, "--s=-0.9")
    assert code == 2
    assert rec["diagnostics"][0]["error_class"] == "DomainError"
    assert "at most 1048576 terms" in rec["diagnostics"][0]["message"]


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


def test_zeros_residual_is_abs_zeta(capsys):
    # both columns are |zeta(1/2 + it)| from the zero search's one call
    code, rec = run_json(capsys, "zeros", "0", "100")
    assert code == 0
    rows = rec["results"]["zeros"]
    assert len(rows) == 29
    assert all(repr(row["residual"]) == repr(row["abs_zeta"]) for row in rows)


def test_zeros_empty_range(capsys, monkeypatch):
    # no zero below 10: the zero search's residuals (a = 1) and the record's
    # array pass (a = 1/2) run on empty arrays, one Hurwitz call each, with
    # the numeric defect or without
    sizes = []

    def counting(s, a, cfg):
        sizes.append(np.size(s))
        return hurwitz_zeta(s, a, cfg)

    monkeypatch.setattr(spectrum, "hurwitz_zeta", counting)
    for flags in ((), ("--numeric-residual",)):
        sizes.clear()
        code, rec = run_json(capsys, "zeros", "0", "10", *flags)
        assert code == 0
        assert rec["results"]["n_zeros"] == 0
        assert rec["results"]["zeros"] == []
        assert sizes == [0, 0]


def test_zeros_bad_range_exit_2(capsys):
    code, _ = run_cli(capsys, "zeros", "5", "3")
    assert code == 2


def test_zeros_csv_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "zeros", "10", "22", "--csv", str(a))
    run_cli(capsys, "zeros", "10", "22", "--csv", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


@pytest.mark.parametrize("argv", [
    ("zeros", "14", "15"),
    ("scan", "0.1", "0.9", "10", "14", "5", "9"),
])
def test_unwritable_csv_path_exit_2_with_record(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "z.csv"
    code, rec = run_json(capsys, *argv, "--csv", str(path))
    assert code == 2
    assert rec["command"] == argv[0]
    assert rec["diagnostics"][0]["error_class"] == "DomainError"
    assert str(path) in rec["diagnostics"][0]["message"]
    assert not path.exists()


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


@pytest.mark.parametrize("argv", [
    ("scan", "0.4", "0.2", "1", "2", "3", "3"),
    ("scan", "0.2", "0.4", "1", "2", "0", "3"),
    ("scan", "0.2", "0.4", "1", "2", "1001", "1000"),
    ("norm", "--s", "2", "--T", "400", "--quad-points", "1000001"),
])
def test_bad_grid_and_size_caps_exit_2(capsys, argv):
    # the last two are just over the size caps, refused before allocating
    code, rec = run_json(capsys, *argv)
    assert code == 2
    assert rec["results"] == {}
    assert rec["diagnostics"][0]["error_class"] == "DomainError"


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
    assert rec["inputs"]["s"] == {"re": 0.75, "im": 5.0}
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


@pytest.mark.parametrize("s,T", [("2", "1e8"), ("0.75", "1e14"), ("0.75", "1e16"),
                                 ("0.75", "1.7e308")])
def test_norm_unresolved_tail_fit_exit_2(capsys, s, T):
    # D_half x^[-s] has cancelled into the rounding of x^[-s] on [T/4, T]:
    # the fit read NaN or +0.50 and still gave a verdict
    code, rec = run_json(capsys, "norm", "--s", s, "--T", T)
    assert code == 2
    assert rec["results"] == {}
    assert rec["diagnostics"][0]["error_class"] == "DomainError"
    assert "too large" in rec["diagnostics"][0]["message"]


def test_norm_domain_exit_2(capsys):
    code, _ = run_cli(capsys, "norm", "--s", "0.25", "--T", "50")
    assert code == 2


# ------------------------------------------------------------ table form
#
# The exact text of the human table.  Computed numbers come from the JSON
# record of the same run, so the layout is pinned to the byte while their
# last bits may follow the numpy build.

def test_table_golden_eval_complex_input(capsys):
    argv = ("eval", "fracpow", "--x", "0.5", "--s", "0.5+14i")
    _, rec = run_json(capsys, *argv)
    value, err = rec["results"]["value"], rec["results"]["err_estimate"]
    assert value["im"] < 0.0
    code, out = run_table(capsys, *argv)
    assert code == 0
    assert out == (
        "fracsum eval  (schema 1)\n"
        "  input   expr = fracpow\n"
        "  input   x = 0.5\n"
        "  input   s = 0.5+14.0i\n"
        f"  result  value = {value['re']!r}-{-value['im']!r}i\n"
        f"  result  err_estimate = {err!r}\n"
        "  result  method = closed_form\n"
        "  timing_ms = <T>\n"
    )


def test_table_scan_rows_match_the_json_cells(capsys):
    # a scan's rows are made a block at a time: 2501 rows, the pole cell's
    # NaN fields among them, fill four blocks and part of a fifth
    argv = ("scan", "0.9", "1.1", "-0.5", "0.5", "41", "61")
    _, rec = run_json(capsys, *argv)
    cells = rec["results"]["cells"]
    code, out = run_table(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("  cells:")
    assert lines[at + 1] == "    " + " | ".join(cells[0])
    assert lines[at + 2:at + 2 + len(cells)] == [
        "    " + " | ".join(cli._render(v) for v in cell.values()) for cell in cells]
    assert lines[at + 2 + len(cells)].startswith("  timing_ms")


def test_table_golden_zeros_rows(capsys):
    _, rec = run_json(capsys, "zeros", "14", "15")
    row = rec["results"]["zeros"][0]
    code, out = run_table(capsys, "zeros", "14", "15")
    assert code == 0
    assert out == (
        "fracsum zeros  (schema 1)\n"
        "  input   t_min = 14.0\n"
        "  input   t_max = 15.0\n"
        "  input   numeric_residual = False\n"
        "  result  n_zeros = 1\n"
        "  zeros:\n"
        "    index | t | residual | bracket_lo | bracket_hi | lambda_re | lambda_im"
        " | lambda_is_real | abs_zeta | analytic_residual | numeric_residual"
        " | boundary_f0_abs | boundary_fhalf_abs\n"
        f"    1 | {row['t']!r} | {row['residual']!r} | {row['bracket_lo']!r}"
        f" | {row['bracket_hi']!r} | {row['lambda_re']!r} | 0.0 | True"
        f" | {row['abs_zeta']!r} | {row['analytic_residual']!r} | nan | 0.0"
        f" | {row['boundary_fhalf_abs']!r}\n"
        "  timing_ms = <T>\n"
    )


def test_table_golden_failure_record(capsys):
    code, out = run_table(capsys, "eval", "fracpow", "--x", "-2", "--s", "2+0i")
    assert code == 2
    assert out == (
        "fracsum eval  (schema 1)\n"
        "  [error:DomainError] frac_power requires x > -1, got min -2.0\n"
        "  timing_ms = <T>\n"
    )


# ---------------------------------------------------------- global flags

def test_global_flags_accepted_after_subcommand(capsys):
    code, rec = run_json(capsys, "eval", "fracpow", "--x", "1", "--s", "2+0i",
                         "--em-terms", "60")
    assert code == 0


@pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]])
def test_help_shows_the_config_defaults(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "200")  # no option's help wraps
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    shown = dict(re.findall(r"--([a-z-]+) [A-Z_]+\s[^(]*?\(default: ([^)]+)\)", text))
    assert float(shown["abs-tol"]) == SummationConfig().abs_tol
    assert float(shown["diff-step"]) == OperatorConfig().diff_step
    assert int(shown["em-terms"]) == SpecFunConfig().em_terms


def test_zeros_numeric_residual_flag(capsys):
    # the nested operator pipeline at the first zero; slow path, narrow range.
    # The record's defect is the one eigen_residual reports for the CLI's
    # strict configs, to the bit
    code, rec = run_json(capsys, "zeros", "14", "15", "--numeric-residual")
    assert code == 0
    row = rec["results"]["zeros"][0]
    assert not math.isnan(row["numeric_residual"])
    assert row["numeric_residual"] < 1e-3
    strict = OperatorConfig(sum_cfg=core.SummationConfig(strict=True))
    rep = eigen_residual(0.5 + 1j * row["t"], strict)
    assert repr(row["numeric_residual"]) == repr(rep.numeric_residual)


# ---------------------------------------------------- non-finite inputs

@pytest.mark.parametrize("argv", [
    ("scan", "0.2", "0.4", "nan", "10", "3", "3"),
    ("scan", "0.2", "inf", "0", "10", "3", "3"),
    ("eval", "sumlog", "--x", "inf"),
    ("norm", "--s", "0.75", "--T", "inf"),
    ("eval", "fracpow", "--x", "0.5", "--s", "nan+1i"),
    ("eval", "sigma", "--x", "0.5", "--s", "inf"),
])
def test_non_finite_input_is_domain_error_exit_2(capsys, recwarn, argv):
    # refused at the library entry, before any kernel call could warn
    code, rec = run_json(capsys, *argv)
    assert code == 2
    assert rec["command"] == argv[0]
    assert rec["diagnostics"][0]["error_class"] == "DomainError"
    assert "finite" in rec["diagnostics"][0]["message"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ------------------------------------------------------------- JSON text

def _complex_json(value):
    # the reference layout: json's own indent-2 encoder with this hook
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def to_json(value):
    return "".join(cli._json_parts(value))


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 3,
    True, False, None, {}, [], (), "",
    ["caf\u00e9", "\u2211 \U0001F600", 'say "hi"', "tab\tnew\nline\x01\x7f\\"],
    {"k\u00e9y \"q\"": "\x00", "nan": math.nan, "inf": -math.inf, "z": -0.0},
    2.5 - 0.0j, complex(math.nan, math.inf),
    {"s": 0.5 + 14.1j, "row": [1 - 2j, {"deep": 3j}]},
    (1, (2.5, "x"), {"t": (True, None)}),
    np.float64(0.1), [np.float64(math.nan), np.float64(-math.inf)],
    {"a": np.float64(1.5), "b": 2}, {"a": 1, 2: "int key", None: False},
    {2: [1], 1.5: {"b": 1}, True: [], None: ()},
    [{"s_re": 0.1, "flag": "ok", "real": False}, {"s_re": math.nan, "flag": None}],
    {"n": 3, "rows": [{"x": 1.0}], "empty": {}, "none": [], "d": {"y": [0.5j]}},
])
def test_json_writer_matches_json_dumps(value):
    assert to_json(value) == json.dumps(value, indent=2, default=_complex_json)


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True)])
def test_json_writer_rejects_what_json_rejects(value):
    for wrapped in (value, [value], {"a": value}, {"a": 1, "b": value}):
        with pytest.raises(TypeError):
            json.dumps(wrapped, indent=2, default=_complex_json)
        with pytest.raises(TypeError):
            to_json(wrapped)


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025])
def test_json_writer_on_rows(n):
    # the scan's column kinds: floats that all differ, floats of few values
    # (encoded once each) with signed zeros and non-finite values, booleans,
    # and strings; blocks that end on and off the row count
    keys = ("x", "z", "real", "flag")
    floats = [0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]
    columns = [[i / 7 for i in range(n)], [floats[i % 8] for i in range(n)],
               [i % 3 == 0 for i in range(n)],
               [("ok", "pole", "error:ConvergenceError")[i % 3] for i in range(n)]]
    rows = cli._Rows(keys, [np.array(col, dtype=kind) for col, kind in
                            zip(columns, (float, float, bool, object))])
    assert len(rows) == n
    table = [dict(zip(keys, row)) for row in zip(*columns)]
    assert repr(list(rows)) == repr(table)  # repr: NaN fields, and -0.0 apart from 0.0
    assert to_json(rows) == json.dumps(table, indent=2)
    assert to_json({"cells": rows}) == json.dumps({"cells": table}, indent=2)
    # a table two levels deep beside complex values, and two in one value
    assert to_json({"results": {"z": 1j, "cells": rows}}) == json.dumps(
        {"results": {"z": 1j, "cells": table}}, indent=2, default=_complex_json)
    assert to_json([rows, rows]) == json.dumps([table, table], indent=2)


def test_json_writer_refuses_a_string_equal_to_its_mark():
    rows = cli._Rows(("x",), [np.array([0.5])])
    for value in ({"note": cli._ROWS_MARK, "cells": rows}, {cli._ROWS_MARK: rows}):
        with pytest.raises(ValueError):  # before any piece is made
            cli._json_parts(value)


def test_json_writer_refuses_a_row_column_mixing_str():
    with pytest.raises(TypeError):
        to_json(cli._Rows(("flag",), [np.array(["ok", 1.0], dtype=object)]))


@pytest.mark.parametrize("results", [
    {"cells": cli._Rows(("x",), [np.array([0.5])]), "note": cli._ROWS_MARK},
    {"cells": cli._Rows(("x",), [np.array([0.5])]),
     "more": cli._Rows(("flag",), [np.array(["ok", 1.0], dtype=object)])},
    {"cells": cli._Rows(("x",), [np.array([0.5])]), "n": np.int64(3)},
])
def test_refused_record_writes_nothing(capsys, results):
    # the record is written piece by piece, after every check that can
    # refuse it: the mark, each row column, and what json cannot encode
    record = {"schema_version": "1", "command": "scan", "inputs": {}, "results": results,
              "diagnostics": [], "timing_ms": 0.0}
    with pytest.raises((TypeError, ValueError)):
        cli._emit(record, "json")
    assert capsys.readouterr().out == ""


class _CountingStdout:
    """A stdout that keeps only how many characters were written to it."""

    def __init__(self):
        self.n = 0

    def write(self, text):
        self.n += len(text)


def test_large_scan_record_is_written_a_block_at_a_time(monkeypatch, tmp_path):
    # 10^5 cells: 31 MB of JSON and 12 MB of CSV.  Each writer holds its
    # columns and one block of rows, not the whole text: the JSON writer
    # peaked at 1.2x the record and the CSV writer at 1.8x the file while
    # they held every row at once
    records = []
    monkeypatch.setattr(cli, "_emit", lambda record, fmt: records.append(record))
    assert main(["scan", "0.1", "0.9", "10", "30", "250", "400"]) == 0
    monkeypatch.undo()
    (record,) = records
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    _, peak = traced_peak(lambda: cli._emit(record, "json"))
    monkeypatch.undo()
    assert stdout.n > 3e7
    assert peak < 0.5 * stdout.n
    csv = tmp_path / "scan.csv"
    _, peak = traced_peak(lambda: cli._write_csv(str(csv), cli.SCAN_CSV_COLUMNS,
                                                 record["results"]["cells"]))
    assert peak < 0.25 * csv.stat().st_size


def test_json_writer_on_scan_record(capsys):
    # the pole cell gives NaN, the others a mix of floats, strings and
    # booleans; 2501 cells make more pieces than one written chunk, and
    # more rows than one block without filling the last; the failing grid
    # has NaN fields in error cells; one cell is a block of one row
    for argv, n_cells, flag, count in [
        (("0.9", "1.1", "-0.5", "0.5", "41", "61"), 2501, "pole", 1),
        (("0.1", "3.0", "10", "120", "30", "12"), 360, "error:ConvergenceError", 12),
        (("0.2", "0.4", "1", "1", "1", "1"), 1, "ok", 1),
    ]:
        code, out = run_cli(capsys, "--format", "json", "scan", *argv)
        assert code == 0
        record = json.loads(out)
        cells = record["results"]["cells"]
        assert len(cells) == n_cells
        assert [c["flags"] for c in cells].count(flag) == count
        assert out == json.dumps(record, indent=2) + "\n"
    assert 2501 > cli._ROWS_BLOCK and 2501 % cli._ROWS_BLOCK
    # every other record kind; zeros 0 10 has an empty list of zeros, and
    # the last run fails
    for argv, want in [
        (("zeros", "0", "10"), 0), (("zeros", "13.7", "14.6"), 0), (("verify", "lemmas"), 0),
        (("eval", "sigma", "--x", "2.5", "--s", "0.5+14i"), 0),
        (("norm", "--s", "0.75", "--T", "400"), 0),
        (("eval", "fracpow", "--x", "-2", "--s", "2+0i"), 2),
    ]:
        code, out = run_cli(capsys, "--format", "json", *argv)
        assert code == want
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_scan_csv_reads_back_as_json_cells(capsys, tmp_path):
    # CSV writes booleans as 0/1 and floats by repr, NaN included
    csv = tmp_path / "scan.csv"
    code, rec = run_json(capsys, "scan", "0.1", "3.0", "10", "120", "30", "12",
                         "--csv", str(csv))
    assert code == 0
    rows = read_records_csv(str(csv))
    cells = rec["results"]["cells"]
    assert len(rows) == len(cells) == 360
    for row, cell in zip(rows, cells):
        assert list(row) == list(cell)
        assert row["flags"] == cell.pop("flags")
        assert all(repr(row[k]) == repr(float(v)) for k, v in cell.items())


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


# Run in a fresh interpreter: which modules a command loads beyond those
# `import fracsum.cli` loads.  numpy 1.x imports numpy.ma with numpy, so
# only what a command adds counts.
_MODULES_SCRIPT = """
import io, json, sys
import fracsum.cli
at_import = set(sys.modules)
out, sys.stdout = sys.stdout, io.StringIO()
code = fracsum.cli.main(sys.argv[1:])
sys.stdout = out
print(json.dumps({"code": code, "at_import": sorted(at_import),
                  "added": sorted(set(sys.modules) - at_import)}))
"""


@pytest.mark.parametrize("argv", [
    ["zeros", "14", "15"],
    ["zeros", "13.7", "14.6", "--numeric-residual"],
    ["scan", "0.1", "0.9", "10", "12", "3", "3"],
    ["eval", "sigma", "--x", "2.5", "--s", "0.5+14i"],
    ["verify", "all", "--seed", "0"],
])
def test_commands_load_only_what_they_use(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", _MODULES_SCRIPT, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["code"] == 0
    assert "fracsum.verify" not in run["at_import"]
    assert ("fracsum.verify" in run["added"]) == (argv[0] == "verify")
    assert "numpy.ma" not in run["added"]
    # the zero search and the scan need only the special functions
    loaded = {m for m in run["at_import"] + run["added"] if m.startswith("fracsum")}
    if argv[0] == "scan" or argv == ["zeros", "14", "15"]:
        assert loaded == {"fracsum", "fracsum.cli", "fracsum.config", "fracsum.errors",
                          "fracsum.specfun", "fracsum.spectrum"}
        # their records are named tuples; only core's EvalFn is a dataclass
        assert "dataclasses" not in run["at_import"] + run["added"]
