"""End-to-end acceptance suite.

Every check here pins a headline capability at a fixed tolerance and prints
one PASS/FAIL line (visible with ``pytest -s``).  Runtime bounds are part of
the checks.  Run:

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import random
import time

import numpy as np

from fracsum import (
    DEFAULT_OPERATOR,
    FLAT,
    NOT_FLAT,
    apply_R,
    boundary_report,
    const_fn,
    eigen_residual,
    eigenvalue_of,
    find_critical_zeros,
    flatness_probe,
    frac_power,
    frac_power_derivative,
    frac_power_fn,
    fractional_sum_limit,
    half_shift_norm,
    log_fn,
    log_gamma,
    power_fn,
    riemann_zeta,
    sin_2pi_fn,
)
from fracsum.cli import main as cli_main, read_records_csv
from oracles import richardson_diff


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# 1 ------------------------------------------------------------------------

def test_acceptance_roundtrip_difference_inverts_sum():
    t0 = time.monotonic()
    fns = [log_fn(), power_fn(0.7), power_fn(0.5 + 2j)]
    xs = np.linspace(0.35, 5.9, 10)
    worst = 0.0
    for f in fns:
        for x in xs:
            x = float(x)
            hi = fractional_sum_limit(f, x).value
            lo = fractional_sum_limit(f, x - 1.0).value
            worst = max(worst, abs((hi - lo) - complex(f(x))))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    report("roundtrip difference inverts the sum", ok,
           f"worst defect {worst:.3e} (tol 1e-6), {elapsed:.1f}s (< 30s)")
    assert worst < 1e-6
    assert elapsed < 30.0


# 2 ------------------------------------------------------------------------

def test_acceptance_limit_engine_matches_closed_form():
    t0 = time.monotonic()
    rng = random.Random(41)
    cases = []
    while len(cases) < 20:
        x = rng.uniform(-0.9, 8.0)
        s = complex(rng.uniform(0.1, 2.5), rng.uniform(-10.0, 10.0))
        if abs(s - 1.0) < 0.05 or float(x).is_integer():
            continue
        cases.append((x, s))
    bounded = 0
    agree = True
    worst = 0.0
    for x, s in cases:
        res = fractional_sum_limit(power_fn(s), x)
        err = abs(res.value - frac_power(x, s))
        worst = max(worst, err)
        if err <= max(res.err_estimate, 1e-15):
            bounded += 1
        if err > max(1e-6, 10.0 * res.err_estimate):
            agree = False
    elapsed = time.monotonic() - t0
    ok = agree and bounded >= 18 and elapsed < 60.0
    report("limit engine matches the closed form", ok,
           f"estimate bounded the defect in {bounded}/20, worst {worst:.2e}, "
           f"{elapsed:.1f}s (< 60s)")
    assert agree
    assert bounded >= 18
    assert elapsed < 60.0


# 3 ------------------------------------------------------------------------

def test_acceptance_sum_of_logs_is_log_gamma():
    worst = 0.0
    for x in (-0.5, 0.5, 1.5, math.pi, 10.0):
        got = fractional_sum_limit(log_fn(), x).value
        worst = max(worst, abs(got - log_gamma(x + 1.0)))
    ok = worst < 1e-6
    report("summed logarithms reproduce log-gamma", ok,
           f"worst defect {worst:.3e} (tol 1e-6)")
    assert worst < 1e-6


# 4 ------------------------------------------------------------------------

def derivative_cases():
    """The 20 (x, s) draws of the derivative check."""
    rng = random.Random(43)
    cases = []
    while len(cases) < 20:
        x = rng.uniform(-0.5, 6.0)
        s = complex(rng.uniform(0.15, 2.4), rng.uniform(-8.0, 8.0))
        if abs(s) < 0.1 or abs(s - 1.0) < 0.05:
            continue
        cases.append((x, s))
    return cases


def test_acceptance_derivative_formula_matches_finite_differences():
    worst = 0.0
    for x, s in derivative_cases():
        fd = richardson_diff(lambda u, s=s: complex(frac_power(u, s)), x)
        worst = max(worst, abs(fd - frac_power_derivative(x, s)))
    ok = worst < 1e-6
    report("derivative formula matches finite differences", ok,
           f"worst defect {worst:.3e} over 20 cases (tol 1e-6)")
    assert worst < 1e-6


# 5 ------------------------------------------------------------------------

def test_acceptance_operator_image_matches_closed_form():
    t0 = time.monotonic()
    cfg = DEFAULT_OPERATOR
    grid = np.asarray(cfg.sample_grid, dtype=float)
    worst_by_s = {}
    for s in (2.0 + 0j, 0.8 + 0j, 0.5 + 3j):
        f = frac_power_fn(s)
        rf = apply_R(f, cfg)
        zs = riemann_zeta(s)
        defect = np.abs(rf(grid) - eigenvalue_of(s) * f(grid) + 1j * (s - 1.0) * zs)
        worst_by_s[s] = float(defect.max())
    elapsed = time.monotonic() - t0
    worst = max(worst_by_s.values())
    ok = worst < 1e-8 and elapsed < 300.0
    detail = ", ".join(f"s={s}: {d:.2e}" for s, d in worst_by_s.items())
    report("numeric operator image matches the closed form", ok,
           f"{detail} (tol 1e-8), {elapsed:.0f}s (< 300s)")
    assert worst < 1e-8
    assert elapsed < 300.0


# 6 ------------------------------------------------------------------------

def test_acceptance_zero_count_0_60_as_specified():
    # the stated expectation is exactly 10 zeros in (0, 60); the interval
    # actually contains 13 (the 10th ordinate is 49.77, the 13th 59.35), so
    # this check documents the discrepancy rather than hiding it
    zeros = find_critical_zeros(0.0, 60.0)
    ok = len(zeros) == 10
    report("zero count in (0, 60) equals the stated 10", ok,
           f"found {len(zeros)} zeros: " + ", ".join(f"{z.t:.4f}" for z in zeros))
    assert len(zeros) == 10, (
        f"found {len(zeros)} zeros in (0, 60); exactly 10 holds for (0, 50)"
    )


def test_acceptance_zero_ordinates_stable_under_refinement():
    t0 = time.monotonic()
    zeros = find_critical_zeros(0.0, 60.0)
    fine = find_critical_zeros(0.0, 60.0, grid_step=0.025)
    worst = max(abs(a.t - b.t) for a, b in zip(zeros[:3], fine[:3]))
    elapsed = time.monotonic() - t0
    ok = worst < 5e-7 and len(fine) == len(zeros)
    report("first ordinates stable under doubled grid resolution", ok,
           f"max shift {worst:.2e} (tol 5e-7), counts {len(zeros)}/{len(fine)}, "
           f"{elapsed:.0f}s")
    assert worst < 5e-7
    assert len(fine) == len(zeros)
    assert elapsed < 120.0


def test_acceptance_eigenvalues_real_exactly_at_zeros():
    t0 = time.monotonic()
    zeros = find_critical_zeros(0.0, 60.0)
    assert zeros
    for z in zeros:
        rep = eigen_residual(0.5 + 1j * z.t, include_numeric=False)
        assert rep.analytic_residual < 1e-6
        assert rep.lam.imag == 0.0
        assert abs(rep.boundary_f0) == 0.0
        assert abs(rep.boundary_fhalf) < 1e-6
    elapsed = time.monotonic() - t0
    report("eigenvalues at zeros are real with vanishing boundary values", True,
           f"{len(zeros)} zeros checked, {elapsed:.0f}s (< 120s)")
    assert elapsed < 120.0


def test_acceptance_off_line_eigenvalues_are_complex():
    rng = random.Random(17)
    checked = 0
    while checked < 10:
        re = rng.uniform(0.06, 0.94)
        if abs(re - 0.5) < 0.05:
            re = 0.5 + (0.06 if re >= 0.5 else -0.06)
        s = complex(re, rng.uniform(0.5, 55.0))
        rep = eigen_residual(s, include_numeric=False)
        assert abs(rep.lam.imag) >= 0.1
        assert rep.analytic_residual > 1e-2
        checked += 1
    report("off-line candidates have complex eigenvalues and large residuals",
           True, "10 seeded points in the strip, offset >= 0.05")


# 7 ------------------------------------------------------------------------

def test_acceptance_kernel_annihilated():
    cfg = DEFAULT_OPERATOR
    r_sin = apply_R(sin_2pi_fn(), cfg)
    r_const = apply_R(const_fn(1.0 + 2j), cfg)
    worst_sin = max(abs(complex(r_sin(x))) for x in cfg.sample_grid)
    worst_const = max(abs(complex(r_const(x))) for x in cfg.sample_grid)
    ok = worst_sin < 1e-6 and worst_const < 1e-12
    report("difference-kernel functions are annihilated", ok,
           f"sup |R sin| = {worst_sin:.2e} (tol 1e-6), "
           f"sup |R const| = {worst_const:.2e} (tol 1e-12)")
    assert worst_sin < 1e-6
    assert worst_const < 1e-12


# 8 ------------------------------------------------------------------------

def test_acceptance_flatness_classification():
    probe = (0.5, 1.0, 2.0)
    verdicts = {}
    for sigma in (-0.5, 0.0, 0.5, 2.0):
        verdicts[sigma] = flatness_probe(power_fn(sigma), probe).verdict
    for sigma in (-1.0, -1.5):
        verdicts[sigma] = flatness_probe(power_fn(sigma), probe).verdict
    log_verdict = flatness_probe(log_fn(), probe).verdict
    ok = (all(verdicts[sg] == FLAT for sg in (-0.5, 0.0, 0.5, 2.0))
          and all(verdicts[sg] == NOT_FLAT for sg in (-1.0, -1.5))
          and log_verdict == FLAT)
    report("flatness probe classifies the power family", ok,
           f"{verdicts}, log={log_verdict}")
    for sigma in (-0.5, 0.0, 0.5, 2.0):
        assert verdicts[sigma] == FLAT
    for sigma in (-1.0, -1.5):
        assert verdicts[sigma] == NOT_FLAT
    assert log_verdict == FLAT


# 9 ------------------------------------------------------------------------

def test_acceptance_boundary_identity():
    rng = random.Random(47)
    worst = 0.0
    checked = 0
    while checked < 10:
        s = complex(rng.uniform(-0.9, 2.5), rng.uniform(-15.0, 15.0))
        if abs(s - 1.0) < 0.1 or s.real <= -0.9:
            continue
        worst = max(worst, boundary_report(s).identity_defect)
        checked += 1
    ok = worst < 1e-9
    report("half-point boundary identity", ok,
           f"worst defect {worst:.3e} over 10 cases (tol 1e-9)")
    assert worst < 1e-9


# 10 -----------------------------------------------------------------------

def test_acceptance_half_shift_norm_trend():
    results = {}
    for s, T in ((0.25 + 0j, 400.0), (0.75 + 5j, 400.0), (2.0 + 0j, 200.0)):
        res = half_shift_norm(s, T)
        results[s] = res.decay_exponent
        assert abs(res.decay_exponent - (-2.0 * s.real)) < 0.2
    # tail increments separate the two sides of the critical line
    grow = [half_shift_norm(0.25, T).truncated_norm_sq for T in (200.0, 400.0, 800.0)]
    shrink = [half_shift_norm(0.75 + 5j, T).truncated_norm_sq
              for T in (200.0, 400.0, 800.0)]
    grows = (grow[2] - grow[1]) > (grow[1] - grow[0])
    shrinks = (shrink[2] - shrink[1]) < (shrink[1] - shrink[0])
    ok = grows and shrinks
    report("half-shift norm decay matches -2 Re(s)", ok,
           ", ".join(f"s={s}: {e:.3f}" for s, e in results.items())
           + f"; increments grow below 1/2: {grows}, shrink above: {shrinks}")
    assert grows and shrinks


# 11 -----------------------------------------------------------------------

def test_acceptance_cli_determinism_and_exit_codes(capsys, tmp_path):
    def run(*argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    def record_of(out):
        rec = json.loads(out)
        rec.pop("timing_ms", None)
        return rec

    # determinism: the identical invocation twice, byte-identical CSV and
    # equal records apart from the timing field
    a = tmp_path / "zeros.csv"
    code1, out1 = run("--format", "json", "zeros", "0", "30", "--csv", str(a))
    first_bytes = a.read_bytes()
    code2, out2 = run("--format", "json", "zeros", "0", "30", "--csv", str(a))
    deterministic = (code1 == code2 == 0
                     and record_of(out1) == record_of(out2)
                     and first_bytes == a.read_bytes())

    # CSV round-trips through the bundled reader without loss
    rows = read_records_csv(str(a))
    rec = record_of(out1)
    roundtrip = (len(rows) == rec["results"]["n_zeros"]
                 and all(r["t"] == z["t"]
                         for r, z in zip(rows, rec["results"]["zeros"])))

    code_ok, _ = run("eval", "fracpow", "--x", "1", "--s", "2+0i")
    code_verify, _ = run("verify", "operators", "--diff-step", "1e-2")
    code_usage, _ = run("zeros", "5", "3")
    code_conv, _ = run("--abs-tol", "1e-16", "eval", "sigma",
                       "--x", "5.5", "--s", "0.3+0i")
    codes = (code_ok, code_verify, code_usage, code_conv)
    ok = deterministic and roundtrip and codes == (0, 1, 2, 3)
    report("CLI determinism and exit-code contract", ok,
           f"deterministic={deterministic}, roundtrip={roundtrip}, "
           f"exit codes {codes} (want (0, 1, 2, 3))")
    assert deterministic
    assert roundtrip
    assert codes == (0, 1, 2, 3)
