import json
import math
import random

import numpy as np
import pytest

from fracsum import (
    CancellationWarning,
    ConvergenceError,
    DomainError,
    EigenCandidate,
    PoleError,
    ZetaZero,
    boundary_report,
    eigen_residual,
    eigenvalue_of,
    find_critical_zeros,
    half_shift_norm,
    hardy_z,
    riemann_zeta,
    scan_s_plane,
)
from fracsum import cli, specfun, spectrum
from oracles import alt_series_zeta

# classical ordinates, used only as coarse anchors (1e-6)
T1, T2, T3 = 14.134725142, 21.022039639, 25.010857580


# ------------------------------------------------------------ eigenvalue

def test_eigenvalue_fixed_points():
    assert eigenvalue_of(0.5) == 0.0
    assert eigenvalue_of(2.0) == 3j
    lam = eigenvalue_of(0.5 + 14.1347j)
    assert lam == -2 * 14.1347 + 0j
    assert lam.imag == 0.0


def test_eigenvalue_imag_tracks_distance_from_critical_line():
    for s in (0.3 + 5j, 0.9 - 2j, 0.55 + 30j):
        assert abs(eigenvalue_of(s).imag - (2 * s.real - 1)) == 0.0


# ---------------------------------------------------------- eigen_residual

def test_eigen_residual_at_s2():
    rep = eigen_residual(2.0, include_numeric=False)
    assert rep.lam == 3j
    assert abs(rep.analytic_residual - abs(riemann_zeta(2.0))) < 1e-12
    assert not rep.is_eigen
    assert not rep.lambda_is_real
    assert rep.boundary_f0 == 0.0
    assert abs(rep.boundary_fhalf - (-2.0 * riemann_zeta(2.0))) < 1e-12
    assert math.isnan(rep.numeric_residual)


def test_eigen_residual_at_s1_replaces_pole_constant():
    rep = eigen_residual(1.0, include_numeric=False)
    assert rep.analytic_residual == 1.0
    assert rep.lam == 1j
    assert rep.zeta_s is None


def test_eigen_residual_at_first_zero():
    t = 14.1347251417
    rep = eigen_residual(0.5 + 1j * t, include_numeric=False)
    assert rep.is_eigen
    assert rep.analytic_residual < 1e-6
    assert rep.lambda_is_real
    assert rep.lam.imag == 0.0
    assert abs(rep.lam.real + 2 * t) < 1e-12
    assert abs(rep.boundary_fhalf) < 1e-6


def test_eigen_residual_numeric_on_reduced_grid():
    from fracsum import OperatorConfig
    cfg = OperatorConfig(sample_grid=(0.5, 1.5))
    rep = eigen_residual(2.0, cfg)
    assert rep.numeric_residual < 1e-3


def test_numeric_residual_strict_at_second_and_third_zero():
    from fracsum import OperatorConfig, SummationConfig
    cfg = OperatorConfig(sum_cfg=SummationConfig(strict=True))
    for t in (21.022039638771555, 25.01085758014569):
        assert eigen_residual(0.5 + 1j * t, cfg).numeric_residual < 1e-8


def test_numeric_residual_strict_at_zeros_11_and_29():
    # the X integrand grows like v^(1/2) here; raw partial sums stalled at
    # n = 131072 from zero 11 on, and the end-corrected ones converge
    from fracsum import OperatorConfig, SummationConfig
    cfg = OperatorConfig(sum_cfg=SummationConfig(strict=True))
    for t in (52.97032147771446, 98.83119421819369):
        assert eigen_residual(0.5 + 1j * t, cfg).numeric_residual <= 1e-9


def test_eigen_residual_requires_right_half_plane():
    with pytest.raises(DomainError):
        eigen_residual(-0.2 + 3j)
    with pytest.raises(DomainError):
        eigen_residual(0.0)


# ------------------------------------------------------------ zero finding

def test_no_zeros_below_first():
    assert find_critical_zeros(0.0, 10.0) == []


def test_first_zero_bracketed():
    zeros = find_critical_zeros(10.0, 15.0)
    assert len(zeros) == 1
    z = zeros[0]
    assert abs(z.t - T1) < 1e-6
    assert z.residual < 1e-8
    assert z.bracket[1] - z.bracket[0] < 1e-9
    assert z.index == 1


def test_zeros_up_to_26():
    # the third ordinate 25.0108... also lies below 26
    zeros = find_critical_zeros(10.0, 26.0)
    assert [z.index for z in zeros] == [1, 2, 3]
    assert abs(zeros[0].t - T1) < 1e-6
    assert abs(zeros[1].t - T2) < 1e-6
    assert abs(zeros[2].t - T3) < 1e-6


def test_zero_count_up_to_sixty_is_thirteen():
    # N(60) = 13 by the argument-principle count; the finder must agree and
    # stay stable under grid refinement
    zeros = find_critical_zeros(0.0, 60.0)
    assert len(zeros) == 13
    fine = find_critical_zeros(0.0, 60.0, grid_step=0.025)
    assert len(fine) == 13
    for a, b in zip(zeros, fine):
        assert abs(a.t - b.t) < 1e-8


def test_zeros_increasing_and_residuals_certified():
    zeros = find_critical_zeros(0.0, 40.0)
    ts = [z.t for z in zeros]
    assert ts == sorted(ts)
    for z in zeros:
        assert z.residual < 1e-8
        assert abs(alt_series_zeta(0.5 + 1j * z.t)) < 1e-8


def test_zero_finder_domain():
    with pytest.raises(DomainError):
        find_critical_zeros(5.0, 3.0)
    with pytest.raises(DomainError):
        find_critical_zeros(-1.0, 5.0)
    with pytest.raises(DomainError):
        find_critical_zeros(0.0, 150.0)


def test_zero_finder_covers_partial_final_cell():
    # the first zero sits at 14.1347...; a range ending just past it must
    # still bracket it even though the 0.05 grid does not land on t_max
    zeros = find_critical_zeros(14.12, 14.1347999)
    assert len(zeros) == 1
    assert abs(zeros[0].t - T1) < 1e-6


def test_lock_step_refinement_brackets_every_zero(monkeypatch):
    # all brackets are refined together; each must still hold its zero, be
    # at most 1e-9 wide and keep a sign change of Z across its ends, and the
    # whole search is the grid call and a few rounds
    calls = []

    def counting(t, cfg):
        calls.append(np.size(t))
        return hardy_z(t, cfg)

    monkeypatch.setattr(spectrum, "hardy_z", counting)
    zeros = find_critical_zeros(0.0119, 100.0)
    assert len(zeros) == 29
    assert len(calls) <= 7
    for z in zeros:
        lo, hi = z.bracket
        assert lo <= z.t <= hi
        assert hi - lo <= 1e-9
        assert hardy_z(lo) * hardy_z(hi) <= 0.0


def test_refinement_gives_each_bracket_its_own_bits():
    # the grid cells of the search over (0.0119, 100) that hold a sign
    # change, refined together and one by one
    ts = 0.0119 + 0.05 * np.arange(2000)
    z = hardy_z(ts)
    cell = np.flatnonzero(z[:-1] * z[1:] < 0.0)
    assert cell.size == 29
    together = spectrum._bisect_zero(z[cell], z[cell + 1], ts[cell], ts[cell + 1],
                                     spectrum.DEFAULT_SPECFUN, 1e-9)
    for k, i in enumerate(cell):
        alone = spectrum._bisect_zero(z[[i]], z[[i + 1]], ts[[i]], ts[[i + 1]],
                                      spectrum.DEFAULT_SPECFUN, 1e-9)
        assert [v[k:k + 1].tobytes() for v in together] == [v.tobytes() for v in alone]


def test_zeros_record_keeps_eigen_residual_bits(capsys):
    # the zeros command computes its columns in one array pass; at every
    # zero below 100 each must have the bits of the scalar formulas
    assert cli.main(["zeros", "0", "100", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["zeros"]
    assert len(rows) == 29
    for row in rows:
        s = 0.5 + 1j * row["t"]
        rep = eigen_residual(s, include_numeric=False)
        want = (abs(riemann_zeta(s)), abs(riemann_zeta(s)), rep.lam.real, rep.lam.imag,
                rep.lambda_is_real, rep.analytic_residual, rep.numeric_residual,
                abs(rep.boundary_f0), abs(rep.boundary_fhalf))
        got = tuple(row[k] for k in (
            "residual", "abs_zeta", "lambda_re", "lambda_im", "lambda_is_real",
            "analytic_residual", "numeric_residual", "boundary_f0_abs", "boundary_fhalf_abs"))
        assert repr(got) == repr(want), row["t"]


def test_zero_finder_exact_grid_zero_and_partial_cell(monkeypatch):
    # a stand-in Z that is exactly 0 at the grid point 14.0 and changes sign
    # inside the final partial cell (14.3, 14.33)
    def fake_z(t, cfg):
        t = np.asarray(t, dtype=float)
        return (t - 14.0) * (t - 14.32)

    monkeypatch.setattr(spectrum, "hardy_z", fake_z)
    zeros = find_critical_zeros(13.0, 14.33)
    assert [z.index for z in zeros] == [1, 2]
    assert zeros[0].t == 14.0 and zeros[0].bracket == (14.0, 14.0)
    lo, hi = zeros[1].bracket
    assert 14.3 <= lo <= 14.32 <= hi <= 14.33 and hi - lo <= 1e-9


# -------------------------------------------------------- boundary report

def test_boundary_identity_at_s2():
    rep = boundary_report(2.0)
    assert rep.f0 == 0.0
    assert abs(rep.f_minus_half - (-math.pi ** 2 / 3.0)) < 1e-12
    assert rep.identity_defect < 1e-10


def test_boundary_identity_at_half():
    rep = boundary_report(0.5)
    expect = (2.0 - math.sqrt(2.0)) * alt_series_zeta(0.5)
    assert abs(rep.f_minus_half - expect) < 1e-10


def test_boundary_conditions_coincide_at_zero():
    zeros = find_critical_zeros(10.0, 15.0)
    s = 0.5 + 1j * zeros[0].t
    rep = boundary_report(s)
    assert abs(rep.f0) == 0.0
    assert abs(rep.f_minus_half) < 1e-6
    assert rep.identity_defect < 1e-9


def test_boundary_report_random_defect():
    rng = random.Random(23)
    for _ in range(10):
        s = complex(rng.uniform(-0.9, 2.5), rng.uniform(-20.0, 20.0))
        if abs(s - 1.0) < 0.1:
            continue
        assert boundary_report(s).identity_defect < 1e-9


def test_boundary_report_pole_and_domain():
    with pytest.raises(PoleError):
        boundary_report(1.0)
    with pytest.raises(DomainError):
        boundary_report(-1.5)


@pytest.mark.filterwarnings("ignore::fracsum.CancellationWarning")
@pytest.mark.parametrize("s", [1.0, 1.0 + 1e-9, 1.0 + 1e-4, 2.0,
                               0.5 + 14.134725141734695j, 0.3 + 5j, -0.8 + 4j])
def test_boundary_pair_is_one_call_with_the_bits_of_two(monkeypatch, s):
    # x = 0 and x = -1/2 share one call of x^[-s], and each keeps the bits
    # of its own call, on the digamma branch at s = 1 too
    want = [repr(complex(spectrum.frac_power(x, s))) for x in (0.0, -0.5)]
    calls = []
    frac_power = spectrum.frac_power

    def counting(x, *args):
        calls.append(np.size(x))
        return frac_power(x, *args)

    monkeypatch.setattr(spectrum, "frac_power", counting)
    got = []
    if s.real > 0.0:
        rep = eigen_residual(s, include_numeric=False)
        got.append([repr(rep.boundary_f0), repr(rep.boundary_fhalf)])
    if s != 1.0:
        rep = boundary_report(s)
        got.append([repr(rep.f0), repr(rep.f_minus_half)])
    assert got and all(pair == want for pair in got)
    assert calls == [2] * len(got)


def test_boundary_report_warns_once_near_the_pole():
    with pytest.warns(CancellationWarning) as caught:
        boundary_report(1.0 + 1e-4)
    assert len(caught) == 1


def test_eigen_report_kernel_calls_at_first_zero(monkeypatch):
    # the numeric eigen report at the first zero: 11 limits, their exact
    # shifts grouped into few calls, and the boundary pair in one
    calls = []
    kernel = specfun._hurwitz_kernel

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(specfun, "_hurwitz_kernel", counting)
    specfun._riemann_zeta_cached.cache_clear()
    rep = eigen_residual(0.5 + 14.134725141734695j)
    assert rep.numeric_residual < 1e-8
    assert len(calls) <= 37


# ------------------------------------------------------------------ scan

def test_scan_minima_track_zeros():
    cells = scan_s_plane((0.1, 0.9), (10.0, 30.0), 9, 41)
    assert len(cells) == 9 * 41
    column = [c for c in cells if abs(c.s.real - 0.5) < 1e-12]
    assert len(column) == 41
    # within each zero's neighbourhood, the cell with the smallest analytic
    # residual must be the one nearest the true ordinate
    step = 0.5
    for t_true in (T1, T2, T3):
        window = [c for c in column if abs(c.s.imag - t_true) <= 2.0]
        best = min(window, key=lambda c: c.analytic_residual)
        assert abs(best.s.imag - t_true) <= step


def test_scan_is_im_major_and_deterministic():
    cells = scan_s_plane((0.2, 0.8), (0.0, 2.0), 3, 3)
    ims = [c.s.imag for c in cells]
    assert ims == sorted(ims)
    res = [c.s.real for c in cells[:3]]
    assert res == [0.2, 0.5, 0.8]
    again = scan_s_plane((0.2, 0.8), (0.0, 2.0), 3, 3)
    assert cells == again
    # pole and failed cells hold NaN fields, which compare equal only as
    # the same object
    for grid in [((0.9, 1.1), (-0.0005, 0.0005), 3, 3), ((0.1, 3.0), (10.0, 120.0), 30, 12)]:
        cells = scan_s_plane(*grid)
        assert {c.flag for c in cells} - {"ok"}
        assert cells == scan_s_plane(*grid)


def test_scan_flags_pole_cells():
    cells = scan_s_plane((0.9, 1.1), (-0.0005, 0.0005), 3, 3)
    flags = {c.flag for c in cells}
    assert "pole" in flags
    pole_cells = [c for c in cells if c.flag == "pole"]
    assert all(abs(c.s - 1.0) < 1e-3 for c in pole_cells)
    ok_cells = [c for c in cells if c.flag == "ok"]
    assert ok_cells and all(np.isfinite(c.abs_zeta) for c in ok_cells)


def test_scan_single_column_on_critical_line():
    cells = scan_s_plane((0.5, 0.5), (0.0, 5.0), 1, 11)
    assert len(cells) == 11
    assert all(c.lam.imag == 0.0 for c in cells)
    assert all(c.lambda_is_real for c in cells)


def test_scan_isolates_per_cell_failures():
    # far above the supported strip the tail refuses; the scan must flag the
    # cells and carry on instead of aborting
    cells = scan_s_plane((0.5, 0.5), (149.0, 151.0), 1, 3)
    assert all(c.flag == "error:ConvergenceError" for c in cells)
    assert all(math.isnan(c.abs_zeta) for c in cells)
    assert all(c.lam == eigenvalue_of(c.s) for c in cells)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow far up the line
def test_scan_flags_nan_tail_estimate():
    # the value there is finite but its tail estimate is NaN: the cell is
    # flagged by the gate's rule, as riemann_zeta raises there
    cells = scan_s_plane((200.44674247267193, 200.44674247267193),
                         (18530676611667.473, 18530676611667.473), 1, 1)
    assert [c.flag for c in cells] == ["error:ConvergenceError"]


def test_scan_row_with_failing_and_good_cells():
    # at Im s = 120 the tail estimate misses the target for Re(s) < ~1 and
    # meets it for the rest; each cell is judged by its own estimate
    cells = scan_s_plane((0.1, 3.0), (120.0, 120.0), 30, 1)
    assert [c.flag for c in cells] == ["error:ConvergenceError"] * 9 + ["ok"] * 21
    for c in cells[9:]:
        assert c.abs_zeta == abs(riemann_zeta(c.s))


@pytest.mark.parametrize("im_range, n_error", [((10.0, 30.0), 0), ((90.0, 130.0), 3649)],
                         ids=["clean", "failing"])
def test_scan_is_one_kernel_call(monkeypatch, im_range, n_error):
    # clean or failing, the grid is one kernel call over all its cells (a
    # failing 41x201 grid once took 1 + 201 row calls + 3649 cell calls)
    calls = []
    kernel = spectrum._hurwitz_kernel

    def counting(s, a, cfg):
        calls.append(np.size(s))
        return kernel(s, a, cfg)

    monkeypatch.setattr(spectrum, "_hurwitz_kernel", counting)
    cells = scan_s_plane((0.1, 0.9), im_range, 41, 201)
    assert calls == [41 * 201]
    assert sum(c.flag == "error:ConvergenceError" for c in cells) == n_error
    assert sum(c.flag == "ok" for c in cells) == 41 * 201 - n_error


@pytest.mark.parametrize("grid, flags", [
    (((0.2, 0.8), (-0.0, -0.0), 3, 2), {"ok"}),
    (((0.9, 1.1), (-0.5, 0.5), 41, 61), {"ok", "pole"}),
    (((0.1, 3.0), (10.0, 120.0), 30, 12), {"ok", "error:ConvergenceError"}),
], ids=["signed-zero", "pole", "failing"])
def test_scan_cells_keep_scalar_bits(grid, flags):
    # the scan computes its fields over arrays; each must have the bits of
    # the per-cell formula, and repr tells signed zeros and NaNs apart
    # (linspace ends the first grid's second row on Im s = -0.0)
    (re0, re1), (im0, im1), n_re, n_im = grid
    points = [complex(r, i) for i in np.linspace(im0, im1, n_im)
              for r in np.linspace(re0, re1, n_re)]
    cells = scan_s_plane(*grid)
    assert [repr(c.s) for c in cells] == [repr(s) for s in points]
    for c in cells:
        s = c.s
        if abs(s - 1.0) < 1e-3:
            want = (math.nan, math.nan, "pole")
        else:
            try:
                z = riemann_zeta(s)
            except ConvergenceError:
                want = (math.nan, math.nan, "error:ConvergenceError")
            else:
                want = (abs(z), abs((s - 1.0) * z), "ok")
        lam = eigenvalue_of(s)
        assert repr((c.abs_zeta, c.analytic_residual, c.flag, c.lam, c.lambda_is_real)) \
            == repr(want + (lam, abs(lam.imag) < spectrum.REALITY_TOL)), s
    assert {c.flag for c in cells} == flags


def test_scan_grid_with_failing_upper_rows():
    # rows 110 and 120 hold cells whose tail estimates miss the target;
    # each is flagged on its own and every other cell stays ok
    cells = scan_s_plane((0.1, 3.0), (10.0, 120.0), 30, 12)
    fail = "error:ConvergenceError"
    assert [c.flag for c in cells] == (["ok"] * 300 + [fail] * 3 + ["ok"] * 27
                                       + [fail] * 9 + ["ok"] * 21)
    for c in cells:
        if c.flag == "ok":
            assert c.abs_zeta == abs(riemann_zeta(c.s))


def test_scan_rejects_left_half_plane():
    with pytest.raises(DomainError):
        scan_s_plane((-0.5, 0.5), (0.0, 1.0), 3, 3)
    with pytest.raises(DomainError):
        scan_s_plane((0.0, 0.5), (0.0, 1.0), 3, 3)


# ------------------------------------------------------- half-shift norm

def test_half_shift_decay_exponents():
    res = half_shift_norm(2.0, 200.0)
    assert -4.2 <= res.decay_exponent <= -3.8
    res = half_shift_norm(0.75 + 5j, 400.0)
    assert -1.7 <= res.decay_exponent <= -1.3
    res = half_shift_norm(0.25, 400.0)
    assert -0.7 <= res.decay_exponent <= -0.3


def test_half_shift_tail_increments_distinguish_half_line():
    # Re(s) > 1/2: truncation increments shrink; Re(s) < 1/2: they grow
    for s, shrinking in ((0.75 + 5j, True), (0.25 + 0j, False)):
        n1 = half_shift_norm(s, 200.0).truncated_norm_sq
        n2 = half_shift_norm(s, 400.0).truncated_norm_sq
        n3 = half_shift_norm(s, 800.0).truncated_norm_sq
        inc1, inc2 = n2 - n1, n3 - n2
        assert inc1 > 0 and inc2 > 0
        assert (inc2 < inc1) == shrinking


@pytest.mark.parametrize("s,T", [(2.0, 1e7), (0.75, 1e14), (0.75 + 5j, 1e14), (1.0, 1e16)])
def test_half_shift_norm_refuses_unresolved_fit(s, T):
    # D_half x^[-s] ~ x^(-s)/2 is a difference of two values of x^[-s], and
    # on [T/4, T] it falls within 10x their error bound
    with pytest.raises(DomainError, match="too large"):
        half_shift_norm(s, T)


def test_half_shift_norm_resolved_at_large_T():
    # resolved to 19x its error bound at x = T, the fit keeps its exponent
    assert abs(half_shift_norm(2.0, 1e6).decay_exponent + 4.0) < 1e-3
    assert abs(half_shift_norm(0.75, 1e10).decay_exponent + 1.5) < 1e-3


def test_half_shift_norm_domain():
    with pytest.raises(DomainError):
        half_shift_norm(-0.5, 400.0)
    with pytest.raises(DomainError):
        half_shift_norm(0.75, 50.0)
    with pytest.raises(DomainError):
        half_shift_norm(0.75, 400.0, quad_points=10)


# -------------------------------------------------------------- reality

def test_reality_criterion():
    zeros = find_critical_zeros(0.0, 60.0)
    for z in zeros:
        assert eigenvalue_of(0.5 + 1j * z.t).imag == 0.0
    rng = random.Random(17)
    for _ in range(10):
        re = rng.uniform(0.06, 0.94)
        if abs(re - 0.5) < 0.05:
            re = 0.5 + (0.06 if re >= 0.5 else -0.06)
        s = complex(re, rng.uniform(0.5, 55.0))
        assert abs(eigenvalue_of(s).imag) >= 0.1


def test_zero_eigen_correspondence():
    zeros = find_critical_zeros(0.0, 60.0)
    for z in zeros[:10]:
        rep = eigen_residual(0.5 + 1j * z.t, include_numeric=False)
        assert rep.analytic_residual < 1e-6
    rng = random.Random(17)
    for _ in range(10):
        re = rng.uniform(0.06, 0.94)
        if abs(re - 0.5) < 0.05:
            re = 0.5 + (0.06 if re >= 0.5 else -0.06)
        s = complex(re, rng.uniform(0.5, 55.0))
        rep = eigen_residual(s, include_numeric=False)
        assert rep.analytic_residual > 1e-2


# -------------------------------------------------------------- candidates

def test_eigen_candidate_eval():
    cand = EigenCandidate(alpha=1.0, beta=0.0, s=2.0)
    f = cand.as_eval_fn()
    assert abs(complex(f(0.0))) == 0.0
    assert abs(complex(f(1.0)) - 1.0) < 1e-12
    shifted = EigenCandidate(alpha=2.0, beta=1j, s=1.5)
    g = shifted.as_eval_fn()
    assert abs(complex(g(0.0)) - 1j) < 1e-14


def test_eigen_candidate_validation():
    with pytest.raises(DomainError):
        EigenCandidate(alpha=1.0, beta=0.0, s=-0.5)
    EigenCandidate(alpha=0.0, beta=2.0, s=-0.5)  # pure constant is fine


def test_zeta_zero_is_frozen_record():
    z = ZetaZero(index=1, t=14.1, residual=1e-9, bracket=(14.0, 14.2))
    with pytest.raises(AttributeError):
        z.t = 15.0
