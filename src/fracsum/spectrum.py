"""Eigenvalue machinery for R under the boundary condition f(0) = 0.

For s with Re(s) > 0 the candidate eigenfunctions are f = alpha x^[-s] + beta
and the closed-form image is

    R x^[-s] = i(2s - 1) x^[-s] - i(s - 1) zeta(s)        (s != 1),

with (s-1) zeta(s) replaced by 1 at s = 1.  So i(2s - 1) is an eigenvalue
exactly when zeta(s) = 0, and that eigenvalue is real exactly when
Re(s) = 1/2: the reality of the nonzero spectrum is the Riemann hypothesis
restated.  This module measures those residuals, finds critical-line zeros
through sign changes of the Hardy Z function, sweeps the strip, and probes
the tentative half-shift inner product <f, g> = int conj(D_half f) D_half g.

The zero search, the scan and the zeros' analytic columns need only the
special functions.  What builds x^[-s] and R (``fracsum.core`` and
``fracsum.operators``) is imported inside the functions that use it, so
that a run which needs neither does not load them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .config import (
    DEFAULT_OPERATOR,
    DEFAULT_SPECFUN,
    MAX_QUAD_POINTS,
    MAX_SCAN_CELLS,
    OperatorConfig,
    SpecFunConfig,
)
from .errors import DomainError, PoleError
from .specfun import (
    _cmul,
    _hurwitz_kernel,
    _tail_misses,
    hardy_z,
    hurwitz_zeta,
    riemann_zeta,
)

#: |Im(lambda)| below which an eigenvalue counts as real
REALITY_TOL = 1e-9
#: |(s-1) zeta(s)| below which s counts as producing an eigenvalue
EIGEN_TOL = 1e-6

_POLE_RADIUS = 1e-3
_ZERO_WIDTH = 1e-9
_GRID_STEP = 0.05
#: least ratio of each half-shift norm fit sample to the bound on its error
_FIT_RESOLUTION = 10.0


@dataclass(frozen=True)
class ZetaZero:
    """A critical-line zero: ordinal index, ordinate t, |zeta(1/2+it)|,
    bracket, and zeta(1/2+it) itself."""

    index: int
    t: float
    residual: float
    bracket: tuple[float, float]
    zeta: complex


@dataclass(frozen=True)
class EigenReport:
    """Residuals and boundary data for the candidate x^[-s] at one s.

    lam is i(2s-1) exactly; is_eigen gates on the analytic residual
    |(s-1) zeta(s)| (or 1 at s = 1); numeric_residual is the sup-grid defect
    of the fully numeric R pipeline against the closed form (nan when the
    nested computation was skipped).
    """

    s: complex
    lam: complex
    zeta_s: Optional[complex]
    analytic_residual: float
    numeric_residual: float
    boundary_f0: complex
    boundary_fhalf: complex
    is_eigen: bool
    lambda_is_real: bool


def eigenvalue_of(s: complex | np.ndarray) -> complex | np.ndarray:
    """The would-be eigenvalue i(2s - 1) of R at x^[-s]; purely algebraic.

    One formula for a scalar s (giving a complex) and an array of s (giving
    an array), so each point of an array has its scalar bits, signed zeros
    included.  The real arithmetic is spelled out: 2s - 1 widens 2 and 1 to
    complexes with a zero imaginary part, and i is the complex 0 + 1i.
    Overflow gives inf and inf * 0 NaN without a warning, as in Python's
    complex arithmetic.
    """
    z = np.asarray(s, dtype=complex)
    w = np.empty(z.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        w.real = (2.0 * z.real - 0.0 * z.imag) - 1.0
        w.imag = 2.0 * z.imag + 0.0 * z.real
        lam = _cmul(1j, w)
    return lam if isinstance(s, np.ndarray) else complex(lam)


def eigen_residual(s: complex, cfg: OperatorConfig = DEFAULT_OPERATOR,
                   spec_cfg: SpecFunConfig = DEFAULT_SPECFUN,
                   include_numeric: bool = True) -> EigenReport:
    """Build the candidate x^[-s] and measure how far it is from R f = lam f.

    Requires Re(s) > 0 (outside that strip x^[-s] leaves the operator's
    domain).  The numeric residual runs the nested limit-plus-derivative
    pipeline over cfg.sample_grid; pass include_numeric=False to skip it.
    """
    from .core import frac_power
    s = complex(s)
    if s.real <= 0.0:
        raise DomainError(f"eigen_residual requires Re(s) > 0, got {s}")
    lam = eigenvalue_of(s)
    if s == 1:
        zeta_s = None
        analytic = 1.0
    else:
        zeta_s = riemann_zeta(s, spec_cfg)
        analytic = abs((s - 1.0) * zeta_s)
    numeric = _numeric_defect(s, lam, zeta_s, cfg, spec_cfg) if include_numeric else math.nan
    f0, fhalf = frac_power(np.array([0.0, -0.5]), s, spec_cfg).tolist()

    lambda_is_real = abs(lam.imag) < REALITY_TOL
    # same test in the equivalent formulation; i*(2s-1) swaps components
    # exactly, so the two must agree bit for bit
    assert lambda_is_real == (abs(2.0 * s.real - 1.0) < REALITY_TOL)
    return EigenReport(
        s=s,
        lam=lam,
        zeta_s=zeta_s,
        analytic_residual=float(analytic),
        numeric_residual=numeric,
        boundary_f0=f0,
        boundary_fhalf=fhalf,
        is_eigen=analytic < EIGEN_TOL,
        lambda_is_real=lambda_is_real,
    )


def _numeric_defect(s: complex, lam: complex, zeta_s: Optional[complex],
                    cfg: OperatorConfig, spec_cfg: SpecFunConfig) -> float:
    """EigenReport.numeric_residual at s, for lam and zeta_s as reported."""
    from .core import frac_power_fn
    from .operators import apply_R
    const_term = 1j if zeta_s is None else 1j * (s - 1.0) * zeta_s
    f = frac_power_fn(s, spec_cfg)
    xs = np.asarray(cfg.sample_grid, dtype=float)
    return float(np.abs(apply_R(f, cfg)(xs) - lam * f(xs) + const_term).max())


def eigen_columns(zeros: Sequence[ZetaZero], cfg: OperatorConfig = DEFAULT_OPERATOR,
                  spec_cfg: SpecFunConfig = DEFAULT_SPECFUN,
                  include_numeric: bool = False) -> dict[str, np.ndarray]:
    """``eigen_residual``'s figures at the zeros' s = 1/2 + it, with its
    bits, from their zeta values and one Hurwitz call at a = 1/2: the
    columns of ``_zeta_columns``, numeric_residual (NaN unless
    include_numeric), and boundary_f0_abs and boundary_fhalf_abs,
    |x^[-s]| = |zeta(s) - zeta(s, x + 1)| at x = 0, -1/2."""
    s = 0.5 + 1j * np.array([z.t for z in zeros], dtype=float)
    zeta = np.array([z.zeta for z in zeros], dtype=complex)
    cols = _zeta_columns(s, zeta)
    f0, fhalf = zeta - zeta, zeta - hurwitz_zeta(s, 0.5, spec_cfg)
    numeric = ([_numeric_defect(*p, cfg, spec_cfg)
                for p in zip(s.tolist(), cols["lam"].tolist(), zeta.tolist())]
               if include_numeric else [math.nan] * s.size)
    return {**cols, "numeric_residual": np.array(numeric),
            "boundary_f0_abs": np.hypot(f0.real, f0.imag),
            "boundary_fhalf_abs": np.hypot(fhalf.real, fhalf.imag)}


def _zeta_columns(s: np.ndarray, zeta: np.ndarray) -> dict[str, np.ndarray]:
    """|zeta|, |(s - 1) zeta|, lambda and lambda_is_real over the 1-D s from
    zeta at each s, with the bits of abs(zeta), abs((s - 1.0) * zeta) and
    eigenvalue_of(s): magnitudes are hypot, as abs of a Python complex is."""
    prod = _cmul(s - 1.0, zeta)
    lam = eigenvalue_of(s)
    return {"s": s, "abs_zeta": np.hypot(zeta.real, zeta.imag),
            "analytic_residual": np.hypot(prod.real, prod.imag), "lam": lam,
            "lambda_is_real": np.abs(lam.imag) < REALITY_TOL}


def _bisect_zero(za: np.ndarray, zb: np.ndarray, a: np.ndarray, b: np.ndarray,
                 cfg: SpecFunConfig, width: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Close the brackets [a, b] (Z(a) = za, Z(b) = zb of opposite signs)
    below ``width`` in lock-step Illinois rounds (Dowell & Jarratt, BIT 11,
    1971): each is one hardy_z call on the live brackets' regula-falsi
    points, clamped width/4 inside (Dekker's step, so each closes below
    width).  An end kept again has its Z halved; an exact zero closes its
    bracket.  Each bracket decides as it would alone.  Returns the final
    midpoints and ends.  The name, kept from bisection, is the tracer's.
    """
    fa, fb, a, b = (np.array(v, dtype=float) for v in (za, zb, a, b))
    while True:  # b is each bracket's newest point, a its other end
        live = np.flatnonzero(np.abs(b - a) > width)
        if not live.size:
            return 0.5 * (a + b), np.minimum(a, b), np.maximum(a, b)
        a0, b0, fa0, fb0 = a[live], b[live], fa[live], fb[live]
        c = np.clip(b0 - fb0 * (b0 - a0) / (fb0 - fa0), np.minimum(a0, b0) + width / 4,
                    np.maximum(a0, b0) - width / 4)
        fc = hardy_z(c, cfg)
        kept = (fc < 0.0) == (fb0 < 0.0)  # c replaces b: a is kept again
        fa[live[kept]] *= 0.5
        a[live[~kept]], fa[live[~kept]] = b0[~kept], fb0[~kept]
        b[live], fb[live] = c, fc
        a[live[fc == 0.0]] = c[fc == 0.0]


def find_critical_zeros(t_min: float, t_max: float,
                        cfg: SpecFunConfig = DEFAULT_SPECFUN,
                        grid_step: float = _GRID_STEP) -> list[ZetaZero]:
    """All zeros of zeta(1/2 + it) with t in (t_min, t_max), by Hardy Z.

    Samples Z on a grid of the given step in one hardy_z call, brackets
    every sign change, and closes all brackets in lock-step below 1e-9
    width (``_bisect_zero``); t is the final bracket's midpoint.  Sign
    changes give certified brackets, unlike |zeta| minimisation which can
    graze a minimum; the 0.05 default step is well below the minimal gap
    (~1.0) between consecutive zeros with t < 100, so none is skipped.
    Returns zeros in increasing t, indexed from 1; an empty range is normal.
    """
    t_min, t_max = float(t_min), float(t_max)
    if not 0.0 <= t_min < t_max:
        raise DomainError("need 0 <= t_min < t_max")
    if t_max > 100.0:
        raise DomainError("zero search is supported for t <= 100")
    count = int(math.floor((t_max - t_min) / grid_step))
    ts = t_min + grid_step * np.arange(count + 1)
    if ts[-1] < t_max:  # cover the final partial cell
        ts = np.append(ts, t_max)
    zvals = hardy_z(ts, cfg)

    # a grid point exactly on a zero is the zero, a bracket (t, t) that no
    # round refines; a strict sign change across a cell is refined
    on_zero = zvals[:-1] == 0.0
    found = np.flatnonzero(on_zero | (zvals[:-1] * zvals[1:] < 0.0))
    end = np.where(on_zero[found], found, found + 1)
    t, lo, hi = _bisect_zero(zvals[found], zvals[end], ts[found], ts[end], cfg, _ZERO_WIDTH)
    zeta = hurwitz_zeta(0.5 + 1j * t, 1.0, cfg)
    residual = np.hypot(zeta.real, zeta.imag)
    return [ZetaZero(k + 1, *z) for k, z in enumerate(zip(
        t.tolist(), residual.tolist(), zip(lo.tolist(), hi.tolist()), zeta.tolist()))]


@dataclass(frozen=True)
class BoundaryReport:
    f0: complex
    f_minus_half: complex
    identity_defect: float


def boundary_report(s: complex, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> BoundaryReport:
    """Boundary values of x^[-s] and the defect of (-1/2)^[-s] = (2 - 2^s) zeta(s).

    f(0) is 0 by construction; at a zeta zero f(-1/2) vanishes as well, which
    is why the two boundary conditions are interchangeable there.
    """
    from .core import frac_power
    s = complex(s)
    if s.real <= -1.0:
        raise DomainError("boundary_report requires Re(s) > -1")
    if s == 1:
        raise PoleError("the boundary identity holds for s != 1")
    f0, fmh = frac_power(np.array([0.0, -0.5]), s, cfg).tolist()
    identity = (2.0 - 2.0 ** s) * riemann_zeta(s, cfg)
    return BoundaryReport(f0, fmh, abs(fmh - identity))


@dataclass(frozen=True)
class ScanCell:
    """One grid cell of an s-plane sweep (analytic quantities only)."""

    s: complex
    abs_zeta: float
    analytic_residual: float
    lam: complex
    lambda_is_real: bool
    flag: str


def scan_columns(re_range: tuple[float, float], im_range: tuple[float, float],
                 n_re: int, n_im: int,
                 cfg: SpecFunConfig = DEFAULT_SPECFUN) -> dict[str, np.ndarray]:
    """Sweep the strip: |zeta|, analytic residual, and lambda per grid cell.

    Returns one flat array per ScanCell field, keyed by the field's name,
    over the cells in im-major order (im outer, re inner).  The grid must
    sit in Re(s) > 0 (outside that the candidates leave the operator
    domain and the sweep is meaningless), and hold at most MAX_SCAN_CELLS
    cells, checked before any array is built.  Cells within 1e-3 of s = 1 get
    flag "pole".  All other cells are one call of the Hurwitz kernel,
    zeta(s) = zeta(s, 1), which reports each point's tail estimate instead
    of failing the call; a cell whose estimate misses TARGET_ABS_TOL (a
    NaN estimate misses), or whose value is not finite, is flagged
    "error:ConvergenceError", exactly when riemann_zeta alone raises
    there.  Pole and failed cells have NaN |zeta| and residual.  There is
    no fallback path.  Every other cell keeps the bits of the scalar
    formulas of ``_zeta_columns``, with zeta = riemann_zeta(s).
    """
    re0, re1 = float(re_range[0]), float(re_range[1])
    im0, im1 = float(im_range[0]), float(im_range[1])
    if not all(map(math.isfinite, (re0, re1, im0, im1))):
        raise DomainError("scan ranges must be finite")
    if re0 <= 0.0:
        raise DomainError("scan grid must satisfy Re(s) > 0")
    if re1 < re0 or im1 < im0:
        raise DomainError("ranges must be ordered")
    if n_re < 1 or n_im < 1:
        raise DomainError("need at least one grid point per axis")
    if n_re * n_im > MAX_SCAN_CELLS:
        raise DomainError(f"a scan has at most {MAX_SCAN_CELLS} cells, got {n_re} x {n_im}")
    s = np.empty(n_re * n_im, dtype=complex)
    s.real = np.tile(np.linspace(re0, re1, n_re), n_im)
    s.imag = np.repeat(np.linspace(im0, im1, n_im), n_re)
    # s - 1.0 as a Python complex: 1.0 widens to 1+0j, and x - 0.0 is x
    shifted = s - 1.0
    off = np.flatnonzero(np.hypot(shifted.real, shifted.imag) >= _POLE_RADIUS)
    # Re(s) > 0 off the pole leaves the kernel no error of the whole call
    # (those are the pole, Re(s) <= -48 and sigma + 2M + 1 <= 0)
    zeta, each, _ = _hurwitz_kernel(s[off], 1.0, cfg)
    good = ~_tail_misses(each) & np.isfinite(zeta)
    ok = off[good]
    values = np.full(s.size, math.nan, dtype=complex)
    values[ok] = zeta[good]
    flag = np.full(s.size, "pole", dtype=object)
    flag[off] = "error:ConvergenceError"
    flag[ok] = "ok"
    return {**_zeta_columns(s, values), "flag": flag}


def scan_s_plane(re_range: tuple[float, float], im_range: tuple[float, float],
                 n_re: int, n_im: int,
                 cfg: SpecFunConfig = DEFAULT_SPECFUN) -> list[ScanCell]:
    """The cells of ``scan_columns``, one ScanCell each, in its order."""
    cols = scan_columns(re_range, im_range, n_re, n_im, cfg)
    cells = []
    for s, abs_zeta, residual, lam, is_real, flag in zip(
            *(cols[f.name].tolist() for f in fields(ScanCell))):
        if flag != "ok":  # the one math.nan object, so equal scans compare equal
            abs_zeta = residual = math.nan
        cells.append(ScanCell(s, abs_zeta, residual, lam, is_real, flag))
    return cells


@dataclass(frozen=True)
class HalfShiftNorm:
    truncated_norm_sq: float
    decay_exponent: float


def half_shift_norm(s: complex, T: float, quad_points: int = 4000,
                    cfg: SpecFunConfig = DEFAULT_SPECFUN) -> HalfShiftNorm:
    """Truncated half-shift norm int_0^T |D_half x^[-s]|^2 dx and its decay.

    Composite Simpson on a dyadically graded grid (panels [0,1], [1,2],
    [2,4], ... up to T) since the integrand's structure concentrates near 0.
    Because D_half x^[-s] behaves like (1/2) x^(-s) for large x, the
    integrand's log-log slope on [T/4, T] estimates -2 Re(s): the norm can
    only be finite (as T grows) when Re(s) > 1/2.  D_half x^[-s] falls into
    the rounding of x^[-s] as T grows: DomainError where a fit sample is
    below _FIT_RESOLUTION times the bound on its error.
    """
    from .core import frac_power_with_error
    s = complex(s)
    if s.real <= 0.0:
        raise DomainError("half_shift_norm requires Re(s) > 0")
    T = float(T)
    if T < 100.0:
        raise DomainError("T must be >= 100 for a meaningful tail fit")
    if not T < math.inf:
        raise DomainError(f"T must be finite, got {T}")
    if not 1000 <= quad_points <= MAX_QUAD_POINTS:
        raise DomainError(f"quad_points must lie in [1000, {MAX_QUAD_POINTS}], got {quad_points}")

    def half_diff(x):  # |D_half x^[-s]| as half_difference forms it, and its bound
        values, bound = frac_power_with_error(np.concatenate([x, x - 0.5]), s, cfg)
        return np.abs(values[:x.size] - values[x.size:]), 2.0 * bound

    fit_x = np.exp(np.linspace(math.log(T / 4.0), math.log(T), 48))
    fit_d, err = half_diff(fit_x)
    if not fit_d.min() >= _FIT_RESOLUTION * err:  # NaN is not resolved
        raise DomainError(
            f"T = {T:g} is too large for s = {s}: D_half x^[-s] falls to "
            f"{fit_d.min():.3g} on [T/4, T], below {_FIT_RESOLUTION:g} times its "
            f"error bound {err:.3g}; take a smaller T")

    edges = [0.0, 1.0]
    while edges[-1] < T:
        edges.append(min(2.0 * edges[-1], T))
    panels = len(edges) - 1
    per_panel = max(16, quad_points // panels)
    if per_panel % 2 == 1:
        per_panel += 1  # Simpson needs an even interval count

    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs = np.linspace(lo, hi, per_panel + 1)
        ys = half_diff(xs)[0] ** 2  # smooth on [0, T]; D_half x^[-s] is defined on (-1/2, inf)
        step = (hi - lo) / per_panel
        total += step / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())

    slope = float(np.polyfit(np.log(fit_x), np.log(fit_d ** 2), 1)[0])
    return HalfShiftNorm(float(total), slope)
