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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    const_fn,
    frac_power,
    frac_power_fn,
    half_difference,
    linear_combination,
)
from .errors import DomainError, PoleError
from .operators import DEFAULT_OPERATOR, OperatorConfig, apply_R, eigenvalue_of
from .specfun import (
    DEFAULT_SPECFUN,
    SpecFunConfig,
    _hurwitz_kernel,
    _tail_misses,
    hardy_z,
    riemann_zeta,
)

#: |Im(lambda)| below which an eigenvalue counts as real
REALITY_TOL = 1e-9
#: |(s-1) zeta(s)| below which s counts as producing an eigenvalue
EIGEN_TOL = 1e-6

_POLE_RADIUS = 1e-3
_BISECT_WIDTH = 1e-9
_GRID_STEP = 0.05


@dataclass(frozen=True)
class ZetaZero:
    """A critical-line zero: ordinal index, ordinate t, |zeta(1/2+it)|, bracket."""

    index: int
    t: float
    residual: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class EigenCandidate:
    """The eigenfunction family f(x) = alpha x^[-s] + beta."""

    alpha: complex
    beta: complex
    s: complex

    def __post_init__(self) -> None:
        if self.alpha != 0 and complex(self.s).real <= 0.0:
            raise DomainError("candidates with alpha != 0 need Re(s) > 0")

    def as_eval_fn(self):
        terms = [(self.beta, const_fn(1.0))]
        if self.alpha != 0:
            terms.insert(0, (self.alpha, frac_power_fn(self.s)))
        return linear_combination(terms, label=f"{self.alpha}*x^[-s]+{self.beta}")


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


def eigen_residual(s: complex, cfg: OperatorConfig = DEFAULT_OPERATOR,
                   spec_cfg: SpecFunConfig = DEFAULT_SPECFUN,
                   include_numeric: bool = True) -> EigenReport:
    """Build the candidate x^[-s] and measure how far it is from R f = lam f.

    Requires Re(s) > 0 (outside that strip x^[-s] leaves the operator's
    domain).  The numeric residual runs the nested limit-plus-derivative
    pipeline over cfg.sample_grid; pass include_numeric=False to skip it.
    """
    s = complex(s)
    if s.real <= 0.0:
        raise DomainError(f"eigen_residual requires Re(s) > 0, got {s}")
    lam = eigenvalue_of(s)
    if s == 1:
        zeta_s = None
        analytic = 1.0
        const_term = 1j * 1.0
    else:
        zeta_s = riemann_zeta(s, spec_cfg)
        analytic = abs((s - 1.0) * zeta_s)
        const_term = 1j * (s - 1.0) * zeta_s

    numeric = math.nan
    if include_numeric:
        f = frac_power_fn(s, spec_cfg)
        rf = apply_R(f, cfg)
        xs = np.asarray(cfg.sample_grid, dtype=float)
        defect = rf(xs) - lam * f(xs) + const_term
        numeric = float(np.abs(defect).max())

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
        boundary_f0=complex(frac_power(0.0, s, spec_cfg)),
        boundary_fhalf=complex(frac_power(-0.5, s, spec_cfg)),
        is_eigen=analytic < EIGEN_TOL,
        lambda_is_real=lambda_is_real,
    )


def _bisect_zero(za: np.ndarray, a: np.ndarray, b: np.ndarray, cfg: SpecFunConfig,
                 width: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisect the brackets [a, b], with Z(a) = za, in lock-step below ``width``.

    Each round is one hardy_z call on the midpoints of the brackets still
    wider than ``width``, and each bracket takes the sign decisions it
    would take alone.  Returns the final midpoints and bracket ends.
    """
    fa, a, b = (np.array(v, dtype=float) for v in (za, a, b))
    while True:
        live = np.flatnonzero(b - a > width)
        if not live.size:
            return 0.5 * (a + b), a, b
        mid = 0.5 * (a[live] + b[live])
        fm = hardy_z(mid, cfg)
        left = fa[live] * fm <= 0.0
        b[live[left]] = mid[left]
        a[live[~left]], fa[live[~left]] = mid[~left], fm[~left]


def find_critical_zeros(t_min: float, t_max: float,
                        cfg: SpecFunConfig = DEFAULT_SPECFUN,
                        grid_step: float = _GRID_STEP) -> list[ZetaZero]:
    """All zeros of zeta(1/2 + it) with t in (t_min, t_max), by Hardy Z.

    Samples Z on a grid of the given step in one hardy_z call, brackets
    every sign change, and bisects all brackets in lock-step below 1e-9
    width.  Sign changes give certified brackets, unlike |zeta|
    minimisation which can graze a minimum; the 0.05 default step is well
    below the minimal gap (~1.0) between consecutive zeros with t < 100, so
    none is skipped.  Returns zeros in increasing t with consecutive
    indices starting at 1; an empty range is a normal result, not an error.
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

    # a grid point exactly on a zero is the zero, with bracket (t, t); a
    # strict sign change across a cell is bisected
    on_zero = zvals[:-1] == 0.0
    change = ~on_zero & (zvals[:-1] * zvals[1:] < 0.0)
    t, lo, hi = ts[:-1].copy(), ts[:-1].copy(), ts[:-1].copy()
    t[change], lo[change], hi[change] = _bisect_zero(
        zvals[:-1][change], ts[:-1][change], ts[1:][change], cfg, _BISECT_WIDTH)

    zeros = []
    for i in np.flatnonzero(on_zero | change):
        ti = float(t[i])
        residual = abs(riemann_zeta(0.5 + 1j * ti, cfg))
        zeros.append(ZetaZero(index=len(zeros) + 1, t=ti, residual=residual,
                              bracket=(float(lo[i]), float(hi[i]))))
    return zeros


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
    s = complex(s)
    if s.real <= -1.0:
        raise DomainError("boundary_report requires Re(s) > -1")
    if s == 1:
        raise PoleError("the boundary identity holds for s != 1")
    f0 = complex(frac_power(0.0, s, cfg))
    fmh = complex(frac_power(-0.5, s, cfg))
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


def scan_s_plane(re_range: tuple[float, float], im_range: tuple[float, float],
                 n_re: int, n_im: int,
                 cfg: SpecFunConfig = DEFAULT_SPECFUN) -> list[ScanCell]:
    """Sweep the strip: |zeta|, analytic residual, and lambda per grid cell.

    The grid must sit in Re(s) > 0 (outside that the candidates leave the
    operator domain and the sweep is meaningless).  Cells within 1e-3 of
    s = 1 are emitted with flag "pole".  All other cells are one call of
    the Hurwitz kernel, zeta(s) = zeta(s, 1), which reports each point's
    tail estimate instead of failing the call; a cell whose estimate
    misses TARGET_ABS_TOL (a NaN estimate misses), or whose value is not
    finite, is flagged "error:ConvergenceError" with NaN fields, exactly
    when riemann_zeta alone raises there, and the scan carries on.  There
    is no fallback path.  Ordering is im-major (im outer, re inner) and
    deterministic.
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
    res = np.linspace(re0, re1, n_re)
    ims = np.linspace(im0, im1, n_im)

    grid = [complex(r, i) for i in ims for r in res]
    off_pole = [s for s in grid if abs(s - 1.0) >= _POLE_RADIUS]
    # Re(s) > 0 off the pole leaves the kernel no error of the whole call
    # (those are the pole, Re(s) <= -48 and sigma + 2M + 1 <= 0)
    zs, each, _ = _hurwitz_kernel(np.array(off_pole), 1.0, cfg)
    failed = _tail_misses(each) | ~np.isfinite(zs)
    zeta = iter(zip(zs.tolist(), failed.tolist()))

    def cell(s: complex) -> ScanCell:
        lam = eigenvalue_of(s)
        real = abs(lam.imag) < REALITY_TOL
        if abs(s - 1.0) < _POLE_RADIUS:
            return ScanCell(s, math.nan, math.nan, lam, real, "pole")
        z, fail = next(zeta)  # the off-pole cells come in grid order
        if fail:
            return ScanCell(s, math.nan, math.nan, lam, real, "error:ConvergenceError")
        return ScanCell(s, abs(z), abs((s - 1.0) * z), lam, real, "ok")

    return [cell(s) for s in grid]


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
    only be finite (as T grows) when Re(s) > 1/2.
    """
    s = complex(s)
    if s.real <= 0.0:
        raise DomainError("half_shift_norm requires Re(s) > 0")
    T = float(T)
    if T < 100.0:
        raise DomainError("T must be >= 100 for a meaningful tail fit")
    if not T < math.inf:
        raise DomainError(f"T must be finite, got {T}")
    if quad_points < 1000:
        raise DomainError("quad_points must be >= 1000")

    diff = half_difference(frac_power_fn(s, cfg))

    def integrand(x):
        return np.abs(diff(x)) ** 2

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
        ys = integrand(xs)  # integrand is smooth on [0, T]; domain is (-1/2, inf)
        step = (hi - lo) / per_panel
        total += step / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())

    fit_x = np.exp(np.linspace(math.log(T / 4.0), math.log(T), 48))
    fit_y = integrand(fit_x)
    slope = float(np.polyfit(np.log(fit_x), np.log(fit_y), 1)[0])
    return HalfShiftNorm(float(total), slope)
