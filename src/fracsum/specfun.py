"""Complex special functions used throughout the package.

Everything here is evaluated by a single strategy: explicit partial sums
followed by an Euler-Maclaurin / asymptotic tail with Bernoulli-number
corrections.  That keeps one code path and one error model for

* ``hurwitz_zeta``     -- zeta(s, a), analytically continued
* ``riemann_zeta``     -- zeta(s) = zeta(s, 1)
* ``digamma``          -- Psi(z), upward recurrence + asymptotic series
* ``log_gamma``        -- principal branch of log Gamma(z) for Re(z) > 0
* ``bernoulli_number`` -- B_k from the exact rational recurrence, cached
* ``euler_gamma``      -- the Euler-Mascheroni constant
* ``riemann_siegel_theta``, ``hardy_z`` -- the real-valued detector for
  zeros of zeta on the critical line.

Arguments named ``a``, ``z``, or ``x`` accept either a scalar or a 1-D
numpy array and the result matches the input shape.  The parameter ``s``
is always a scalar complex number.

All functions are pure; the only shared state is the write-once Bernoulli
table, which is initialised under a lock before first use.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, OutOfRangeError, PoleError

_BERNOULLI_MAX = 64
_TWO_PI = 2.0 * math.pi


#: highest Bernoulli index 2M used in the Euler-Maclaurin tail
EM_BERNOULLI_ORDER = 24
#: absolute accuracy the Euler-Maclaurin tail estimate must reach
TARGET_ABS_TOL = 1e-12


@dataclass(frozen=True)
class SpecFunConfig:
    """Tuning knob for the Euler-Maclaurin evaluations.

    em_terms  number of explicit terms summed before the tail

    The Bernoulli order EM_BERNOULLI_ORDER and the target TARGET_ABS_TOL are
    fixed; with the default em_terms the first omitted Bernoulli term stays
    below 1e-12 for |Im(s)| <= 100, which covers the first ~30 critical-line
    zeros.
    """

    em_terms: int = 50

    def __post_init__(self) -> None:
        if self.em_terms < 10:
            raise OutOfRangeError(f"em_terms must be >= 10, got {self.em_terms}")


DEFAULT_SPECFUN = SpecFunConfig()

_bernoulli_lock = threading.Lock()
_bernoulli_table: list[float] = []


def _bernoulli_init() -> None:
    # Exact rational recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0; floats from
    # the naive floating recurrence lose all digits past k ~ 20 to
    # cancellation, so the table is built in Fractions once and converted.
    global _bernoulli_table
    with _bernoulli_lock:
        if _bernoulli_table:
            return
        table = [Fraction(1)]
        for m in range(1, _BERNOULLI_MAX + 1):
            acc = Fraction(0)
            for j in range(m):
                acc += math.comb(m + 1, j) * table[j]
            table.append(-acc / (m + 1))
        _bernoulli_table = [float(b) for b in table]


def bernoulli_number(k: int) -> float:
    """Bernoulli number B_k for even k in [0, 64] (and B_1 = -1/2).

    Values come from the exact rational recurrence and are cached after the
    first call, so the relative error is a single float rounding.
    """
    if k != int(k) or k < 0 or k > _BERNOULLI_MAX:
        raise OutOfRangeError(f"Bernoulli index must be an integer in [0, {_BERNOULLI_MAX}]")
    k = int(k)
    if k % 2 != 0 and k != 1:
        raise OutOfRangeError(f"odd Bernoulli numbers vanish for k > 1; got k={k}")
    if not _bernoulli_table:
        _bernoulli_init()
    return _bernoulli_table[k]


def _as_positive_array(a, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(a, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(arr <= 0.0):
        raise DomainError(f"{name} must be positive, got min {arr.min()}")
    return arr, scalar


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ConvergenceError(f"{what} produced a non-finite value")


def hurwitz_zeta_with_error(s: complex, a, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """Hurwitz zeta(s, a) together with the tail-remainder bound actually used.

    Returns ``(value, bound)`` where ``bound`` is the magnitude of the first
    omitted Bernoulli correction times the standard |s+2M+1|/(sigma+2M+1)
    safety factor.  ``hurwitz_zeta`` is the value-only wrapper.
    """
    s = complex(s)
    if s == 1:
        raise PoleError("hurwitz zeta has a pole at s = 1")
    if s.real <= -2.0 * EM_BERNOULLI_ORDER:
        raise DomainError(
            f"Re(s) = {s.real} is below the Euler-Maclaurin validity range "
            f"Re(s) > {-2.0 * EM_BERNOULLI_ORDER}"
        )
    arr, scalar = _as_positive_array(a, "a")
    if not _bernoulli_table:
        _bernoulli_init()

    n_terms = cfg.em_terms
    order = EM_BERNOULLI_ORDER // 2

    # Explicit part: sum_{k=0}^{N-1} (k+a)^(-s).  Bases are positive reals,
    # so exp(-s log(.)) with the real log has no branch ambiguity.
    k = np.arange(n_terms, dtype=float)
    main = np.exp(-s * np.log(k[:, None] + arr[None, :])).sum(axis=0)

    w = n_terms + arr
    logw = np.log(w)
    value = main + np.exp((1 - s) * logw) / (s - 1) + 0.5 * np.exp(-s * logw)

    # Bernoulli tail: sum_j B_2j/(2j)! (s)_{2j-1} w^(-s-2j+1), rising
    # factorial and factorial updated incrementally.
    poch = s
    fact = 1.0
    for j in range(1, order + 1):
        fact *= (2 * j) * (2 * j - 1)
        if j > 1:
            poch *= (s + 2 * j - 3) * (s + 2 * j - 2)
        value += (_bernoulli_table[2 * j] / fact) * poch * np.exp((-s - 2 * j + 1) * logw)

    poch_next = poch * (s + 2 * order - 1) * (s + 2 * order)
    fact_next = fact * (2 * order + 2) * (2 * order + 1)
    sigma_shift = s.real + 2 * order + 1
    if sigma_shift <= 0:
        raise ConvergenceError("Euler-Maclaurin remainder bound unavailable: "
                               "sigma + 2M + 1 <= 0")
    kappa = max(1.0, abs(s + 2 * order + 1) / sigma_shift)
    truncation = float(
        (abs(_bernoulli_table[2 * order + 2] / fact_next) * abs(poch_next) * kappa)
        * np.exp((-s.real - 2 * order - 1) * logw).max()
    )
    if truncation > TARGET_ABS_TOL:
        raise ConvergenceError(
            f"Euler-Maclaurin tail estimate {truncation:.3e} exceeds target "
            f"{TARGET_ABS_TOL:.3e} for s={s}; raise em_terms or the order"
        )
    # Rounding floor: each power carries a phase error ~ eps |s| log(base)
    # scaled by the largest term magnitude.  Unlike the truncation this is
    # not reducible by em_terms, so it widens the reported bound but does
    # not trip the convergence gate.
    amin, amax = float(arr.min()), float(arr.max())
    sigma = s.real
    peak = amin ** (-sigma) if sigma >= 0 else (n_terms - 1 + amax) ** (-sigma)
    peak = max(peak, (n_terms + amax) ** (1.0 - sigma) / abs(s - 1.0),
               float(np.abs(value).max()))
    phase = abs(s) * math.log(n_terms + amax)
    rounding = 4.0 * np.finfo(float).eps * (1.0 + phase) * peak
    bound = truncation + rounding
    _require_finite(value, "hurwitz_zeta")
    if scalar:
        return complex(value[0]), bound
    return value, bound


def hurwitz_zeta(s: complex, a, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """Hurwitz zeta function zeta(s, a) = sum_{k>=0} (k+a)^(-s), continued.

    Valid for a > 0, s != 1, Re(s) > -2 * EM_BERNOULLI_ORDER; absolute error
    <= TARGET_ABS_TOL for |Im(s)| <= 100 with default settings.
    """
    return hurwitz_zeta_with_error(s, a, cfg)[0]


@lru_cache(maxsize=4096)
def _riemann_zeta_cached(s: complex, cfg: SpecFunConfig) -> complex:
    return complex(hurwitz_zeta(s, 1.0, cfg))


def riemann_zeta(s: complex, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> complex:
    """Riemann zeta(s) = zeta(s, 1), same accuracy contract as hurwitz_zeta."""
    s = complex(s)
    if s == 1:
        raise PoleError("riemann zeta has a pole at s = 1")
    return _riemann_zeta_cached(s, cfg)


def _shifted(z, floor: float, name: str):
    """Upward recurrence helper: returns (z + m, z-array, m) with Re >= floor."""
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    on_pole = (arr.imag == 0.0) & (arr.real <= 0.0) & (arr.real == np.round(arr.real))
    if np.any(on_pole):
        raise PoleError(f"{name} has poles at non-positive integers")
    shift = max(0, int(math.ceil(floor - arr.real.min())))
    return arr, shift, scalar


def digamma(z, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """Digamma function Psi(z) for z not a non-positive integer.

    Shifts upward with Psi(z) = Psi(z+1) - 1/z until Re >= 10, then applies
    the Bernoulli asymptotic series.  Absolute error <= 1e-12 for Re(z) > 0.
    """
    del cfg  # accuracy is fixed by the shift threshold, kept for symmetry
    arr, shift, scalar = _shifted(z, 10.0, "digamma")
    if not _bernoulli_table:
        _bernoulli_init()
    acc = np.zeros_like(arr)
    work = arr.copy()
    for _ in range(shift):
        acc -= 1.0 / work
        work += 1.0
    out = np.log(work) - 0.5 / work
    w2 = work * work
    wpow = w2.copy()
    for j in range(1, 9):
        out -= _bernoulli_table[2 * j] / (2 * j * wpow)
        wpow *= w2
    out += acc
    _require_finite(out, "digamma")
    return complex(out[0]) if scalar else out


def log_gamma(z, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """Principal branch of log Gamma(z) for Re(z) > 0.

    Stirling series after an upward recurrence shift to Re >= 10.  The
    recurrence log Gamma(z) = log Gamma(z+1) - log z stays on the principal
    branch throughout Re(z) > 0.  Absolute error <= 1e-12.
    """
    del cfg
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr.real <= 0.0):
        raise DomainError("log_gamma requires Re(z) > 0")
    if not _bernoulli_table:
        _bernoulli_init()
    shift = max(0, int(math.ceil(10.0 - arr.real.min())))
    acc = np.zeros_like(arr)
    work = arr.copy()
    for _ in range(shift):
        acc -= np.log(work)
        work += 1.0
    lw = np.log(work)
    out = (work - 0.5) * lw - work + 0.5 * math.log(_TWO_PI)
    w2 = work * work
    wpow = work.copy()
    for j in range(1, 9):
        out += _bernoulli_table[2 * j] / ((2 * j) * (2 * j - 1) * wpow)
        wpow *= w2
    out += acc
    _require_finite(out, "log_gamma")
    return complex(out[0]) if scalar else out


@lru_cache(maxsize=1)
def euler_gamma() -> float:
    """Euler-Mascheroni constant gamma = 0.57721566490153... (>= 14 digits).

    Computed once as H_n - log n - 1/(2n) + sum_k B_2k/(2k n^2k) at n = 128,
    where the truncation is far below double precision.
    """
    if not _bernoulli_table:
        _bernoulli_init()
    n = 128
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    out = h - math.log(n) - 0.5 / n
    npow = float(n * n)
    for j in range(1, 7):
        out += _bernoulli_table[2 * j] / (2 * j * npow)
        npow *= n * n
    return out


def riemann_siegel_theta(t: float, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> float:
    """Riemann-Siegel theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi."""
    return complex(log_gamma(0.25 + 0.5j * t, cfg)).imag - 0.5 * t * math.log(math.pi)


def hardy_z(t: float, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> float:
    """Hardy Z function Z(t) = e^{i theta(t)} zeta(1/2 + it), real for real t.

    Sign changes of Z locate critical-line zeros of zeta.  The residual
    imaginary part must stay below 1e-9 (asserted, then discarded); accuracy
    is ~1e-8 for t <= 100 with default settings.
    """
    t = float(t)
    if t < 0:
        raise DomainError("hardy_z requires t >= 0")
    theta = riemann_siegel_theta(t, cfg)
    value = cmath.exp(1j * theta) * riemann_zeta(0.5 + 1j * t, cfg)
    if abs(value.imag) >= 1e-9:
        raise ConvergenceError(
            f"hardy_z imaginary residue {value.imag:.3e} at t={t}; "
            "the rotation by theta(t) failed to realign zeta"
        )
    return value.real
