"""Complex special functions used throughout the package.

Everything here is evaluated by a single strategy: explicit partial sums
followed by an Euler-Maclaurin / asymptotic tail with Bernoulli-number
corrections.  That keeps one code path and one error model for

* ``hurwitz_zeta``     -- zeta(s, a), analytically continued
* ``riemann_zeta``     -- zeta(s) = zeta(s, 1)
* ``digamma``          -- Psi(z), upward recurrence + asymptotic series
* ``log_gamma``        -- principal branch of log Gamma(z) for Re(z) > 0
* ``bernoulli_number`` -- B_k from a literal table of the exact rationals
* ``euler_gamma``      -- the Euler-Mascheroni constant
* ``riemann_siegel_theta``, ``hardy_z`` -- the real-valued detector for
  zeros of zeta on the critical line.

Arguments named ``a``, ``z``, ``t`` or ``x`` accept either a scalar or a
1-D numpy array and the result matches the input shape.  ``hurwitz_zeta``
also takes a 1-D array of ``s`` with a scalar ``a``, in the same kernel;
that is how ``hardy_z`` evaluates zeta over many ``s`` at once.  One
batch rule holds for every function: a point's value has the same bits
alone and in any array (``digamma`` and ``log_gamma`` step each point up
by its own count, see ``_shifted_series``).  The kernel,
``_hurwitz_kernel``, returns each point's tail estimate and checks no
target; ``hurwitz_zeta_with_error`` adds the gate that fails the whole
call.  The strip scan calls the kernel once over its whole grid and flags
each point that misses the target, with no fallback.  An estimate misses
unless it is within the target, so a NaN estimate (far up the line the
Pochhammer factor overflows while the power of w underflows) misses in
the gate and in the scan alike.  ``riemann_zeta`` stays scalar and
cached.

All functions are pure; the only shared state is the constant Bernoulli
table.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import DEFAULT_SPECFUN, SpecFunConfig
from .errors import ConvergenceError, DomainError, OutOfRangeError, PoleError

_BERNOULLI_MAX = 64
_TWO_PI = 2.0 * math.pi


#: highest Bernoulli index 2M used in the Euler-Maclaurin tail
EM_BERNOULLI_ORDER = 24
#: absolute accuracy the Euler-Maclaurin tail estimate must reach
TARGET_ABS_TOL = 1e-12
#: log_gamma's rounding bound, in units of eps |log Gamma(z)|
LOG_GAMMA_ULPS = 4.0

# points per block of the explicit Hurwitz sum, for an array of a or of s;
# bounds its (block x em_terms) temporaries instead of letting them grow
# with the argument array (at 2048, the ~2k-point Hardy-Z grid of a zero
# search raised its peak RSS by about 2 MB)
_HURWITZ_BLOCK = 256

# B_0 .. B_64 (B_k = 0 for odd k > 1): the exact rationals of the recurrence
# sum_{j=0}^{m} C(m+1, j) B_j = 0, each rounded once to a float.  The naive
# floating recurrence loses every digit past k ~ 20 to cancellation;
# tests/test_specfun.py rebuilds the rationals and compares.
_BERNOULLI = (
    1.0, -0.5, 0.16666666666666666, 0.0,
    -0.03333333333333333, 0.0, 0.023809523809523808, 0.0,
    -0.03333333333333333, 0.0, 0.07575757575757576, 0.0,
    -0.2531135531135531, 0.0, 1.1666666666666667, 0.0,
    -7.092156862745098, 0.0, 54.971177944862156, 0.0,
    -529.1242424242424, 0.0, 6192.123188405797, 0.0,
    -86580.25311355312, 0.0, 1425517.1666666667, 0.0,
    -27298231.067816094, 0.0, 601580873.9006424, 0.0,
    -15116315767.092157, 0.0, 429614643061.1667, 0.0,
    -13711655205088.332, 0.0, 488332318973593.2, 0.0,
    -1.9296579341940068e+16, 0.0, 8.416930475736826e+17, 0.0,
    -4.0338071854059454e+19, 0.0, 2.1150748638081993e+21, 0.0,
    -1.2086626522296526e+23, 0.0, 7.500866746076964e+24, 0.0,
    -5.038778101481069e+26, 0.0, 3.6528776484818122e+28, 0.0,
    -2.849876930245088e+30, 0.0, 2.3865427499683627e+32, 0.0,
    -2.1399949257225335e+34, 0.0, 2.0500975723478097e+36, 0.0,
    -2.093800591134638e+38,
)


def bernoulli_number(k: int) -> float:
    """Bernoulli number B_k for even k in [0, 64] (and B_1 = -1/2).

    Each value is the exact rational rounded once to a float.
    """
    if k != int(k) or k < 0 or k > _BERNOULLI_MAX:
        raise OutOfRangeError(f"Bernoulli index must be an integer in [0, {_BERNOULLI_MAX}]")
    k = int(k)
    if k % 2 != 0 and k != 1:
        raise OutOfRangeError(f"odd Bernoulli numbers vanish for k > 1; got k={k}")
    return _BERNOULLI[k]


def _as_1d(x, dtype):
    """x as an array of dtype with at least one axis, and the function that
    turns a result over it back into x's form (a scalar x: a Python scalar)."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim:
        return arr, lambda out: out
    return arr.reshape(1), lambda out: out[0].item()


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ConvergenceError(f"{what} produced a non-finite value")


def _cmul(x, y):
    """x * y over complex arrays, by CPython's complex product formula.

    numpy's complex multiply may fuse a multiply-add, and the loop it takes
    depends on the arrays (temporaries of 256 KB and up are multiplied in
    place), so its last bit can differ from a Python complex product and
    from one array to another; the real arithmetic spelled out keeps each
    point of an array of s or t on the bits of its scalar call.  With
    numpy's product in the Pochhammer coefficients, 12 values of a
    20000-point zeta(1/2 + it) grid changed their last bit (AVX-512 host).
    """
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _tail_misses(each: np.ndarray) -> np.ndarray:
    """Which of the kernel's tail estimates miss TARGET_ABS_TOL: each one
    not within it, so a NaN estimate misses."""
    return ~(each <= TARGET_ABS_TOL)


def hurwitz_zeta_with_error(s, a, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """Hurwitz zeta(s, a) together with the tail-remainder bound actually used.

    Takes a scalar s with a scalar or 1-D array a, or a 1-D array of s with
    a scalar a; the value has the shape of the array argument.  Returns
    ``(value, bound)`` where ``bound`` is the largest magnitude over the
    points of the first omitted Bernoulli correction, each at its own s and
    tail start w, times the standard |s+2M+1|/(sigma+2M+1) safety factor,
    plus the largest rounding floor.  The truncation gate fails the whole
    call at the first point, in order, whose estimate misses the target,
    a NaN estimate included (such a value carries no known bound); a caller
    that wants each point judged on its own (the strip scan) takes the
    kernel's per-point estimates instead.  An empty array gives an empty
    value and a zero bound.  ``hurwitz_zeta`` is the value-only wrapper.

    Only points with a < em_terms sum em_terms explicit terms (tail at
    w = a + em_terms); the rest start the tail at w = a.  The tail costs one
    complex power w^(-s) per point.  The explicit sum runs over blocks of
    _HURWITZ_BLOCK points, so its (block x em_terms) temporaries stay
    bounded however long the array is.
    """
    value, each, rounding = _hurwitz_kernel(s, a, cfg)
    if isinstance(each, np.ndarray):  # an array of s, an estimate per point
        # the first point that misses, as scalar calls in order would
        miss = np.flatnonzero(_tail_misses(each))
        at = (float(each[miss[0]]), complex(np.ravel(s)[miss[0]])) if miss.size else None
        each, rounding = float(each.max(initial=0.0)), float(rounding.max(initial=0.0))
    else:  # the same rule on a Python float, at a fraction of numpy's cost
        at = (each, complex(s)) if not each <= TARGET_ABS_TOL else None
    if at:
        raise ConvergenceError(
            f"Euler-Maclaurin tail estimate {at[0]:.3e} misses target "
            f"{TARGET_ABS_TOL:.3e} for s={at[1]}; raise em_terms or the order"
        )
    _require_finite(value, "hurwitz_zeta")
    return value, each + rounding


def _power_rows(s: np.ndarray, logs: np.ndarray):
    """A function from a slice of the 1-D complex s to its terms
    exp(-s logs), one C-contiguous row per s over the real logs.

    numpy's complex exp is the C library's cexp(x + iy) = exp(x) (cos y,
    sin y), and -s logs has real part -sigma logs and imaginary part
    (-sigma) 0 + (-t) logs, which is (-t) logs unless sigma has a sign bit.
    Where none has and the s hold few distinct Re and Im (fewer than an
    eighth as many in all as there are s, as on the strip scan's grid),
    the rows are built from a table of magnitudes, one per distinct Re,
    cexp(x + 0i) = exp(x), and a table of phases, one per distinct Im,
    cexp(0 + iy) = (cos y, sin y), multiplied part by part as cexp
    multiplies them.  So each finite s keeps the bits of its own complex
    exp, signed zeros included.  The eighth keeps the tables, which live
    for the whole call, to at most a quarter of the terms of all the rows.
    Other s (every Im differs, as on the Hardy-Z grid and in the zero
    search's rounds, or a sigma has a sign bit) take one complex exp a term.
    """
    def direct(rows):
        return np.exp(-s[rows, None] * logs)

    # an Im that strictly increases cannot repeat, and checking that first
    # spares a zero search numpy's sort code (and its pages of memory)
    if np.all(s.imag[1:] > s.imag[:-1]) or np.signbit(s.real).any():
        return direct
    # distinct values by their bits, so that 0.0 and -0.0 stay apart
    sig_bits, sig_at = np.unique(s.real.view(np.int64), return_inverse=True)
    t_bits, t_at = np.unique(s.imag.view(np.int64), return_inverse=True)
    if sig_bits.size + t_bits.size >= s.size // 8:
        return direct
    sigma, t = sig_bits.view(float), t_bits.view(float)
    mag = np.exp(-sigma[:, None] * logs + 0j).real
    phase = np.zeros((t.size, logs.size), dtype=complex)
    phase.imag = -t[:, None] * logs
    np.exp(phase, out=phase)

    def factored(rows):
        out = phase[t_at[rows]]
        m = mag[sig_at[rows]]
        out.real *= m
        out.imag *= m
        return out
    return factored


def _hurwitz_kernel(s, a, cfg: SpecFunConfig):
    """Hurwitz zeta(s, a) with each point's truncation estimate, ungated.

    Arguments as for ``hurwitz_zeta_with_error``.  Returns
    ``(value, each, rounding)``: the value in the shape of the array
    argument; the first omitted Bernoulli correction times the safety
    factor, at the smallest tail start w; and the rounding floor.  For an
    array of s the last two are arrays over s, for a scalar s they are
    floats.  No target is checked and a non-finite value is returned as it
    is.  For an array of s the explicit terms (a < em_terms) come from
    ``_power_rows``.  An array of s raises only for a pole, Re(s) <=
    -2 EM_BERNOULLI_ORDER, an invalid a or array shape, and
    sigma + 2M + 1 <= 0, where no estimate exists.
    """
    batch = isinstance(s, (np.ndarray, list, tuple)) and np.ndim(s) > 0
    if batch:
        s = np.asarray(s, dtype=complex)
        if s.ndim != 1 or np.ndim(a) != 0:
            raise DomainError("an array of s needs a 1-D s and a scalar a")
        if s.size == 1:  # the scalar arithmetic: the same bits, at a fraction of the cost
            return tuple(np.array([v]) for v in _hurwitz_kernel(complex(s[0]), a, cfg))
        pole, re_min = bool(np.any(s == 1)), float(s.real.min(initial=math.inf))
    else:
        s = complex(s)
        pole, re_min = s == 1, s.real
    if pole:
        raise PoleError("hurwitz zeta has a pole at s = 1")
    if re_min <= -2.0 * EM_BERNOULLI_ORDER:
        raise DomainError(
            f"Re(s) = {re_min} is below the Euler-Maclaurin validity range "
            f"Re(s) > {-2.0 * EM_BERNOULLI_ORDER}"
        )
    arr, back = _as_1d(a, float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("a must be finite")
    if np.any(arr <= 0.0):
        raise DomainError(f"a must be positive, got min {arr.min()}")
    if not (s.size if batch else arr.size):
        return np.zeros(0, dtype=complex), np.zeros(0), np.zeros(0)
    top = np.maximum if batch else max

    n_terms = cfg.em_terms
    order = EM_BERNOULLI_ORDER // 2

    # Explicit part, only where a < em_terms: sum_{k<N} (a+k)^(-s) moves the
    # tail to w = a + N; every other point starts its tail at w = a.  Bases
    # are positive reals, so exp(-s log(.)) with the real log has no branch
    # ambiguity.  A point's terms fill one contiguous row, which numpy sums
    # pairwise however many rows there are, so its bits do not depend on the
    # array that holds it or on where the block edges fall.
    near = np.flatnonzero(arr < n_terms)
    w = arr.copy()
    w[near] += n_terms
    value = np.zeros(s.shape if batch else arr.shape, dtype=complex)
    k = np.arange(n_terms, dtype=float)
    if not batch:
        for lo in range(0, near.size, _HURWITZ_BLOCK):
            rows = near[lo:lo + _HURWITZ_BLOCK]
            value[rows] = np.exp(-s * np.log(arr[rows, None] + k)).sum(axis=1)
    elif near.size:
        # one a for every s: the logs are shared and the rows are the s
        terms = _power_rows(s, np.log(arr + k))
        for lo in range(0, s.size, _HURWITZ_BLOCK):
            value[lo:lo + _HURWITZ_BLOCK] = terms(slice(lo, lo + _HURWITZ_BLOCK)).sum(axis=1)

    # Euler-Maclaurin tail from one complex power e = w^(-s) per point:
    # w^(1-s) = w e, and the Bernoulli powers w^(-s-2j+1) = e w^(1-2j) step
    # down by the real 1/w^2, so the corrections
    # sum_j B_2j/(2j)! (s)_{2j-1} w^(-s-2j+1) are e/w times a polynomial in
    # 1/w^2, summed by Horner.  Rising factorial and factorial are updated
    # incrementally; for an array of s they are arrays over s, multiplied
    # by _cmul so that each keeps the bits of its scalar s.
    coef = []
    poch = s
    fact = 1.0
    for j in range(1, order + 1):
        fact *= (2 * j) * (2 * j - 1)
        if j > 1 and batch:
            poch = _cmul(poch, _cmul(s + 2 * j - 3, s + 2 * j - 2))
        elif j > 1:
            poch *= (s + 2 * j - 3) * (s + 2 * j - 2)
        coef.append(_BERNOULLI[2 * j] / fact * poch)
    inv_w = 1.0 / w
    inv_w2 = inv_w * inv_w
    series = coef[-1]
    for c in reversed(coef[:-1]):
        series = series * inv_w2 + c
    with np.errstate(over="ignore", invalid="ignore"):
        tail = np.exp(-s * np.log(w)) * (w / (s - 1) + 0.5 + series * inv_w)
        lost = ~np.isfinite(tail)
        if lost.any():  # w / (s - 1) overflowed; w^(1-s) / (s - 1) may not
            np.copyto(tail, np.exp((1 - s) * np.log(w)) / (s - 1)
                      + np.exp(-s * np.log(w)) * (0.5 + series * inv_w), where=lost)
    value += tail
    del tail, lost  # so that the bound's temporaries can reuse their memory

    # First omitted term, largest at the smallest w because its power
    # w^(-sigma-2M-1) falls with w.  It only sizes the bound, so numpy's
    # product may change its last bit.
    poch_next = poch * (s + 2 * order - 1) * (s + 2 * order)
    fact_next = fact * (2 * order + 2) * (2 * order + 1)
    if re_min + 2 * order + 1 <= 0:
        raise ConvergenceError("Euler-Maclaurin remainder bound unavailable: "
                               "sigma + 2M + 1 <= 0")
    sigma_shift = s.real + 2 * order + 1
    kappa = abs(s + 2 * order + 1) / sigma_shift  # >= 1, as |z| >= Re z
    each = (abs(_BERNOULLI[2 * order + 2] / fact_next) * abs(poch_next) * kappa
            * float(w.min()) ** (-sigma_shift))
    # Rounding floor: each power carries a phase error ~ eps |s| log(base)
    # scaled by the largest term magnitude (the first term at sigma >= 0,
    # the last explicit one below).  Unlike the truncation this is not
    # reducible by em_terms, so it widens the reported bound but does not
    # trip the convergence gate.
    amin, amax = float(arr.min()), float(arr.max())
    sigma = s.real
    try:
        peak = top(top(amin ** (-sigma), (n_terms - 1 + amax) ** (-sigma)),
                   top((n_terms + amax) ** (1.0 - sigma) / abs(s - 1.0),
                       float(np.abs(value).max())))
    except OverflowError:  # a Python float power (scalar s); numpy's is inf
        peak = math.inf
    phase = abs(s) * math.log(n_terms + amax)
    rounding = 4.0 * np.finfo(float).eps * (1.0 + phase) * peak
    return value if batch else back(value), each, rounding


def hurwitz_zeta(s: complex, a, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """Hurwitz zeta function zeta(s, a) = sum_{k>=0} (k+a)^(-s), continued.

    Valid for a > 0, s != 1, Re(s) > -2 * EM_BERNOULLI_ORDER; absolute error
    <= TARGET_ABS_TOL for |Im(s)| <= 100 with default settings.
    """
    return hurwitz_zeta_with_error(s, a, cfg)[0]


@lru_cache(maxsize=4096)
def _riemann_zeta_cached(s: complex, cfg: SpecFunConfig) -> tuple[complex, float]:
    return hurwitz_zeta_with_error(s, 1.0, cfg)


def riemann_zeta(s: complex, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> complex:
    """Riemann zeta(s) = zeta(s, 1), same accuracy contract as hurwitz_zeta.

    Scalar s only, cached together with its bound (``_riemann_zeta_cached``).
    For many s, ``hurwitz_zeta(s_array, 1.0)`` is one call.
    """
    s = complex(s)
    if s == 1:
        raise PoleError("riemann zeta has a pole at s = 1")
    return _riemann_zeta_cached(s, cfg)[0]


def _shifted_series(arr: np.ndarray, step, head, term, power: int, what: str) -> np.ndarray:
    """The upward recurrence to Re >= 10, then the asymptotic series there:
    head(w) + sum_j term(j, w^(2j - 2 + power)), j = 1..8, at w = arr + m,
    less step(arr) + ... + step(arr + m - 1), with each point's own least
    such m >= 0."""
    shift = np.ceil(10.0 - arr.real)
    acc = np.zeros_like(arr)
    work = arr.copy()
    for k in range(int(shift.max(initial=0.0))):
        np.subtract(acc, step(work), out=acc, where=k < shift)
        np.add(work, 1.0, out=work, where=k < shift)
    out = head(work)
    lead = out.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = work * work
        wpow = (work if power == 1 else w2).copy()
        for j in range(1, 9):
            out += term(j, wpow)
            wpow *= w2
    # the terms fail only where a power they use overflows, at |w| > 1e19;
    # there each is below 1e-39 of head, so dropping them all is exact
    np.copyto(out, lead, where=~np.isfinite(out))
    out += acc
    _require_finite(out, what)
    return out


def digamma(z):
    """Digamma function Psi(z) for z not a non-positive integer.

    Shifts upward with Psi(z) = Psi(z+1) - 1/z until Re >= 10, then applies
    the Bernoulli asymptotic series.  Absolute error <= 1e-12 for Re(z) > 0.
    """
    arr, back = _as_1d(z, complex)
    on_pole = (arr.imag == 0.0) & (arr.real <= 0.0) & (arr.real == np.round(arr.real))
    if np.any(on_pole):
        raise PoleError("digamma has poles at non-positive integers")
    return back(_shifted_series(arr, lambda w: 1.0 / w, lambda w: np.log(w) - 0.5 / w,
                                lambda j, p: -(_BERNOULLI[2 * j] / (2 * j * p)), 2, "digamma"))


def log_gamma(z):
    """Principal branch of log Gamma(z) for Re(z) > 0.

    Stirling series after an upward recurrence shift to Re >= 10.  The
    recurrence log Gamma(z) = log Gamma(z+1) - log z stays on the principal
    branch throughout Re(z) > 0.  Absolute error <= TARGET_ABS_TOL plus a
    rounding of LOG_GAMMA_ULPS eps |log Gamma(z)|, the larger term from
    |log Gamma| ~ 1e3 on (at most 1.4 eps |log Gamma| against mpmath).
    """
    arr, back = _as_1d(z, complex)
    if np.any(arr.real <= 0.0):
        raise DomainError("log_gamma requires Re(z) > 0")
    return back(_shifted_series(
        arr, np.log, lambda w: (w - 0.5) * np.log(w) - w + 0.5 * math.log(_TWO_PI),
        lambda j, p: _BERNOULLI[2 * j] / ((2 * j) * (2 * j - 1) * p), 1, "log_gamma"))


def euler_gamma() -> float:
    """Euler-Mascheroni constant gamma = 0.5772156649015329, correctly rounded."""
    return 0.5772156649015329


def riemann_siegel_theta(t):
    """Riemann-Siegel theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi.

    t is a scalar or a 1-D array; the result matches its shape.
    """
    ts, back = _as_1d(t, float)
    return back(log_gamma(0.25 + 0.5j * ts).imag - 0.5 * ts * math.log(math.pi))


def hardy_z(t, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """Hardy Z function Z(t) = e^{i theta(t)} zeta(1/2 + it), real for real t.

    t is a scalar or a 1-D array; an array is one Euler-Maclaurin call over
    zeta(1/2 + it), and each value has the bits of the scalar Z(t).  Sign
    changes of Z locate critical-line zeros of zeta.  Every t must be
    >= 0, and every residual imaginary part must stay below 1e-9 (asserted,
    then discarded); accuracy is ~1e-8 for t <= 100 with default settings.
    """
    ts, back = _as_1d(t, float)
    if np.any(ts < 0):
        raise DomainError("hardy_z requires t >= 0")
    theta = riemann_siegel_theta(ts)
    s = 0.5 + 1j * ts
    zeta = hurwitz_zeta(s, 1.0, cfg)
    value = _cmul(np.exp(1j * theta), zeta)
    off = np.flatnonzero(np.abs(value.imag) >= 1e-9)
    if off.size:
        i = off[0]
        raise ConvergenceError(
            f"hardy_z imaginary residue {value.imag[i]:.3e} at t={ts[i]}; "
            "the rotation by theta(t) failed to realign zeta"
        )
    return back(value.real)
