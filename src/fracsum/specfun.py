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
1-D numpy array and the result matches the input shape.  The Hurwitz
kernel, ``_hurwitz_kernel``, takes the points s x a with one side a single
value, so ``hurwitz_zeta`` also takes a 1-D array of ``s`` with one ``a``
(how ``hardy_z`` evaluates zeta over many ``s``).  One batch rule holds
for every function: a point's value, and a Hurwitz point's tail estimate,
has the same bits alone and in any array (``digamma`` and ``log_gamma``
step each point up by its own count, see ``_shifted_series``).  The
kernel checks no target: ``hurwitz_zeta_with_error`` fails the whole call
at the first miss, and the strip scan flags each point that misses, with
no fallback.  An estimate misses unless it is within the target, so a NaN
estimate (far up the line the Pochhammer factor overflows while the power
of w underflows) misses in both.  ``riemann_zeta`` stays scalar and cached.

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
_EPS = float(np.finfo(float).eps)


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
# points per block of the Euler-Maclaurin tail and its estimates; 256-point
# blocks took the 8241-point scan grid from 5 to 10 ms and the 2001-point
# Hardy-Z grid from 4.2 to 5.4 ms, 4096-point blocks neither
_TAIL_BLOCK = 4096

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


def _em_weights(order: int) -> list:
    """B_2j / (2j)!, j = 1 .. order + 1, with (2j)! multiplied up in floats."""
    fact, weights = 1.0, []
    for j in range(1, order + 1):
        fact *= (2 * j) * (2 * j - 1)
        weights.append(_BERNOULLI[2 * j] / fact)
    return weights + [_BERNOULLI[2 * order + 2] / (fact * (2 * order + 2) * (2 * order + 1))]


_EM_WEIGHTS = _em_weights(EM_BERNOULLI_ORDER // 2)


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
    if not np.isfinite(values).all():
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


def _complex(re, im):
    """The complex number, or array, with parts re and im."""
    if type(re) is float:
        return complex(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


# |re + i im| and base ** expo by the C library's hypot and pow, as Python
# takes them, for arrays too (a power once per distinct expo): numpy's
# complex abs and array power differ in the last bit at about a third and
# 5% of points (AVX-512 host)
def _cabs(re, im):
    return abs(complex(re, im)) if type(re) is float else np.hypot(re, im)


def _pow(base: float, expo):
    if type(expo) is float:
        return base ** expo
    if (expo == expo[0]).all():  # one Re s, as on the critical line: no sort
        return np.full(expo.shape, base ** float(expo[0]))
    distinct, at = np.unique(expo, return_inverse=True)
    return np.array([base ** x for x in distinct.tolist()])[at]


def _tail_misses(each: np.ndarray) -> np.ndarray:
    """Which of the kernel's tail estimates miss TARGET_ABS_TOL: each one
    not within it, so a NaN estimate misses."""
    return ~(each <= TARGET_ABS_TOL)


def hurwitz_zeta_with_error(s, a, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """Hurwitz zeta(s, a) together with the tail-remainder bound actually used.

    Takes the points of ``_hurwitz_kernel``; the value has the shape of the
    array argument.  Returns ``(value, bound)`` where ``bound`` is the
    largest magnitude over the points of the first omitted Bernoulli
    correction, each at its own s and tail start w, times the standard
    |s+2M+1|/(sigma+2M+1) safety factor, plus the largest rounding floor.
    The truncation gate fails the whole call at the first point, in order,
    whose estimate misses the target, a NaN estimate included (such a value
    carries no known bound); the strip scan takes the kernel's per-point
    estimates instead.  An empty array gives an empty value and a zero
    bound.  ``hurwitz_zeta`` is the value-only wrapper.
    """
    value, each, rounding = _hurwitz_kernel(s, a, cfg)
    if not each.size:
        return value, 0.0
    worst = each.max()  # NaN where any estimate is
    if _tail_misses(worst):  # the first s that misses, as scalar calls in order would
        at = np.flatnonzero(_tail_misses(each))[0]
        raise ConvergenceError(f"Euler-Maclaurin tail estimate {each[at]:.3e} misses target "
                               f"{TARGET_ABS_TOL:.3e} for s={complex(np.ravel(s)[at])}; "
                               "raise em_terms or the order")
    bound = float(worst) + float(rounding.max())
    if not math.isfinite(bound):  # a finite floor vouches for every value
        _require_finite(value, "hurwitz_zeta")
    return value, bound


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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result is judged, not warned of
def _hurwitz_kernel(s, a, cfg: SpecFunConfig):
    """Hurwitz zeta(s, a) with each point's truncation estimate, ungated.

    The points are s x a, one side a single value: a scalar s with a scalar
    or 1-D a, or a 1-D s (of any size) with a scalar a.  Returns
    ``(value, each, rounding)``: the value in the shape of the array
    argument (a Python complex for two scalars), and, as arrays over s, the
    first omitted Bernoulli correction times the safety factor at the
    smallest tail start w, and the rounding floor, which scales the largest
    |value| and so is not finite where a value is not.  No target is
    checked.  Raises only for a pole, Re(s) <= -2 EM_BERNOULLI_ORDER, an
    invalid a or shape, and sigma + 2M + 1 <= 0, where no estimate exists.
    """
    s = np.asarray(s, dtype=complex)
    arr = np.asarray(a, dtype=float)
    if s.ndim + arr.ndim > 1:
        raise DomainError("hurwitz zeta takes a 1-D s and a scalar a, or a 1-D a and a scalar s")
    shape = s.shape or arr.shape
    s, arr = s.reshape(-1), arr.reshape(-1)
    if (s == 1).any():
        raise PoleError("hurwitz zeta has a pole at s = 1")
    re_min = float(s.real.min(initial=math.inf))
    if re_min <= -2.0 * EM_BERNOULLI_ORDER:
        raise DomainError(f"Re(s) = {re_min} is below the Euler-Maclaurin validity range "
                          f"Re(s) > {-2.0 * EM_BERNOULLI_ORDER}")
    amin, amax = arr.min(initial=math.inf), arr.max(initial=-math.inf)  # NaN where any a is
    if arr.size and not (math.isfinite(amin) and math.isfinite(amax)):
        raise DomainError("a must be finite")
    if amin <= 0.0:
        raise DomainError(f"a must be positive, got min {amin}")
    size = s.size * arr.size
    if not size:
        return np.zeros(0, dtype=complex), np.zeros(0), np.zeros(0)
    n_terms, order = cfg.em_terms, EM_BERNOULLI_ORDER // 2
    if re_min + 2 * order + 1 <= 0:
        raise ConvergenceError("Euler-Maclaurin remainder bound unavailable: "
                               "sigma + 2M + 1 <= 0")
    # one s is a Python complex, its parts Python floats: the arithmetic the
    # array formulas spell out, in microseconds (~140 us on 1-point arrays)
    one = complex(s[0]) if s.size == 1 else None

    # Explicit part, only where a < em_terms: sum_{k<N} (a+k)^(-s) moves the
    # tail to w = a + N; every other point starts its tail at w = a.  Bases
    # are positive reals, so exp(-s log(.)) has no branch ambiguity.  A
    # point's terms fill one contiguous row (per a for one s, per s for one
    # a), summed pairwise whatever array or block holds it.
    near = arr < n_terms
    w = np.where(near, arr + n_terms, arr)
    near = np.flatnonzero(near)
    value = np.zeros(size, dtype=complex)
    k = np.arange(n_terms, dtype=float)
    if one is not None:
        for lo in range(0, near.size, _HURWITZ_BLOCK):
            rows = near[lo:lo + _HURWITZ_BLOCK]
            value[rows] = np.exp(-one * np.log(arr[rows, None] + k)).sum(axis=1)
    elif near.size:
        terms = _power_rows(s, np.log(arr + k))
        for lo in range(0, size, _HURWITZ_BLOCK):
            value[lo:lo + _HURWITZ_BLOCK] = terms(slice(lo, lo + _HURWITZ_BLOCK)).sum(axis=1)

    # Euler-Maclaurin tail from one complex power e = w^(-s) per point:
    # w^(1-s) = w e, and the Bernoulli powers w^(-s-2j+1) = e w^(1-2j) step
    # down by the real 1/w^2, so the corrections
    # sum_j B_2j/(2j)! (s)_{2j-1} w^(-s-2j+1) are e/w times a polynomial in
    # 1/w^2, summed by Horner.  The rising factorial steps by parts, by the
    # formula of a Python complex product (s + 2j - 3 and s + 2j - 2 share
    # the imaginary part t + 0.0), so each s of an array keeps the bits of
    # its single call.  Blocks of _TAIL_BLOCK points keep the complex
    # temporaries (64 KB) below the 256 KB from which numpy multiplies in
    # place, by a loop whose last bit may differ.
    w_min = float(w.min())
    each = np.empty(s.size)
    for lo in range(0, size, _TAIL_BLOCK):
        part = slice(lo, lo + _TAIL_BLOCK)
        sp, wp = (one, w[part]) if one is not None else (s[part], w)
        sig, t = sp.real, sp.imag + 0.0
        re, im, tt = sig, sp.imag, t * t
        coef = [_EM_WEIGHTS[0] * sp]
        for j in range(2, order + 1):
            x = sig + 2 * j
            a, b = x - 3, x - 2
            qr, qi = a * b - tt, a * t + t * b
            re, im = re * qr - im * qi, re * qi + im * qr
            coef.append(_EM_WEIGHTS[j - 1] * _complex(re, im))
        # First omitted term, largest at the smallest w as w^(-sigma-2M-1)
        # falls with w, with (s)_{2M+1} = (s)_{2M-1} (s + 2M - 1) (s + 2M);
        # the one estimate of one s is written by the first block only
        x = sig + 2 * order
        a, b = re * (x - 1) - im * t, re * t + im * (x - 1)
        qr, qi = a * x - b * t, a * t + b * x
        x = x + 1  # sigma + 2M + 1, and kappa = |s + 2M + 1| / x >= 1 the safety factor
        each[part] = abs(_EM_WEIGHTS[-1]) * _cabs(qr, qi) * (_cabs(x, t) / x) * _pow(w_min, -x)
        del x, a, b, qr, qi, re, im, t, tt  # before the tail's temporaries
        inv_w = 1.0 / wp
        inv_w2 = inv_w * inv_w
        series = coef[-1]
        for c in reversed(coef[:-1]):
            series = series * inv_w2 + c
        tail = np.exp(-sp * np.log(wp)) * (wp / (sp - 1) + 0.5 + series * inv_w)
        if not np.isfinite(tail).all():  # w / (s - 1) overflowed; w^(1-s) / (s - 1) may not
            np.copyto(tail, np.exp((1 - sp) * np.log(wp)) / (sp - 1)
                      + np.exp(-sp * np.log(wp)) * (0.5 + series * inv_w),
                      where=~np.isfinite(tail))
        value[part] += tail

    # Rounding floor: each power carries a phase error ~ eps |s| log(base)
    # scaled by the largest term magnitude (the first term at sigma >= 0,
    # the last explicit one below, or the largest |value| of the call).
    # Unlike the truncation it is not reducible by em_terms, so it widens
    # the bound but does not trip the gate.  amin and amax are numpy
    # floats, whose powers are inf where they overflow.
    value_max = np.abs(value).max()
    rounding = np.empty(s.size)
    for lo in range(0, s.size, _TAIL_BLOCK):
        sp = one if one is not None else s[lo:lo + _TAIL_BLOCK]
        sigma = sp.real
        peak = np.maximum(np.maximum(amin ** -sigma, (n_terms - 1 + amax) ** -sigma),
                          np.maximum((n_terms + amax) ** (1.0 - sigma) / abs(sp - 1.0), value_max))
        phase = abs(sp) * math.log(n_terms + amax)
        rounding[lo:lo + _TAIL_BLOCK] = 4.0 * _EPS * (1.0 + phase) * peak
    return value if shape else value[0].item(), each, rounding


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
