"""Independent zeta oracle for checking fracsum's outputs.

Nothing here shares code with the package.  zeta(s) comes from the
alternating eta series with Borwein's Chebyshev weights (error below
3 (1 + 2|t|) e^(pi |t| / 2) / (3 + sqrt 8)^n, so n = 160 terms leave the
truncation far below double precision for |t| <= 100), Riemann-Siegel
theta from a shifted Stirling series, and the critical-line zeros from
sign changes of Z(t) = Re(e^(i theta) zeta(1/2 + it)) on a grid five times
finer than fracsum's, refined by bisection.  Only the sign of Z is used
there, and that sign is right whenever theta is off by less than pi/2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

ETA_TERMS = 160
ZERO_GRID_STEP = 0.01
ZERO_T_MAX = 100.0
_CHUNK = 2048


@lru_cache(maxsize=4)
def _eta_weights(n: int) -> np.ndarray:
    # (-1)^k (d_k - d_n) / d_n with d_k = n sum_{j<=k} (n+j-1)! 4^j / ((n-j)! (2j)!),
    # kept exact until the final rounding
    d = []
    acc = Fraction(0)
    for j in range(n + 1):
        acc += Fraction(math.factorial(n + j - 1) * 4 ** j,
                        math.factorial(n - j) * math.factorial(2 * j))
        d.append(n * acc)
    dn = d[n]
    return np.array([float((-1) ** k * (d[k] - dn) / dn) for k in range(n)])


def zeta(s, n: int = ETA_TERMS):
    """zeta(s) for scalar or array s with Re(s) > 0, s != 1, |Im s| <= 100."""
    arr = np.atleast_1d(np.asarray(s, dtype=complex))
    w = _eta_weights(n)
    logk = np.log(np.arange(1.0, n + 1.0))
    out = np.empty(arr.shape, dtype=complex)
    flat, res = arr.ravel(), out.ravel()
    for lo in range(0, flat.size, _CHUNK):
        part = flat[lo:lo + _CHUNK]
        eta = -(np.exp(-np.outer(part, logk)) @ w)
        res[lo:lo + _CHUNK] = eta / (1.0 - np.exp((1.0 - part) * math.log(2.0)))
    return complex(res[0]) if np.ndim(s) == 0 else out


def _log_gamma(z: np.ndarray) -> np.ndarray:
    # shift to Re >= 20, then Stirling with four correction terms
    shift = 20
    acc = np.zeros_like(z)
    for k in range(shift):
        acc += np.log(z + k)
    w = z + shift
    series = (1 / (12 * w) - 1 / (360 * w ** 3) + 1 / (1260 * w ** 5)
              - 1 / (1680 * w ** 7))
    return (w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi) + series - acc


def theta(t):
    """Riemann-Siegel theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi."""
    t = np.asarray(t, dtype=float)
    return _log_gamma(0.25 + 0.5j * t).imag - 0.5 * t * math.log(math.pi)


def hardy_z(t):
    """Hardy Z(t), real up to rounding."""
    t = np.asarray(t, dtype=float)
    return (np.exp(1j * theta(t)) * zeta(0.5 + 1j * t)).real


@lru_cache(maxsize=1)
def critical_zeros() -> tuple[float, ...]:
    """Ordinates of the zeros of zeta(1/2 + it) in (0, 100), to ~1e-12."""
    ts = np.linspace(0.0, ZERO_T_MAX, int(round(ZERO_T_MAX / ZERO_GRID_STEP)) + 1)
    z = hardy_z(ts)
    idx = np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0)[0]
    lo, hi, zlo = ts[idx], ts[idx + 1], z[idx]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        zm = hardy_z(mid)
        left = np.sign(zm) == np.sign(zlo)
        lo, zlo = np.where(left, mid, lo), np.where(left, zm, zlo)
        hi = np.where(left, hi, mid)
    return tuple(float(v) for v in 0.5 * (lo + hi))


def zero_count(t_min: float, t_max: float) -> int:
    """Number of critical-line zeros with t_min < t < t_max (t_max <= 100)."""
    if t_max > ZERO_T_MAX:
        raise ValueError("the oracle covers t <= 100")
    return sum(1 for t in critical_zeros() if t_min < t < t_max)


def nearest_zero(t: float) -> float:
    return min(critical_zeros(), key=lambda z: abs(z - t))
