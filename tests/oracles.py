"""Independent oracles used by the test suite.

Nothing here shares code paths with the package: zeta values come from an
alternating-series acceleration or from scipy, gamma from the
harmonic-number limit, digamma from its defining series, and derivatives
from finite differences.  ``traced_peak`` measures memory with the
standard library's tracemalloc, which numpy reports its arrays to.
"""

import cmath
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def _chebyshev_weights(n: int) -> tuple:
    # d_k = n * sum_{j<=k} (n+j-1)! 4^j / ((n-j)! (2j)!), kept exact
    d = []
    acc = Fraction(0)
    for j in range(n + 1):
        num = Fraction(math.factorial(n + j - 1) * 4 ** j)
        acc += num / (math.factorial(n - j) * math.factorial(2 * j))
        d.append(n * acc)
    return tuple(d)


def alt_series_zeta(s: complex, n: int = 100) -> complex:
    """zeta(s) through the eta function with Chebyshev-weighted acceleration.

    Geometric convergence ~ (3+sqrt 8)^(-n); for n=100 and |Im s| <= 30 the
    truncation is far below double precision.  Not valid at s = 1 or where
    1 - 2^(1-s) = 0.
    """
    s = complex(s)
    d = _chebyshev_weights(n)
    dn = d[n]
    total = 0.0 + 0.0j
    for k in range(n):
        weight = float(Fraction((-1) ** k) * (d[k] - dn) / dn)
        total += weight * cmath.exp(-s * math.log(k + 1))
    eta = -total
    return eta / (1.0 - cmath.exp((1.0 - s) * math.log(2.0)))


def partial_sum_zeta_bracket(s: float, a: float, n: int = 10 ** 7):
    """For real s > 1: rigorous bracket of zeta(s, a) from a partial sum plus
    integral bounds on the tail."""
    assert s > 1.0
    k = np.arange(n, dtype=float)
    partial = float(np.sum((k + a) ** (-s)))
    # integral bounds: int_n^inf <= tail <= int_{n-1}^inf
    lo = partial + (a + n) ** (1.0 - s) / (s - 1.0)
    hi = partial + (a + n - 1.0) ** (1.0 - s) / (s - 1.0)
    return lo, hi


def scipy_hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) for real s != 1 and integer or half-integer a < 1e6 when s < 1.

    scipy's Hurwitz zeta is nan for s < 1 but its Riemann zeta is not, so
    there zeta(s, n) = zeta(s) - sum_{k<n} k^-s and, through
    zeta(s, 1/2) = (2^s - 1) zeta(s), the same at half-integer a.
    """
    from scipy.special import zeta

    if s > 1.0:
        return float(zeta(s, a))
    start = 1.0 if a == int(a) else 0.5
    base = zeta(s) * (1.0 if start == 1.0 else 2.0 ** s - 1.0)
    return float(base) - math.fsum((start + k) ** -s for k in range(int(a - start)))


def harmonic_euler_gamma(n: int = 10 ** 6) -> float:
    """gamma as the accelerated limit of H_n - log n."""
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 0.5 / n + 1.0 / (12.0 * n * n)


def digamma_series(z: complex, n: int = 10 ** 5) -> complex:
    """Psi(z) from -gamma + sum_{k>=0} (1/(k+1) - 1/(k+z)), midpoint tail."""
    z = complex(z)
    k = np.arange(n, dtype=float)
    partial = complex(np.sum(1.0 / (k + 1.0) - 1.0 / (k + z)))
    tail = cmath.log((n - 0.5 + z) / (n + 0.5))
    return -harmonic_euler_gamma() + partial + tail


def richardson_diff(fn, x: float, h: float = 3e-4) -> complex:
    """Richardson-improved central difference, the derivative oracle.

    The step balances the h^4 truncation against rounding, which the
    stencil divides by h: at h = 1e-5 the rounding of x^[-s] alone puts
    up to ~1e-9 into the result."""
    d1 = (fn(x + h) - fn(x - h)) / (2.0 * h)
    d2 = (fn(x + h / 2.0) - fn(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def traced_peak(fn):
    """fn() and the peak of the memory traced while it ran, in bytes, above
    what was traced when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
