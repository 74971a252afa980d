"""Fractional summation: evaluable functions, difference operators, and the
limit that extends a finite sum sum_{v=1}^{x} f(v) to non-integer x.

The central object is :class:`EvalFn`, a complex-valued function on an open
interval (domain_lo, inf) of the real line.  Functions live on one of two
reference domains and the difference operators move between them:

    U  = (-1, inf)      where fractional sums are defined,
    U+ = (0, inf)       where the summands live;

``forward_difference`` maps U-functions to U+-functions and
``fractional_sum_limit`` maps back, with the ledger kept mechanically by the
``domain_lo`` field.

For a summand f on U+ the engine evaluates the partial expressions

    S_n(x) = x f(n) + sum_{v=1}^{n} (f(v) - f(v+x))

along a geometric index schedule and extrapolates the limit n -> inf.  The
limit exists for asymptotically flat f (``flatness_probe`` classifies this)
and reproduces the ordinary finite sum at integer x.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CancellationWarning, ConvergenceError, DomainError, OutOfRangeError
from .specfun import (
    DEFAULT_SPECFUN,
    SpecFunConfig,
    digamma,
    euler_gamma,
    hurwitz_zeta,
    log_gamma,
    riemann_zeta,
)

FLAT = "flat"
NOT_FLAT = "not_flat"
INCONCLUSIVE = "inconclusive"

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EvalFn:
    """A complex-valued function on (domain_lo, inf).

    ``eval`` is the pointwise map; it must accept a float or a 1-D numpy
    array and return values of matching shape (wrap scalar-only callables
    with :func:`pointwise_fn`).  ``analytic_derivative``, when present, is
    held to the testable contract of matching Richardson-improved central
    differences (step 1e-5) to 1e-6 at interior points.
    """

    domain_lo: float
    eval: Callable
    analytic_derivative: Optional[Callable] = None
    label: str = ""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.size and not np.all(x > self.domain_lo):
            raise DomainError(
                f"{self.label or 'function'} is defined on ({self.domain_lo}, inf); "
                f"got argument min {x.min()}"
            )
        return self.eval(x if x.ndim else float(x))

    def derivative(self, x):
        if self.analytic_derivative is None:
            raise DomainError(f"{self.label or 'function'} carries no analytic derivative")
        x = np.asarray(x, dtype=float)
        if x.size and not np.all(x > self.domain_lo):
            raise DomainError(f"derivative of {self.label or 'function'} evaluated outside domain")
        return self.analytic_derivative(x if x.ndim else float(x))


def pointwise_fn(domain_lo: float, fn: Callable[[float], complex],
                 derivative: Optional[Callable[[float], complex]] = None,
                 label: str = "user") -> EvalFn:
    """Wrap a scalar-only callable as an EvalFn (adds the array adapter)."""

    def _vec(g):
        def wrapped(x):
            if isinstance(x, np.ndarray) and x.ndim:
                return np.array([g(float(v)) for v in x])
            return g(float(x))
        return wrapped

    return EvalFn(domain_lo, _vec(fn),
                  _vec(derivative) if derivative is not None else None, label)


def const_fn(c: complex = 1.0) -> EvalFn:
    c = complex(c)

    def ev(x):
        x = np.asarray(x)
        return c if x.ndim == 0 else np.full(x.shape, c)

    def dv(x):
        x = np.asarray(x)
        return 0j if x.ndim == 0 else np.zeros(x.shape, dtype=complex)

    return EvalFn(-1.0, ev, dv, label=f"const({c})")


def log_fn() -> EvalFn:
    """x |-> log x on (0, inf)."""
    return EvalFn(0.0, np.log, lambda x: 1.0 / np.asarray(x, dtype=float), label="log")


def power_fn(s: complex) -> EvalFn:
    """x |-> x^(-s) = exp(-s log x) on (0, inf); any complex s."""
    s = complex(s)

    def ev(x):
        return np.exp(-s * np.log(x))

    def dv(x):
        return -s * np.exp(-(s + 1) * np.log(x))

    return EvalFn(0.0, ev, dv, label=f"x^(-({s}))")


def sin_2pi_fn() -> EvalFn:
    """x |-> sin(2 pi x) on (-1, inf), with the argument reduced mod 1.

    The reduction makes integer shifts exact: sin(2 pi x) and sin(2 pi (x-1))
    produce bit-identical values, so the forward difference of this function
    is exactly zero rather than rounding noise.
    """

    def ev(x):
        return np.sin(_TWO_PI * (x - np.floor(x)))

    def dv(x):
        return _TWO_PI * np.cos(_TWO_PI * (x - np.floor(x)))

    return EvalFn(-1.0, ev, dv, label="sin(2pi x)")


def linear_combination(terms: Sequence[tuple[complex, EvalFn]], label: str = "") -> EvalFn:
    """sum_k c_k f_k with the tightest common domain; derivative if all have one."""
    terms = [(complex(c), f) for c, f in terms]
    if not terms:
        raise DomainError("linear_combination needs at least one term")
    lo = max(f.domain_lo for _, f in terms)

    def ev(x):
        return sum(c * f.eval(x) for c, f in terms)

    dv = None
    if all(f.analytic_derivative is not None for _, f in terms):
        def dv(x):  # noqa: F811
            return sum(c * f.analytic_derivative(x) for c, f in terms)

    return EvalFn(lo, ev, dv, label=label or " + ".join(f"{c}*{f.label}" for c, f in terms))


def forward_difference(f: EvalFn) -> EvalFn:
    """(Delta f)(x) = f(x) - f(x-1); maps U-functions to U+-functions."""

    def ev(x):
        return f.eval(x) - f.eval(x - 1.0)

    dv = None
    if f.analytic_derivative is not None:
        def dv(x):  # noqa: F811
            return f.analytic_derivative(x) - f.analytic_derivative(x - 1.0)

    return EvalFn(f.domain_lo + 1.0, ev, dv, label=f"Delta[{f.label}]")


def half_difference(f: EvalFn) -> EvalFn:
    """(Delta_1/2 f)(x) = f(x) - f(x - 1/2); shifts the domain by one half."""

    def ev(x):
        return f.eval(x) - f.eval(x - 0.5)

    dv = None
    if f.analytic_derivative is not None:
        def dv(x):  # noqa: F811
            return f.analytic_derivative(x) - f.analytic_derivative(x - 0.5)

    return EvalFn(f.domain_lo + 0.5, ev, dv, label=f"HalfDelta[{f.label}]")


#: number of points on the base index schedule
SCHEDULE_LEN = 6


@dataclass(frozen=True)
class SummationConfig:
    """Controls the limit engine.

    The index schedule is geometric: n0, 2 n0, ..., n0 2^(SCHEDULE_LEN - 1),
    extended by further doublings up to max_n while unconverged.  The last
    three partial values are fitted to S + C n^(-alpha) and the extrapolant
    returned; convergence means the last two extrapolants agree within
    abs_tol.  ``strict`` turns a failed convergence into a ConvergenceError
    instead of a diagnostic.
    """

    n0: int = 64
    abs_tol: float = 1e-8
    max_n: int = 131072
    strict: bool = False

    def __post_init__(self) -> None:
        if self.n0 < 16:
            raise OutOfRangeError(f"n0 must be >= 16, got {self.n0}")
        if not self.abs_tol > 0:
            raise OutOfRangeError("abs_tol must be positive")
        if self.max_n < self.n0 * 2 ** (SCHEDULE_LEN - 1):
            raise OutOfRangeError("max_n must cover the base schedule "
                                  f"(>= {self.n0 * 2 ** (SCHEDULE_LEN - 1)})")

    def schedule(self) -> list[int]:
        return [self.n0 * 2 ** k for k in range(SCHEDULE_LEN)]


DEFAULT_SUMMATION = SummationConfig()


@dataclass(frozen=True)
class FracSumResult:
    """Value of a fractional sum plus convergence diagnostics.

    decay_exponent_estimate is the fitted alpha in error ~ C n^(-alpha)
    (nan when the schedule was not consulted, e.g. exact integer sums).
    """

    value: complex
    err_estimate: float
    n_used: int
    converged: bool
    decay_exponent_estimate: float


@dataclass(frozen=True)
class FlatnessSample:
    x: float
    ns: tuple[int, ...]
    diffs: tuple[float, ...]
    decay_exponent: float
    verdict: str


@dataclass(frozen=True)
class FlatnessReport:
    verdict: str
    samples: tuple[FlatnessSample, ...]


def flatness_probe(f: EvalFn, x_samples: Iterable[float],
                   cfg: SummationConfig = DEFAULT_SUMMATION) -> FlatnessReport:
    """Classify whether f(n+x) - f(n) -> 0 along the index schedule.

    This is an explicit finite-sample heuristic, not a proof.  Per sample it
    inspects d_n = |f(n+x) - f(n)| on the geometric schedule and calls the
    sequence *flat* when, after the first element, it decays monotonically
    with a fitted positive exponent (so the extrapolated trend passes below
    abs_tol), *not_flat* when it stays bounded away from zero or grows, and
    *inconclusive* otherwise.  The overall verdict is flat only if every
    sample is flat, and not_flat as soon as any sample is.
    """
    xs = [float(x) for x in x_samples]
    if not xs:
        raise DomainError("flatness_probe needs at least one sample")
    if min(xs) <= 0.0:
        raise DomainError("flatness samples must be positive")
    ns = cfg.schedule()
    narr = np.asarray(ns, dtype=float)
    samples = []
    for x in xs:
        d = np.abs(f(narr + x) - f(narr))
        if d.max() <= cfg.abs_tol:
            samples.append(FlatnessSample(x, tuple(ns), tuple(float(v) for v in d),
                                          math.inf, FLAT))
            continue
        tail = d[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = tail[1:] / tail[:-1]
        ratios = ratios[np.isfinite(ratios)]
        if ratios.size == 0:
            samples.append(FlatnessSample(x, tuple(ns), tuple(d), math.nan, INCONCLUSIVE))
            continue
        alpha = float(-np.median(np.log2(ratios)))
        if np.all(ratios < 0.97) and alpha >= 0.05:
            verdict = FLAT
        elif alpha <= 0.02 and d[-1] >= 0.5 * d.max() and d[-1] > 10 * cfg.abs_tol:
            verdict = NOT_FLAT
        else:
            verdict = INCONCLUSIVE
        samples.append(FlatnessSample(x, tuple(ns), tuple(float(v) for v in d), alpha, verdict))

    if any(s.verdict == NOT_FLAT for s in samples):
        overall = NOT_FLAT
    elif all(s.verdict == FLAT for s in samples):
        overall = FLAT
    else:
        overall = INCONCLUSIVE
    return FlatnessReport(overall, tuple(samples))


def _extrapolate(partials: list[complex]):
    """Three-point power-law fit S_n ~ S + C n^(-alpha) on a ratio-2 schedule.

    Consecutive increments of such a sequence satisfy D2/D1 = 2^(-alpha)
    exactly (complex alpha allowed), so the limit is S = S_last + r D2/(1-r).
    Returns (extrapolant, fitted exponent).
    """
    s_a, s_b, s_c = partials[-3], partials[-2], partials[-1]
    d1 = s_b - s_a
    d2 = s_c - s_b
    if abs(d1) == 0.0:
        return s_c, math.inf
    r = d2 / d1
    if abs(r) >= 0.99:  # no decay visible; extrapolation would amplify noise
        return s_c, float(-math.log2(abs(r))) if abs(r) > 0 else math.inf
    return s_c + r * d2 / (1.0 - r), float(-math.log2(abs(r)))


def fractional_sum_limit(f: EvalFn, x: float,
                         cfg: SummationConfig = DEFAULT_SUMMATION) -> FracSumResult:
    """The fractional sum sum_{v=1}^{x} f(v) for x > -1.

    Integer x >= 0 returns the exact finite sum directly (empty sum = 0).
    Otherwise S_n(x) = x f(n) + sum_{v=1}^n (f(v) - f(v+x)) is accumulated
    along the geometric schedule, extrapolated by the power-law fit, and
    extended by doubling up to cfg.max_n while the last two extrapolants
    disagree by more than abs_tol.
    """
    x = float(x)
    if x <= -1.0:
        raise DomainError(f"fractional sums are defined for x > -1, got {x}")
    if f.domain_lo > 0.0:
        raise DomainError("summand must be defined on all of (0, inf)")

    if x.is_integer():
        m = int(x)
        value = complex(np.sum(f(np.arange(1.0, m + 0.5)))) if m >= 1 else 0.0 + 0.0j
        return FracSumResult(value, 0.0, m, True, math.nan)

    partials: list[complex] = []
    estimates: list[complex] = []
    exponent = math.nan
    err = math.inf
    running = 0.0 + 0.0j
    prev_n = 0
    n = cfg.n0
    while True:
        nu = np.arange(prev_n + 1.0, n + 0.5)
        running += complex(np.sum(f(nu) - f(nu + x)))
        partials.append(x * complex(f(float(n))) + running)
        prev_n = n
        if len(partials) >= 3:
            est, exponent = _extrapolate(partials)
            estimates.append(est)
            if len(estimates) >= 2:
                err = abs(estimates[-1] - estimates[-2])
        scheduled = len(partials) >= SCHEDULE_LEN
        converged = err <= cfg.abs_tol
        if (scheduled and converged) or 2 * n > cfg.max_n:
            break
        n *= 2

    value = estimates[-1] if estimates else partials[-1]
    converged = err <= cfg.abs_tol
    if cfg.strict and not converged:
        raise ConvergenceError(
            f"fractional sum of {f.label or 'summand'} at x={x} stalled at "
            f"err ~ {err:.3e} (abs_tol {cfg.abs_tol:.1e}, n up to {prev_n})"
        )
    return FracSumResult(complex(value), float(err), prev_n, converged, exponent)


_S_ONE_EXACT = 1e-8   # at |s-1| below this, switch to the digamma branch
_S_ONE_WARN = 1e-3    # below this, zeta(s) - zeta(s, x+1) cancels two poles


def frac_power(x, s: complex, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """The fractional generalized harmonic sum x^[-s] = sum_{v=1}^{x} v^(-s).

    Closed forms: zeta(s) - zeta(s, x+1) for s != 1, and gamma + Psi(x+1)
    at s = 1 (taken when |s-1| < 1e-8).  Defined for x > -1, Re(s) > -1.
    Accepts scalar or array x.
    """
    s = complex(s)
    if s.real <= -1.0:
        raise DomainError(f"frac_power requires Re(s) > -1, got {s}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    work = np.atleast_1d(arr)
    if work.size and not np.all(work > -1.0):
        raise DomainError(f"frac_power requires x > -1, got min {work.min()}")
    if abs(s - 1.0) < _S_ONE_EXACT:
        out = euler_gamma() + digamma(work + 1.0, cfg)
    else:
        if abs(s - 1.0) < _S_ONE_WARN:
            warnings.warn(
                f"frac_power at s={s}: zeta(s) - zeta(s, x+1) cancels two "
                "near-poles; expect digit loss",
                CancellationWarning, stacklevel=2,
            )
        out = riemann_zeta(s, cfg) - hurwitz_zeta(s, work + 1.0, cfg)
    return complex(out[0]) if scalar else out


def frac_power_derivative(x, s: complex, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """d/dx x^[-s] = -s x^[-s-1] + s zeta(1+s), for Re(s) > -1, s != 0.

    At s = 0 both terms carry the factor s and the expression returns 0;
    the derivative contract covers s != 0 only.
    """
    s = complex(s)
    if s.real <= -1.0:
        raise DomainError(f"frac_power_derivative requires Re(s) > -1, got {s}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    work = np.atleast_1d(arr)
    if work.size and not np.all(work > -1.0):
        raise DomainError("frac_power_derivative requires x > -1")
    if s == 0:
        out = np.zeros(work.shape, dtype=complex)
    else:
        out = -s * frac_power(work, s + 1.0, cfg) + s * riemann_zeta(1.0 + s, cfg)
    return complex(out[0]) if scalar else out


def frac_power_fn(s: complex, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> EvalFn:
    """x^[-s] wrapped as an EvalFn on (-1, inf) with its analytic derivative."""
    s = complex(s)
    if s.real <= -1.0:
        raise DomainError(f"frac_power_fn requires Re(s) > -1, got {s}")
    return EvalFn(
        -1.0,
        lambda x: frac_power(x, s, cfg),
        lambda x: frac_power_derivative(x, s, cfg),
        label=f"x^[-({s})]",
    )


def sum_log(x, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """sum_{v=1}^{x} log v = log Gamma(x+1) for x > -1 (scalar or array)."""
    arr = np.asarray(x, dtype=float)
    work = np.atleast_1d(arr)
    if work.size and not np.all(work > -1.0):
        raise DomainError("sum_log requires x > -1")
    out = log_gamma(work + 1.0, cfg)
    return complex(out[0]) if arr.ndim == 0 else out
