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

For a summand f on U+ the engine reduces x >= 1 to x0 = x - floor(x) by
the shift sum_{1}^{x} f = sum_{1}^{x-1} f + f(x), evaluates the partial
expressions

    S_n(x0) = x0 f(n) + sum_{v=1}^{n} (f(v) - f(v+x0))

along a geometric index schedule, and extrapolates n -> inf with Wynn's
epsilon algorithm.  The limit exists for asymptotically flat f
(``flatness_probe`` classifies this) and reproduces the ordinary finite sum
at integer x.  S_n is analytic in x, so the same loop also takes the
derivative under the limit, lim_n [f(n) - sum_{v=1}^{n} f'(v+x0)].

``fractional_sum_limits`` runs the limits of many x in lock-step, one per
distinct x0 (0.5, 1.5 and 2.5 share one).  Each schedule step evaluates
f at the integer nodes and the edge f(n) once for all of them, and the
shifted nodes of every running limit in one call per group of whole rows;
a limit leaves the batch when it converges.  A group holds at most
_ROW_BLOCK points and a longer row is evaluated alone, because numpy
multiplies complex temporaries of 16384 points and up in place, by a loop
whose last bit may differ: so each limit keeps the bits it has alone.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
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


def _finite_s(s: complex, who: str) -> complex:
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"{who} requires a finite s, got {s}")
    return s


def power_fn(s: complex) -> EvalFn:
    """x |-> x^(-s) = exp(-s log x) on (0, inf); any finite complex s."""
    s = _finite_s(s, "power_fn")

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
    extended by further doublings up to max_n while unconverged.  Wynn's
    epsilon algorithm extrapolates the partial values after each step;
    convergence means the last two extrapolants agree within abs_tol.
    ``strict`` turns a failed convergence into a ConvergenceError instead
    of a diagnostic.
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
    """Value of a fractional sum (or of its derivative) plus diagnostics."""

    value: complex
    err_estimate: float
    n_used: int
    converged: bool


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


def _wynn(partials: list[complex]) -> complex:
    """Wynn's epsilon algorithm: the iterated Shanks transform of partials.

    On a ratio-2 schedule each power n^(-a) in the truncation of S_n is a
    geometric sequence in the schedule index, and each even column of the
    epsilon table removes one more of them.  Returns the last entry of the
    deepest even column; a zero difference ends the table (the column
    before it is exact, e.g. a constant sequence).
    """
    prev, cur = [0j] * (len(partials) + 1), partials
    best = cur[-1]
    for col in range(1, len(partials)):
        diffs = [b - a for a, b in zip(cur, cur[1:])]
        if 0 in diffs:
            break
        prev, cur = cur, [p + 1.0 / d for p, d in zip(prev[1:], diffs)]
        if col % 2 == 0:
            best = cur[-1]
    return best


#: most points per integrand call when the rows of several limits share it
_ROW_BLOCK = 4096


def _row_sums(g: Callable, x0s: list[float], v: np.ndarray,
              shared: Optional[np.ndarray]) -> list[complex]:
    """Per x0, the sum over v of shared - g(x0 + v), or of -g(x0 + v) when
    shared is None.  g runs on whole rows: at most _ROW_BLOCK points per
    call, or one longer row alone (see the module docstring)."""
    per = max(1, _ROW_BLOCK // v.size)
    out: list[complex] = []
    for i in range(0, len(x0s), per):
        vals = g(np.add.outer(x0s[i:i + per], v).ravel()).reshape(-1, v.size)
        out += (-vals if shared is None else shared - vals).sum(axis=1).tolist()
    return out


def fractional_sum_limits(f: EvalFn, xs: Sequence[float],
                          cfg: SummationConfig = DEFAULT_SUMMATION,
                          derivative: bool = False) -> list[FracSumResult]:
    """sum_{v=1}^{x} f(v), or its x-derivative, at each x > -1, in lock-step.

    Each x gives, to the bit, what its limit gives when run on its own:
    every limit keeps its own partial values, ``_wynn`` and stopping step.
    No limit runs at x0 = 0 for the value, where the shift is the whole
    sum.  A NaN or infinite x raises DomainError.  In strict mode the first
    x, in order, whose limit did not converge raises ConvergenceError.
    """
    for x in xs:
        if not -1.0 < float(x) < math.inf:
            raise DomainError(f"fractional sums are defined for x > -1, got {float(x)}")
    if f.domain_lo > 0.0:
        raise DomainError("summand must be defined on all of (0, inf)")
    g = f.derivative if derivative else f
    x0s = [float(x) - math.floor(x) if x >= 1.0 else float(x) for x in xs]
    nodes = [x0 + np.arange(1.0, float(x) - x0 + 0.5) for x, x0 in zip(xs, x0s)]
    shifts = [complex(np.sum(g(at))) if at.size else 0j for at in nodes]

    # per running limit: its partial values and extrapolants
    live = {x0: ([], []) for x0 in x0s if derivative or x0 != 0.0}
    running = dict.fromkeys(live, 0j)
    done: dict[float, FracSumResult] = {}
    prev_n, n = 0, cfg.n0
    while live:
        v = np.arange(prev_n + 1.0, n + 0.5)
        sums = _row_sums(g, list(live), v, None if derivative else f(v))
        edge = f(float(n))
        for (x0, (p, e)), total in zip(list(live.items()), sums):
            running[x0] += complex(total)
            p.append(complex(edge if derivative else x0 * edge) + running[x0])
            if len(p) >= 3:
                e.append(_wynn(p))
            err = abs(e[-1] - e[-2]) if len(e) >= 2 else math.inf
            if (len(p) >= SCHEDULE_LEN and err <= cfg.abs_tol) or 2 * n > cfg.max_n:
                done[x0] = FracSumResult(e[-1], float(err), n, err <= cfg.abs_tol)
                del live[x0]
        prev_n, n = n, 2 * n

    what = "derivative of the fractional sum" if derivative else "fractional sum"
    out = []
    for x, x0, shift, at in zip(xs, x0s, shifts, nodes):
        if x0 not in done:
            out.append(FracSumResult(shift, 0.0, at.size, True))
            continue
        res = done[x0]
        if cfg.strict and not res.converged:
            raise ConvergenceError(
                f"{what} of {f.label or 'summand'} at x={x} stalled at err ~ "
                f"{res.err_estimate:.3e} (abs_tol {cfg.abs_tol:.1e}, n up to {res.n_used})"
            )
        out.append(replace(res, value=res.value + shift))
    return out


def fractional_sum_limit(f: EvalFn, x: float,
                         cfg: SummationConfig = DEFAULT_SUMMATION) -> FracSumResult:
    """The fractional sum sum_{v=1}^{x} f(v) for x > -1.

    x >= 1 is reduced to x0 = x - floor(x), and f(x0+1) + ... + f(x) is
    added exactly.  At integer x that is the whole (exact) sum; otherwise
    the limit of S_n(x0) = x0 f(n) + sum_{v=1}^n (f(v) - f(v+x0)) is
    taken.  The one-point entry of ``fractional_sum_limits``.
    """
    return fractional_sum_limits(f, [x], cfg)[0]


def fractional_sum_derivative(f: EvalFn, x: float,
                              cfg: SummationConfig = DEFAULT_SUMMATION) -> FracSumResult:
    """d/dx sum_{v=1}^{x} f(v) for x > -1, for f with an analytic derivative.

    The limit of dS_n/dx = f(n) - sum_{v=1}^n f'(v+x0), plus f'(x0+1) + ...
    + f'(x) exactly, with x0 as in ``fractional_sum_limit``.  The one-point
    entry of ``fractional_sum_limits``.
    """
    return fractional_sum_limits(f, [x], cfg, derivative=True)[0]


_S_ONE_EXACT = 1e-8   # at |s-1| below this, switch to the digamma branch
_S_ONE_WARN = 1e-3    # below this, zeta(s) - zeta(s, x+1) cancels two poles


def frac_power(x, s: complex, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """The fractional generalized harmonic sum x^[-s] = sum_{v=1}^{x} v^(-s).

    Closed forms: zeta(s) - zeta(s, x+1) for s != 1, and gamma + Psi(x+1)
    at s = 1 (taken when |s-1| < 1e-8).  Defined for x > -1, Re(s) > -1.
    Accepts scalar or array x.
    """
    s = _finite_s(s, "frac_power")
    if s.real <= -1.0:
        raise DomainError(f"frac_power requires Re(s) > -1, got {s}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    work = np.atleast_1d(arr)
    if work.size and not np.all(work > -1.0):
        raise DomainError(f"frac_power requires x > -1, got min {work.min()}")
    if abs(s - 1.0) < _S_ONE_EXACT:
        out = euler_gamma() + digamma(work + 1.0)
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
    s = _finite_s(s, "frac_power_derivative")
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
    s = _finite_s(s, "frac_power_fn")
    if s.real <= -1.0:
        raise DomainError(f"frac_power_fn requires Re(s) > -1, got {s}")
    return EvalFn(
        -1.0,
        lambda x: frac_power(x, s, cfg),
        lambda x: frac_power_derivative(x, s, cfg),
        label=f"x^[-({s})]",
    )


def sum_log(x):
    """sum_{v=1}^{x} log v = log Gamma(x+1) for x > -1 (scalar or array)."""
    arr = np.asarray(x, dtype=float)
    work = np.atleast_1d(arr)
    if work.size and not np.all(work > -1.0):
        raise DomainError("sum_log requires x > -1")
    if work.size and not np.all(work < math.inf):
        raise DomainError("sum_log requires a finite x")
    out = log_gamma(work + 1.0)
    return complex(out[0]) if arr.ndim == 0 else out
