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
the shift sum_{1}^{x} f = sum_{1}^{x-1} f + f(x).  The fractional sum at
x0 is Mueller-Schleicher's limit lim_n [x0 f(n) + sum_{v<=n} g(v)] with
g(v) = f(v) - f(v+x0); it exists for asymptotically flat f
(``flatness_probe`` classifies this) and reproduces the ordinary finite
sum at integer x.  The engine takes the partial values with Euler-Maclaurin
applied to the tail sum_{v>n} g(v), whose derivatives at n come from the
backward differences D of g at n (Gregory's formula):

    C_n = sum_{v<=n} g(v) + H_n - g(n)/2
          - (D + D^2/2 + D^3/3 + D^4/4) g(n) / 12 + (D^3 + 3 D^4/2) g(n) / 720

with H_n = int_n^{n+x0} f, by 8-point Gauss-Legendre (x0 may be
negative).  Only f is evaluated.  It runs C_n along the index schedule
SCHEDULE and extrapolates n -> inf with Wynn's epsilon algorithm.  The
limit is analytic in x, so the same loop takes the derivative under the
limit, with g(v) = -f'(v+x0) and H_n = f(n+x0).  The error estimate is
the change of the last extrapolant, but never below the rounding floor
of the magnitudes summed into C_n.  It is infinite while the end term
|g(n)| does not fall from one step to the next: the correction also sums
summands that are not flat, to their analytic continuation, and that is
not the limit.  A limit doubles n past SCHEDULE, up to MAX_N, while its
estimate exceeds abs_tol; from SCHEDULE's last step on it stops,
unconverged, at the first step whose end term did not fall or whose
floor, which only grows, tops abs_tol.

``fractional_sum_limits`` runs the limits of many x in lock-step, one per
distinct x0 (0.5, 1.5 and 2.5 share one).  Each schedule step evaluates
f at the integer nodes once for all of them, and the shifted nodes of
every running limit in one call per group of whole rows, with each row's
Gauss-Legendre nodes (for the derivative, H_n of all limits is one more
call); a limit leaves the batch when it stops.  The exact shifts are
grouped the same way, a row per x.  A group holds at most _ROW_BLOCK
points and a longer row is evaluated alone, because numpy multiplies
complex temporaries of 16384 points and up in place, by a loop whose last
bit may differ: so each x keeps the bits it has alone.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .config import DEFAULT_SPECFUN, DEFAULT_SUMMATION, SpecFunConfig, SummationConfig
from .errors import CancellationWarning, ConvergenceError, DomainError
from .specfun import (
    LOG_GAMMA_ULPS,
    TARGET_ABS_TOL,
    _as_1d,
    _riemann_zeta_cached,
    digamma,
    euler_gamma,
    hurwitz_zeta_with_error,
    log_gamma,
    riemann_zeta,
)

FLAT = "flat"
NOT_FLAT = "not_flat"
INCONCLUSIVE = "inconclusive"

_TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)


# Stays a dataclass: perfbench/tracer.py rewraps one with dataclasses.replace(fn, eval=...)
@dataclass(frozen=True)
class EvalFn:
    """A complex-valued function on (domain_lo, inf).

    ``eval`` is the pointwise map; it receives a 1-D float array and
    returns values of the same shape.  Calling the function, or its
    ``derivative``, checks the domain and adapts a scalar argument:
    ``eval`` sees a one-point array and the caller gets its element back.
    ``analytic_derivative``, when present, takes the same arrays and is
    held to the testable contract of matching Richardson-improved central
    differences (step 3e-4) to 1e-6 at interior points.
    """

    domain_lo: float
    eval: Callable
    analytic_derivative: Optional[Callable] = None
    label: str = ""

    def _at(self, fn: Callable, x, what: str):
        x = np.asarray(x, dtype=float)
        if x.size and not np.all(x > self.domain_lo):
            raise DomainError(f"{what} is defined on ({self.domain_lo}, inf); "
                              f"got argument min {x.min()}")
        out = fn(x.reshape(-1))
        return out[0] if x.ndim == 0 else out.reshape(x.shape)

    def __call__(self, x):
        return self._at(self.eval, x, self.label or "function")

    def derivative(self, x):
        if self.analytic_derivative is None:
            raise DomainError(f"{self.label or 'function'} carries no analytic derivative")
        return self._at(self.analytic_derivative, x,
                        f"derivative of {self.label or 'function'}")


def const_fn(c: complex = 1.0) -> EvalFn:
    c = complex(c)
    return EvalFn(-1.0, lambda x: np.full(x.shape, c),
                  lambda x: np.zeros(x.shape, dtype=complex), label=f"const({c})")


def log_fn() -> EvalFn:
    """x |-> log x on (0, inf)."""
    return EvalFn(0.0, np.log, lambda x: 1.0 / x, label="log")


def _finite_s(s: complex, who: str, re_above: Optional[float] = None) -> complex:
    """s as a complex, checked finite and, when re_above is given, to have
    Re(s) > re_above; the messages name ``who``."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"{who} requires a finite s, got {s}")
    if re_above is not None and s.real <= re_above:
        raise DomainError(f"{who} requires Re(s) > {re_above:g}, got {s}")
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


def _difference(f: EvalFn, h: float, name: str) -> EvalFn:
    """f(x) - f(x - h), defined on the domain of f shifted right by h.

    f (or its derivative) is evaluated once, on x and x - h together, and
    the two halves are subtracted.
    """

    def halves(fn: Callable) -> Callable:
        def ev(x):
            both = fn(np.concatenate([x, x - h]))
            return both[:x.size] - both[x.size:]

        return ev

    dv = None if f.analytic_derivative is None else halves(f.analytic_derivative)
    return EvalFn(f.domain_lo + h, halves(f.eval), dv, label=f"{name}[{f.label}]")


def forward_difference(f: EvalFn) -> EvalFn:
    """(Delta f)(x) = f(x) - f(x-1); maps U-functions to U+-functions."""
    return _difference(f, 1.0, "Delta")


def half_difference(f: EvalFn) -> EvalFn:
    """(Delta_1/2 f)(x) = f(x) - f(x - 1/2); shifts the domain by one half."""
    return _difference(f, 0.5, "HalfDelta")


#: the base index schedule, which every limit runs in full
SCHEDULE = (16, 32, 64, 128, 256, 512)
#: the indices n at which ``flatness_probe`` samples f(n + x) - f(n)
FLATNESS_NS = (64, 128, 256, 512, 1024, 2048)
#: the last index an unconverged limit doubles up to
MAX_N = 131072


class FracSumResult(NamedTuple):
    """Value of a fractional sum (or of its derivative) plus diagnostics.

    ``err_estimate`` is max(|e_k - e_(k-1)|, floor) over the last two
    extrapolants, where the floor is a few ulps of the magnitudes summed
    into the partial values; it is 0 for an exact integer sum, and inf
    when the last step's end term |g(n)| did not fall below _FALL_RATIO
    times the step before's (or below the floor).  An unconverged limit
    reports the step it stopped at (see SummationConfig).
    """

    value: complex
    err_estimate: float
    n_used: int
    converged: bool


class FlatnessSample(NamedTuple):
    x: float
    ns: tuple[int, ...]
    diffs: tuple[float, ...]
    decay_exponent: float
    verdict: str


class FlatnessReport(NamedTuple):
    verdict: str
    samples: tuple[FlatnessSample, ...]


def flatness_probe(f: EvalFn, x_samples: Iterable[float],
                   cfg: SummationConfig = DEFAULT_SUMMATION) -> FlatnessReport:
    """Classify whether f(n+x) - f(n) -> 0 along the index schedule.

    This is an explicit finite-sample heuristic, not a proof.  Per sample it
    inspects d_n = |f(n+x) - f(n)| on FLATNESS_NS and calls the
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
    narr = np.asarray(FLATNESS_NS, dtype=float)
    at_n = f(narr)
    samples = []
    for x in xs:
        d = np.abs(f(narr + x) - at_n)
        diffs = tuple(d.tolist())
        if d.max() <= cfg.abs_tol:
            samples.append(FlatnessSample(x, FLATNESS_NS, diffs, math.inf, FLAT))
            continue
        tail = d[1:]
        # a zero difference gives a ratio of 0, inf or nan, and a ratio of 0
        # a log of -inf, which the median and the verdict handle
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = tail[1:] / tail[:-1]
            ratios = ratios[np.isfinite(ratios)]
            logs = np.sort(np.log2(ratios))
        if ratios.size == 0:
            samples.append(FlatnessSample(x, FLATNESS_NS, diffs, math.nan, INCONCLUSIVE))
            continue
        # np.median's value, taken by hand: on its first call np.median
        # imports numpy.ma, which costs a run more than this whole probe
        mid = logs.size // 2
        median = logs[mid] if logs.size % 2 else (logs[mid - 1] + logs[mid]) / 2
        alpha = float(-median)
        if np.all(ratios < 0.97) and alpha >= 0.05:
            verdict = FLAT
        elif alpha <= 0.02 and d[-1] >= 0.5 * d.max() and d[-1] > 10 * cfg.abs_tol:
            verdict = NOT_FLAT
        else:
            verdict = INCONCLUSIVE
        samples.append(FlatnessSample(x, FLATNESS_NS, diffs, alpha, verdict))

    if any(s.verdict == NOT_FLAT for s in samples):
        overall = NOT_FLAT
    elif all(s.verdict == FLAT for s in samples):
        overall = FLAT
    else:
        overall = INCONCLUSIVE
    return FlatnessReport(overall, tuple(samples))


def _wynn(partials: list[complex]) -> complex:
    """Wynn's epsilon algorithm: the iterated Shanks transform of partials.

    On a ratio-2 schedule each power n^(-a) in the truncation of C_n is a
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
#: most terms f(x0+1) + ... + f(x) the exact shift of an x >= 1 may add
MAX_SHIFT_TERMS = 2 ** 20

#: the 8-point Gauss-Legendre rule on [0, 1]: nodes, and weights summing to 1
_GL_NODES = (0.019855071751231884, 0.10166676129318664, 0.2372337950418355,
             0.4082826787521751, 0.591717321247825, 0.7627662049581645,
             0.8983332387068134, 0.9801449282487681)
_GL_WEIGHTS = (0.05061426814518813, 0.11119051722668724, 0.15685332293894363,
               0.181341891689181, 0.181341891689181, 0.15685332293894363,
               0.11119051722668724, 0.05061426814518813)
#: Gregory's end correction -g(n)/2 - g'(n)/12 + g'''(n)/720 as weights on
#: g(n-4), ..., g(n): g' = (D + D^2/2 + D^3/3 + D^4/4) g and
#: g''' = (D^3 + 3 D^4/2) g, in backward differences D at n
_GREGORY = (-27 / 1440, 146 / 1440, -336 / 1440, 462 / 1440, -965 / 1440)
#: an estimate's rounding floor, in ulps of the magnitudes summed into C_n
_FLOOR_ULPS = 8.0
#: most a limit's end term |g(n)| may keep of its value one step earlier,
#: unless it is below the rounding floor, for the limit to have an estimate
_FALL_RATIO = 0.999


def _groups(sizes: Sequence[int]) -> Iterable[slice]:
    """Runs of whole rows of these sizes, in order, for one call each (see
    the module docstring); rows of no points after the last point take none."""
    start = total = 0
    for i, size in enumerate(sizes):
        if total and total + size > _ROW_BLOCK:
            yield slice(start, i)
            start, total = i, 0
        total += size
    if total:
        yield slice(start, len(sizes))


def _row_sums(g: Callable, x0s: np.ndarray, v: np.ndarray,
              shared: Optional[np.ndarray], extra: Optional[np.ndarray] = None) -> list[tuple]:
    """Per x0, the terms shared - g(x0 + v) over the row v (-g(x0 + v) when
    shared is None) as (their sum, the magnitudes they were formed from,
    their last five), and when ``extra`` (one row of points per x0) is
    given, g at x0's extra points as a fourth field; they share the call.
    g runs on whole rows, one call per run of ``_groups``."""
    width = v.size + (0 if extra is None else extra.shape[1])
    out: list[tuple] = []
    for run in _groups([width] * x0s.size):
        points = np.add.outer(x0s[run], v)
        if extra is not None:
            points = np.concatenate([points, extra[run]], axis=1)
        vals = g(points.ravel()).reshape(-1, width)
        at = vals[:, :v.size]
        terms = -at if shared is None else shared - at
        mags = np.abs(at).sum(axis=1)
        if shared is not None:
            mags += np.abs(shared).sum()
        fields = [terms.sum(axis=1).tolist(), mags.tolist(), terms[:, -5:].tolist()]
        if extra is not None:
            fields.append(vals[:, v.size:].tolist())
        out += zip(*fields)
    return out


def fractional_sum_limits(f: EvalFn, xs: Sequence[float],
                          cfg: SummationConfig = DEFAULT_SUMMATION,
                          derivative: bool = False) -> list[FracSumResult]:
    """sum_{v=1}^{x} f(v), or its x-derivative, at each x > -1, in lock-step.

    Each x gives, to the bit, what its limit gives when run on its own:
    every limit keeps its own partial values, ``_wynn`` and stopping step.
    No limit runs at x0 = 0 for the value, where the shift is the whole
    sum.  A NaN or infinite x raises DomainError, and so does an x whose
    exact shift would take more than MAX_SHIFT_TERMS terms, before any
    node is built.  In strict mode the first x, in order, whose limit did
    not converge raises ConvergenceError.
    """
    for x in map(float, xs):
        if not -1.0 < x < math.inf:
            raise DomainError(f"fractional sums are defined for x > -1, got {x}")
        if x >= MAX_SHIFT_TERMS + 1.0:
            raise DomainError(f"the exact shift adds at most {MAX_SHIFT_TERMS} terms, "
                              f"so x must be below {MAX_SHIFT_TERMS + 1}; got {x}")
    if f.domain_lo > 0.0:
        raise DomainError("summand must be defined on all of (0, inf)")
    g = f.derivative if derivative else f
    x0s = [float(x) - math.floor(x) if x >= 1.0 else float(x) for x in xs]
    nodes = [x0 + np.arange(1.0, float(x) - x0 + 0.5) for x, x0 in zip(xs, x0s)]
    # the exact shifts: g in runs of whole x (see _groups), each x its own sum
    sizes = [at.size for at in nodes]
    vals = np.concatenate([[]] + [g(np.concatenate(nodes[run])) for run in _groups(sizes)])
    shifts = [complex(np.sum(part)) for part in np.split(vals, np.cumsum(sizes)[:-1])]

    # per running limit: its partial values C_n, its extrapolants, the
    # running sums of its terms and of their magnitudes, and its last end
    live = {x0: ([], [], [0j, 0.0, math.inf]) for x0 in x0s if derivative or x0 != 0.0}
    done: dict[float, FracSumResult] = {}
    prev_n, n = 0, SCHEDULE[0]
    while live:
        v = np.arange(prev_n + 1.0, n + 0.5)
        starts = np.array(list(live))
        if derivative:
            # g(v) = -f'(v + x0) and H_n = f(n + x0)
            rows = _row_sums(g, starts, v, None)
            heads = f(n + starts).tolist()
        else:
            # g(v) = f(v) - f(v + x0) and H_n = int_n^(n+x0) f, by Gauss-Legendre
            rows = _row_sums(f, starts, v, f(v), n + np.multiply.outer(starts, _GL_NODES))
            heads = [x0 * sum(w * y for w, y in zip(_GL_WEIGHTS, ends))
                     for x0, (*_, ends) in zip(starts.tolist(), rows)]
        for (x0, (p, e, acc)), (total, mag, last, *_), head in zip(
                list(live.items()), rows, heads):
            acc[0] += total
            acc[1] += mag + abs(head)
            p.append(acc[0] + head + sum(w * y for w, y in zip(_GREGORY, last)))
            if len(p) >= 3:
                e.append(_wynn(p))
            floor = _FLOOR_ULPS * _EPS * (acc[1] + abs(p[-1]))
            # the end |g(n)| must fall, or no limit exists to estimate
            end = max(map(abs, last))
            falling = end <= _FALL_RATIO * acc[2] or end <= floor
            acc[2] = end
            err = max(abs(e[-1] - e[-2]), floor) if len(e) >= 2 and falling else math.inf
            # from the base schedule's end a limit also stops once it cannot
            # converge: its end term did not fall, or its floor (which only
            # grows) tops abs_tol
            known = err <= cfg.abs_tol or not falling or _FLOOR_ULPS * _EPS * acc[1] > cfg.abs_tol
            if (n >= SCHEDULE[-1] and known) or 2 * n > MAX_N:
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
            why = "" if math.isfinite(res.err_estimate) else \
                "; its terms g(n) do not fall, so the summand is not flat"
            raise ConvergenceError(
                f"{what} of {f.label or 'summand'} at x={x} stalled at err ~ "
                f"{res.err_estimate:.3e} (abs_tol {cfg.abs_tol:.1e}, n up to {res.n_used}){why}"
            )
        out.append(res._replace(value=res.value + shift))
    return out


def fractional_sum_limit(f: EvalFn, x: float,
                         cfg: SummationConfig = DEFAULT_SUMMATION) -> FracSumResult:
    """The fractional sum sum_{v=1}^{x} f(v) for x > -1.

    x >= 1 is reduced to x0 = x - floor(x), and f(x0+1) + ... + f(x) is
    added exactly.  At integer x that is the whole (exact) sum; otherwise
    the limit of the end-corrected partial values C_n at x0 (see the module
    docstring) is taken.  The one-point entry of ``fractional_sum_limits``.
    """
    return fractional_sum_limits(f, [x], cfg)[0]


_S_ONE_EXACT = 1e-8   # at |s-1| below this, switch to the digamma branch
_S_ONE_WARN = 1e-3    # below this, zeta(s) - zeta(s, x+1) cancels two poles


def frac_power_with_error(x, s: complex, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """``(x^[-s], bound)`` for the fractional generalized harmonic sum
    x^[-s] = sum_{v=1}^{x} v^(-s), x > -1, Re(s) > -1, scalar or array x.

    Closed forms: zeta(s) - zeta(s, x+1) for s != 1, and gamma + Psi(x+1)
    at s = 1 (taken when |s-1| < _S_ONE_EXACT).  The bound is one float:
    TARGET_ABS_TOL on the digamma branch, else the sum of the bounds of
    zeta(s) (cached with it) and of the one Hurwitz call at x + 1.
    """
    s = _finite_s(s, "frac_power", -1.0)
    work, back = _as_1d(x, float)
    if work.size and not np.all(work > -1.0):
        raise DomainError(f"frac_power requires x > -1, got min {work.min()}")
    if abs(s - 1.0) < _S_ONE_EXACT:
        return back(euler_gamma() + digamma(work + 1.0)), TARGET_ABS_TOL
    if abs(s - 1.0) < _S_ONE_WARN:
        warnings.warn(
            f"frac_power at s={s}: zeta(s) - zeta(s, x+1) cancels two "
            "near-poles; expect digit loss",
            CancellationWarning, stacklevel=2,
        )
    zeta_s = riemann_zeta(s, cfg)  # the entry perfbench counts; the cache holds its bound
    tail, bound = hurwitz_zeta_with_error(s, work + 1.0, cfg)
    return back(zeta_s - tail), _riemann_zeta_cached(s, cfg)[1] + bound


def frac_power(x, s: complex, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """x^[-s], the value of ``frac_power_with_error``."""
    return frac_power_with_error(x, s, cfg)[0]


def frac_power_derivative(x, s: complex, cfg: SpecFunConfig = DEFAULT_SPECFUN):
    """d/dx x^[-s] = -s x^[-s-1] + s zeta(1+s), for Re(s) > -1, s != 0.

    At s = 0 both terms carry the factor s and the expression returns 0;
    the derivative contract covers s != 0 only.
    """
    s = _finite_s(s, "frac_power_derivative", -1.0)
    work, back = _as_1d(x, float)
    if work.size and not np.all(work > -1.0):
        raise DomainError("frac_power_derivative requires x > -1")
    if s == 0:
        return back(np.zeros(work.shape, dtype=complex))
    return back(-s * frac_power(work, s + 1.0, cfg) + s * riemann_zeta(1.0 + s, cfg))


def frac_power_fn(s: complex, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> EvalFn:
    """x^[-s] wrapped as an EvalFn on (-1, inf) with its analytic derivative."""
    s = _finite_s(s, "frac_power_fn", -1.0)
    return EvalFn(-1.0, lambda x: frac_power(x, s, cfg),
                  lambda x: frac_power_derivative(x, s, cfg), label=f"x^[-({s})]")


def sum_log_with_error(x):
    """``(value, bound)`` for sum_{v=1}^{x} log v = log Gamma(x+1), x > -1,
    scalar or array: log_gamma's bound at the largest |value|."""
    work, back = _as_1d(x, float)
    if work.size and not np.all(work > -1.0):
        raise DomainError("sum_log requires x > -1")
    if work.size and not np.all(work < math.inf):
        raise DomainError("sum_log requires a finite x")
    value = log_gamma(work + 1.0)
    return back(value), TARGET_ABS_TOL + LOG_GAMMA_ULPS * _EPS * float(abs(value).max(initial=0.0))


def sum_log(x):
    """sum_{v=1}^{x} log v, the value of ``sum_log_with_error``."""
    return sum_log_with_error(x)[0]
