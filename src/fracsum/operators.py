"""The operator algebra on top of the summation engine.

    (x f)(x) = x * f(x)            multiplication by the coordinate
    p  = -i d/dx                   differentiation
    X  = Sigma x Delta             fractional sum of x * (forward difference)
    R  = Xp + pX

X maps functions on (-1, inf) back to functions on (-1, inf) and always
produces 0 at x = 0 (empty-sum convention).  p uses the analytic derivative
when the function carries one and Richardson-improved finite differences
otherwise.  Differentiating X f numerically perturbs the summation limit,
so apply_R tightens the sum tolerance on the differentiated branch: the
error budget h^2 + tol/h is minimised near h = 1e-4 once tol = 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .core import (
    NOT_FLAT,
    SCHEDULE_LEN,
    EvalFn,
    SummationConfig,
    flatness_probe,
    forward_difference,
    fractional_sum_limit,
    linear_combination,
)
from .errors import ConvergenceError, DomainError, OutOfRangeError

#: positive abscissas used for the lazy flatness check inside apply_X
PROBE_GRID = (0.5, 1.0, 2.5)

_MEMO_SIZE = 2 ** 16
_P_SUM_TOL = 1e-10
_P_SUM_MAX_N = 32768


@dataclass(frozen=True)
class OperatorConfig:
    """Differentiation step, summation config, and the default sample grid."""

    diff_step: float = 1e-4
    sum_cfg: SummationConfig = field(default_factory=SummationConfig)
    sample_grid: tuple[float, ...] = (-0.9, -0.5, -0.1, 0.25, 0.5, 1.0, 1.5, 2.5, 5.0, 10.0)

    def __post_init__(self) -> None:
        if not 1e-7 <= self.diff_step <= 1e-2:
            raise OutOfRangeError(f"diff_step must lie in [1e-7, 1e-2], got {self.diff_step}")
        if not self.sample_grid:
            raise OutOfRangeError("sample_grid must be nonempty")
        if min(self.sample_grid) <= -1.0:
            raise OutOfRangeError("sample_grid entries must exceed -1")


DEFAULT_OPERATOR = OperatorConfig()


def apply_x_mult(f: EvalFn) -> EvalFn:
    """(x f)(x) = x * f(x) on the same domain, product rule for the derivative."""

    def ev(x):
        return np.asarray(x, dtype=float) * f.eval(x) if isinstance(x, np.ndarray) else x * f.eval(x)

    dv = None
    if f.analytic_derivative is not None:
        def dv(x):  # noqa: F811
            return f.eval(x) + x * f.analytic_derivative(x)

    return EvalFn(f.domain_lo, ev, dv, label=f"x*{f.label}")


def apply_p(f: EvalFn, cfg: OperatorConfig = DEFAULT_OPERATOR) -> EvalFn:
    """p f = -i f'; analytic derivative when present, else finite differences.

    Numeric path: central stencil of step cfg.diff_step, Richardson-improved
    with the half step; within 2h of the left boundary a second-order
    one-sided stencil is used so no evaluation leaves the domain.
    """
    if f.analytic_derivative is not None:
        return EvalFn(f.domain_lo, lambda x: -1j * f.analytic_derivative(x),
                      label=f"p[{f.label}]")

    h = cfg.diff_step

    def central(xs, step):
        return (f.eval(xs + step) - f.eval(xs - step)) / (2.0 * step)

    def onesided(xs, step):
        return (-3.0 * f.eval(xs) + 4.0 * f.eval(xs + step) - f.eval(xs + 2.0 * step)) / (2.0 * step)

    def diff(xs, stencil):
        return (4.0 * stencil(xs, h / 2.0) - stencil(xs, h)) / 3.0

    def ev(x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        xs = np.atleast_1d(arr)
        out = np.empty(xs.shape, dtype=complex)
        near = (xs - f.domain_lo) < 2.0 * h
        if near.any():
            out[near] = diff(xs[near], onesided)
        if (~near).any():
            out[~near] = diff(xs[~near], central)
        return -1j * (complex(out[0]) if scalar else out)

    return EvalFn(f.domain_lo, ev, label=f"p[{f.label}]")


def apply_X(f: EvalFn, cfg: OperatorConfig = DEFAULT_OPERATOR) -> EvalFn:
    """X f = fractional sum of v * (Delta f)(v), a function on (-1, inf).

    By the empty-sum convention (X f)(0) = 0 exactly.  In strict mode the
    integrand must pass the flatness probe (checked lazily on first use);
    a not_flat classification raises ConvergenceError.  Point evaluations
    are memoized (LRU, 2^16 entries) because R queries cluster.
    """
    if f.domain_lo > -1.0:
        raise DomainError(f"apply_X needs a function on (-1, inf); got ({f.domain_lo}, inf)")
    integrand = apply_x_mult(forward_difference(f))
    checked = []

    def ensure_flat() -> None:
        if checked:
            return
        report = flatness_probe(integrand, PROBE_GRID, cfg.sum_cfg)
        if report.verdict == NOT_FLAT:
            raise ConvergenceError(
                f"x*Delta[{f.label}] classified not_flat; its fractional sum diverges"
            )
        checked.append(True)

    @lru_cache(maxsize=_MEMO_SIZE)
    def at(x: float) -> complex:
        if cfg.sum_cfg.strict:
            ensure_flat()
        return fractional_sum_limit(integrand, x, cfg.sum_cfg).value

    def ev(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return at(float(arr))
        return np.array([at(float(v)) for v in arr])

    return EvalFn(-1.0, ev, label=f"X[{f.label}]")


def apply_R(f: EvalFn, cfg: OperatorConfig = DEFAULT_OPERATOR) -> EvalFn:
    """R f = X p f + p X f on (-1, inf).

    The second term differentiates a summation limit, so its X is built
    with the sum tolerance tightened to 1e-10 (differencing divides the
    limit noise by the step) and the schedule capped near 32k: pointwise
    forward differences of a growing f cancel ~ f-sized values, so the
    accumulated rounding noise grows like n^(3/2 - Re s) and past ~32k the
    noise term of the h^2 + noise/h budget dominates the truncation gain.
    The tightened target is aspirational (push as far as the cap allows),
    so that branch never raises in strict mode; strictness keeps gating the
    other branch at the caller's own tolerance.
    """
    term_xp = apply_X(apply_p(f, cfg), cfg)
    sum_cfg = cfg.sum_cfg
    capped = max(min(sum_cfg.max_n, _P_SUM_MAX_N),
                 sum_cfg.n0 * 2 ** (SCHEDULE_LEN - 1))
    tight = replace(cfg, sum_cfg=replace(sum_cfg,
                                         abs_tol=min(sum_cfg.abs_tol, _P_SUM_TOL),
                                         max_n=capped, strict=False))
    term_px = apply_p(apply_X(f, tight), cfg)
    return linear_combination([(1.0, term_xp), (1.0, term_px)], label=f"R[{f.label}]")


def continuum_dilation(s: complex, verify: bool = True,
                       grid: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0),
                       cfg: OperatorConfig = DEFAULT_OPERATOR) -> complex:
    """Eigenvalue i(2s - 1) of x p + p x acting on x^(-s).

    The value itself is algebraic.  With verify=True a companion numeric
    check applies x(-i d/dx) + (-i d/dx) x to x^(-s) through the finite
    difference machinery on the grid and asserts the ratio against the
    formula (tolerance 1e-6).
    """
    s = complex(s)
    lam = 1j * (2.0 * s - 1.0)
    if verify:
        # no analytic derivative attached: the check must run through the
        # numeric p path, otherwise it would just restate the formula
        w = EvalFn(0.0, lambda x: np.exp(-s * np.log(x)), label=f"x^(-({s}))")
        applied = linear_combination(
            [(1.0, apply_x_mult(apply_p(w, cfg))), (1.0, apply_p(apply_x_mult(w), cfg))]
        )
        for x in grid:
            ratio = complex(applied(x)) / complex(w(x))
            if abs(ratio - lam) > 1e-6 * max(1.0, abs(lam)):
                raise ConvergenceError(
                    f"dilation check failed at x={x}: ratio {ratio} vs {lam}"
                )
    return lam
