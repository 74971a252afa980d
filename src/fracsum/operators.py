"""The operator algebra on top of the summation engine.

    (x f)(x) = x * f(x)            multiplication by the coordinate
    p  = -i d/dx                   differentiation
    X  = Sigma x Delta             fractional sum of x * (forward difference)
    R  = Xp + pX

X maps functions on (-1, inf) back to functions on (-1, inf) and always
produces 0 at x = 0 (empty-sum convention).  p uses the analytic derivative
when the function carries one and Richardson-improved finite differences
otherwise.  X f carries an analytic derivative whenever f does: the
derivative of its summation limit, taken under the limit.  So p X f never
differences a summation limit, and R needs no special configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    NOT_FLAT,
    EvalFn,
    SummationConfig,
    flatness_probe,
    forward_difference,
    fractional_sum_limits,
    linear_combination,
)
from .errors import ConvergenceError, DomainError, OutOfRangeError

#: positive abscissas used for the lazy flatness check inside apply_X
PROBE_GRID = (0.5, 1.0, 2.5)


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
        return x * f.eval(x)

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

    def ev(xs):
        out = np.empty(xs.shape, dtype=complex)
        near = (xs - f.domain_lo) < 2.0 * h
        if near.any():
            out[near] = diff(xs[near], onesided)
        if (~near).any():
            out[~near] = diff(xs[~near], central)
        return -1j * out

    return EvalFn(f.domain_lo, ev, label=f"p[{f.label}]")


def apply_X(f: EvalFn, cfg: OperatorConfig = DEFAULT_OPERATOR) -> EvalFn:
    """X f = fractional sum of v * (Delta f)(v), a function on (-1, inf).

    By the empty-sum convention (X f)(0) = 0 exactly.  When f carries an
    analytic derivative, so does X f: the fractional sum's derivative,
    taken under the limit.  An array of x is one lock-step batch of
    limits, one per distinct x0, sharing the integer nodes and grouped by
    whole rows (``core.fractional_sum_limits``).  In strict mode the
    integrand must pass the flatness probe (checked lazily on first use,
    before any limit); a not_flat classification raises ConvergenceError.
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

    def pointwise(derivative: bool):
        def at(xs):
            if cfg.sum_cfg.strict:
                ensure_flat()
            return np.array([r.value for r in fractional_sum_limits(
                integrand, xs.tolist(), cfg.sum_cfg, derivative)])

        return at

    dv = None
    if integrand.analytic_derivative is not None:
        dv = pointwise(True)
    return EvalFn(-1.0, pointwise(False), dv, label=f"X[{f.label}]")


def apply_R(f: EvalFn, cfg: OperatorConfig = DEFAULT_OPERATOR) -> EvalFn:
    """R f = X p f + p X f on (-1, inf).

    When f carries an analytic derivative, p X f is the derivative of X f's
    summation limit taken under the limit; otherwise p differences X f
    numerically like any other function.
    """
    term_xp = apply_X(apply_p(f, cfg), cfg)
    term_px = apply_p(apply_X(f, cfg), cfg)
    return linear_combination([(1.0, term_xp), (1.0, term_px)], label=f"R[{f.label}]")


def eigenvalue_of(s: complex) -> complex:
    """The would-be eigenvalue i(2s - 1) of R at x^[-s]; purely algebraic."""
    return 1j * (2.0 * complex(s) - 1.0)


def continuum_dilation(s: complex, cfg: OperatorConfig = DEFAULT_OPERATOR) -> complex:
    """Eigenvalue ``eigenvalue_of(s)`` of x p + p x acting on x^(-s), checked.

    The value itself is algebraic.  A companion numeric check applies
    x(-i d/dx) + (-i d/dx) x to x^(-s) through the finite-difference
    machinery on the grid (0.5, 1, 2, 5) and asserts the ratio against the
    formula (tolerance 1e-6).
    """
    s = complex(s)
    lam = eigenvalue_of(s)
    grid = (0.5, 1.0, 2.0, 5.0)
    # no analytic derivative attached: the check must run through the
    # numeric p path, otherwise it would just restate the formula
    w = EvalFn(0.0, lambda x: np.exp(-s * np.log(x)), label=f"x^(-({s}))")
    applied = linear_combination(
        [(1.0, apply_x_mult(apply_p(w, cfg))), (1.0, apply_p(apply_x_mult(w), cfg))]
    )
    ratios = applied(grid) / w(grid)
    off = np.flatnonzero(np.abs(ratios - lam) > 1e-6 * max(1.0, abs(lam)))
    if off.size:
        raise ConvergenceError(f"dilation check failed at x={grid[off[0]]}: "
                               f"ratio {complex(ratios[off[0]])} vs {lam}")
    return lam
