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

import numpy as np

from .config import DEFAULT_OPERATOR, OperatorConfig
from .core import EvalFn, forward_difference, fractional_sum_limits, linear_combination
from .errors import DomainError


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
    one-sided stencil is used so no evaluation leaves the domain.  An
    evaluation calls f once, on the four stencil points of every x.
    """
    if f.analytic_derivative is not None:
        return EvalFn(f.domain_lo, lambda x: -1j * f.analytic_derivative(x),
                      label=f"p[{f.label}]")

    h = cfg.diff_step

    def central(up, down, step):
        return (up - down) / (2.0 * step)

    def onesided(at, up, up2, step):
        return (-3.0 * at + 4.0 * up - up2) / (2.0 * step)

    def richardson(fine, coarse):
        return (4.0 * fine - coarse) / 3.0

    def ev(xs):
        near = (xs - f.domain_lo) < 2.0 * h
        # each point's four stencil points, all in one call of f
        points = np.where(near, [xs, xs + h / 2.0, xs + h, xs + 2.0 * h],
                          [xs + h / 2.0, xs - h / 2.0, xs + h, xs - h])
        vals = f.eval(points.ravel()).reshape(4, -1)
        out = np.empty(xs.shape, dtype=complex)
        at, up, up2, up4 = vals[:, near]
        out[near] = richardson(onesided(at, up, up2, h / 2.0), onesided(at, up2, up4, h))
        up, down, up2, down2 = vals[:, ~near]
        out[~near] = richardson(central(up, down, h / 2.0), central(up2, down2, h))
        return -1j * out

    return EvalFn(f.domain_lo, ev, label=f"p[{f.label}]")


def apply_X(f: EvalFn, cfg: OperatorConfig = DEFAULT_OPERATOR) -> EvalFn:
    """X f = fractional sum of v * (Delta f)(v), a function on (-1, inf).

    By the empty-sum convention (X f)(0) = 0 exactly.  When f carries an
    analytic derivative, so does X f: the fractional sum's derivative,
    taken under the limit.  An array of x is one lock-step batch of
    limits, one per distinct x0, sharing the integer nodes and grouped by
    whole rows (``core.fractional_sum_limits``).  Each evaluation of the
    integrand v * (Delta f)(v) calls f once (and f' once for its
    derivative), on the points and their left neighbours together.  The
    limits alone judge flatness: one whose terms do not fall stops
    unconverged, and in strict mode raises ConvergenceError.
    """
    if f.domain_lo > -1.0:
        raise DomainError(f"apply_X needs a function on (-1, inf); got ({f.domain_lo}, inf)")
    integrand = apply_x_mult(forward_difference(f))

    def pointwise(derivative: bool):
        def at(xs):
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
