"""Deterministic property suites behind the ``verify`` CLI command.

Each check states one identity the library claims, evaluates its defect
over arrays of points, and compares the largest |defect| to a fixed
tolerance.  A ConvergenceError raised while measuring fails that check
with measure inf, and the suite goes on.  Randomised cases are drawn from
a seeded generator before their check runs, so a given seed always
produces the same report.  These suites are smoke-level; the full test
suite under tests/ is the authoritative one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_OPERATOR, DEFAULT_SPECFUN, DEFAULT_SUMMATION, OperatorConfig
from .core import (
    FLAT,
    NOT_FLAT,
    EvalFn,
    const_fn,
    flatness_probe,
    forward_difference,
    frac_power,
    frac_power_derivative,
    frac_power_fn,
    fractional_sum_limit,
    fractional_sum_limits,
    linear_combination,
    log_fn,
    power_fn,
    sin_2pi_fn,
    sum_log,
)
from .operators import apply_p, apply_R, apply_X, apply_x_mult
from .errors import ConvergenceError
from .specfun import riemann_zeta
from .spectrum import boundary_report, eigenvalue_of


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measure: float
    tolerance: float
    detail: str = ""


def _check(name: str, tol: float, measure: Callable) -> CheckResult:
    """Run measure() now (it may read names the suite rebinds later); it
    returns the defect or (defect, detail).  A ConvergenceError fails the
    check with measure inf."""
    try:
        value = measure()
    except ConvergenceError as exc:
        return CheckResult(name, False, math.inf, float(tol), str(exc))
    value, detail = value if isinstance(value, tuple) else (value, "")
    return CheckResult(name, bool(value < tol), float(value), float(tol), detail)


def _sup(defects) -> float:
    """Largest |d| over the defects (0 if none; nan propagates), by Python's
    complex abs: numpy's vectorised abs does not always round the same."""
    return float(np.max([abs(d) for d in np.ravel(defects).tolist()], initial=0.0))


def _sigma(f: EvalFn, xs, sum_cfg) -> np.ndarray:
    return np.array([r.value for r in fractional_sum_limits(f, xs, sum_cfg)])


def _richardson_diff(fn, xs, h=3e-4) -> np.ndarray:
    """Richardson-improved central differences of fn at each x, from one
    call of fn on every stencil point; the arithmetic is per point in
    Python complex, as it would be at a scalar x.

    The step balances the h^4 truncation against rounding: x^[-s] carries
    up to ~1e-14 of rounding noise, which the stencil divides by h.  Over
    the derivative check's draws the worst error against the exact
    derivative is 6e-11 at this step.  At h = 1e-5 it is 2e-9, far above
    the formula's own error (1e-15), so the check would measure the
    reference."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    vals = np.asarray(fn(np.concatenate([xs + h, xs - h, xs + h / 2, xs - h / 2])))
    return np.array([(4 * ((up2 - dn2) / h) - (up - dn) / (2 * h)) / 3
                     for up, dn, up2, dn2 in vals.reshape(4, -1).T.tolist()])


def _dilation_defect(s: complex, op_cfg: OperatorConfig = DEFAULT_OPERATOR) -> float:
    """Largest |ratio - lam| / max(1, |lam|) over x in (0.5, 1, 2, 5), where
    ratio = ((x p + p x) w)(x) / w(x) for w = x^(-s) and lam = i(2s - 1).
    w carries no analytic derivative, so both p's difference it
    numerically: the measure does not restate the formula."""
    s = complex(s)
    lam = eigenvalue_of(s)
    grid = (0.5, 1.0, 2.0, 5.0)
    w = EvalFn(0.0, lambda x: np.exp(-s * np.log(x)), label=f"x^(-({s}))")
    applied = linear_combination(
        [(1.0, apply_x_mult(apply_p(w, op_cfg))), (1.0, apply_p(apply_x_mult(w), op_cfg))])
    return _sup(applied(grid) / w(grid) - lam) / max(1.0, abs(lam))


def lemma_suite(seed: int = 0,
                sum_cfg=DEFAULT_SUMMATION,
                spec_cfg=DEFAULT_SPECFUN) -> list[CheckResult]:
    """Identities of the summation calculus itself."""
    rng = random.Random(seed)
    out = []

    # Delta after Sigma returns the summand: Sigma f(x) - Sigma f(x-1) = f(x).
    xs = np.array([0.5, 1.7, 3.3, 4.9])

    def delta_sigma(f):
        sig = _sigma(f, np.concatenate([xs, xs - 1.0]), sum_cfg)
        return sig[:xs.size] - sig[xs.size:] - f(xs)

    out.append(_check("delta_after_sigma_recovers_summand", 1e-6, lambda: _sup(
        [delta_sigma(f) for f in (log_fn(), power_fn(0.7), power_fn(0.5 + 2j))])))

    # Limit engine against the Hurwitz closed form, and its error estimate.
    cases = [(rng.uniform(-0.8, 6.0), complex(rng.uniform(0.2, 2.4), rng.uniform(-8.0, 8.0)))
             for _ in range(6)]
    cases = [(x, s) for x, s in cases if abs(s - 1.0) >= 0.05 and not float(x).is_integer()]

    def limit_engine():
        ratios, above = [], 0
        for x, s in cases:
            res = fractional_sum_limit(power_fn(s), x, sum_cfg)
            err = abs(res.value - frac_power(x, s, spec_cfg))
            ratios.append(err / max(1e-6, 10.0 * res.err_estimate))
            above += err > max(res.err_estimate, 1e-14)
        return _sup(ratios), f"{above} case(s) above the reported estimate"

    out.append(_check("limit_engine_matches_closed_form", 1.0, limit_engine))

    # Integer arguments reproduce plain finite sums.
    exact = [sum(math.log(k) for k in range(1, m + 1)) for m in range(5)]
    out.append(_check("integer_arguments_exact", 1e-12, lambda: _sup(
        _sigma(log_fn(), np.arange(5.0), sum_cfg) - exact)))

    # Sigma log equals log Gamma(x+1).
    xs_log = (-0.5, 0.5, 2.5)
    out.append(_check("sigma_log_is_log_gamma", 1e-6, lambda: _sup(
        _sigma(log_fn(), xs_log, sum_cfg) - sum_log(xs_log))))

    # Derivative formula vs Richardson differences.
    cases = [(rng.uniform(-0.5, 5.0), complex(rng.uniform(0.2, 2.4), rng.uniform(-5.0, 5.0)))
             for _ in range(6)]
    cases = [(x, s) for x, s in cases if abs(s) >= 0.1 and abs(s - 1.0) >= 0.05]
    out.append(_check("derivative_formula_matches_differences", 1e-6, lambda: _sup(
        [_richardson_diff(lambda u: frac_power(u, s, spec_cfg), x)
         - frac_power_derivative(x, s, spec_cfg) for x, s in cases])))

    # Boundary identity at x = -1/2: (-1/2)^[-s] = (2 - 2^s) zeta(s).
    ss = [complex(rng.uniform(-0.8, 2.5), rng.uniform(-8.0, 8.0)) for _ in range(5)]
    out.append(_check("half_point_boundary_identity", 1e-9, lambda: _sup(
        [boundary_report(s, spec_cfg).identity_defect for s in ss if abs(s - 1.0) >= 0.1])))

    # Flatness classification on the power family.
    probes = (log_fn(), power_fn(0.5), power_fn(-1.0), power_fn(-1.5))
    out.append(_check("flatness_classification", 0.5, lambda: float(
        [flatness_probe(f, (0.5, 1.0, 2.0), sum_cfg).verdict for f in probes]
        != [FLAT, FLAT, NOT_FLAT, NOT_FLAT])))
    return out


def operator_suite(seed: int = 0,
                   op_cfg: OperatorConfig = DEFAULT_OPERATOR,
                   spec_cfg=DEFAULT_SPECFUN) -> list[CheckResult]:
    """Identities of the operator algebra, incl. the numeric p path."""
    rng = random.Random(seed)
    out = []

    # Constants and sin(2 pi x) are annihilated by R.
    grid = np.asarray([x for x in op_cfg.sample_grid if x > -0.5])
    out.append(_check("kernel_of_difference_annihilated", 1e-6, lambda: _sup(
        [apply_R(f, op_cfg)(grid) for f in (const_fn(2.0 - 1j), sin_2pi_fn())])))

    # X produces 0 at the origin, exactly (empty-sum convention).
    out.append(_check("x_operator_vanishes_at_zero", 1e-300, lambda: abs(
        complex(apply_X(frac_power_fn(1.3, spec_cfg), op_cfg)(0.0)))))

    # Delta X f = x Delta f.
    xs = np.array([0.5, 1.5, 3.5])
    out.append(_check("difference_commutes_through_x_sum", 1e-6, lambda: _sup(
        [forward_difference(apply_X(f, op_cfg))(xs) - xs * forward_difference(f)(xs)
         for f in (frac_power_fn(s, spec_cfg) for s in (0.7, 1.3, 0.5 + 2j))])))

    # Delta p f = p Delta f on functions defined on all of (-1, inf).
    xs = np.array([0.5, 1.25, 2.75])
    out.append(_check("difference_commutes_with_derivative", 1e-6, lambda: _sup(
        [forward_difference(apply_p(f, op_cfg))(xs) - apply_p(forward_difference(f), op_cfg)(xs)
         for f in (frac_power_fn(0.8, spec_cfg), sin_2pi_fn())])))

    # Numeric differentiation against the analytic derivative.  The point
    # near the domain edge has large higher derivatives, so a coarse
    # diff_step visibly breaks this check (the h^4 truncation term).
    ss = [complex(rng.uniform(0.3, 2.2), rng.uniform(-3.0, 3.0)) for _ in range(4)]
    xs_p = np.array([-0.75, 0.25, 1.0, 4.0])

    def numeric_minus_analytic(f):
        stripped = EvalFn(f.domain_lo, f.eval, None, label=f.label)
        return apply_p(stripped, op_cfg)(xs_p) - apply_p(f, op_cfg)(xs_p)

    out.append(_check("numeric_derivative_matches_analytic", 1e-6, lambda: _sup(
        [numeric_minus_analytic(frac_power_fn(s, spec_cfg)) for s in ss if abs(s - 1.0) >= 0.05])))

    # x-multiplication respects the product rule.
    f = frac_power_fn(1.7, spec_cfg)
    xs = np.array([0.5, 2.0])
    out.append(_check("x_mult_product_rule", 1e-6, lambda: _sup(
        apply_x_mult(f).derivative(xs) - _richardson_diff(lambda u: u * f(u), xs))))

    # x p + p x has the eigenfunction x^(-s), eigenvalue i(2s-1).
    s = 0.6 + 1.5j
    out.append(_check("continuum_dilation_eigenvalue", 1e-6,
                      lambda: _dilation_defect(s, op_cfg)))

    # One full numeric R against the closed form,
    # R x^[-s] = i(2s-1) x^[-s] - i(s-1) zeta(s) (the nested-limit path).
    s = 2.0 + 0j
    f = frac_power_fn(s, spec_cfg)
    xs = np.array([0.5, 1.5])
    out.append(_check("numeric_R_matches_closed_form", 1e-8, lambda: _sup(
        apply_R(f, op_cfg)(xs)
        - (eigenvalue_of(s) * f(xs) - 1j * (s - 1.0) * riemann_zeta(s, spec_cfg)))))
    return out


def run_suite(which: str, seed: int = 0,
              op_cfg: OperatorConfig = DEFAULT_OPERATOR,
              spec_cfg=DEFAULT_SPECFUN) -> list[CheckResult]:
    """The lemma suite, the operator suite, or both ("all"); the lemmas
    run on op_cfg.sum_cfg, the summation config of the operators."""
    if which == "lemmas":
        return lemma_suite(seed, op_cfg.sum_cfg, spec_cfg)
    if which == "operators":
        return operator_suite(seed, op_cfg, spec_cfg)
    if which == "all":
        return (lemma_suite(seed, op_cfg.sum_cfg, spec_cfg)
                + operator_suite(seed, op_cfg, spec_cfg))
    raise ValueError(f"unknown suite {which!r}")
