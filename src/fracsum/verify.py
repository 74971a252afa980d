"""Deterministic property suites behind the ``verify`` CLI command.

Each check measures a defect against an identity the library claims and
compares it to a fixed tolerance.  Randomised cases are drawn from a seeded
generator, so a given seed always produces the same report.  These suites
are smoke-level; the full test suite under tests/ is the authoritative one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_SUMMATION,
    EvalFn,
    flatness_probe,
    forward_difference,
    frac_power,
    frac_power_derivative,
    frac_power_fn,
    fractional_sum_limit,
    linear_combination,
    log_fn,
    power_fn,
    sin_2pi_fn,
    const_fn,
    sum_log,
    FLAT,
    NOT_FLAT,
)
from .operators import (
    DEFAULT_OPERATOR,
    OperatorConfig,
    apply_p,
    apply_R,
    apply_X,
    apply_x_mult,
    continuum_dilation,
)
from .errors import ConvergenceError
from .specfun import DEFAULT_SPECFUN, riemann_zeta
from .spectrum import eigenvalue_of


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measure: float
    tolerance: float
    detail: str = ""


def _check(name, measure, tol, detail=""):
    return CheckResult(name, bool(measure < tol), float(measure), float(tol), detail)


def _richardson_diff(fn, x, h=1e-5):
    d1 = (fn(x + h) - fn(x - h)) / (2 * h)
    d2 = (fn(x + h / 2) - fn(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def lemma_suite(seed: int = 0,
                sum_cfg=DEFAULT_SUMMATION,
                spec_cfg=DEFAULT_SPECFUN) -> list[CheckResult]:
    """Identities of the summation calculus itself."""
    rng = random.Random(seed)
    out = []

    # Delta after Sigma returns the summand.
    worst = 0.0
    for f, label in [(log_fn(), "log"), (power_fn(0.7), "v^-0.7"),
                     (power_fn(0.5 + 2j), "v^-(0.5+2i)")]:
        for x in (0.5, 1.7, 3.3, 4.9):
            hi = fractional_sum_limit(f, x, sum_cfg).value
            lo = fractional_sum_limit(f, x - 1.0, sum_cfg).value
            worst = max(worst, abs((hi - lo) - complex(f(x))))
    out.append(_check("delta_after_sigma_recovers_summand", worst, 1e-6))

    # Limit engine against the Hurwitz closed form.
    worst = 0.0
    bad_bound = 0
    for _ in range(6):
        x = rng.uniform(-0.8, 6.0)
        s = complex(rng.uniform(0.2, 2.4), rng.uniform(-8.0, 8.0))
        if abs(s - 1.0) < 0.05 or float(x).is_integer():
            continue
        res = fractional_sum_limit(power_fn(s), x, sum_cfg)
        err = abs(res.value - frac_power(x, s, spec_cfg))
        worst = max(worst, err / max(1e-6, 10.0 * res.err_estimate))
        bad_bound += err > max(res.err_estimate, 1e-14)
    out.append(_check("limit_engine_matches_closed_form", worst, 1.0,
                      detail=f"{bad_bound} case(s) above the reported estimate"))

    # Integer arguments reproduce plain finite sums.
    worst = 0.0
    f = log_fn()
    for m in range(5):
        exact = sum(math.log(k) for k in range(1, m + 1))
        worst = max(worst, abs(fractional_sum_limit(f, float(m), sum_cfg).value - exact))
    out.append(_check("integer_arguments_exact", worst, 1e-12))

    # Sigma log equals log Gamma(x+1).
    worst = max(abs(fractional_sum_limit(log_fn(), x, sum_cfg).value - sum_log(x, spec_cfg))
                for x in (-0.5, 0.5, 2.5))
    out.append(_check("sigma_log_is_log_gamma", worst, 1e-6))

    # Derivative formula vs Richardson differences.
    worst = 0.0
    for _ in range(6):
        x = rng.uniform(-0.5, 5.0)
        s = complex(rng.uniform(0.2, 2.4), rng.uniform(-5.0, 5.0))
        if abs(s) < 0.1 or abs(s - 1.0) < 0.05:
            continue
        fd = _richardson_diff(lambda u: frac_power(u, s, spec_cfg), x)
        worst = max(worst, abs(fd - frac_power_derivative(x, s, spec_cfg)))
    out.append(_check("derivative_formula_matches_differences", worst, 1e-6))

    # Boundary identity at x = -1/2.
    worst = 0.0
    for _ in range(5):
        s = complex(rng.uniform(-0.8, 2.5), rng.uniform(-8.0, 8.0))
        if abs(s - 1.0) < 0.1:
            continue
        lhs = frac_power(-0.5, s, spec_cfg)
        rhs = (2.0 - 2.0 ** complex(s)) * riemann_zeta(s, spec_cfg)
        worst = max(worst, abs(lhs - rhs))
    out.append(_check("half_point_boundary_identity", worst, 1e-9))

    # Flatness classification on the power family.
    ok = (flatness_probe(log_fn(), (0.5, 1.0, 2.0), sum_cfg).verdict == FLAT
          and flatness_probe(power_fn(0.5), (0.5, 1.0, 2.0), sum_cfg).verdict == FLAT
          and flatness_probe(power_fn(-1.0), (0.5, 1.0, 2.0), sum_cfg).verdict == NOT_FLAT
          and flatness_probe(power_fn(-1.5), (0.5, 1.0, 2.0), sum_cfg).verdict == NOT_FLAT)
    out.append(_check("flatness_classification", 0.0 if ok else 1.0, 0.5))
    return out


def operator_suite(seed: int = 0,
                   op_cfg: OperatorConfig = DEFAULT_OPERATOR) -> list[CheckResult]:
    """Identities of the operator algebra, incl. the numeric p path."""
    rng = random.Random(seed)
    out = []
    grid = np.asarray([x for x in op_cfg.sample_grid if x > -0.5])

    # Constants and sin(2 pi x) are annihilated by R.
    try:
        r_const = apply_R(const_fn(2.0 - 1j), op_cfg)
        r_sin = apply_R(sin_2pi_fn(), op_cfg)
        kernel = max(float(np.abs(r_const(grid)).max()), float(np.abs(r_sin(grid)).max()))
        out.append(_check("kernel_of_difference_annihilated", kernel, 1e-6))
    except ConvergenceError as exc:
        out.append(CheckResult("kernel_of_difference_annihilated", False,
                               math.inf, 1e-6, str(exc)))

    # X produces 0 at the origin, exactly (empty-sum convention).
    xf = apply_X(frac_power_fn(1.3), op_cfg)
    out.append(_check("x_operator_vanishes_at_zero", abs(complex(xf(0.0))), 1e-300))

    # Delta X f = x Delta f.
    worst = 0.0
    for s in (0.7, 1.3, 0.5 + 2j):
        f = frac_power_fn(s)
        dxf = forward_difference(apply_X(f, op_cfg))
        df = forward_difference(f)
        for x in (0.5, 1.5, 3.5):
            worst = max(worst, abs(complex(dxf(x)) - x * complex(df(x))))
    out.append(_check("difference_commutes_through_x_sum", worst, 1e-6))

    # Delta p f = p Delta f on functions defined on all of (-1, inf).
    worst = 0.0
    for f in (frac_power_fn(0.8), sin_2pi_fn()):
        lhs = forward_difference(apply_p(f, op_cfg))
        rhs = apply_p(forward_difference(f), op_cfg)
        for x in (0.5, 1.25, 2.75):
            worst = max(worst, abs(complex(lhs(x)) - complex(rhs(x))))
    out.append(_check("difference_commutes_with_derivative", worst, 1e-6))

    # Numeric differentiation against the analytic derivative.  The point
    # near the domain edge has large higher derivatives, so a coarse
    # diff_step visibly breaks this check (the h^4 truncation term).
    worst = 0.0
    for _ in range(4):
        s = complex(rng.uniform(0.3, 2.2), rng.uniform(-3.0, 3.0))
        if abs(s - 1.0) < 0.05:
            continue
        f = frac_power_fn(s)
        stripped = EvalFn(f.domain_lo, f.eval, None, label=f.label)
        numeric = apply_p(stripped, op_cfg)
        analytic = apply_p(f, op_cfg)
        for x in (-0.75, 0.25, 1.0, 4.0):
            worst = max(worst, abs(complex(numeric(x)) - complex(analytic(x))))
    out.append(_check("numeric_derivative_matches_analytic", worst, 1e-6))

    # x-multiplication respects the product rule.
    f = frac_power_fn(1.7)
    xf = apply_x_mult(f)
    worst = max(abs(complex(xf.derivative(x))
                    - complex(_richardson_diff(lambda u: u * complex(f(u)), x)))
                for x in (0.5, 2.0))
    out.append(_check("x_mult_product_rule", worst, 1e-6))

    # Dilation eigenvalue formula, through the numeric pipeline.
    try:
        lam = continuum_dilation(0.6 + 1.5j, verify=True, cfg=op_cfg)
        out.append(_check("continuum_dilation_eigenvalue",
                          abs(lam - eigenvalue_of(0.6 + 1.5j)), 1e-12))
    except ConvergenceError as exc:
        out.append(CheckResult("continuum_dilation_eigenvalue", False,
                               math.inf, 1e-12, str(exc)))

    # One full numeric R against the closed form (reduced grid; this is the
    # nested-limit path).
    s = 2.0 + 0j
    f = frac_power_fn(s)
    rf = apply_R(f, op_cfg)
    zs = riemann_zeta(s)
    worst = 0.0
    for x in (0.5, 1.5):
        closed = eigenvalue_of(s) * complex(f(x)) - 1j * (s - 1.0) * zs
        worst = max(worst, abs(complex(rf(x)) - closed))
    out.append(_check("numeric_R_matches_closed_form", worst, 1e-8))
    return out


def run_suite(which: str, seed: int = 0,
              sum_cfg=DEFAULT_SUMMATION,
              op_cfg: OperatorConfig = DEFAULT_OPERATOR,
              spec_cfg=DEFAULT_SPECFUN) -> list[CheckResult]:
    if which == "lemmas":
        return lemma_suite(seed, sum_cfg, spec_cfg)
    if which == "operators":
        return operator_suite(seed, op_cfg)
    if which == "all":
        return lemma_suite(seed, sum_cfg, spec_cfg) + operator_suite(seed, op_cfg)
    raise ValueError(f"unknown suite {which!r}")
