import math

import numpy as np
import pytest

from fracsum import (
    ConvergenceError,
    SpecFunConfig,
    apply_R,
    eigenvalue_of,
    frac_power,
    frac_power_derivative,
    frac_power_fn,
    riemann_zeta,
)
from fracsum import verify
from fracsum.operators import DEFAULT_OPERATOR
from fracsum.verify import operator_suite, run_suite

LEMMA_CHECKS = [
    "delta_after_sigma_recovers_summand",
    "limit_engine_matches_closed_form",
    "integer_arguments_exact",
    "sigma_log_is_log_gamma",
    "derivative_formula_matches_differences",
    "half_point_boundary_identity",
    "flatness_classification",
]
OPERATOR_CHECKS = [
    "kernel_of_difference_annihilated",
    "x_operator_vanishes_at_zero",
    "difference_commutes_through_x_sum",
    "difference_commutes_with_derivative",
    "numeric_derivative_matches_analytic",
    "x_mult_product_rule",
    "continuum_dilation_eigenvalue",
    "numeric_R_matches_closed_form",
]


@pytest.mark.parametrize("seed", range(4))
def test_run_suite_all_passes(seed):
    checks = run_suite("all", seed)
    assert [c.name for c in checks] == LEMMA_CHECKS + OPERATOR_CHECKS
    failing = [f"{c.name}: {c.measure:.3e} vs tol {c.tolerance:.0e} {c.detail}"
               for c in checks if not c.passed]
    assert not failing, failing


def test_convergence_error_fails_only_its_checks(monkeypatch):
    def diverges(*args, **kwargs):
        raise ConvergenceError("forced divergence")

    monkeypatch.setattr(verify, "apply_X", diverges)
    checks = operator_suite(0)
    assert [c.name for c in checks] == OPERATOR_CHECKS
    failed = {c.name: c for c in checks if not c.passed}
    assert set(failed) == {"x_operator_vanishes_at_zero", "difference_commutes_through_x_sum"}
    for c in failed.values():
        assert c.measure == math.inf
        assert c.detail == "forced divergence"


def test_operator_suite_uses_spec_cfg():
    # the numeric R check, measured directly at em_terms = 12
    cfg = SpecFunConfig(em_terms=12)
    s = 2.0 + 0j
    f = frac_power_fn(s, cfg)
    xs = np.array([0.5, 1.5])
    defect = apply_R(f, DEFAULT_OPERATOR)(xs) - (
        eigenvalue_of(s) * f(xs) - 1j * (s - 1.0) * riemann_zeta(s, cfg))
    direct = max(abs(complex(d)) for d in defect)

    def measure(checks):
        return {c.name: c.measure for c in checks}["numeric_R_matches_closed_form"]

    assert measure(operator_suite(0, DEFAULT_OPERATOR, cfg)) == direct
    assert measure(operator_suite(0)) != direct


@pytest.mark.parametrize("x, s", [(-0.5, 0.2 + 5j), (-0.5, 2.4 - 5j), (2.806, 0.263 - 3.081j)])
def test_derivative_reference_is_below_its_rounding_noise(x, s):
    # corners of the derivative check's draws: at a step of 1e-5 the
    # reference's rounding noise alone is 6e-10 .. 1.4e-9 here
    ref = verify._richardson_diff(lambda u: frac_power(u, s), x)[0]
    assert abs(ref - frac_power_derivative(x, s)) < 1e-10


@pytest.mark.parametrize("s", [0.5, 2.0, 0.7, 0.5 + 2j, 1.5 - 1j, 0.5 + 14.1347j])
def test_dilation_defect_is_small(s):
    # x p + p x on x^(-s), both p's by finite differences, gives i(2s-1)
    assert verify._dilation_defect(s) < 1e-6


def test_dilation_check_reports_its_defect():
    (check,) = [c for c in operator_suite(0) if c.name == "continuum_dilation_eigenvalue"]
    assert check.passed and check.tolerance == 1e-6
    assert 0.0 < check.measure == verify._dilation_defect(0.6 + 1.5j) < 1e-9


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")
