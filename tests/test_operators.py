import math
import random

import numpy as np
import pytest

from fracsum import (
    ConvergenceError,
    DomainError,
    EvalFn,
    OperatorConfig,
    SummationConfig,
    apply_R,
    apply_X,
    apply_p,
    apply_x_mult,
    const_fn,
    eigenvalue_of,
    forward_difference,
    frac_power_derivative,
    frac_power_fn,
    power_fn,
    riemann_zeta,
    sin_2pi_fn,
)
from fracsum.core import _difference

CFG = OperatorConfig()
SMALL_GRID = (-0.9, -0.5, 0.25, 1.0, 2.5)


def identity_fn():
    def one(x):
        return np.ones(x.shape, dtype=complex)
    return EvalFn(-1.0, lambda x: np.asarray(x, dtype=float) + 0j, one, label="x")


# ------------------------------------------------------------- x and p

def test_x_mult_on_constant_gives_identity():
    g = apply_x_mult(const_fn(1.0))
    assert abs(complex(g(3.2)) - 3.2) < 1e-15
    assert abs(complex(g.derivative(3.2)) - 1.0) < 1e-15


def test_x_mult_shifts_power_exponent():
    s = 1.3 - 2j
    g = apply_x_mult(power_fn(s))
    h = power_fn(s - 1.0)
    for x in (0.5, 2.0, 7.7):
        assert abs(complex(g(x)) - complex(h(x))) < 1e-14


def test_x_mult_of_zero_is_zero():
    g = apply_x_mult(const_fn(0.0))
    assert complex(g(1.7)) == 0.0


def test_p_on_identity_is_minus_i():
    g = apply_p(identity_fn(), CFG)
    assert abs(complex(g(1.1)) + 1j) < 1e-14


def test_p_uses_analytic_derivative_of_frac_power():
    s = 1.5 + 1j
    f = frac_power_fn(s)
    g = apply_p(f, CFG)
    for x in (0.3, 2.0):
        expect = -1j * complex(f.derivative(x))
        assert complex(g(x)) == expect


def test_p_on_sin():
    g = apply_p(sin_2pi_fn(), CFG)
    for x in (0.25, 1.4):
        expect = -2j * math.pi * math.cos(2 * math.pi * x)
        assert abs(complex(g(x)) - expect) < 1e-12


def test_p_numeric_matches_analytic():
    s = 0.8 + 2j
    f = frac_power_fn(s)
    stripped = EvalFn(f.domain_lo, f.eval, None, label="stripped")
    num = apply_p(stripped, CFG)
    ana = apply_p(f, CFG)
    for x in (-0.7, 0.1, 1.0, 6.0):
        assert abs(complex(num(x)) - complex(ana(x))) < 1e-6


def test_p_one_sided_stencil_near_boundary():
    # within 2h of the left endpoint the central stencil would step outside;
    # the one-sided stencil must not evaluate f there (a DomainError would
    # surface) and stays accurate for functions smooth up to the edge
    f = sin_2pi_fn()
    stripped = EvalFn(0.0, f.eval, None, label="sin on (0,inf)")
    num = apply_p(stripped, CFG)
    x = 1.5 * CFG.diff_step
    expect = -2j * math.pi * math.cos(2 * math.pi * x)
    assert abs(complex(num(x)) - expect) < 1e-8


def test_p_vectorized_evaluation():
    # each point of an array of x gets the bits of its scalar call, down to
    # the zeta values the stencil differences (verify's checks rely on it)
    f = frac_power_fn(1.2)
    stripped = EvalFn(f.domain_lo, f.eval, None)
    num = apply_p(stripped, CFG)
    xs = np.array([0.5, 1.5, 4.0])
    vec = num(xs)
    for i, x in enumerate(xs):
        assert vec[i] == complex(num(float(x)))


def test_p_numeric_calls_f_once_per_evaluation():
    # one call on every stencil point, the one-sided ones near the edge
    # and the central ones elsewhere, each inside the domain
    f = frac_power_fn(0.7 + 1j)
    calls = []

    def counted(x):
        calls.append(x.size)
        assert np.all(x > f.domain_lo)
        return f.eval(x)

    num = apply_p(EvalFn(f.domain_lo, counted, None), CFG)
    xs = np.array([-1.0 + CFG.diff_step, 0.5, -1.0 + 1.5 * CFG.diff_step, 3.0])
    vec = num(xs)
    assert calls == [16]
    for i, x in enumerate(xs):
        assert vec[i] == complex(num(float(x)))
    assert calls == [16, 4, 4, 4, 4]


# ------------------------------------------------------------------- X

def test_X_of_constant_is_zero():
    xf = apply_X(const_fn(5.0 - 2j), CFG)
    for x in SMALL_GRID:
        assert abs(complex(xf(x))) < 1e-15


def test_X_of_sin_is_zero():
    xf = apply_X(sin_2pi_fn(), CFG)
    for x in SMALL_GRID:
        assert abs(complex(xf(x))) < 1e-12


def test_X_at_zero_is_exactly_zero():
    for f in (frac_power_fn(2.0), frac_power_fn(0.5 + 3j), sin_2pi_fn()):
        assert complex(apply_X(f, CFG)(0.0)) == 0.0


def test_X_integer_point_single_term():
    # (X x^[-2])(1) = 1 * (Delta x^[-2])(1) = 1
    xf = apply_X(frac_power_fn(2.0), CFG)
    assert abs(complex(xf(1.0)) - 1.0) < 1e-12


def test_X_requires_full_domain():
    with pytest.raises(DomainError):
        apply_X(power_fn(2.0), CFG)  # lives on (0, inf), not (-1, inf)


def test_X_derivative_matches_closed_form():
    # X x^[-s] = x^[1-s], so (X x^[-s])' is the derivative of x^[1-s]
    grid = np.asarray(CFG.sample_grid)
    for s in (0.7 + 0j, 0.5 + 3j, 0.5 + 14.134725141734693j):
        xf = apply_X(frac_power_fn(s), CFG)
        defect = np.abs(xf.derivative(grid) - frac_power_derivative(grid, s - 1.0))
        assert defect.max() < 1e-8


def test_X_strict_rejects_not_flat():
    # x * Delta(x^2) = x(2x - 1) grows, so the limit must refuse the sum
    cfg = OperatorConfig(sum_cfg=SummationConfig(strict=True))
    growing = EvalFn(-1.0, lambda x: np.asarray(x, dtype=float) ** 2 + 0j,
                     label="x^2")
    xf = apply_X(growing, cfg)
    with pytest.raises(ConvergenceError):
        complex(xf(0.5))


def test_X_strict_grid_stops_at_base_schedule_end():
    # a whole grid is one batch of limits, and the engine alone refuses it:
    # the first point's terms do not fall, so it stops at n = 512
    cfg = OperatorConfig(sum_cfg=SummationConfig(strict=True))
    growing = EvalFn(-1.0, lambda x: np.asarray(x, dtype=float) ** 2 + 0j,
                     label="x^2")
    with pytest.raises(ConvergenceError, match=r"x=-0\.9 .*n up to 512.*not flat"):
        apply_X(growing, cfg)(np.asarray(cfg.sample_grid))


# ------------------------------------------------------------------- R

def test_R_annihilates_constants_exactly():
    rf = apply_R(const_fn(3.3 + 0.1j), CFG)
    worst = max(abs(complex(rf(x))) for x in CFG.sample_grid)
    assert worst < 1e-12


def test_R_annihilates_sin():
    # the standing witness that 0 is an eigenvalue regardless of zeta:
    # sin(2 pi x) is annihilated and satisfies the boundary condition
    f = sin_2pi_fn()
    rf = apply_R(f, CFG)
    worst = max(abs(complex(rf(x))) for x in CFG.sample_grid)
    assert worst < 1e-6
    assert complex(f(0.0)) == 0.0


def test_R_linearity():
    rng = random.Random(2)
    a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    from fracsum import linear_combination
    f = frac_power_fn(2.0)
    g = sin_2pi_fn()
    combo = linear_combination([(a, f), (b, g)], label="combo")
    lhs = apply_R(combo, CFG)
    rf = apply_R(f, CFG)
    rg = apply_R(g, CFG)
    for x in SMALL_GRID:
        rhs = a * complex(rf(x)) + b * complex(rg(x))
        assert abs(complex(lhs(x)) - rhs) < 1e-6


def test_difference_commutes_with_p():
    # Delta p f = p Delta f; the left side differences p f numerically, so
    # x^[-s]'s rule is not held against itself
    for f in (frac_power_fn(0.8), sin_2pi_fn(), identity_fn()):
        lhs = _difference(apply_p(f, CFG), 1.0, "Delta")
        rhs = apply_p(forward_difference(f), CFG)
        for x in (0.5, 1.25, 2.75):
            assert abs(complex(lhs(x)) - complex(rhs(x))) < 1e-6


@pytest.mark.parametrize("with_p", [False, True])
def test_difference_rule_contract(with_p):
    # forward_difference takes x^[-s]'s rule Delta x^[-s] = x^(-s), and p's
    # Delta p = p Delta; each must match the numeric f(x) - f(x-1) to the
    # rounding of the values differenced.  Worst over these draws: 173 ulps
    # of the largest magnitude for the value, 131 for p (at x = 0.05, where
    # the closed form's own Hurwitz value at x = -0.95 is large)
    rng = random.Random(0)
    worst = 0.0
    for _ in range(300):
        s = complex(rng.uniform(0.1, 3.0), rng.uniform(-30.0, 30.0))
        xs = np.array([rng.uniform(0.05, 50.0), 0.05 * 1000.0 ** rng.random(), 0.05, 49.95])
        f = frac_power_fn(s)
        if with_p:
            f = apply_p(f, CFG)
        rule = forward_difference(f)
        assert rule is f.difference and rule.domain_lo == 0.0
        ruled, numeric = rule(xs), _difference(f, 1.0, "Delta")(xs)
        scale = np.maximum.reduce([np.ones(xs.size), np.abs(f(xs)), np.abs(f(xs - 1.0)),
                                   np.abs(ruled)])
        worst = max(worst, float((np.abs(ruled - numeric) / scale).max()))
    assert worst < 256 * np.finfo(float).eps, worst / np.finfo(float).eps


def test_R_matches_closed_form_single_s():
    # R x^[-s] = i(2s-1) x^[-s] - i(s-1) zeta(s), fully numeric pipeline
    s = 2.0 + 0j
    f = frac_power_fn(s)
    rf = apply_R(f, CFG)
    zs = riemann_zeta(s)
    for x in CFG.sample_grid:
        closed = eigenvalue_of(s) * complex(f(x)) - 1j * (s - 1.0) * zs
        assert abs(complex(rf(x)) - closed) < 1e-8


# --------------------------------------------------------------- config

def test_operator_config_validation():
    with pytest.raises(Exception):
        OperatorConfig(diff_step=1.0)
    with pytest.raises(Exception):
        OperatorConfig(sample_grid=())
    with pytest.raises(Exception):
        OperatorConfig(sample_grid=(-2.0, 1.0))
