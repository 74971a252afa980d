import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsum import (
    ConvergenceError,
    DomainError,
    OutOfRangeError,
    PoleError,
    SpecFunConfig,
    bernoulli_number,
    digamma,
    euler_gamma,
    frac_power,
    frac_power_fn,
    hardy_z,
    hurwitz_zeta,
    hurwitz_zeta_with_error,
    log_gamma,
    riemann_siegel_theta,
    riemann_zeta,
)
from fracsum import specfun
from oracles import (
    alt_series_zeta,
    digamma_series,
    harmonic_euler_gamma,
    partial_sum_zeta_bracket,
    scipy_hurwitz_zeta,
)

T_FIRST_ZERO = 14.1347251417


# ---------------------------------------------------------------- bernoulli

def bernoulli_oracle(maxk):
    # same recurrence, recomputed independently here in exact rationals
    table = [Fraction(1)]
    for m in range(1, maxk + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * table[j]
        table.append(-acc / (m + 1))
    return table


def test_bernoulli_basic_values():
    assert bernoulli_number(0) == 1.0
    assert bernoulli_number(1) == -0.5
    assert abs(bernoulli_number(2) - 1.0 / 6.0) < 1e-16
    assert abs(bernoulli_number(12) - (-691.0 / 2730.0)) < 1e-15


def test_bernoulli_against_exact_recurrence():
    table = bernoulli_oracle(64)
    # the literal table holds each exact rational rounded once to a float
    for k in [1, *range(0, 65, 2)]:
        assert bernoulli_number(k) == float(table[k])


@pytest.mark.parametrize("bad", [3, 7, 65, 66, -2])
def test_bernoulli_rejects_out_of_range(bad):
    with pytest.raises(OutOfRangeError):
        bernoulli_number(bad)


# ------------------------------------------------------------- hurwitz zeta

def test_hurwitz_pi_squared_over_six():
    lo, hi = partial_sum_zeta_bracket(2.0, 1.0)
    value = hurwitz_zeta(2.0, 1.0)
    assert lo - 1e-12 <= value.real <= hi + 1e-12
    assert abs(value.imag) < 1e-15
    assert abs(value - math.pi ** 2 / 6.0) < 1e-12


def test_hurwitz_at_a_one_is_riemann():
    for s in (2.0 + 0j, 0.5 + 7j, -0.5 + 3j):
        assert hurwitz_zeta(s, 1.0) == riemann_zeta(s)


def test_hurwitz_index_shift_removes_first_term():
    assert abs(hurwitz_zeta(2.0, 2.0) - (riemann_zeta(2.0) - 1.0)) < 1e-13


def test_hurwitz_three_halves_partial_sum_oracle():
    lo, hi = partial_sum_zeta_bracket(2.0, 1.5)
    value = hurwitz_zeta(2.0, 1.5)
    assert lo - 1e-12 <= value.real <= hi + 1e-12
    # and the closed form pi^2/2 - 4 that this bracket certifies
    assert abs(value - (math.pi ** 2 / 2.0 - 4.0)) < 1e-12


def test_hurwitz_vectorized_matches_scalar():
    # each point's explicit terms are summed along their own row, so a point
    # has the same bits alone as in an array, with or without explicit terms
    a = np.array([0.3, 1.0, 2.5, 17.0, 60.0, 500.0])
    s = 0.7 - 4j
    vec = hurwitz_zeta(s, a)
    for i, ai in enumerate(a):
        assert vec[i] == hurwitz_zeta(s, float(ai))
    # an array of s at one a takes the same kernel, so each point keeps the
    # bits of its scalar call: a scan row of 41 points at Im s = 20.05
    row = np.linspace(0.11, 0.91, 41) + 20.05j
    vec = hurwitz_zeta(row, 1.0)
    assert vec.shape == row.shape
    for i, si in enumerate(row):
        assert vec[i] == hurwitz_zeta(complex(si), 1.0) == riemann_zeta(complex(si))
    # 20000 points is past the 256 KB at which numpy multiplies temporaries
    # in place, with a loop whose complex product may differ in the last bit
    # from the small-array one; checked where the tail terms weigh most
    line = 0.5 + 1j * np.linspace(0.0119, 100.0, 20000)
    upper = slice(12000, None)  # t >= 60
    vec = hurwitz_zeta(line, 1.0)[upper]
    assert vec.tobytes() == np.array([hurwitz_zeta(complex(si), 1.0)
                                      for si in line[upper]]).tobytes()


def test_hurwitz_tail_near_float_max():
    # w / (s - 1) overflows at a = 1.7e308, where zeta(s, a) ~ a^(1-s)/(s-1)
    # is finite; the other points of the array keep their bits
    a = np.array([0.5, 1.7e308, 60.0])
    value = hurwitz_zeta(0.75, a)
    assert abs(value[1] / (-4.0 * 1.7e308 ** 0.25) - 1.0) < 1e-12
    assert value[[0, 2]].tobytes() == np.array([hurwitz_zeta(0.75, 0.5),
                                                hurwitz_zeta(0.75, 60.0)]).tobytes()


def _product_grid(re, im):
    # im-major, as the strip scan lays out its cells; set part by part, as
    # re + 1j * im would turn an Im of -0.0 into 0.0
    s = np.empty(re.size * im.size, dtype=complex)
    s.real = np.tile(re, im.size)
    s.imag = np.repeat(im, re.size)
    return s


def test_hurwitz_factored_grid_matches_scalar():
    # a grid of few distinct Re and Im, none with a sign bit, builds its
    # explicit terms from one magnitude per Re and one phase per Im; each
    # point must keep the bits of its scalar call.  First Re and Im of both
    # signs and both zeros, repeated Im rows, 492 points (a block and a
    # part), which takes one complex exp a term; then a grid that holds
    # s = 1 (twice: Im 0.0 and -0.0), without it, as the scan passes its
    # off-pole cells.  numpy's real exp differs from the C library's exp
    # in the last bit of some magnitudes, which would show here.
    im = np.array([-20.0, -7.25, -3.5, -0.0, 0.0, 0.5, 3.5, 9.0, 14.1347, 20.0, 0.5, -3.5])
    grid = _product_grid(np.concatenate([np.linspace(-2.45, 2.55, 39), [0.0, -0.0]]), im)
    scan = _product_grid(np.linspace(0.5, 1.5, 41), im)
    assert np.count_nonzero(scan == 1) == 2
    logs = np.log(1.0 + np.arange(specfun.DEFAULT_SPECFUN.em_terms))
    for s, path in ((grid, "direct"), (scan[scan != 1], "factored")):
        assert s.size % specfun._HURWITZ_BLOCK
        assert specfun._power_rows(s, logs).__name__ == path
        assert hurwitz_zeta(s, 1.0).tobytes() == \
            np.array([hurwitz_zeta(complex(si), 1.0) for si in s]).tobytes()
    # term by term too: the exponent's imaginary part (-Re s) 0 + (-Im s) L
    # is +0, not -0, where Re s carries a sign bit and (-Im s) L is -0 (at
    # L = log 1, or Im s = 0.0), a zero sign that the row sums drop
    assert specfun._power_rows(grid, logs)(slice(None)).tobytes() == \
        np.exp(-grid[:, None] * logs).tobytes()


@pytest.mark.parametrize("blocks", [1, 2])
def test_hurwitz_blocks_are_bitwise_equal_to_two_wide_slices(blocks):
    # B+1 and 2B+1 points, every one with a < em_terms so that all take the
    # blocked explicit sum, leave one point past the last full block; each
    # value must keep the bits it has in a two-point array, for an array of
    # a and for an array of s
    size = blocks * specfun._HURWITZ_BLOCK + 1
    s = 0.5 + 14.1347j
    a = np.linspace(0.05, 49.9, size)
    row = 0.5 + 1j * np.linspace(0.0119, 100.0, size)
    for call in (lambda part: hurwitz_zeta(s, a[part]),
                 lambda part: hurwitz_zeta(row[part], 1.0)):
        whole = call(slice(None))
        sliced = np.empty(size, dtype=complex)
        for j in list(range(0, size - 1, 2)) + [size - 2]:
            sliced[j:j + 2] = call(slice(j, j + 2))
        assert whole.tobytes() == sliced.tobytes()


def test_hurwitz_empty_arrays_give_empty_results():
    # an empty array of a or of s is an empty result with a zero bound
    for s, a in ((0.5, np.array([])), (np.array([], dtype=complex), 1.0)):
        value, bound = hurwitz_zeta_with_error(s, a)
        assert value.shape == (0,) and value.dtype == complex and bound == 0.0
        assert hurwitz_zeta(s, a).shape == (0,)


def test_hurwitz_one_point_array_takes_the_scalar_arithmetic(monkeypatch):
    # no array product (_cmul) for one s, and the scalar call's bits; the
    # kernel still answers in arrays, and still refuses a pole and a bad a
    calls = []
    cmul = specfun._cmul
    monkeypatch.setattr(specfun, "_cmul", lambda x, y: calls.append(1) or cmul(x, y))
    s = 0.5 + 14.1347j
    one = hurwitz_zeta(np.array([s]), 1.0)
    assert calls == []
    assert one.shape == (1,) and one.tobytes() == np.array([hurwitz_zeta(s, 1.0)]).tobytes()
    value, each, rounding = specfun._hurwitz_kernel(np.array([s]), 1.0, specfun.DEFAULT_SPECFUN)
    assert value.shape == each.shape == rounding.shape == (1,)
    with pytest.raises(PoleError):
        hurwitz_zeta(np.array([1.0 + 0j]), 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(np.array([s]), -1.5)


def test_hurwitz_rejects_pole_and_bad_a():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, -1.5)
    for a in (math.inf, math.nan, np.array([1.0, math.inf])):
        with pytest.raises(DomainError, match="a must be finite"):
            hurwitz_zeta(2.0, a)
    # an array of s takes one scalar a, and a 1-D s
    for s, a in ((np.array([2.0, 3.0]), np.array([1.0, 2.0])),
                 (np.array([[2.0, 3.0]]), 1.0)):
        with pytest.raises(DomainError, match="1-D s and a scalar a"):
            hurwitz_zeta(s, a)


def test_hurwitz_error_bound_and_em_terms_self_consistency():
    # doubling the explicit term count moves the value by less than the
    # reported remainder bound
    coarse = SpecFunConfig()
    fine = SpecFunConfig(em_terms=100)
    for s in (2.0 + 0j, 0.5 + 30j, -0.5 + 3j, 1.5 - 40j):
        # 60 and 75 take no explicit terms at the default em_terms and 100
        # at the fine one; 500 takes none at either
        for a in (0.25, 1.0, 3.0, 60.0, 75.0, 500.0):
            v1, bound = hurwitz_zeta_with_error(s, a, coarse)
            v2, _ = hurwitz_zeta_with_error(s, a, fine)
            assert abs(v1 - v2) <= bound + 1e-15


@pytest.mark.parametrize("s", [0.7, 1.5, 2.5, 6.0])
def test_hurwitz_without_explicit_terms_matches_scipy(s):
    # every a >= em_terms starts the Euler-Maclaurin tail at w = a itself
    for a in (50.0, 50.5, 75.0, 500.0, 1e4, 1e5):
        value, bound = hurwitz_zeta_with_error(s, a)
        ref = scipy_hurwitz_zeta(s, a)
        assert abs(value - ref) <= bound + 8 * np.finfo(float).eps * abs(ref)


@pytest.mark.parametrize("s", [0.5 + 14.1347j, 0.5 + 99j, -0.5 + 3j, 2.0 - 40j])
def test_hurwitz_shift_identity_across_em_terms(s):
    # zeta(s, a) - zeta(s, a + k) = sum_{j<k} (a + j)^-s with a < em_terms <=
    # a + k: a point with explicit terms against one without, in one array
    for a, k in ((47.25, 5), (0.3, 60), (12.0, 38), (49.9, 451)):
        (lo, hi), bound = hurwitz_zeta_with_error(s, np.array([a, a + k]))
        terms = [cmath.exp(-s * math.log(a + j)) for j in range(k)]
        direct = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        scale = max(abs(lo), abs(hi), abs(direct))
        assert abs((lo - hi) - direct) <= 2 * bound + 8 * np.finfo(float).eps * scale


def test_hurwitz_shift_identity_random():
    rng = random.Random(3)
    for _ in range(30):
        s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-50.0, 50.0))
        if abs(s - 1.0) < 0.1:
            continue
        a = rng.uniform(0.05, 5.0)
        lhs = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1.0)
        rhs = a ** (-s) if isinstance(s, float) else np.exp(-s * np.log(a))
        assert abs(lhs - rhs) < 2e-12


# ------------------------------------------------------------- riemann zeta

def test_zeta_two_against_partial_sum_oracle():
    lo, hi = partial_sum_zeta_bracket(2.0, 1.0)
    z = riemann_zeta(2.0)
    assert lo - 1e-12 <= z.real <= hi + 1e-12


def test_zeta_zero_argument():
    # independent high-term evaluation through the alternating series
    assert abs(riemann_zeta(0.0) - alt_series_zeta(0.0)) < 1e-13
    assert riemann_zeta(0.0) == -0.5


def test_zeta_against_alternating_series_grid():
    # rounding (not truncation) dominates near Re(s) = -1 with large |Im|;
    # the reported bound must cover the defect, and 1e-11 caps it globally
    rng = random.Random(11)
    for _ in range(50):
        s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-30.0, 30.0))
        if abs(s - 1.0) < 0.1:
            continue
        err = abs(riemann_zeta(s) - alt_series_zeta(s))
        _, bound = hurwitz_zeta_with_error(s, 1.0)
        assert err < max(1e-13, bound)
        assert err < 1e-11


def test_zeta_near_first_critical_zero():
    assert abs(riemann_zeta(0.5 + 1j * T_FIRST_ZERO)) < 1e-8


def test_zeta_pole():
    with pytest.raises(PoleError):
        riemann_zeta(1.0)


# ---------------------------------------------------------------- digamma

def test_digamma_at_one_is_minus_gamma():
    assert abs(digamma(1.0) + harmonic_euler_gamma()) < 1e-13


def test_digamma_at_two():
    assert abs(digamma(2.0) - (1.0 - harmonic_euler_gamma())) < 1e-13


def test_digamma_at_half_series_oracle():
    # duplication-formula value -gamma - 2 log 2, certified by the series
    expect = digamma_series(0.5)
    assert abs(expect - (-harmonic_euler_gamma() - 2.0 * math.log(2.0))) < 1e-10
    assert abs(digamma(0.5) - expect) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=30.0),
       st.floats(min_value=-20.0, max_value=20.0))
def test_digamma_recurrence(re, im):
    z = complex(re, im)
    assert abs(digamma(z + 1.0) - digamma(z) - 1.0 / z) < 1e-11


def test_digamma_and_log_gamma_at_large_arguments():
    # past |z| ~ 1e19 the series' powers of z overflow; their terms are then
    # far below the last bit, and the value is the series' head alone
    from scipy.special import digamma as scipy_digamma
    for x in (1e21, 1e300):
        assert abs(digamma(x) - scipy_digamma(x)) <= 1e-15 * scipy_digamma(x)
        assert abs(log_gamma(x) - math.lgamma(x)) <= 1e-15 * math.lgamma(x)


def test_digamma_pole():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            digamma(z)


# --------------------------------------------------------------- log gamma

def test_log_gamma_trivial_points():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(2.0)) < 1e-14


def test_log_gamma_half_quadrature_oracle():
    from scipy.integrate import quad
    # Gamma(1/2) = int_0^inf t^(-1/2) e^(-t) dt = 2 int_0^inf e^(-u^2) du
    integral, est = quad(lambda u: 2.0 * math.exp(-u * u), 0.0, np.inf)
    assert est < 1e-7
    assert abs(log_gamma(0.5) - math.log(integral)) < max(1e-10, 2.0 * est)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=30.0),
       st.floats(min_value=-30.0, max_value=30.0))
def test_log_gamma_recurrence(re, im):
    z = complex(re, im)
    lhs = log_gamma(z + 1.0) - log_gamma(z)
    assert abs(lhs - np.log(complex(z))) < 1e-11


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(-0.5)
    with pytest.raises(DomainError):
        log_gamma(0.0)


@pytest.mark.parametrize("fn", [digamma, log_gamma])
def test_upward_recurrence_steps_per_point(fn):
    # each point takes the steps its own Re z needs to reach Re >= 10, so in
    # an array of mixed Re z it keeps the bits it has alone
    z = np.array([0.1, 0.5, 1.0 - 3j, 2.5, 3.5 + 7j, 9.99, 11.0, 1e5, 1e21 + 2j])
    assert fn(z).tobytes() == np.array([fn(complex(v)) for v in z]).tobytes()


# -------------------------------------------------------------- euler gamma

def test_euler_gamma_precision():
    assert abs(euler_gamma() - harmonic_euler_gamma()) < 1e-14
    # the correctly rounded double, 0.57721566490153286061 to 20 digits
    assert euler_gamma() == np.euler_gamma == 0.5772156649015329


def test_euler_gamma_digamma_consistency():
    assert abs(digamma(1.0) + euler_gamma()) < 2e-12


# ----------------------------------------------------------------- hardy z

def test_hardy_z_at_origin():
    # theta(0) = 0, so Z(0) = zeta(1/2)
    zhalf = alt_series_zeta(0.5)
    assert abs(riemann_siegel_theta(0.0)) < 1e-13
    assert abs(hardy_z(0.0) - zhalf.real) < 1e-12


def test_hardy_z_vanishes_at_first_zero():
    assert abs(hardy_z(T_FIRST_ZERO)) < 1e-6


def test_hardy_z_brackets_first_zero():
    assert hardy_z(14.0) * hardy_z(14.3) < 0.0


def test_hardy_z_imaginary_residue_small_on_grid():
    # recompute the rotation explicitly; the discarded imaginary part must
    # stay below 1e-9 across the working range
    import cmath
    for t in np.arange(0.0, 60.5, 1.0):
        theta = riemann_siegel_theta(float(t))
        val = cmath.exp(1j * theta) * riemann_zeta(0.5 + 1j * float(t))
        assert abs(val.imag) < 1e-9
        hardy_z(float(t))  # must not raise


def test_hardy_z_domain():
    with pytest.raises(DomainError):
        hardy_z(-0.1)
    # the t >= 0 check holds for every point of an array
    with pytest.raises(DomainError):
        hardy_z([1.0, -0.5])


def test_hardy_z_of_empty_array_is_empty():
    assert hardy_z(np.array([])).shape == (0,)
    assert riemann_siegel_theta(np.array([])).shape == (0,)
    # the shared upward recurrence, and frac_power's digamma branch at s = 1
    assert digamma(np.array([])).shape == (0,)
    assert log_gamma(np.array([])).shape == (0,)
    assert frac_power(np.array([]), 1.0).shape == (0,)
    assert frac_power_fn(1.0)(np.array([])).shape == (0,)


def test_hardy_z_batch_matches_scalar():
    # one call over the grid gives each t the bits of its scalar call and of
    # the rotation e^{i theta} zeta(1/2 + it) done in Python complex arithmetic
    ts = np.linspace(0.0119, 100.0, 301)
    batch = hardy_z(ts)
    assert batch.shape == ts.shape
    assert batch.tobytes() == np.array([hardy_z(float(t)) for t in ts]).tobytes()
    for t, z in zip(ts, batch):
        t = float(t)
        rotated = cmath.exp(1j * riemann_siegel_theta(t)) * riemann_zeta(0.5 + 1j * t)
        assert z == rotated.real
    assert riemann_siegel_theta(ts).tobytes() == \
        np.array([riemann_siegel_theta(float(t)) for t in ts]).tobytes()


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(OutOfRangeError):
        SpecFunConfig(em_terms=5)


def test_tail_outside_validity_raises():
    # far outside the tail's reach the evaluation must refuse, not lie
    with pytest.raises((ConvergenceError, DomainError)):
        hurwitz_zeta(-60.0, 1.0)
    # Re s in (-48, -25]: the series is valid but its first omitted term
    # has no bound
    with pytest.raises(ConvergenceError, match="remainder bound unavailable"):
        hurwitz_zeta(-30.0, 1.0)
    # points with a >= em_terms take no explicit terms; the tail gate still
    # judges them at their own w = a, alone and beside other points
    for a in (60.0, np.array([1.0, 60.0, 500.0])):
        with pytest.raises(ConvergenceError):
            hurwitz_zeta_with_error(0.5 + 300j, a)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_is_a_convergence_error():
    # a value past the float range is refused as non-finite, and where the
    # tail gate also fails it speaks first, as it does for any other point
    with pytest.raises(ConvergenceError, match="non-finite"):
        hurwitz_zeta_with_error(40.0, 1e-10)
    with pytest.raises(ConvergenceError, match="tail estimate"):
        hurwitz_zeta_with_error(2.0 + 300j, 1e-160)


def test_failing_batch_names_first_failing_point():
    # an array call that trips the tail gate reports the s and the estimate
    # that the first failing call of a loop of scalar calls would report
    cfg = SpecFunConfig(em_terms=10)
    ts = np.linspace(0.0119, 100.0, 301)
    with pytest.raises(ConvergenceError) as batch:
        hardy_z(ts, cfg)
    messages = []
    for t in ts:
        try:
            hardy_z(float(t), cfg)
        except ConvergenceError as exc:
            messages.append(str(exc))
    assert len(messages) > 1  # so the first failing t is not the worst one
    assert str(batch.value) == messages[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow far up the line
def test_kernel_flags_agree_with_scalar_gate():
    # the per-point estimates of one array call flag a point exactly when
    # its scalar call raises, and every other point keeps the scalar bits;
    # for an array the estimate is sized with numpy's product, so this is
    # checked on a grid that crosses the target.  The last two points are
    # far up the line: the first has a NaN estimate and a finite value, the
    # second misses.  An estimate misses unless it is within the target, so
    # the array gate raises at the NaN one, the first in order
    re, im = np.meshgrid(np.linspace(0.1, 3.0, 30), np.linspace(95.0, 150.0, 56))
    far = [200.44674247267193 + 18530676611667.473j,
           2.3522452121271984 + 18530676611667.473j]
    s = np.concatenate([(re + 1j * im).ravel(), far])
    value, each, _ = specfun._hurwitz_kernel(s, 1.0, specfun.DEFAULT_SPECFUN)
    assert math.isnan(each[-2]) and cmath.isfinite(value[-2])
    flagged = ~(each <= specfun.TARGET_ABS_TOL) | ~np.isfinite(value)
    for si, vi, fi in zip(s, value, flagged):
        try:
            scalar = hurwitz_zeta_with_error(complex(si), 1.0)[0]
        except ConvergenceError:
            assert fi
        else:
            assert not fi and np.array([vi]).tobytes() == np.array([scalar]).tobytes()
    assert 0 < flagged.sum() < s.size
    with pytest.raises(ConvergenceError, match=r"for s=\(200\.4"):
        hurwitz_zeta_with_error(np.array(far), 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow far up the line
def test_nan_tail_estimate_is_a_miss():
    # |(s)_{2M+1}| overflows while w^(-sigma-2M-1) underflows: the value is
    # finite but its bound is unknown, so the gate refuses it
    s = 200.44674247267193 + 18530676611667.473j
    with pytest.raises(ConvergenceError, match="estimate nan misses target"):
        hurwitz_zeta_with_error(s, 1.0)
    with pytest.raises(ConvergenceError):
        riemann_zeta(s)
