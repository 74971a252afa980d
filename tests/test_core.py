import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsum import (
    CancellationWarning,
    ConvergenceError,
    DomainError,
    EvalFn,
    FLAT,
    NOT_FLAT,
    OperatorConfig,
    SummationConfig,
    apply_x_mult,
    const_fn,
    digamma,
    euler_gamma,
    flatness_probe,
    forward_difference,
    frac_power,
    frac_power_derivative,
    frac_power_fn,
    fractional_sum_limit,
    fractional_sum_limits,
    half_difference,
    hurwitz_zeta,
    hurwitz_zeta_with_error,
    linear_combination,
    log_fn,
    log_gamma,
    power_fn,
    riemann_zeta,
    sin_2pi_fn,
    sum_log,
)
from fracsum.core import (_EPS, _FALL_RATIO, _FLOOR_ULPS, _GL_NODES, _GL_WEIGHTS, _GREGORY,
                          FLATNESS_NS, MAX_N, MAX_SHIFT_TERMS, SCHEDULE, _wynn,
                          frac_power_with_error)
from fracsum.specfun import TARGET_ABS_TOL
from oracles import richardson_diff

PROBE = (0.5, 1.0, 2.0)


# ------------------------------------------------------------------ EvalFn

def test_builtin_derivative_contract():
    # every built-in with an analytic derivative must match Richardson
    # central differences at interior probe points
    builtins = [
        log_fn(),
        power_fn(0.8),
        power_fn(0.5 + 2j),
        sin_2pi_fn(),
        const_fn(3.0 - 1j),
        frac_power_fn(1.7),
        frac_power_fn(0.5 + 3j),
        linear_combination([(2.0, sin_2pi_fn()), (1j, const_fn(1.0))]),
    ]
    for f in builtins:
        assert f.analytic_derivative is not None
        for x in (0.35, 1.0, 2.6, 5.1):
            fd = richardson_diff(lambda u, f=f: complex(f(u)), x)
            assert abs(complex(f.derivative(x)) - fd) < 1e-6, f.label


def test_evalfn_domain_enforced():
    f = log_fn()
    with pytest.raises(DomainError):
        f(0.0)
    with pytest.raises(DomainError):
        f(np.array([1.0, -0.5]))
    assert complex(f(1.0)) == 0.0
    with pytest.raises(DomainError, match="no analytic derivative"):
        EvalFn(0.0, np.log, label="log").derivative(1.0)


def test_evalfn_passes_eval_a_1d_array():
    # eval and analytic_derivative see a 1-D float array whatever the
    # argument; a scalar call returns the element of the array call
    def ev(x):
        assert isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == float
        return np.exp(-(0.5 + 2j) * np.log(x))

    def dv(x):
        assert isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == float
        return -(0.5 + 2j) * ev(x) / x

    f = EvalFn(0.0, ev, dv, label="probe")
    xs = np.array([0.25, 1.0, 3.5])
    for call in (f, f.derivative):
        values = call(xs)
        assert values.shape == xs.shape
        for x, v in zip(xs.tolist(), values):
            assert np.array([call(x)]).tobytes() == np.array([v]).tobytes()
        assert call(np.array([], dtype=float)).shape == (0,)
    with pytest.raises(DomainError):
        f(0.0)
    with pytest.raises(DomainError):
        f.derivative(np.array([1.0, -0.5]))


def test_evalfn_is_rewrapped_by_dataclasses_replace():
    # the benchmark's tracer wraps a function's map with
    # dataclasses.replace(fn, eval=...); the copy keeps every other field
    f = power_fn(0.5)
    seen = []

    def traced(x):
        seen.append(x.size)
        return f.eval(x)

    g = dataclasses.replace(f, eval=traced)
    xs = np.array([0.5, 2.0, 7.25])
    assert (g.domain_lo, g.analytic_derivative, g.label) == \
        (f.domain_lo, f.analytic_derivative, f.label)
    assert g(xs).tobytes() == f(xs).tobytes()
    assert g.derivative(xs).tobytes() == f.derivative(xs).tobytes()
    assert seen == [3]


def test_linear_combination_requires_terms():
    with pytest.raises(DomainError):
        linear_combination([])


# ---------------------------------------------------------- differences

def test_forward_difference_of_constant_is_zero():
    d = forward_difference(const_fn(4.2))
    assert complex(d(1.3)) == 0.0
    assert d.domain_lo == 0.0


def test_forward_difference_of_sin_2pi_is_exactly_zero():
    d = forward_difference(sin_2pi_fn())
    # for x >= 1 the shift x - 1 is exact in floats, so the difference is
    # bitwise zero; below 1 the reduction crosses 0 and leaves ~1 ulp
    xs = np.linspace(1.05, 7.9, 30)
    assert np.abs(d(xs)).max() == 0.0
    low = np.linspace(0.05, 0.95, 10)
    assert np.abs(d(low)).max() < 5e-15


def test_forward_difference_log_gamma_gives_log():
    f = EvalFn(-1.0, lambda x: sum_log(x), label="sum_log")
    d = forward_difference(f)
    for x in (0.5, 1.7, 4.2):
        assert abs(complex(d(x)) - math.log(x)) < 1e-12


def test_difference_evaluates_f_once():
    # f (and f') runs once per call, on x and x - h together
    calls = []
    f = EvalFn(-1.0, lambda x: calls.append(x.size) or x * x + 0j,
               lambda x: calls.append(x.size) or 2.0 * x + 0j, "x^2")
    xs = np.array([0.5, 1.5, 4.0])
    d = forward_difference(f)
    assert np.array_equal(d(xs), 2.0 * xs - 1.0)
    assert np.array_equal(d.derivative(xs), np.full(3, 2.0 + 0j))
    assert calls == [6, 6]


def test_half_difference_of_linear():
    x_fn = EvalFn(-1.0, lambda x: x + 0j, lambda x: np.ones_like(x) + 0j, "x")
    d = half_difference(x_fn)
    assert d.domain_lo == -0.5
    assert abs(complex(d(2.0)) - 0.5) < 1e-15


def test_half_difference_frac_power_boundary_value():
    # f(0) - f(-1/2) = -(2 - 2^s) zeta(s)
    for s in (2.0 + 0j, 0.5 + 3j):
        d = half_difference(frac_power_fn(s))
        expect = -(2.0 - 2.0 ** s) * riemann_zeta(s)
        assert abs(complex(d(0.0)) - expect) < 1e-10


# ------------------------------------------------------------- flatness

def test_flatness_examples():
    assert flatness_probe(log_fn(), PROBE).verdict == FLAT
    assert flatness_probe(power_fn(-1.0), PROBE).verdict == NOT_FLAT
    report = flatness_probe(power_fn(0.5), PROBE)
    assert report.verdict == FLAT
    # decay exponent should approximate Re(s) + 1 = 1.5
    for sample in report.samples:
        assert abs(sample.decay_exponent - 1.5) < 0.2


def test_flatness_probe_evaluates_schedule_once():
    # f(n) does not depend on the sample: k samples take k + 1 calls of f
    calls = []
    counted = EvalFn(0.0, lambda x: calls.append(x.size) or np.log(x), label="log")
    assert flatness_probe(counted, (0.5, 1.0, 2.5)).verdict == FLAT
    assert len(calls) == 4


def test_flatness_rejects_bad_samples():
    with pytest.raises(DomainError):
        flatness_probe(log_fn(), [])
    with pytest.raises(DomainError):
        flatness_probe(log_fn(), [1.0, -0.5])


def _median_alpha(diffs):
    tail = np.asarray(diffs)[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = tail[1:] / tail[:-1]
        ratios = ratios[np.isfinite(ratios)]
        return float(-np.median(np.log2(ratios))) if ratios.size else math.nan


@pytest.mark.parametrize("diffs", [
    (1.0, 0.5, 0.3, 0.2, 0.15, 0.11),    # 4 finite ratios
    (1.0, 0.0, 0.3, 0.2, 0.1, 0.07),     # 3: the first is 0.3 / 0
    (1.0, 0.5, 0.3, 0.0, 0.2, 0.1),      # 3, one of them 0 (log2 -inf)
    (1.0, 0.5, 0.3, 0.2, 0.1, 0.0),      # 4, one of them 0
    (1.0, 0.0, 0.3, 0.0, 0.2, 0.1),      # 2, one of them 0: alpha is inf
    (1.0, 0.5, 0.5, 0.5, 0.5, 0.5),      # 4 ratios of 1: alpha is -0.0
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),      # none finite: alpha is nan
])
def test_flatness_alpha_is_median_of_log_ratios(diffs):
    # f(n) = 0 and f(n + 0.5) = diffs[k] at n = FLATNESS_NS[k]
    table = np.array(diffs)
    f = EvalFn(0.0, lambda v: np.where(v % 1, table[np.searchsorted(FLATNESS_NS, v // 1)], 0.0))
    (sample,) = flatness_probe(f, (0.5,)).samples
    assert sample.diffs == diffs
    assert {type(v) for v in sample.diffs} == {float}
    assert sample.decay_exponent.hex() == _median_alpha(diffs).hex()


# ------------------------------------------------------- summation limit

def test_integer_arguments_exact():
    f = log_fn()
    for m in range(0, 5):
        res = fractional_sum_limit(f, float(m))
        exact = sum(math.log(k) for k in range(1, m + 1))
        assert res.converged and res.err_estimate == 0.0
        assert abs(res.value - exact) < 1e-13


def test_sum_log_at_three():
    res = fractional_sum_limit(log_fn(), 3.0)
    assert abs(res.value - math.log(6.0)) < 1e-13


def test_sum_log_at_half_matches_log_gamma():
    res = fractional_sum_limit(log_fn(), 0.5)
    assert res.converged
    assert abs(res.value - log_gamma(1.5)) < 1e-6
    assert abs(res.value - (-0.1207822376352452)) < 1e-7


def test_sum_inverse_squares_at_half():
    # sum_{v=1}^{1/2} v^(-2) = zeta(2) - zeta(2, 3/2) = 4 - pi^2/3
    res = fractional_sum_limit(power_fn(2.0), 0.5)
    closed = riemann_zeta(2.0) - hurwitz_zeta(2.0, 1.5)
    assert abs(res.value - closed) < 1e-8
    assert abs(closed - (4.0 - math.pi ** 2 / 3.0)) < 1e-12


def test_oracle_equivalence_random_cases():
    rng = random.Random(5)
    for _ in range(8):
        x = rng.uniform(-0.9, 8.0)
        s = complex(rng.uniform(0.1, 2.5), rng.uniform(-10.0, 10.0))
        if abs(s - 1.0) < 0.05 or float(x).is_integer():
            continue
        res = fractional_sum_limit(power_fn(s), x)
        err = abs(res.value - frac_power(x, s))
        assert err < max(1e-6, 10.0 * res.err_estimate)


def oscillating_fn() -> EvalFn:
    """e^(7iv): f(v + x) - f(v) does not tend to 0, so no fractional sum
    exists, and the corrected partial values wander at every n."""
    return EvalFn(0.0, lambda x: np.exp(7j * x), lambda x: 7j * np.exp(7j * x),
                  label="exp(7iv)")


def chirp_fn() -> EvalFn:
    """e^(iv^2)/v^2: flat, but its local period 2 pi / (2v) shrinks below
    the unit step, so neither its sum nor its derivative converges by MAX_N."""
    return EvalFn(0.0, lambda x: np.exp(1j * x * x) / x ** 2,
                  lambda x: np.exp(1j * x * x) * (2j / x - 2.0 / x ** 3),
                  label="exp(iv^2)/v^2")


def test_strict_mode_raises_on_divergence():
    # the end terms of e^(7iv) do not fall, so its limit stops at the end of
    # the base schedule, unconverged, and strict mode raises
    cfg = SummationConfig(strict=True)
    with pytest.raises(ConvergenceError, match=f"n up to {SCHEDULE[-1]}"):
        fractional_sum_limit(oscillating_fn(), 0.5, cfg)


def test_growing_summand_converges_within_its_estimate():
    # v^0.9: the raw partial sums stalled at n = 131072 with err 2e-6; the
    # corrected ones converge on the base schedule, inside their estimate
    res = fractional_sum_limit(power_fn(-0.9), 0.5)
    assert res.converged
    assert res.n_used <= 4096
    assert abs(res.value - frac_power(0.5, -0.9)) <= res.err_estimate


def test_summand_that_is_not_flat_has_no_limit():
    # v^1.5: f(v + x) - f(v) grows, so no limit exists, though C_n tends to
    # the analytic continuation zeta(-1.5) - zeta(-1.5, 1.5); its terms do
    # not fall, so it has no estimate and strict mode raises
    res = fractional_sum_limit(power_fn(-1.5), 0.5)
    assert not res.converged
    assert res.err_estimate == math.inf
    assert res.n_used == SCHEDULE[-1]
    with pytest.raises(ConvergenceError, match="not flat"):
        fractional_sum_limit(power_fn(-1.5), 0.5, SummationConfig(strict=True))
    with pytest.raises(ConvergenceError, match="not flat"):
        fractional_sum_limits(power_fn(-1.5), [0.5], SummationConfig(strict=True),
                              derivative=True)[0]


def test_estimate_keeps_a_rounding_floor():
    # the estimate never claims less than the rounding of what was summed,
    # so an abs_tol below that floor cannot be met
    res = fractional_sum_limit(power_fn(2.0), 0.5)
    assert res.converged
    assert res.err_estimate >= _FLOOR_ULPS * _EPS * abs(res.value)
    with pytest.raises(ConvergenceError):
        fractional_sum_limit(power_fn(2.0), 0.5, SummationConfig(abs_tol=1e-16, strict=True))


def test_limit_stops_once_its_floor_tops_abs_tol():
    # the floor only grows with n, so a limit whose floor already exceeds
    # abs_tol at the end of the base schedule stops there, with its estimate
    res = fractional_sum_limit(power_fn(0.3), 5.5, SummationConfig(abs_tol=1e-16))
    assert not res.converged
    assert res.n_used == SCHEDULE[-1]
    assert 1e-16 <= res.err_estimate < math.inf


def test_domain_checks():
    with pytest.raises(DomainError):
        fractional_sum_limit(log_fn(), -1.0)
    for x in (-1.0, np.array([0.5, -1.5])):
        with pytest.raises(DomainError, match="x > -1"):
            frac_power_derivative(x, 2.0)
    with pytest.raises(DomainError):
        fractional_sum_limit(EvalFn(0.5, lambda x: x), 0.5)
    # NaN and +inf pass an ``x <= -1`` test and would reach the node ranges
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            fractional_sum_limit(power_fn(2.0), x)
        with pytest.raises(DomainError):
            fractional_sum_limits(power_fn(2.0), [0.5, x], derivative=True)


def test_exact_shift_is_capped():
    # x whose exact shift would pass MAX_SHIFT_TERMS terms is refused
    # before any node is built; a modest x still computes
    assert MAX_SHIFT_TERMS == 2 ** 20
    for x in (1e300, 1e7):
        with pytest.raises(DomainError, match="at most 1048576 terms"):
            fractional_sum_limit(power_fn(-0.9), x)
        with pytest.raises(DomainError):
            fractional_sum_limits(power_fn(2.0), [0.5, x], derivative=True)
    res = fractional_sum_limit(power_fn(2.0), 1000.5)
    assert res.converged
    assert abs(res.value - frac_power(1000.5, 2.0)) < 1e-8


def test_shift_recurrence_is_exact():
    # sum_1^x f - sum_1^(x-1) f = f(x): both limits run at the same x0 and
    # the shift adds the whole-step terms exactly
    f = power_fn(0.3 + 2j)
    for x in (1.5, 2.25, 7.75):
        step = fractional_sum_limit(f, x).value - fractional_sum_limit(f, x - 1.0).value
        assert abs(step - complex(f(x))) < 1e-14


def test_fractional_sum_derivative_matches_closed_form():
    # d/dx sum_1^x v^(-s) = frac_power_derivative, at reduced and shifted x
    for s in (0.7 + 0j, 1.6 - 2j):
        for x in (-0.5, 0.0, 0.5, 3.0, 7.25):
            res = fractional_sum_limits(power_fn(s), [x], derivative=True)[0]
            assert res.converged
            assert abs(res.value - frac_power_derivative(x, s)) < 1e-8


def reference_limit(f, x, cfg, derivative):
    """One point on its own: the corrected partial values C_n along the
    schedule, then the package's _wynn; no estimate while |g(n)| does not
    fall, and from the base schedule's end a stop once it cannot converge."""
    x0 = x - math.floor(x) if x >= 1.0 else x
    nodes = x0 + np.arange(1.0, x - x0 + 0.5)
    g = f.derivative if derivative else f
    shift = complex(np.sum(g(nodes))) if nodes.size else 0j
    if x0 == 0.0 and not derivative:
        return shift, 0.0, nodes.size, True
    partials, estimates, err, running, mag, prev_n, n = [], [], math.inf, 0j, 0.0, 0, SCHEDULE[0]
    prev_end = math.inf
    while True:
        v = np.arange(prev_n + 1.0, n + 0.5)
        if derivative:
            # g(v) = -f'(v + x0), H_n = f(n + x0)
            at = f.derivative(v + x0)
            terms, row_mag = -at, float(np.abs(at).sum())
            head = complex(f(n + x0))
        else:
            # g(v) = f(v) - f(v + x0), H_n = x0 * Gauss-Legendre mean of f on [n, n + x0]
            at, shared = f(v + x0), f(v)
            terms = shared - at
            row_mag = float(np.abs(at).sum() + np.abs(shared).sum())
            ends = f(n + x0 * np.array(_GL_NODES)).tolist()
            head = x0 * sum(w * y for w, y in zip(_GL_WEIGHTS, ends))
        running += complex(terms.sum())
        mag += row_mag + abs(head)
        partials.append(running + head + sum(w * y for w, y in zip(_GREGORY, terms[-5:].tolist())))
        floor = _FLOOR_ULPS * _EPS * (mag + abs(partials[-1]))
        end = float(np.abs(terms[-5:]).max())
        falling = end <= _FALL_RATIO * prev_end or end <= floor
        prev_end = end
        if len(partials) >= 3:
            estimates.append(_wynn(partials))
            if len(estimates) >= 2:
                err = max(abs(estimates[-1] - estimates[-2]), floor) if falling else math.inf
        prev_n = n
        stuck = not falling or _FLOOR_ULPS * _EPS * mag > cfg.abs_tol
        if (n >= SCHEDULE[-1] and (err <= cfg.abs_tol or stuck)) or 2 * n > MAX_N:
            break
        n *= 2
    return estimates[-1] + shift, float(err), prev_n, err <= cfg.abs_tol


def as_bytes(value, err, n_used, converged):
    return np.array([value]).tobytes(), np.array([err]).tobytes(), n_used, converged


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("case", ["sample_grid", "s_one", "s_near_one", "long_shift",
                                  "unconverged_long_rows"])
def test_batch_limits_bitwise_equal_per_point_reference(case, derivative):
    # the X integrand of x^[-s] on the default grid: 0.5, 1.5 and 2.5 share
    # x0 = 0.5, 1, 5 and 10 are integers, -0.9 and -0.1 are negative.  At
    # s = 1 and within 1e-8 of it x^[-s] is gamma + digamma(x + 1), whose
    # recurrence takes each point's own step count.  The exact shifts of
    # 1.5 and 2.5 share a call and the 20000 terms of 20000.5 take their
    # own: in one call with them, numpy's complex product on the 40000
    # points of x^[-s] would round differently.  e^(iv^2)/v^2 does not
    # converge and runs to n = 131072, so its last rows hold 32768 and 65536
    # points, past the size where numpy's complex multiply changes loop; its
    # limits run alone on those rows and in groups below them
    s = {"s_one": 1.0, "s_near_one": 1.0 + 1e-9}.get(case, 0.5 + 14.134725141734693j)
    f = apply_x_mult(forward_difference(frac_power_fn(s)))
    xs = (1.5, 2.5, 20000.5) if case == "long_shift" else OperatorConfig().sample_grid
    if case == "unconverged_long_rows":
        f, xs = chirp_fn(), (0.3, 0.5, 3.7, 12.9)
    cfg = SummationConfig()
    batch = fractional_sum_limits(f, xs, cfg, derivative)
    assert len(batch) == len(xs)
    for x, res in zip(xs, batch):
        want = reference_limit(f, float(x), cfg, derivative)
        assert as_bytes(res.value, res.err_estimate, res.n_used, res.converged) == \
            as_bytes(*want), x
    if case == "unconverged_long_rows":
        assert not any(r.converged for r in batch)
        assert {r.n_used for r in batch} == {MAX_N}
        assert all(math.isfinite(r.err_estimate) for r in batch)


def test_batch_strict_raises_first_failing_point_in_order():
    # the per-point loop raised at the first x that failed, naming that x
    cfg = SummationConfig(strict=True)
    f = oscillating_fn()
    with pytest.raises(ConvergenceError) as alone:
        fractional_sum_limit(f, 3.7, cfg)
    with pytest.raises(ConvergenceError) as batch:
        fractional_sum_limits(f, [3.7, 0.5], cfg)
    assert "at x=3.7 stalled" in str(batch.value)
    assert str(batch.value) == str(alone.value)


def test_batch_without_limits_or_shift_nodes():
    # integers only: no limit runs; no x >= 1: no shift node is evaluated
    f = power_fn(2.0)
    exact = fractional_sum_limits(f, [1.0, 3.0, 0.0])
    assert [r.value for r in exact] == pytest.approx([1.0, 1.25 + 1.0 / 9.0, 0.0], abs=1e-14)
    assert [(r.err_estimate, r.n_used, r.converged) for r in exact] == \
        [(0.0, 1, True), (0.0, 3, True), (0.0, 0, True)]
    assert fractional_sum_limits(f, []) == []
    shifted = fractional_sum_limits(f, [0.5, -0.5], derivative=True)
    assert [r.value for r in shifted] == \
        [fractional_sum_limits(f, [x], derivative=True)[0].value for x in (0.5, -0.5)]


# ------------------------------------------------------------ frac_power

def test_frac_power_fixed_points():
    assert frac_power(0.0, 2.3 - 4j) == 0.0
    assert abs(frac_power(1.0, 0.77 + 3j) - 1.0) < 1e-12
    assert abs(frac_power(-0.5, 2.0) - (-math.pi ** 2 / 3.0)) < 1e-12
    three = 1.0 + 2.0 ** -0.5 + 3.0 ** -0.5
    assert abs(frac_power(3.0, 0.5) - three) < 1e-12


def test_frac_power_harmonic_branch():
    # s = 1 goes through gamma + digamma(x+1)
    assert abs(frac_power(1.0, 1.0) - 1.0) < 1e-12
    assert abs(frac_power(2.0, 1.0) - 1.5) < 1e-12
    assert abs(frac_power(4.0, 1.0) - (1 + 0.5 + 1 / 3 + 0.25)) < 1e-12


def test_frac_power_warns_near_pole():
    with pytest.warns(CancellationWarning):
        frac_power(0.5, 1.0 + 1e-5)


def test_frac_power_domain():
    with pytest.raises(DomainError):
        frac_power(-1.0, 2.0)
    with pytest.raises(DomainError):
        frac_power(0.5, -1.5)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=20.0))
def test_frac_power_unit_step_recurrence(x):
    # sum_{v=1}^{x} - sum_{v=1}^{x-1} = x^(-s), the closed-form roundtrip
    for s in (0.7 + 0j, 1.6 - 2j):
        lhs = frac_power(x, s) - frac_power(x - 1.0, s)
        assert abs(lhs - x ** (-s)) < 1e-10


def test_frac_power_vectorized():
    xs = np.array([-0.5, 0.0, 1.0, 3.5])
    s = 1.4 + 2j
    vec = frac_power(xs, s)
    for i, x in enumerate(xs):
        assert abs(vec[i] - frac_power(float(x), s)) < 1e-13


@pytest.mark.filterwarnings("ignore::fracsum.CancellationWarning")
@pytest.mark.parametrize("s", [0.5 + 14j, 2.0 + 0j, 1.0 + 1e-9, 1.0 + 1e-4])
@pytest.mark.parametrize("x", [0.5, np.array([-0.5, 0.0, 0.5, 3.7, 1e4])])
def test_frac_power_with_error_bits(x, s):
    # value and bound of one evaluation, bit for bit those of the separate
    # evaluations of the closed form and of both Hurwitz bounds
    value, bound = frac_power_with_error(x, s)
    a = np.asarray(x, dtype=float) + 1.0
    if abs(s - 1.0) < 1e-8:
        want, want_bound = euler_gamma() + digamma(a), TARGET_ABS_TOL
    else:
        want = riemann_zeta(s) - hurwitz_zeta(s, a)
        want_bound = hurwitz_zeta_with_error(s, 1.0)[1] + hurwitz_zeta_with_error(s, a)[1]
    assert type(value) is type(want) and type(bound) is type(want_bound)
    assert np.asarray(value).tobytes() == np.asarray(want).tobytes()
    assert bound == want_bound
    assert np.asarray(frac_power(x, s)).tobytes() == np.asarray(value).tobytes()


def test_asymptotic_ratio():
    # sum_{v<=x} v^(-s) ~ x^(1-s)/(1-s) for large x, Re(s) < 1.  The next
    # term of the expansion is the constant zeta(s), which at x = 1e4 still
    # contributes |zeta(s)|(1-Re s) x^(Re s - 1): negligible at s = 0.3,
    # ~0.14 at s = 0.8.  The raw ratio test is meaningful only where the
    # constant has died off; removing it checks the law itself everywhere.
    x = 1e4
    for s in (0.3 + 0j, 0.5 + 3j):
        ratio = frac_power(x, s) * (1.0 - s) / x ** (1.0 - s)
        assert abs(ratio - 1.0) < 0.02
    for s in (0.3 + 0j, 0.5 + 3j, 0.8 + 0j):
        ratio = (frac_power(x, s) - riemann_zeta(s)) * (1.0 - s) / x ** (1.0 - s)
        assert abs(ratio - 1.0) < 0.02


# -------------------------------------------------- frac_power_derivative

def test_derivative_zero_at_s_zero():
    assert frac_power_derivative(2.5, 0.0) == 0.0


def test_derivative_at_s_one():
    # d/dx (gamma + digamma(x+1)) at 0 equals zeta(2)
    fd = richardson_diff(lambda u: complex(frac_power(u, 1.0)), 0.0)
    formula = frac_power_derivative(0.0, 1.0)
    assert abs(formula - riemann_zeta(2.0)) < 1e-12
    assert abs(fd - formula) < 1e-6


def test_derivative_example_s2():
    expect = -2.0 + 2.0 * riemann_zeta(3.0)
    assert abs(frac_power_derivative(1.0, 2.0) - expect) < 1e-12
    fd = richardson_diff(lambda u: complex(frac_power(u, 2.0)), 1.0)
    assert abs(fd - expect) < 1e-6


def test_frac_power_fn_bundles_value_and_derivative():
    f = frac_power_fn(0.5 + 3j)
    assert f.domain_lo == -1.0
    assert abs(complex(f(1.0)) - 1.0) < 1e-12
    fd = richardson_diff(lambda u: complex(f(u)), 0.7)
    assert abs(complex(f.derivative(0.7)) - fd) < 1e-6


# ----------------------------------------------------------------- sum_log

def test_sum_log_values():
    assert abs(sum_log(0.0)) < 1e-14
    assert abs(sum_log(1.0)) < 1e-14
    assert abs(sum_log(0.5) - math.log(math.sqrt(math.pi) / 2.0)) < 1e-12
    with pytest.raises(DomainError):
        sum_log(-1.0)


# ------------------------------------------------------------------ config

def test_summation_config_validation():
    with pytest.raises(Exception):
        SummationConfig(abs_tol=0.0)
    assert SCHEDULE == (16, 32, 64, 128, 256, 512)
    assert MAX_N == 131072
    assert FLATNESS_NS == (64, 128, 256, 512, 1024, 2048)
