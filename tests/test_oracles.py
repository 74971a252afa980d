"""The oracles checked against the package's exact values: a reference
must be well inside the tolerances the tests compare against it."""

from fracsum import frac_power, frac_power_derivative
from oracles import richardson_diff
from test_acceptance import derivative_cases

# the (x, s) at which tests/test_core.py differentiates x^[-s]
CORE_CASES = [(0.0, 1.0), (1.0, 2.0), (0.7, 0.5 + 3j)] + [
    (x, s) for s in (1.7, 0.5 + 3j) for x in (0.35, 1.0, 2.6, 5.1)]


def test_richardson_diff_matches_exact_derivative():
    for x, s in CORE_CASES + derivative_cases():
        fd = richardson_diff(lambda u: complex(frac_power(u, s)), x)
        assert abs(fd - frac_power_derivative(x, s)) < 1e-10, (x, s)
