"""Fractional summation, the operator R = Xp + pX, and the reality of its
eigenvalues at critical-line zeros of the Riemann zeta function.

The package is organised in four layers, each of which imports only the
layers listed before it:

``fracsum.specfun``
    Complex special functions (Hurwitz/Riemann zeta by Euler-Maclaurin
    evaluation, digamma, log-gamma, Bernoulli numbers, Hardy Z).
``fracsum.core``
    Evaluable functions on (-1, inf) / (0, inf), difference operators, the
    asymptotic-flatness probe, the summation-limit engine, and the
    fractional power sums x^[-s].
``fracsum.operators``
    Multiplication by x, p = -i d/dx, X = Sigma x Delta, R = Xp + pX.
``fracsum.spectrum``
    Eigen residuals for R, critical-line zero finding, strip scans,
    boundary reports, and the truncated half-shift norm.

``fracsum.config`` holds the three layers' tuning records and their
defaults, and ``fracsum.errors`` the exceptions.  ``fracsum.cli`` exposes
all of it as the ``fracsum`` command.

``import fracsum`` loads none of these modules.  Each public name, and
each of the modules above, is imported on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# the home module of each public name
_HOMES = {
    "errors": ("CancellationWarning", "ConvergenceError", "DomainError", "FracsumError",
               "OutOfRangeError", "PoleError"),
    "config": ("DEFAULT_OPERATOR", "DEFAULT_SPECFUN", "DEFAULT_SUMMATION", "OperatorConfig",
               "SpecFunConfig", "SummationConfig"),
    "specfun": ("bernoulli_number", "digamma", "euler_gamma", "hardy_z", "hurwitz_zeta",
                "hurwitz_zeta_with_error", "log_gamma", "riemann_siegel_theta",
                "riemann_zeta"),
    "core": ("FLAT", "INCONCLUSIVE", "NOT_FLAT", "EvalFn", "FlatnessReport", "FlatnessSample",
             "FracSumResult", "const_fn", "flatness_probe", "forward_difference", "frac_power",
             "frac_power_derivative", "frac_power_fn", "fractional_sum_limit",
             "fractional_sum_limits", "half_difference", "linear_combination", "log_fn",
             "power_fn", "sin_2pi_fn", "sum_log"),
    "operators": ("apply_R", "apply_X", "apply_p", "apply_x_mult"),
    "spectrum": ("EIGEN_TOL", "REALITY_TOL", "BoundaryReport", "EigenReport", "HalfShiftNorm",
                 "ScanCell", "ZetaZero", "boundary_report", "eigen_residual", "eigenvalue_of",
                 "find_critical_zeros", "half_shift_norm", "scan_s_plane"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module("." + _HOME[name], __name__), name)
    elif name in _HOMES:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # so that later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
