"""Fractional summation, the operator R = Xp + pX, and the reality of its
eigenvalues at critical-line zeros of the Riemann zeta function.

The package is organised in four layers:

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

``fracsum.cli`` exposes all of it as the ``fracsum`` command.
"""

from .errors import (
    CancellationWarning,
    ConvergenceError,
    DomainError,
    FracsumError,
    OutOfRangeError,
    PoleError,
)
from .specfun import (
    DEFAULT_SPECFUN,
    SpecFunConfig,
    bernoulli_number,
    digamma,
    euler_gamma,
    hardy_z,
    hurwitz_zeta,
    hurwitz_zeta_with_error,
    log_gamma,
    riemann_siegel_theta,
    riemann_zeta,
)
from .core import (
    DEFAULT_SUMMATION,
    FLAT,
    INCONCLUSIVE,
    NOT_FLAT,
    EvalFn,
    FlatnessReport,
    FlatnessSample,
    FracSumResult,
    SummationConfig,
    const_fn,
    flatness_probe,
    forward_difference,
    frac_power,
    frac_power_derivative,
    frac_power_fn,
    fractional_sum_derivative,
    fractional_sum_limit,
    fractional_sum_limits,
    half_difference,
    linear_combination,
    log_fn,
    pointwise_fn,
    power_fn,
    sin_2pi_fn,
    sum_log,
)
from .operators import (
    DEFAULT_OPERATOR,
    OperatorConfig,
    apply_R,
    apply_X,
    apply_p,
    apply_x_mult,
    continuum_dilation,
    eigenvalue_of,
)
from .spectrum import (
    EIGEN_TOL,
    REALITY_TOL,
    BoundaryReport,
    EigenCandidate,
    EigenReport,
    HalfShiftNorm,
    ScanCell,
    ZetaZero,
    boundary_report,
    eigen_residual,
    find_critical_zeros,
    half_shift_norm,
    scan_s_plane,
)

__version__ = "0.1.0"

__all__ = [
    "CancellationWarning", "ConvergenceError", "DomainError", "FracsumError",
    "OutOfRangeError", "PoleError",
    "DEFAULT_SPECFUN", "SpecFunConfig", "bernoulli_number", "digamma",
    "euler_gamma", "hardy_z", "hurwitz_zeta", "hurwitz_zeta_with_error",
    "log_gamma", "riemann_siegel_theta", "riemann_zeta",
    "DEFAULT_SUMMATION", "FLAT", "INCONCLUSIVE", "NOT_FLAT", "EvalFn",
    "FlatnessReport", "FlatnessSample", "FracSumResult", "SummationConfig",
    "const_fn", "flatness_probe", "forward_difference", "frac_power",
    "frac_power_derivative", "frac_power_fn", "fractional_sum_derivative",
    "fractional_sum_limit", "fractional_sum_limits", "half_difference",
    "linear_combination", "log_fn", "pointwise_fn", "power_fn", "sin_2pi_fn",
    "sum_log",
    "DEFAULT_OPERATOR", "OperatorConfig", "apply_R", "apply_X",
    "apply_p", "apply_x_mult", "continuum_dilation", "eigenvalue_of",
    "EIGEN_TOL", "REALITY_TOL", "BoundaryReport", "EigenCandidate",
    "EigenReport", "HalfShiftNorm", "ScanCell", "ZetaZero", "boundary_report",
    "eigen_residual", "find_critical_zeros",
    "half_shift_norm", "scan_s_plane",
    "__version__",
]
