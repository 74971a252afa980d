"""The three tuning records of the package and their defaults, and the
largest sizes a strip scan and a half-shift norm may allocate.

They live apart from the layers they tune so that a run reads its
defaults, and the CLI its ``--help``, without loading the layers: the
special functions (``SpecFunConfig``), the summation-limit engine of
``fracsum.core`` (``SummationConfig``) and the operators of
``fracsum.operators`` (``OperatorConfig``).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import OutOfRangeError

#: most cells n_re * n_im of one ``spectrum.scan_columns`` grid
MAX_SCAN_CELLS = 10 ** 6
#: most quadrature points of one ``spectrum.half_shift_norm``
MAX_QUAD_POINTS = 10 ** 6

# Each config is an immutable named tuple whose __new__ validates the
# fields.  namedtuple's _make, and so _replace, builds the tuple without
# calling __new__; this _make goes through the class, so a replaced field
# is checked as a constructed one is.
_checked_make = classmethod(lambda cls, values: cls(*values))


class _SpecFunFields(NamedTuple):
    em_terms: int = 50


class SpecFunConfig(_SpecFunFields):
    """Tuning knob for the Euler-Maclaurin evaluations.

    em_terms  where the tail may start: a Hurwitz point with a < em_terms
              first sums em_terms explicit terms and starts its tail at
              w = a + em_terms; a point with a >= em_terms takes no explicit
              terms and starts it at w = a.  Either way w >= em_terms.

    The Bernoulli order specfun.EM_BERNOULLI_ORDER and the target
    specfun.TARGET_ABS_TOL are fixed; with the default em_terms the first
    omitted Bernoulli term stays below 1e-12 for |Im(s)| <= 100, which
    covers the first ~30 critical-line zeros.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.em_terms < 10:
            raise OutOfRangeError(f"em_terms must be >= 10, got {self.em_terms}")
        return self


DEFAULT_SPECFUN = SpecFunConfig()


class _SummationFields(NamedTuple):
    abs_tol: float = 1e-8
    strict: bool = False


class SummationConfig(_SummationFields):
    """Controls the limit engine.

    The index schedule is core.SCHEDULE, extended by further doublings up
    to core.MAX_N while unconverged, until a step whose end term did not
    fall or whose rounding floor tops abs_tol.  Wynn's epsilon algorithm
    extrapolates the partial values after each step; convergence means the
    error estimate, the change of the last extrapolant or the rounding
    floor if larger, is within abs_tol, and the end term fell on that step.
    ``strict`` turns a failed convergence into a ConvergenceError instead
    of a diagnostic.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.abs_tol > 0:
            raise OutOfRangeError("abs_tol must be positive")
        return self


DEFAULT_SUMMATION = SummationConfig()


class _OperatorFields(NamedTuple):
    diff_step: float = 1e-4
    sum_cfg: SummationConfig = DEFAULT_SUMMATION
    sample_grid: tuple[float, ...] = (-0.9, -0.5, -0.1, 0.25, 0.5, 1.0, 1.5, 2.5, 5.0, 10.0)


class OperatorConfig(_OperatorFields):
    """Differentiation step, summation config, and the default sample grid."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 1e-7 <= self.diff_step <= 1e-2:
            raise OutOfRangeError(f"diff_step must lie in [1e-7, 1e-2], got {self.diff_step}")
        if not self.sample_grid:
            raise OutOfRangeError("sample_grid must be nonempty")
        if min(self.sample_grid) <= -1.0:
            raise OutOfRangeError("sample_grid entries must exceed -1")
        return self


DEFAULT_OPERATOR = OperatorConfig()
