"""The package namespace: which names ``fracsum`` exports, from where,
what ``import fracsum`` loads, and the contract its records keep."""

import json
import os
import subprocess
import sys

import pytest

import fracsum
from fracsum import OperatorConfig, OutOfRangeError, SpecFunConfig, SummationConfig
from fracsum.verify import CheckResult

# each exported name under its home module
HOMES = {
    "errors": {"CancellationWarning", "ConvergenceError", "DomainError", "FracsumError",
               "OutOfRangeError", "PoleError"},
    "config": {"DEFAULT_OPERATOR", "DEFAULT_SPECFUN", "DEFAULT_SUMMATION", "OperatorConfig",
               "SpecFunConfig", "SummationConfig"},
    "specfun": {"bernoulli_number", "digamma", "euler_gamma", "hardy_z", "hurwitz_zeta",
                "hurwitz_zeta_with_error", "log_gamma", "riemann_siegel_theta",
                "riemann_zeta"},
    "core": {"FLAT", "INCONCLUSIVE", "NOT_FLAT", "EvalFn", "FlatnessReport", "FlatnessSample",
             "FracSumResult", "const_fn", "flatness_probe", "forward_difference", "frac_power",
             "frac_power_derivative", "frac_power_fn", "fractional_sum_limit",
             "fractional_sum_limits", "half_difference", "linear_combination", "log_fn",
             "power_fn", "sin_2pi_fn", "sum_log"},
    "operators": {"apply_R", "apply_X", "apply_p", "apply_x_mult"},
    "spectrum": {"EIGEN_TOL", "REALITY_TOL", "BoundaryReport", "EigenReport", "HalfShiftNorm",
                 "ScanCell", "ZetaZero", "boundary_report", "eigen_residual", "eigenvalue_of",
                 "find_critical_zeros", "half_shift_norm", "scan_s_plane"},
}


def test_every_export_is_its_home_modules_object():
    assert len(fracsum.__all__) == len(set(fracsum.__all__))
    assert set(fracsum.__all__) == set().union(*HOMES.values()) | {"__version__"}
    for module, names in HOMES.items():
        home = getattr(fracsum, module)
        assert home.__name__ == f"fracsum.{module}"
        for name in names:
            assert getattr(fracsum, name) is getattr(home, name), name


def test_star_import_gives_every_export():
    namespace = {}
    exec("from fracsum import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(fracsum.__all__)
    assert all(value is getattr(fracsum, name) for name, value in namespace.items())


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(fracsum, "no_such_name")


# Run in a fresh interpreter: what a bare import loads, and what its first
# uses add.
_IMPORT_SCRIPT = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("fracsum"))
import fracsum
run = {"bare": loaded(), "dir_lists_all": set(fracsum.__all__) <= set(dir(fracsum))}
run["after_dir"] = loaded()
run["zeta"] = complex(fracsum.riemann_zeta(2.0)).real
run["after_zeta"] = loaded()
import fracsum.operators
run["after_operators"] = loaded()
run["modules"] = [getattr(fracsum, m).__name__
                  for m in ("errors", "config", "specfun", "core", "operators", "spectrum")]
print(json.dumps(run))
"""


def test_import_loads_layers_on_first_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["bare"] == run["after_dir"] == ["fracsum"]
    assert run["dir_lists_all"]
    assert abs(run["zeta"] - 1.6449340668482264) < 1e-15
    assert run["after_zeta"] == ["fracsum", "fracsum.config", "fracsum.errors",
                                 "fracsum.specfun"]
    # the layers import downward only: the operators do not load spectrum
    assert run["after_operators"] == ["fracsum", "fracsum.config", "fracsum.core",
                                      "fracsum.errors", "fracsum.operators",
                                      "fracsum.specfun"]
    assert run["modules"] == ["fracsum.errors", "fracsum.config", "fracsum.specfun",
                              "fracsum.core", "fracsum.operators", "fracsum.spectrum"]


# each immutable record's fields, in order, and the defaults among them
RECORDS = {
    SpecFunConfig: (("em_terms",), {"em_terms": 50}),
    SummationConfig: (("abs_tol", "strict"), {"abs_tol": 1e-8, "strict": False}),
    OperatorConfig: (("diff_step", "sum_cfg", "sample_grid"),
                     {"diff_step": 1e-4, "sum_cfg": SummationConfig(),
                      "sample_grid": (-0.9, -0.5, -0.1, 0.25, 0.5, 1.0, 1.5, 2.5, 5.0, 10.0)}),
    fracsum.FracSumResult: (("value", "err_estimate", "n_used", "converged"), {}),
    fracsum.FlatnessSample: (("x", "ns", "diffs", "decay_exponent", "verdict"), {}),
    fracsum.FlatnessReport: (("verdict", "samples"), {}),
    fracsum.ZetaZero: (("index", "t", "residual", "bracket", "zeta"), {}),
    fracsum.EigenReport: (("s", "lam", "zeta_s", "analytic_residual", "numeric_residual",
                           "boundary_f0", "boundary_fhalf", "is_eigen", "lambda_is_real"), {}),
    fracsum.BoundaryReport: (("f0", "f_minus_half", "identity_defect"), {}),
    fracsum.ScanCell: (("s", "abs_zeta", "analytic_residual", "lam", "lambda_is_real",
                        "flag"), {}),
    fracsum.HalfShiftNorm: (("truncated_norm_sq", "decay_exponent"), {}),
    CheckResult: (("name", "passed", "measure", "tolerance", "detail"), {"detail": ""}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, defaults = RECORDS[cls]
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    rec = cls(*(defaults[f] if f in defaults else k for k, f in enumerate(fields)))
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
    shown = ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields)
    assert repr(rec) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, bad", [
    (SpecFunConfig, {"em_terms": 5}),
    (SummationConfig, {"abs_tol": 0}),
    (OperatorConfig, {"diff_step": 1.0}),
])
def test_configs_validate_when_built_and_when_replaced(cls, bad):
    with pytest.raises(OutOfRangeError):
        cls(**bad)
    with pytest.raises(OutOfRangeError):
        cls()._replace(**bad)
    assert cls()._replace() == cls()
