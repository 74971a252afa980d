"""Tests of the benchmark itself: its oracle, its metric names, its trace.

    python3 -m pytest perfbench/tests     (from the repository root)
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import reference
import run

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_oracle_reproduces_known_values():
    assert abs(oracle.zeta(2.0) - math.pi ** 2 / 6) < 1e-14
    assert abs(oracle.zeta(4.0) - math.pi ** 4 / 90) < 1e-14
    assert abs(oracle.critical_zeros()[0] - 14.134725142) < 1e-9
    assert abs(oracle.zeta(0.5 + 1j * oracle.critical_zeros()[0])) < 1e-12


def test_oracle_zero_counts():
    assert oracle.zero_count(0.0, 100.0) == 29
    assert oracle.zero_count(0.0, 60.0) == 13
    assert oracle.zero_count(0.0, 50.0) == 10


def test_reference_gives_its_checksum():
    assert abs(reference.burst() - reference.CHECKSUM) <= 1e-3


def test_registered_names_and_units_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in BENCH["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace, registered", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, registered):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "critical_zeros",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCH[registered]}


def _traced_layers(tmp_path, tag, cli_args):
    spans = tmp_path / f"{tag}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
                    "--", *cli_args, "--format", "json"],
                   cwd=ROOT, env=env, capture_output=True, timeout=170, check=True)
    data = json.loads(spans.read_text())
    return run.layer_metrics(data["spans"], data["record_bytes"])


@pytest.mark.parametrize("cli_args", [
    ["zeros", "14", "14.5"],
    ["eval", "sigma", "--x", "0.5", "--s", "0.5+3i"],
])
def test_traced_counts_repeat_exactly(tmp_path, cli_args):
    first = _traced_layers(tmp_path, "a", cli_args)
    second = _traced_layers(tmp_path, "b", cli_args)
    assert {k: first[k] for k in run.REPEATED_COUNTS} == \
        {k: second[k] for k in run.REPEATED_COUNTS}
    if cli_args[0] == "zeros":
        assert first["specfun.hardy_z_calls"] > first["spectrum.bisect_hardy_z_calls"] > 0
    else:
        assert first["core.fsl_calls"] == 1 and first["core.fsl_n_used_max"] >= 2048


def test_self_time_excludes_child_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["core.fsl", 1.0, 6.0, 0, {"n_used": 64, "converged": True, "err": 1e-9}],
        ["core.frac_power", 2.0, 3.0, 1, None],
        ["core.frac_power", 4.0, 4.5, 1, None],
    ]
    layers = run.layer_metrics(spans, 0)
    assert layers["core.fsl_s"] == pytest.approx(3.5)
    assert layers["cli.self_s"] == pytest.approx(5.0)
    assert layers["core.frac_power_s"] == pytest.approx(1.5)
    assert layers["core.frac_power_calls"] == 2
