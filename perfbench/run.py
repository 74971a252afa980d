"""The fracsum benchmark: whole CLI runs, checked against an independent oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src``).  Each CLI run is a fresh single-process interpreter with BLAS
threads pinned to 1 and ``--jobs 1``; the workload seed only picks the
command's inputs.  The runs repeat, closed loop, until the next one would
overrun ``--seconds`` (always at least one), and every run's output is
checked.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
runs); each CLI run's wall time is divided by the speed of the machine
during that run, gauged by reference.py on the same CPU (the benchmark
pins itself and its children to one CPU).  With ``--trace 1`` untraced
and traced runs (see tracer.py) alternate instead, at least two traced;
these give the per-layer metrics, and their counts must repeat exactly.  The line before the result holds
the full record (the accuracy figures by name, the samples, machine and
child environment), which is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracle
import reference

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
TMP = OUT / f"tmp-{os.getpid()}"  # this invocation's scratch files
CHILD_TIMEOUT_S = 170.0
CPUS = sorted(os.sched_getaffinity(0))  # before main() pins the process to CPUS[0]
SETUP_REPS = 9
MIN_TRACED_RUNS = 2

# Gates applied to each output; a value beyond its gate fails that output.
ZERO_T_GATE = 1e-8          # reported ordinate vs the oracle's zero
ZERO_RESIDUAL_GATE = 1e-8   # |zeta(1/2 + it)| at the reported ordinate
ZETA_ABS_GATE = 1e-10       # reported |zeta(s)| vs the oracle's
NUMERIC_R_GATE = 1e-3       # the package's own gate for the numeric R defect
DIGITS_FLOOR = float(np.finfo(float).eps)

END_TO_END_UNITS = {
    "wall_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}

PER_LAYER_UNITS = {
    "specfun.hardy_z_calls": "count",
    "specfun.hardy_z_s": "s",
    "specfun.log_gamma_s": "s",
    "specfun.hurwitz_calls": "count",
    "specfun.hurwitz_points": "count",
    "specfun.hurwitz_s": "s",
    "specfun.hurwitz_points_per_s": "1/s",
    "specfun.hurwitz_large_a_share": "ratio",
    "specfun.riemann_zeta_calls": "count",
    "specfun.riemann_zeta_distinct_ratio": "ratio",
    "core.fsl_calls": "count",
    "core.fsl_s": "s",
    "core.fsl_n_used_p50": "count",
    "core.fsl_n_used_max": "count",
    "core.fsl_unconverged": "count",
    "core.fsl_err_max": "1",
    "core.frac_power_calls": "count",
    "core.frac_power_s": "s",
    "operators.X_points": "count",
    "operators.X_distinct_ratio": "ratio",
    "operators.X_s": "s",
    "operators.p_numeric_points": "count",
    "operators.R_points": "count",
    "operators.R_s": "s",
    "spectrum.find_zeros_s": "s",
    "spectrum.bisect_hardy_z_calls": "count",
    "spectrum.eigen_residual_s": "s",
    "spectrum.scan_cells": "count",
    "spectrum.scan_s": "s",
    "verify.checks": "count",
    "verify.lemma_suite_s": "s",
    "verify.operator_suite_s": "s",
    "cli.self_s": "s",
    "cli.record_bytes": "bytes",
    "trace_overhead_frac": "ratio",
}

# Counts that must repeat exactly between two traced runs of one input.
REPEATED_COUNTS = tuple(
    name for name in PER_LAYER_UNITS
    if name.endswith(("_calls", "_points", "_unconverged", "_cells", ".checks"))
    or name.startswith("core.fsl_n_used_")
)


class Tally:
    """Operations attempted and failed, plus the worst value of each figure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.worst: dict[str, float] = {}
        self.notes: list[str] = []

    def op(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)

    def figure(self, name: str, value: float) -> None:
        self.worst[name] = max(self.worst.get(name, -math.inf), float(value))


# ---------------------------------------------------------------- workloads

class Workload:
    """One CLI command: its inputs from a seed, and the check of its output."""

    name = ""
    headline = ""  # the figure reported as accuracy_digits

    def argv(self, rng: random.Random) -> list[str]:
        raise NotImplementedError

    def check(self, results: dict, argv: list[str], tally: Tally) -> None:
        raise NotImplementedError


def _check_zero_rows(rows, t_min, t_max, tally):
    expected = oracle.zero_count(t_min, t_max)
    count_err = abs(len(rows) - expected)
    tally.figure("zero_count_err", count_err)
    tally.op(count_err == 0, f"{len(rows)} zeros in ({t_min}, {t_max}), oracle {expected}")
    for row in rows:
        t = row["t"]
        residual = abs(oracle.zeta(0.5 + 1j * t))
        t_err = abs(t - oracle.nearest_zero(t))
        zeta_err = abs(row["abs_zeta"] - residual)
        tally.figure("zero_residual_max", residual)
        tally.figure("zeta_abs_err_max", zeta_err)
        tally.op(t_err <= ZERO_T_GATE and residual <= ZERO_RESIDUAL_GATE
                 and zeta_err <= ZETA_ABS_GATE,
                 f"zero at t={t!r}: |dt|={t_err:.2e} residual={residual:.2e}")


class CriticalZeros(Workload):
    name = "critical_zeros"
    headline = "zero_residual_max"

    def argv(self, rng):
        # sub-step jitter of the 0.05 Hardy-Z grid: other grid points and
        # brackets, the same 29 zeros
        return ["zeros", repr(rng.uniform(0.0, 0.05)), "100"]

    def check(self, results, argv, tally):
        _check_zero_rows(results["zeros"], float(argv[1]), float(argv[2]), tally)


class NumericEigen(Workload):
    name = "numeric_eigen"
    headline = "numeric_residual_max"

    def argv(self, rng):
        # brackets the first zero only: at the next zeros the seed's strict
        # run stops with a convergence failure (exit 3)
        lo, hi = rng.uniform(13.5, 14.0), rng.uniform(14.3, 15.0)
        return ["zeros", repr(lo), repr(hi), "--numeric-residual"]

    def check(self, results, argv, tally):
        rows = results["zeros"]
        _check_zero_rows(rows, float(argv[1]), float(argv[2]), tally)
        for row in rows:
            r = row["numeric_residual"]
            ok = r is not None and math.isfinite(r) and r <= NUMERIC_R_GATE
            tally.figure("numeric_residual_max", r if ok else math.inf)
            tally.op(ok, f"numeric R defect {r} at t={row['t']!r}")


class StripScan(Workload):
    name = "strip_scan"
    headline = "zeta_abs_err_max"

    def __init__(self) -> None:
        self._oracle: dict[bytes, np.ndarray] = {}  # |zeta| per grid, outside timing

    def argv(self, rng):
        # the 41 x 201 grid moved by less than one cell: 8241 other s values
        d_re, d_im = rng.uniform(0.0, 0.02), rng.uniform(0.0, 0.1)
        return ["scan", repr(0.1 + d_re), repr(0.9 + d_re), repr(10.0 + d_im),
                repr(30.0 + d_im), "41", "201"]

    def check(self, results, argv, tally):
        rows = results["cells"]
        s = np.array([complex(r["s_re"], r["s_im"]) for r in rows])
        re0, re1, im0, im1, n_re, n_im = (float(v) for v in argv[1:])
        grid = (np.linspace(re0, re1, int(n_re))[None, :]
                + 1j * np.linspace(im0, im1, int(n_im))[:, None]).ravel()
        tally.op(s.shape == grid.shape and np.allclose(s, grid, rtol=0, atol=1e-12),
                 f"{len(rows)} cells, not the requested {n_re:.0f} x {n_im:.0f} grid")
        key = s.tobytes()
        if key not in self._oracle:
            self._oracle[key] = np.abs(oracle.zeta(s))
        for row, ref in zip(rows, self._oracle[key]):
            if row["flags"] != "ok":
                tally.op(False, f"cell {row['s_re']}+{row['s_im']}i flagged {row['flags']}")
                continue
            err = abs(row["abs_zeta"] - ref)
            tally.figure("zeta_abs_err_max", err)
            tally.op(err <= ZETA_ABS_GATE,
                     f"|zeta| at {row['s_re']}+{row['s_im']}i off by {err:.2e}")


class VerifyAll(Workload):
    name = "verify_all"
    headline = "verify_margin_max"

    def argv(self, rng):
        return ["verify", "all", "--seed", str(rng.randrange(10 ** 6))]

    def check(self, results, argv, tally):
        for c in results["checks"]:
            tally.figure("verify_margin_max", c["measure"] / c["tolerance"])
            tally.op(bool(c["passed"]), f"check {c['name']} failed: {c['measure']}")
        tally.op(len(results["checks"]) > 0, "verify reported no checks")


WORKLOADS = {w.name: w for w in (CriticalZeros(), NumericEigen(), StripScan(), VerifyAll())}


# ------------------------------------------------------------ child processes

def child_env() -> tuple[dict, dict]:
    """The environment of every child, and the part of it the benchmark set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRACSUM_")}
    pinned = {
        "PYTHONPATH": os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    env.update(pinned)
    removed = sorted(k for k in os.environ if k.startswith("FRACSUM_"))
    return env, {"set": pinned, "removed": removed}


def run_child(cmd: list[str], env: dict, stdout_path: Path):
    """Run cmd to completion; returns (wall seconds, exit code).

    A blocking wait with a kill timer, because ``Popen.wait(timeout=...)``
    polls with sleeps of up to 50 ms, which would quantise the wall time.
    """
    with open(stdout_path, "w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        return time.perf_counter() - t0, code


# Runs the CLI like ``python -m fracsum`` and writes the process's peak RSS
# (VmHWM) to the file named by the first argument.  The rusage of a child
# is no use here: Linux carries the parent's peak RSS into it across
# fork and exec.
CLI_CODE = (
    "import atexit, runpy, sys\n"
    "def _peak(path=sys.argv.pop(1)):\n"
    "    with open('/proc/self/status') as fh:\n"
    "        kb = next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:'))\n"
    "    with open(path, 'w') as fh:\n"
    "        fh.write(kb)\n"
    "atexit.register(_peak)\n"
    "runpy.run_module('fracsum', run_name='__main__', alter_sys=True)\n"
)


SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import fracsum\n"
    "v = fracsum.riemann_zeta(2.0)\n"
    "print(time.perf_counter() - t0, v.real, v.imag)\n"
)


def measure_setup(env: dict, tally: Tally, reps: int) -> list[float]:
    """``reps`` fresh interpreters: import fracsum plus the first
    special-function call."""
    samples = []
    expected = oracle.zeta(2.0)
    path = TMP / "setup.out"
    for _ in range(reps):
        _, code = run_child([sys.executable, "-c", SETUP_CODE], env, path)
        ok = code == 0
        if ok:
            dt, re_part, im_part = (float(v) for v in path.read_text().split())
            ok = abs(complex(re_part, im_part) - expected) <= 1e-12
            samples.append(dt)
        tally.op(ok, f"set-up run exited {code} or gave a wrong zeta(2)")
    return samples


def run_cli(workload: Workload, argv: list[str], env: dict, tally: Tally,
            spans_path: Path | None = None):
    """One CLI run, its output checked; returns (wall s, peak RSS MB)."""
    args = [*argv, "--format", "json", "--jobs", "1"]
    peak_path = TMP / "peak_rss_kb"
    peak_path.unlink(missing_ok=True)
    if spans_path is None:
        cmd = [sys.executable, "-c", CLI_CODE, str(peak_path), *args]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *args]
    out_path = TMP / "cli.out"
    wall, code = run_child(cmd, env, out_path)
    rss = float(peak_path.read_text()) / 1024.0 if peak_path.exists() else math.nan
    tally.op(code == 0, f"{' '.join(args)} exited {code}")
    if code == 0:
        try:
            record = json.loads(out_path.read_text(encoding="utf-8"))
        except ValueError:
            tally.op(False, "output is not one JSON record")
        else:
            workload.check(record["results"], argv, tally)
    return wall, rss


@contextlib.contextmanager
def speed_gauge(env: dict, tally: Tally):
    """reference.py running for the duration of the block, on the one CPU
    the benchmark and its children are pinned to.  Yields the list that,
    when the block ends, receives its bursts as (start, seconds)."""
    bursts: list = []
    proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        yield bursts
        out, _ = proc.communicate("stop\n", timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    try:
        data = json.loads(out)
        ok = (ready and proc.returncode == 0
              and abs(data["checksum"] - reference.CHECKSUM) <= 1e-3)
        bursts.extend(data["bursts"])
    except (ValueError, KeyError, TypeError):
        ok = False
    tally.op(ok, f"speed gauge exited {proc.returncode} or gave a wrong checksum")


def timed_loop(workload, argv, env, tally, seconds, setup):
    """Repeat the CLI run until the next one would overrun ``seconds``, with
    the speed gauge beside it.  Each run's relative wall time is its wall
    time over the median gauge burst that started and ended within it.
    A set-up run follows each CLI run and is added to ``setup``, so that
    set-up time is sampled over the whole loop."""
    walls, windows, rss = [], [], []
    start = time.perf_counter()
    with speed_gauge(env, tally) as bursts:
        while True:
            t0 = time.perf_counter()
            wall, peak = run_cli(workload, argv, env, tally)
            windows.append((t0, time.perf_counter()))
            walls.append(wall)
            rss.append(peak)
            setup.extend(measure_setup(env, tally, 1))
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    gauges = []
    for t0, t1 in windows:
        inside = [dt for t, dt in bursts if t0 <= t and t + dt <= t1]
        tally.op(len(inside) > 0, "no gauge burst fell within a CLI run")
        gauges.append(statistics.median(inside) if inside else math.nan)
    rels = [wall / gauge for wall, gauge in zip(walls, gauges)]
    return walls, gauges, rels, rss


# ------------------------------------------------------------------ tracing

def layer_metrics(spans: list[list], record_bytes: int) -> dict[str, float]:
    """Per-layer figures from one traced run's spans."""
    children: list[list[int]] = [[] for _ in spans]
    by_name: dict[str, list[int]] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            children[parent].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def has_ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    def ids(name):
        return by_name.get(name, [])

    def total(name):
        """Inclusive time, counting nested spans of one name once."""
        return sum(dur(i) for i in ids(name) if not has_ancestor(i, name))

    def self_time(name):
        return sum(dur(i) - sum(dur(c) for c in children[i]) for i in ids(name))

    def attr(name, key):
        """Attribute values of the spans whose call returned."""
        return [spans[i][4][key] for i in ids(name) if spans[i][4] is not None]

    def ratio(a, b):
        return a / b if b else 0.0

    hurwitz_points = sum(attr("specfun.hurwitz", "points"))
    hurwitz_s = total("specfun.hurwitz")
    zeta_keys = [tuple(s) for s in attr("specfun.riemann_zeta", "s")]
    x_keys = [tuple(k) for keys in attr("operators.X", "keys") for k in keys]
    n_used = attr("core.fsl", "n_used")
    errs = [e for e in attr("core.fsl", "err") if math.isfinite(e)]
    return {
        "specfun.hardy_z_calls": len(ids("specfun.hardy_z")),
        "specfun.hardy_z_s": total("specfun.hardy_z"),
        "specfun.log_gamma_s": total("specfun.log_gamma"),
        "specfun.hurwitz_calls": len(ids("specfun.hurwitz")),
        "specfun.hurwitz_points": hurwitz_points,
        "specfun.hurwitz_s": hurwitz_s,
        "specfun.hurwitz_points_per_s": ratio(hurwitz_points, hurwitz_s),
        "specfun.hurwitz_large_a_share": ratio(sum(attr("specfun.hurwitz", "large_a")),
                                               hurwitz_points),
        "specfun.riemann_zeta_calls": len(ids("specfun.riemann_zeta")),
        "specfun.riemann_zeta_distinct_ratio": ratio(len(set(zeta_keys)), len(zeta_keys)),
        "core.fsl_calls": len(ids("core.fsl")),
        "core.fsl_s": self_time("core.fsl"),
        "core.fsl_n_used_p50": statistics.median_low(n_used) if n_used else 0,
        "core.fsl_n_used_max": max(n_used, default=0),
        "core.fsl_unconverged": sum(1 for c in attr("core.fsl", "converged") if not c),
        "core.fsl_err_max": max(errs, default=0.0),
        "core.frac_power_calls": len(ids("core.frac_power")),
        "core.frac_power_s": total("core.frac_power"),
        "operators.X_points": len(x_keys),
        "operators.X_distinct_ratio": ratio(len(set(x_keys)), len(x_keys)),
        "operators.X_s": total("operators.X"),
        "operators.p_numeric_points": sum(attr("operators.p_numeric", "points")),
        "operators.R_points": sum(attr("operators.R", "points")),
        "operators.R_s": total("operators.R"),
        "spectrum.find_zeros_s": total("spectrum.find_zeros"),
        "spectrum.bisect_hardy_z_calls": sum(
            1 for i in ids("specfun.hardy_z") if has_ancestor(i, "spectrum.bisect")),
        "spectrum.eigen_residual_s": total("spectrum.eigen_residual"),
        "spectrum.scan_cells": sum(attr("spectrum.scan", "cells")),
        "spectrum.scan_s": total("spectrum.scan"),
        "verify.checks": sum(attr("verify.run_suite", "checks")),
        "verify.lemma_suite_s": total("verify.lemma_suite"),
        "verify.operator_suite_s": total("verify.operator_suite"),
        "cli.self_s": self_time("cli.main"),
        "cli.record_bytes": record_bytes,
    }


def traced_loop(workload, argv, env, tally, seconds):
    """Untraced and traced runs in turn until the next pair would overrun
    ``seconds``; at least one untraced and two traced runs.  Returns the
    untraced walls, the traced walls and each traced run's layer figures."""
    walls, traced_walls, layers = [], [], []
    spans_path = TMP / "spans.json"
    start = time.perf_counter()

    def overrun():
        pair = statistics.median(walls) + statistics.median(traced_walls)
        return time.perf_counter() - start + pair > seconds

    while True:
        if not walls or not overrun():
            walls.append(run_cli(workload, argv, env, tally)[0])
        spans_path.unlink(missing_ok=True)
        traced_walls.append(run_cli(workload, argv, env, tally, spans_path)[0])
        ok = spans_path.exists()
        tally.op(ok, "traced run wrote no spans")
        if ok:
            data = json.loads(spans_path.read_text(encoding="utf-8"))
            layers.append(layer_metrics(data["spans"], data["record_bytes"]))
        if len(traced_walls) >= MIN_TRACED_RUNS and overrun():
            return walls, traced_walls, layers


# -------------------------------------------------------------------- main

def machine_record(seed: int, env_record: dict) -> dict:
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unavailable: {exc}"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(CPUS),
        "pinned_cpu": CPUS[0],
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "workload_seed": seed,
        "child_env": env_record,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still reaps its child (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "fracsum" / "cli.py").is_file():
        print(f"no fracsum sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    # The benchmark, and so every child it starts, stays on one CPU: the
    # speed gauge must run on the CPU the CLI runs on.
    os.sched_setaffinity(0, {CPUS[0]})
    TMP.mkdir(parents=True, exist_ok=True)
    try:
        return bench(args)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


def bench(args) -> int:
    workload = WORKLOADS[args.workload]
    cli_argv = workload.argv(random.Random(args.seed))
    env, env_record = child_env()
    tally = Tally()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "argv": cli_argv,
              "machine": machine_record(args.seed, env_record)}

    if args.trace:
        walls, traced_walls, layers = traced_loop(workload, cli_argv, env, tally,
                                                  args.seconds)
        repeated = len(layers) == len(traced_walls) and all(
            run[name] == layers[0][name] for run in layers for name in REPEATED_COUNTS)
        tally.op(repeated, "per-layer counts differ between the traced runs")
        record["samples"] = {"wall_s": walls, "traced_wall_s": traced_walls}
        record["layers"] = layers
        values = {name: statistics.median(run[name] for run in layers)
                  for name in layers[0]} if layers else {}
        values["trace_overhead_frac"] = (statistics.median(traced_walls)
                                         / statistics.median(walls) - 1.0)
        metrics = {name: metric(values.get(name, math.nan), unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        measure_setup(env, tally, 1)  # fills the bytecode cache; not reported
        setup = measure_setup(env, tally, SETUP_REPS)
        walls, gauges, rels, rss = timed_loop(workload, cli_argv, env, tally,
                                              args.seconds, setup)
        record["samples"] = {"wall_s": walls, "gauge_s": gauges, "wall_rel": rels,
                             "peak_rss_mb": rss, "setup_s": setup}
        record["medians"] = {"wall_s": statistics.median(walls),
                             "gauge_s": statistics.median(gauges)}
        headline = tally.worst.get(workload.headline, math.inf)
        metrics = {
            "wall_rel": metric(statistics.median(rels), "ratio"),
            "setup_s": metric(statistics.median(setup) if setup else math.nan, "s"),
            "peak_rss_mb": metric(statistics.median(rss), "MB"),
            "accuracy_digits": metric(-math.log10(max(headline, DIGITS_FLOOR)), "digits"),
        }

    figures = dict(tally.worst)
    figures["fail_frac"] = tally.failed / max(tally.attempted, 1)
    record.update(figures=figures, failures=tally.notes, metrics=metrics)
    correct = tally.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():  # JSON has no NaN or infinity; correct is false then
        if not math.isfinite(m["value"]):
            m["value"] = -1.0
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
