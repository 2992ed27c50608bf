"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest benchmark/test_benchmark.py -q

They run every workload at the "tiny" size; the package is imported from src/.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pagepark.cli  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_driver(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "benchmark", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def run_in_process(workload: str, seed: int = 1, threads: int | None = None):
    steps = workloads.build(workload, seed, "tiny", threads)
    results = [s.run() for s in steps]
    return results, workloads.finish(workload, seed, "tiny", steps, results)


def error_rate(checks) -> float:
    return sum(not c.ok for c in checks) / len(checks)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_driver("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
                      "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert any(line.startswith("error_rate 0 fraction") for line in lines)
    if not trace:  # the raw times are printed by name beside the relative ones
        for name in ("wall_s", "run_s", "ref_s"):
            assert any(line.startswith(f"{name} ") and line.endswith(" s") for line in lines)
    provenance = json.loads(next(line for line in lines if line.startswith("provenance "))[len("provenance "):])
    for key in ("nproc", "python", "numpy", "scipy", "git_commit", "seed", "threads", "llc_bytes"):
        assert key in provenance
    if trace and workload == "trials":
        sz = workloads.SIZES["tiny"]
        replicas = sz["trials_replicas"] * len(sz["trials_n"])
        assert result["metrics"]["finite.occupancy_profile_calls"]["value"] == replicas
        assert result["metrics"]["finite.car_slots_calls"]["value"] == replicas
        assert result["metrics"]["core.streams"]["value"] == replicas


def test_driver_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_driver("--workload", "exact", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _shift(fn, shifts: dict, cast):
    def shifted(n):
        value = fn(n)
        if isinstance(value, np.ndarray):
            value = value.copy()
            for k, s in shifts.items():
                if k < value.size:
                    value[k] += s
            return value
        return value + cast(shifts.get(n, 0))

    return shifted


def test_planted_fault_in_exact_mean_fails_the_gate(monkeypatch):
    results, checks = run_in_process("interval")
    assert error_rate(checks) == 0
    # shift E[M_n] by 8 standard errors of the Monte Carlo mean it is checked against
    shifts = {r["n"]: 8 * r["mc_stderr_over_n"] * r["n"] for r in results[0].value["rows"]}
    monkeypatch.setattr(pagepark.cli, "expected_M", _shift(pagepark.cli.expected_M, shifts, Fraction))
    monkeypatch.setattr(pagepark.cli, "expected_M_series", _shift(pagepark.cli.expected_M_series, shifts, float))
    results, checks = run_in_process("interval")
    entries = results[0].value["checks"]["entries"]
    assert any(e["name"].startswith("mc_agrees") and not e["passed"] for e in entries)
    assert error_rate(checks) > 0


def test_planted_fault_in_closed_form_curve_fails_the_gate(monkeypatch):
    results, checks = run_in_process("line")
    assert error_rate(checks) == 0
    replicas = workloads.SIZES["tiny"]["curve_replicas"]
    original = pagepark.cli.density_curve_closed_form

    def shifted(t_grid, dist):
        p = original(t_grid, dist=dist)
        return p + 6 * np.sqrt(p * (1 - p) / replicas)  # 6 standard errors; the band is 4

    monkeypatch.setattr(pagepark.cli, "density_curve_closed_form", shifted)
    results, checks = run_in_process("line")
    assert error_rate(checks) > 0


def test_trials_digest_is_independent_of_threads():
    one, _ = run_in_process("trials", threads=1)
    two, _ = run_in_process("trials", threads=2)
    assert one[0].digest == two[0].digest


def test_missing_probe_target_is_absent_not_an_error():
    recorder = probes.Recorder()
    recorder.install((probes.Probe("finite.occupancy_profile", ("pagepark.trials:no_such_function",
                                                                "pagepark.no_such_module:f")),))
    assert recorder.absent == ["pagepark.trials:no_such_function", "pagepark.no_such_module:f"]
    metrics = probes.layer_metrics(recorder.report(), [], 1, "trials")
    assert metrics["finite.occupancy_profile_calls"] == (0, "count")
    assert metrics["finite.occupancy_profile_call_p50_ms"] == (0.0, "ms")


def test_probe_on_a_changed_return_type_keeps_the_call_and_reports_unmeasured(monkeypatch):
    # a later change returns a plain int where the probe expects an array and a Distribution
    module = types.ModuleType("changed_module")
    module.simulate = lambda n, *, keyword=0: n + keyword
    monkeypatch.setitem(sys.modules, "changed_module", module)
    recorder = probes.Recorder()
    recorder.install((
        probes.Probe("finite.direct_batch", ("changed_module:simulate",), lambda a, r: {"draws": int(r[1].sum())}),
        probes.Probe("exact.dist", ("changed_module:simulate",), path=lambda r: "x" if r.exact else "y"),
    ))
    recorder.active = True
    assert module.simulate(2, keyword=3) == 5
    report = recorder.report()
    assert set(report["unmeasured"]) == {"finite.direct_batch", "exact.dist"}
    assert len(report["spans"]["finite.direct_batch"]["durations"]) == 1
    assert report["spans"]["finite.direct_batch"]["work"] == {}
    assert len(report["spans"]["exact.dist"]["durations"]) == 1
    metrics = probes.layer_metrics(report, [], 1, "interval")
    assert metrics["finite.direct_batch_draws_per_s"] == (0.0, "1/s")


@pytest.mark.parametrize("calls, pct", [(20, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_keeps_ten_calls_beyond_the_percentile(calls, pct):
    durations = [float(i) for i in range(1, calls + 1)]
    p50, got_pct, value = probes.tail(durations)
    assert got_pct == pct
    assert sum(d > value for d in durations) >= 10
    assert p50 == calls // 2


def test_parse_importtime_takes_outermost_cumulative_times():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       400 |        450 |   scipy.stats",
        "import time:        10 |        760 | pagepark",
    ])
    assert probes.parse_importtime(text) == pytest.approx({"numpy": 300e-6, "scipy": 450e-6, "pagepark": 760e-6})
