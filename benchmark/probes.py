"""Outside-in timing probes for the traced benchmark run, and the per-layer
metrics computed from them.

A probe replaces a function under the name its caller looks up (a module
global such as ``pagepark.trials.occupancy_profile``, or a class attribute
such as ``SeedSpec.generator``) with a wrapper that records one span per call.
Nothing in the package changes: the wrappers live only in the traced child
process. A name that no longer exists is reported as absent, and a probe whose
function is no longer called reports zero calls; neither is an error.

This module imports nothing heavy, so the parent driver can use the metric
code without importing numpy.
"""
from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable


def _size(x) -> int:
    return int(getattr(x, "size", 0) or len(x))


@dataclass(frozen=True)
class Probe:
    """``name`` is the layer metric prefix; ``targets`` are ``module:attribute``
    names to wrap; ``work`` maps (args, result) to counts of work done;
    ``path`` maps a result to the span name of a function with two paths."""

    name: str
    targets: tuple[str, ...]
    work: Callable[[tuple, object], dict] | None = None
    cpu: bool = False  # also record process CPU time (main-thread callers only)
    path: Callable[[object], str] | None = None


PROBES = (
    Probe("trials.sweep", ("pagepark.cli:trials_ratio_sweep", "pagepark:trials_ratio_sweep"),
          lambda a, r: {"replicas": sum(row.replicas for row in r)}, cpu=True),
    Probe("finite.occupancy_profile",
          ("pagepark.trials:occupancy_profile", "pagepark.finite:occupancy_profile"),
          lambda a, r: {"sites": _size(r)}),
    Probe("finite.car_slots",
          ("pagepark.trials:car_slots_from_occupancy", "pagepark.finite:car_slots_from_occupancy"),
          lambda a, r: {"sites": _size(a[0])}),
    Probe("finite.direct_batch", ("pagepark.finite:simulate_direct_batch",),
          lambda a, r: {"draws": int(r[1].sum()), "cars": int(r[0].sum()) // 2}),
    Probe("infinite.sample_runs", ("pagepark.infinite:sample_runs",),
          lambda a, r: {"replicas": r.replicas}),
    Probe("infinite.autocov", ("pagepark.cli:autocovariance_mc", "pagepark.infinite:autocovariance_mc"),
          lambda a, r: {"pairs": r.replicas}),
    Probe("exact.dist", ("pagepark:distribution_M", "pagepark.exact:distribution_M"),
          path=lambda r: "exact.dist_rational" if r.exact else "exact.dist_float"),
    Probe("exact.expected_M", ("pagepark:expected_M", "pagepark.cli:expected_M")),
    Probe("exact.expected_M_series", ("pagepark:expected_M_series", "pagepark.cli:expected_M_series")),
    Probe("exact.vacancy_profile", ("pagepark:per_site_vacancy_exact", "pagepark.cli:per_site_vacancy_exact")),
    Probe("core.streams", ("pagepark.core:SeedSpec.generator",)),
    Probe("stats", ("pagepark.stats:SampleStats.from_samples", "pagepark.infinite:proportion_estimate")),
    Probe("cli.emit", ("pagepark.cli:emit",)),
)


class Recorder:
    """Thread-safe span store. Spans are kept only while ``active`` is set, so
    the untimed checks after the workload add nothing."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.active = False
        self.absent: list[str] = []
        self.unmeasured: dict[str, str] = {}  # probe name -> why its work or path was not read
        self.spans: dict[str, dict] = {}

    def _add(self, name: str, seconds: float, cpu: float | None, work: dict) -> None:
        with self._lock:
            rec = self.spans.setdefault(name, {"durations": [], "cpu_s": 0.0, "work": {}})
            rec["durations"].append(seconds)
            if cpu is not None:
                rec["cpu_s"] += cpu
            for k, v in work.items():
                rec["work"][k] = rec["work"].get(k, 0) + v

    def _record(self, probe: Probe, args: tuple, result, seconds: float, cpu: float | None) -> None:
        """Add the span. The work and path callbacks read the package's
        arguments and results, whose shape a later change may alter; if they
        fail, the span is kept under the probe's name with no work, the probe
        is reported as unmeasured, and the package's call is not disturbed."""
        try:
            name = str(probe.path(result)) if probe.path else probe.name
            work = {k: float(v) for k, v in probe.work(args, result).items()} if probe.work else {}
        except Exception as exc:  # any shape mismatch; never raised into the package
            name, work = probe.name, {}
            with self._lock:
                self.unmeasured.setdefault(probe.name, f"{type(exc).__name__}: {exc}")
        self._add(name, seconds, cpu, work)

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            c0 = time.process_time() if probe.cpu else None
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
            cpu = time.process_time() - c0 if probe.cpu else None
            self._record(probe, args, result, seconds, cpu)
            return result

        return wrapper

    def install(self, probes=PROBES) -> None:
        for probe in probes:
            for target in probe.targets:
                if not self._install_one(target, probe):
                    self.absent.append(target)

    def _install_one(self, target: str, probe: Probe) -> bool:
        modname, attr = target.split(":")
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            return False
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if isinstance(owner, type):  # a method: wrap what the class dict holds
            raw = owner.__dict__.get(leaf)
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, leaf, type(raw)(self._wrap(raw.__func__, probe)))
                return True
            if callable(raw):
                setattr(owner, leaf, self._wrap(raw, probe))
                return True
            return False
        fn = getattr(owner, leaf, None)
        if not callable(fn):
            return False
        setattr(owner, leaf, self._wrap(fn, probe))
        return True

    def report(self) -> dict:
        with self._lock:
            return {"absent": list(self.absent), "unmeasured": dict(self.unmeasured), "spans": dict(self.spans)}


# ---------------------------------------------------------------------------
# import times


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of the outermost imports of scipy, numpy and pagepark
    from ``python -X importtime`` output (stderr)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"scipy": 0.0, "numpy": 0.0, "pagepark": 0.0}
    stack: list[tuple[int, str]] = []  # ancestors; parents are printed after children
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in stack):
            totals[top] += cum
        stack.append((depth, name))
    return totals


# ---------------------------------------------------------------------------
# per-layer metrics

# Probes that can be called at least 20 times in one run; for these the
# per-call median and tail are reported too.
PER_CALL = ("finite.occupancy_profile", "finite.car_slots", "exact.vacancy_profile", "core.streams")
MIN_CALLS = 20
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, pct: float) -> int:
    """Nearest rank (1-based) of the pct-th percentile of n values."""
    return max(1, math.ceil(round(n * pct / 100, 9)))


def tail(durations: list[float]) -> tuple[float, float, float]:
    """(median, percentile, value) by nearest rank, for the highest percentile
    on the ladder with at least 10 calls beyond it (needs MIN_CALLS calls)."""
    xs = sorted(durations)
    n = len(xs)
    pct = next(p for p in TAIL_LADDER if n - _rank(n, p) >= 10)
    return xs[_rank(n, 50.0) - 1], pct, xs[_rank(n, pct) - 1]


def layer_metrics(report: dict, steps: list[dict], threads: int, workload: str) -> dict:
    """Per-layer metrics of one traced child, as {name: (value, unit)}."""
    spans = report["spans"]

    def busy(p: str) -> float:
        return sum(spans.get(p, {}).get("durations", ()))

    def calls(p: str) -> int:
        return len(spans.get(p, {}).get("durations", ()))

    def work(p: str, k: str) -> float:
        return spans.get(p, {}).get("work", {}).get(k, 0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    sweep_s = busy("trials.sweep")
    sweep_cpu = spans.get("trials.sweep", {}).get("cpu_s", 0.0)
    finite_in_sweep = busy("finite.occupancy_profile") + busy("finite.car_slots") if sweep_s else 0.0
    m["trials.sweep_s"] = (sweep_s, "s")
    m["trials.replicas_per_s"] = (rate(work("trials.sweep", "replicas"), sweep_s), "1/s")
    m["trials.cpu_s"] = (sweep_cpu, "s")
    m["trials.self_cpu_s"] = (sweep_cpu - finite_in_sweep if sweep_s else 0.0, "s")
    m["trials.cpu_util"] = (rate(sweep_cpu, sweep_s * threads), "fraction")
    m["finite.occupancy_profile_s"] = (busy("finite.occupancy_profile"), "s")
    m["finite.occupancy_profile_calls"] = (calls("finite.occupancy_profile"), "count")
    m["finite.occupancy_profile_sites_per_s"] = (
        rate(work("finite.occupancy_profile", "sites"), busy("finite.occupancy_profile")), "1/s")
    m["finite.car_slots_s"] = (busy("finite.car_slots"), "s")
    m["finite.car_slots_calls"] = (calls("finite.car_slots"), "count")
    m["finite.direct_batch_s"] = (busy("finite.direct_batch"), "s")
    m["finite.direct_batch_draws_per_s"] = (rate(work("finite.direct_batch", "draws"), busy("finite.direct_batch")), "1/s")
    m["finite.direct_batch_accept_ratio"] = (
        rate(work("finite.direct_batch", "cars"), work("finite.direct_batch", "draws")), "fraction")
    m["infinite.sample_runs_s"] = (busy("infinite.sample_runs"), "s")
    m["infinite.sample_runs_replicas_per_s"] = (
        rate(work("infinite.sample_runs", "replicas"), busy("infinite.sample_runs")), "1/s")
    m["infinite.autocov_s"] = (busy("infinite.autocov"), "s")
    m["infinite.autocov_pairs_per_s"] = (rate(work("infinite.autocov", "pairs"), busy("infinite.autocov")), "1/s")
    if workload == "line":  # every step of this workload is an infinite-line kernel
        wall = sum(s["wall_s"] for s in steps)
        m["infinite.cpu_util"] = (rate(sum(s["cpu_s"] for s in steps), wall * threads), "fraction")
    else:
        m["infinite.cpu_util"] = (0.0, "fraction")
    for p in ("exact.dist_rational", "exact.dist_float", "exact.expected_M", "exact.expected_M_series",
              "exact.vacancy_profile"):
        m[f"{p}_s"] = (busy(p), "s")
    m["exact.vacancy_profile_calls"] = (calls("exact.vacancy_profile"), "count")
    m["core.streams"] = (calls("core.streams"), "count")
    m["stats.s"] = (busy("stats"), "s")
    m["stats.calls"] = (calls("stats"), "count")
    m["cli.emit_s"] = (busy("cli.emit"), "s")
    for p in PER_CALL:
        durations = spans.get(p, {}).get("durations", [])
        p50, pct, value = tail(durations) if len(durations) >= MIN_CALLS else (0.0, 0.0, 0.0)
        m[f"{p}_call_p50_ms"] = (p50 * 1e3, "ms")
        m[f"{p}_call_tail_ms"] = (value * 1e3, "ms")
        m[f"{p}_call_tail_pct"] = (pct, "%")
    return m
