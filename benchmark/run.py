"""pagepark benchmark: fresh-process time to a checked result.

Usage (from the repository root):

    python3 benchmark/run.py --workload {trials,line,interval,exact} \\
        --seed N --seconds S --trace {0,1}

For S seconds the driver starts one child process after another
(benchmark/child.py), each running the whole workload once for the seed, and
reports medians over the children. The user's wait is measured from outside:
``wall_s`` from spawn to exit, less the child's own checks and reference pass,
and ``peak_rss_mb`` from the child's rusage.

The host's speed drifts by tens of percent over tens of seconds, which moves
raw times between runs by more than the bounds allow. So each child also times
a fixed reference pass (benchmark/reference.py) before and after its workload,
and ``wall_rel``/``run_rel`` are ``wall_s``/``run_s`` in units of that pass.
These, ``setup_s`` and ``peak_rss_mb`` are the end-to-end metrics of the
result; ``wall_s``, ``run_s`` and ``ref_s`` are printed by name too.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json. With
``--trace 1`` it alternates plain and traced children and reports the
per-layer metrics: probe spans from the traced child, import times from
``-X importtime``, and the tracing overhead as traced minus plain ``run_s``.

Every child of a run uses the same seed, so each step's output digest must be
the same in all of them; a differing digest is a failed check. The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give provenance, the error rate and the check failures. The package is run
from ``src/`` of the checkout; without it the driver exits 2.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import probes  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170  # a child still running this long after the start is killed
MIN_ROUNDS = 3  # two children compare digests; three give a median that one slow child cannot move
_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name; answered from cpuid


def last_level_cache_bytes() -> int:
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        return max(int(libc.sysconf(_SC_LEVEL3_CACHE_SIZE)), 0)
    except (OSError, AttributeError):
        return 0


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def version_of(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


class Child:
    """One finished child process."""

    def __init__(self, argv: list[str], timeout: float) -> None:
        env = {k: v for k, v in os.environ.items() if k != "PAGEPARK_SEED"}
        spawn = time.monotonic()
        proc = subprocess.Popen(argv + [repr(spawn)], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        err: list[bytes] = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        drain.start()
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            drain.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        self.wall_s = time.monotonic() - spawn
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stderr = err[0].decode(errors="replace") if err else ""
        lines = out.decode(errors="replace").strip().splitlines()
        try:
            self.result = json.loads(lines[-1]) if lines else None
        except ValueError:
            self.result = None

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and isinstance(self.result, dict)


def child_argv(args, traced: bool) -> list[str]:
    py = [sys.executable, "-X", "importtime"] if traced else [sys.executable]
    return py + [os.path.join(HERE, "child.py"), args.workload, str(args.seed), args.size, str(int(traced))]


def run_children(args) -> tuple[list[Child], list[Child]]:
    """Start children until the next round would pass --seconds (but at least
    MIN_ROUNDS rounds), or until one fails. A round is one plain child, plus
    one traced child when tracing."""
    plain, traced = [], []
    start = time.monotonic()
    rounds: list[float] = []

    def child(traced_run: bool) -> Child:
        c = Child(child_argv(args, traced_run), max(RUN_LIMIT_S - (time.monotonic() - start), 1.0))
        (traced if traced_run else plain).append(c)
        return c

    while True:
        r0 = time.monotonic()
        if not child(False).ok or (args.trace and not child(True).ok):
            return plain, traced
        rounds.append(time.monotonic() - r0)
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(rounds) > args.seconds:
            return plain, traced


def tally(children: list[Child]) -> tuple[int, list[str]]:
    """Checks attempted and failures over all children, the digest comparison
    included. A failed child fails as many checks as a good child attempted."""
    good = [c for c in children if c.ok]
    per_child = max((c.result["attempted"] for c in good), default=1) or 1
    attempted, failures = 0, []
    for i, c in enumerate(children):
        if c.ok:
            attempted += c.result["attempted"]
            failures += c.result["failed"]
        else:
            attempted += per_child
            failures += [f"child {i} exited {c.returncode}: {c.stderr.strip()[-500:]}"] * per_child
    if good:
        reference = good[0].result["digests"]
        for i, c in enumerate(good[1:], start=1):
            for step, digest in reference.items():
                attempted += 1
                if c.result["digests"].get(step) != digest:
                    failures.append(f"determinism.{step}: child {i} digest differs from child 0 with the same seed")
    return max(attempted, 1), failures


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def reference_s(c: Child) -> float:
    """A child's reference time: the median of the passes before and after
    its workload, so a drift in the host's speed during the workload moves
    both the workload and its reference."""
    return median(c.result["ref_before_s"] + c.result["ref_after_s"])


def end_to_end(plain: list[Child]) -> dict:
    """Medians over the good plain children of the end-to-end metrics and of
    the raw times. A ratio is taken per child, against its own reference."""
    good = [c for c in plain if c.ok]
    wall = [c.wall_s - c.result["bench_s"] for c in good]
    run = [c.result["run_s"] for c in good]
    ref = [reference_s(c) for c in good]
    return {
        "wall_rel": (median([w / r for w, r in zip(wall, ref)]), "ref"),
        "setup_s": (median([c.result["setup_s"] for c in good]), "s"),
        "run_rel": (median([t / r for t, r in zip(run, ref)]), "ref"),
        "peak_rss_mb": (median([c.peak_rss_mb for c in good]), "MiB"),
        "wall_s": (median(wall), "s"),
        "run_s": (median(run), "s"),
        "ref_s": (median(ref), "s"),
    }


def per_layer(args, plain: list[Child], traced: list[Child]) -> tuple[dict, list[str]]:
    good = [c for c in traced if c.ok]
    threads = workloads.threads_for(args.workload)
    runs = [probes.layer_metrics(c.result["trace"], c.result["steps"], threads, args.workload) for c in good]
    imports = [probes.parse_importtime(c.stderr) for c in good]
    metrics = {}
    for key in ("scipy", "numpy", "pagepark"):
        metrics[f"setup.{key}_s"] = (median([i[key] for i in imports]), "s")
    for name, (_, unit) in (runs[0].items() if runs else ()):
        metrics[name] = (median([r[name][0] for r in runs]), unit)
    plain_run = median([c.result["run_s"] for c in plain if c.ok])
    traced_run = median([c.result["run_s"] for c in good])
    metrics["trace.overhead_s"] = (traced_run - plain_run, "s")
    notes = sorted({f"absent {a}" for c in good for a in c.result["trace"]["absent"]}
                   | {f"unmeasured {p}: {why}" for c in good for p, why in c.result["trace"]["unmeasured"].items()})
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="input size; 'tiny' is for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pagepark", "__init__.py")):
        print(f"benchmark: no package source at {os.path.join(ROOT, 'src', 'pagepark')}", file=sys.stderr)
        return 2

    plain, traced = run_children(args)
    children = plain + traced
    if not any(c.ok for c in plain) or (args.trace and not any(c.ok for c in traced)):
        for c in children:
            print(f"child exited {c.returncode}:\n{c.stderr[-2000:]}", file=sys.stderr)
        print("benchmark: no child finished the workload", file=sys.stderr)
        return 1
    attempted, failures = tally(children)
    provenance = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "threads": workloads.threads_for(args.workload), "nproc": workloads.nproc(),
        "python": platform.python_version(), "numpy": version_of("numpy"), "scipy": version_of("scipy"),
        "git_commit": git_commit(), "llc_bytes": last_level_cache_bytes(),
        "children": {"plain": len(plain), "traced": len(traced)},
        "digests": next(c for c in children if c.ok).result["digests"],
    }
    print("provenance " + json.dumps(provenance))
    if args.trace:
        metrics, notes = per_layer(args, plain, traced)
        for note in notes:
            print(note)
    else:
        metrics = end_to_end(plain)
        for c in plain:
            if c.ok:
                print(f"child wall_s {c.wall_s - c.result['bench_s']:.4f} setup_s {c.result['setup_s']:.4f} "
                      f"run_s {c.result['run_s']:.4f} ref_s {reference_s(c):.4f} passes "
                      + " ".join(f"{t:.4f}" for t in c.result["ref_before_s"] + c.result["ref_after_s"]))
        for name in ("wall_s", "run_s", "ref_s"):
            value, unit = metrics.pop(name)
            print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {len(failures) / attempted:.6g} fraction ({len(failures)}/{attempted} checks failed)")
    for failure in failures:
        print(f"FAIL {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
