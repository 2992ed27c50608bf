"""The reference pass that end-to-end times are expressed in.

The host's speed drifts by tens of percent over tens of seconds, and a
workload and this pass slow down together when they occupy the same number of
CPUs. Each child times a few passes just before and just after its workload,
on as many CPUs at once as the workload has threads, and the parent reports
``wall_rel``/``run_rel`` in units of the pass as well as raw seconds. The pass
lives in the benchmark, so no change to the package moves it.

Usage: python3 benchmark/reference.py   (prints the pass times as JSON)
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

PASSES = 5


def reference_pass() -> None:
    """A fixed pure-Python computation, about 0.08 s on a 2-vCPU VM."""
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(1, i)
    acc = 0
    for i in range(600_000):
        acc += i * i % 7


def pass_times() -> list[float]:
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        reference_pass()
        times.append(time.perf_counter() - t0)
    return times


def reference_times(threads: int) -> list[float]:
    """Seconds of each pass; with several threads, each the mean over as many
    processes running the passes at once."""
    if threads == 1:
        return pass_times()
    procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__)], stdout=subprocess.PIPE)
             for _ in range(threads)]
    outs = [json.loads(p.communicate()[0]) for p in procs]
    if any(p.returncode for p in procs):
        raise RuntimeError("a reference process failed")
    return [sum(ts) / threads for ts in zip(*outs)]


if __name__ == "__main__":
    print(json.dumps(pass_times()))
