"""One run of one workload in a fresh interpreter; started by run.py.

Usage: python3 benchmark/child.py WORKLOAD SEED SIZE TRACE SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import pagepark`` and
input construction up to the first timed call. ``run_s`` is the workload body,
output formatting included. Reference passes (see reference.py) run
before the imports and after the checks, which run after ``run_s`` stops.
``bench_s`` is the time of the first passes plus the time from the end of the
workload to the output: the parent takes it off the child's wall time, and the
first passes are taken off ``setup_s``. The standard modules that the passes and
the workload table use (fractions, json, hashlib, subprocess) are therefore
loaded before pagepark, and ``-X importtime`` does not count them in
pagepark's import.
The last stdout line is one JSON object; exit status 1 means a step raised.
"""
from __future__ import annotations

import json
import os
import sys
import time
import traceback

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    workload, seed, size, trace, spawn_time = argv[0], int(argv[1]), argv[2], argv[3] == "1", float(argv[4])
    threads = workloads.threads_for(workload)
    r0 = time.monotonic()
    ref_before = reference.reference_times(threads)
    ref_gap = time.monotonic() - r0
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import pagepark
    import pagepark.cli  # noqa: F401  (the CLI is not imported by the package)

    import probes

    if os.path.dirname(os.path.abspath(pagepark.__file__)) != os.path.join(SRC, "pagepark"):
        print(f"pagepark imported from {pagepark.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    steps = workloads.build(workload, seed, size)
    recorder = probes.Recorder()
    if trace:
        recorder.install()
        recorder.active = True

    t_first = time.monotonic()
    setup_s = t_first - spawn_time - ref_gap
    results, step_times, crashed = [], [], False
    for step in steps:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            results.append(step.run())
        except Exception:  # a raised step fails the run; its traceback goes to stderr
            traceback.print_exc()
            crashed = True
            break
        step_times.append({"name": step.name, "wall_s": time.perf_counter() - w0,
                           "cpu_s": time.process_time() - c0})
    t_done = time.monotonic()
    run_s = t_done - t_first
    recorder.active = False

    checks = [] if crashed else workloads.finish(workload, seed, size, steps, results)
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "ref_before_s": ref_before,
        "ref_after_s": reference.reference_times(threads),
        "steps": step_times,
        "digests": {s.name: r.digest for s, r in zip(steps, results)},
        "attempted": len(checks),
        "failed": [f"{c.name}: {c.detail}" for c in checks if not c.ok],
    }
    if trace:
        out["trace"] = recorder.report()
    out["bench_s"] = ref_gap + time.monotonic() - t_done
    print(json.dumps(out))
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
