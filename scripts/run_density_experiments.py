#!/usr/bin/env python3
"""Density experiments: E[M_n]/n convergence and the time-resolved curve.

Reproduces the two headline density tables. Exact values come from the
rational/float recursion. The finite-n Monte Carlo column samples the law of
the uniform-draw process with the first-arrival kernel
(finite.first_arrival_batch); the infinite-line column uses the strip
window sampler (infinite.sample_runs). A bad flag value is a usage error
(exit 2).

    python scripts/run_density_experiments.py --n-list 10,100 --replicas 20000
"""
import argparse
import math

from pagepark import (
    SeedSpec,
    density_at_time_mc,
    density_curve_closed_form,
    expected_M_series,
    limit_constants,
    measure_M_T,
)
from pagepark.cli import _at_least, _csv_list, _replica_count, _time


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-list", type=_csv_list(_at_least(2)), default="10,100,1000,10000",
                    help="comma-separated interval sizes (>= 2)")
    ap.add_argument("--t-grid", type=_csv_list(_time), default="0.25,0.5,1,2,4",
                    help="comma-separated finite times (>= 0)")
    ap.add_argument("--replicas", type=_replica_count, default=20_000,
                    help="Monte Carlo replicas (>= 2)")
    ap.add_argument("--seed", type=int, default=42424242)
    ap.add_argument("--threads", type=_at_least(1), default=1,
                    help="worker threads (default 1); the tables do not depend on it")
    args = ap.parse_args()

    n_list = args.n_list
    rho = limit_constants()["jamming_density"]
    series = expected_M_series(max(n_list))

    print(f"# jammed density vs n   (limit 1 - e^-2 = {rho:.10f})")
    print(f"{'n':>8} {'exact E[M]/n':>15} {'mc mean':>12} {'mc stderr':>12} {'n*gap':>10}")
    for idx, n in enumerate(n_list):
        mt = measure_M_T(n, args.replicas, seed=SeedSpec(args.seed, idx), threads=args.threads)
        em = float(series[n])
        print(
            f"{n:>8} {em / n:>15.10f} {mt.m_stats.mean / n:>12.8f} "
            f"{mt.m_stats.stderr / n:>12.2e} {em - n * rho:>10.5f}"
        )
    print()

    t_grid = args.t_grid
    closed = density_curve_closed_form(t_grid)
    est = density_at_time_mc(t_grid, args.replicas, seed=SeedSpec(args.seed, 1000), threads=args.threads)
    print("# site occupancy at time t on the line   (closed form 1 - e^{-2F(t)})")
    print(f"{'t':>6} {'closed':>12} {'mc':>12} {'stderr':>10} {'z':>7}")
    for t, c, e in zip(t_grid, closed, est):
        z = (e.estimate - c) / e.stderr if e.stderr else math.nan
        print(f"{t:>6.2f} {c:>12.8f} {e.estimate:>12.8f} {e.stderr:>10.2e} {z:>7.2f}")


if __name__ == "__main__":
    main()
