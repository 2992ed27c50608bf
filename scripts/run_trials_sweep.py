#!/usr/bin/env python3
"""Trial-count sweep: mean draws to jamming against the n log n scale.

Also reports the last-parking time tau* (which drives the log n factor:
draws keep landing on dead slots until the final gap fills) and the exact
coupon-collector mean over the n-1 slots as a sanity ceiling. A bad flag
value is a usage error (exit 2).

    python scripts/run_trials_sweep.py --n-list 1000,10000 --replicas 20
"""
import argparse
import math

from pagepark import tau_star_statistics, trials_ratio_sweep
from pagepark.cli import _at_least, _csv_list, _replica_count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-list", type=_csv_list(_at_least(2)), default="1000,10000,100000,1000000",
                    help="comma-separated interval sizes (>= 2)")
    ap.add_argument("--replicas", type=_replica_count, default=100,
                    help="replicas per n (>= 2)")
    ap.add_argument("--seed", type=int, default=42424242)
    ap.add_argument("--threads", type=_at_least(1), default=1,
                    help="worker threads (default 1); the tables do not depend on it")
    args = ap.parse_args()

    n_list = args.n_list
    rows = trials_ratio_sweep(n_list, args.replicas, seed=args.seed, threads=args.threads)
    print(f"# mean T_n / (n log n)   ({args.replicas} replicas per n)")
    print(f"{'n':>9} {'mean T':>14} {'ratio':>8} {'+-':>7} {'tau*':>7} {'coupon':>14}")
    for r in rows:
        print(
            f"{r.n:>9} {r.mean_T:>14.1f} {r.ratio:>8.4f} {r.ratio_stderr:>7.4f} "
            f"{r.tau_star_mean:>7.3f} {r.coupon_mean:>14.1f}"
        )
    print()

    n = n_list[-1]
    st = tau_star_statistics(n, args.replicas, seed=args.seed + 1, threads=args.threads)
    logn = math.log(n)
    print(f"# last-parking time tau* at n = {n}   (log n = {logn:.3f})")
    print(f"mean {st.stats.mean:.4f}  ({st.stats.mean / logn:.3f} log n)")
    for q, v in sorted(st.quantiles.items()):
        print(f"q{int(q * 100):02d}  {v:.4f}  ({v / logn:.3f} log n)")


if __name__ == "__main__":
    main()
