#!/usr/bin/env python3
"""Audit every analytic formula against brute-force enumeration for small n.

For each n the script replays all (n-1)! slot orderings and compares the
enumerated E[M_n], law of M_n, per-site vacancy profile, and E[T_n] with the
mean recursion, the recurrence for the law, the closed-form profile, and the
absorbing chain. It also sweeps the run-parity classifier (occupancy_profile)
over every ordering.
"""
import argparse
from fractions import Fraction

from pagepark import (
    ENUMERATION_CAP,
    distribution_M,
    enumerate_orderings,
    expected_M,
    expected_T_exact,
    occupancy_profile,
    per_site_vacancy_exact,
    verify_lemma1,
)


def _n_max(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 2 <= n <= ENUMERATION_CAP:
        raise argparse.ArgumentTypeError(f"must be in 2..{ENUMERATION_CAP}, got {n}")
    return n


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=_n_max, default=8,
                    help=f"largest n to audit (2..{ENUMERATION_CAP})")
    args = ap.parse_args()

    failures = 0
    for n in range(2, args.n_max + 1):
        rep = enumerate_orderings(n)
        issues = []
        if rep.expected_M != expected_M(n):
            issues.append("E[M] recursion")
        if rep.distribution_M != distribution_M(n).probs:
            issues.append("law of M")
        profile = tuple(per_site_vacancy_exact(n, i) for i in range(1, n + 1))
        if rep.per_site_vacancy != profile:
            issues.append("vacancy profile")
        if sum(rep.per_site_vacancy, Fraction(0)) + rep.expected_M != n:
            issues.append("vacancy/occupancy identity")
        if rep.expected_T != expected_T_exact(n):
            issues.append("E[T] absorbing chain")
        bad = verify_lemma1(n, occupancy_profile)
        if bad:
            issues.append(f"classifier ({len(bad)} counterexamples)")
        status = "ok" if not issues else "FAIL: " + ", ".join(issues)
        failures += bool(issues)
        print(
            f"n={n}: {rep.permutations:>7} orderings  "
            f"E[M]={rep.expected_M}  E[T]={rep.expected_T}  {status}"
        )
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
