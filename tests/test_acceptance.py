"""Acceptance criteria, one test per criterion.

Every test prints exactly one `[criterion NN] PASS/FAIL` line with the
measured numbers (visible in the pytest output via the -rP report section,
or with -s). Tolerances and runtime budgets are asserted, never loosened:
a criterion that cannot be met fails red here.
"""
import collections
import json
import math
import subprocess
import sys
import time

import numpy as np

from pagepark import (
    SeedSpec,
    density_curve_closed_form,
    distribution_M,
    enumerate_orderings,
    expected_M,
    expected_M_series,
    expected_T_exact,
    odd_descent_prob_closed_form,
    occupancy_profile,
    per_site_vacancy_exact,
    proportion_estimate,
    sample_runs,
    simulate_direct,
    simulate_poissonized,
    trials_ratio_sweep,
)
from pagepark.oracle import distribution_T_exact
from pagepark.stats import law_matches

RHO = 1.0 - math.exp(-2.0)
VAC = math.exp(-2.0)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_jamming_density():
    t0 = time.perf_counter()
    density = float(expected_M_series(10_000)[10_000]) / 10_000
    dt = time.perf_counter() - t0
    gap = abs(density - 0.8646647)
    report(
        1,
        "jamming density at n=10000",
        gap < 0.001 and dt < 1.0,
        f"E[M]/n = {density:.10f}, |gap to 0.8646647| = {gap:.2e} < 0.001, {dt:.3f}s < 1s",
    )


def test_criterion_02_finite_size_bound():
    t0 = time.perf_counter()
    em = expected_M_series(10_000)
    n = np.arange(2, 10_001)
    worst = float(np.max(np.abs(em[2:] - n * RHO)))
    dt = time.perf_counter() - t0
    report(
        2,
        "|E[M_n] - n(1-e^-2)| <= 12 on [2, 10000]",
        worst <= 12.0 and dt < 10.0,
        f"max gap = {worst:.6f} <= 12, {dt:.3f}s < 10s",
    )


def test_criterion_03_friedman_offset():
    # the refinement constant 1-3e^-2 is reached by the offset against the
    # n-1 slots; against the n sites the same statement reads -2e^-2
    # (the two differ by exactly one limit density)
    slot_const = 1.0 - 3.0 * math.exp(-2.0)
    site_const = -2.0 * math.exp(-2.0)
    em = expected_M_series(10_000)
    ns = list(range(200, 3001)) + [10_000]
    worst_slot = max(abs((em[n] - (n - 1) * RHO) - slot_const) for n in ns)
    worst_site = max(abs((em[n] - n * RHO) - site_const) for n in ns)
    report(
        3,
        "Friedman offset 1-3e^-2 for n >= 200",
        worst_slot < 0.01 and worst_site < 0.01,
        f"max |E[M_n]-(n-1)rho - (1-3e^-2)| = {worst_slot:.2e} < 0.01 "
        f"(site-normalised form vs -2e^-2: {worst_site:.2e} < 0.01)",
    )


def test_criterion_04_oracle_equivalence():
    t0 = time.perf_counter()
    counterexamples = 0
    exact_ok = True
    for n in range(2, 10):
        rep = enumerate_orderings(n, occupancy_profile)  # one pass: report and classifier
        exact_ok &= rep.expected_M == expected_M(n)
        exact_ok &= rep.distribution_M == distribution_M(n).probs
        profile = tuple(per_site_vacancy_exact(n, i) for i in range(1, n + 1))
        exact_ok &= rep.per_site_vacancy == profile
        exact_ok &= rep.expected_T == expected_T_exact(n)
        counterexamples += len(rep.counterexamples)
    dt = time.perf_counter() - t0
    report(
        4,
        "oracle equivalence and classifier, n <= 9",
        exact_ok and counterexamples == 0 and dt < 120.0,
        f"rational equality for n=2..9, {counterexamples} classifier "
        f"counterexamples, {dt:.1f}s < 120s",
    )


def test_criterion_05_infinite_vacancy():
    t0 = time.perf_counter()
    runs = sample_runs(1_000_000, seed=SeedSpec(42424242))
    est = proportion_estimate(int(runs.vacant.sum()), runs.replicas)
    dt = time.perf_counter() - t0
    z = (est.estimate - VAC) / est.stderr
    report(
        5,
        "infinite-line vacancy e^-2 at 10^6 replicas",
        abs(z) <= 3.0 and dt < 30.0,
        f"estimate {est.estimate:.6f} vs {VAC:.6f}, z = {z:+.2f} (<= 3), {dt:.1f}s < 30s",
    )


def test_criterion_06_density_evolution():
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    est = sample_runs(100_000, seed=SeedSpec(42424242, 6)).density_at_time(grid)
    closed = density_curve_closed_form(grid)
    ratios = [abs(e.estimate - c) / e.stderr for e, c in zip(est, closed)]
    worst = max(ratios)
    report(
        6,
        "density curve 1-e^{-2F(t)} on the t grid",
        worst < 4.0,
        f"sup |MC - closed|/stderr = {worst:.2f} < 4 at 10^5 replicas per point",
    )


def test_criterion_07_f_identity():
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    f_est = sample_runs(100_000, seed=SeedSpec(42424242, 71)).odd_descent_time_prob(grid)
    f_closed = odd_descent_prob_closed_form(grid)
    worst_f = max(abs(e.estimate - c) / e.stderr for e, c in zip(f_est, f_closed))

    # independent batch for the occupancy side of the identity
    rho_est = sample_runs(100_000, seed=SeedSpec(42424242, 72)).density_at_time(grid)
    worst_id = 0.0
    for fe, re_ in zip(f_est, rho_est):
        f = fe.estimate
        pred = f * (2.0 - f)
        sigma = math.sqrt(re_.stderr**2 + ((2.0 - 2.0 * f) * fe.stderr) ** 2)
        worst_id = max(worst_id, abs(re_.estimate - pred) / sigma)
    report(
        7,
        "f(t) = 1-e^{-F(t)} and rho = f(2-f)",
        worst_f < 4.0 and worst_id < 4.0,
        f"sup |f_MC - closed|/stderr = {worst_f:.2f} < 4; "
        f"sup |rho_MC - f(2-f)|/combined = {worst_id:.2f} < 4",
    )


def test_criterion_08_trials_sweep():
    # Replicas give every adjacent step z >= 4 for the strict-increase test:
    # per-replica sd of T/(n log n) measured 0.178, 0.142, 0.114, 0.089 at
    # n = 1e3..1e6, and the steps of 1 - 1.40/log n are 0.051, 0.030, 0.020,
    # so z is about 7.0, 5.9 and 5.6.
    plan = [(1_000, 1_000), (10_000, 1_000), (100_000, 2_000), (1_000_000, 1_200)]
    rows = []
    for n, reps in plan:
        rows.extend(trials_ratio_sweep([n], reps, seed=SeedSpec(42424242, n)))
    ratios = [r.ratio for r in rows]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    in_band = 0.85 <= ratios[-1] <= 1.05
    dominated = all(r.dominated_by_coupon for r in rows)
    detail = ", ".join(f"n=1e{int(math.log10(r.n))}: {r.ratio:.4f}" for r in rows)
    report(
        8,
        "T_n/(n log n) increasing, banded, coupon-dominated",
        increasing and in_band and dominated,
        f"{detail}; final in [0.85, 1.05]; coupon dominates all rows "
        f"(replicas {[p[1] for p in plan]})",
    )


def test_criterion_09_construction_equivalence():
    # each construction against its exact law at n = 6: M of the draws one
    # by one and of parking in mark order against distribution_M, and T of
    # the draws and of the Poissonized arrivals against the chain's law of
    # T_n (values at or above its last key counted there). The direct side
    # runs the draws one by one: the first-arrival kernel is built from the
    # priority field, so it would check the classifier with itself; the
    # priority side classifies uniform marks and never calls it
    n, reps = 6, 100_000
    rng = SeedSpec(424211).generator()
    direct = [simulate_direct(n, rng) for _ in range(reps)]  # (occupancy, T) pairs
    m_prio = occupancy_profile(SeedSpec(424212).generator().random((reps, n - 1))).sum(axis=1)
    rng_poisson = SeedSpec(424213).generator()  # one stream, as on the direct side
    t_poisson = [int(simulate_poissonized(n, rng=rng_poisson)[1].sum()) for _ in range(reps)]
    law_m, law_t = distribution_M(n).probs, distribution_T_exact(n)
    cap = max(law_t)
    checks = {
        "M direct": law_matches(collections.Counter(int(occ.sum()) for occ, _ in direct), law_m),
        "M priority": law_matches(collections.Counter(m_prio.tolist()), law_m),
        "T direct": law_matches(collections.Counter(min(t, cap) for _, t in direct), law_t),
        "T Poissonized": law_matches(collections.Counter(min(t, cap) for t in t_poisson), law_t),
    }
    report(
        9,
        "each construction against its exact law (n=6, 10^5 replicas)",
        all(ok for ok, _ in checks.values()),
        "; ".join(f"{name}: {detail}" for name, (_, detail) in checks.items()) + ", each p > 0.001",
    )


def test_criterion_10_cli_determinism():
    cmd = [
        sys.executable, "-m", "pagepark.cli",
        "density-curve", "--t-grid", "0.5,1", "--replicas", "20000",
        "--format", "json",
    ]
    a = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    b = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    csv_cmd = [
        sys.executable, "-m", "pagepark.cli",
        "trials", "--n-list", "500", "--replicas", "40", "--threads", "2",
    ]
    c = subprocess.run(csv_cmd, capture_output=True, text=True, timeout=600)
    d = subprocess.run(csv_cmd, capture_output=True, text=True, timeout=600)
    ok = (
        a.returncode == 0
        and a.stdout == b.stdout
        and c.returncode == 0
        and c.stdout == d.stdout
        and json.loads(a.stdout)["checks"]["passed"]
    )
    report(
        10,
        "CLI re-runs byte-identical",
        ok,
        f"json rerun identical ({len(a.stdout)} bytes), csv rerun identical "
        f"({len(c.stdout)} bytes), exit codes 0",
    )
