"""Trial counting through Poissonization.

Give every slot its own unit-rate Poisson arrival stream. The first arrivals
xi form the priority field, so the jammed configuration and the jamming time
tau* (the last parking time) are functions of xi alone. The total number of
arrivals up to tau*, summed over the n-1 slots, has exactly the law of T_n, the
number of uniform draws (rejections included) the direct process needs to jam:
merging the streams reproduces i.i.d. uniform slot picks. T_n grows like
n log n; a coupon collector over the n-1 slots dominates it.

The fast kernel never simulates the later arrivals one by one. Each slot's
arrivals after xi_s form a unit-rate Poisson process on (xi_s, inf) that is
independent of xi, so given xi

    T = #{s : xi_s <= tau*} + Poisson(sum_s (tau* - xi_s)^+)

exactly. tau* is the largest mark among the slots that hold a car; it is found
by visiting slots in decreasing mark order and stopping at the first one that
holds a car, which the run-parity rule decides from two O(1) local walks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_SEED, EXP, SeedSpec, as_generator, map_streams, sample_priority_field
from .finite import construct_from_priorities, rise_descent_at
from .stats import MCEstimate, SampleStats


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    """One Poissonized replica: jamming time tau*, total arrival count T, and
    optionally the per-slot counts (0-based slots)."""

    n: int
    tau_star: float
    T: int
    per_slot_counts: np.ndarray | None = None


def simulate_poissonized(
    n: int,
    rng: np.random.Generator | SeedSpec | None = None,
    keep_counts: bool = False,
) -> TrialOutcome:
    """Event-level Poissonized replica.

    The first arrivals are used as the priority field (timed construction),
    tau* is the largest parking time, and each slot then accumulates further
    exponential gaps until its arrival sum would pass tau*."""
    if n < 2:
        raise ValueError("need n >= 2 sites")
    rng = as_generator(rng)
    field = sample_priority_field(n, EXP, rng)
    outcome = construct_from_priorities(field, timed=True)
    tau_star = max(outcome.per_car_times.values())
    counts = np.zeros(n - 1, dtype=np.int64)
    for s in range(n - 1):
        acc = float(field.values[s])
        while acc <= tau_star:
            counts[s] += 1
            acc += float(rng.standard_exponential())
    return TrialOutcome(
        n=n,
        tau_star=tau_star,
        T=int(counts.sum()),
        per_slot_counts=counts if keep_counts else None,
    )


def tau_star(xi: np.ndarray) -> float:
    """Jamming time of the first-arrival field xi over slots 1..n-1: the
    largest mark among the slots that hold a car.

    Slots are visited in decreasing mark order, k at a time (argpartition, then
    a sort of the top k); the first one that holds a car gives tau*. Every slot
    not yet visited has a mark no larger, so the result is exact. Slot s holds
    a car iff the ascending run ending at it (the rise at site s+1) and the
    descending run starting at it (the descent at site s) both have odd length,
    with the package tie rule (left slot first). For i.i.d. marks the scan stops
    after O(1) candidates, each costing two O(1) runs."""
    xi = np.asarray(xi, dtype=np.float64)
    m = xi.size
    if m < 1:
        raise ValueError("need at least one slot")
    k = min(m, 32)
    while True:
        top = np.argpartition(xi, m - k)[m - k:]
        for s in top[np.argsort(xi[top])[::-1]] + 1:
            rise = rise_descent_at(xi, s + 1).rise_length
            if rise % 2 and rise_descent_at(xi, s).descent_length % 2:
                return float(xi[s - 1])
        if k == m:
            raise AssertionError("a nonempty interval always holds a car")
        k = min(m, 8 * k)


def _poissonized_fast(n: int, rng: np.random.Generator) -> TrialOutcome:
    """Replica kernel for large n: same law as simulate_poissonized.

    One draw of the first-arrival field xi fixes tau*. The attempts are the
    first arrivals at or before tau*, plus one Poisson draw for all later
    arrivals up to tau*: by superposition of the per-slot streams after their
    first arrival, its mean is sum_s (tau* - xi_s)^+. That sum is taken as
    (n-1) tau* - sum xi plus the excess of the few marks above tau*, so only
    those marks are copied."""
    xi = rng.standard_exponential(n - 1)
    tau = tau_star(xi)
    above = xi[xi > tau]
    mean_later = (n - 1) * tau - float(xi.sum()) + float(np.sum(above - tau))
    # rounding can leave the mean a few ulp below an exact 0 (n = 2, 3)
    later = int(rng.poisson(max(mean_later, 0.0)))
    return TrialOutcome(n=n, tau_star=tau, T=n - 1 - above.size + later)


@dataclass(frozen=True)
class TauStarStats:
    """Replica statistics of the jamming time tau*."""

    n: int
    stats: SampleStats
    quantiles: dict


def tau_star_statistics(
    n: int,
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
    threads: int = 1,
) -> TauStarStats:
    """Replica c draws from map_streams' stream c of the seed."""
    taus = np.array(
        map_streams(lambda n, rng: tau_star(rng.standard_exponential(n - 1)), seed, [n] * replicas, threads)
    )
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    return TauStarStats(
        n=n,
        stats=SampleStats.from_samples(taus),
        quantiles={q: float(np.quantile(taus, q)) for q in qs},
    )


@dataclass(frozen=True)
class TrialsRow:
    """One row of the trial-count sweep."""

    n: int
    replicas: int
    mean_T: float
    stderr_T: float
    ratio: float  # mean T / (n log n)
    ratio_stderr: float
    tau_star_mean: float
    coupon_mean: float  # exact (n-1) H_{n-1}

    @property
    def dominated_by_coupon(self) -> bool:
        return self.mean_T <= self.coupon_mean + 3.0 * self.stderr_T


def coupon_collector_mean_exact(k: int) -> float:
    """Exact mean draws to collect k coupons: k * H_k."""
    if k < 1:
        raise ValueError("need k >= 1")
    return k * float(np.sum(1.0 / np.arange(1, k + 1)))


def trials_ratio_sweep(
    n_list,
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
    threads: int = 1,
) -> list[TrialsRow]:
    """Mean T_n against n log n for each n, with per-replica RNG streams.

    Replicas are numbered across rows and replica c draws from map_streams'
    stream c of the seed, so rows are independent and any leading row subset
    reproduces bit-identically."""
    jobs = [n for n in n_list for _ in range(replicas)]
    outs_all = map_streams(_poissonized_fast, seed, jobs, threads)
    rows = []
    for j in range(0, len(jobs), replicas):
        n, outs = jobs[j], outs_all[j:j + replicas]
        t = np.array([o.T for o in outs], dtype=np.float64)
        taus = np.array([o.tau_star for o in outs])
        st = SampleStats.from_samples(t)
        scale = n * math.log(n)
        rows.append(
            TrialsRow(
                n=n,
                replicas=replicas,
                mean_T=st.mean,
                stderr_T=st.stderr,
                ratio=st.mean / scale,
                ratio_stderr=st.stderr / scale,
                tau_star_mean=float(taus.mean()),
                coupon_mean=coupon_collector_mean_exact(n - 1),
            )
        )
    return rows


def coupon_collector_mc(
    k: int,
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
) -> MCEstimate:
    """Monte Carlo mean of the coupon-collector completion draw count.

    Samples the exact law stage by stage: after j distinct coupons the wait for
    a new one is Geometric((k-j)/k), independent across stages."""
    if k < 1:
        raise ValueError("need k >= 1")
    rng = as_generator(seed)
    totals = np.zeros(replicas, dtype=np.int64)
    for j in range(k):
        totals += rng.geometric((k - j) / k, size=replicas)
    st = SampleStats.from_samples(totals)
    return MCEstimate(estimate=st.mean, stderr=st.stderr, replicas=replicas)
