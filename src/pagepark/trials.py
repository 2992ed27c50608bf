"""Trial counting through Poissonization.

Give every slot its own unit-rate Poisson arrival stream. The first arrivals
xi form the priority field, so the jammed configuration and the jamming time
tau* (the last parking time) are functions of xi alone. The total number of
arrivals up to tau*, summed over the n-1 slots, has exactly the law of T_n, the
number of uniform draws (rejections included) the direct process needs to jam:
merging the streams reproduces i.i.d. uniform slot picks. T_n grows like
n log n; a coupon collector over the n-1 slots dominates it.

The sweeps below read T and tau* from finite.first_arrival_batch, which draws
only the first arrivals and counts the later ones with one Poisson draw (the
superposition identity, stated in finite.py). simulate_poissonized runs every
arrival and is its event-level reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_SEED, EXP, SeedSpec, as_generator, sample_priority_field
from .finite import construct_from_priorities, first_arrival_batch
from .stats import SampleStats


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
    """tau* of one first_arrival_batch row."""
    taus = first_arrival_batch([n], replicas, seed, threads, want_m=False)[0][2]
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
    """Mean T_n against n log n for each n, one first_arrival_batch row per n,
    so rows are independent and any leading row subset reproduces
    bit-identically."""
    rows = []
    for n, (_, t, taus) in zip(n_list, first_arrival_batch(n_list, replicas, seed, threads, want_m=False)):
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

