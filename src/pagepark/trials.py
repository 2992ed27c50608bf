"""Trial counting through Poissonization.

Give every slot its own unit-rate Poisson arrival stream. The first arrivals
xi are the slot marks, so the jammed configuration and the jamming time
tau* (the last parking time) are functions of xi alone. The total number of
arrivals up to tau*, summed over the n-1 slots, has exactly the law of T_n, the
number of uniform draws (rejections included) the direct process needs to jam:
merging the streams reproduces i.i.d. uniform slot picks. T_n grows like
n log n; a coupon collector over the n-1 slots dominates it.

The sweeps below read T and tau* from finite.first_arrival_batch, which draws
only the first arrivals and counts the later ones with one Poisson draw (the
superposition identity, stated in finite.py). simulate_poissonized runs every
arrival and is its event-level reference; it parks cars with the oracle's
one-row replay, park_in_rank_order, so it shares no code with the kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_SEED, SeedSpec, as_generator
from .finite import first_arrival_batch
from .oracle import park_in_rank_order
from .stats import SampleStats

TAU_STAR_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)  # quantiles of tau* in each sweep row


def simulate_poissonized(n: int, rng: np.random.Generator | SeedSpec | None = None) -> tuple[float, np.ndarray]:
    """Event-level Poissonized replica: (tau*, per-slot arrival counts over
    0-based slots); T is the sum of the counts.

    The first arrivals xi park cars in increasing order (the oracle's replay),
    tau* is the largest mark of a car slot, and each slot then accumulates
    further exponential gaps until its arrival sum would pass tau*."""
    if n < 2:
        raise ValueError("need n >= 2 sites")
    rng = as_generator(rng)
    xi = -np.log1p(-rng.random(n - 1))
    tau_star = max(float(xi[s]) for s in park_in_rank_order(xi) if s is not None)
    counts = np.zeros(n - 1, dtype=np.int64)
    for s in range(n - 1):
        acc = float(xi[s])
        while acc <= tau_star:
            counts[s] += 1
            acc += float(rng.standard_exponential())
    return tau_star, counts


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
    tau_star_quantiles: tuple  # tau* at each level of TAU_STAR_LEVELS
    coupon_mean: float  # exact (n-1) H_{n-1}

    @property
    def dominated_by_coupon(self) -> bool:
        return self.mean_T <= self.coupon_mean + 3.0 * self.stderr_T


def coupon_collector_mean_exact(k: int) -> float:
    """Exact mean draws to collect k coupons: k * H_k."""
    if k < 1:
        raise ValueError("need k >= 1")
    return k * float(np.sum(1.0 / np.arange(1, k + 1)))


def _quantiles(x: np.ndarray, levels) -> np.ndarray:
    """Quantiles of x by linear interpolation between order statistics, the
    definition np.quantile uses by default; np.quantile itself imports
    numpy.ma on its first call, about 20 ms."""
    return np.interp(np.multiply(levels, x.size - 1), np.arange(x.size), np.sort(x))


def trials_ratio_sweep(
    n_list,
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
    threads: int = 1,
) -> list[TrialsRow]:
    """Mean T_n against n log n, and the mean and quantiles of tau*, for each
    n, one first_arrival_batch row per n, so rows are independent and any
    leading row subset reproduces bit-identically."""
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
                tau_star_quantiles=tuple(_quantiles(taus, TAU_STAR_LEVELS).tolist()),
                coupon_mean=coupon_collector_mean_exact(n - 1),
            )
        )
    return rows

