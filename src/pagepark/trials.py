"""Trial counting through Poissonization.

Give every slot its own unit-rate Poisson arrival stream. The first arrivals
xi are the slot marks, so the jammed configuration and the jamming time
tau* (the last parking time) are functions of xi alone. The total number of
arrivals up to tau*, summed over the n-1 slots, has exactly the law of T_n, the
number of uniform draws (rejections included) the direct process needs to jam:
merging the streams reproduces i.i.d. uniform slot picks. T_n grows like
n log n; a coupon collector over the n-1 slots dominates it.

The sweeps below read T and tau* from finite.first_arrival_batch (M is a
separate call, simulate_direct_batch), which works from the first arrivals
and counts the later ones with one Poisson draw (the superposition identity,
stated in finite.py). Rows of up to finite._BAND_SITES = 5600 sites draw
every first arrival and classify them with one parity pass. Longer rows take
the band path, whose cost does not grow with n. It draws the Binomial(n-1,
e^-a) marks above a level a = log((n-1)/400), a + Exp(1) each, visits them
in decreasing order, walks each one's rise and descent, and reads a mark
only when a walk reaches it (below a it draws one, Exp(1) truncated to [0,
a]); the first car found gives tau*. The finite.py module docstring says
how the slots never read are counted, and why each row, which draws from
its own stream, runs on the calling thread. simulate_poissonized runs
every arrival and is the event-level reference of both paths; it parks
cars with the oracle's one-row replay, park_in_rank_order, so it shares no
code with the kernels.

Each row's coupon_mean, the ceiling (n-1) H_{n-1}, comes from
coupon_collector_mean_exact in O(1) time and memory: an exact Fraction sum
below 20 slots, and from 20 on the Euler-Maclaurin series of H_k to its
k^-10 term in 34-digit decimal arithmetic. It is within 1 ulp of (n-1)
H_{n-1} and equals its correctly rounded value for every n up to 3001.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction

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


# H_k = ln k + gamma + 1/(2k) - sum_j B_2j / (2j k^2j), the Euler-Maclaurin
# expansion, to its k^-10 term: (numerator, denominator, power of k) of each
# term after gamma
_HARMONIC_TERMS = ((1, 2, 1), (-1, 12, 2), (1, 120, 4), (-1, 252, 6), (1, 240, 8), (-1, 132, 10))
_EULER_GAMMA = Decimal("0.5772156649015328606065120900824024310422")
# the first omitted term, 691 / (32760 k^12), is below 5.2e-18 from k = 20
# on, about a hundredth of an ulp of H_k; below 20 the sum is taken exactly
_SERIES_FROM = 20


def coupon_collector_mean_exact(k: int) -> float:
    """Mean draws to collect k coupons, k H_k, rounded once to a float, in
    O(1) time and memory.

    Below k = 20 the harmonic sum is an exact Fraction. From k = 20 on, the
    Euler-Maclaurin expansion of H_k to its k^-10 term (error below 5.2e-18)
    is evaluated in 34-digit decimal arithmetic, so the result is within one
    ulp of k H_k, and is its correctly rounded value unless k H_k lies within
    a relative 2e-18 of a rounding boundary: it equals float(k H_k) for every
    k up to 3000 and at 10^5 and 10^6."""
    if k < 1:
        raise ValueError("need k >= 1")
    if k < _SERIES_FROM:
        return float(k * sum(Fraction(1, j) for j in range(1, k + 1)))
    ctx = Context(prec=34)
    x = Decimal(k)
    h = ctx.add(ctx.ln(x), _EULER_GAMMA)
    for num, den, power in _HARMONIC_TERMS:
        h = ctx.add(h, ctx.divide(num, ctx.multiply(den, ctx.power(x, power))))
    return float(ctx.multiply(x, h))


def _quantiles(x: np.ndarray, levels) -> np.ndarray:
    """Quantiles of x by linear interpolation between order statistics, the
    definition np.quantile uses by default; np.quantile itself imports
    numpy.ma on its first call, about 20 ms."""
    return np.interp(np.multiply(levels, x.size - 1), np.arange(x.size), np.sort(x))


def trials_ratio_sweep(n_list, replicas: int, seed: int | SeedSpec = DEFAULT_SEED) -> list[TrialsRow]:
    """Mean T_n against n log n, and the mean and quantiles of tau*, for each
    n, one first_arrival_batch row per n on its own stream, so a row
    reproduces bit for bit whatever the other rows are."""
    rows = []
    for n, (t, taus) in zip(n_list, first_arrival_batch(n_list, replicas, seed)):
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

