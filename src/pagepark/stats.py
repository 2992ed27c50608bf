"""Small statistics containers and tests shared by the simulators and the CLI."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampleStats:
    """Mean, unbiased variance, and standard error of a sample."""

    mean: float
    variance: float
    stderr: float
    count: int

    @classmethod
    def from_samples(cls, samples) -> "SampleStats":
        x = np.asarray(samples, dtype=np.float64)
        n = x.size
        if n < 2:
            raise ValueError("need at least 2 samples")
        var = float(x.var(ddof=1))
        return cls(mean=float(x.mean()), variance=var, stderr=math.sqrt(var / n), count=n)


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo point estimate with its standard error."""

    estimate: float
    stderr: float
    replicas: int

    def within(self, target: float, k_sigma: float = 3.0, atol: float = 0.0) -> bool:
        return abs(self.estimate - target) <= k_sigma * self.stderr + atol


def proportion_estimate(hits: int, total: int) -> MCEstimate:
    """hits/total with its Wald stderr, which is 0 at 0 or total hits."""
    p = hits / total
    return MCEstimate(estimate=p, stderr=math.sqrt(p * (1.0 - p) / total), replicas=total)


def wilson_interval(p: float, total: int, z: float) -> tuple[float, float]:
    """Wilson (1927) score interval for a proportion p observed in total trials:
    the q with |p - q| <= z sqrt(q(1-q)/total). Its width stays positive at
    p = 0 or 1, where the Wald band p +- z stderr collapses to a point."""
    z2 = z * z / total
    centre = (p + z2 / 2.0) / (1.0 + z2)
    half = z / (1.0 + z2) * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total))
    return (0.0 if p == 0.0 else centre - half), (1.0 if p == 1.0 else centre + half)


def bernoulli_variance_range(lo: float, hi: float) -> tuple[float, float]:
    """Smallest and largest q(1-q) over q in [lo, hi]."""
    peak = min(max(0.5, lo), hi)
    return min(lo * (1.0 - lo), hi * (1.0 - hi)), peak * (1.0 - peak)


def chi_square_two_sample(counts_a: dict, counts_b: dict, min_expected: float = 5.0):
    """Two-sample chi-square homogeneity test over integer-valued outcomes.

    Bins with pooled expected count below min_expected are merged into their
    right neighbour (tail pooling). Returns (statistic, dof, p_value).
    """
    keys = sorted(set(counts_a) | set(counts_b))
    a = np.array([counts_a.get(k, 0) for k in keys], dtype=np.float64)
    b = np.array([counts_b.get(k, 0) for k in keys], dtype=np.float64)
    na, nb = a.sum(), b.sum()
    if na == 0 or nb == 0:
        raise ValueError("empty sample")

    # pool sparse bins so the chi-square approximation is sound
    pooled_a, pooled_b = [], []
    acc_a = acc_b = 0.0
    for va, vb in zip(a, b):
        acc_a += va
        acc_b += vb
        expected_min = min(na, nb) * (acc_a + acc_b) / (na + nb)
        if expected_min >= min_expected:
            pooled_a.append(acc_a)
            pooled_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a or acc_b:
        if pooled_a:
            pooled_a[-1] += acc_a
            pooled_b[-1] += acc_b
        else:
            pooled_a.append(acc_a)
            pooled_b.append(acc_b)
    a = np.array(pooled_a)
    b = np.array(pooled_b)
    if a.size < 2:
        return 0.0, 0, 1.0

    tot = a + b
    stat = 0.0
    for obs, n_side in ((a, na), (b, nb)):
        exp = tot * n_side / (na + nb)
        stat += float(((obs - exp) ** 2 / exp).sum())
    dof = a.size - 1
    return stat, dof, chi_square_sf(stat, dof)


def chi_square_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with integer dof >= 1 (Abramowitz & Stegun
    26.4.4-5): with h = x/2, the sum of h^a e^-h / Gamma(a+1) over
    a = dof/2 - 1, dof/2 - 2, ... >= 0, plus erfc(sqrt(h)) for odd dof. The
    terms are positive and taken in log space, so deep tails underflow to 0."""
    if dof < 1:
        raise ValueError(f"need dof >= 1, got {dof}")
    if x <= 0:
        return 1.0
    h = x / 2
    tail = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    log_h = math.log(h)
    return tail + math.fsum(
        math.exp(a * log_h - h - math.lgamma(a + 1)) for a in (dof % 2 / 2 + i for i in range(dof // 2))
    )


def ks_distance(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a cdf."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    f = np.array([cdf(v) for v in x])
    upper = np.abs(np.arange(1, n + 1) / n - f).max()
    lower = np.abs(f - np.arange(0, n) / n).max()
    return float(max(upper, lower))
