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


def proportion_estimate(hits: int, total: int) -> MCEstimate:
    """hits/total with its Wald stderr, which is 0 at 0 or total hits."""
    p = hits / total
    return MCEstimate(estimate=p, stderr=math.sqrt(p * (1.0 - p) / total), replicas=total)


def within_stderr(estimate: float, exact: float, stderr: float, z: float) -> tuple[bool, str]:
    """(ok, detail): the estimate lies within z standard errors of the exact
    value. The caller takes stderr from the exact law, not from the sample,
    so the band is 0 only where that law is a single point, and a sample with
    no spread is judged like any other. For a proportion p of total trials
    against an exact q, with stderr sqrt(q(1-q)/total), this is the score test
    that the Wilson (1927) interval inverts: it passes iff q lies in the
    z-sigma Wilson interval of p."""
    diff, band = abs(estimate - exact), z * stderr
    return diff <= band, f"estimate {estimate:.6f} vs exact {exact:.6f}: |diff| {diff:.3e} <= {z:g} stderr = {band:.3e}"


def _pooled(cells: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """The columns of cells (outcomes in increasing order) summed over groups
    of adjacent outcomes, so that the chi-square approximation is sound: a
    group closes once its expected count reaches 5, and a short last group
    joins the group before it."""
    ends, acc = [], 0.0
    for j, e in enumerate(expected):
        acc += e
        if acc >= 5.0:
            ends.append(j + 1)
            acc = 0.0
    ends[-1:] = [len(expected)]
    return np.add.reduceat(cells, [0, *ends[:-1]], axis=-1)


def law_matches(counts: dict, law: dict) -> tuple[bool, str]:
    """(ok, detail): a one-sample chi-square test of the counts {value: count}
    against the law {value: probability}, over the values pooled by _pooled,
    passed at p > 0.001. A value the law excludes makes p = 0, so a one-point
    law cannot pass vacuously; a sample too small to leave two groups of a
    law with two or more values is refused, like an empty one."""
    excluded = sorted(v for v, c in counts.items() if c and not law.get(v))
    if excluded:
        return False, f"p = 0: the law excludes the value {excluded[0]}, seen {counts[excluded[0]]} times"
    keys = sorted(law)
    observed = np.array([counts.get(k, 0) for k in keys], dtype=np.float64)
    if not observed.sum():
        raise ValueError("empty sample")
    expected = observed.sum() * np.array([float(law[k]) for k in keys])
    o, e = _pooled(np.array([observed, expected]), expected)
    stat, dof = float(((o - e) ** 2 / e).sum()), o.size - 1
    if not dof and np.count_nonzero(expected) > 1:
        raise ValueError(f"{observed.sum():g} values pool into one group: too few to test the law")
    p = chi_square_sf(stat, dof) if dof else 1.0
    return p > 0.001, f"chi-square {stat:.3f} on {dof} dof, p = {p:.3g}"


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

