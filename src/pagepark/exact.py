"""Exact finite-n analytics and closed-form limits.

The first car parks at a uniform slot I of the n-1 slots and splits the
interval into independent sub-intervals of I-1 and n-I-1 sites. Every exact
finite-n law here is a count of slot orderings built on that split, kept in
integers and divided by (n-1)! once at the end.

The mean: A_k = (k-1)! E[M_k] is the number of occupied sites summed over all
orderings of k-1 slots. From

    E[M_k] = 2 + (2 / (k-1)) * sum_{j=0}^{k-2} E[M_j],    E[M_0] = E[M_1] = 0,

it follows that, with P_k = (k-2)! sum_{j<=k-2} E[M_j],

    P_k = (k-2) P_{k-1} + (k-2) A_{k-2},    A_k = 2 (k-1)! + 2 P_k.

The law: N_k(c) counts the orderings of the k-1 slots that jam with c cars.
If slot i parks first, the other k-2 slots are the i-2 slots of the left
block, the k-i-2 of the right block and the dead slots i-1 and i+1 (those
that exist). A left ordering and a right ordering extend to

    w(k,i) = (k-2)! / (max(i-2,0)! max(k-i-2,0)!)

orderings of all k-2, one per interleaving of the blocks and the dead slots, so

    N_k(c) = sum_{i=1}^{k-1} w(k,i) sum_{a+b=c-1} N_{i-1}(a) N_{k-i-1}(b),

and sum_c N_k(c) = (k-1)!. Both factors are symmetric under i <-> k-i, so the
sum runs over i <= k/2 and counts every off-centre term twice.

Per-site vacancy factorises over the two sides of the site into alternating
factorial series; the relevant tail sum is

    S_k = sum_{l=1}^{k} 2l / (2l+1)!  ->  1/e,

since 2l/(2l+1)! = 1/(2l)! - 1/(2l+1)!.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import EXP, ArrivalDistribution

# distribution_M's exact path is O(n^4) big-integer products (3.3 s cold at this
# n on a 2-vCPU Xeon VM); beyond it distribution_M falls back to float64.
DISTRIBUTION_RATIONAL_CAP = 256

_occupied_totals: list[int] = [0, 0]  # A_k = (k-1)! E[M_k]
_occupied_prefix = 0  # P_k for the last k in _occupied_totals


def expected_M(n: int) -> Fraction:
    """Exact rational E[M_n] from integer ordering counts, one big-integer step
    per size (0.03 s at n = 3000 on a 2-vCPU Xeon VM); use expected_M_series
    for long float sweeps."""
    if n < 0:
        raise ValueError("n must be >= 0")
    global _occupied_prefix
    totals = _occupied_totals
    if len(totals) <= n:
        fact = math.factorial(len(totals) - 2)
        for k in range(len(totals), n + 1):
            fact *= k - 1  # (k-1)!
            _occupied_prefix = (k - 2) * (_occupied_prefix + totals[k - 2])
            totals.append(2 * fact + 2 * _occupied_prefix)
    return Fraction(totals[n], math.factorial(n - 1)) if n else Fraction(0)


def expected_M_series(n_max: int) -> np.ndarray:
    """E[M_n] for n = 0..n_max from the same recursion in float64.

    The recursion is numerically benign (positive terms, relative error stays
    near machine epsilon); agreement with the rational values is ~1e-12 at
    n=1000, far below any tolerance used downstream.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    em = np.zeros(n_max + 1)
    prefix = 0.0
    for n in range(2, n_max + 1):
        prefix += em[n - 2]
        em[n] = 2.0 + 2.0 * prefix / (n - 1)
    return em


# N_k as (lowest car count c, [N_k(c), N_k(c+1), ...]); zero counts are trimmed
_ordering_counts: list[tuple[int, list[int]]] = [(0, [1]), (0, [1])]


def _ordering_counts_upto(n: int) -> None:
    if len(_ordering_counts) > n:
        return
    fact = [math.factorial(m) for m in range(n - 1)]
    for k in range(len(_ordering_counts), n + 1):
        acc = [0] * (k // 2 + 1)
        for i in range(1, k // 2 + 1):
            j = k - i
            w = fact[k - 2] // (fact[max(i - 2, 0)] * fact[max(j - 2, 0)])
            if i != j:
                w *= 2
            lo_a, a = _ordering_counts[i - 1]
            lo_b, b = _ordering_counts[j - 1]
            if len(a) > len(b):
                a, b = b, a
            for x, na in enumerate(a, lo_a + lo_b + 1):
                wa = w * na
                for y, nb in enumerate(b, x):
                    acc[y] += wa * nb
        assert sum(acc) == fact[k - 2] * (k - 1)
        nonzero = [c for c, v in enumerate(acc) if v]
        _ordering_counts.append((nonzero[0], acc[nonzero[0] : nonzero[-1] + 1]))


@dataclass(frozen=True)
class MDistribution:
    """Law of M_n as {m: probability}; exact marks rational arithmetic."""

    n: int
    probs: dict
    exact: bool

    def mean(self):
        return sum(m * p for m, p in self.probs.items())

    def variance(self):
        mu = self.mean()
        return sum((m - mu) ** 2 * p for m, p in self.probs.items())


def distribution_M(n: int, rational_cap: int = DISTRIBUTION_RATIONAL_CAP) -> MDistribution:
    """Full law of M_n. Exact rationals up to rational_cap sites, float64 beyond
    (flagged on the result)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= rational_cap:
        _ordering_counts_upto(n)
        lo, counts = _ordering_counts[n]
        total = math.factorial(max(n - 1, 0))
        probs = {2 * c: Fraction(v, total) for c, v in enumerate(counts, lo) if v}
        return MDistribution(n=n, probs=probs, exact=True)
    rows: list[np.ndarray] = [np.array([1.0]), np.array([1.0])]
    for k in range(2, n + 1):
        acc = np.zeros(k // 2 + 1)
        for i in range(1, k // 2 + 1):
            conv = np.convolve(rows[i - 1], rows[k - i - 1])
            acc[1 : 1 + conv.size] += conv if 2 * i == k else 2.0 * conv
        rows.append(acc / (k - 1))
    probs = {2 * c: float(p) for c, p in enumerate(rows[n]) if p > 0.0}
    return MDistribution(n=n, probs=probs, exact=False)


_tail_sums: list[Fraction] = [Fraction(0)]  # S_0, S_1, ...


def partial_sum_S(k: int) -> Fraction:
    """S_k = sum_{l=1}^{k} 2l/(2l+1)!, with S_k = 0 for k <= 0. Converges to 1/e
    like the tail of the alternating exp(-1) series (error < 1/(2k+2)!)."""
    if k <= 0:
        return Fraction(0)
    while len(_tail_sums) <= k:
        l = len(_tail_sums)
        _tail_sums.append(_tail_sums[-1] + Fraction(2 * l, math.factorial(2 * l + 1)))
    return _tail_sums[k]


def _eps_factor(j: int) -> Fraction:
    """1/(j-1)! when j is odd, else 0: probability that the run on one side of a
    site covers everything up to the interval edge with even length."""
    if j % 2 == 1:
        return Fraction(1, math.factorial(j - 1))
    return Fraction(0)


def per_site_vacancy_exact(n: int, i: int) -> Fraction:
    """Exact P(site i vacant at jamming) on n sites, 1-based i.

    The rise and descent at i live on disjoint slot blocks, so vacancy
    factorises: P = P(even rise) * P(even descent),

        P(even rise at i)    = eps_i + S_{floor((i-2)/2)}
        P(even descent at i) = eps_{n-i+1} + S_{floor((n-i-1)/2)}

    with eps_j = 1[j odd]/(j-1)!. The eps term is the run hitting the interval
    edge with even length; the S terms are the interior even-length runs."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= i <= n:
        raise ValueError(f"site {i} outside 1..{n}")
    rise_even = _eps_factor(i) + partial_sum_S((i - 2) // 2)
    desc_even = _eps_factor(n - i + 1) + partial_sum_S((n - i - 1) // 2)
    return rise_even * desc_even


def per_site_vacancy_float(n: int, i: int) -> float:
    """Float64 evaluation of per_site_vacancy_exact; the series are truncated at
    machine precision so this stays O(1) per site for any n."""
    if n < 2 or not 1 <= i <= n:
        raise ValueError("site outside interval")

    def side(j: int) -> float:
        total = 1.0 / math.factorial(j - 1) if (j % 2 == 1 and j <= 171) else 0.0
        fact = 1.0
        for l in range(1, (j - 2) // 2 + 1):
            fact *= (2 * l) * (2 * l + 1)
            term = 2 * l / fact
            total += term
            if term < 1e-18:
                break
        return total

    return side(i) * side(n - i + 1)


def site_coupling_bound(n: int, i: int) -> float:
    """Distance bound between the finite and infinite per-site vacancies:
    2 * max{(2/3)^(i/3 - 1), (2/3)^((n-i)/3 - 1)}."""
    r = 2.0 / 3.0
    return 2.0 * max(r ** (i / 3.0 - 1.0), r ** ((n - i) / 3.0 - 1.0))


def limit_constants() -> dict:
    """Closed-form limits: jamming density 1 - e^-2, per-site vacancy e^-2, and
    the slot-convention finite-size offset constant 1 - 3e^-2 (the offset against
    n sites converges to the equivalent -2e^-2)."""
    e2 = math.exp(-2.0)
    return {
        "jamming_density": 1.0 - e2,
        "vacancy": e2,
        "friedman_offset": 1.0 - 3.0 * e2,
    }


def density_curve_closed_form(t_grid, dist: ArrivalDistribution = EXP) -> np.ndarray:
    """Expected occupancy of a fixed site at time t on the infinite line:
    rho(t) = 1 - exp(-2 F(t))."""
    t = np.asarray(t_grid, dtype=np.float64)
    f_of_t = np.array([dist.cdf(float(x)) for x in np.atleast_1d(t)])
    return 1.0 - np.exp(-2.0 * f_of_t)


def odd_descent_prob_closed_form(t_grid, dist: ArrivalDistribution = EXP) -> np.ndarray:
    """f(t) = P(the slot mark at a fixed site is <= t and its descent is odd)
    = 1 - exp(-F(t)); the time-t density satisfies rho(t) = f(t) (2 - f(t))."""
    t = np.asarray(t_grid, dtype=np.float64)
    f_of_t = np.array([dist.cdf(float(x)) for x in np.atleast_1d(t)])
    return 1.0 - np.exp(-f_of_t)
