"""Exact finite-n analytics and closed-form limits.

The first car parks at a uniform slot I of the n-1 slots and splits the
interval into independent sub-intervals of I-1 and n-I-1 sites. Every exact
finite-n law here is built on that split, kept in integers and divided by a
factorial once at the end.

The mean: A_k = (k-1)! E[M_k] is the number of occupied sites summed over all
orderings of k-1 slots. From

    E[M_k] = 2 + (2 / (k-1)) * sum_{j=0}^{k-2} E[M_j],    E[M_0] = E[M_1] = 0,

it follows that, with P_k = (k-2)! sum_{j<=k-2} E[M_j],

    P_k = (k-2) P_{k-1} + (k-2) A_{k-2},    A_k = 2 (k-1)! + 2 P_k.

The law: g_n(x) = E[x^(M_n/2)] obeys the same split, (n-1) g_n =
x sum_i g_(i-1) g_(n-i-1) with g_0 = g_1 = 1. So H(z) = sum_n g_n z^n solves
the Riccati equation (H/z)' = x H^2 - 1/z^2; H = -w'/(x z w) linearises it to
w'' - (2/z) w' - x w = 0, solved by (1 -+ sqrt(x) z) e^(+-sqrt(x) z), and
g_0 = g_1 = 1 fix H = P/D with

    P(z) = sum_m x^floor(m/2) z^m / m!,   D(z) = 1 - sum_{m>=2} (m-1) x^floor(m/2) z^m / m!.

The z^n coefficient of D H = P gives, for G_n = n! g_n, the positive recurrence

    G_n = x^floor(n/2) + sum_{m=2}^{n} C(n,m) (m-1) x^floor(m/2) G_{n-m}.

In the deficit d = floor(n/2) - M_n/2 each term keeps its deficit but the
odd-m terms of an even n, which gain one. The float path cuts the sum at
m = 40: the weights (m-1)/m! beyond it sum to less than 1.3e-48, and every
coefficient of g_k is at most 1.

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

# distribution_M's exact path is O(n^2) small-by-big products on packed rows
# (0.33-0.45 s cold at this n on a 2-vCPU Xeon VM); beyond it, float64.
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


def _deficit_counts(n: int) -> list[int]:
    """n! P(M_n = 2 (floor(n/2) - d)) for d = 0, 1, ...: the coefficients of G_n by
    deficit, each row packed into one integer with B bits per coefficient. Every
    partial sum of a coefficient is at most n! < 2^B, so nothing carries; B is
    whole bytes, so the last row unpacks by slicing."""
    width = math.factorial(n).bit_length() // 8 + 1
    rows = [1, 1]
    for k in range(2, n + 1):
        parts = [0, 0]  # the sums over even and odd m
        for m in range(2, k + 1):
            parts[m & 1] += math.comb(k, m) * (m - 1) * rows[k - m]
        rows.append(1 + parts[0] + (parts[1] << 8 * width if k % 2 == 0 else parts[1]))
    raw = rows[n].to_bytes(rows[n].bit_length() // 8 + 1, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _deficit_law_float(n: int) -> np.ndarray:
    """P(M_n = 2 (floor(n/2) - d)) for d = 0, 1, ... from g_n in float64, the sum
    cut at m = 40. A jammed row of k sites has at least (k-1)/3 cars, so its
    deficit is at most k/6 + 1/3."""
    terms = 40
    m = np.arange(terms, 0, -1)  # the weights of rows k-40 .. k-1
    weight = (m - 1) / np.array([math.factorial(j) for j in m], dtype=float)
    odd = np.where(m % 2, weight, 0.0)
    even = weight - odd
    # each row is stored twice, so any 40 consecutive rows are one slice; the
    # zero column 0 shifts the odd-m rows of an even k by one deficit
    ring = np.zeros((2 * terms + 2, n // 6 + 3))
    for k in range(n + 1):
        win = ring[(k - terms) % (terms + 1) :][:terms]
        row = weight @ win[:, 1:] if k % 2 else even @ win[:, 1:] + odd @ win[:, :-1]
        if k <= terms:
            row[0] += 1.0 / math.factorial(k)
        ring[k % (terms + 1), 1:] = ring[k % (terms + 1) + terms + 1, 1:] = row
    return row


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
        total = math.factorial(n)
        law = [Fraction(v, total) for v in _deficit_counts(n)]
    else:
        law = _deficit_law_float(n).tolist()
    probs = {2 * (n // 2 - d): p for d, p in reversed(list(enumerate(law))) if p}
    return MDistribution(n=n, probs=probs, exact=n <= rational_cap)


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
