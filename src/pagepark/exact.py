"""Exact finite-n analytics and closed-form limits.

The first car parks at a uniform slot I of the n-1 slots and splits the
interval into independent sub-intervals of I-1 and n-I-1 sites. Page (1959)
solves that split for the vacancy and the mean in one truncated exponential
series,

    e_j(x) = sum_{k<j} x^k / k!.

Vacancy: site i stays vacant iff the rise ending at it and the descent
starting at it are both even. They live on the disjoint slot blocks left and
right of i, and a run over j-1 slots is even with probability e_j(-1), so

    P(site i vacant) = e_i(-1) e_{n+1-i}(-1).

Mean: summing the vacancies over the sites,

    n - E[M_n] = sum_{j<=n} e_j(-2) = sum_{k<n} (n-k) (-2)^k / k!.

The whole series sums to (n+2) e^-2, so E[M_n] = n - (n+2) e^-2 + r_n with
r_n = sum_{k>n} (n-k) (-2)^k / k! and, for n >= 3,
|r_n| <= 2^(n+1)/(n+1)! (n+2)/(n-2): the finite-size offset is -2e^-2 against
n (1 - e^-2), and 1 - 3e^-2 against (n-1) (1 - e^-2).

Both run on integers. With the derangement numbers D_m = m D_(m-1) + (-1)^m,
e_j(-1) = D_(j-1) / (j-1)!, so a vacancy is D_(i-1) D_(n-i) / ((i-1)! (n-i)!),
reduced by one gcd; the D_m are cached, one small-by-big product each. The
mean is n - S_n / (n-1)! with the integer S_n = sum_{k<n} (n-k) (-2)^k (n-1)!/k!,
summed by binary splitting (Haible and Papanikolaou 1998): a block of k keeps
its partial sum and its product of the j it spans, and two halves join in two
multiplications, so the work is a tree of O(log n) levels of balanced big
products rather than n products of an ever longer integer.

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


# block length below which _mean_split runs slot by slot
_MEAN_LEAF = 16


def _mean_split(n: int, a: int, b: int) -> tuple[int, int]:
    """(T, R) of the block [a, b) of S_n: T = sum_k (n-k) (-2)^(k-a) prod_{j=k+1}^{b-1} j
    and R = prod_{j=a}^{b-1} j. Two halves join as T = T_L R_R + (-2)^(m-a) T_R,
    R = R_L R_R; short blocks run the same join one slot at a time."""
    if b - a <= _MEAN_LEAF:
        t, r, power = 0, 1, 1  # power = (-2)^(k-a)
        for k in range(a, b):
            t = t * k + (n - k) * power
            r *= k
            power *= -2
        return t, r
    m = (a + b) // 2
    t_left, r_left = _mean_split(n, a, m)
    t_right, r_right = _mean_split(n, m, b)
    shifted = t_right << (m - a)
    return t_left * r_right + (-shifted if (m - a) % 2 else shifted), r_left * r_right


def expected_M(n: int) -> Fraction:
    """Exact rational E[M_n] = n - S_n / (n-1)! with the integer
    S_n = sum_{k<n} (n-k) (-2)^k (n-1)!/k!, summed by binary splitting over k
    into a balanced product tree, so the big multiplications are few and of
    equal size (Karatsuba); one gcd normalises the result. About 3 ms at
    n = 3000, half of it that gcd; use expected_M_series for long float sweeps."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(0)
    fact = math.factorial(n - 1)
    return Fraction(n * fact - _mean_split(n, 0, n)[0], fact)


def expected_M_series(n_max: int) -> np.ndarray:
    """E[M_n] for n = 0..n_max in float64 from the same sum, split as
    n sum_{k<n} a_k - sum_{k<n} k a_k with a_k = (-2)^k / k!; within one ulp of
    the exact value at every n <= 3000 and at sampled n up to 10^4."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    k = np.arange(n_max)
    a = np.cumprod(np.append(1.0, -2.0 / k[1:]))  # 0 from k = 205 on, by underflow
    n = np.arange(1, n_max + 1)
    return np.append(0.0, n - (n * np.cumsum(a) - np.cumsum(k * a)))


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


def variance_M(n: int) -> float:
    """Var(M_n) in float64: from the exact law below n = 40, and 4e^-4 (n+2)
    from n = 40 on, where the exact law's variance rounds to it (relative 1e-15
    up to n = 256, and 2e-14 against the float law at n = 3000). O(1) from
    40 on, so a Monte Carlo check at any n can take its band from it."""
    if n < 40:
        return float(distribution_M(n).variance())
    return 4.0 * math.exp(-4.0) * (n + 2)


# D_m for m = 0, 1, ...: the derangement numbers, D_m = m D_(m-1) + (-1)^m. A
# longer list replaces this one in a single assignment and no list is changed
# once published, so threads that extend it at once only repeat work.
_derangements: list[int] = [1]

# e_j(-1) is within 1/j! of 1/e; from this j on, the cut moves a vacancy by
# less than 2^-100, far under half an ulp of any nonzero one (>= 1/9)
_SIDE_CONVERGED = 30


def _side(j: int) -> tuple[int, int]:
    """e_j(-1) = sum_{l<j} (-1)^l / l! = D_(j-1) / (j-1)! for j >= 1, as the pair
    (D_(j-1), (j-1)!): the probability that the run of a site over the j-1
    slots on one side of it is even. The derangement numbers are cached as
    integers, one small-by-big product each (about 8 ms for the first 3000,
    linear in the table's bits), and the factorial is taken on demand, so no
    fraction is reduced here."""
    global _derangements
    table = _derangements
    if len(table) < j:
        table = table.copy()
        for m in range(len(table), j):
            table.append(m * table[-1] + (1 if m % 2 == 0 else -1))
        _derangements = table
    return table[j - 1], math.factorial(j - 1)


def per_site_vacancy_exact(n: int, i: int) -> Fraction:
    """Exact P(site i vacant at jamming) on n sites, 1-based i: the rise and
    the descent at i live on disjoint slot blocks, so it is
    P(even rise) P(even descent) = e_i(-1) e_{n+1-i}(-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= i <= n:
        raise ValueError(f"site {i} outside 1..{n}")
    left, left_den = _side(i)
    right, right_den = _side(n + 1 - i)
    return Fraction(left * right, left_den * right_den)


def per_site_vacancy_float(n: int, i: int) -> float:
    """per_site_vacancy_exact rounded once, each side cut where its series has
    converged, so O(1) per site for any n."""
    if n < 2 or not 1 <= i <= n:
        raise ValueError("site outside interval")
    left, left_den = _side(min(i, _SIDE_CONVERGED))
    right, right_den = _side(min(n + 1 - i, _SIDE_CONVERGED))
    return left * right / (left_den * right_den)  # int / int rounds once, as float(Fraction) does


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
