"""Exact analytics against the enumeration oracle and against closed forms."""
import functools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pagepark import (
    EXP,
    UNIFORM,
    density_curve_closed_form,
    distribution_M,
    enumerate_orderings,
    expected_M,
    expected_M_series,
    limit_constants,
    odd_descent_prob_closed_form,
    per_site_vacancy_exact,
    per_site_vacancy_float,
    site_coupling_bound,
)
from pagepark import exact
from pagepark.exact import variance_M

F = Fraction


def first_car_misses(mean, n_values) -> list:
    """The n where mean(n) breaks the first-car recursion
    E[M_n] = 2 + (2/(n-1)) sum_{k<=n-2} E[M_k]."""
    return [n for n in n_values if mean(n) != 2 + F(2, n - 1) * sum(mean(k) for k in range(n - 1))]


def mean_closed_form(n: int, weight=lambda n, k: n - k) -> F:
    """A copy of n - E[M_n] = sum_{k<n} (n-k) (-2)^k / k!, with the weight of
    the k-th term as a parameter."""
    return n - sum((F(weight(n, k) * (-2) ** k, math.factorial(k)) for k in range(n)), F(0))


def exp_series(x: int, j: int) -> F:
    """e_j(x) = sum_{k<j} x^k / k!."""
    return sum((F(x**k, math.factorial(k)) for k in range(j)), F(0))


MEAN_SWEEP = range(401)  # uneven splits, and the bases n = 0, 1, 2 of the leaf


@functools.cache
def closed_form_means() -> tuple:
    return tuple(mean_closed_form(n) for n in MEAN_SWEEP)


def horner_mean(n: int) -> F:
    """E[M_n] by Horner in -2 over the integers (n-1)!/k!: one multiplication
    of an ever longer integer per k, the kernel binary splitting replaced."""
    if n == 0:
        return F(0)
    total, fact = 0, 1  # fact = (n-1)!/k!
    for k in range(n - 1, -1, -1):
        total = (n - k) * fact - 2 * total
        fact *= k
    return n - F(total, math.factorial(n - 1))


def split_mean(n: int, odd_sign=-1, right_product=lambda r, m: r, weight=lambda n, k: n - k) -> F:
    """A copy of expected_M's binary splitting, with the sign of an odd shift
    (-2)^(m-a), the right half's product of j in the join and the weight of the
    k-th term as parameters."""

    def split(a, b):
        if b - a <= exact._MEAN_LEAF:
            t, r, power = 0, 1, 1
            for k in range(a, b):
                t = t * k + weight(n, k) * power
                r *= k
                power *= -2
            return t, r
        m = (a + b) // 2
        (t_left, r_left), (t_right, r_right) = split(a, m), split(m, b)
        sign = odd_sign if (m - a) % 2 else 1
        return t_left * right_product(r_right, m) + sign * (t_right << (m - a)), r_left * r_right

    if n == 0:
        return F(0)
    fact = math.factorial(n - 1)
    return F(n * fact - split(0, n)[0], fact)


def split_misses(mean) -> list:
    """The n of MEAN_SWEEP where mean(n) is not the closed form's value."""
    return [n for n, want in zip(MEAN_SWEEP, closed_form_means()) if mean(n) != want]


def derangements(m_max: int, sign: int = 1) -> list:
    """D_0..D_m_max by D_m = m D_(m-1) + sign (-1)^m; sign -1 is a planted fault."""
    table = [1]
    for m in range(1, m_max + 1):
        table.append(m * table[-1] + sign * (-1) ** m)
    return table


def recurrence_misses(table: list) -> list:
    """The m where a cached table breaks D_0 = 1, D_m = m D_(m-1) + (-1)^m."""
    return [m for m, d in enumerate(table) if d != (m * table[m - 1] + (-1) ** m if m else 1)]


def fraction_side_series(j_max: int) -> tuple:
    """e_j(-1) for j = 0..j_max as a running Fraction sum, the cache the
    derangement numbers replaced."""
    series = [F(0)]
    for l in range(j_max):
        series.append(series[-1] + F((-1) ** l, math.factorial(l)))
    assert series[-1] == exp_series(-1, j_max)
    return tuple(series)


def side_misses(j_max: int = 300) -> list:
    """The j in 1..j_max where exact._side(j) is not e_j(-1)."""
    ref = fraction_side_series(j_max)
    return [j for j in range(1, j_max + 1) if F(*exact._side(j)) != ref[j]]


def total_misses(n_values=(300, 500)) -> list:
    """The n where the vacancies and the mean fail sum_i P(i vacant) + E[M_n] = n."""
    vacancies = {n: sum((per_site_vacancy_exact(n, i) for i in range(1, n + 1)), F(0)) for n in n_values}
    return [n for n in n_values if vacancies[n] + expected_M(n) != n]


def vacancy_closed_form(n: int, i: int, side=lambda j: j) -> F:
    """A copy of P(site i vacant) = e_i(-1) e_{n+1-i}(-1), with the length of
    each side's series as a parameter."""
    return exp_series(-1, side(i)) * exp_series(-1, side(n + 1 - i))


def offset_misses(shift: int) -> list:
    """The n in 3..79 where E[M_n] - n + (n + shift) e^-2 is not certified to
    lie within the tail bound 2^(n+1)/(n+1)! (n+2)/(n-2) of the mean's
    series. e^-2 is bracketed by two consecutive partial sums of its series,
    and the gap is linear in it, so checking both ends is exact."""
    ends = (exp_series(-2, 120), exp_series(-2, 121))
    misses = []
    for n in range(3, 80):
        bound = F(2 ** (n + 1) * (n + 2), math.factorial(n + 1) * (n - 2))
        if any(abs(expected_M(n) - n + (n + shift) * e) > bound for e in ends):
            misses.append(n)
    return misses


class TestExpectedM:
    def test_base_cases(self):
        assert expected_M(0) == 0
        assert expected_M(1) == 0
        assert expected_M(2) == 2

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_oracle(self, n):
        assert expected_M(n) == enumerate_orderings(n).expected_M

    def test_recursion_identity(self):
        # the first-car split, checked standalone
        assert first_car_misses(expected_M, (5, 17, 60, 256, 300)) == []

    def test_series_matches_rational(self):
        # within one ulp of the rounded exact mean, on both sides of the
        # rational cap and far past it
        em = expected_M_series(10_000)
        for n in (0, 1, 2, 50, 256, 257, 1000, 3000, 10_000):
            want = float(expected_M(n))
            assert abs(em[n] - want) <= math.ulp(want), n

    @pytest.mark.parametrize("n", range(2, 10))
    def test_closed_form_copy_matches_oracle(self, n):
        assert mean_closed_form(n) == expected_M(n) == enumerate_orderings(n).expected_M

    def test_closed_form_planted_fault_fails(self):
        # weight (n-k+1) in place of (n-k): off the oracle at every n and off
        # the first-car recursion
        fault = dict(weight=lambda n, k: n - k + 1)
        assert all(mean_closed_form(n, **fault) != enumerate_orderings(n).expected_M for n in range(2, 10))
        assert first_car_misses(lambda n: mean_closed_form(n, **fault), range(2, 30))
        assert not first_car_misses(mean_closed_form, range(2, 30))

    def test_split_matches_closed_form(self):
        assert split_misses(expected_M) == []

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_split_matches_horner(self, n):
        assert expected_M(n) == horner_mean(n)

    def test_split_copy_is_faithful(self):
        assert split_misses(split_mean) == []
        assert all(split_mean(n) == expected_M(n) for n in (1000, 1023, 1025))

    @pytest.mark.parametrize(
        "fault",
        [
            dict(odd_sign=1),
            dict(right_product=lambda r, m: r // m),
            dict(weight=lambda n, k: n - k + 1),
        ],
        ids=["odd_shift_unsigned", "right_product_one_late", "weight_plus_one"],
    )
    def test_split_planted_faults_fail(self, fault):
        assert split_misses(functools.partial(split_mean, **fault))

    def test_series_monotone_superadditive(self):
        em = expected_M_series(200)
        assert np.all(np.diff(em) >= 0)
        # adding one site never helps by more than one full site
        assert np.all(np.diff(em) <= 2.0 + 1e-12)


# The independent reference for the law of M_n: the first-car split itself.
# N_k as (lowest car count c, [N_k(c), N_k(c+1), ...]) counts the orderings of
# the k-1 slots that jam with c cars. If slot i parks first, a left ordering
# and a right ordering extend to w(k,i) = (k-2)! / (max(i-2,0)! max(k-i-2,0)!)
# orderings of the other k-2 slots, so
#     N_k(c) = sum_{i=1}^{k-1} w(k,i) sum_{a+b=c-1} N_{i-1}(a) N_{k-i-1}(b),
# summed over i <= k/2 with every off-centre term counted twice.
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


def split_law(n: int) -> dict:
    _ordering_counts_upto(n)
    lo, counts = _ordering_counts[n]
    total = math.factorial(max(n - 1, 0))
    return {2 * c: F(v, total) for c, v in enumerate(counts, lo) if v}


def recurrence_laws(n_max: int, shift=lambda m: m // 2, weight=lambda m: m - 1) -> list[dict]:
    """A copy of the recurrence G_k = x^floor(k/2) + sum_m C(k,m) (m-1) x^floor(m/2) G_{k-m}
    in plain coefficient lists (index = cars), with the cars of an m-site block
    and its weight as parameters; each law is G_k over its own total."""
    rows: list[list[int]] = []
    for k in range(n_max + 1):
        acc = [0] * (k + 1)
        acc[k // 2] = 1
        for m in range(2, k + 1):
            f = math.comb(k, m) * weight(m)
            for c, v in enumerate(rows[k - m]):
                acc[c + shift(m)] += f * v
        rows.append(acc)
    return [{2 * c: F(v, sum(row)) for c, v in enumerate(row) if v} for row in rows]


def variance_gap(law: dict, n: int) -> float:
    """Var(M_n) - 4 e^-4 (n+2): below float noise from n = 30 on (the identity
    holds up to an O(C^n / n!) term)."""
    mean = sum(m * p for m, p in law.items())
    return float(sum((m - mean) ** 2 * p for m, p in law.items())) - 4 * math.exp(-4) * (n + 2)


def variance_envelope(n: int) -> float:
    # measured on the float path: |gap| is 4e-16, 2.7e-15, 5e-14 and 5.7e-13 at
    # n = 30, 60, 300 and 1000 (rounding in the mean grows like n^2 eps)
    return 1e-17 * n * n


class TestDistributionM:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_oracle(self, n):
        assert distribution_M(n).probs == enumerate_orderings(n).distribution_M

    @pytest.mark.parametrize("n", range(0, 61))
    def test_matches_split_reference(self, n):
        d = distribution_M(n)
        assert d.exact
        assert d.probs == split_law(n)

    def test_recurrence_copy_is_faithful(self):
        laws = recurrence_laws(60)
        assert all(laws[n] == distribution_M(n).probs for n in range(61))

    @pytest.mark.parametrize(
        "fault",
        [dict(shift=lambda m: (m + 1) // 2), dict(weight=lambda m: 1)],
        ids=["ceil_shift", "no_block_weight"],
    )
    def test_planted_faults_fail(self, fault):
        laws = recurrence_laws(60, **fault)
        assert not all(laws[n] == split_law(n) for n in range(61))

    @given(st.integers(min_value=2, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_mean_identity(self, n):
        d = distribution_M(n)
        assert d.exact
        assert d.mean() == expected_M(n)
        assert sum(d.probs.values()) == 1

    def test_at_scale(self):
        # far beyond the oracle: both paths of the recurrence
        d = distribution_M(200)
        assert d.exact
        assert sum(d.probs.values()) == 1
        assert d.mean() == expected_M(200)
        f = distribution_M(200, rational_cap=199)
        assert not f.exact
        for m, p in d.probs.items():
            if p > F(1, 10**250):
                assert f.probs[m] == pytest.approx(float(p), rel=1e-12, abs=0.0)

    def test_float_fallback(self):
        d = distribution_M(40, rational_cap=10)
        assert not d.exact
        assert sum(d.probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert d.mean() == pytest.approx(float(expected_M(40)), abs=1e-9)

    def test_float_invariants_at_scale(self):
        n = 1000
        d = distribution_M(n)
        assert not d.exact
        assert abs(sum(d.probs.values()) - 1.0) <= 1e-13
        assert d.mean() == pytest.approx(expected_M_series(n)[n], rel=1e-12, abs=0.0)
        assert all(m % 2 == 0 and (n - 1) / 2 <= m <= n for m in d.probs)

    @pytest.mark.parametrize("n", [30, 60, 300, 1000])
    def test_variance_identity(self, n):
        assert abs(variance_gap(distribution_M(n, rational_cap=0).probs, n)) <= variance_envelope(n)

    @pytest.mark.parametrize("n", [*range(40, 257, 12), 1000, 3000])
    def test_variance_constant_from_40(self, n):
        # variance_M takes Var(M_n) = 4e^-4 (n+2) from n = 40 on, where the
        # remainder is below double precision: within 1e-15 of the exact law up
        # to the rational cap, and within the float law's rounding beyond it
        # (gaps of 7.8e-15 and 2.1e-14 measured at n = 1000 and 3000)
        law = distribution_M(n)
        assert variance_M(n) == pytest.approx(float(law.variance()), rel=1e-15 if law.exact else 1e-13, abs=0)

    def test_variance_below_40_is_the_law(self):
        assert [variance_M(n) for n in range(40)] == [float(distribution_M(n).variance()) for n in range(40)]

    @pytest.mark.parametrize("n", [30, 60])
    def test_variance_identity_planted_fault(self, n):
        law = recurrence_laws(n, shift=lambda m: (m + 1) // 2)[n]
        assert abs(variance_gap(law, n)) > variance_envelope(n)

    @given(st.integers(min_value=2, max_value=50), st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_support_is_even_and_feasible(self, n, exact):
        d = distribution_M(n, rational_cap=n if exact else n - 1)
        assert d.exact == exact
        for m in d.probs:
            assert m % 2 == 0
            assert (n - 1) / 2 <= m <= n


class TestVacancyProfile:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_oracle(self, n):
        got = tuple(per_site_vacancy_exact(n, i) for i in range(1, n + 1))
        assert got == enumerate_orderings(n).per_site_vacancy

    @given(st.integers(min_value=2, max_value=120))
    @example(256)  # the rational cap
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_total(self, n):
        vac = [per_site_vacancy_exact(n, i) for i in range(1, n + 1)]
        assert vac == vac[::-1]
        assert sum(vac, F(0)) + expected_M(n) == n

    @pytest.mark.parametrize("fn", [per_site_vacancy_exact, per_site_vacancy_float])
    @pytest.mark.parametrize(
        "n, i, message",
        [(1, 1, "need n >= 2"), (0, 1, "need n >= 2"), (5, 0, "site 0 outside 1..5"), (5, 6, "site 6 outside 1..5")],
    )
    def test_rejects_bad_sites_with_one_message(self, fn, n, i, message):
        with pytest.raises(ValueError) as refused:
            fn(n, i)
        assert str(refused.value) == message

    @pytest.mark.parametrize("n", range(2, 10))
    def test_closed_form_copy_matches_oracle(self, n):
        got = tuple(vacancy_closed_form(n, i) for i in range(1, n + 1))
        assert got == enumerate_orderings(n).per_site_vacancy
        assert got == tuple(per_site_vacancy_exact(n, i) for i in range(1, n + 1))

    def test_closed_form_planted_fault_fails(self):
        # each side's series one term too long, e_{j+1}(-1): off the oracle
        # at every n but 2, where both sites are always covered
        fault = dict(side=lambda j: j + 1)
        agree = [
            n for n in range(2, 10)
            if tuple(vacancy_closed_form(n, i, **fault) for i in range(1, n + 1)) == enumerate_orderings(n).per_site_vacancy
        ]
        assert agree == [2]

    def test_side_matches_fraction_series(self):
        assert side_misses() == []

    def test_total_at_scale(self):
        assert total_misses() == []

    def test_derangement_planted_fault_fails(self, monkeypatch):
        # D_m = m D_(m-1) - (-1)^m in the cache: e_2(-1) = 2, off from j = 2
        monkeypatch.setattr(exact, "_derangements", derangements(600, sign=-1))
        assert side_misses() == list(range(2, 301))
        assert total_misses() == [300, 500]

    def test_side_cache_is_thread_safe(self, monkeypatch):
        # four threads extend an empty cache at once, the interpreter handing
        # the GIL over every microsecond; a cache that reads its length and
        # its last entry in separate steps appends a wrong entry in about 1 of
        # 6 such trials on CPython 3.11
        def extend(barrier):
            barrier.wait()
            exact._side(300)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                monkeypatch.setattr(exact, "_derangements", [1])
                barrier = threading.Barrier(4, timeout=10)
                threads = [threading.Thread(target=extend, args=(barrier,)) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                assert len(exact._derangements) >= 300
                assert recurrence_misses(exact._derangements) == []
        finally:
            sys.setswitchinterval(interval)

    def test_site_two_never_vacant(self):
        # site 2 is vacant only if sites 1..2 stay empty; but slot 1 alone
        # can always park when both are free, so vacancy(2) = 0
        for n in (2, 3, 7, 31):
            assert per_site_vacancy_exact(n, 2) == 0

    @given(st.integers(min_value=2, max_value=400), st.data())
    @settings(max_examples=30, deadline=None)
    def test_float_matches_exact(self, n, data):
        # the same product rounded once: equal to the rounded exact value
        i = data.draw(st.integers(min_value=1, max_value=n))
        assert per_site_vacancy_float(n, i) == float(per_site_vacancy_exact(n, i))

    @given(st.integers(min_value=2, max_value=300), st.data())
    @settings(max_examples=40, deadline=None)
    def test_coupling_bound_holds(self, n, data):
        i = data.draw(st.integers(min_value=1, max_value=n))
        vac = per_site_vacancy_float(n, i)
        lim = limit_constants()["vacancy"]
        assert abs(vac - lim) <= site_coupling_bound(n, i) + 1e-12

    def test_edge_site_tends_to_inv_e(self):
        # at the interval edge the rise side is trivially even, leaving a
        # single alternating series that converges to 1/e
        v = per_site_vacancy_float(2000, 1)
        assert v == pytest.approx(math.exp(-1.0), abs=1e-12)


class TestSeriesAndConstants:
    def test_partial_sum_closed_form(self):
        # S_k = sum_{l=1}^{k} 2l/(2l+1)! telescopes, by 2l/(2l+1)! = 1/(2l)! -
        # 1/(2l+1)!, into the alternating exp(-1) series truncated after the
        # 1/(2k+1)! term: e_{2k+2}(-1), the vacancy of the edge site of 2k+2
        # sites; read out of order, so the cached series is hit both while
        # growing and after
        for k in (*range(0, 8), 130, 64, 129):
            s_k = sum((F(2 * l, math.factorial(2 * l + 1)) for l in range(1, k + 1)), F(0))
            assert per_site_vacancy_exact(2 * k + 2, 1) == s_k

    def test_partial_sum_tail_bound(self):
        # S_k -> 1/e like a truncated alternating series: error < 1/(2k+2)!
        for k in (1, 3, 10, 20):
            err = abs(float(per_site_vacancy_exact(2 * k + 2, 1)) - math.exp(-1.0))
            assert err < 1.0 / math.factorial(2 * k + 2) + 1e-18

    def test_finite_size_constant_derived(self):
        # E[M_n] = n - (n+2) e^-2 + r_n, with r_n the tail of the mean's
        # alternating series: the offset -2e^-2 against n (1 - e^-2), and so
        # 1 - 3e^-2 against (n-1) (1 - e^-2), with a bound at every n
        assert offset_misses(2) == []

    def test_finite_size_constant_planted_fault(self):
        # (n+1) e^-2 in place of (n+2) e^-2 is off by e^-2, past the bound
        # from n = 6 on
        assert offset_misses(1) == list(range(6, 80))

    def test_limit_constants_identities(self):
        c = limit_constants()
        assert c["jamming_density"] == pytest.approx(1.0 - math.exp(-2.0))
        assert c["vacancy"] == pytest.approx(math.exp(-2.0))
        assert c["jamming_density"] + c["vacancy"] == pytest.approx(1.0)
        # the two finite-size offset conventions differ by exactly one limit
        # density: (1 - 3e^-2) - (1 - e^-2) = -2e^-2
        assert c["friedman_offset"] - c["jamming_density"] == pytest.approx(
            -2.0 * math.exp(-2.0)
        )

    def test_friedman_offset_reached(self):
        # E[M_n] - (n-1)(1-e^-2) -> 1 - 3e^-2, equivalently
        # E[M_n] - n(1-e^-2) -> -2e^-2; both at n=500 to high accuracy
        c = limit_constants()
        em = float(expected_M(500))
        assert em - 499 * c["jamming_density"] == pytest.approx(
            c["friedman_offset"], abs=1e-10
        )
        assert em - 500 * c["jamming_density"] == pytest.approx(
            -2.0 * math.exp(-2.0), abs=1e-10
        )


class TestTimeCurves:
    def test_density_curve_anchors(self):
        # t = ln 2 under the exponential law has F(t) = 1/2
        val = density_curve_closed_form([math.log(2.0)])[0]
        assert val == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert density_curve_closed_form([0.0])[0] == 0.0
        # t -> infinity recovers the jamming density
        assert density_curve_closed_form([1e9])[0] == pytest.approx(
            limit_constants()["jamming_density"]
        )

    def test_uniform_kind_saturates_at_one(self):
        val = density_curve_closed_form([1.0], dist=UNIFORM)[0]
        assert val == pytest.approx(1.0 - math.exp(-2.0))
        assert density_curve_closed_form([2.0], dist=UNIFORM)[0] == val

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_density_from_odd_descent_identity(self, t):
        # rho(t) = f(t) (2 - f(t)) with f(t) = 1 - e^{-F(t)}
        f = odd_descent_prob_closed_form([t])[0]
        rho = density_curve_closed_form([t])[0]
        assert rho == pytest.approx(f * (2.0 - f), abs=1e-12)

    def test_curves_monotone(self):
        grid = np.linspace(0.0, 10.0, 101)
        assert np.all(np.diff(density_curve_closed_form(grid)) >= 0)
        assert np.all(np.diff(odd_descent_prob_closed_form(grid)) >= 0)
