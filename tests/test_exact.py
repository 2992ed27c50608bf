"""Exact analytics against the enumeration oracle and against closed forms."""
import math
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
    partial_sum_S,
    per_site_vacancy_exact,
    per_site_vacancy_float,
    site_coupling_bound,
)

F = Fraction


class TestExpectedM:
    def test_base_cases(self):
        assert expected_M(0) == 0
        assert expected_M(1) == 0
        assert expected_M(2) == 2

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_oracle(self, n):
        assert expected_M(n) == enumerate_orderings(n).expected_M

    def test_recursion_identity(self):
        # E[M_n] = 2 + (2/(n-1)) sum_{k<=n-2} E[M_k], checked standalone
        for n in (5, 17, 60, 256, 300):
            rhs = 2 + F(2, n - 1) * sum(expected_M(k) for k in range(n - 1))
            assert expected_M(n) == rhs

    def test_series_matches_rational(self):
        em = expected_M_series(400)
        for n in (0, 1, 2, 50, 256, 400):
            assert em[n] == pytest.approx(float(expected_M(n)), abs=1e-9)

    def test_series_monotone_superadditive(self):
        em = expected_M_series(200)
        assert np.all(np.diff(em) >= 0)
        # adding one site never helps by more than one full site
        assert np.all(np.diff(em) <= 2.0 + 1e-12)


class TestDistributionM:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_oracle(self, n):
        assert distribution_M(n).probs == enumerate_orderings(n).distribution_M

    @given(st.integers(min_value=2, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_mean_identity(self, n):
        d = distribution_M(n)
        assert d.exact
        assert d.mean() == expected_M(n)
        assert sum(d.probs.values()) == 1

    def test_at_scale(self):
        # far beyond the oracle: both paths of the folded split recursion
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

    @given(st.integers(min_value=2, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_support_is_even_and_feasible(self, n):
        for m in distribution_M(n).probs:
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

    def test_site_two_never_vacant(self):
        # site 2 is vacant only if sites 1..2 stay empty; but slot 1 alone
        # can always park when both are free, so vacancy(2) = 0
        for n in (2, 3, 7, 31):
            assert per_site_vacancy_exact(n, 2) == 0

    @given(st.integers(min_value=2, max_value=400), st.data())
    @settings(max_examples=30, deadline=None)
    def test_float_matches_exact(self, n, data):
        i = data.draw(st.integers(min_value=1, max_value=n))
        assert per_site_vacancy_float(n, i) == pytest.approx(
            float(per_site_vacancy_exact(n, i)), abs=1e-12
        )

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
        # 2l/(2l+1)! = 1/(2l)! - 1/(2l+1)! telescopes into the alternating
        # exp(-1) series truncated after the 1/(2k+1)! term; read out of order,
        # so the cached prefix is hit both while growing and after
        for k in (*range(0, 8), 130, 64, 129):
            expect = sum(
                F((-1) ** j, math.factorial(j)) for j in range(2, 2 * k + 2)
            )
            assert partial_sum_S(k) == expect

    def test_partial_sum_tail_bound(self):
        # S_k -> 1/e like a truncated alternating series: error < 1/(2k+2)!
        for k in (1, 3, 10, 20):
            err = abs(float(partial_sum_S(k)) - math.exp(-1.0))
            assert err < 1.0 / math.factorial(2 * k + 2) + 1e-18

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
