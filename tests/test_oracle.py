"""Brute-force enumeration: frozen small-n values and internal identities.

The oracle is the trust anchor for the rest of the suite, so its own tests
pin hand-checkable values and structural identities only.
"""
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from pagepark import (
    CHAIN_CAP,
    ENUMERATION_CAP,
    enumerate_orderings,
    expected_T_exact,
    occupancy_profile,
    verify_lemma1,
    weak_orderings,
)
from pagepark import oracle
from pagepark.oracle import distribution_T_exact, park_in_rank_order

F = Fraction


class TestFrozenValues:
    def test_n2(self):
        rep = enumerate_orderings(2)
        assert rep.permutations == 1
        assert rep.expected_M == 2
        assert rep.distribution_M == {2: F(1)}
        assert rep.per_site_vacancy == (F(0), F(0))
        assert rep.expected_T == 1

    def test_n3(self):
        rep = enumerate_orderings(3)
        assert rep.expected_M == 2
        assert rep.distribution_M == {2: F(1)}
        # the parked car is equally likely at slots 1 and 2
        assert rep.per_site_vacancy == (F(1, 2), F(0), F(1, 2))
        assert rep.expected_T == 1

    def test_n4(self):
        rep = enumerate_orderings(4)
        assert rep.expected_M == F(10, 3)
        assert rep.distribution_M == {2: F(1, 3), 4: F(2, 3)}
        assert rep.per_site_vacancy == (F(1, 3), F(0), F(0), F(1, 3))
        assert rep.expected_T == 3

    def test_n5(self):
        rep = enumerate_orderings(5)
        assert rep.expected_M == 4
        assert rep.distribution_M == {4: F(1)}
        assert rep.per_site_vacancy == (F(3, 8), F(0), F(1, 4), F(0), F(3, 8))
        assert rep.expected_T == 4

    def test_expected_t_from_orderings_matches_chain(self):
        # two derivations of E[T_n] that share no code
        for n in range(2, ENUMERATION_CAP):
            assert enumerate_orderings(n).expected_T == expected_T_exact(n), n

    def test_expected_t_without_jamming_draw_fails(self, monkeypatch):
        # planted fault: stop one draw short of the last car slot's first draw
        draws_to_see = oracle._draws_to_see
        monkeypatch.setattr(oracle, "_draws_to_see", lambda k, m: draws_to_see(k - 1, m))
        for n in range(2, ENUMERATION_CAP):
            assert enumerate_orderings(n).expected_T != expected_T_exact(n), n

    def test_expected_t_small(self):
        # n=2: single slot, always parks on the first draw
        assert expected_T_exact(2) == 1
        # n=4: 3 slots; first draw parks; middle-first jams immediately,
        # side-first leaves one live slot among three
        assert expected_T_exact(4) == 3

    def test_law_of_t_matches_chain_mean(self):
        # the forward pass's law of T_n against the back-substitution's mean,
        # which shares only the chain's states with it: mass 1, a tail below
        # 1e-15 at the last key, and the mean to 1e-12
        for n in range(2, CHAIN_CAP + 1):
            law = distribution_T_exact(n)
            assert abs(math.fsum(law.values()) - 1.0) <= 1e-12, n
            assert law[max(law)] <= 1e-15, n
            assert abs(math.fsum(t * p for t, p in law.items()) - float(expected_T_exact(n))) <= 1e-12, n

    def test_law_of_t_small(self):
        # n = 2: one slot, parked at the first draw. n = 4: the first draw
        # parks; on the middle slot (1/3) it jams, else one parkable slot of
        # three is left, a Geometric(1/3) wait
        assert distribution_T_exact(2)[1] == 1.0
        law = distribution_T_exact(4)
        for t in range(1, 8):
            want = 1 / 3 if t == 1 else 2 / 3 * (2 / 3) ** (t - 2) / 3
            assert law[t] == pytest.approx(want, rel=1e-14), t


class TestStructure:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_distribution_sums_to_one(self, n):
        rep = enumerate_orderings(n)
        assert sum(rep.distribution_M.values()) == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_m_values_even_and_feasible(self, n):
        rep = enumerate_orderings(n)
        for m in rep.distribution_M:
            assert m % 2 == 0
            # a jammed configuration covers more than half the sites
            assert (n - 1) / 2 <= m <= n

    @pytest.mark.parametrize("n", range(2, 9))
    def test_vacancy_complements_occupancy(self, n):
        rep = enumerate_orderings(n)
        assert sum(rep.per_site_vacancy, F(0)) + rep.expected_M == n

    @pytest.mark.parametrize("n", range(2, 9))
    def test_profile_symmetric(self, n):
        vac = enumerate_orderings(n).per_site_vacancy
        assert vac == vac[::-1]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_adjacent_vacancies_disjoint(self, n):
        # adjacent sites are never both vacant at jamming (a car would fit),
        # so the two vacancy events are disjoint and the marginals sum to <= 1
        vac = enumerate_orderings(n).per_site_vacancy
        for a, b in zip(vac, vac[1:]):
            assert a + b <= 1

    def test_weak_orderings_each_once(self):
        # Fubini numbers: ordered set partitions of m slots
        for m, count in enumerate((1, 3, 13, 75, 541, 4683), start=1):
            ranked = list(weak_orderings(m))
            assert len(ranked) == len(set(ranked)) == count
            for ranks in ranked:
                assert set(ranks) == set(range(1, max(ranks) + 1))
        assert sorted(weak_orderings(2)) == [(1, 1), (1, 2), (2, 1)]

    def test_ties_park_left_slot_first(self):
        # all three slots tied: slot 0 parks, slot 1 is blocked, slot 2 parks
        assert park_in_rank_order((1, 1, 1)) == [0, 0, 2, 2]
        assert park_in_rank_order((2, 1, 1)) == [None, 1, 1, None]

    def test_weak_orderings_catch_a_wrong_tie_rule(self):
        # breaking ties right slot first agrees on every permutation but must
        # fail on weak orderings
        def right_first(marks):
            return occupancy_profile(marks - 1e-6 * np.arange(marks.shape[1]))

        assert verify_lemma1(5, right_first) == []
        assert verify_lemma1(5, right_first, weak_orderings(4)) != []

    def test_counterexamples_past_the_first_block_are_reported(self, monkeypatch):
        # a classifier wrong at one site of two orderings, one in the first
        # block and one in the last: both are reported in ranking order, and
        # no call classifies more than a block
        monkeypatch.setattr(oracle, "LEMMA1_BLOCK", 100)
        ranked = list(permutations(range(1, 7)))
        planted = {ranked[3]: 2, ranked[701]: 5}
        rows = []

        def faulty(marks):
            rows.append(len(marks))
            occ = occupancy_profile(marks)
            for row, ranks in zip(occ, marks.astype(int).tolist()):
                if tuple(ranks) in planted:
                    row[planted[tuple(ranks)] - 1] ^= True
            return occ

        assert verify_lemma1(7, faulty) == [(ranked[3], 2), (ranked[701], 5)]
        assert rows == [100] * 7 + [20]

    def test_caps_enforced(self):
        with pytest.raises(ValueError):
            enumerate_orderings(ENUMERATION_CAP + 1)
        with pytest.raises(ValueError):
            enumerate_orderings(1)
        with pytest.raises(ValueError):
            expected_T_exact(CHAIN_CAP + 1)
        with pytest.raises(ValueError):
            distribution_T_exact(CHAIN_CAP + 1)
