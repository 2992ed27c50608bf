"""Finite-interval dynamics: classifier, construction, and the draw process."""
import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pagepark import (
    PriorityField,
    SeedSpec,
    car_slots_from_occupancy,
    classify_site,
    construct_from_priorities,
    distribution_M,
    expected_M,
    first_arrival_batch,
    measure_M_T,
    occupancy_profile,
    recount_free_pairs,
    rise_descent_at,
    sample_priority_field,
    simulate_direct,
    simulate_direct_batch,
    verify_lemma1,
    weak_orderings,
)
from pagepark import finite
from pagepark.finite import car_slot_mask, tau_star, tau_star_rows
from pagepark.oracle import CHAIN_CAP, expected_T_exact, park_in_rank_order
from pagepark.stats import SampleStats

# seed-driven random fields keep hypothesis shrinking useful while the
# marks themselves stay continuous (ties have probability ~ n 2^-53)
field_seeds = st.integers(min_value=0, max_value=2**48)
sizes = st.integers(min_value=2, max_value=120)


class TestRiseDescent:
    def test_pinned_example(self):
        # marks (3, 1, 2) on slots 1..3: the middle slot parks first and
        # blocks both neighbours, leaving sites 1 and 4 vacant
        v = np.array([3.0, 1.0, 2.0])
        rd = [rise_descent_at(v, i) for i in range(1, 5)]
        assert [(r.rise_length, r.descent_length) for r in rd] == [
            (0, 2),
            (1, 1),
            (1, 1),
            (2, 0),
        ]
        assert [r.vacant for r in rd] == [True, False, False, True]

    def test_increasing_marks_pack_from_left(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        occ = [classify_site(v, i) for i in range(1, 6)]
        assert occ == [True, True, True, True, False]
        # the rise at the far edge spans all four slots
        assert rise_descent_at(v, 5).rise_length == 4

    def test_decreasing_marks_pack_from_right(self):
        v = np.array([4.0, 3.0, 2.0, 1.0])
        occ = [classify_site(v, i) for i in range(1, 6)]
        assert occ == [False, True, True, True, True]
        assert rise_descent_at(v, 1).descent_length == 4

    def test_edge_lengths_zero(self):
        v = np.array([0.4, 0.9, 0.1])
        n = v.size + 1
        assert rise_descent_at(v, 1).rise_length == 0
        assert rise_descent_at(v, n).descent_length == 0

    def test_out_of_range_site(self):
        with pytest.raises(ValueError):
            rise_descent_at(np.array([0.5]), 3)

    @given(field_seeds, sizes)
    @settings(max_examples=60, deadline=None)
    def test_parity_rule_is_definition_of_vacant(self, seed, n):
        xi = sample_priority_field(n, rng=SeedSpec(seed))
        for i in range(1, n + 1):
            rd = rise_descent_at(xi, i)
            assert rd.vacant == (rd.rise_length % 2 == 0 and rd.descent_length % 2 == 0)
            assert 0 <= rd.rise_length <= i - 1
            assert 0 <= rd.descent_length <= n - i


class TestClassifierEquivalence:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_exhaustive_against_replay(self, n):
        # every ordering of the n-1 slots; the classifier must reproduce the
        # replayed occupancy at every site
        assert verify_lemma1(n, classify_site) == []

    @pytest.mark.parametrize("n", range(2, 8))
    def test_tie_rule_exhaustive_on_weak_orderings(self, n):
        # every weak ordering of the n-1 slots (4683 at n = 7): equal marks
        # act in slot order, and each classifier and construction must agree
        # with the oracle's replay of that rule
        ranked = list(weak_orderings(n - 1))
        assert verify_lemma1(n, classify_site, ranked) == []
        for ranks in ranked:
            cover = park_in_rank_order(ranks)
            want = [c is not None for c in cover]
            xi = np.array(ranks, dtype=np.float64)
            assert occupancy_profile(xi).tolist() == want, ranks
            assert construct_from_priorities(PriorityField(xi)).config.occupancy.tolist() == want, ranks
            assert tau_star(xi) == max(ranks[c] for c in cover if c is not None), ranks

    @given(field_seeds, sizes)
    @settings(max_examples=60, deadline=None)
    def test_vectorised_profile_matches_scalar(self, seed, n):
        xi = sample_priority_field(n, rng=SeedSpec(seed))
        prof = occupancy_profile(xi.values)
        scalar = np.array([classify_site(xi, i) for i in range(1, n + 1)])
        np.testing.assert_array_equal(prof, scalar)

    @given(field_seeds, sizes)
    @settings(max_examples=60, deadline=None)
    def test_profile_matches_construction(self, seed, n):
        xi = sample_priority_field(n, rng=SeedSpec(seed))
        built = construct_from_priorities(xi).config.occupancy
        np.testing.assert_array_equal(occupancy_profile(xi.values), built)

    def test_profile_batched_shape(self):
        u = SeedSpec(3).generator().random((7, 9))
        prof = occupancy_profile(u)
        assert prof.shape == (7, 10)
        for row_marks, row_occ in zip(u, prof):
            np.testing.assert_array_equal(occupancy_profile(row_marks), row_occ)


class TestJammedInvariants:
    @given(field_seeds, sizes)
    @settings(max_examples=80, deadline=None)
    def test_profile_is_jammed_even_and_covering(self, seed, n):
        occ = occupancy_profile(sample_priority_field(n, rng=SeedSpec(seed)).values)
        m = int(occ.sum())
        assert m % 2 == 0
        assert m >= (n - 1) / 2
        assert recount_free_pairs(occ) == 0

    @given(field_seeds, sizes)
    @settings(max_examples=40, deadline=None)
    def test_car_slots_reconstruct_occupancy(self, seed, n):
        occ = occupancy_profile(sample_priority_field(n, rng=SeedSpec(seed)).values)
        slots = car_slots_from_occupancy(occ)
        rebuilt = np.zeros(n, dtype=bool)
        rebuilt[slots] = True
        rebuilt[slots + 1] = True
        np.testing.assert_array_equal(rebuilt, occ)
        # cars are disjoint
        assert np.all(np.diff(slots) >= 2)

    def test_car_slots_pinned(self):
        np.testing.assert_array_equal(
            car_slots_from_occupancy(np.array([1, 1, 0, 1, 1], dtype=bool)), [0, 3]
        )
        np.testing.assert_array_equal(
            car_slots_from_occupancy(np.array([1, 1, 1, 1, 0], dtype=bool)), [0, 2]
        )


class TestConstruction:
    def test_timed_marks_are_car_slot_marks(self):
        xi = sample_priority_field(40, rng=SeedSpec(11))
        out = construct_from_priorities(xi, timed=True)
        assert out.T is None
        assert set(out.per_car_times) == {
            int(i) + 1 for i in np.flatnonzero(out.config.occupancy)
        }
        slots = car_slots_from_occupancy(out.config.occupancy)
        for s in slots:
            t = xi.values[s]
            assert out.per_car_times[int(s) + 1] == t
            assert out.per_car_times[int(s) + 2] == t

    def test_untimed_has_no_times(self):
        xi = sample_priority_field(10, rng=SeedSpec(1))
        assert construct_from_priorities(xi).per_car_times is None


class TestDirectProcess:
    def test_single_replica_invariants(self):
        out = simulate_direct(30, rng=SeedSpec(21))
        assert out.config.jammed
        assert out.M == out.config.occupied_count
        assert out.M % 2 == 0
        assert out.T >= out.M // 2  # every parked car took at least one draw

    def test_deterministic_in_seed(self):
        a = simulate_direct(30, rng=SeedSpec(21))
        b = simulate_direct(30, rng=SeedSpec(21))
        np.testing.assert_array_equal(a.config.occupancy, b.config.occupancy)
        assert a.T == b.T

    def test_small_n_exact(self):
        # n=2: one slot, first draw always parks
        out = simulate_direct(2, rng=SeedSpec(0))
        assert out.M == 2 and out.T == 1

    def test_batch_matches_single_law(self):
        # the one-pass kernel against the draw-by-draw reference: chi-square
        # on the laws of M and of T (n = 6, where M takes two values)
        n, reps = 6, 20_000
        single = [simulate_direct(n, rng=SeedSpec(1234, i)) for i in range(reps)]
        batch_m, batch_t = simulate_direct_batch(n, reps, SeedSpec(5678))
        for ref, got in (([o.M for o in single], batch_m), ([o.T for o in single], batch_t)):
            _, _, p = _chi2(collections.Counter(ref), collections.Counter(got.tolist()))
            assert p > 0.001

    def test_batch_m_matches_exact_law(self):
        n, reps = 6, 40_000
        m_batch, _ = simulate_direct_batch(n, reps, SeedSpec(97))
        law = distribution_M(n).probs
        counts = collections.Counter(m_batch.tolist())
        assert set(counts) <= set(law)
        for m, p in law.items():
            got = counts.get(m, 0) / reps
            sigma = float(p * (1 - p) / reps) ** 0.5
            assert abs(got - float(p)) <= 5 * sigma

    def test_priorities_m_matches_exact_law(self):
        # the classifier on uniform marks: only their ordering matters
        n, reps = 6, 40_000
        m = occupancy_profile(SeedSpec(98).generator().random((reps, n - 1))).sum(axis=1)
        law = distribution_M(n).probs
        counts = collections.Counter(int(x) for x in m)
        for mm, p in law.items():
            got = counts.get(mm, 0) / reps
            sigma = float(p * (1 - p) / reps) ** 0.5
            assert abs(got - float(p)) <= 5 * sigma


# the merged law table runs the kernel on each tau* path: _SCAN_SITES = 1
# sends every n >= 2 through the tau_star scan, CHAIN_CAP keeps n <= CHAIN_CAP
# in the 2-D classifier
PATHS = {"scan": 1, "classifier": CHAIN_CAP}


def _second_largest_car_mark(xi, occ):
    """The second-largest car mark of each row (the only one for one car)."""
    marks = np.sort(np.where(car_slot_mask(occ)[:, :-1], xi, -np.inf), axis=1)
    second = marks[:, -2] if marks.shape[1] > 1 else marks[:, -1]
    return np.where(np.isfinite(second), second, marks[:, -1])


def _on_one_row(tau_of):
    """A tau_star replacement: tau_of applied to one field."""
    return lambda xi: float(tau_of(xi[None, :], occupancy_profile(xi[None, :]))[0])


_draw_counts = finite._draw_counts

# planted faults, as replacements of the kernel's parts; the tau* faults
# replace both tau_star (scan path) and tau_star_rows (classifier path)
PLANTED_FAULTS = {
    "without_first_arrivals": {
        "_draw_counts": lambda xi, tau, rng: _draw_counts(xi, tau, rng) - np.count_nonzero(xi <= tau[:, None], axis=1),
    },
    "second_largest_car_mark": {
        "tau_star_rows": _second_largest_car_mark,
        "tau_star": _on_one_row(_second_largest_car_mark),
    },
    "largest_mark_of_all_slots": {
        "tau_star_rows": lambda xi, occ: xi.max(axis=1),
        "tau_star": lambda xi: float(xi.max()),
    },
}


def _chain_mean_misses(reps: int = 6000, seed: int = 99) -> list:
    """(n, quantity) for each n in 2..CHAIN_CAP where simulate_direct_batch's
    mean M or T misses the exact E[M_n] or chain E[T_n]: by more than 4
    stderr, or at all when the sample has no spread (T at n = 2, 3; M at
    n = 2, 3, 5)."""
    misses = []
    for n in range(2, CHAIN_CAP + 1):
        m, t = simulate_direct_batch(n, reps, SeedSpec(seed, n))
        for name, sample, want in (("M", m, expected_M(n)), ("T", t, expected_T_exact(n))):
            st_ = SampleStats.from_samples(sample)
            if abs(st_.mean - float(want)) > 4.0 * st_.stderr:
                misses.append((n, name))
    return misses


def _by_hand(n_list, replicas: int, master: int, r: int) -> list:
    """(M, T, tau*) of each row rebuilt from the definition: rows of n split
    into jobs of max(1, _CHUNK_MARKS // (n-1)) replicas, numbered c across
    rows, job c drawing its fields from stream (master, (r, c)); tau* is the
    largest car mark and the later draws one Poisson draw per row."""
    c, out = 0, []
    for n in n_list:
        per_job = max(1, finite._CHUNK_MARKS // (n - 1))
        ms, ts, taus = [], [], []
        for lo in range(0, replicas, per_job):
            rng = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(master, spawn_key=(r, c))))
            c += 1
            xi = rng.standard_exponential((min(per_job, replicas - lo), n - 1))
            occ = [occupancy_profile(row) for row in xi]
            tau = [float(row[car_slots_from_occupancy(o)].max()) for row, o in zip(xi, occ)]
            later = rng.poisson([float(np.sum(np.maximum(t - row, 0.0))) for t, row in zip(tau, xi)])
            ms += [int(o.sum()) for o in occ]
            ts += [int(np.count_nonzero(row <= t)) + int(k) for t, row, k in zip(tau, xi, later)]
            taus += tau
        out.append((ms, ts, taus))
    return out


def _mark_rows(kind: str, values: list, rows: int) -> np.ndarray:
    """rows fields of one kind, row r built from values rotated by r."""
    out = []
    for r in range(rows):
        v = np.roll(np.asarray(values, dtype=np.float64), r)
        if kind == "tied":
            v = np.floor(v * 4.0)  # marks in {0, 1, 2, 3}: many ties
        elif kind == "sawtooth":
            # every high slot sits between two lower ones and never holds a
            # car, so the scan must look past all of them (beyond its first batch)
            saw = np.empty(2 * v.size + 1)
            saw[0::2] = np.append(v, 0.5)
            saw[1::2] = v + 2.0
            v = saw
        out.append(v)
    return np.array(out)


class TestDirectBatchKernel:
    def test_means_match_exact_for_every_small_n(self, monkeypatch):
        for path, sites in PATHS.items():
            monkeypatch.setattr(finite, "_SCAN_SITES", sites)
            assert _chain_mean_misses() == [], path

    @pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
    def test_planted_faults_fail(self, monkeypatch, fault):
        for name, part in PLANTED_FAULTS[fault].items():
            monkeypatch.setattr(finite, name, part)
        for path, sites in PATHS.items():
            monkeypatch.setattr(finite, "_SCAN_SITES", sites)
            assert _chain_mean_misses() != [], path

    @given(
        st.sampled_from(["float", "tied", "sawtooth"]),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=90),
        st.integers(min_value=1, max_value=4),
    )
    @example("sawtooth", [i / 40 for i in range(40)], 3)
    @settings(max_examples=300, deadline=None)
    def test_tau_star_rows_equal_scan(self, kind, values, rows):
        # scan == tau_star_rows == the largest car mark of the classifier
        xi = _mark_rows(kind, values, rows)
        want = [float(row[car_slots_from_occupancy(occupancy_profile(row))].max()) for row in xi]
        assert [tau_star(row) for row in xi] == want
        assert tau_star_rows(xi, occupancy_profile(xi)).tolist() == want

    @pytest.mark.parametrize(
        "n, replicas",
        [
            (finite._CHUNK_MARKS + 2, 3),  # n - 1 > marks per chunk: one row per chunk
            (6, 2 * (finite._CHUNK_MARKS // 5) + 7),  # a partial last chunk
            (finite._SCAN_SITES, 40),  # the longest classified row; partial last chunk
            (finite._SCAN_SITES + 1, 40),  # the shortest scanned row; partial last chunk
        ],
    )
    def test_chunks_equal_rows_built_by_hand(self, n, replicas):
        (m, t, tau), = first_arrival_batch([n], replicas, SeedSpec(61, 2))
        assert m.dtype == t.dtype == np.int64
        assert [m.tolist(), t.tolist(), tau.tolist()] == list(_by_hand([n], replicas, 61, 2)[0])

    def test_jobs_numbered_across_rows(self):
        # job c counts across rows, so each row's streams follow the jobs of
        # the rows before it; a leading subset of rows reproduces, and an int
        # seed m is SeedSpec(m, 0)
        n_list, reps = [6, finite._SCAN_SITES + 1, 40], 25
        got = first_arrival_batch(n_list, reps, SeedSpec(62, 3), want_m=False)
        want = _by_hand(n_list, reps, 62, 3)
        for (m, t, tau), (_, want_t, want_tau) in zip(got, want):
            assert m is None
            assert [t.tolist(), tau.tolist()] == [want_t, want_tau]
        head = first_arrival_batch(n_list[:2], reps, SeedSpec(62, 3), want_m=False)
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(head, got))
        a, b = (first_arrival_batch(n_list, reps, s)[2] for s in (62, SeedSpec(62, 0)))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_deterministic_in_seed(self):
        a = simulate_direct_batch(40, 500, SeedSpec(62), threads=2)
        b = simulate_direct_batch(40, 500, SeedSpec(62))
        c = simulate_direct_batch(40, 500, SeedSpec(63))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[1], c[1])

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            simulate_direct_batch(1, 3, SeedSpec(64))


def _chi2(ca, cb):
    from pagepark import chi_square_two_sample

    return chi_square_two_sample(dict(ca), dict(cb))


class TestMeasure:
    def test_direct_mean_tracks_exact(self):
        mt = measure_M_T(50, 20_000, seed=SeedSpec(31))
        em = float(expected_M(50))
        assert abs(mt.m_stats.mean - em) <= 5 * mt.m_stats.stderr
        assert mt.t_stats.mean > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_M_T(10, 1)
