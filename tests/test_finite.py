"""Finite-interval dynamics: the classifier, its replay, and the draw process."""
import collections
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pagepark import (
    SeedSpec,
    distribution_M,
    expected_M,
    first_arrival_batch,
    occupancy_profile,
    simulate_direct,
    simulate_direct_batch,
    verify_lemma1,
    weak_orderings,
)
from pagepark import finite
from pagepark.exact import variance_M
from pagepark.finite import tau_star, tau_star_rows
from pagepark.oracle import CHAIN_CAP, expected_T_exact, park_in_rank_order
from pagepark.stats import SampleStats, law_matches, within_stderr

# seed-driven random fields keep hypothesis shrinking useful while the
# marks themselves stay continuous (ties have probability ~ n 2^-53)
field_seeds = st.integers(min_value=0, max_value=2**48)
sizes = st.integers(min_value=2, max_value=120)


class TestRiseDescent:
    """Pinned cases of the run-parity rule, read through occupancy_profile:
    site i is vacant iff its rise and descent both have even length."""

    def test_pinned_example(self):
        # marks (3, 1, 2) on slots 1..3: the middle slot parks first and
        # blocks both neighbours, leaving sites 1 and 4 vacant (rise, descent
        # at sites 1..4: (0, 2), (1, 1), (1, 1), (2, 0))
        assert occupancy_profile(np.array([3.0, 1.0, 2.0])).tolist() == [False, True, True, False]

    def test_increasing_marks_pack_from_left(self):
        # the rise at the far edge spans all four slots: even, so site 5 is vacant
        occ = occupancy_profile(np.array([1.0, 2.0, 3.0, 4.0]))
        assert occ.tolist() == [True, True, True, True, False]

    def test_decreasing_marks_pack_from_right(self):
        # the descent at site 1 spans all four slots
        occ = occupancy_profile(np.array([4.0, 3.0, 2.0, 1.0]))
        assert occ.tolist() == [False, True, True, True, True]

    def test_edge_lengths_zero(self):
        # no slot left of site 1 or right of site n: those runs have length 0,
        # so an edge site is vacant exactly when its one run is even
        assert occupancy_profile(np.array([2.0, 1.0])).tolist() == [False, True, True]
        assert occupancy_profile(np.array([1.0, 2.0])).tolist() == [True, True, False]
        assert occupancy_profile(np.array([0.5])).tolist() == [True, True]

    def test_out_of_range_site(self):
        # one site and no slot: nothing to classify
        with pytest.raises(ValueError):
            occupancy_profile(np.array([]))


class TestClassifierEquivalence:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_exhaustive_against_replay(self, n):
        # every ordering of the n-1 slots; the classifier must reproduce the
        # replayed occupancy at every site
        assert verify_lemma1(n, occupancy_profile) == []

    @pytest.mark.parametrize("n", range(2, 8))
    def test_tie_rule_exhaustive_on_weak_orderings(self, n):
        # every weak ordering of the n-1 slots (4683 at n = 7): equal marks
        # act in slot order, and the classifier and the tau* scan must agree
        # with the oracle's replay of that rule
        assert _tie_rule_misses(n) == []

    def test_strict_tie_rule_fails_weak_orderings(self, monkeypatch):
        # planted fault: the parity pass with `<` in place of `<=` (tied
        # neighbours act right slot first) agrees on every permutation and
        # must fail the weak orderings, in the occupancy and in the car mask
        strict = _edited(finite._run_parities, "xi[..., :-1] <= xi[..., 1:]", "xi[..., :-1] < xi[..., 1:]")
        monkeypatch.setattr(finite, "_run_parities", strict)
        assert all(verify_lemma1(n, occupancy_profile) == [] for n in range(2, 7))
        assert [n for n in range(2, 8) if _tie_rule_misses(n)] == list(range(3, 8))
        assert _car_mask_misses(_car_mask_fields()[-1]) > 0

    @given(field_seeds, sizes)
    @settings(max_examples=60, deadline=None)
    def test_vectorised_profile_matches_scalar(self, seed, n):
        # a 2-D block of tied fields (marks in {0, .., 3}) against the scalar
        # replay of each row, so the tie rule is checked beyond the exhaustive n
        xi = np.floor(4.0 * SeedSpec(seed).generator().random((5, n - 1)))
        built = [[c is not None for c in park_in_rank_order(row)] for row in xi]
        assert occupancy_profile(xi).tolist() == built

    @given(field_seeds, sizes)
    @settings(max_examples=60, deadline=None)
    def test_profile_matches_construction(self, seed, n):
        # the classifier against the oracle's replay in mark order
        xi = SeedSpec(seed).generator().random(n - 1)
        built = [c is not None for c in park_in_rank_order(xi)]
        assert occupancy_profile(xi).tolist() == built

    def test_profile_batched_shape(self):
        u = SeedSpec(3).generator().random((7, 9))
        prof = occupancy_profile(u)
        assert prof.shape == (7, 10)
        for row_marks, row_occ in zip(u, prof):
            np.testing.assert_array_equal(occupancy_profile(row_marks), row_occ)


def _tie_rule_misses(n: int) -> list:
    """Weak orderings of n-1 slots on which the classifier or the tau* scan
    disagrees with the oracle's replay (ties act in slot order)."""
    ranked = list(weak_orderings(n - 1))
    misses = [ranks for ranks, _ in verify_lemma1(n, occupancy_profile, ranked)]
    for ranks in ranked:
        cover = park_in_rank_order(ranks)
        if tau_star(np.array(ranks, dtype=np.float64)) != max(ranks[c] for c in cover if c is not None):
            misses.append(ranks)
    return misses


def _edited(fn, old: str, new: str):
    """A function of finite rebuilt from its source with its one occurrence
    of `old` replaced by `new`."""
    src = inspect.getsource(fn)
    assert src.count(old) == 1
    scope = dict(vars(finite))
    exec(compile(src.replace(old, new), finite.__file__, "exec"), scope)
    return scope[fn.__name__]


def _car_mask_misses(xi) -> int:
    """Rows of the marks xi, shape (rows, n-1), where the kernel's car mask
    (both runs of _run_parities odd) differs from the oracle's replay."""
    rise, descent = finite._run_parities(xi)
    return int(np.count_nonzero(((rise & descent) != _car_mask(xi)).any(axis=1)))


def _car_mask_fields() -> list:
    """Fields with and without ties, and every weak ordering of 6 slots."""
    gen = SeedSpec(5).generator()
    return [gen.random((40, 57)), np.floor(3.0 * gen.random((40, 57))), gen.random((3, 1)),
            np.array(list(weak_orderings(6)), dtype=np.float64)]


class TestParityPass:
    def test_car_mask_is_the_and_of_the_parities(self):
        # the car mask of the kernel against the slots that park in the
        # oracle's replay, which shares no code with the parity pass
        assert [_car_mask_misses(xi) for xi in _car_mask_fields()] == [0, 0, 0, 0]

    def test_peak_memory_is_a_fraction_of_the_marks(self):
        # one int32 buffer and a few boolean arrays: an int64 buffer alone
        # is xi.nbytes, and the per-run index arrays of a plain prefix-max
        # classifier come to several times that
        xi = SeedSpec(6).generator().random((64, 2047))
        occupancy_profile(xi)  # warm numpy's allocation caches
        tracemalloc.start()
        try:
            occupancy_profile(xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * xi.nbytes, peak / xi.nbytes


class TestJammedInvariants:
    @given(field_seeds, sizes)
    @settings(max_examples=80, deadline=None)
    def test_profile_is_jammed_even_and_covering(self, seed, n):
        occ = occupancy_profile(SeedSpec(seed).generator().random(n - 1))
        m = int(occ.sum())
        assert m % 2 == 0
        assert m >= (n - 1) / 2
        assert np.count_nonzero(~occ[:-1] & ~occ[1:]) == 0  # no free adjacent pair

    @given(field_seeds, sizes)
    @settings(max_examples=40, deadline=None)
    def test_car_slots_reconstruct_occupancy(self, seed, n):
        # the kernel's car mask, each car spread to its two sites, rebuilds
        # the classified occupancy, and no two cars share a site
        xi = SeedSpec(seed).generator().random(n - 1)
        rise, descent = finite._run_parities(xi)
        slots = np.flatnonzero(rise & descent)
        rebuilt = np.zeros(n, dtype=bool)
        rebuilt[slots] = True
        rebuilt[slots + 1] = True
        np.testing.assert_array_equal(rebuilt, occupancy_profile(xi))
        assert np.all(np.diff(slots) >= 2)


class TestDirectProcess:
    def test_single_replica_invariants(self):
        occ, t = simulate_direct(30, rng=SeedSpec(21))
        assert occ.shape == (30,) and occ.dtype == bool
        assert np.count_nonzero(~occ[:-1] & ~occ[1:]) == 0  # jammed
        m = int(occ.sum())
        assert m % 2 == 0
        assert t >= m // 2  # every parked car took at least one draw

    def test_deterministic_in_seed(self):
        a_occ, a_t = simulate_direct(30, rng=SeedSpec(21))
        b_occ, b_t = simulate_direct(30, rng=SeedSpec(21))
        np.testing.assert_array_equal(a_occ, b_occ)
        assert a_t == b_t

    def test_small_n_exact(self):
        # n=2: one slot, first draw always parks
        occ, t = simulate_direct(2, rng=SeedSpec(0))
        assert occ.tolist() == [True, True] and t == 1

    def test_batch_matches_single_law(self):
        # the one-pass kernel against the draw-by-draw reference: chi-square
        # on the laws of M and of T (n = 6, where M takes two values)
        n, reps = 6, 20_000
        single = [simulate_direct(n, rng=SeedSpec(1234, i)) for i in range(reps)]
        batch_m = simulate_direct_batch(n, reps, SeedSpec(5678))
        batch_t = first_arrival_batch([n], reps, SeedSpec(5678))[0][0]
        for ref, got in (([int(occ.sum()) for occ, _ in single], batch_m), ([t for _, t in single], batch_t)):
            _, _, p = _chi2(collections.Counter(ref), collections.Counter(got.tolist()))
            assert p > 0.001

    def test_batch_m_matches_exact_law(self):
        n, reps = 6, 40_000
        m_batch = simulate_direct_batch(n, reps, SeedSpec(97))
        assert law_matches(collections.Counter(m_batch.tolist()), distribution_M(n).probs)[0]

    def test_priorities_m_matches_exact_law(self):
        # the classifier on uniform marks: only their ordering matters
        n, reps = 6, 40_000
        m = occupancy_profile(SeedSpec(98).generator().random((reps, n - 1))).sum(axis=1)
        assert law_matches(collections.Counter(m.tolist()), distribution_M(n).probs)[0]


# the kernels' paths, as (_SCAN_SITES, quantity): with _SCAN_SITES = 1 every
# n >= 2 is long, so T takes the tau_star scan; at CHAIN_CAP every n <=
# CHAIN_CAP is short, so T takes the car mask (tau_star_rows). M reads the car
# mask alone, whatever _SCAN_SITES is
PATHS = {"scan": (1, "T"), "mask": (CHAIN_CAP, "T"), "m": (CHAIN_CAP, "M")}


def _car_slots(row) -> list:
    """0-based slots that hold a car when one row of marks parks in the
    oracle's replay."""
    return sorted({s for s in park_in_rank_order(row) if s is not None})


def _car_mask(xi):
    """The car mask of marks xi, shape (rows, n-1), from the oracle's replay
    of each row, not from the parities."""
    car = np.zeros(xi.shape, dtype=bool)
    for mask, row in zip(car, xi):
        mask[_car_slots(row)] = True
    return car


def _second_largest_car_mark(xi, car):
    """The second-largest car mark of each row (the only one for one car)."""
    marks = np.sort(np.where(car, xi, -np.inf), axis=1)
    second = marks[:, -2] if marks.shape[1] > 1 else marks[:, -1]
    return np.where(np.isfinite(second), second, marks[:, -1])


def _scan_by(tau_of):
    """A _scan replacement: tau_of applied to one field, and the marks above
    that."""

    def scan(xi):
        top = float(tau_of(xi[None, :], _car_mask(xi[None, :]))[0])
        return top, xi[xi > top]

    return scan


_draw_counts = finite._draw_counts


def _without_first_arrivals(u, top, above_rows, above, rng):
    below = u.shape[1] - np.bincount(above_rows, minlength=top.size)
    t, tau = _draw_counts(u, top, above_rows, above, rng)
    return t - below, tau


# planted faults, as the quantity whose paths must catch them and
# replacements of the kernels' parts; the tau* faults replace both _scan (scan
# path) and tau_star_rows (car mask path), the log-sum faults edit
# _draw_counts, which both T paths call, and the M fault counts a car where
# either parity is odd
PLANTED_FAULTS = {
    "without_first_arrivals": ("T", {"_draw_counts": _without_first_arrivals}),
    "second_largest_car_mark": ("T", {
        "tau_star_rows": _second_largest_car_mark,
        "_scan": _scan_by(_second_largest_car_mark),
    }),
    "largest_mark_of_all_slots": ("T", {
        "tau_star_rows": lambda xi, car: xi.max(axis=1),
        "_scan": _scan_by(lambda xi, car: xi.max(axis=1)),
    }),
    "log_sum_drops_last_slot": ("T", {
        "_draw_counts": _edited(finite._draw_counts, "logs.sum(axis=1)", "logs[:, :-1].sum(axis=1)"),
    }),
    "log_of_u_not_1_minus_u": ("T", {
        "_draw_counts": _edited(finite._draw_counts, "np.subtract(1.0, u, out=u)", "np.positive(u, out=u)"),
    }),
    "car_count_of_rise_or_descent": ("M", {
        "_car_count_chunk": _edited(finite._car_count_chunk, "rise & descent", "rise | descent"),
    }),
}


def _chain_mean_misses(quantity: str, reps: int = 6000, seed: int = 99) -> list:
    """Each n in 2..CHAIN_CAP where the kernel's mean of `quantity` misses
    the exact E[M_n] or chain E[T_n] by more than 4 stderr: for M the exact
    law's, sqrt(variance_M(n) / reps); for T, which has no exact variance
    here, the sample's, so a T sample with no spread (n = 2, 3) must hit the
    mean exactly. M comes from simulate_direct_batch, which density-convergence
    reads, and T from a first_arrival_batch call, as the trials sweep makes."""
    misses = []
    for n in range(2, CHAIN_CAP + 1):
        if quantity == "M":
            sample, want = simulate_direct_batch(n, reps, SeedSpec(seed, n)), expected_M(n)
        else:
            sample, want = first_arrival_batch([n], reps, SeedSpec(seed, n))[0][0], expected_T_exact(n)
        st_ = SampleStats.from_samples(sample)
        stderr = math.sqrt(variance_M(n) / reps) if quantity == "M" else st_.stderr
        if not within_stderr(st_.mean, float(want), stderr, 4.0)[0]:
            misses.append(n)
    return misses


def _by_hand(n_list, replicas: int, master: int, r: int) -> list:
    """(M, T, tau*) of each row rebuilt from the definition: rows of n split
    into jobs of max(1, _CHUNK_MARKS // (n-1)) replicas, numbered c across
    rows, job c drawing its Uniform(0, 1) fields u in one call from stream
    (master, (r, c)); the cars come from the oracle's replay, M is twice
    their count, tau* = -log1p(-u*) for their largest mark u*, and the later
    draws one Poisson draw per row with mean sum_s (tau* - xi_s)^+ over the
    arrival times xi = -log1p(-u)."""
    c, out = 0, []
    for n in n_list:
        per_job = max(1, finite._CHUNK_MARKS // (n - 1))
        ms, ts, taus = [], [], []
        for lo in range(0, replicas, per_job):
            rng = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(master, spawn_key=(r, c))))
            c += 1
            u = rng.random((min(per_job, replicas - lo), n - 1))
            cars = [_car_slots(row) for row in u]
            top = [float(row[car].max()) for row, car in zip(u, cars)]
            tau = [float(-np.log1p(-t)) for t in top]
            later = rng.poisson([float(np.sum(np.maximum(t + np.log1p(-row), 0.0))) for t, row in zip(tau, u)])
            ms += [2 * len(car) for car in cars]
            ts += [int(np.count_nonzero(row <= t)) + int(k) for t, row, k in zip(top, u, later)]
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
        elif kind in ("sawtooth", "sawtooth_odd"):
            # every high slot sits between lower ones (or at an edge next to
            # one) and never holds a car. "sawtooth" gives the high slots the
            # even positions, which tau_star's subsample reads, so on long
            # rows its threshold falls among them and the scan must fall back
            # to the parity pass; "sawtooth_odd" gives them the odd positions, each
            # between two low ones, so the scan must look past all of them
            saw = np.empty(2 * v.size + 1)
            saw[0::2] = np.append(v, 0.5)
            saw[1::2] = v
            saw[0 if kind == "sawtooth" else 1 :: 2] += 2.0
            v = saw
        out.append(v)
    return np.array(out)


class TestDirectBatchKernel:
    def test_means_match_exact_for_every_small_n(self, monkeypatch):
        for path, (sites, quantity) in PATHS.items():
            monkeypatch.setattr(finite, "_SCAN_SITES", sites)
            assert _chain_mean_misses(quantity) == [], path

    @pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
    def test_planted_faults_fail(self, monkeypatch, fault):
        caught_by, parts = PLANTED_FAULTS[fault]
        for name, part in parts.items():
            monkeypatch.setattr(finite, name, part)
        for path, (sites, quantity) in PATHS.items():
            if quantity == caught_by:
                monkeypatch.setattr(finite, "_SCAN_SITES", sites)
                assert _chain_mean_misses(quantity) != [], path

    @given(
        st.sampled_from(["float", "tied", "sawtooth", "sawtooth_odd"]),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=90),
        st.integers(min_value=1, max_value=4),
    )
    @example("sawtooth", [i / 40 for i in range(40)], 3)
    @example("sawtooth_odd", [i / 40 for i in range(40)], 1)
    @settings(max_examples=300, deadline=None)
    def test_tau_star_rows_equal_scan(self, kind, values, rows):
        # scan == tau_star_rows == the largest car mark of the replay
        xi = _mark_rows(kind, values, rows)
        want = [float(row[_car_slots(row)].max()) for row in xi]
        assert [tau_star(row) for row in xi] == want
        assert tau_star_rows(xi, _car_mask(xi)).tolist() == want

    @pytest.mark.parametrize("kind, size", [("float", 4099), ("tied", 4099), ("sawtooth", 2049), ("sawtooth", 512)])
    def test_tau_star_on_long_rows(self, kind, size, monkeypatch):
        # rows of 4099 slots, where the scan takes its threshold from a
        # subsample. A sawtooth of h values has 2h + 1 slots; the short one is
        # followed by float marks between its low and its high slots. On both
        # no slot at or above the threshold holds a car, so the scan classifies
        # the row with one parity pass; float and tied rows never do
        passes = []
        parities = finite._run_parities
        monkeypatch.setattr(finite, "_run_parities", lambda xi: passes.append(xi.shape) or parities(xi))
        gen = SeedSpec(7, size).generator()
        xi = _mark_rows(kind, gen.random(size).tolist(), 3)
        xi = np.concatenate([xi, 1.0 + gen.random((3, 4099 - xi.shape[1]))], axis=1)
        car = _car_mask(xi)
        want = [float(row[c].max()) for row, c in zip(xi, car)]
        assert [tau_star(row) for row in xi] == want
        assert passes == ([(4099,)] * 3 if kind == "sawtooth" else [])
        if kind == "sawtooth":
            for row, c in zip(xi, car):
                top = np.sort(row[:: finite._SCAN_STRIDE])[::-1]
                assert not c[row >= top[finite._SCAN_TOP - 1]].any()

    @pytest.mark.parametrize(
        "n, replicas",
        [
            (finite._CHUNK_MARKS + 2, 3),  # n - 1 > marks per chunk: one row per chunk
            (6, 2 * (finite._CHUNK_MARKS // 5) + 7),  # a partial last chunk
            # the longest classified T-only row and the shortest scanned one;
            # partial last chunk
            pytest.param(finite._SCAN_SITES, 40, id="scan_sites-40"),
            pytest.param(finite._SCAN_SITES + 1, 40, id="scan_sites_plus_1-40"),
        ],
    )
    def test_chunks_equal_rows_built_by_hand(self, n, replicas):
        # M reads the car mask of each job's marks; T takes the car mask up to
        # _SCAN_SITES and the scan past it; either way a row gives the same bits
        want = list(_by_hand([n], replicas, 61, 2)[0])
        m = simulate_direct_batch(n, replicas, SeedSpec(61, 2))
        (t, tau), = first_arrival_batch([n], replicas, SeedSpec(61, 2))
        assert m.dtype == t.dtype == np.int64
        assert [m.tolist(), t.tolist(), tau.tolist()] == want

    def test_t_only_bytes_free_of_threads(self):
        # jobs of one long scanned row, of several scanned rows, and of many
        # classified rows give the same bytes on one thread and two
        n_list = [finite._CHUNK_MARKS + 2, finite._SCAN_SITES + 1, 40]
        runs = [first_arrival_batch(n_list, 9, SeedSpec(66), threads=k) for k in (1, 2)]
        one, two = ([(t.tobytes(), tau.tobytes()) for t, tau in run] for run in runs)
        assert one == two

    def test_jobs_numbered_across_rows(self):
        # job c counts across rows, so each row's streams follow the jobs of
        # the rows before it; a leading subset of rows reproduces, and an int
        # seed m is SeedSpec(m, 0)
        n_list, reps = [6, finite._SCAN_SITES + 1, 40], 25
        got = first_arrival_batch(n_list, reps, SeedSpec(62, 3))
        want = _by_hand(n_list, reps, 62, 3)
        for (t, tau), (_, want_t, want_tau) in zip(got, want):
            assert [t.tolist(), tau.tolist()] == [want_t, want_tau]
        head = first_arrival_batch(n_list[:2], reps, SeedSpec(62, 3))
        assert all(np.array_equal(x[0], y[0]) for x, y in zip(head, got))
        a, b = (first_arrival_batch(n_list, reps, s)[2] for s in (62, SeedSpec(62, 0)))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_deterministic_in_seed(self):
        # 500 rows of 39 marks are two jobs, so threads=2 runs both at once
        a = simulate_direct_batch(40, 500, SeedSpec(62), threads=2)
        b = simulate_direct_batch(40, 500, SeedSpec(62))
        c = simulate_direct_batch(40, 500, SeedSpec(63))
        assert a.dtype == np.int64 and a.shape == (500,)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_tau_star_rejects_empty_field(self):
        with pytest.raises(ValueError):
            tau_star(np.array([]))

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            simulate_direct_batch(1, 3, SeedSpec(64))
        with pytest.raises(ValueError):
            first_arrival_batch([6, 1], 3, SeedSpec(64))

    @pytest.mark.parametrize("n", [300, finite._SCAN_SITES + 1])
    def test_m_reads_no_draw_count(self, n, monkeypatch):
        # M comes off each job's car mask alone: with every part of the T
        # path made to raise, the same M comes out, on one thread and two
        want = simulate_direct_batch(n, 60, SeedSpec(67))

        def refuse(*args):
            raise AssertionError("M computed a part of T")

        for name in ("_draw_counts", "tau_star_rows", "_scan"):
            monkeypatch.setattr(finite, name, refuse)
        for threads in (1, 2):
            np.testing.assert_array_equal(simulate_direct_batch(n, 60, SeedSpec(67), threads), want)


def _chi2(ca, cb):
    from pagepark import chi_square_two_sample

    return chi_square_two_sample(dict(ca), dict(cb))


class TestMeasure:
    def test_direct_mean_tracks_exact(self):
        m = simulate_direct_batch(50, 20_000, SeedSpec(31))
        assert within_stderr(float(m.mean()), float(expected_M(50)), math.sqrt(variance_M(50) / m.size), 5.0)[0]
