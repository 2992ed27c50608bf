"""Finite-interval dynamics: the classifier, its replay, and the draw process."""
import collections
import functools
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
from pagepark.finite import tau_star_rows
from pagepark.oracle import CHAIN_CAP, distribution_T_exact, expected_T_exact, park_in_rank_order
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
        # act in slot order, and the classifier, _tau_star and the band search
        # over every slot must agree with the oracle's replay of that rule
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
    """Weak orderings of n-1 slots on which the classifier, _tau_star or the
    band search with every slot in the band disagrees with the oracle's
    replay (ties act in slot order)."""
    ranked = list(weak_orderings(n - 1))
    misses = [ranks for ranks, _ in verify_lemma1(n, occupancy_profile, ranked)]
    for ranks in ranked:
        cover = park_in_rank_order(ranks)
        want = max(ranks[c] for c in cover if c is not None)
        band = sorted(range(n - 1), key=lambda s: -ranks[s])
        if _tau_star(ranks) != want or finite._band_tau(ranks, band, n - 1) != want:
            misses.append(ranks)
    return misses


def _tau_star(xi) -> float:
    """tau* of one field xi over slots 1..n-1, in the units of xi: its
    largest car mark, from the kernel's parity pass and tau_star_rows."""
    xi = np.asarray(xi, dtype=np.float64)
    return float(tau_star_rows(xi, np.logical_and(*finite._run_parities(xi))))


def _edited(fn, old: str, new: str):
    """A function of finite rebuilt from its source with its one occurrence
    of `old` replaced by `new`. Its globals are finite's own, so it reads
    the module's constants as tests set them."""
    src = inspect.getsource(fn)
    assert src.count(old) == 1
    scope = {}
    exec(compile(src.replace(old, new), finite.__file__, "exec"), vars(finite), scope)
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


def _turning_misses() -> list:
    """The fields, by index, with a row whose car count from the turning
    points (_turning_cars) differs from the parity pass's: every weak
    ordering (tie pattern) of 1..6 slots, then 20 random rows of each m =
    1..64, continuous and on a grid of 3 levels (ties), then two long rows."""
    gen = SeedSpec(9).generator()
    fields = [np.array(list(weak_orderings(m)), dtype=np.float64) for m in range(1, 7)]
    for m in range(1, 65):
        fields += [gen.random((20, m)), np.floor(3.0 * gen.random((20, m)))]
    fields += [gen.random((1, 100_000)), np.floor(3.0 * gen.random((1, 100_000)))]
    misses = []
    for i, xi in enumerate(fields):
        rise, descent = finite._run_parities(xi)
        if [finite._turning_cars(row) for row in xi] != np.count_nonzero(rise & descent, axis=1).tolist():
            misses.append(i)
    return misses


class TestTurningCount:
    def test_equals_the_parity_count(self):
        assert _turning_misses() == []

    def test_one_and_two_slots(self):
        # one slot always parks; of two, only the one that acts first (the
        # smaller mark, the left one on a tie)
        for row in ([0.3], [0.2, 0.7], [0.7, 0.2], [0.5, 0.5]):
            assert finite._turning_cars(np.array(row)) == 1, row


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
        # the one-pass kernels and the draw-by-draw reference, each against
        # its exact law at n = 6: M against distribution_M (two values) and T
        # against the chain's law of T_6 (_fits)
        n, reps = 6, 20_000
        single = [simulate_direct(n, rng=SeedSpec(1234, i)) for i in range(reps)]
        law_m, law_t = distribution_M(n).probs, distribution_T_exact(n)
        for sample, law in (
            ([int(occ.sum()) for occ, _ in single], law_m),
            ([t for _, t in single], law_t),
            (simulate_direct_batch(n, reps, SeedSpec(5678)), law_m),
            (first_arrival_batch([n], reps, SeedSpec(5678))[0][0], law_t),
        ):
            ok, detail = _fits(sample, law)
            assert ok, detail

    def test_batch_m_matches_exact_law(self):
        n, reps = 6, 40_000
        m_batch = simulate_direct_batch(n, reps, SeedSpec(97))
        assert law_matches(collections.Counter(m_batch.tolist()), distribution_M(n).probs)[0]

    def test_priorities_m_matches_exact_law(self):
        # the classifier on uniform marks: only their ordering matters
        n, reps = 6, 40_000
        m = occupancy_profile(SeedSpec(98).generator().random((reps, n - 1))).sum(axis=1)
        assert law_matches(collections.Counter(m.tolist()), distribution_M(n).probs)[0]


# the kernels' paths, as (constants set, quantity): with _BAND_SITES = 1 every
# n >= 2 takes the band path, and a band of about 2 slots leaves most rows of
# n <= CHAIN_CAP with no car in it, so the fallback runs too; at CHAIN_CAP
# every n <= CHAIN_CAP takes the car mask (tau_star_rows). M reads the car
# mask alone, whatever _BAND_SITES is, and with _TURNING_MARKS = 1 every row
# counts its cars from its turning points
PATHS = {
    "band": ({"_BAND_SITES": 1, "_BAND": 2}, "T"),
    "mask": ({"_BAND_SITES": CHAIN_CAP}, "T"),
    "m": ({}, "M"),
    "turning": ({"_TURNING_MARKS": 1}, "M"),
}


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
    """The second-largest car mark of each row (the only one for one car),
    of one row or of a 2-D block."""
    marks = np.sort(np.where(car, xi, -np.inf), axis=-1)
    second = marks[..., -2] if marks.shape[-1] > 1 else marks[..., -1]
    return np.where(np.isfinite(second), second, marks[..., -1])


def _mixture_law(tau: float, a: float, top: int) -> np.ndarray:
    """P(N = j) for j = 0..top, where N counts the arrivals in (x, tau] of a
    unit-rate stream whose first arrival x is Exp(1) truncated to [0, a] <=
    tau: Poisson(tau - x) integrated over x,
    [pi_tau(j+1) - e^-a pi_(tau-a)(j+1)] / (1 - e^-a), with pi the Poisson pmf."""
    k = np.arange(1, top + 2)
    pi_tau = math.exp(-tau) * np.cumprod(tau / k)
    pi_low = math.exp(a - tau) * np.cumprod((tau - a) / k)
    return (pi_tau - math.exp(-a) * pi_low) / -math.expm1(-a)


def _band_tau_by(tau_of):
    """A _band_tau replacement: tau_of applied to the whole field, each mark
    read through the field as the band path reads it."""

    def band_tau(xi, band, m):
        field = np.array([[xi[s] for s in range(m)]])
        return float(tau_of(field, _car_mask(field))[0])

    return band_tau


_draw_counts = finite._draw_counts


def _without_first_arrivals(u, top, above_rows, above):
    below, mean, tau = _draw_counts(u, top, above_rows, above)
    return np.zeros_like(below), mean, tau


def _untruncated_marks(rng, a):
    while True:
        yield from rng.standard_exponential(finite._FRESH).tolist()


# planted faults, as the paths that must catch them and replacements of the
# kernels' parts. The tau* faults replace both tau_star_rows (car mask path)
# and _band_tau (the band search and its fallback); the log-sum faults edit
# _draw_counts, reached only by the car mask path; a rounding of the later
# draws' Poisson count (floor(mean + U): its mean, far less spread) edits the
# Poisson draw both paths share, which only the car mask path has the rows
# to see; the first M fault counts a car where either parity is odd, the
# next three break one term of the turning-point count, and the third of
# them, which counts the cars of the complement row 1 - u and so has exactly
# the law of M, only the row-by-row check ("turning_rows") can see; the last five
# break one step of the band path, the last of them by a draw in a fifth of
# the rows, which only the band path's mean check ("band_mean") has the rows
# to see
PLANTED_FAULTS = {
    "without_first_arrivals": (("mask",), {"_draw_counts": _without_first_arrivals}),
    "second_largest_car_mark": (("mask", "band"), {
        "tau_star_rows": _second_largest_car_mark,
        "_band_tau": _band_tau_by(_second_largest_car_mark),
    }),
    "largest_mark_of_all_slots": (("mask", "band"), {
        "tau_star_rows": lambda xi, car: xi.max(axis=-1),
        "_band_tau": _band_tau_by(lambda xi, car: xi.max(axis=-1)),
    }),
    "log_sum_drops_last_slot": (("mask",), {
        "_draw_counts": _edited(finite._draw_counts, "logs.sum(axis=1)", "logs[:, :-1].sum(axis=1)"),
    }),
    "log_of_u_not_1_minus_u": (("mask",), {
        "_draw_counts": _edited(finite._draw_counts, "np.subtract(1.0, u, out=u)", "np.positive(u, out=u)"),
    }),
    "later_draws_rounded_not_poisson": (("mask",), {
        "_first_arrival_row": _edited(
            finite._first_arrival_row,
            "rng.poisson(mean)",
            "np.floor(mean + rng.random(mean.size)).astype(np.int64)",
        ),
    }),
    "car_count_of_rise_or_descent": (("m",), {
        "_car_counts": _edited(finite._car_counts, "rise & descent", "rise | descent"),
    }),
    "peak_with_either_segment_even": (("turning", "turning_rows"), {
        "_turning_cars": _edited(finite._turning_cars, "even[first_max:-1:2] & even", "even[first_max:-1:2] | even"),
    }),
    "segment_counts_l_halves": (("turning", "turning_rows"), {
        "_turning_cars": _edited(finite._turning_cars, "(seg - 1) >> 1", "seg >> 1"),
    }),
    "first_turning_point_kind_flipped": (("turning_rows",), {
        "_turning_cars": _edited(finite._turning_cars, "int(m == 1 or asc[0])", "int(not (m == 1 or asc[0]))"),
    }),
    "unread_cell_counted_one_low": (("band", "band_mean"), {
        "_unread_arrivals": _edited(finite._unread_arrivals, "np.arange(1, j + 1)", "np.arange(j)"),
    }),
    "non_band_marks_untruncated": (("band",), {"_fresh": _untruncated_marks}),
    "band_in_slot_order": (("band",), {
        "_band_row": _edited(finite._band_row, "slots[np.argsort(-marks)]", "np.sort(slots)"),
    }),
    "tail_draws_dropped": (("band", "band_mean"), {"_tail_arrivals": lambda count, a, j, rng: 0}),
    "unread_arrivals_one_short": (("band_mean",), {
        "_band_row": _edited(finite._band_row, "_unread_arrivals(unread, cells, a, rng)",
                             "_unread_arrivals(unread, cells, a, rng) - 1"),
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


def _fits(sample, law) -> tuple[bool, str]:
    """law_matches of the integer sample against an exact law, values at or
    above its last key counted there: the chain's law of T_n ends in a key
    that stands for "cap and above"."""
    return law_matches(collections.Counter(np.minimum(sample, max(law)).tolist()), law)


def _t_fits(n: int, reps: int) -> bool:
    """Whether first_arrival_batch's T_n on seed SeedSpec(98, n), with
    finite's constants as set, fits the chain's exact law of T_n."""
    return _fits(first_arrival_batch([n], reps, SeedSpec(98, n))[0][0], distribution_T_exact(n))[0]


def _force_band(monkeypatch, band: int) -> None:
    """Every n on the band path with a band of about `band` slots, J = a + 1
    (at least 1) so that the unread slots fill both the cells of K = 1..J and
    the tail cell."""
    for name, value in (("_BAND_SITES", 1), ("_BAND", band), ("_TAIL_SDS", 0), ("_TAIL_PAD", 1)):
        monkeypatch.setattr(finite, name, value)


# the band path forced onto chain sizes, as (n, _BAND, replicas): every n is
# long, and most rows hold no car in a band of 2 or 3 slots (the fallback)
BAND_LAWS = ((6, 2, 3000), (12, 3, 2000))
# the car mask path's law checks, as (n, replicas): its rows cost microseconds
MASK_LAWS = ((6, 25_000), (12, 25_000))


def _band_law_misses(monkeypatch, laws=BAND_LAWS) -> list:
    """The first n of laws, if any, where the forced band path's T fails
    the chain's exact law of T_n (_t_fits)."""
    for n, band, reps in laws:
        _force_band(monkeypatch, band)
        if not _t_fits(n, reps):
            return [n]
    return []


def _mask_law_misses() -> list:
    """Each n of MASK_LAWS where T fails the chain's exact law of T_n
    (_t_fits), with finite's constants as set."""
    return [n for n, reps in MASK_LAWS if not _t_fits(n, reps)]


def _band_mean_misses(monkeypatch, n: int = 6, reps: int = 20_000) -> list:
    """[n] if the mean of the forced band path's T_n (a band of 2) misses
    the chain's E[T_n] by more than 4 standard errors of the exact law's sd,
    else []. About a fifth of these rows reach _unread_arrivals, so a fault
    there of a draw or so per row moves the mean by several standard errors,
    which the law checks' samples are too small to see."""
    _force_band(monkeypatch, 2)
    law, want = distribution_T_exact(n), float(expected_T_exact(n))
    sd = math.sqrt(math.fsum(p * (t - want) ** 2 for t, p in law.items()))
    t = first_arrival_batch([n], reps, SeedSpec(100, n))[0][0]
    return [] if within_stderr(float(t.mean()), want, sd / math.sqrt(reps), 4.0)[0] else [n]


def _path_misses(path: str, monkeypatch) -> list:
    """What the planted-fault test runs on each path: the law checks on the
    band path, and on "band_mean" its mean check; the chain means and the
    law checks on the car mask path, and the chain means for M; on
    "turning_rows" the fields where the turning-point count differs from
    the parity pass (_turning_misses). numpy refuses the draws of a law
    whose cells sum above 1, and that fails the check too."""
    if path == "band":
        try:
            return _band_law_misses(monkeypatch)
        except ValueError as refused:
            return [str(refused)]
    if path == "band_mean":
        return _band_mean_misses(monkeypatch)
    if path == "turning_rows":
        return _turning_misses()
    constants, quantity = PATHS[path]
    for name, value in constants.items():
        monkeypatch.setattr(finite, name, value)
    return _chain_mean_misses(quantity) + (_mask_law_misses() if path == "mask" else [])


def _stream(master: int, r: int, c: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(master, spawn_key=(r, c))))


def _by_hand(n_list, replicas: int, master: int, r: int) -> list:
    """(M, T, tau*) of each row rebuilt from the definition, row i drawing
    from stream (master, (r, i)). Rows of up to _BAND_SITES sites draw their
    Uniform(0, 1) fields u in chunks of max(1, _CHUNK_MARKS // (n-1))
    replicas, one after another; the cars come from the oracle's replay, M
    is twice their count, tau* = -log1p(-u*) for their largest mark u*, and
    the later draws are one Poisson draw per row after its last chunk, with
    mean sum_s (tau* - xi_s)^+ per replica over the arrival times xi =
    -log1p(-u). Longer rows make one _band_row call per replica, in order, at
    the level a = max(0, log((n-1) / _BAND)), and their later draws are one
    Poisson draw per row after the last; M is None."""
    out = []
    for i, n in enumerate(n_list):
        rng = _stream(master, r, i)
        if n > finite._BAND_SITES:
            a = -math.log(min(1.0, finite._BAND / (n - 1)))
            cells = finite._unread_cells(a) if a > 0 else None
            counts, means, taus = zip(*(finite._band_row(n - 1, a, cells, rng) for _ in range(replicas)))
            out.append((None, [c + int(k) for c, k in zip(counts, rng.poisson(means))], list(taus)))
            continue
        per_chunk = max(1, finite._CHUNK_MARKS // (n - 1))
        ms, below, means, taus = [], [], [], []
        for lo in range(0, replicas, per_chunk):
            u = rng.random((min(per_chunk, replicas - lo), n - 1))
            cars = [_car_slots(row) for row in u]
            top = [float(row[car].max()) for row, car in zip(u, cars)]
            tau = [float(-np.log1p(-t)) for t in top]
            ms += [2 * len(car) for car in cars]
            below += [int(np.count_nonzero(row <= t)) for t, row in zip(top, u)]
            means += [float(np.sum(np.maximum(t + np.log1p(-row), 0.0))) for t, row in zip(tau, u)]
            taus += tau
        out.append((ms, [b + int(k) for b, k in zip(below, rng.poisson(means))], taus))
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
            # even positions and "sawtooth_odd" the odd ones, each between
            # two low ones, so a band of the high marks holds no car and the
            # band search must look past all of them
            saw = np.empty(2 * v.size + 1)
            saw[0::2] = np.append(v, 0.5)
            saw[1::2] = v
            saw[0 if kind == "sawtooth" else 1 :: 2] += 2.0
            v = saw
        out.append(v)
    return np.array(out)


MARK_KINDS = st.sampled_from(["float", "tied", "sawtooth", "sawtooth_odd"])
MARK_VALUES = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=90)


class TestDirectBatchKernel:
    def test_means_match_exact_for_every_small_n(self, monkeypatch):
        for path, (constants, quantity) in PATHS.items():
            for name, value in constants.items():
                monkeypatch.setattr(finite, name, value)
            # the band path is a Python loop per replica: fewer replicas
            assert _chain_mean_misses(quantity, 1500 if path == "band" else 6000) == [], path

    @pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
    def test_planted_faults_fail(self, monkeypatch, fault):
        paths, parts = PLANTED_FAULTS[fault]
        for name, part in parts.items():
            monkeypatch.setattr(finite, name, part)
        for path in paths:
            assert _path_misses(path, monkeypatch) != [], path

    def test_band_path_matches_exact_law(self, monkeypatch):
        # the band path forced onto n = 6 and 12 against the chain's exact
        # law of T_n, with its two rare paths each made to run: the fallback
        # (no car in the band, so the search runs over the whole field) and
        # the tail cell
        fired = collections.Counter()
        band_tau, tail = finite._band_tau, finite._tail_arrivals

        def counted_fallback(xi, band, m):
            tau = band_tau(xi, band, m)
            fired["fallback"] += tau is None
            return tau

        def counted_tail(count, *args):
            fired["tail"] += count
            return tail(count, *args)

        monkeypatch.setattr(finite, "_band_tau", counted_fallback)
        monkeypatch.setattr(finite, "_tail_arrivals", counted_tail)
        for law in BAND_LAWS:
            fired.clear()
            assert _band_law_misses(monkeypatch, [law]) == []
            assert fired["fallback"] > 0 and fired["tail"] > 0, (law, fired)

    def test_band_mean_matches_chain(self, monkeypatch):
        # the forced band path's mean of T_6 against the chain's E[T_6] = 5.5,
        # at 4 standard errors of the exact law's sd (4.21)
        assert _band_mean_misses(monkeypatch) == []

    def test_mask_path_matches_exact_law(self, monkeypatch):
        # the car mask path against the chain's exact law of T_n, n = 6 and 12
        monkeypatch.setattr(finite, "_BAND_SITES", CHAIN_CAP)
        assert _mask_law_misses() == []

    def test_band_parts_match_their_laws(self, monkeypatch):
        # the band path's draws against their exact laws: truncated marks in
        # ten cells of equal mass, -log1p(-q (1 - e^-a)) apart; the cells of
        # K, Poisson(a) given K >= 1, with mass 1 and mean a / (1 - e^-a); the
        # tail draws against Poisson(a) beyond j; and the split at a: the
        # unread slots' K + Poisson(U (tau - a)) against U copies of 1 + N,
        # N with _mixture_law, with J small enough that the tail cell fires.
        # The split without its Poisson(U (tau - a)) must fail
        rng = SeedSpec(70).generator()
        a = 1.5
        edges = -np.log1p(-np.linspace(0.1, 0.9, 9) * -math.expm1(-a))
        cells = collections.Counter(np.searchsorted(edges, finite._truncated(rng, a, 20_000)).tolist())
        assert law_matches(cells, dict.fromkeys(range(10), 0.1))[0]
        for a in (0.01, 0.2, 1.5, 8.0, 30.0):
            cells = finite._unread_cells(a)
            assert math.fsum(cells) == pytest.approx(1.0, abs=1e-12)
            assert math.fsum(cells[1:] * np.arange(1, cells.size)) == pytest.approx(a / -math.expm1(-a), abs=1e-10)
        a, j = 1.5, 3
        poisson = math.exp(-a) * np.cumprod(np.append(1.0, a / np.arange(1, 61)))
        draws = [finite._tail_arrivals(1, a, j, rng) for _ in range(4000)]
        tail = poisson[j + 1 :]
        assert law_matches(collections.Counter(draws), dict(zip(range(j + 1, 61), tail / tail.sum())))[0]
        monkeypatch.setattr(finite, "_TAIL_SDS", 0)
        monkeypatch.setattr(finite, "_TAIL_PAD", 1)
        for tau, a, unread in ((3.0, 1.5, 5), (12.0, 8.0, 3), (0.9, 0.3, 4)):
            cells = finite._unread_cells(a)
            k = np.array([finite._unread_arrivals(unread, cells, a, rng) for _ in range(20_000)])
            one = np.append(0.0, _mixture_law(tau, a, 80))  # the law of 1 + N
            law = dict(enumerate(functools.reduce(np.convolve, [one] * unread)))
            split = k + rng.poisson(unread * (tau - a), k.size)
            assert law_matches(collections.Counter(split.tolist()), law)[0], (tau, a, unread)
            assert not law_matches(collections.Counter(k.tolist()), law)[0], (tau, a, unread)

    def test_band_means_match_mask_above_crossover(self, monkeypatch):
        # just above the crossover the band path against the car mask, each
        # on its own seed: the means of T and of tau* within 4 stderr of the
        # difference
        n, reps = finite._BAND_SITES + 1, 600
        band = first_arrival_batch([n], reps, SeedSpec(68))[0]
        monkeypatch.setattr(finite, "_BAND_SITES", n)
        mask = first_arrival_batch([n], reps, SeedSpec(69))[0]
        for got, want in zip(band, mask):
            a, b = SampleStats.from_samples(got), SampleStats.from_samples(want)
            assert within_stderr(a.mean, b.mean, math.hypot(a.stderr, b.stderr), 4.0)[0]

    @given(MARK_KINDS, MARK_VALUES, st.integers(min_value=1, max_value=4))
    @example("sawtooth", [i / 40 for i in range(40)], 3)
    @example("sawtooth_odd", [i / 40 for i in range(40)], 1)
    @settings(max_examples=300, deadline=None)
    def test_tau_star_rows_equal_scan(self, kind, values, rows):
        # _tau_star == tau_star_rows == the largest car mark of the replay
        xi = _mark_rows(kind, values, rows)
        want = [float(row[_car_slots(row)].max()) for row in xi]
        assert [_tau_star(row) for row in xi] == want
        assert tau_star_rows(xi, _car_mask(xi)).tolist() == want

    @given(MARK_KINDS, MARK_VALUES, st.floats(min_value=-0.5, max_value=3.5))
    @example("sawtooth", [i / 40 for i in range(40)], 2.0)
    @example("sawtooth_odd", [i / 40 for i in range(40)], 1.5)
    @settings(max_examples=300, deadline=None)
    def test_band_search_matches_tau_star_rows(self, kind, values, level):
        # the band search over a known field with the band {slots above
        # level}: the largest car mark if it lies in the band, else no car
        xi = _mark_rows(kind, values, 1)
        want = float(tau_star_rows(xi, _car_mask(xi))[0])
        row = xi[0].tolist()
        band = sorted((s for s, x in enumerate(row) if x > level), key=lambda s: -row[s])
        assert finite._band_tau(row, band, len(row)) == (want if want > level else None)

    @pytest.mark.parametrize("kind, size", [("float", 4099), ("tied", 4099), ("sawtooth", 2049), ("sawtooth", 512)])
    def test_tau_star_on_long_rows(self, kind, size):
        # rows of 4099 slots. A sawtooth of h values has 2h + 1 slots; the
        # short one is followed by float marks between its low and its high
        # slots, so its highest marks hold no car
        gen = SeedSpec(7, size).generator()
        xi = _mark_rows(kind, gen.random(size).tolist(), 3)
        xi = np.concatenate([xi, 1.0 + gen.random((3, 4099 - xi.shape[1]))], axis=1)
        want = [float(row[c].max()) for row, c in zip(xi, _car_mask(xi))]
        assert [_tau_star(row) for row in xi] == want

    @pytest.mark.parametrize(
        "n, replicas",
        [
            (finite._CHUNK_MARKS + 2, 3),  # n - 1 > marks per chunk: one row per M chunk
            (6, 2 * (finite._CHUNK_MARKS // 5) + 7),  # a partial last chunk
            (1000, 40),  # 3 chunks: M and T read the same marks across chunks
            # the longest car-mask T row and the shortest band-path one;
            # partial last chunk
            pytest.param(finite._BAND_SITES, 40, id="band_sites-40"),
            pytest.param(finite._BAND_SITES + 1, 40, id="band_sites_plus_1-40"),
        ],
    )
    def test_chunks_equal_rows_built_by_hand(self, n, replicas, monkeypatch):
        # M reads each chunk's parity pass below _TURNING_MARKS marks and
        # each row's turning points from there on, and is also taken with
        # every row on the turning points; T takes the car mask up to
        # _BAND_SITES and the band path past it; either way a row gives the
        # same bits
        m = simulate_direct_batch(n, replicas, SeedSpec(61, 2))
        (t, tau), = first_arrival_batch([n], replicas, SeedSpec(61, 2))
        _, want_t, want_tau = _by_hand([n], replicas, 61, 2)[0]
        monkeypatch.setattr(finite, "_BAND_SITES", max(n, finite._BAND_SITES))
        want_m = _by_hand([n], replicas, 61, 2)[0][0]
        monkeypatch.setattr(finite, "_TURNING_MARKS", 1)
        m_turning = simulate_direct_batch(n, replicas, SeedSpec(61, 2))
        assert m.dtype == m_turning.dtype == t.dtype == np.int64
        assert [m.tolist(), m_turning.tolist(), t.tolist(), tau.tolist()] == [want_m, want_m, want_t, want_tau]

    def test_rows_do_not_depend_on_each_other(self):
        # row i draws from stream (m, (r, i)) alone: a row of 1000 sites (3
        # chunks) is bit-equal after a row of 6 sites (1 chunk), of 2000
        # sites (5 chunks) or on the band path; every row matches _by_hand,
        # and an int seed m is SeedSpec(m, 0)
        want = first_arrival_batch([6, 1000], 40, SeedSpec(62, 3))[1]
        for a in (2000, finite._BAND_SITES + 1):
            got = first_arrival_batch([a, 1000], 40, SeedSpec(62, 3))[1]
            assert all(np.array_equal(x, y) for x, y in zip(got, want)), a
        n_list, reps = [6, finite._BAND_SITES + 1, 40], 25
        got = first_arrival_batch(n_list, reps, SeedSpec(62, 3))
        for (t, tau), (_, want_t, want_tau) in zip(got, _by_hand(n_list, reps, 62, 3)):
            assert [t.tolist(), tau.tolist()] == [want_t, want_tau]
        a, b = (first_arrival_batch(n_list, reps, s)[2] for s in (62, SeedSpec(62, 0)))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_deterministic_in_seed(self):
        # 500 rows of 39 marks are two chunks
        a = simulate_direct_batch(40, 500, SeedSpec(62))
        b = simulate_direct_batch(40, 500, SeedSpec(62))
        c = simulate_direct_batch(40, 500, SeedSpec(63))
        assert a.dtype == np.int64 and a.shape == (500,)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            simulate_direct_batch(1, 3, SeedSpec(64))
        with pytest.raises(ValueError):
            first_arrival_batch([6, 1], 3, SeedSpec(64))

    @pytest.mark.parametrize("n", [300, pytest.param(finite._BAND_SITES + 1, id="band_sites_plus_1")])
    def test_m_reads_no_draw_count(self, n, monkeypatch):
        # M comes off each chunk's car mask alone: with every part of the T
        # path made to raise, the same M comes out
        want = simulate_direct_batch(n, 60, SeedSpec(67))

        def refuse(*args):
            raise AssertionError("M computed a part of T")

        for name in ("_draw_counts", "tau_star_rows", "_band_row"):
            monkeypatch.setattr(finite, name, refuse)
        np.testing.assert_array_equal(simulate_direct_batch(n, 60, SeedSpec(67)), want)


class TestMeasure:
    def test_direct_mean_tracks_exact(self):
        m = simulate_direct_batch(50, 20_000, SeedSpec(31))
        assert within_stderr(float(m.mean()), float(expected_M(50)), math.sqrt(variance_M(50) / m.size), 5.0)[0]
