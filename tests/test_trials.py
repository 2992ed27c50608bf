"""Poissonized trial counting: tau*, total draws, and the coupon ceiling."""
import collections
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pagepark import (
    CHAIN_CAP,
    SampleStats,
    SeedSpec,
    car_slots_from_occupancy,
    chi_square_two_sample,
    coupon_collector_mean_exact,
    expected_T_exact,
    first_arrival_batch,
    occupancy_profile,
    simulate_poissonized,
    trials_ratio_sweep,
)
from pagepark import EXP, finite
from pagepark.finite import tau_star
from pagepark.trials import TAU_STAR_LEVELS


class TestPoissonizedReplica:
    def test_counts_sum_to_t_and_cover_cars(self):
        tau, counts = simulate_poissonized(40, rng=SeedSpec(5))
        assert counts.shape == (39,) and counts.dtype == np.int64
        assert np.all(counts >= 0)
        assert counts.sum() >= 1
        assert tau > 0

    def test_car_slots_counted_at_least_once(self):
        # every car slot has its first arrival at or before tau*, so its
        # stream contributes at least one draw; rebuild the field exactly as
        # the simulator samples it (quantile transform of the uniform stream)
        xi = EXP.ppf(SeedSpec(6).generator().random(39))
        slots = car_slots_from_occupancy(occupancy_profile(xi))
        _, counts = simulate_poissonized(40, rng=SeedSpec(6))
        assert np.all(counts[slots] >= 1)

    def test_tau_star_is_max_car_mark(self):
        # the replica's tau* (from the oracle's replay) against the largest car
        # mark of the classifier, on the same field
        xi = EXP.ppf(SeedSpec(7).generator().random(99))
        slots = car_slots_from_occupancy(occupancy_profile(xi))
        assert simulate_poissonized(100, rng=SeedSpec(7))[0] == float(xi[slots].max())

    def test_mean_t_matches_absorbing_chain(self):
        # E[T] from the Poissonized process equals the direct process's
        # absorbing-chain value
        for n, seed in ((4, 40), (6, 41)):
            reps = 6000
            ts = np.array(
                [simulate_poissonized(n, rng=SeedSpec(seed, i))[1].sum() for i in range(reps)],
                dtype=np.float64,
            )
            want = float(expected_T_exact(n))
            z = (ts.mean() - want) / (ts.std(ddof=1) / math.sqrt(reps))
            assert abs(z) < 4.0


class TestTauStarStatistics:
    def test_quantiles_ordered_and_scale(self):
        row = trials_ratio_sweep([10_000], 300, seed=90, threads=2)[0]
        qs = list(row.tau_star_quantiles)
        assert qs == sorted(qs)
        logn = math.log(10_000)
        # tau* concentrates near log n - 2 with Gumbel fluctuations
        assert 0.6 * logn < row.tau_star_mean < 1.1 * logn
        assert qs[0] > 0.55 * logn
        # the row reads the kernel's own tau* draws
        taus = first_arrival_batch([10_000], 300, 90, want_m=False)[0][2]
        assert row.tau_star_mean == float(taus.mean())
        np.testing.assert_allclose(qs, np.quantile(taus, TAU_STAR_LEVELS), rtol=1e-14)

    def test_deterministic(self):
        a = trials_ratio_sweep([1000], 50, seed=91)
        b = trials_ratio_sweep([1000], 50, seed=91, threads=4)
        assert a == b


class TestCouponCollector:
    def test_exact_small(self):
        assert coupon_collector_mean_exact(1) == 1.0
        assert coupon_collector_mean_exact(2) == pytest.approx(3.0)
        assert coupon_collector_mean_exact(3) == pytest.approx(5.5)

    def test_exact_k100(self):
        h100 = sum(1.0 / j for j in range(1, 101))
        assert coupon_collector_mean_exact(100) == pytest.approx(100 * h100)

    def test_validation(self):
        with pytest.raises(ValueError):
            coupon_collector_mean_exact(0)


class TestRatioSweep:
    def test_rows_consistent(self):
        rows = trials_ratio_sweep([500, 2000], 60, seed=93, threads=2)
        assert [r.n for r in rows] == [500, 2000]
        for r in rows:
            assert r.replicas == 60
            assert r.ratio == pytest.approx(r.mean_T / (r.n * math.log(r.n)))
            assert r.ratio_stderr == pytest.approx(r.stderr_T / (r.n * math.log(r.n)))
            assert r.coupon_mean == pytest.approx(coupon_collector_mean_exact(r.n - 1))
            assert r.dominated_by_coupon
            assert 0 < r.tau_star_mean < math.log(r.n) * 1.5

    def test_row_subsets_reproduce(self):
        full = trials_ratio_sweep([500, 2000], 40, seed=94)
        head = trials_ratio_sweep([500], 40, seed=94)
        assert full[0].mean_T == head[0].mean_T
        assert full[0].tau_star_mean == head[0].tau_star_mean

    def test_seedspec_seed_starts_stream_indices(self):
        # the sweep is one first_arrival_batch call over all its rows, so its
        # (row, chunk) jobs are numbered across rows from stream (m, (r, 0));
        # test_finite rebuilds those streams by hand. A row on each side of
        # the scan crossover; an int seed m is SeedSpec(m, 0)
        master, r, reps = 94, 7, 20
        n_list = [300, finite._SCAN_SITES + 1]
        rows = trials_ratio_sweep(n_list, reps, seed=SeedSpec(master, r))
        for row, (_, t, tau) in zip(rows, first_arrival_batch(n_list, reps, SeedSpec(master, r), want_m=False)):
            want = SampleStats.from_samples(t)
            assert (row.mean_T, row.stderr_T, row.tau_star_mean) == (want.mean, want.stderr, float(tau.mean()))
        assert trials_ratio_sweep([300], reps, seed=master) == trials_ratio_sweep(
            [300], reps, seed=SeedSpec(master, 0)
        )

    def test_small_n_mean_matches_chain(self):
        row = trials_ratio_sweep([6], 30_000, seed=95, threads=2)[0]
        want = float(expected_T_exact(6))
        assert abs(row.mean_T - want) <= 4 * row.stderr_T


class TestFastKernelLaw:
    def test_fast_t_matches_event_level(self, monkeypatch):
        # the first-arrival kernel must reproduce the event-level law of T on
        # each tau* path (the scan forced by _SCAN_SITES = 1)
        n, reps = 6, 25_000
        slow = collections.Counter(int(simulate_poissonized(n, rng=SeedSpec(96, i))[1].sum()) for i in range(reps))
        for sites in (1, n):
            monkeypatch.setattr(finite, "_SCAN_SITES", sites)
            fast = first_arrival_batch([n], reps, seed=97, want_m=False)[0][1]
            _, _, p = chi_square_two_sample(dict(slow), dict(collections.Counter(fast.tolist())))
            assert p > 0.001, sites


def _mark_field(kind: str, values: list) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if kind == "tied":
        return np.floor(v * 4.0)  # marks in {0, 1, 2, 3}: many ties
    if kind == "sawtooth":
        # every high slot sits between two lower ones and never holds a car,
        # so the scan must look past all of them (beyond its first batch)
        saw = np.empty(2 * v.size + 1)
        saw[0::2] = np.append(v, 0.5)
        saw[1::2] = v + 2.0
        return saw
    return v


class TestTauStar:
    @given(
        st.sampled_from(["float", "tied", "sawtooth"]),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=90),
    )
    @example("sawtooth", [i / 40 for i in range(40)])
    @settings(max_examples=300, deadline=None)
    def test_equals_classifier_max_car_mark(self, kind, values):
        xi = _mark_field(kind, values)
        slots = car_slots_from_occupancy(occupancy_profile(xi))
        assert tau_star(xi) == float(xi[slots].max())

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            tau_star(np.array([]))


def _kernel_ts(n: int, reps: int, seed: SeedSpec) -> np.ndarray:
    """T of `reps` replicas of n from the first-arrival kernel."""
    return first_arrival_batch([n], reps, seed, want_m=False)[0][1]


def _per_replica(kernel):
    """T samples from a one-replica kernel(n, rng), all drawn from one stream."""

    def ts(n: int, reps: int, seed: SeedSpec) -> list:
        rng = seed.generator()
        return [kernel(n, rng) for _ in range(reps)]

    return ts


def _without_first_arrivals(n: int, rng: np.random.Generator) -> int:
    """Planted fault: drops the #{xi_s <= tau*} term."""
    xi = rng.standard_exponential(n - 1)
    return int(rng.poisson(np.sum(np.maximum(tau_star(xi) - xi, 0.0))))


def _second_largest_car_mark(n: int, rng: np.random.Generator) -> int:
    """Planted fault: takes tau* as the second-largest car mark."""
    xi = rng.standard_exponential(n - 1)
    marks = np.sort(xi[car_slots_from_occupancy(occupancy_profile(xi))])
    tau = marks[-2] if marks.size > 1 else marks[-1]
    return int(np.count_nonzero(xi <= tau) + rng.poisson(np.sum(np.maximum(tau - xi, 0.0))))


def _chain_mean_misses(samples, reps: int = 3000, seed: int = 98) -> list:
    """Sizes n in 2..CHAIN_CAP where the mean of samples(n, reps, spec) is
    more than 4 stderr from the absorbing chain's exact E[T_n]."""
    misses = []
    for n in range(2, CHAIN_CAP + 1):
        st_ = SampleStats.from_samples(samples(n, reps, SeedSpec(seed, n)))
        if abs(st_.mean - float(expected_T_exact(n))) > 4.0 * st_.stderr:
            misses.append(n)
    return misses


class TestFastKernelChainMean:
    def test_mean_t_matches_chain_for_every_small_n(self):
        assert _chain_mean_misses(_kernel_ts) == []

    @pytest.mark.parametrize("kernel", [_without_first_arrivals, _second_largest_car_mark])
    def test_planted_faults_fail(self, kernel):
        assert _chain_mean_misses(_per_replica(kernel)) != []

