"""Poissonized trial counting: tau*, total draws, and the coupon ceiling."""
import collections
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pagepark import (
    SampleStats,
    SeedSpec,
    coupon_collector_mean_exact,
    expected_T_exact,
    first_arrival_batch,
    simulate_poissonized,
    trials_ratio_sweep,
)
from pagepark import finite
from pagepark.oracle import distribution_T_exact
from pagepark.stats import law_matches
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
        # the simulator samples it (exponential marks from the uniform stream);
        # the simulator parks with the oracle's replay, the car slots here
        # come from the kernel's car mask
        xi = -np.log1p(-SeedSpec(6).generator().random(39))
        slots = np.flatnonzero(np.logical_and(*finite._run_parities(xi)))
        _, counts = simulate_poissonized(40, rng=SeedSpec(6))
        assert np.all(counts[slots] >= 1)

    def test_tau_star_is_max_car_mark(self):
        # the replica's tau* (from the oracle's replay) against the kernel's
        # parity pass and tau_star_rows, on the same field
        xi = -np.log1p(-SeedSpec(7).generator().random(99))
        car = np.logical_and(*finite._run_parities(xi))
        assert simulate_poissonized(100, rng=SeedSpec(7))[0] == float(finite.tau_star_rows(xi, car))

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
        row = trials_ratio_sweep([10_000], 300, seed=90)[0]
        qs = list(row.tau_star_quantiles)
        assert qs == sorted(qs)
        logn = math.log(10_000)
        # tau* concentrates near log n - 2 with Gumbel fluctuations
        assert 0.6 * logn < row.tau_star_mean < 1.1 * logn
        assert qs[0] > 0.55 * logn
        # the row reads the kernel's own tau* draws
        taus = first_arrival_batch([10_000], 300, 90)[0][1]
        assert row.tau_star_mean == float(taus.mean())
        np.testing.assert_allclose(qs, np.quantile(taus, TAU_STAR_LEVELS), rtol=1e-14)

    def test_deterministic(self):
        a = trials_ratio_sweep([1000], 50, seed=91)
        b = trials_ratio_sweep([1000], 50, seed=91)
        assert a == b


class TestCouponCollector:
    def test_exact_small(self):
        assert coupon_collector_mean_exact(1) == 1.0
        assert coupon_collector_mean_exact(2) == 3.0
        assert coupon_collector_mean_exact(3) == 5.5

    def test_equals_rounded_exact_sum(self):
        # k H_k from an exact running sum, rounded once, for every k up to
        # 3000: below 20 the function sums Fractions too, from 20 on it
        # evaluates the Euler-Maclaurin series, whose largest error here is
        # 0 ulp (k times an np.sum of the reciprocals is up to 2 ulp off)
        h, wrong = Fraction(0), []
        for k in range(1, 3001):
            h += Fraction(1, k)
            if coupon_collector_mean_exact(k) != float(k * h):
                wrong.append(k)
        assert wrong == []

    @pytest.mark.parametrize("k", [10**5, 10**6])
    def test_within_one_ulp_of_fsum(self, k):
        # math.fsum of the rounded reciprocals is itself 1 ulp off k H_k at
        # 10^6 (a 45-digit sum agrees with the function there)
        want = k * math.fsum(np.reciprocal(np.arange(1.0, k + 1)).tolist())
        assert abs(coupon_collector_mean_exact(k) - want) <= math.ulp(want)

    def test_constant_memory(self):
        # O(1) memory: an array of the k reciprocals would peak at 8k bytes
        tracemalloc.start()
        try:
            coupon_collector_mean_exact(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_exact_k100(self):
        h100 = sum(1.0 / j for j in range(1, 101))
        assert coupon_collector_mean_exact(100) == pytest.approx(100 * h100)

    def test_validation(self):
        with pytest.raises(ValueError):
            coupon_collector_mean_exact(0)


class TestRatioSweep:
    def test_rows_consistent(self):
        rows = trials_ratio_sweep([500, 2000], 60, seed=93)
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

    def test_rows_do_not_depend_on_each_other(self):
        # each row has its own stream: the row of 1000 sites (3 chunks) is
        # the same after a row of one chunk (6 sites) or of five (2000 sites)
        want = trials_ratio_sweep([6, 1000], 40, seed=95)[1]
        assert trials_ratio_sweep([2000, 1000], 40, seed=95)[1] == want

    def test_seedspec_seed_starts_stream_indices(self):
        # the sweep is one first_arrival_batch call over all its rows, so row
        # i draws from stream (m, (r, i)); test_finite rebuilds those streams
        # by hand. A row on each side of
        # the band crossover; an int seed m is SeedSpec(m, 0)
        master, r, reps = 94, 7, 20
        n_list = [300, finite._BAND_SITES + 1]
        rows = trials_ratio_sweep(n_list, reps, seed=SeedSpec(master, r))
        for row, (t, tau) in zip(rows, first_arrival_batch(n_list, reps, SeedSpec(master, r))):
            want = SampleStats.from_samples(t)
            assert (row.mean_T, row.stderr_T, row.tau_star_mean) == (want.mean, want.stderr, float(tau.mean()))
        assert trials_ratio_sweep([300], reps, seed=master) == trials_ratio_sweep(
            [300], reps, seed=SeedSpec(master, 0)
        )

    def test_peak_memory_does_not_grow_with_n(self):
        # both rows take the band path, whose memory does not depend on n,
        # and the coupon mean takes O(1) memory (an array of the n - 1
        # reciprocals would peak 14 MiB higher at 10^6 than at 10^5)
        peaks = []
        for n in (10**5, 10**6):
            tracemalloc.start()
            try:
                trials_ratio_sweep([n], 2, seed=92)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20

    def test_small_n_mean_matches_chain(self):
        row = trials_ratio_sweep([6], 30_000, seed=95)[0]
        want = float(expected_T_exact(6))
        assert abs(row.mean_T - want) <= 4 * row.stderr_T


class TestFastKernelLaw:
    def test_fast_t_matches_event_level(self, monkeypatch):
        # the first-arrival kernel's T on each path (the band path forced by
        # _BAND_SITES = 1) against the chain's exact law of T_6, values at or
        # above its last key counted there. Criterion 09 checks the
        # event-level simulate_poissonized against the same law
        n, reps = 6, 25_000
        law = distribution_T_exact(n)
        for sites in (1, n):
            monkeypatch.setattr(finite, "_BAND_SITES", sites)
            fast = first_arrival_batch([n], reps, seed=97)[0][0]
            ok, detail = law_matches(collections.Counter(np.minimum(fast, max(law)).tolist()), law)
            assert ok, (sites, detail)
