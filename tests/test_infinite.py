"""Infinite-line sampling: window construction, run laws, and estimators.

Run-length facts used below (continuous i.i.d. marks, ties null):
P(descent >= j) = P(xi_0 > ... > xi_{j-1}) = 1/j!, so P(descent even) = 1/e,
and by independence of the two sides P(site vacant) = e^-2.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagepark import (
    EXP,
    UNIFORM,
    RareEventCapError,
    SeedSpec,
    autocovariance_mc,
    chi_square_two_sample,
    density_at_time_mc,
    density_curve_closed_form,
    limit_constants,
    odd_descent_prob_closed_form,
    odd_descent_time_prob_mc,
    sample_runs,
    sample_site_infinite,
    vacancy_mc,
)
from pagepark import infinite
from pagepark.cli import _decorrelation_check, _lag0_check, _no_vacant_pair_check
from pagepark.infinite import _CHUNK, WINDOW_CAP, _LazyLine, _occupancy_pair_chunk, _runs_chunk
from pagepark.stats import wilson_interval


class TestWindowSampler:
    def test_deterministic(self):
        a = sample_site_infinite(rng=SeedSpec(3))
        b = sample_site_infinite(rng=SeedSpec(3))
        np.testing.assert_array_equal(a.xi_window.values, b.xi_window.values)
        assert a.tau_0 == b.tau_0

    @pytest.mark.parametrize("seed", range(40))
    def test_window_invariants(self, seed):
        w = sample_site_infinite(rng=SeedSpec(1000 + seed))
        win = w.xi_window
        # window spans [m-1, m'+1] around the bracketing local minima
        assert win.first_index == w.left_min_index - 1
        assert win.last_index == w.right_min_index + 1
        assert w.rise_length >= 1 and w.descent_length >= 1

        # left minimum: the mark just outside exceeds it, the run ascends to slot -1
        m = w.left_min_index
        assert win.value_at(m - 1) > win.value_at(m)
        for j in range(m, -1):
            assert win.value_at(j) <= win.value_at(j + 1)

        # right run descends from slot 0 to the minimum, then steps up
        mp = w.right_min_index
        for j in range(0, mp):
            assert win.value_at(j) > win.value_at(j + 1)
        assert win.value_at(mp) <= win.value_at(mp + 1)

    @pytest.mark.parametrize("seed", range(40))
    def test_occupancy_and_tau_rules(self, seed):
        w = sample_site_infinite(rng=SeedSpec(2000 + seed))
        rise_odd = w.rise_length % 2 == 1
        desc_odd = w.descent_length % 2 == 1
        assert w.occupancy_at_0 == (rise_odd or desc_odd)
        xi_l = w.xi_window.value_at(-1)
        xi_r = w.xi_window.value_at(0)
        if rise_odd and desc_odd:
            assert w.tau_0 == min(xi_l, xi_r)
        elif rise_odd:
            assert w.tau_0 == xi_l
        elif desc_odd:
            assert w.tau_0 == xi_r
        else:
            assert math.isinf(w.tau_0)

    def test_cap_triggers_loudly(self):
        with pytest.raises(RareEventCapError):
            sample_site_infinite(rng=SeedSpec(0), cap=0)


class TestRunLaws:
    def test_scalar_and_batch_agree_in_law(self):
        # rise/descent joint parity from the scalar sampler vs the batch kernel
        scalar = [sample_site_infinite(rng=SeedSpec(50, i)) for i in range(4000)]
        runs = sample_runs(4000, seed=51)
        a = {}
        b = {}
        for w in scalar:
            key = (min(w.rise_length, 4), min(w.descent_length, 4))
            a[key] = a.get(key, 0) + 1
        for r, d in zip(runs.rise, runs.descent):
            key = (min(int(r), 4), min(int(d), 4))
            b[key] = b.get(key, 0) + 1
        flat_a = {i: a.get(k, 0) for i, k in enumerate(sorted(set(a) | set(b)))}
        flat_b = {i: b.get(k, 0) for i, k in enumerate(sorted(set(a) | set(b)))}
        _, _, p = chi_square_two_sample(flat_a, flat_b)
        assert p > 0.001

    def test_run_length_marginals(self):
        runs = sample_runs(200_000, seed=60)
        n = runs.replicas
        for j in (1, 2, 3):
            for lengths in (runs.descent, runs.rise):
                got = float((lengths == j).mean())
                want = 1.0 / math.factorial(j) - 1.0 / math.factorial(j + 1)
                sigma = math.sqrt(want * (1 - want) / n)
                assert abs(got - want) <= 5 * sigma

    def test_tail_bound(self):
        runs = sample_runs(200_000, seed=61)
        # P(descent >= 4) = 1/24; allow 5 sigma above
        for lengths in (runs.descent, runs.rise):
            got = float((lengths >= 4).mean())
            want = 1.0 / 24.0
            assert got <= want + 5 * math.sqrt(want * (1 - want) / runs.replicas)

    def test_sides_independent_even_parity(self):
        runs = sample_runs(400_000, seed=62)
        rise_even = runs.rise % 2 == 0
        desc_even = runs.descent % 2 == 0
        p_joint = float((rise_even & desc_even).mean())
        p_prod = float(rise_even.mean()) * float(desc_even.mean())
        # each factor is ~1/e; independence makes the joint the product
        assert abs(p_joint - p_prod) <= 5e-3
        assert abs(float(rise_even.mean()) - math.exp(-1)) <= 5e-3
        assert abs(float(desc_even.mean()) - math.exp(-1)) <= 5e-3

    def test_dist_kind_rank_coupling(self):
        # exp and uniform marks share the uniform stream, so run lengths match
        a = sample_runs(50_000, seed=63, dist=EXP)
        b = sample_runs(50_000, seed=63, dist=UNIFORM)
        np.testing.assert_array_equal(a.rise, b.rise)
        np.testing.assert_array_equal(a.descent, b.descent)

    def test_threads_do_not_change_output(self):
        a = sample_runs(70_000, seed=64, threads=1)
        b = sample_runs(70_000, seed=64, threads=4)
        np.testing.assert_array_equal(a.descent, b.descent)
        np.testing.assert_array_equal(a.xi_left, b.xi_left)

    def test_chunks_are_spawn_key_streams(self):
        # chunk c of a sweep seeded SeedSpec(m, r) is stream SeedSequence(m, (r, c))
        master, r = 66, 5
        runs = sample_runs(_CHUNK + 100, seed=SeedSpec(master, r))
        parts = [
            _runs_chunk(size, np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(master, spawn_key=(r, c)))),
                        EXP, 10_000)
            for c, size in enumerate((_CHUNK, 100))
        ]
        np.testing.assert_array_equal(runs.rise, np.concatenate([p.rise for p in parts]))
        np.testing.assert_array_equal(runs.descent, np.concatenate([p.descent for p in parts]))
        np.testing.assert_array_equal(runs.xi_left, np.concatenate([p.xi_left for p in parts]))
        np.testing.assert_array_equal(runs.xi_right, np.concatenate([p.xi_right for p in parts]))

    def test_batch_cap_triggers(self):
        with pytest.raises(RareEventCapError):
            sample_runs(10_000, seed=65, cap=1)


class TestEstimators:
    def test_vacancy_near_limit(self):
        est = vacancy_mc(300_000, seed=70)
        assert est.within(limit_constants()["vacancy"], k_sigma=4.0)

    def test_tau_vacant_iff_infinite(self):
        runs = sample_runs(20_000, seed=71)
        tau = runs.tau()
        np.testing.assert_array_equal(np.isinf(tau), runs.vacant)
        assert float(np.isinf(tau).mean()) == pytest.approx(math.exp(-2), abs=0.01)

    def test_density_curve_monotone_and_correct(self):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        est = density_at_time_mc(grid, 100_000, seed=72)
        closed = density_curve_closed_form(grid)
        values = [e.estimate for e in est]
        assert values == sorted(values)  # shared batch forces monotonicity
        for e, c in zip(est, closed):
            assert abs(e.estimate - c) <= 4 * e.stderr

    def test_odd_descent_prob_curve(self):
        grid = [0.3, 1.0, 3.0]
        est = odd_descent_time_prob_mc(grid, 100_000, seed=73)
        closed = odd_descent_prob_closed_form(grid)
        for e, c in zip(est, closed):
            assert abs(e.estimate - c) <= 4 * e.stderr

    def test_replica_index_selects_the_stream(self):
        # SeedSpec(m, 71) and SeedSpec(m, 72) are independent batches
        a = density_at_time_mc([1.0], 20_000, seed=SeedSpec(42424242, 71))[0]
        b = density_at_time_mc([1.0], 20_000, seed=SeedSpec(42424242, 72))[0]
        assert a.estimate != b.estimate

    def test_uniform_kind_curve(self):
        est = density_at_time_mc([0.4], 100_000, seed=74, dist=UNIFORM)[0]
        closed = float(density_curve_closed_form([0.4], dist=UNIFORM)[0])
        assert abs(est.estimate - closed) <= 4 * est.stderr


class TestAutocovariance:
    def test_lag0_is_variance(self):
        est = autocovariance_mc(0, 150_000, seed=80)
        vac = limit_constants()["vacancy"]
        var = vac * (1 - vac)
        assert abs(est.estimate - var) <= 5 * est.stderr
        assert est.mean_site_0 == est.mean_site_k

    def test_lag1_negative(self):
        # a car covering site 0 extends to a neighbour, so adjacent
        # occupancies anti-correlate
        est = autocovariance_mc(1, 150_000, seed=81)
        assert est.estimate < 0
        assert est.estimate + 5 * est.stderr < 0

    def test_large_lag_decorrelates(self):
        est = autocovariance_mc(40, 120_000, seed=82)
        assert abs(est.estimate) <= 5 * est.stderr

    def test_marginals_near_density(self):
        est = autocovariance_mc(3, 150_000, seed=83)
        rho = limit_constants()["jamming_density"]
        assert est.mean_site_0 == pytest.approx(rho, abs=0.01)
        assert est.mean_site_k == pytest.approx(rho, abs=0.01)

    def test_reflection_invariance(self):
        a = autocovariance_mc(2, 100_000, seed=84)
        b = autocovariance_mc(2, 100_000, seed=84, reflected=True)
        assert abs(a.estimate - b.estimate) <= 5 * (a.stderr + b.stderr)

    def test_each_lag_draws_its_own_marks(self):
        # the CLI seeds lag idx with SeedSpec(seed, idx); equal lags on two
        # replica indices must see different strips
        a = autocovariance_mc(1, 20_000, seed=SeedSpec(86, 0))
        b = autocovariance_mc(1, 20_000, seed=SeedSpec(86, 1))
        assert (a.estimate, a.mean_site_0) != (b.estimate, b.mean_site_0)

    def test_threads_identical(self):
        a = autocovariance_mc(2, 40_000, seed=85, threads=1)
        b = autocovariance_mc(2, 40_000, seed=85, threads=3)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            autocovariance_mc(-1, 100)
        with pytest.raises(ValueError):
            autocovariance_mc(0, 1)


def _strip_failures(est) -> list[str]:
    """The exact checks an estimate must pass at lags 0, 1, 2 and 4, by name:
    cov(0) = e^-2 (1 - e^-2), and two vacant sites are never 1, 2 or 4 apart,
    so there cov(k) = -e^-4 exactly."""
    vac = math.exp(-2.0)
    failed = []
    lo, hi = wilson_interval(est.mean_site_0, est.replicas, 4.0)
    if not lo <= 1.0 - vac <= hi:
        failed.append("mean_site_0")
    if est.k == 0 and not _lag0_check(est, vac * (1.0 - vac))[0]:
        failed.append("lag0")
    if est.k in (1, 2, 4):
        if not _no_vacant_pair_check(est)[0]:
            failed.append("no_vacant_pair")
        if not _decorrelation_check(est, cov=-vac * vac)[0]:
            failed.append("cov")
    return failed


class _IntegerMarks:
    """A stand-in generator whose marks are integers below `levels`, so that
    equal marks are common and the tie rule decides most runs."""

    def __init__(self, seed: int, levels: int) -> None:
        self.rng, self.levels = np.random.Generator(np.random.PCG64DXSM(seed)), levels

    def random(self, shape):
        return self.rng.integers(0, self.levels, shape).astype(np.float64)


def _pair_reference(rng, size, k, w, reflect):
    """What _occupancy_pair_chunk must return, replica by replica, when its
    generator `rng` has the same state: the strip is drawn transposed, and each
    replica's sites 0 and k are classified on one lazy line that continues on
    `rng`, in replica order, exactly as the kernel's fallback does."""
    strips = rng.random((k + 2 * w + 1, size))
    if reflect:
        strips = strips[::-1]
    occ0, occk, outgrown = [], [], []
    for row in range(size):
        line = _LazyLine(rng, UNIFORM, strips[:, row], -w)
        runs = [line.runs(site, WINDOW_CAP) for site in (0, k)]
        occ0.append(bool(runs[0][0] % 2 or runs[0][1] % 2))
        occk.append(bool(runs[1][0] % 2 or runs[1][1] % 2))
        outgrown.append(any(rise >= w or desc > w for rise, desc in runs))  # w - 1 rise, w descent stops
    return np.array(occ0), np.array(occk), np.array(outgrown)


def _runs_reference(rng, size, w):
    """Rise and descent lengths _runs_chunk must return for a generator in the
    same state (see _pair_reference), and the count of replicas whose runs
    outgrow the window."""
    strips = rng.random((2 * w + 1, size))
    runs = np.array([_LazyLine(rng, UNIFORM, strips[:, row], -w).runs(0, WINDOW_CAP) for row in range(size)])
    return runs[:, 0], runs[:, 1], int(np.count_nonzero((runs[:, 0] >= w) | (runs[:, 1] > w)))


class TestStripKernel:
    """The strip classifier of both estimators against the lazy line, replica
    by replica, and the law when almost every row takes the exact fallback."""

    @pytest.mark.parametrize("buffer", [0, 1, infinite._STRIP_BUFFER])
    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 13])
    def test_windows_match_lazy_line(self, monkeypatch, buffer, reflect, k):
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", buffer)
        size, w = 1000, buffer + 2
        got = _occupancy_pair_chunk(size, np.random.Generator(np.random.PCG64DXSM(90 + k)), k, WINDOW_CAP, reflect)
        want = _pair_reference(np.random.Generator(np.random.PCG64DXSM(90 + k)), size, k, w, reflect)
        for g, x in zip(got, want):
            np.testing.assert_array_equal(g, x)

    @pytest.mark.parametrize("buffer", [0, 1, infinite._STRIP_BUFFER])
    @pytest.mark.parametrize("dist", [EXP, UNIFORM], ids=["exp", "uniform"])
    def test_runs_chunk_matches_lazy_line(self, monkeypatch, buffer, dist):
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", buffer)
        size, w = 3000, buffer + 2
        got = _runs_chunk(size, np.random.Generator(np.random.PCG64DXSM(91)), dist, WINDOW_CAP)
        rise, desc, outgrown = _runs_reference(np.random.Generator(np.random.PCG64DXSM(91)), size, w)
        np.testing.assert_array_equal(got.rise, rise)
        np.testing.assert_array_equal(got.descent, desc)
        assert got.fallback_rows == outgrown
        assert outgrown > 0 or buffer > 1  # narrow windows exercise the fallback
        # only the two centre marks pass through the quantile transform
        strips = np.random.Generator(np.random.PCG64DXSM(91)).random((2 * w + 1, size))
        np.testing.assert_array_equal(got.xi_left, dist.ppf(strips[w - 1]))
        np.testing.assert_array_equal(got.xi_right, dist.ppf(strips[w]))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 6), st.integers(0, 2), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_tied_integer_marks(self, seed, levels, k, buffer, reflect):
        w = buffer + 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(infinite, "_STRIP_BUFFER", buffer)
            got = _occupancy_pair_chunk(64, _IntegerMarks(seed, levels), k, WINDOW_CAP, reflect)
            runs = _runs_chunk(64, _IntegerMarks(seed, levels), UNIFORM, WINDOW_CAP)
        for g, x in zip(got, _pair_reference(_IntegerMarks(seed, levels), 64, k, w, reflect)):
            np.testing.assert_array_equal(g, x)
        rise, desc, outgrown = _runs_reference(_IntegerMarks(seed, levels), 64, w)
        np.testing.assert_array_equal(runs.rise, rise)
        np.testing.assert_array_equal(runs.descent, desc)
        assert runs.fallback_rows == outgrown

    def test_window_wider_than_a_byte_is_refused(self, monkeypatch):
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", 7)  # w = 9 descent stops
        with pytest.raises(ValueError):
            _runs_chunk(10, np.random.Generator(np.random.PCG64DXSM(0)), EXP, WINDOW_CAP)
        with pytest.raises(ValueError):
            _occupancy_pair_chunk(10, np.random.Generator(np.random.PCG64DXSM(0)), 3, WINDOW_CAP, False)

    @pytest.mark.parametrize("seed", range(5))
    def test_cap_binds_inside_the_window(self, seed):
        # any run longer than the cap raises, whether or not its row took the fallback
        with pytest.raises(RareEventCapError):
            autocovariance_mc(3, 2000, seed=seed, cap=1)
        with pytest.raises(RareEventCapError):
            sample_runs(2000, seed=seed, cap=1)

    def test_fallback_rows_keep_the_law(self, monkeypatch):
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", 0)
        for k in (0, 1, 2, 4):
            est = autocovariance_mc(k, 20_000, seed=SeedSpec(87, k))
            assert est.fallback_rows > est.replicas / 2
            assert _strip_failures(est) == []

    def test_truncated_fallback_fails(self, monkeypatch):
        # a fallback that stops at the strip edge and calls both sites occupied
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", 0)
        monkeypatch.setattr(infinite, "_scalar_occupancy_pair", lambda *args: (True, True))
        for k in (0, 1, 2, 4):
            assert _strip_failures(autocovariance_mc(k, 20_000, seed=SeedSpec(87, k)))

    def test_fallback_count_is_thread_independent(self, monkeypatch):
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", 1)
        a = autocovariance_mc(3, 40_000, seed=88, threads=1)
        b = autocovariance_mc(3, 40_000, seed=88, threads=3)
        assert a == b and a.fallback_rows > 0
        runs = [sample_runs(_CHUNK + 5000, seed=88, threads=t).fallback_rows for t in (1, 3)]
        assert runs[0] == runs[1] > 0
