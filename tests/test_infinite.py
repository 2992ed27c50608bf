"""Infinite-line sampling: window construction, run laws, and estimators.

Run-length facts used below (continuous i.i.d. marks, ties null):
P(descent >= j) = P(xi_0 > ... > xi_{j-1}) = 1/j!, so P(descent even) = 1/e,
and by independence of the two sides P(site vacant) = e^-2.
"""
import math
import tracemalloc

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
    density_curve_closed_form,
    limit_constants,
    odd_descent_prob_closed_form,
    proportion_estimate,
    sample_runs,
    sample_site_infinite,
)
from pagepark import core, infinite
from pagepark.cli import _decorrelation_check, _lag0_check, _no_vacant_pair_check
from pagepark.infinite import (
    _AUTOCOV_CHUNK, _CHUNK, _FIRST_STOP, WINDOW_CAP, _LazyLine, _occupancy_pair_chunk, _runs_chunk, _strip_runs,
)
from pagepark.stats import wilson_interval


def _tau_rule(rise, descent, xi_left, xi_right) -> float:
    """tau_0 of one replica, branch by branch as the module docstring states it."""
    if rise % 2 == 1 and descent % 2 == 1:
        return min(xi_left, xi_right)
    if rise % 2 == 1:
        return xi_left
    if descent % 2 == 1:
        return xi_right
    return math.inf


class TestWindowSampler:
    def test_deterministic(self):
        a = sample_site_infinite(rng=SeedSpec(3))
        b = sample_site_infinite(rng=SeedSpec(3))
        np.testing.assert_array_equal(a.xi_window, b.xi_window)
        assert a.tau_0 == b.tau_0

    @pytest.mark.parametrize("seed", range(40))
    def test_window_invariants(self, seed):
        w = sample_site_infinite(rng=SeedSpec(1000 + seed))
        m, mp = w.left_min_index, w.right_min_index
        # window spans slots m-1 .. m'+1 around the bracketing local minima
        assert w.xi_window.dtype == np.float64
        assert w.xi_window.shape == (mp - m + 3,)
        assert w.rise_length >= 1 and w.descent_length >= 1

        def at(j):
            return w.xi_window[j - m + 1]

        # left minimum: the mark just outside exceeds it, the run ascends to slot -1
        assert at(m - 1) > at(m)
        for j in range(m, -1):
            assert at(j) <= at(j + 1)

        # right run descends from slot 0 to the minimum, then steps up
        for j in range(0, mp):
            assert at(j) > at(j + 1)
        assert at(mp) <= at(mp + 1)

    @pytest.mark.parametrize("seed", range(40))
    def test_occupancy_and_tau_rules(self, seed):
        w = sample_site_infinite(rng=SeedSpec(2000 + seed))
        rise_odd = w.rise_length % 2 == 1
        desc_odd = w.descent_length % 2 == 1
        assert w.occupancy_at_0 == (rise_odd or desc_odd)
        xi_l = w.xi_window[w.rise_length]  # slot -1
        xi_r = w.xi_window[w.rise_length + 1]  # slot 0
        assert w.tau_0 == _tau_rule(w.rise_length, w.descent_length, xi_l, xi_r)

    def test_batch_tau_agrees_in_law(self):
        # tau_0 of the lazy-line sampler and of the strip kernel, binned on a
        # time grid with the vacant sites (tau_0 = inf) as the last bin
        edges = [0.25, 0.5, 1.0, 2.0, math.inf]
        scalar = [sample_site_infinite(rng=SeedSpec(52, i)).tau_0 for i in range(4000)]
        batch = sample_runs(4000, seed=53).tau
        bins = [
            np.bincount(np.searchsorted(edges, tau, side="right"), minlength=len(edges) + 1) for tau in (scalar, batch)
        ]
        _, _, p = chi_square_two_sample(*(dict(enumerate(map(int, b))) for b in bins))
        assert p > 0.001

    def test_cap_triggers_loudly(self, monkeypatch):
        monkeypatch.setattr(infinite, "WINDOW_CAP", 0)
        with pytest.raises(RareEventCapError):
            sample_site_infinite(rng=SeedSpec(0))


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
        np.testing.assert_array_equal(a.tau, b.tau)

    def test_chunks_are_spawn_key_streams(self):
        # chunk c of a sweep seeded SeedSpec(m, r) is stream SeedSequence(m, (r, c))
        master, r = 66, 5
        runs = sample_runs(_CHUNK + 100, seed=SeedSpec(master, r))
        parts = [
            _runs_chunk(size, np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(master, spawn_key=(r, c)))),
                        EXP)
            for c, size in enumerate((_CHUNK, 100))
        ]
        np.testing.assert_array_equal(runs.rise, np.concatenate([p.rise for p in parts]))
        np.testing.assert_array_equal(runs.descent, np.concatenate([p.descent for p in parts]))
        np.testing.assert_array_equal(runs.tau, np.concatenate([p.tau for p in parts]))
        np.testing.assert_array_equal(runs.xi_right, np.concatenate([p.xi_right for p in parts]))

    def test_peak_memory_is_the_result_and_a_few_chunks(self):
        # each chunk is copied into the preallocated result as it arrives; a
        # sampler that holds every chunk until the end (then concatenates)
        # peaks near twice the result and fails this bound
        strip_bytes = (2 * (infinite._STRIP_BUFFER + 2) + 1) * _CHUNK * 8
        tracemalloc.start()
        try:
            runs = sample_runs(48 * _CHUNK, seed=3, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = sum(a.nbytes for a in (runs.rise, runs.descent, runs.tau, runs.xi_right))
        assert peak <= result + 4 * strip_bytes

    def test_batch_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(infinite, "WINDOW_CAP", 1)
        with pytest.raises(RareEventCapError):
            sample_runs(10_000, seed=65)

    def test_run_lengths_fit_their_dtype(self):
        # run lengths are stored in _FIRST_STOP's dtype; the cap raises before one overflows it
        assert np.iinfo(_FIRST_STOP.dtype).max >= WINDOW_CAP


class TestEstimators:
    def test_vacancy_near_limit(self):
        runs = sample_runs(300_000, seed=70)
        est = proportion_estimate(int(runs.vacant.sum()), runs.replicas)
        assert abs(est.estimate - limit_constants()["vacancy"]) <= 4.0 * est.stderr

    def test_tau_vacant_iff_infinite(self):
        runs = sample_runs(20_000, seed=71)
        tau = runs.tau
        np.testing.assert_array_equal(np.isinf(tau), runs.vacant)
        assert float(np.isinf(tau).mean()) == pytest.approx(math.exp(-2), abs=0.01)

    def test_density_curve_monotone_and_correct(self):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        est = sample_runs(100_000, seed=72).density_at_time(grid)
        closed = density_curve_closed_form(grid)
        values = [e.estimate for e in est]
        assert values == sorted(values)  # shared batch forces monotonicity
        for e, c in zip(est, closed):
            assert abs(e.estimate - c) <= 4 * e.stderr

    def test_odd_descent_prob_curve(self):
        grid = [0.3, 1.0, 3.0]
        est = sample_runs(100_000, seed=73).odd_descent_time_prob(grid)
        closed = odd_descent_prob_closed_form(grid)
        for e, c in zip(est, closed):
            assert abs(e.estimate - c) <= 4 * e.stderr

    def test_replica_index_selects_the_stream(self):
        # SeedSpec(m, 71) and SeedSpec(m, 72) are independent batches
        a = sample_runs(20_000, seed=SeedSpec(42424242, 71)).density_at_time([1.0])[0]
        b = sample_runs(20_000, seed=SeedSpec(42424242, 72)).density_at_time([1.0])[0]
        assert a.estimate != b.estimate

    def test_uniform_kind_curve(self):
        est = sample_runs(100_000, seed=74, dist=UNIFORM).density_at_time([0.4])[0]
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

    def test_reflection_invariance(self, monkeypatch):
        a = autocovariance_mc(2, 100_000, seed=84)
        stream = core._stream
        monkeypatch.setattr(core, "_stream", lambda seq: _Reflected(stream(seq)))
        b = autocovariance_mc(2, 100_000, seed=84)
        assert (a.estimate, a.mean_site_0) != (b.estimate, b.mean_site_0)  # the mirrored strips were classified
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

    @pytest.mark.parametrize("k", [0, 1, 3, 13])
    def test_table_matches_two_pass(self, k):
        # the summed 2x2 tables give what the product column of the same
        # occupancies gives, over several chunks and a partial one
        replicas, seed = 3 * _AUTOCOV_CHUNK + 123, SeedSpec(89, k)
        est = autocovariance_mc(k, replicas, seed=seed, threads=2)
        assert _two_pass_disagreements(est, *_chunk_occupancies(k, replicas, seed)) == []

    def test_swapped_table_cells_fail(self, monkeypatch):
        # a table with n01 and n10 exchanged swaps the two sites' means
        table_estimate = infinite._autocov_estimate
        monkeypatch.setattr(infinite, "_autocov_estimate",
                            lambda k, t, rows: table_estimate(k, (t[0], t[2], t[1], t[3]), rows))
        replicas, seed = 3 * _AUTOCOV_CHUNK + 123, SeedSpec(89, 3)
        est = autocovariance_mc(3, replicas, seed=seed)
        assert _two_pass_disagreements(est, *_chunk_occupancies(3, replicas, seed)) == ["mean_site_0", "mean_site_k"]

    def test_validation(self):
        with pytest.raises(ValueError):
            autocovariance_mc(-1, 100)
        with pytest.raises(ValueError):
            autocovariance_mc(0, 1)


def _chunk_occupancies(k, replicas, seed):
    """X(0) and X(k) of every pair autocovariance_mc(k, replicas, seed)
    draws, chunk by chunk on its streams, as 0/1 floats."""
    def chunk(size, rng):
        _, runs, _ = _strip_runs(size, rng, (0, k) if k else (0,))
        return [(rise % 2 == 1) | (descent % 2 == 1) for rise, descent in runs]

    parts = list(core.map_streams(chunk, seed, core.chunk_sizes(replicas, _AUTOCOV_CHUNK)))
    return np.concatenate([p[0] for p in parts]).astype(float), np.concatenate([p[-1] for p in parts]).astype(float)


def _two_pass_disagreements(est, x, y) -> list[str]:
    """The fields of est that differ from the two-pass sample covariance of
    the 0/1 arrays x and y (its product column's sum and standard deviation):
    the counts and means exactly, estimate and stderr beyond 1e-12 relative."""
    prod = (x - x.mean()) * (y - y.mean())
    exact = {"mean_site_0": x.mean(), "mean_site_k": y.mean(), "replicas": x.size,
             "both_vacant": int(np.count_nonzero((x == 0) & (y == 0)))}
    close = {"estimate": prod.sum() / (x.size - 1), "stderr": prod.std(ddof=1) / math.sqrt(x.size)}
    return [name for name, want in exact.items() if getattr(est, name) != want] + [
        name for name, want in close.items() if getattr(est, name) != pytest.approx(want, rel=1e-12, abs=0.0)
    ]


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


def _vacancy_agrees(runs) -> bool:
    """e^-2 lies in the 4-sigma Wilson interval of the vacant fraction."""
    lo, hi = wilson_interval(float(runs.vacant.mean()), runs.replicas, 4.0)
    return lo <= math.exp(-2.0) <= hi


def _truncated_runs(line, site):
    """A faulty _LazyLine.runs that stops each run at the strip's edge instead
    of drawing fresh marks beyond it."""
    desc = 1
    while site + desc <= line.hi and not line(site + desc - 1) <= line(site + desc):
        desc += 1
    rise = 1
    while site - rise - 1 >= line.lo and line(site - rise - 1) <= line(site - rise):
        rise += 1
    return rise, desc


class _IntegerMarks:
    """A stand-in generator whose marks are integers below `levels`, so that
    equal marks are common and the tie rule decides most runs."""

    def __init__(self, seed: int, levels: int) -> None:
        self.rng, self.levels = np.random.Generator(np.random.PCG64DXSM(seed)), levels

    def random(self, shape):
        return self.rng.integers(0, self.levels, shape).astype(np.float64)


class _Reflected:
    """A stand-in generator that draws every strip mirrored: a strip over
    slots -w..k+w holds slot k - j where the kernel reads slot j, so the
    kernel classifies the reflected field."""

    def __init__(self, rng) -> None:
        self.rng = rng

    def random(self, shape):
        return self.rng.random(shape)[::-1]


def _strip_reference(rng, size, sites, w):
    """What _strip_runs must return, replica by replica, when its generator
    `rng` has the same state: the strip is drawn transposed, and each
    replica's sites are classified in order on one lazy line that continues
    on `rng`, in replica order, exactly as the kernel's fallback does."""
    strip = rng.random((sites[-1] + 2 * w + 1, size))
    runs = np.array([
        [line.runs(site) for site in sites]
        for line in (_LazyLine(rng, UNIFORM, strip[:, row], -w) for row in range(size))
    ]).reshape(size, len(sites), 2)
    outgrown = ((runs[..., 0] >= w) | (runs[..., 1] > w)).any(axis=1)  # w - 1 rise, w descent stops
    return strip, [(runs[:, i, 0], runs[:, i, 1]) for i in range(len(sites))], int(np.count_nonzero(outgrown))


def _assert_same_strip(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    assert len(got[1]) == len(want[1])
    for (rise, descent), (rise_ref, descent_ref) in zip(got[1], want[1]):
        np.testing.assert_array_equal(rise, rise_ref)
        np.testing.assert_array_equal(descent, descent_ref)
    assert got[2] == want[2]


class TestStripKernel:
    """The strip kernel of both estimators against the lazy line, replica by
    replica, and the law when almost every row takes the exact fallback."""

    @pytest.mark.parametrize("buffer", [0, 1, infinite._STRIP_BUFFER])
    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 13])
    def test_windows_match_lazy_line(self, monkeypatch, buffer, reflect, k):
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", buffer)
        size, sites = 1000, (0, k) if k else (0,)

        def rng():
            gen = np.random.Generator(np.random.PCG64DXSM(90 + k))
            return _Reflected(gen) if reflect else gen

        want = _strip_reference(rng(), size, sites, buffer + 2)
        _assert_same_strip(_strip_runs(size, rng(), sites), want)
        table, fallback = _occupancy_pair_chunk(size, rng(), k)
        occ = [(rise % 2 == 1) | (descent % 2 == 1) for rise, descent in want[1]]  # occupied iff a run is odd
        assert table == tuple(int(np.count_nonzero((occ[0] == a) & (occ[-1] == b))) for a in (0, 1) for b in (0, 1))
        assert fallback == want[2]
        assert want[2] > 0 or buffer > 1  # narrow windows exercise the fallback

    @pytest.mark.parametrize("buffer", [0, 1, infinite._STRIP_BUFFER])
    @pytest.mark.parametrize("dist", [EXP, UNIFORM], ids=["exp", "uniform"])
    def test_runs_chunk_matches_lazy_line(self, monkeypatch, buffer, dist):
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", buffer)
        size, w = 3000, buffer + 2
        got = _runs_chunk(size, np.random.Generator(np.random.PCG64DXSM(91)), dist)
        strip, [(rise, desc)], outgrown = _strip_reference(np.random.Generator(np.random.PCG64DXSM(91)), size, (0,), w)
        np.testing.assert_array_equal(got.rise, rise)
        np.testing.assert_array_equal(got.descent, desc)
        assert got.fallback_rows == outgrown
        assert outgrown > 0 or buffer > 1  # narrow windows exercise the fallback
        # only the two centre marks pass through the quantile transform
        xi_left, xi_right = dist.ppf(strip[w - 1]), dist.ppf(strip[w])
        np.testing.assert_array_equal(got.xi_right, xi_right)
        np.testing.assert_array_equal(got.tau, [_tau_rule(*row) for row in zip(rise, desc, xi_left, xi_right)])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 6), st.integers(0, 2), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_tied_integer_marks(self, seed, levels, k, buffer, reflect):
        sites = (0, k) if k else (0,)

        def rng():
            marks = _IntegerMarks(seed, levels)
            return _Reflected(marks) if reflect else marks

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(infinite, "_STRIP_BUFFER", buffer)
            got = _strip_runs(64, rng(), sites)
        _assert_same_strip(got, _strip_reference(rng(), 64, sites, buffer + 2))

    def test_window_wider_than_a_byte_is_refused(self, monkeypatch):
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", 7)  # w = 9 descent stops
        with pytest.raises(ValueError):
            _runs_chunk(10, np.random.Generator(np.random.PCG64DXSM(0)), EXP)
        with pytest.raises(ValueError):
            _occupancy_pair_chunk(10, np.random.Generator(np.random.PCG64DXSM(0)), 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_cap_binds_inside_the_window(self, monkeypatch, seed):
        # any run longer than the cap raises, whether or not its row took the fallback
        monkeypatch.setattr(infinite, "WINDOW_CAP", 1)
        with pytest.raises(RareEventCapError):
            autocovariance_mc(3, 2000, seed=seed)
        with pytest.raises(RareEventCapError):
            sample_runs(2000, seed=seed)

    def test_fallback_rows_keep_the_law(self, monkeypatch):
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", 0)
        for k in (0, 1, 2, 4):
            est = autocovariance_mc(k, 20_000, seed=SeedSpec(87, k))
            assert est.fallback_rows > est.replicas / 2
            assert _strip_failures(est) == []
        runs = sample_runs(20_000, seed=SeedSpec(87, 9))
        assert runs.fallback_rows > runs.replicas / 2 and _vacancy_agrees(runs)

    def test_truncated_fallback_fails(self, monkeypatch):
        # the shared fallback cut off at the strip edge: both estimators must notice
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", 0)
        monkeypatch.setattr(infinite._LazyLine, "runs", _truncated_runs)
        for k in (0, 1, 2, 4):
            assert _strip_failures(autocovariance_mc(k, 20_000, seed=SeedSpec(87, k)))
        assert not _vacancy_agrees(sample_runs(20_000, seed=SeedSpec(87, 9)))

    def test_fallback_count_is_thread_independent(self, monkeypatch):
        monkeypatch.setattr(infinite, "_STRIP_BUFFER", 1)
        a = autocovariance_mc(3, 40_000, seed=88, threads=1)
        b = autocovariance_mc(3, 40_000, seed=88, threads=3)
        assert a == b and a.fallback_rows > 0
        runs = [sample_runs(_CHUNK + 5000, seed=88, threads=t).fallback_rows for t in (1, 3)]
        assert runs[0] == runs[1] > 0
