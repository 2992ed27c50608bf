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
    density_curve_closed_form,
    density_curve_mc,
    limit_constants,
    odd_descent_prob_closed_form,
    proportion_estimate,
    sample_runs,
    sample_site_infinite,
)
from pagepark import core, infinite
from pagepark.infinite import (
    _AUTOCOV_CHUNK, _CHUNK, WINDOW_CAP, _LazyLine, _line_runs, _occupancy_chunk, _runs_chunk, _walk,
)
from pagepark.stats import law_matches, within_stderr


def _on_cpus(monkeypatch, cpus: int, kernel, *args, **kwargs):
    """kernel(*args, **kwargs) in a process that may run on `cpus` CPUs: the
    line kernels' pool has min(jobs, cpus) workers."""
    monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
    return kernel(*args, **kwargs)


def _proportion_agrees(p: float, total: int, q: float) -> bool:
    """A proportion p of total trials lies within 4 standard errors of the
    exact probability q, at the exact Bernoulli sd, so never vacuously at 0
    or total hits."""
    return within_stderr(p, q, math.sqrt(q * (1.0 - q) / total), 4.0)[0]


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
        # tau_0 of the lazy-line sampler and of the batch kernel, each against
        # its exact law in uniform time, P(tau_0 <= u) = 1 - e^(-2u) for u <= 1,
        # binned at the uniform times of an exponential time grid, with the
        # vacant sites (tau_0 = inf, probability e^-2) as the last bin
        edges = [EXP.cdf(t) for t in (0.25, 0.5, 1.0, 2.0)] + [math.inf]
        covered = [-math.expm1(-2.0 * u) for u in [0.0, *edges[:-1], 1.0]]
        law = dict(enumerate([*np.diff(covered), math.exp(-2.0)]))
        scalar = [sample_site_infinite(rng=SeedSpec(52, i)).tau_0 for i in range(4000)]
        for tau in (scalar, sample_runs(4000, seed=53).tau):
            bins = np.bincount(np.searchsorted(edges, tau, side="right"), minlength=len(edges) + 1)
            ok, detail = law_matches(dict(enumerate(bins)), law)
            assert ok, detail

    def test_cap_triggers_loudly(self, monkeypatch):
        monkeypatch.setattr(infinite, "WINDOW_CAP", 0)
        with pytest.raises(RareEventCapError):
            sample_site_infinite(rng=SeedSpec(0))


class TestRunLaws:
    def test_scalar_and_batch_agree_in_law(self):
        # the joint (rise, descent) of the scalar sampler and of the batch
        # kernel, each against its exact law (_run_law); test_truncated_fallback_fails
        # shows this batch sample fails it when the walks stop at length 4
        scalar = [sample_site_infinite(rng=SeedSpec(50, i)) for i in range(4000)]
        scalar_runs = np.array([(w.rise_length, w.descent_length) for w in scalar]).T
        for rise, descent in (scalar_runs, _batch_runs(4000, 51)):
            ok, detail = _run_law(rise, descent)
            assert ok, detail

    def test_run_length_marginals(self):
        # P(len = j) = 1/j! - 1/(j+1)! and P(len >= 4) = 1/4!
        runs = sample_runs(200_000, seed=60)
        law = {j: 1.0 / math.factorial(j) - 1.0 / math.factorial(j + 1) for j in (1, 2, 3)} | {4: 1.0 / 24.0}
        for lengths in (runs.descent, runs.rise):
            assert law_matches(dict(enumerate(np.bincount(np.minimum(lengths, 4)))), law)[0]

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

    def test_threads_do_not_change_output(self, monkeypatch):
        a, b = (_on_cpus(monkeypatch, cpus, sample_runs, 70_000, seed=64) for cpus in (1, 4))
        np.testing.assert_array_equal(a.descent, b.descent)
        np.testing.assert_array_equal(a.tau, b.tau)

    def test_chunks_are_spawn_key_streams(self):
        # chunk c of a sweep seeded SeedSpec(m, r) is stream SeedSequence(m, (r, c))
        master, r = 66, 5
        runs = sample_runs(_CHUNK + 100, seed=SeedSpec(master, r))
        parts = [
            _runs_chunk(size, np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(master, spawn_key=(r, c)))))
            for c, size in enumerate((_CHUNK, 100))
        ]
        np.testing.assert_array_equal(runs.rise, np.concatenate([p.rise for p in parts]))
        np.testing.assert_array_equal(runs.descent, np.concatenate([p.descent for p in parts]))
        np.testing.assert_array_equal(runs.tau, np.concatenate([p.tau for p in parts]))
        np.testing.assert_array_equal(runs.xi_right, np.concatenate([p.xi_right for p in parts]))

    def test_peak_memory_is_the_result_and_a_few_chunks(self, monkeypatch):
        # each chunk is copied into the preallocated result as it arrives; a
        # sampler that holds every chunk until the end (then concatenates)
        # peaks near twice the result and fails this bound. A chunk in flight
        # holds its core (two float64 rows), its own result, and a walk step's
        # index, mark and kept-index arrays (8 bytes each per replica); the
        # two workers' chunks and the finished ones waiting in the pool stay
        # below 8 such chunks (about 4 were measured) at 2 CPUs.
        monkeypatch.setattr(core, "usable_cpus", lambda: 2)
        tracemalloc.start()
        try:
            runs = sample_runs(48 * _CHUNK, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_replica = [a.itemsize for a in (runs.rise, runs.descent, runs.tau, runs.xi_right)]
        result = runs.replicas * sum(per_replica)
        chunk_bytes = _CHUNK * (2 * 8 + sum(per_replica) + 3 * 8)
        assert peak <= result + 8 * chunk_bytes

    def test_batch_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(infinite, "WINDOW_CAP", 1)
        with pytest.raises(RareEventCapError):
            sample_runs(10_000, seed=65)

    def test_run_lengths_fit_their_dtype(self):
        # run lengths are stored in the walk's dtype; the cap raises before one overflows it
        dtype = _walk(np.zeros(1), np.random.Generator(np.random.PCG64DXSM(0)), leftward=False).dtype
        assert np.iinfo(dtype).max >= WINDOW_CAP
        assert sample_runs(10, seed=0).rise.dtype == dtype


class TestEstimators:
    def test_vacancy_near_limit(self):
        runs = sample_runs(300_000, seed=70)
        est = proportion_estimate(int(runs.vacant.sum()), runs.replicas)
        assert _proportion_agrees(est.estimate, est.replicas, limit_constants()["vacancy"])

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
            assert _proportion_agrees(e.estimate, e.replicas, c)

    def test_odd_descent_prob_curve(self):
        grid = [0.3, 1.0, 3.0]
        est = sample_runs(100_000, seed=73).odd_descent_time_prob(grid)
        closed = odd_descent_prob_closed_form(grid)
        for e, c in zip(est, closed):
            assert _proportion_agrees(e.estimate, e.replicas, c)

    def test_replica_index_selects_the_stream(self):
        # SeedSpec(m, 71) and SeedSpec(m, 72) are independent batches
        a = sample_runs(20_000, seed=SeedSpec(42424242, 71)).density_at_time([1.0])[0]
        b = sample_runs(20_000, seed=SeedSpec(42424242, 72)).density_at_time([1.0])[0]
        assert a.estimate != b.estimate

    def test_uniform_kind_curve(self):
        est = sample_runs(100_000, seed=74).density_at_time([0.4], UNIFORM)[0]
        closed = float(density_curve_closed_form([0.4], dist=UNIFORM)[0])
        assert _proportion_agrees(est.estimate, est.replicas, closed)


class TestDensityCurve:
    """density_curve_mc reduces each chunk of sample_runs' job list to its
    grid counts where it is drawn."""

    GRID = [0.25, 0.5, 1.0, 2.0, 4.0]

    @pytest.mark.parametrize("replicas", [1, _CHUNK, _CHUNK + 5000, 3 * _CHUNK + 17])
    @pytest.mark.parametrize("seed", [12, SeedSpec(13, 4)], ids=["int", "spec"])
    def test_equals_the_sample_route(self, replicas, seed, monkeypatch):
        # estimate, stderr and replicas, and the longest run, bit for bit,
        # over one chunk, several and a partial one, serial and pooled
        for cpus in (1, 3):
            runs = _on_cpus(monkeypatch, cpus, sample_runs, replicas, seed=seed)
            for dist in (EXP, UNIFORM):
                est, longest = density_curve_mc(self.GRID, replicas, seed=seed, dist=dist)
                assert est == runs.density_at_time(self.GRID, dist)
                assert longest == runs.longest_run

    def test_peak_memory_does_not_grow_with_replicas(self, monkeypatch):
        # only each chunk's grid counts outlive it, so 16 chunks peak no
        # higher than 2 (2.2 MiB at 2 chunks and 1.4 MiB at 16 were
        # measured); the sample_runs(...).density_at_time route keeps every
        # replica's runs, tau_0 and mark (20 bytes each), peaks at about
        # 3.6 MiB at 2 chunks and 12.3 MiB at 16, and fails this bound; on
        # one CPU, so that no chunk waits in a pool
        monkeypatch.setattr(core, "usable_cpus", lambda: 1)
        peaks = []
        for chunks in (2, 16):
            tracemalloc.start()
            try:
                density_curve_mc(self.GRID, chunks * _CHUNK, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20

    def test_validation(self):
        for replicas in (0, -1):
            with pytest.raises(ValueError):
                density_curve_mc([1.0], replicas)


class TestAutocovariance:
    def test_lag0_is_variance(self):
        (est,) = autocovariance_mc([0], 150_000, seed=80)
        vac = limit_constants()["vacancy"]
        var = vac * (1 - vac)
        assert abs(est.estimate - var) <= 5 * est.stderr
        assert est.mean_site_0 == est.mean_site_k

    def test_lag1_negative(self):
        # a car covering site 0 extends to a neighbour, so adjacent
        # occupancies anti-correlate
        (est,) = autocovariance_mc([1], 150_000, seed=81)
        assert est.estimate < 0
        assert est.estimate + 5 * est.stderr < 0

    def test_large_lag_decorrelates(self):
        (est,) = autocovariance_mc([40], 120_000, seed=82)
        assert abs(est.estimate) <= 5 * est.stderr

    def test_marginals_near_density(self):
        (est,) = autocovariance_mc([3], 150_000, seed=83)
        rho = limit_constants()["jamming_density"]
        assert est.mean_site_0 == pytest.approx(rho, abs=0.01)
        assert est.mean_site_k == pytest.approx(rho, abs=0.01)

    def test_reflection_invariance(self, monkeypatch):
        (a,) = autocovariance_mc([2], 100_000, seed=84)
        stream = core._stream
        monkeypatch.setattr(core, "_stream", lambda seq: _Reflected(stream(seq)))
        (b,) = autocovariance_mc([2], 100_000, seed=84)
        assert (a.estimate, a.mean_site_0) != (b.estimate, b.mean_site_0)  # the reversed draws were classified
        assert abs(a.estimate - b.estimate) <= 5 * (a.stderr + b.stderr)

    def test_each_lag_draws_its_own_marks(self):
        # the replica index of SeedSpec(seed, idx) selects an independent
        # sample (the CLI reads every lag off idx 0); equal lags on two
        # replica indices must see different marks
        (a,) = autocovariance_mc([1], 20_000, seed=SeedSpec(86, 0))
        (b,) = autocovariance_mc([1], 20_000, seed=SeedSpec(86, 1))
        assert (a.estimate, a.mean_site_0) != (b.estimate, b.mean_site_0)

    def test_threads_identical(self, monkeypatch):
        (a,), (b,) = (_on_cpus(monkeypatch, cpus, autocovariance_mc, [2], 40_000, seed=85) for cpus in (1, 3))
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_one_sample_serves_every_lag(self, monkeypatch):
        # every lag is read off the same pairs: one site-0 mean for all, the
        # largest lag bit for bit a one-lag call on the same seed (the same
        # core and walks), and the same estimates on any CPU count
        lags = [0, 1, 2, 5, 13]
        ests = _on_cpus(monkeypatch, 1, autocovariance_mc, lags, 40_000, seed=SeedSpec(90, 2))
        assert [e.k for e in ests] == lags
        assert len({e.mean_site_0 for e in ests}) == 1 and ests[0].mean_site_k == ests[0].mean_site_0
        assert autocovariance_mc([13], 40_000, seed=SeedSpec(90, 2)) == ests[-1:]
        assert _on_cpus(monkeypatch, 3, autocovariance_mc, lags, 40_000, seed=SeedSpec(90, 2)) == ests

    @pytest.mark.parametrize("k", [0, 1, 3, 13])
    def test_table_matches_two_pass(self, k):
        # the summed 2x2 tables give what the product column of the same
        # occupancies gives, at every lag up to k, over several chunks and a
        # partial one
        lags, replicas, seed = [j for j in (0, 1, 3, 13) if j <= k], 3 * _AUTOCOV_CHUNK + 123, SeedSpec(89, k)
        occ = _chunk_occupancies(lags, replicas, seed)
        for est in autocovariance_mc(lags, replicas, seed=seed):
            assert _two_pass_disagreements(est, occ[0], occ[est.k]) == []

    def test_swapped_table_cells_fail(self, monkeypatch):
        # a table with n01 and n10 exchanged swaps the two sites' means
        table_estimate = infinite._autocov_estimate
        monkeypatch.setattr(infinite, "_autocov_estimate",
                            lambda k, t, rows: table_estimate(k, (t[0], t[2], t[1], t[3]), rows))
        replicas, seed = 3 * _AUTOCOV_CHUNK + 123, SeedSpec(89, 3)
        (est,) = autocovariance_mc([3], replicas, seed=seed)
        occ = _chunk_occupancies([3], replicas, seed)
        assert _two_pass_disagreements(est, occ[0], occ[3]) == ["mean_site_0", "mean_site_k"]

    def test_validation(self):
        for lags in ([-1], [], [2, 1], [1, 1]):  # lags are a nonempty increasing list >= 0
            with pytest.raises(ValueError):
                autocovariance_mc(lags, 100)
        with pytest.raises(ValueError):
            autocovariance_mc([0], 1)


def _chunk_occupancies(lags, replicas, seed) -> dict:
    """X(j) at site 0 and at every lag j of the pairs
    autocovariance_mc(lags, replicas, seed) draws, chunk by chunk on its
    streams, as 0/1 floats by site."""
    def chunk(size, rng):
        _, runs, _ = _line_runs(size, rng, lags)
        return {j: (rise % 2 == 1) | (descent % 2 == 1) for j, (rise, descent) in runs.items()}

    parts = list(core.map_streams(chunk, seed, core.chunk_sizes(replicas, _AUTOCOV_CHUNK)))
    return {j: np.concatenate([p[j] for p in parts]).astype(float) for j in parts[0]}


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
    both sites are occupied with probability 1 - e^-2, cov(0) = e^-2 (1 - e^-2),
    and two vacant sites are never 1, 2 or 4 apart, so there cov(k) = -e^-4
    exactly."""
    vac = math.exp(-2.0)
    failed = [name for name in ("mean_site_0", "mean_site_k")
              if not _proportion_agrees(getattr(est, name), est.replicas, 1.0 - vac)]
    if est.k == 0 and not within_stderr(est.estimate, vac * (1.0 - vac), est.stderr, 5.0)[0]:
        failed.append("lag0")
    if est.k in (1, 2, 4):
        if est.both_vacant:
            failed.append("no_vacant_pair")
        if not within_stderr(est.estimate, -vac * vac, est.stderr, 5.0)[0]:
            failed.append("cov")
    return failed


def _batch_runs(replicas: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(rise, descent) at site 0 of sample_runs(replicas, seed)."""
    runs = sample_runs(replicas, seed=seed)
    return runs.rise, runs.descent


def _vacancy_agrees(runs) -> bool:
    """The vacant fraction lies within 4 exact standard errors of e^-2."""
    return _proportion_agrees(float(runs.vacant.mean()), runs.replicas, math.exp(-2.0))


def _run_law(rise, descent) -> tuple[bool, str]:
    """law_matches for the joint (rise, descent) at site 0 against its exact
    law: the two are independent, and each has P(len = j) = j/(j+1)! for
    j < 6 and P(len >= 6) = 1/6!. The 36 cells are taken in row-major order.
    Lengths of 5 and up get their own cells, so walks cut short at 4 fail."""
    law = [j / math.factorial(j + 1) for j in range(1, 6)] + [1 / math.factorial(6)]
    cells = np.bincount(6 * (np.minimum(rise, 6) - 1) + np.minimum(descent, 6) - 1, minlength=36)
    return law_matches(dict(enumerate(cells)), dict(enumerate(np.outer(law, law).ravel())))


class _IntegerMarks:
    """A stand-in generator whose marks are integers below `levels`, so that
    equal marks are common and the tie rule decides most runs."""

    def __init__(self, seed: int, levels: int) -> None:
        self.rng, self.levels = np.random.Generator(np.random.PCG64DXSM(seed)), levels

    def random(self, shape):
        return self.rng.integers(0, self.levels, shape).astype(np.float64)


class _Reflected:
    """A stand-in generator that hands out every block reversed: the core's
    slot rows in mirrored order, and each walk step's marks in reverse
    replica order."""

    def __init__(self, rng) -> None:
        self.rng = rng

    def random(self, shape):
        return self.rng.random(shape)[::-1]


class _Recording:
    """A stand-in generator that keeps a copy of every block it hands out."""

    def __init__(self, rng) -> None:
        self.rng, self.draws = rng, []

    def random(self, shape):
        out = self.rng.random(shape)
        self.draws.append(np.array(out))
        return out


class _NoDraws:
    """The generator of a line whose marks are all given: a draw means the
    kernel drew fewer marks than the line reads."""

    def random(self, shape):
        raise AssertionError("the line read a mark the kernel did not draw")


class _Planted:
    """A stand-in generator that gives every replica the core column `core`
    (slots -1..k) and, at walk step i, the mark steps[i]."""

    def __init__(self, core, steps) -> None:
        self.core, self.steps = np.array(core, dtype=float), list(steps)

    def random(self, shape):
        if isinstance(shape, tuple):
            return np.repeat(self.core[:, None], shape[1], axis=1)
        return np.full(shape, self.steps.pop(0))


def _walk_marks(draws: list, start, goes_on) -> list[list[float]]:
    """Each replica's marks of one walk, taken off the front of `draws`: step
    j holds one mark for each replica whose run is still open, in replica
    order, and a run stays open while goes_on(fresh, last)."""
    marks = [[] for _ in start]
    open_ = list(enumerate(map(float, start)))
    while open_:
        step = draws.pop(0)
        assert step.shape == (len(open_),)
        for (r, _), x in zip(open_, step):
            marks[r].append(float(x))
        open_ = [(r, float(x)) for (r, last), x in zip(open_, step) if goes_on(x, last)]
    return marks


def _replayed_lines(draws, top) -> list[_LazyLine]:
    """One lazy line per replica over exactly the marks the kernel drew for
    sites 0..top, rebuilt from its recorded draws in their documented order:
    the core over slots -1..top, the right walk's steps from slot top, then
    the left walk's steps from slot -1. The lines cannot draw."""
    draws = list(draws)
    core = draws.pop(0)
    right = _walk_marks(draws, core[top + 1], lambda x, last: x < last)
    left = _walk_marks(draws, core[0], lambda x, last: x <= last)
    assert draws == []
    return [
        _LazyLine(_NoDraws(), lo[::-1] + core[:, r].tolist() + hi, -1 - len(lo))
        for r, (lo, hi) in enumerate(zip(left, right))
    ]


def _assert_kernel_replays(rng, size, lags) -> dict:
    """_line_runs on `rng` gives, replica by replica, the runs at site 0 and
    at every lag that the lazy line gives on the marks the kernel drew, and
    each site's longest run; returns the runs by site."""
    recording = _Recording(rng)
    _, runs, longest = _line_runs(size, recording, lags)
    assert sorted(runs) == sorted({0, *lags})
    lines = _replayed_lines(recording.draws, lags[-1])
    for site, (rise, descent) in runs.items():
        want = np.array([line.runs(site) for line in lines])
        np.testing.assert_array_equal(rise, want[:, 0])
        np.testing.assert_array_equal(descent, want[:, 1])
        assert longest[site] == want.max()
    return runs


_SORTED_LAGS = st.lists(st.integers(0, 13), min_size=1, max_size=6, unique=True).map(sorted)


class TestStripKernel:
    """The kernel of both estimators (_line_runs: a dense core, two walks and
    two row recurrences) against the lazy line, replica by replica, and the
    run law it draws."""

    @pytest.mark.parametrize("seed", [0, 1, 6])
    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 13])
    def test_windows_match_lazy_line(self, reflect, k, seed):
        # the lags of (0, 1, 2, 5, 13) up to k, all read off one sample
        size, lags = 1000, [j for j in (0, 1, 2, 5, 13) if j <= k]

        def rng():
            gen = np.random.Generator(np.random.PCG64DXSM([90 + k, seed]))
            return _Reflected(gen) if reflect else gen

        runs = _assert_kernel_replays(rng(), size, lags)
        occ = {j: (rise % 2 == 1) | (descent % 2 == 1) for j, (rise, descent) in runs.items()}  # odd run: occupied
        for j, (table, longest) in zip(lags, _occupancy_chunk(size, rng(), lags)):
            assert table == tuple(int(np.count_nonzero((occ[0] == a) & (occ[j] == b))) for a in (0, 1) for b in (0, 1))
            assert longest == max(int(r.max()) for site in (0, j) for r in runs[site])

    @pytest.mark.parametrize("seed", [0, 1, 6])
    @pytest.mark.parametrize("dist", [EXP, UNIFORM], ids=["exp", "uniform"])
    def test_runs_chunk_matches_lazy_line(self, dist, seed):
        size = 3000
        recording = _Recording(np.random.Generator(np.random.PCG64DXSM([91, seed])))
        got = _runs_chunk(size, recording)
        rise, desc = np.array([line.runs(0) for line in _replayed_lines(recording.draws, 0)]).T
        np.testing.assert_array_equal(got.rise, rise)
        np.testing.assert_array_equal(got.descent, desc)
        assert got.longest_run == max(rise.max(), desc.max())
        xi_left, xi_right = recording.draws[0]
        tau = np.array([_tau_rule(*row) for row in zip(rise, desc, xi_left, xi_right)])
        np.testing.assert_array_equal(got.xi_right, xi_right)
        np.testing.assert_array_equal(got.tau, tau)
        # the law enters only at the estimate: uniform times at or below F(t)
        grid = [0.1, 0.5, 2.0]
        odd = desc % 2 == 1
        assert [e.estimate for e in got.density_at_time(grid, dist)] == [
            np.count_nonzero(tau <= dist.cdf(t)) / size for t in grid]
        assert [e.estimate for e in got.odd_descent_time_prob(grid, dist)] == [
            np.count_nonzero(odd & (xi_right <= dist.cdf(t))) / size for t in grid]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), _SORTED_LAGS, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_tied_integer_marks(self, seed, levels, lags, reflect):
        marks = _IntegerMarks(seed, levels)
        _assert_kernel_replays(_Reflected(marks) if reflect else marks, 64, lags)

    @pytest.mark.parametrize("seed", range(5))
    def test_cap_binds_inside_the_window(self, monkeypatch, seed):
        # any run longer than the cap raises, on either walk or inside the core
        monkeypatch.setattr(infinite, "WINDOW_CAP", 1)
        with pytest.raises(RareEventCapError):
            autocovariance_mc([1, 3], 2000, seed=seed)
        with pytest.raises(RareEventCapError):
            sample_runs(2000, seed=seed)
        with pytest.raises(RareEventCapError):
            density_curve_mc([1.0], 2000, seed=seed)

    @pytest.mark.parametrize("k", [0, 3, 8])
    def test_cap_binds_in_the_core_and_the_walks(self, monkeypatch, k):
        # the rise at k is the longest run: with the core increasing, and the
        # left walk going on once (0.3 <= 0.4) before it stops, it crosses the
        # core and is k + 2 long (at k = 0 it is the walk itself); after a
        # high mark at slot -1 it stops inside the core, k long
        rising = np.linspace(0.5, 0.9, k + 1).tolist()
        cases = [([0.4] + rising, [1.0, 0.3, 1.0], k + 2)] + ([([1.0] + rising, [1.0, 1.5], k)] if k else [])
        for core, steps, longest in cases:
            _, runs, _ = _line_runs(3, _Planted(core, steps), [k])
            (rise_0, desc_0), (rise_k, desc_k) = runs[0], runs[k]
            assert rise_k.tolist() == [longest] * 3 and desc_0.tolist() == desc_k.tolist() == [1] * 3
            monkeypatch.setattr(infinite, "WINDOW_CAP", longest)
            _line_runs(3, _Planted(core, steps), [k])  # a run as long as the cap is no error
            monkeypatch.setattr(infinite, "WINDOW_CAP", longest - 1)
            with pytest.raises(RareEventCapError):
                _line_runs(3, _Planted(core, steps), [k])
        monkeypatch.setattr(infinite, "WINDOW_CAP", 50)
        with pytest.raises(RareEventCapError):  # equal marks: the rise walk never stops
            _line_runs(4, _IntegerMarks(0, 1), [k])

    def test_runs_follow_their_exact_law(self):
        runs = sample_runs(400_000, seed=SeedSpec(87, 9))
        assert _run_law(runs.rise, runs.descent)[0] and _vacancy_agrees(runs)
        for est in autocovariance_mc([0, 1, 2, 4], 1_000_000, seed=SeedSpec(87, 0)):
            assert _strip_failures(est) == []

    def test_truncated_fallback_fails(self, monkeypatch):
        # walks that stop at length 4 without raising, on the samples of
        # test_runs_follow_their_exact_law and the batch sample of
        # test_scalar_and_batch_agree_in_law: both estimators and both law tests must notice
        walk = infinite._walk
        monkeypatch.setattr(infinite, "_walk", lambda start, rng, leftward: np.minimum(walk(start, rng, leftward), 4))
        for est in autocovariance_mc([0, 1, 2, 4], 1_000_000, seed=SeedSpec(87, 0)):
            assert _strip_failures(est), est.k
        runs = sample_runs(400_000, seed=SeedSpec(87, 9))
        assert not _vacancy_agrees(runs)
        for rise, descent in ((runs.rise, runs.descent), _batch_runs(4000, 51)):
            ok, detail = _run_law(rise, descent)
            assert not ok and float(detail.rsplit("p = ", 1)[1]) < 1e-9

    def test_longest_run_is_thread_independent(self, monkeypatch):
        a, b = (_on_cpus(monkeypatch, cpus, autocovariance_mc, [0, 3, 8], 40_000, seed=88) for cpus in (1, 3))
        assert a == b and min(e.longest_run for e in a) > 1
        runs = [_on_cpus(monkeypatch, cpus, sample_runs, _CHUNK + 5000, seed=88) for cpus in (1, 3)]
        assert runs[0].longest_run == runs[1].longest_run == max(runs[0].rise.max(), runs[0].descent.max())
