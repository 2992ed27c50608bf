"""Seeding, the stream pool and arrival laws."""
import os

import numpy as np
import pytest

from pagepark import (
    EXP,
    UNIFORM,
    ArrivalDistribution,
    SeedSpec,
    autocovariance_mc,
    core,
    density_curve_mc,
    finite,
    first_arrival_batch,
    infinite,
    sample_runs,
    simulate_direct_batch,
    trials_ratio_sweep,
)
from pagepark.core import DEFAULT_SEED, as_generator, child_streams, map_streams


def _stream(master, *key):
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(master, spawn_key=key)))


def _record_pools(monkeypatch, cpus: int) -> list[int]:
    """Pretend the process may run on `cpus` CPUs, and replace map_streams'
    pool by one that records its worker count and runs the jobs itself, so
    no thread starts. Returns the list the counts go to."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(core, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
    return made


class TestSeedSpec:
    def test_same_spec_same_stream(self):
        a = SeedSpec(123, 4).generator().random(16)
        b = SeedSpec(123, 4).generator().random(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_replicas_distinct_streams(self):
        a = SeedSpec(123, 0).generator().random(16)
        b = SeedSpec(123, 1).generator().random(16)
        assert not np.array_equal(a, b)

    def test_distinct_masters_distinct_streams(self):
        a = SeedSpec(1).generator().random(16)
        b = SeedSpec(2).generator().random(16)
        assert not np.array_equal(a, b)

    def test_as_generator_coercions(self):
        want = SeedSpec(77).generator().random(8)
        np.testing.assert_array_equal(as_generator(77).random(8), want)
        np.testing.assert_array_equal(as_generator(SeedSpec(77, 0)).random(8), want)
        np.testing.assert_array_equal(as_generator().random(8), SeedSpec(DEFAULT_SEED).generator().random(8))
        rng = np.random.default_rng(1)
        assert as_generator(rng) is rng


class TestMapStreams:
    def test_job_c_of_spec_r_is_spawn_key_r_c(self):
        sizes = [3, 5, 2]
        got = list(map_streams(lambda size, rng: rng.random(size), SeedSpec(123, 4), sizes))
        children = child_streams(SeedSpec(123, 4), len(sizes))
        for c, (size, draws) in enumerate(zip(sizes, got)):
            np.testing.assert_array_equal(draws, _stream(123, 4, c).random(size))
            np.testing.assert_array_equal(children[c].random(size), draws)

    def test_int_seed_is_replica_zero(self):
        jobs = [4, 4]
        a = list(map_streams(lambda size, rng: rng.random(size), 123, jobs))
        b = list(map_streams(lambda size, rng: rng.random(size), SeedSpec(123, 0), jobs))
        np.testing.assert_array_equal(np.concatenate(a), np.concatenate(b))

    def test_threads_keep_job_order_and_bytes(self, monkeypatch):
        jobs = list(range(1, 40))
        monkeypatch.setattr(core, "usable_cpus", lambda: 1)
        one = list(map_streams(lambda size, rng: rng.random(size), SeedSpec(9, 2), jobs))
        monkeypatch.setattr(core, "usable_cpus", lambda: 4)  # four workers on any machine
        four = list(map_streams(lambda size, rng: rng.random(size), SeedSpec(9, 2), jobs))
        assert [a.size for a in four] == jobs
        np.testing.assert_array_equal(np.concatenate(one), np.concatenate(four))

    def test_replica_indices_never_share_a_stream(self):
        # calls seeded SeedSpec(m, r) and SeedSpec(m, r') use disjoint streams,
        # whatever their job counts
        first = {
            float(x[0])
            for r in range(4)
            for x in map_streams(lambda size, rng: rng.random(size), SeedSpec(5, r), [1] * (r + 3))
        }
        assert len(first) == sum(r + 3 for r in range(4))

    def test_results_are_yielded_lazily(self, monkeypatch):
        # on one thread a job runs only when its result is taken
        monkeypatch.setattr(core, "usable_cpus", lambda: 1)
        ran = []
        results = map_streams(lambda job, rng: ran.append(job) or job, 7, [0, 1, 2])
        assert ran == [] and next(results) == 0 and ran == [0]
        assert list(results) == [1, 2] and ran == [0, 1, 2]

    def test_one_pool_per_call(self, monkeypatch):
        pools, shut = [], []

        class CountingPool(core.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                shut.append(self)

        monkeypatch.setattr(core, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(core, "usable_cpus", lambda: 2)  # a pool even on one CPU
        for _ in range(2):
            assert list(map_streams(lambda job, rng: job, 7, [0, 1, 2])) == [0, 1, 2]
        partial = map_streams(lambda job, rng: job, 7, [0, 1, 2])
        assert next(partial) == 0
        partial.close()  # closing the iterator early shuts its pool down
        assert len(pools) == 3 and shut == pools

    @pytest.mark.parametrize("jobs, cpus, workers", [(3, 8, 3), (40, 2, 2), (40, 16, 16), (40, 1, None), (1, 8, None)])
    def test_workers_are_capped_by_jobs_and_cpus(self, monkeypatch, jobs, cpus, workers):
        # min(jobs, CPUs) workers, and no pool when that is 1
        made = _record_pools(monkeypatch, cpus)
        assert list(map_streams(lambda job, rng: job, 7, list(range(jobs)))) == list(range(jobs))
        assert made == ([] if workers is None else [workers])

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        # a process pinned to 3 of 64 CPUs may run 3 threads at once
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert core.usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert core.usable_cpus() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert core.usable_cpus() == 1


class TestKernelPools:
    """Which kernels run on a pool: the three line kernels, each one pool of
    min(jobs, CPUs) workers through map_streams; the finite and trials
    kernels none, and they never call map_streams."""

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_finite_and_trials_kernels_build_no_pool(self, monkeypatch, cpus):
        made = _record_pools(monkeypatch, cpus)
        mapped = []
        for module in (core, finite):
            monkeypatch.setattr(module, "map_streams", lambda *args: mapped.append(args), raising=False)
        simulate_direct_batch(40, 2000, SeedSpec(1))  # 5 chunks
        first_arrival_batch([40, 1000], 2000, SeedSpec(2))  # car-mask rows, 5 + 125 chunks
        first_arrival_batch([finite._BAND_SITES + 1], 65, SeedSpec(3))  # a band row
        trials_ratio_sweep([40, finite._BAND_SITES + 1], 65, seed=4)
        assert made == [] and mapped == []

    @pytest.mark.parametrize("cpus, workers", [(1, None), (2, 2), (16, 3)])
    def test_line_kernels_pool_over_jobs_and_cpus(self, monkeypatch, cpus, workers):
        # three jobs each: one pool a call of min(3, CPUs) workers, none at 1 CPU
        made = _record_pools(monkeypatch, cpus)
        per_call = [] if workers is None else [workers]
        sample_runs(2 * infinite._CHUNK + 1, seed=5)
        assert made == per_call
        density_curve_mc([1.0], 2 * infinite._CHUNK + 1, seed=6)
        assert made == per_call * 2
        autocovariance_mc([0, 2], 2 * infinite._AUTOCOV_CHUNK + 1, seed=7)
        assert made == per_call * 3

    def test_line_kernels_build_no_pool_for_one_job(self, monkeypatch):
        made = _record_pools(monkeypatch, 16)
        sample_runs(100, seed=8)
        density_curve_mc([1.0], 100, seed=9)
        autocovariance_mc([0, 2], 100, seed=10)
        assert made == []


class TestArrivalDistribution:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ArrivalDistribution("gamma")

    def test_cdf_boundaries(self):
        for dist in (EXP, UNIFORM):
            assert dist.cdf(0.0) == 0.0
            assert dist.cdf(-1.0) == 0.0
        assert UNIFORM.cdf(0.4) == pytest.approx(0.4)
        assert UNIFORM.cdf(2.0) == 1.0
        assert EXP.cdf(np.log(2.0)) == pytest.approx(0.5)
