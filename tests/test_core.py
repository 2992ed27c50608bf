"""Seeding and arrival laws."""
import os

import numpy as np
import pytest

from pagepark import (
    EXP,
    UNIFORM,
    ArrivalDistribution,
    SeedSpec,
)
from pagepark import core
from pagepark.core import DEFAULT_SEED, as_generator, map_streams


def _stream(master, *key):
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(master, spawn_key=key)))


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
        for c, (size, draws) in enumerate(zip(sizes, got)):
            np.testing.assert_array_equal(draws, _stream(123, 4, c).random(size))

    def test_int_seed_is_replica_zero(self):
        jobs = [4, 4]
        a = list(map_streams(lambda size, rng: rng.random(size), 123, jobs))
        b = list(map_streams(lambda size, rng: rng.random(size), SeedSpec(123, 0), jobs))
        np.testing.assert_array_equal(np.concatenate(a), np.concatenate(b))

    def test_threads_keep_job_order_and_bytes(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # four workers on any machine
        jobs = list(range(1, 40))
        one = list(map_streams(lambda size, rng: rng.random(size), SeedSpec(9, 2), jobs))
        four = list(map_streams(lambda size, rng: rng.random(size), SeedSpec(9, 2), jobs, threads=4))
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

    def test_results_are_yielded_lazily(self):
        # on one thread a job runs only when its result is taken
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
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one CPU
        for _ in range(2):
            assert list(map_streams(lambda job, rng: job, 7, [0, 1, 2], threads=2)) == [0, 1, 2]
        partial = map_streams(lambda job, rng: job, 7, [0, 1, 2], threads=2)
        assert next(partial) == 0
        partial.close()  # closing the iterator early shuts its pool down
        assert len(pools) == 3 and shut == pools

    @pytest.mark.parametrize(
        "threads, jobs, cpus, workers",
        [(100_000, 3, 8, 3), (100_000, 40, 2, 2), (4, 40, 16, 4), (8, 40, None, None), (2, 1, 8, None)],
    )
    def test_workers_are_capped_by_jobs_and_cpus(self, monkeypatch, threads, jobs, cpus, workers):
        # min(threads, jobs, CPUs) workers, and no pool when that is 1; the
        # recorder runs the jobs itself, so no thread starts
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(core, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert list(map_streams(lambda job, rng: job, 7, list(range(jobs)), threads=threads)) == list(range(jobs))
        assert made == ([] if workers is None else [workers])


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
