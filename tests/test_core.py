"""Seeding, arrival laws, priority fields, and configuration invariants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagepark import (
    EXP,
    UNIFORM,
    ArrivalDistribution,
    ParkingConfiguration,
    PriorityField,
    SeedSpec,
    recount_free_pairs,
    sample_priority_field,
)
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
        got = map_streams(lambda size, rng: rng.random(size), SeedSpec(123, 4), sizes)
        for c, (size, draws) in enumerate(zip(sizes, got)):
            np.testing.assert_array_equal(draws, _stream(123, 4, c).random(size))

    def test_int_seed_is_replica_zero(self):
        jobs = [4, 4]
        a = map_streams(lambda size, rng: rng.random(size), 123, jobs)
        b = map_streams(lambda size, rng: rng.random(size), SeedSpec(123, 0), jobs)
        np.testing.assert_array_equal(np.concatenate(a), np.concatenate(b))

    def test_threads_keep_job_order_and_bytes(self):
        jobs = list(range(1, 40))
        one = map_streams(lambda size, rng: rng.random(size), SeedSpec(9, 2), jobs)
        four = map_streams(lambda size, rng: rng.random(size), SeedSpec(9, 2), jobs, threads=4)
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

    @given(st.floats(min_value=0.0, max_value=0.999999))
    def test_ppf_inverts_cdf(self, u):
        for dist in (EXP, UNIFORM):
            t = float(dist.ppf(u))
            assert dist.cdf(t) == pytest.approx(u, abs=1e-12)

    def test_rank_coupling_across_kinds(self):
        # the two kinds share the underlying uniform stream, so equal seeds
        # give identical mark orderings
        u = SeedSpec(5).generator().random(64)
        exp_marks = EXP.ppf(u)
        uni_marks = UNIFORM.ppf(u)
        np.testing.assert_array_equal(np.argsort(exp_marks), np.argsort(uni_marks))

    def test_sample_matches_ppf_of_uniform_stream(self):
        a = EXP.sample(SeedSpec(9).generator(), 32)
        b = EXP.ppf(SeedSpec(9).generator().random(32))
        np.testing.assert_array_equal(a, b)


class TestPriorityField:
    def test_indexing(self):
        f = PriorityField(np.array([0.3, 0.1, 0.2]), index_offset=1)
        assert len(f) == 3
        assert f.first_index == 1 and f.last_index == 3
        assert f.value_at(2) == pytest.approx(0.1)
        assert f.n_sites == 4
        with pytest.raises(IndexError):
            f.value_at(4)

    def test_negative_offset_window(self):
        f = PriorityField(np.array([1.0, 2.0, 3.0]), index_offset=-1)
        assert f.first_index == -1 and f.last_index == 1
        with pytest.raises(ValueError):
            _ = f.n_sites

    @given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_sampled_fields_sized_and_deterministic(self, n, seed):
        f = sample_priority_field(n, rng=SeedSpec(seed))
        assert len(f) == n - 1
        np.testing.assert_array_equal(f.values, sample_priority_field(n, rng=seed).values)

    def test_sampling_deterministic(self):
        a = sample_priority_field(50, rng=SeedSpec(7))
        b = sample_priority_field(50, rng=SeedSpec(7))
        np.testing.assert_array_equal(a.values, b.values)


class TestParkingConfiguration:
    def test_free_pairs_default_and_validation(self):
        occ = np.array([True, True, False, False, True])
        c = ParkingConfiguration(occ)
        assert c.free_pair_count == 1
        assert not c.jammed
        assert c.occupied_count == 3
        with pytest.raises(ValueError):
            ParkingConfiguration(occ, free_pair_count=2)

    def test_jammed_detection(self):
        c = ParkingConfiguration(np.array([False, True, True, False]))
        assert c.jammed  # only pairs (1,2) and (3,4) exist; both touch a car

    @given(st.lists(st.booleans(), min_size=2, max_size=64))
    def test_recount_matches_constructor(self, bits):
        occ = np.array(bits, dtype=bool)
        c = ParkingConfiguration(occ)
        assert c.free_pair_count == recount_free_pairs(occ)
        assert c.jammed == (recount_free_pairs(c) == 0)
