"""Shared model objects: seeded RNG streams, arrival-time laws, priority fields,
and parking configurations.

Cars of length 2 park on sites 1..n; slot i (1 <= i <= n-1) covers sites (i, i+1).
A priority field attaches one mark to every slot; cars park in increasing mark
order, so any jammed configuration depends on the marks only through their
ordering. Equal marks are ordered by slot index (the left slot acts first);
every classifier and construction in the package uses this one tie rule.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# Default master seed for every CLI command and script. Override with the
# PAGEPARK_SEED environment variable or --seed.
DEFAULT_SEED = 42424242
SEED_ENV_VAR = "PAGEPARK_SEED"


def _stream(seq: np.random.SeedSequence) -> np.random.Generator:
    """The one bit generator behind every stream: PCG64DXSM, which draws
    doubles about twice as fast as Philox. A stream's output is fixed by the
    generator and its SeedSequence, so changing it changes every Monte Carlo
    table. (np.random is looked up on call, so importing the package does not
    load it.)"""
    return np.random.Generator(np.random.PCG64DXSM(seq))


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one deterministic RNG stream.

    SeedSpec(m, r) is the _stream seeded by SeedSequence(m,
    spawn_key=(r,)); job c of a map_streams call seeded with it draws from the
    child SeedSequence(m, spawn_key=(r, c)). Distinct specs give statistically
    independent streams, and identical specs give bit-identical draws on every
    platform.
    """

    master_seed: int
    replica_index: int = 0

    def sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed, spawn_key=(self.replica_index,))

    def generator(self) -> np.random.Generator:
        return _stream(self.sequence())


def _as_spec(seed: int | SeedSpec) -> SeedSpec:
    """An int seed m is SeedSpec(m, 0)."""
    return seed if isinstance(seed, SeedSpec) else SeedSpec(int(seed))


def as_generator(rng: np.random.Generator | SeedSpec | int | None = None) -> np.random.Generator:
    """The stream a kernel draws from: a Generator is used as is, None is the
    DEFAULT_SEED stream, and an int or SeedSpec is its SeedSpec's stream."""
    if isinstance(rng, np.random.Generator):
        return rng
    return _as_spec(DEFAULT_SEED if rng is None else rng).generator()


def chunk_sizes(total: int, chunk: int) -> list[int]:
    """total split into chunks of `chunk`, the last one partial: the job list
    of every chunked kernel, fixed by its inputs so never by `threads`."""
    return [chunk] * (total // chunk) + ([total % chunk] if total % chunk else [])


def map_streams(fn: Callable, seed: int | SeedSpec, jobs: Sequence, threads: int = 1) -> list:
    """[fn(job, rng) for job in jobs], in job order, each job on its own stream.

    Job c of a call seeded SeedSpec(m, r) draws from SeedSequence(m,
    spawn_key=(r, c)), the c-th child that SeedSpec(m, r) spawns. So calls with
    different r never share a stream, and results depend on neither `threads`
    nor the jobs after c."""
    children = _as_spec(seed).sequence().spawn(len(jobs))

    def run(c: int):
        return fn(jobs[c], _stream(children[c]))

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(len(jobs))))
    return [run(c) for c in range(len(jobs))]


@dataclass(frozen=True)
class ArrivalDistribution:
    """Law F of the i.i.d. slot marks. F is continuous with F(0) = 0.

    kind "exp" is the unit-mean exponential (the default used throughout);
    kind "uniform" is Uniform(0, 1). Jammed configurations depend only on the
    ordering of the marks, so both kinds induce the same occupancy law.
    """

    kind: str = "exp"

    def __post_init__(self) -> None:
        if self.kind not in ("exp", "uniform"):
            raise ValueError(f"unknown arrival distribution kind: {self.kind!r}")

    def cdf(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        if self.kind == "exp":
            return -math.expm1(-t)
        return min(t, 1.0)

    def ppf(self, u):
        """Quantile transform of uniforms in [0, 1). Monotone increasing, so a
        common uniform stream couples both kinds rank-for-rank."""
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "exp":
            return -np.log1p(-u)
        return u.copy()

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.ppf(rng.random(size))


EXP = ArrivalDistribution("exp")
UNIFORM = ArrivalDistribution("uniform")


@dataclass(frozen=True, eq=False)
class PriorityField:
    """Marks xi for a contiguous block of slots.

    values[k] is the mark of slot index_offset + k. Finite fields over sites
    1..n use index_offset=1 and n-1 values; infinite-mode windows may start at
    a negative index. Marks may be equal; equal marks are ordered by slot
    index, left slot first.
    """

    values: np.ndarray
    index_offset: int = 1

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("priority field needs a 1-d, non-empty value block")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def first_index(self) -> int:
        return self.index_offset

    @property
    def last_index(self) -> int:
        return self.index_offset + len(self) - 1

    def value_at(self, index: int) -> float:
        k = index - self.index_offset
        if not 0 <= k < len(self):
            raise IndexError(f"slot {index} outside field [{self.first_index}, {self.last_index}]")
        return float(self.values[k])

    @property
    def n_sites(self) -> int:
        """Site count for a finite field over slots 1..n-1."""
        if self.index_offset != 1:
            raise ValueError("n_sites is only defined for finite fields starting at slot 1")
        return len(self) + 1


def sample_priority_field(
    n: int,
    dist: ArrivalDistribution = EXP,
    rng: np.random.Generator | SeedSpec | None = None,
) -> PriorityField:
    """Draw i.i.d. marks for the n-1 slots of a finite interval with n sites.

    Equal float marks (probability ~ n * 2^-53) are kept; the slot-index tie
    rule orders them."""
    if n < 2:
        raise ValueError("need n >= 2 sites")
    return PriorityField(dist.sample(as_generator(rng), n - 1), index_offset=1)


@dataclass(frozen=True, eq=False)
class ParkingConfiguration:
    """Occupancy of sites 1..n plus the cached count of free adjacent pairs.

    occupancy[i-1] is True when site i holds (half of) a car. free_pair_count
    is the number of slots whose two sites are both empty; the configuration is
    jammed exactly when it is zero. Instances are immutable; simulators build
    them once the process stops.
    """

    occupancy: np.ndarray
    free_pair_count: int = field(default=-1)

    def __post_init__(self) -> None:
        occ = np.asarray(self.occupancy, dtype=bool)
        object.__setattr__(self, "occupancy", occ)
        if occ.ndim != 1 or occ.size < 2:
            raise ValueError("configuration needs at least 2 sites")
        recount = _count_free_pairs(occ)
        if self.free_pair_count < 0:
            object.__setattr__(self, "free_pair_count", recount)
        elif self.free_pair_count != recount:
            raise ValueError(
                f"free_pair_count={self.free_pair_count} inconsistent with occupancy (recount {recount})"
            )

    @property
    def n(self) -> int:
        return int(self.occupancy.size)

    @property
    def jammed(self) -> bool:
        return self.free_pair_count == 0

    @property
    def occupied_count(self) -> int:
        return int(np.count_nonzero(self.occupancy))


def _count_free_pairs(occ: np.ndarray) -> int:
    return int(np.count_nonzero(~occ[:-1] & ~occ[1:]))


def recount_free_pairs(config: ParkingConfiguration | np.ndarray) -> int:
    """O(n) recount of free adjacent pairs, used to cross-check the incremental
    counters kept by the simulators."""
    occ = config.occupancy if isinstance(config, ParkingConfiguration) else np.asarray(config, dtype=bool)
    return _count_free_pairs(occ)
