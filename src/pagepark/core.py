"""Shared model objects: seeded RNG streams and arrival-time laws.

Cars of length 2 park on sites 1..n; slot i (1 <= i <= n-1) covers sites (i, i+1).
Every slot gets one i.i.d. mark, and cars park in increasing mark order, so a
jammed configuration depends on the marks only through their ordering. Marks
are plain float arrays over slots 1..n-1 (one row per replica), occupancy a
boolean array over sites 1..n. Equal marks are ordered by slot index (the left
slot acts first); every classifier and replay in the package uses this one tie
rule.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

# Default master seed for every CLI command. Override with the
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


def map_streams(fn: Callable, seed: int | SeedSpec, jobs: Sequence, threads: int = 1) -> Iterator:
    """fn(job, rng) for each job, yielded lazily in job order, each job on its
    own stream, so a caller can reduce each result as it arrives instead of
    holding them all.

    Job c of a call seeded SeedSpec(m, r) draws from SeedSequence(m,
    spawn_key=(r, c)), the c-th child that SeedSpec(m, r) spawns. So calls with
    different r never share a stream, and results depend on neither `threads`
    nor the jobs after c. The call runs its jobs on its own pool of
    min(threads, len(jobs), os.cpu_count()) threads when that is above 1, and
    shuts the pool down when the last result is taken or the iterator is
    closed; more threads than CPUs would only hold more chunks at once."""
    children = _as_spec(seed).sequence().spawn(len(jobs))

    def run(c: int):
        return fn(jobs[c], _stream(children[c]))

    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(run, range(len(jobs)))
    else:
        yield from map(run, range(len(jobs)))


@dataclass(frozen=True)
class ArrivalDistribution:
    """Law F of the i.i.d. slot marks. F is continuous with F(0) = 0.

    kind "exp" is the unit-mean exponential (the default used throughout);
    kind "uniform" is Uniform(0, 1). Jammed configurations depend only on the
    ordering of the marks, so both kinds induce the same occupancy law. The
    samplers draw Uniform(0, 1) marks for any law: time t under F is uniform
    time F(t), so a law is applied only through cdf, at the estimate.
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


EXP = ArrivalDistribution("exp")
UNIFORM = ArrivalDistribution("uniform")
