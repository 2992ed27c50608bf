"""Jamming on the integer line, sampled exactly through local windows.

Site 0 is classified by growing the mark sequence outward until the first
strict local minimum appears on each side: the ascending run ending at slot -1
(the rise, length s) and the descending run starting at slot 0 (the descent,
length s'). Site 0 is vacant iff s and s' are both even, and its arrival time is

    tau_0 = xi_{-1}  if s is odd and s' even   (covered from the left)
          = xi_0     if s is even and s' odd   (covered from the right)
          = min(xi_{-1}, xi_0) if both are odd
          = +inf     if both are even.

Both batch estimators, sample_runs and autocovariance_mc, draw one strip of
uniform marks per chunk, transposed so that each slot is a contiguous row over
the replicas, and read a site's runs from the marks within w = _STRIP_BUFFER + 2
of it with one classifier (_site_runs). A replica whose run does not stop
inside that window is finished exactly on the lazy line, so no run is cut off.

Run lengths have 1/l! tails, so windows stay tiny; the cap exists only to turn
an astronomically unlikely runaway into a loud error instead of silent bias.
On every path, a run longer than the cap raises RareEventCapError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_SEED, EXP, UNIFORM, ArrivalDistribution, PriorityField, SeedSpec, as_generator, chunk_sizes, map_streams,
)
from .stats import MCEstimate, proportion_estimate

WINDOW_CAP = 10_000  # generated indices per side before aborting loudly
_CHUNK = 1 << 15  # replicas per stream in sample_runs
_AUTOCOV_CHUNK = 1 << 14  # replicas per stream in autocovariance_mc (strips are wider)
_STRIP_BUFFER = 6  # strip sites read marks within _STRIP_BUFFER + 2; 6 timed fastest of 3..12


class RareEventCapError(RuntimeError):
    """A window or run outgrew the configured cap (never silently truncated)."""


@dataclass(frozen=True, eq=False)
class WindowSample:
    """One exact sample of site 0 on the infinite line.

    xi_window spans [m-1, m'+1] where m = -rise_length and m' = descent_length-1
    are the bracketing local minima; the extra left mark lets the local-minimum
    invariant be checked. tau_0 is +inf when the site stays vacant.
    """

    xi_window: PriorityField
    occupancy_at_0: bool
    tau_0: float
    rise_length: int
    descent_length: int

    @property
    def left_min_index(self) -> int:
        return -self.rise_length

    @property
    def right_min_index(self) -> int:
        return self.descent_length - 1


class _LazyLine:
    """Marks of the integer line: `values` from slot `lo` on, extended by fresh
    draws, one per slot, in the order slots are first reached."""

    def __init__(self, rng: np.random.Generator, dist: ArrivalDistribution, values=(), lo: int = 0) -> None:
        self.rng, self.dist = rng, dist
        self.marks = {lo + j: float(v) for j, v in enumerate(values)}
        self.lo, self.hi = lo, lo + len(values) - 1

    def __call__(self, idx: int) -> float:
        while idx < self.lo:
            self.lo -= 1
            self.marks[self.lo] = float(self.dist.ppf(self.rng.random(1))[0])
        while idx > self.hi:
            self.hi += 1
            self.marks[self.hi] = float(self.dist.ppf(self.rng.random(1))[0])
        return self.marks[idx]

    def runs(self, site: int, cap: int) -> tuple[int, int]:
        """(rise, descent) at `site`: the descent ends at the first j >= 1 with
        xi_{site+j-1} <= xi_{site+j}, the rise at the first j >= 1 with
        xi_{site-j-1} > xi_{site-j} (equal marks: left slot first). The right
        side is walked first."""
        desc = 1
        while desc <= cap and not self(site + desc - 1) <= self(site + desc):
            desc += 1
        if desc > cap:
            raise RareEventCapError(f"descent run exceeded cap {cap}")
        rise = 1
        while rise <= cap and self(site - rise - 1) <= self(site - rise):
            rise += 1
        if rise > cap:
            raise RareEventCapError(f"rise run exceeded cap {cap}")
        return rise, desc


def sample_site_infinite(
    dist: ArrivalDistribution = EXP,
    rng: np.random.Generator | SeedSpec | None = None,
    cap: int = WINDOW_CAP,
) -> WindowSample:
    """Sample one window around site 0; marks are generated lazily outward.

    Draw order is fixed (right side xi_0, xi_1, ..., then left side xi_-1,
    xi_-2, ...), so a seed reproduces the sample bit for bit. Equal marks are
    ordered by slot index (left slot first), as everywhere in the package."""
    line = _LazyLine(as_generator(rng), dist)
    rise, desc = line.runs(0, cap)
    one = RunsSample(*(np.array([x]) for x in (rise, desc, line(-1), line(0))))
    return WindowSample(
        xi_window=PriorityField([line(i) for i in range(-rise - 1, desc + 1)], index_offset=-rise - 1),
        occupancy_at_0=not one.vacant[0],
        tau_0=float(one.tau()[0]),
        rise_length=rise,
        descent_length=desc,
    )


@dataclass(frozen=True, eq=False)
class RunsSample:
    """Batched (rise, descent, xi_-1, xi_0) draws for site 0; fallback_rows
    counts the replicas whose runs outgrew the strip window and were finished
    on the lazy line."""

    rise: np.ndarray
    descent: np.ndarray
    xi_left: np.ndarray
    xi_right: np.ndarray
    fallback_rows: int = 0

    @property
    def replicas(self) -> int:
        return int(self.rise.size)

    @property
    def vacant(self) -> np.ndarray:
        return (self.rise % 2 == 0) & (self.descent % 2 == 0)

    def tau(self) -> np.ndarray:
        covered_right = np.where(self.descent & 1, self.xi_right, np.inf)
        return np.minimum(covered_right, np.where(self.rise & 1, self.xi_left, np.inf))

    def density_at_time(self, t_grid) -> list[MCEstimate]:
        """P(tau_0 <= t) for each t of the grid, from this one batch, so the
        estimated curve is exactly nondecreasing in t."""
        tau = self.tau()
        return [proportion_estimate(int(np.count_nonzero(tau <= t)), self.replicas) for t in np.atleast_1d(t_grid)]


# _FIRST_STOP[b] is the length of the run whose stops are the set bits of b
# (bit j: the run stops at length j + 1), or 0 when no bit is set.
_FIRST_STOP = np.array([0] + [(b & -b).bit_length() for b in range(1, 256)], dtype=np.int64)
_STOP_BITS = 8  # stops one packed byte holds, so the largest window


def _pack_stops(rows: list[np.ndarray]) -> np.ndarray:
    """Bit j of each replica's byte is rows[j] (at most _STOP_BITS rows)."""
    bits = rows[0].astype(np.uint8)
    shifted = np.empty_like(bits)
    for j in range(1, len(rows)):
        np.left_shift(rows[j].view(np.uint8), j, out=shifted)
        bits |= shifted
    return bits


def _site_runs(asc: np.ndarray, c: int, w: int, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rise and descent lengths at strip row c, one per replica, read from the
    w descent stops and the w - 1 rise stops around it, and a flag for the
    replicas whose runs outgrew that window (their lengths are not set).

    asc[r] is the transposed strip's comparison row xi_r <= xi_{r+1} (equal
    marks: left slot first), so the descent stops at the first j >= 1 with
    asc[c + j - 1] and the rise at the first j >= 1 with not asc[c - j - 1].
    An in-window run longer than cap raises RareEventCapError, as the lazy
    line does for the rows it finishes."""
    if w > _STOP_BITS:
        raise ValueError(f"a window of {w} stops does not fit in {_STOP_BITS} bits")
    descent = _FIRST_STOP[_pack_stops([asc[c + j] for j in range(w)])]
    rise_bits = _pack_stops([asc[c - 2 - j] for j in range(w - 1)])
    rise = _FIRST_STOP[~rise_bits & ((1 << (w - 1)) - 1)]
    if max(rise.max(), descent.max()) > cap:
        raise RareEventCapError(f"run exceeded cap {cap}")
    return rise, descent, (rise == 0) | (descent == 0)


def _runs_chunk(size: int, rng: np.random.Generator, dist: ArrivalDistribution, cap: int) -> RunsSample:
    """Runs at site 0 from one transposed strip of uniform marks over slots
    -w..w, w = _STRIP_BUFFER + 2; only xi_-1 and xi_0 are mapped through
    dist. Replicas whose runs outgrow the window continue on the lazy line."""
    w = _STRIP_BUFFER + 2
    values = rng.random((2 * w + 1, size))
    rise, descent, outgrown = _site_runs(values[:-1] <= values[1:], w, w, cap)
    fallback = np.flatnonzero(outgrown)
    for row in fallback:  # about 1/w! of the replicas
        rise[row], descent[row] = _LazyLine(rng, UNIFORM, values[:, row], -w).runs(0, cap)
    return RunsSample(rise, descent, dist.ppf(values[w - 1]), dist.ppf(values[w]), int(fallback.size))


def sample_runs(
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
    dist: ArrivalDistribution = EXP,
    threads: int = 1,
    cap: int = WINDOW_CAP,
) -> RunsSample:
    """Vectorised window sampling, chunked into fixed-size independent streams
    (map_streams; chunk c of seed SeedSpec(m, r) is stream (m, (r, c))).

    Chunk boundaries do not depend on `threads`, so results are identical for
    any thread count."""
    if replicas < 1:
        raise ValueError("need at least 1 replica")
    parts = map_streams(
        lambda size, rng: _runs_chunk(size, rng, dist, cap), seed, chunk_sizes(replicas, _CHUNK), threads
    )
    return RunsSample(
        rise=np.concatenate([p.rise for p in parts]),
        descent=np.concatenate([p.descent for p in parts]),
        xi_left=np.concatenate([p.xi_left for p in parts]),
        xi_right=np.concatenate([p.xi_right for p in parts]),
        fallback_rows=sum(p.fallback_rows for p in parts),
    )


def vacancy_mc(
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
    dist: ArrivalDistribution = EXP,
    threads: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of P(site 0 vacant at jamming) on the line."""
    runs = sample_runs(replicas, seed, dist, threads)
    return proportion_estimate(int(runs.vacant.sum()), runs.replicas)


def density_at_time_mc(
    t_grid,
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
    dist: ArrivalDistribution = EXP,
    threads: int = 1,
) -> list[MCEstimate]:
    """P(site 0 occupied by time t) on a grid, one estimate per t, all from
    one batch (RunsSample.density_at_time)."""
    return sample_runs(replicas, seed, dist, threads).density_at_time(t_grid)


def odd_descent_time_prob_mc(
    t_grid,
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
    dist: ArrivalDistribution = EXP,
    threads: int = 1,
) -> list[MCEstimate]:
    """f(t) = P(xi_0 <= t and the descent at 0 is odd), estimated on a grid."""
    runs = sample_runs(replicas, seed, dist, threads)
    desc_odd = runs.descent % 2 == 1
    return [
        proportion_estimate(int((desc_odd & (runs.xi_right <= t)).sum()), runs.replicas)
        for t in np.atleast_1d(t_grid)
    ]


@dataclass(frozen=True)
class AutocovEstimate:
    """Estimated cov(X(0), X(k)) of the jammed occupancy field.

    both_vacant counts the pairs with both sites vacant; fallback_rows counts
    the pairs whose runs outgrew their windows and were classified exactly by
    extending the line."""

    k: int
    estimate: float
    stderr: float
    mean_site_0: float
    mean_site_k: float
    replicas: int
    both_vacant: int
    fallback_rows: int


def _scalar_occupancy_pair(values: np.ndarray, k: int, lo: int, rng, cap: int):
    """Fallback for strip rows whose runs outgrow their windows: extend the
    row's mark sequence lazily (fresh independent draws) and classify exactly."""
    line = _LazyLine(rng, UNIFORM, values, lo)
    rise0, desc0 = line.runs(0, cap)
    rise_k, desc_k = line.runs(k, cap)
    return bool(rise0 % 2 or desc0 % 2), bool(rise_k % 2 or desc_k % 2)


def _occupancy_pair_chunk(
    size: int, rng: np.random.Generator, k: int, cap: int, reflect: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupancy of sites 0 and k, and the rows sent to the fallback, from one
    transposed strip of uniform marks over slots -w..k+w, w = _STRIP_BUFFER + 2
    (strip row r holds slot r - w of every replica).

    Each site reads only the marks within w of it (_site_runs); a replica
    whose runs outgrow a site's window is classified by _scalar_occupancy_pair."""
    w = _STRIP_BUFFER + 2
    values = rng.random((k + 2 * w + 1, size))
    if reflect:
        values = values[::-1]  # mirrored field; site j maps to k - j
    asc = values[:-1] <= values[1:]

    def occupancy(c: int) -> tuple[np.ndarray, np.ndarray]:
        rise, descent, outgrown = _site_runs(asc, c, w, cap)
        return ((rise | descent) & 1).astype(bool), outgrown  # occupied iff a run is odd

    occ0, out0 = occupancy(w)
    occk, outk = occupancy(w + k) if k else (occ0, out0)
    fallback = out0 | outk
    for row in np.flatnonzero(fallback):  # about 2/w! of the rows, kept exact anyway
        occ0[row], occk[row] = _scalar_occupancy_pair(values[:, row], k, -w, rng, cap)
    return occ0, occk, fallback


def autocovariance_mc(
    k: int,
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
    threads: int = 1,
    reflected: bool = False,
    cap: int = WINDOW_CAP,
) -> AutocovEstimate:
    """Estimate cov(X(0), X(k)) of the jammed field on the line.

    Occupancy depends only on the ordering of the marks, so the kernel samples
    uniform marks; `reflected` classifies the mirrored field instead (the law
    is reflection-invariant, which tests use as a consistency check)."""
    if k < 0:
        raise ValueError("lag must be >= 0")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    parts = map_streams(
        lambda size, rng: _occupancy_pair_chunk(size, rng, k, cap, reflected),
        seed,
        chunk_sizes(replicas, _AUTOCOV_CHUNK),
        threads,
    )
    x = np.concatenate([p[0] for p in parts]).astype(np.float64)
    y = np.concatenate([p[1] for p in parts]).astype(np.float64)
    r = x.size
    prod = (x - x.mean()) * (y - y.mean())
    cov = float(prod.sum() / (r - 1))
    stderr = float(prod.std(ddof=1) / math.sqrt(r))
    return AutocovEstimate(
        k=k,
        estimate=cov,
        stderr=stderr,
        mean_site_0=float(x.mean()),
        mean_site_k=float(y.mean()),
        replicas=r,
        both_vacant=int(np.count_nonzero((x == 0) & (y == 0))),
        fallback_rows=sum(int(np.count_nonzero(p[2])) for p in parts),
    )
