"""Jamming on the integer line, sampled exactly through local windows.

Site 0 is classified by growing the mark sequence outward until the first
strict local minimum appears on each side: the ascending run ending at slot -1
(the rise, length s) and the descending run starting at slot 0 (the descent,
length s'). Site 0 is vacant iff s and s' are both even, and its arrival time is

    tau_0 = xi_{-1}  if s is odd and s' even   (covered from the left)
          = xi_0     if s is even and s' odd   (covered from the right)
          = min(xi_{-1}, xi_0) if both are odd
          = +inf     if both are even.

Run lengths have 1/l! tails, so windows stay tiny; the cap exists only to turn
an astronomically unlikely runaway into a loud error instead of silent bias.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_SEED, EXP, UNIFORM, ArrivalDistribution, PriorityField, SeedSpec, as_generator, map_streams
from .stats import MCEstimate, proportion_estimate

WINDOW_CAP = 10_000  # generated indices per side before aborting loudly
_CHUNK = 1 << 15  # replicas per stream in sample_runs
_AUTOCOV_CHUNK = 1 << 14  # replicas per stream in autocovariance_mc (strips are wider)
_STRIP_BUFFER = 6  # autocovariance sites read marks within _STRIP_BUFFER + 2; 6 timed fastest of 3..12


class RareEventCapError(RuntimeError):
    """A window or run outgrew the configured cap (never silently truncated)."""


def _chunk_sizes(replicas: int, chunk: int) -> list[int]:
    return [chunk] * (replicas // chunk) + ([replicas % chunk] if replicas % chunk else [])


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


def _run_lengths_batch(
    rng: np.random.Generator,
    dist: ArrivalDistribution,
    size: int,
    cap: int,
    left_side: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Run length and first mark for one side of `size` replicas.

    Right side: length = first j >= 1 with xi_{j-1} <= xi_j. Left side mirrors
    it with the tie broken the other way (smaller slot index acts first)."""
    first = dist.ppf(rng.random(size))
    length = np.ones(size, dtype=np.int64)
    prev = first.copy()
    alive = np.arange(size)
    j = 1
    while alive.size:
        if j > cap:
            raise RareEventCapError(f"run exceeded cap {cap} for {alive.size} replicas")
        draws = dist.ppf(rng.random(alive.size))
        if left_side:
            cont = draws <= prev[alive]
        else:
            cont = prev[alive] > draws
        stopped = alive[~cont]
        length[stopped] = j
        keep = alive[cont]
        prev[keep] = draws[cont]
        alive = keep
        j += 1
    return length, first


@dataclass(frozen=True, eq=False)
class RunsSample:
    """Batched (rise, descent, xi_-1, xi_0) draws for site 0."""

    rise: np.ndarray
    descent: np.ndarray
    xi_left: np.ndarray
    xi_right: np.ndarray

    @property
    def replicas(self) -> int:
        return int(self.rise.size)

    @property
    def vacant(self) -> np.ndarray:
        return (self.rise % 2 == 0) & (self.descent % 2 == 0)

    def tau(self) -> np.ndarray:
        rise_odd = self.rise % 2 == 1
        desc_odd = self.descent % 2 == 1
        tau = np.full(self.replicas, np.inf)
        tau[rise_odd] = self.xi_left[rise_odd]
        only_desc = desc_odd & ~rise_odd
        tau[only_desc] = self.xi_right[only_desc]
        both = rise_odd & desc_odd
        tau[both] = np.minimum(self.xi_left[both], self.xi_right[both])
        return tau


def _runs_chunk(size: int, rng: np.random.Generator, dist: ArrivalDistribution, cap: int) -> RunsSample:
    desc, xi_right = _run_lengths_batch(rng, dist, size, cap, left_side=False)
    rise, xi_left = _run_lengths_batch(rng, dist, size, cap, left_side=True)
    return RunsSample(rise=rise, descent=desc, xi_left=xi_left, xi_right=xi_right)


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
        lambda size, rng: _runs_chunk(size, rng, dist, cap), seed, _chunk_sizes(replicas, _CHUNK), threads
    )
    return RunsSample(
        rise=np.concatenate([p.rise for p in parts]),
        descent=np.concatenate([p.descent for p in parts]),
        xi_left=np.concatenate([p.xi_left for p in parts]),
        xi_right=np.concatenate([p.xi_right for p in parts]),
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
    """P(site 0 occupied by time t) on a grid, one estimate per t.

    A single batch of arrival times serves the whole grid, so the estimated
    curve is exactly nondecreasing in t."""
    runs = sample_runs(replicas, seed, dist, threads)
    tau = runs.tau()
    return [proportion_estimate(int((tau <= t).sum()), runs.replicas) for t in np.atleast_1d(t_grid)]


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
    strip of uniform marks per replica over slots -w..k+w, w = _STRIP_BUFFER + 2.

    Each site reads only the marks within w of it; a row where a run does not
    stop inside its site's window is classified by _scalar_occupancy_pair."""
    w = _STRIP_BUFFER + 2
    values = rng.random((size, k + 2 * w + 1))
    if reflect:
        values = values[:, ::-1]  # mirrored field; site j maps to k - j
    asc = values[:, :-1] <= values[:, 1:]  # column c compares slots c - w and c - w + 1
    rows = np.arange(size)

    def site_occupancy(c: int) -> tuple[np.ndarray, np.ndarray]:
        # first stop of each run, counted from 0 (run length = index + 1)
        right = asc[:, c : c + w]  # descent stops: xi_{s+j-1} <= xi_{s+j}, j = 1..w
        left = ~asc[:, c - w : c - 1][:, ::-1]  # rise stops: xi_{s-j-1} > xi_{s-j}, j = 1..w-1
        desc = right.argmax(axis=1)
        rise = left.argmax(axis=1)
        return (rise & desc & 1) == 0, ~(right[rows, desc] & left[rows, rise])

    occ0, edge0 = site_occupancy(w)
    occk, edgek = site_occupancy(w + k) if k else (occ0, edge0)
    edge = edge0 | edgek
    for row in np.flatnonzero(edge):  # about 2/w! of the rows, kept exact anyway
        occ0[row], occk[row] = _scalar_occupancy_pair(values[row], k, -w, rng, cap)
    return occ0, occk, edge


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
        _chunk_sizes(replicas, _AUTOCOV_CHUNK),
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
