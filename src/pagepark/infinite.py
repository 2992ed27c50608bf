"""Jamming on the integer line, sampled exactly through local windows.

Site 0 is classified by growing the mark sequence outward until the first
strict local minimum appears on each side: the ascending run ending at slot -1
(the rise, length s) and the descending run starting at slot 0 (the descent,
length s'). Site 0 is vacant iff s and s' are both even, and its arrival time is

    tau_0 = xi_{-1}  if s is odd and s' even   (covered from the left)
          = xi_0     if s is even and s' odd   (covered from the right)
          = min(xi_{-1}, xi_0) if both are odd
          = +inf     if both are even.

The jammed field depends on the marks only through their order, so every
sampler here draws plain Uniform(0, 1) marks and takes no law: tau_0 is a time
under uniform marks. A mark law F enters only at the estimate, through
P(tau_0 <= t) = P(tau_0^U <= F(t)), as in the closed form 1 - e^(-2F(t)).

sample_site_infinite grows one line lazily and is the reference. The two batch
estimators, sample_runs (site 0: density curve, vacancy, f(t)) and
autocovariance_mc (sites 0 and k), read one kernel, _pair_runs, which draws
only the marks the runs read: per chunk, a dense core over slots -1..k, one
contiguous row per slot over the replicas, then two walks outward that draw
one fresh mark per step for the replicas whose run is still open. Going right
from slot k, one walk gives the descent at k; going left from slot -1, the
other gives the rise at 0. Each rise and descent has P(length >= j) = 1/j!, so
sample_runs reads about 2e marks per replica. Each chunk is reduced where it
is drawn: sample_runs' chunks carry tau_0, and autocovariance_mc's a 2x2
occupancy table, so no pass runs over the whole sample.

Run lengths have 1/l! tails, so walks stay short; WINDOW_CAP exists only to
turn an astronomically unlikely runaway into a loud error instead of silent
bias. On every path, a run longer than WINDOW_CAP raises RareEventCapError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_SEED, EXP, ArrivalDistribution, SeedSpec, as_generator, chunk_sizes, map_streams,
)
from .stats import MCEstimate, proportion_estimate

WINDOW_CAP = 10_000  # longest run before aborting loudly; read at call time
_CHUNK = 1 << 15  # replicas per stream in sample_runs
_AUTOCOV_CHUNK = 1 << 14  # replicas per stream in autocovariance_mc (its cores are wider)


class RareEventCapError(RuntimeError):
    """A run outgrew WINDOW_CAP (never silently truncated)."""


@dataclass(frozen=True, eq=False)
class WindowSample:
    """One exact sample of site 0 on the infinite line.

    xi_window holds the marks of slots m-1 .. m'+1, where m = left_min_index =
    -rise_length and m' = right_min_index = descent_length-1 are the
    bracketing local minima (so xi_window[j - m + 1] is the mark of slot j);
    the extra left mark lets the local-minimum invariant be checked. Marks and
    tau_0 are Uniform(0, 1) times; tau_0 is +inf when the site stays vacant.
    """

    xi_window: np.ndarray
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
    """Uniform marks of the integer line: `values` from slot `lo` on, extended
    by fresh draws, one per slot, in the order slots are first reached."""

    def __init__(self, rng: np.random.Generator, values=(), lo: int = 0) -> None:
        self.rng = rng
        self.marks = {lo + j: float(v) for j, v in enumerate(values)}
        self.lo, self.hi = lo, lo + len(values) - 1

    def __call__(self, idx: int) -> float:
        while idx < self.lo:
            self.lo -= 1
            self.marks[self.lo] = float(self.rng.random(1)[0])
        while idx > self.hi:
            self.hi += 1
            self.marks[self.hi] = float(self.rng.random(1)[0])
        return self.marks[idx]

    def runs(self, site: int) -> tuple[int, int]:
        """(rise, descent) at `site`: the descent ends at the first j >= 1 with
        xi_{site+j-1} <= xi_{site+j}, the rise at the first j >= 1 with
        xi_{site-j-1} > xi_{site-j} (equal marks: left slot first). The right
        side is walked first."""
        cap = WINDOW_CAP
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


def sample_site_infinite(rng: np.random.Generator | SeedSpec | None = None) -> WindowSample:
    """Sample one window around site 0; marks are generated lazily outward.

    Draw order is fixed (right side xi_0, xi_1, ..., then left side xi_-1,
    xi_-2, ...), so a seed reproduces the sample bit for bit. Equal marks are
    ordered by slot index (left slot first), as everywhere in the package."""
    line = _LazyLine(as_generator(rng))
    rise, desc = line.runs(0)
    return WindowSample(
        xi_window=np.array([line(i) for i in range(-rise - 1, desc + 1)]),
        occupancy_at_0=bool((rise | desc) & 1),
        tau_0=float(_arrival_time(rise, desc, line(-1), line(0))),
        rise_length=rise,
        descent_length=desc,
    )


_UNCOVERED = np.array([np.inf, 0.0])  # added to a mark, by its run's parity: even runs do not cover the site


def _arrival_time(rise, descent, xi_left, xi_right):
    """tau_0 from the runs at site 0 and the marks xi_-1 and xi_0 (the rule
    of the module docstring), elementwise over arrays or for one replica."""
    return np.minimum(xi_right + _UNCOVERED.take(descent & 1), xi_left + _UNCOVERED.take(rise & 1))


@dataclass(frozen=True, eq=False)
class RunsSample:
    """Batched draws for site 0: the rise and descent, the arrival time
    tau_0 (+inf when vacant) and the mark xi_0, both under Uniform(0, 1)
    marks, and the longest run drawn, against WINDOW_CAP."""

    rise: np.ndarray
    descent: np.ndarray
    tau: np.ndarray
    xi_right: np.ndarray
    longest_run: int

    @property
    def replicas(self) -> int:
        return int(self.rise.size)

    @property
    def vacant(self) -> np.ndarray:
        return (self.rise % 2 == 0) & (self.descent % 2 == 0)

    def density_at_time(self, t_grid, dist: ArrivalDistribution = EXP) -> list[MCEstimate]:
        """P(tau_0 <= t) under marks of law dist for each t of the grid: the
        share of uniform arrival times <= dist.cdf(t). One batch serves the
        whole grid, so the estimated curve is exactly nondecreasing in t."""
        return [
            proportion_estimate(int(np.count_nonzero(self.tau <= dist.cdf(float(t)))), self.replicas)
            for t in np.atleast_1d(t_grid)
        ]

    def odd_descent_time_prob(self, t_grid, dist: ArrivalDistribution = EXP) -> list[MCEstimate]:
        """f(t) = P(xi_0 <= t and the descent at 0 is odd) under marks of law
        dist, for each t of the grid."""
        odd = self.descent % 2 == 1
        return [
            proportion_estimate(int(np.count_nonzero(odd & (self.xi_right <= dist.cdf(float(t))))), self.replicas)
            for t in np.atleast_1d(t_grid)
        ]


def _walk(start: np.ndarray, rng: np.random.Generator, leftward: bool) -> np.ndarray:
    """Lengths of the runs that leave the core from the marks `start`, one per
    replica. Each step draws one fresh mark for the replicas whose run is still
    open, in replica order: a descent walking right goes on while the fresh
    mark is below the last, a rise walking left while it is at most the last
    (equal marks: left slot first). A run longer than WINDOW_CAP raises
    RareEventCapError; int16 holds every length up to it."""
    length = np.ones(start.size, np.int16)
    idx, last, j = None, start, 1  # idx: the open replicas; None while all are
    while last.size:
        if j > WINDOW_CAP:
            raise RareEventCapError(f"run exceeded cap {WINDOW_CAP}")
        fresh = rng.random(last.size)
        keep = np.flatnonzero(fresh <= last if leftward else fresh < last)
        idx, last, j = keep if idx is None else idx.take(keep), fresh.take(keep), j + 1
        length[idx] = j
    return length


def _cross(steps, tail: np.ndarray, k: int) -> np.ndarray:
    """Lengths of the runs that go on while each of `steps` (the core's k
    boolean rows, in walking order, evaluated lazily) holds: a run that holds
    through all k continues as the walk `tail` of the site it reaches, so its
    length is k + tail. A run longer than WINDOW_CAP raises RareEventCapError."""
    length = np.ones(tail.size, np.int16)
    for j, step in enumerate(steps, 1):
        open_ = step if j == 1 else open_ & step
        if not open_.any():
            return length
        if j >= WINDOW_CAP:
            raise RareEventCapError(f"run exceeded cap {WINDOW_CAP}")
        length += open_
    idx = np.flatnonzero(open_)
    through = tail.take(idx)
    if k + int(through.max()) > WINDOW_CAP:
        raise RareEventCapError(f"run exceeded cap {WINDOW_CAP}")
    length[idx] = through + k
    return length


def _pair_runs(size: int, rng: np.random.Generator, k: int) -> tuple[np.ndarray, tuple, tuple]:
    """(rise, descent) at sites 0 and k, one per replica, drawing only the
    marks the runs read. Draw order: a dense core of uniform marks over slots
    -1..k, one contiguous row per slot over the replicas (core row r holds
    slot r - 1); then the walk right from slot k (the descent at k); then the
    walk left from slot -1 (the rise at 0). The descent at 0 and the rise at k
    are read from the core; a run crossing the whole core goes on as the other
    site's walk. Returns the core and both sites' runs."""
    core = rng.random((k + 2, size))
    desc_k = _walk(core[k + 1], rng, leftward=False)
    rise_0 = _walk(core[0], rng, leftward=True)
    if not k:
        return core, (rise_0, desc_k), (rise_0, desc_k)
    desc_0 = _cross((core[j] > core[j + 1] for j in range(1, k + 1)), desc_k, k)
    rise_k = _cross((core[j - 1] <= core[j] for j in range(k, 0, -1)), rise_0, k)
    return core, (rise_0, desc_0), (rise_k, desc_k)


def _runs_chunk(size: int, rng: np.random.Generator) -> RunsSample:
    """Runs at site 0 (_pair_runs at k = 0) and tau_0 from the marks xi_-1 and
    xi_0, the core's two rows."""
    core, (rise, descent), _ = _pair_runs(size, rng, 0)
    longest = max(int(rise.max()), int(descent.max()))
    return RunsSample(rise, descent, _arrival_time(rise, descent, core[0], core[1]), core[1], longest)


def sample_runs(
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
    threads: int = 1,
) -> RunsSample:
    """Vectorised window sampling, chunked into fixed-size independent streams
    (map_streams; chunk c of seed SeedSpec(m, r) is stream (m, (r, c))).

    Chunk boundaries do not depend on `threads`, so results are identical for
    any thread count. Each chunk is copied into its slice of the result as it
    arrives, so at most a few chunks are held besides the result."""
    if replicas < 1:
        raise ValueError("need at least 1 replica")
    rise, descent = np.empty(replicas, np.int16), np.empty(replicas, np.int16)
    tau, xi_right = np.empty(replicas), np.empty(replicas)
    start = longest = 0
    jobs = chunk_sizes(replicas, _CHUNK)
    for part in map_streams(_runs_chunk, seed, jobs, threads):
        rows = slice(start, start + part.replicas)
        rise[rows], descent[rows], tau[rows], xi_right[rows] = part.rise, part.descent, part.tau, part.xi_right
        start, longest = rows.stop, max(longest, part.longest_run)
    return RunsSample(rise, descent, tau, xi_right, longest)


@dataclass(frozen=True)
class AutocovEstimate:
    """Estimated cov(X(0), X(k)) of the jammed occupancy field.

    both_vacant counts the pairs with both sites vacant; longest_run is the
    longest run drawn at either site, against WINDOW_CAP."""

    k: int
    estimate: float
    stderr: float
    mean_site_0: float
    mean_site_k: float
    replicas: int
    both_vacant: int
    longest_run: int


def _occupancy_pair_chunk(size: int, rng: np.random.Generator, k: int) -> tuple[tuple[int, int, int, int], int]:
    """The occupancy table (n00, n01, n10, n11) of sites 0 and k, where n_ab
    counts the replicas with X(0) = a and X(k) = b (a site is occupied iff a
    run at it is odd), and the longest run, from _pair_runs."""
    _, runs_0, runs_k = _pair_runs(size, rng, k)
    occ_0, occ_k = [((rise | descent) & 1).astype(bool) for rise, descent in (runs_0, runs_k)]
    at_0, at_k = int(np.count_nonzero(occ_0)), int(np.count_nonzero(occ_k))
    n11 = int(np.count_nonzero(occ_0 & occ_k))
    return (size - at_0 - at_k + n11, at_k - n11, at_0 - n11, n11), max(int(r.max()) for r in (*runs_0, *runs_k))


def _autocov_estimate(k: int, table: tuple[int, int, int, int], longest_run: int) -> AutocovEstimate:
    """The sample covariance of X(0) and X(k) and its standard error from
    their occupancy table (n00, n01, n10, n11): each product
    (x - mean x)(y - mean y) takes one of four values, so both moments are
    exact rationals, rounded once (the standard error once more, by its
    square root)."""
    r = sum(table)
    x_bar, y_bar = Fraction(table[2] + table[3], r), Fraction(table[1] + table[3], r)
    prods = [(a - x_bar) * (b - y_bar) for a in (0, 1) for b in (0, 1)]
    total = sum(n * p for n, p in zip(table, prods))
    squares = sum(n * p * p for n, p in zip(table, prods))
    return AutocovEstimate(
        k=k,
        estimate=float(total / (r - 1)),
        stderr=math.sqrt((squares - total * total / r) / (r - 1) / r),
        mean_site_0=float(x_bar),
        mean_site_k=float(y_bar),
        replicas=r,
        both_vacant=table[0],
        longest_run=longest_run,
    )


def autocovariance_mc(
    k: int,
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
    threads: int = 1,
) -> AutocovEstimate:
    """Estimate cov(X(0), X(k)) of the jammed field on the line."""
    if k < 0:
        raise ValueError("lag must be >= 0")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    table, longest = (0, 0, 0, 0), 0
    for part, run in map_streams(
        lambda size, rng: _occupancy_pair_chunk(size, rng, k), seed, chunk_sizes(replicas, _AUTOCOV_CHUNK), threads
    ):
        table, longest = tuple(map(sum, zip(table, part))), max(longest, run)
    return _autocov_estimate(k, table, longest)
