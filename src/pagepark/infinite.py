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

sample_site_infinite grows one line lazily and is the reference. The batch
samplers, sample_runs (site 0: density curve, vacancy, f(t)),
density_curve_mc (site 0's density curve alone) and autocovariance_mc
(site 0 against each lag of a list), read one kernel,
_line_runs, which draws only the marks the runs read: per chunk, a dense core
over slots -1..K (K the largest lag), one contiguous row per slot over the
replicas, then two walks outward that draw one fresh mark per step for the
replicas whose run is still open: right from slot K (the descent at K) and
left from slot -1 (the rise at 0). Two row recurrences over the core carry
these to every site 0..K. Each rise and descent has P(length >= j) = 1/j!, so
sample_runs reads about 2e marks per replica. All lags come from one sample,
so autocovariance_mc's estimates at different lags are dependent; each lag's
estimate, and each check on it, holds on its own. Each chunk is reduced where
it is drawn: sample_runs' chunks carry the per-replica runs, tau_0 and xi_0,
copied into its result; density_curve_mc's only the count of tau_0 at or below
each grid time, and autocovariance_mc's one 2x2 occupancy table per lag. These
two hold no per-replica array beyond a chunk, and none of the three makes a
pass over the whole sample.

Run lengths have 1/l! tails, so walks stay short; WINDOW_CAP exists only to
turn an astronomically unlikely runaway into a loud error instead of silent
bias. On every path, a run longer than WINDOW_CAP at a site the estimate reads
raises RareEventCapError.
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
_CHUNK = 1 << 15  # replicas per stream in sample_runs and density_curve_mc
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


def _arrivals_by(tau: np.ndarray, t_grid, dist: ArrivalDistribution) -> list[int]:
    """For each t of the grid, the number of uniform arrival times tau_0 at or
    below dist.cdf(t): the one counting rule of the density curve."""
    return [int(np.count_nonzero(tau <= dist.cdf(float(t)))) for t in np.atleast_1d(t_grid)]


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
        return [proportion_estimate(h, self.replicas) for h in _arrivals_by(self.tau, t_grid, dist)]

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


def _line_runs(size: int, rng: np.random.Generator, lags) -> tuple[np.ndarray, dict, dict]:
    """(rise, descent) at site 0 and at each lag of the increasing list
    `lags`, one per replica, drawing only the marks the runs read. Draw order:
    a dense core of uniform marks over slots -1..K, K the largest lag, one
    contiguous row per slot over the replicas (core row r holds slot r - 1);
    then the walk right from slot K (the descent at K); then the walk left
    from slot -1 (the rise at 0). Two row recurrences carry them over the
    core, equal marks ordered left slot first:
        descent(j) = 1, or 1 + descent(j + 1) when xi_j > xi_{j+1};
        rise(j) = 1, or 1 + rise(j - 1) when xi_{j-2} <= xi_{j-1}.
    Returns the core and, by site, the runs and the longest of the two. A run
    longer than WINDOW_CAP at a listed site raises RareEventCapError."""
    top = lags[-1]
    core = rng.random((top + 2, size))
    walks = _walk(core[top + 1], rng, leftward=False), _walk(core[0], rng, leftward=True)
    # a run crossing the core is at most top + WINDOW_CAP long; int16 holds it below 2^15
    descent, rise = (w.astype(np.int32) for w in walks) if top + WINDOW_CAP >= 1 << 15 else walks
    sites = {0, *lags}
    descents, rises = {top: descent}, {0: rise}
    for j in range(top - 1, -1, -1):
        descent = (core[j + 1] > core[j + 2]) * descent + 1
        if j in sites:
            descents[j] = descent
    for j in range(1, top + 1):
        rise = (core[j - 1] <= core[j]) * rise + 1
        if j in sites:
            rises[j] = rise
    runs = {j: (rises[j], descents[j]) for j in sorted(sites)}
    longest = {j: max(int(r.max()), int(d.max())) for j, (r, d) in runs.items()}
    if max(longest.values()) > WINDOW_CAP:
        raise RareEventCapError(f"run exceeded cap {WINDOW_CAP}")
    return core, runs, longest


def _runs_chunk(size: int, rng: np.random.Generator) -> RunsSample:
    """Runs at site 0 (_line_runs at K = 0) and tau_0 from the marks xi_-1
    and xi_0, the core's two rows."""
    core, runs, longest = _line_runs(size, rng, (0,))
    rise, descent = runs[0]
    return RunsSample(rise, descent, _arrival_time(rise, descent, core[0], core[1]), core[1], longest[0])


def sample_runs(replicas: int, seed: int | SeedSpec = DEFAULT_SEED) -> RunsSample:
    """Vectorised window sampling, chunked into fixed-size independent streams
    (map_streams; chunk c of seed SeedSpec(m, r) is child stream c), drawn on
    the pool of usable CPUs. Chunk boundaries depend on `replicas` alone,
    so results are identical for any CPU count. Each chunk is copied into its
    slice of the result as it arrives, but the pool may finish chunks ahead of
    the copy, and those wait in memory besides the result."""
    if replicas < 1:
        raise ValueError("need at least 1 replica")
    rise, descent = np.empty(replicas, np.int16), np.empty(replicas, np.int16)
    tau, xi_right = np.empty(replicas), np.empty(replicas)
    start = longest = 0
    jobs = chunk_sizes(replicas, _CHUNK)
    for part in map_streams(_runs_chunk, seed, jobs):
        rows = slice(start, start + part.replicas)
        rise[rows], descent[rows], tau[rows], xi_right[rows] = part.rise, part.descent, part.tau, part.xi_right
        start, longest = rows.stop, max(longest, part.longest_run)
    return RunsSample(rise, descent, tau, xi_right, longest)


def density_curve_mc(
    t_grid,
    replicas: int,
    seed: int | SeedSpec = DEFAULT_SEED,
    *,
    dist: ArrivalDistribution = EXP,
) -> tuple[list[MCEstimate], int]:
    """P(tau_0 <= t) under marks of law dist for each t of the grid, and the
    longest run drawn: sample_runs(replicas, seed).density_at_time(t_grid,
    dist) and its longest_run, bit for bit, from the same chunks on the same
    streams. Each chunk is reduced to its counts of tau_0 at or below each
    grid time in the worker that drew it, so no per-replica array outlives
    its chunk."""
    if replicas < 1:
        raise ValueError("need at least 1 replica")

    def counts(size: int, rng: np.random.Generator) -> tuple[list[int], int]:
        part = _runs_chunk(size, rng)
        return _arrivals_by(part.tau, t_grid, dist), part.longest_run

    hits, longest = [0] * np.atleast_1d(t_grid).size, 0
    for got, run in map_streams(counts, seed, chunk_sizes(replicas, _CHUNK)):
        hits, longest = [a + b for a, b in zip(hits, got)], max(longest, run)
    return [proportion_estimate(h, replicas) for h in hits], longest


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


def _occupancy_chunk(size: int, rng: np.random.Generator, lags) -> list[tuple[tuple[int, int, int, int], int]]:
    """For each lag k, the occupancy table (n00, n01, n10, n11) of sites 0
    and k, where n_ab counts the replicas with X(0) = a and X(k) = b (a site
    is occupied iff a run at it is odd), and the longest of the four runs at
    the two sites, all from one _line_runs sample."""
    _, runs, longest = _line_runs(size, rng, lags)
    occ = {j: (rise | descent) & 1 for j, (rise, descent) in runs.items()}
    at_0 = int(np.count_nonzero(occ[0]))
    tables = []
    for k in lags:
        at_k, n11 = int(np.count_nonzero(occ[k])), int(np.count_nonzero(occ[0] & occ[k]))
        tables.append(((size - at_0 - at_k + n11, at_k - n11, at_0 - n11, n11), max(longest[0], longest[k])))
    return tables


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


def autocovariance_mc(lags, replicas: int, seed: int | SeedSpec = DEFAULT_SEED) -> list[AutocovEstimate]:
    """Estimate cov(X(0), X(k)) of the jammed field on the line at each lag k
    of the increasing list `lags`, one estimate per lag, in order. Every lag
    is read off the same pairs (sites 0..max(lags) of one line per replica),
    so the estimates at different lags are dependent, but each has the law of
    a one-lag estimate; the largest lag's is bit for bit the one-lag call's on
    the same seed."""
    lags = list(lags)
    if not lags or lags[0] < 0 or any(a >= b for a, b in zip(lags, lags[1:])):
        raise ValueError("lags must be a nonempty increasing list of integers >= 0")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    totals = [((0, 0, 0, 0), 0)] * len(lags)  # per lag: the summed table and the longest run
    jobs = chunk_sizes(replicas, _AUTOCOV_CHUNK)
    for part in map_streams(lambda size, rng: _occupancy_chunk(size, rng, lags), seed, jobs):
        totals = [(tuple(map(sum, zip(table, got))), max(run, r)) for (table, run), (got, r) in zip(totals, part)]
    return [_autocov_estimate(k, *total) for k, total in zip(lags, totals)]
