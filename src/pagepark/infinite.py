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
autocovariance_mc (sites 0 and k), read one kernel, _strip_runs: per chunk it
draws one strip of uniform marks, transposed so that each slot is a contiguous
row over the replicas, and reads each site's runs from the marks within
w = _STRIP_BUFFER + 2 of it (_site_runs). A replica whose run does not stop
inside that window is finished exactly on the lazy line, so no run is cut off.
Each chunk is reduced where it is drawn: sample_runs' chunks carry tau_0, and
autocovariance_mc's a 2x2 occupancy table, so no pass runs over the whole
sample.

Run lengths have 1/l! tails, so windows stay tiny; WINDOW_CAP exists only to
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
_AUTOCOV_CHUNK = 1 << 14  # replicas per stream in autocovariance_mc (strips are wider)
_STRIP_BUFFER = 6  # strip sites read marks within w = _STRIP_BUFFER + 2; w must fit in _STOP_BITS = 8, so 6 at most


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


def _arrival_time(rise, descent, xi_left, xi_right):
    """tau_0 from the runs at site 0 and the marks xi_-1 and xi_0 (the rule
    of the module docstring), elementwise over arrays or for one replica."""
    covered_right = np.where(descent & 1, xi_right, np.inf)
    return np.minimum(covered_right, np.where(rise & 1, xi_left, np.inf))


@dataclass(frozen=True, eq=False)
class RunsSample:
    """Batched draws for site 0: the rise and descent, the arrival time
    tau_0 (+inf when vacant) and the mark xi_0, both under Uniform(0, 1)
    marks. fallback_rows counts the replicas whose runs outgrew the strip
    window and were finished on the lazy line."""

    rise: np.ndarray
    descent: np.ndarray
    tau: np.ndarray
    xi_right: np.ndarray
    fallback_rows: int = 0

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


# _FIRST_STOP[b] is the length of the run whose stops are the set bits of b
# (bit j: the run stops at length j + 1), or 0 when no bit is set. Run lengths
# are stored in its dtype, int16, which holds every length up to WINDOW_CAP.
_FIRST_STOP = np.array([0] + [(b & -b).bit_length() for b in range(1, 256)], dtype=np.int16)
_STOP_BITS = 8  # stops one packed byte holds, so the largest window


def _pack_stops(rows: list[np.ndarray]) -> np.ndarray:
    """Bit j of each replica's byte is rows[j] (at most _STOP_BITS rows)."""
    bits = rows[0].astype(np.uint8)
    shifted = np.empty_like(bits)
    for j in range(1, len(rows)):
        np.left_shift(rows[j].view(np.uint8), j, out=shifted)
        bits |= shifted
    return bits


def _site_runs(asc: np.ndarray, c: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rise and descent lengths at strip row c, one per replica, read from the
    w descent stops and the w - 1 rise stops around it, and a flag for the
    replicas whose runs outgrew that window (their lengths are not set).

    asc[r] is the transposed strip's comparison row xi_r <= xi_{r+1} (equal
    marks: left slot first), so the descent stops at the first j >= 1 with
    asc[c + j - 1] and the rise at the first j >= 1 with not asc[c - j - 1].
    An in-window run longer than WINDOW_CAP raises RareEventCapError, as the
    lazy line does for the rows it finishes."""
    if w > _STOP_BITS:
        raise ValueError(f"a window of {w} stops does not fit in {_STOP_BITS} bits")
    descent = _FIRST_STOP[_pack_stops([asc[c + j] for j in range(w)])]
    rise_bits = _pack_stops([asc[c - 2 - j] for j in range(w - 1)])
    rise = _FIRST_STOP[~rise_bits & ((1 << (w - 1)) - 1)]
    if max(rise.max(), descent.max()) > WINDOW_CAP:
        raise RareEventCapError(f"run exceeded cap {WINDOW_CAP}")
    return rise, descent, (rise == 0) | (descent == 0)


def _strip_runs(
    size: int, rng: np.random.Generator, sites: tuple[int, ...]
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], int]:
    """Rise and descent lengths at each of `sites` (increasing, from 0), one
    per replica, from one transposed strip of uniform marks over slots
    -w..sites[-1]+w, w = _STRIP_BUFFER + 2 (strip row r holds slot r - w).

    Each site reads only the marks within w of it (_site_runs). A replica
    whose runs outgrow any site's window is finished on one lazy line that
    continues its strip row, classifying the sites in order. Returns the
    strip, each site's (rise, descent), and the count of finished replicas."""
    w = _STRIP_BUFFER + 2
    strip = rng.random((sites[-1] + 2 * w + 1, size))
    asc = strip[:-1] <= strip[1:]
    runs = [_site_runs(asc, w + site, w) for site in sites]
    fallback = np.flatnonzero(np.logical_or.reduce([outgrown for _, _, outgrown in runs]))
    for row in fallback:  # about len(sites)/w! of the replicas
        line = _LazyLine(rng, strip[:, row], -w)
        for site, (rise, descent, _) in zip(sites, runs):
            rise[row], descent[row] = line.runs(site)
    return strip, [(rise, descent) for rise, descent, _ in runs], int(fallback.size)


def _runs_chunk(size: int, rng: np.random.Generator) -> RunsSample:
    """Runs at site 0 (_strip_runs) and tau_0 from the marks xi_-1 and xi_0.
    xi_0 is copied out of the strip, so the strip is freed with the chunk."""
    strip, [(rise, descent)], fallback = _strip_runs(size, rng, (0,))
    w = _STRIP_BUFFER + 2
    xi_right = strip[w].copy()
    return RunsSample(rise, descent, _arrival_time(rise, descent, strip[w - 1], xi_right), xi_right, fallback)


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
    rise, descent = np.empty(replicas, _FIRST_STOP.dtype), np.empty(replicas, _FIRST_STOP.dtype)
    tau, xi_right = np.empty(replicas), np.empty(replicas)
    start = fallback = 0
    jobs = chunk_sizes(replicas, _CHUNK)
    for part in map_streams(_runs_chunk, seed, jobs, threads):
        rows = slice(start, start + part.replicas)
        rise[rows], descent[rows], tau[rows], xi_right[rows] = part.rise, part.descent, part.tau, part.xi_right
        start, fallback = rows.stop, fallback + part.fallback_rows
    return RunsSample(rise, descent, tau, xi_right, fallback)


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


def _occupancy_pair_chunk(size: int, rng: np.random.Generator, k: int) -> tuple[tuple[int, int, int, int], int]:
    """The occupancy table (n00, n01, n10, n11) of sites 0 and k, where n_ab
    counts the replicas with X(0) = a and X(k) = b (a site is occupied iff a
    run at it is odd), and the count of replicas finished on the lazy line,
    from one strip (_strip_runs)."""
    _, runs, fallback = _strip_runs(size, rng, (0, k) if k else (0,))
    occ = [((rise | descent) & 1).astype(bool) for rise, descent in runs]
    at_0, at_k = int(np.count_nonzero(occ[0])), int(np.count_nonzero(occ[-1]))
    n11 = int(np.count_nonzero(occ[0] & occ[-1]))
    return (size - at_0 - at_k + n11, at_k - n11, at_0 - n11, n11), fallback


def _autocov_estimate(k: int, table: tuple[int, int, int, int], fallback_rows: int) -> AutocovEstimate:
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
        fallback_rows=fallback_rows,
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
    table, fallback = (0, 0, 0, 0), 0
    for part, rows in map_streams(
        lambda size, rng: _occupancy_pair_chunk(size, rng, k), seed, chunk_sizes(replicas, _AUTOCOV_CHUNK), threads
    ):
        table, fallback = tuple(map(sum, zip(table, part))), fallback + rows
    return _autocov_estimate(k, table, fallback)
