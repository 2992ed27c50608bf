"""Jamming on a finite interval: the uniform-draw process and the parity
classifier of marks that links it to parking in mark order.

Observed through the first arrivals of one unit-rate Poisson stream per slot
(merged, the streams pick slots uniformly), only the first draw of a slot can
park a car, so the jammed configuration is parking in increasing order of the
first-arrival times xi, and the jamming time tau* is the largest time among
the slots that hold a car. Each slot's later arrivals form a unit-rate
Poisson process on (xi_s, inf) independent of xi, so the draw count is

    T = #{s : xi_s <= tau*} + Poisson(sum_s (tau* - xi_s)^+)

exactly (the superposition identity). As on the line, the kernel draws
Uniform(0, 1) marks u and applies the exponential clock only where a time is
read: xi_s = -log(1 - u_s) is increasing in u_s, so the cars and the tie rule
are those of u, tau* = -log1p(-u*) for the largest car mark u*, and

    T = below + Poisson(tau* below + sum_{u_s <= u*} log(1 - u_s))

with below = #{s : u_s <= u*}. Rows of up to _BAND_SITES sites are computed
this way, and simulate_direct_batch takes M from the same marks, at any n.
simulate_direct runs the draws one by one and
trials.simulate_poissonized runs every arrival, and both stay independent
references, as the oracle's one replay pass (keeping each site's covering
rank) is for parking in order; the oracle's chain gives the exact law of T_n
for n <= 12.

Every per-slot classification runs through one parity pass, _run_parities:
per slot, whether the rise ending at it and the descent starting at it are
odd. The occupancy (occupancy_profile) is their shifted OR, and slot s holds
a car iff both are odd: u* is the largest mark of that car mask
(tau_star_rows), and M of a row of fewer than _TURNING_MARKS = 2100 marks is
twice its count, with no occupancy array built. M needs only the count, and
that is a function of the row's turning points (_turning_cars): the local
extrema split the row into monotone segments; every local minimum holds a
car, as do (L-1) >> 1 slots inside each segment of L steps, and every local
maximum whose two segments both have even length (an edge counts as length
0). One compare, the direction changes and a few passes over their ~2m/3
points replace the parity pass's two scans, so longer rows count this way,
one row at a time from the same chunks, and M keeps its bits. Per row, the
count alone takes 37 us at 10^4 marks against the parity pass's 87 us, and
16 against 9 us at 10^3 (in 16-row chunks; minimum of 7, one thread).

Each row has one stream: row i of a call seeded SeedSpec(m, r) draws from
child (m, (r, i)) of core.child_streams, so a row reproduces whatever the
other rows are. A car-mask row draws its marks in chunks of about
_CHUNK_MARKS, one after another, so that peak memory stays flat, and T adds
its later draws with one Poisson draw after the last chunk, so M and T of a
replica read the same marks at every chunk count. Every row runs on the
calling thread. A pool of threads made each of these kernels slower on 2
vCPUs (one thread against two): simulate_direct_batch at the `interval`
benchmark's sizes 31 against 43 ms; density-convergence at its defaults 1891
against 2591 ms; first_arrival_batch on car-mask rows (n = 1000 and 5000,
2000 replicas) 250 against 328 ms; and the band path holds the GIL in a
Python loop. The line kernels of infinite.py gain from the pool (the `line`
benchmark's run_rel is 1.72-1.83 pooled, 2.06-2.43 serial) and run their
chunks through core.map_streams.

Longer rows take the band path (_band_row), whose cost does not grow with n:
tau* depends only on the top marks and the short runs around them, and every
other slot enters T only through its count. With m = n-1 exponential marks
and a level a = max(0, log(m / B)), B = _BAND, memorylessness splits the
field into a band, Binomial(m, e^-a) slots as a uniform subset with marks
a + Exp(1), and the rest, i.i.d. Exp(1) truncated to [0, a]. The band is
visited in decreasing mark order; at each slot the rise and the descent are
walked with the tie rule, each mark is read only when a walk reaches it (a
band slot's looked up by bisection, any other drawn; _Field), and the first
car found gives tau*. If the band holds no car (probability about
exp(-B e^-2)), the field is completed and the same search over all of its
slots gives tau*. A read slot adds 1 + Poisson(tau* - xi) if xi <= tau*, all
in one Poisson draw per row. Each of the U unread slots is still i.i.d.
truncated, so its stream has an arrival in [0, a], and a <= tau* (a band
car's mark is above a, and the fallback reads every slot). Split at a, its
count up to tau* is K + Poisson(tau* - a): K, its count on [0, a], is
Poisson(a) given K >= 1, a zero-truncated law of a alone, and the count on
(a, tau*] is independent of it (independent increments). So U (tau* - a)
joins the read slots' Poisson mean, and one multinomial over k = 1..J and a
tail cell k > J, its cells built once per row (_unread_cells), counts the U
values of K; a slot in the tail cell draws K given K > J by rejection from
Poisson(a). _BAND_SITES is the measured crossover where this path, about 0.1
ms a replica at any n, overtakes the car mask's O(n) pass.

Conventions used throughout (1-based sites and slots in the API):

* slot i covers sites (i, i+1); marks are a float array over slots 1..n-1
  (one row per replica), occupancy a boolean array over sites 1..n.
* the rise at site i is the maximal ascending run of marks ending at slot i-1,
  its length counted in slots and clipped at the interval edge; rise length 0
  at i=1 (no slots on the left).
* the descent at site i is the maximal descending run starting at slot i;
  descent length 0 at i=n.
* site i is vacant at jamming iff both its rise and descent have even length.
* tie-breaking: equal marks are ordered by slot index (left slot acts first),
  so an adjacent comparison "left before right" is mark_left <= mark_right.
"""
from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .core import DEFAULT_SEED, SeedSpec, as_generator, child_streams, chunk_sizes

_CHUNK_MARKS = 1 << 14  # marks per chunk of a row; small keeps peak memory flat
# M of rows of at least _TURNING_MARKS marks is counted from their turning
# points (_turning_cars), of shorter rows by the parity pass. Per row on one
# thread (simulate_direct_batch, 150 replicas a call, median of 11, two
# runs), turning/parity time is 1.57-1.60 at n = 1000, 1.07 at 1800,
# 1.01-1.03 at 2000, 0.94-0.96 at 2200 and 0.85-0.87 at 2600; one run gave
# 0.86 at 3000 and 0.54 at 10^4
_TURNING_MARKS = 2100
# T and tau* of longer rows take the band path (_band_row). Per replica on
# one thread (first_arrival_batch, 64 replicas a call, median of 11, two
# runs), band/mask time is 1.33-1.45 at n = 4000, 1.12-1.13 at 5400,
# 0.96-1.00 at 5600, 0.91-0.95 at 6000 and 0.77-0.83 at 8000
_BAND_SITES = 5600
_BAND = 400  # the band's expected size B
_FRESH = 32  # truncated marks drawn at a time by the walks and tail rejections
# _unread_cells' last cell J = a + 12 sqrt(a) + 30: a slot's K lands beyond
# it with probability below 1e-38 for a up to 30 (n about e^36)
_TAIL_SDS, _TAIL_PAD = 12, 30


def _run_parities(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per slot of the marks xi, shape (..., m): whether the ascending run
    ending at it (the rise at the site on its right) and the descending run
    starting at it (the descent at the site on its left) have odd length, as
    two boolean arrays of xi's shape.

    One int32 buffer holds the last break of each run in turn: a prefix max
    of the slots that start an ascending run, then a suffix min of the slots
    that end a descending one, both updated in place; only the parity of the
    distance to it is kept. An adjacent pair ascends iff mark_left <=
    mark_right, the package tie rule."""
    m = xi.shape[-1]
    asc = xi[..., :-1] <= xi[..., 1:]
    idx = np.arange(m, dtype=np.int32)
    last = np.empty(xi.shape, dtype=np.int32)
    last[..., 0] = 0
    np.multiply(asc, idx[1:], out=last[..., 1:])
    np.subtract(idx, last, out=last)  # s where an ascending run starts at s, else 0
    np.maximum.accumulate(last, axis=-1, out=last)
    rise = _odd_run(last, idx)
    last[..., -1] = 0
    np.multiply(asc, idx[:0:-1], out=last[..., :-1])
    np.subtract(m - 1, last, out=last)  # s where a descending run ends at s, else m - 1
    tail = last[..., ::-1]
    np.minimum.accumulate(tail, axis=-1, out=tail)
    return rise, _odd_run(last, idx)


def _odd_run(last: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Whether the run from slot idx to its break `last` spans an odd number
    of slots, i.e. idx - last is even; overwrites last."""
    np.bitwise_xor(last, idx, out=last)
    np.bitwise_and(last, 1, out=last)
    return last == 0


def occupancy_profile(values: np.ndarray) -> np.ndarray:
    """Vectorised run-parity classification of every site.

    values has shape (..., n-1) with marks along the last axis; the result is a
    boolean occupancy array of shape (..., n): site i is occupied iff its rise
    or its descent is odd, a shifted OR of the two parity arrays. Agrees with
    parking in mark order: a site is occupied iff the oracle's replay gives
    it a covering rank (checked on every ordering for small n).
    """
    v = np.asarray(values, dtype=np.float64)
    m = v.shape[-1]
    if m < 1:
        raise ValueError("need at least one slot")
    rise, descent = _run_parities(v)
    occ = np.zeros(v.shape[:-1] + (m + 1,), dtype=bool)
    occ[..., 1:] = rise
    occ[..., :-1] |= descent
    return occ


def tau_star_rows(xi: np.ndarray, car: np.ndarray) -> np.ndarray:
    """Jamming time of each row of the first-arrival fields xi, shape
    (..., n-1), given their car mask car (slot s holds a car iff both of its
    runs in _run_parities are odd): the largest mark among the car slots."""
    return np.where(car, xi, -np.inf).max(axis=-1)


def simulate_direct(n: int, rng: np.random.Generator | SeedSpec | None = None) -> tuple[np.ndarray, int]:
    """Run the uniform-draw process on n sites until jamming: (occupancy, T).

    Each draw picks a slot uniformly from 1..n-1; the car parks iff both sites
    are free. T counts every draw, rejections included. The free-pair counter
    is maintained incrementally and cross-checked against a recount on exit."""
    if n < 2:
        raise ValueError("need n >= 2 sites")
    rng = as_generator(rng)
    occ = np.zeros(n, dtype=bool)
    free_pairs = n - 1
    t = 0
    while free_pairs > 0:
        s = int(rng.integers(0, n - 1))  # 0-based slot
        t += 1
        if not occ[s] and not occ[s + 1]:
            lost = 1
            if s >= 1 and not occ[s - 1]:
                lost += 1
            if s + 2 <= n - 1 and not occ[s + 2]:
                lost += 1
            occ[s] = True
            occ[s + 1] = True
            free_pairs -= lost
    recount = int(np.count_nonzero(~occ[:-1] & ~occ[1:]))
    if recount != free_pairs:
        raise RuntimeError(f"free-pair counter {free_pairs} disagrees with the recount {recount}")
    return occ, t


def _draw_counts(
    u: np.ndarray, top: np.ndarray, above_rows: np.ndarray, above: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(below, mean, tau*) of each row of the Uniform(0, 1) marks u, shape
    (rows, n-1), with largest car marks top: T = below + Poisson(mean) by the
    superposition identity of the module docstring; it draws nothing. The
    marks above top (above, in slot order, with their rows above_rows) are
    taken off the count and off the row's sum of log(1 - u), so the
    classification reads only them. u is overwritten by log(1 - u), in place;
    1 - u is exact on the 2^-53 grid of rng.random, so np.log(1 - u) needs no
    log1p, which only tau* = -log1p(-u*) takes."""
    rows, m = u.shape
    tau = -np.log1p(-top)
    below = m - np.bincount(above_rows, minlength=rows)
    logs = np.log(np.subtract(1.0, u, out=u), out=u)
    log_below = logs.sum(axis=1) - np.bincount(above_rows, weights=np.log(1.0 - above), minlength=rows)
    # rounding can leave a mean a few ulp below an exact 0 (ties, n = 2, 3)
    return below, np.maximum(tau * below + log_below, 0.0), tau


def _band_tau(xi, band, m: int) -> float | None:
    """The largest car mark of the field xi over m slots (indexed by 0-based
    slot) if a slot of band holds a car, else None. The band's slots are
    visited in decreasing mark order, and the first car found is the largest.
    Slot s holds a car iff the ascending run ending at it (the rise at site
    s+1) and the descending run starting at it (the descent at site s) both
    have odd length, with the package tie rule (left slot first)."""
    for s in band:
        r = s  # walk left to the start r of the ascending run ending at s
        while r > 0 and xi[r - 1] <= xi[r]:
            r -= 1
        if (s - r) % 2:
            continue
        e = s  # walk right to the end e of the descending run starting at s
        while e < m - 1 and not xi[e] <= xi[e + 1]:
            e += 1
        if (e - s) % 2 == 0:
            return xi[s]
    return None


def _truncated(rng: np.random.Generator, a: float, size: int) -> np.ndarray:
    """size Exp(1) marks conditioned to lie in [0, a]: -log1p(-(1 - e^-a) U)."""
    return -np.log1p(np.expm1(-a) * rng.random(size))


class _Field(dict):
    """One row's marks by 0-based slot, each looked up the first time a walk
    reads it: a band slot's mark by bisection on the band's sorted slots, any
    other slot's as the next mark of `fresh`, kept in `drawn` in that order."""

    def __init__(self, slots: np.ndarray, marks: np.ndarray, fresh):
        order = slots.argsort()
        self.slots, self.marks = slots[order].tolist(), marks[order].tolist()
        self.fresh, self.drawn = fresh, []

    def __missing__(self, s: int) -> float:
        i = bisect_left(self.slots, s)
        if i < len(self.slots) and self.slots[i] == s:
            x = self[s] = self.marks[i]
        else:
            x = self[s] = next(self.fresh)
            self.drawn.append(x)
        return x


def _fresh(rng: np.random.Generator, a: float):
    """Marks truncated to [0, a], drawn _FRESH at a time."""
    while True:
        yield from _truncated(rng, a, _FRESH).tolist()


def _unread_cells(a: float) -> np.ndarray:
    """_unread_arrivals' cells at the level a > 0: P(K > J), then P(K = k) for
    k = 1..J, K Poisson(a) given K >= 1, J = a + _TAIL_SDS sqrt(a) + _TAIL_PAD.
    The tail cell's mass is summed from its own terms and comes first, so
    that the rounding of the other cells lands on K = J, not in it."""
    j = int(a + _TAIL_SDS * math.sqrt(a) + _TAIL_PAD)
    law = math.exp(-a) * np.cumprod(a / np.arange(1, 2 * j + 11)) / -math.expm1(-a)
    return np.concatenate((law[j:].sum(keepdims=True), law[:j]))


def _unread_arrivals(unread: int, cells: np.ndarray, a: float, rng: np.random.Generator) -> int:
    """Total arrivals in [0, a] of `unread` slots whose marks were never
    read, K each, counted by one multinomial over _unread_cells(a)."""
    counts, j = rng.multinomial(unread, cells), cells.size - 1
    return int(counts[1:] @ np.arange(1, j + 1)) + _tail_arrivals(int(counts[0]), a, j, rng)


def _tail_arrivals(count: int, a: float, j: int, rng: np.random.Generator) -> int:
    """The sum of `count` draws of Poisson(a) given that it exceeds j >= 0, by rejection."""
    hits = []
    while len(hits) < count:
        draws = rng.poisson(a, _FRESH)
        hits += draws[draws > j].tolist()
    return sum(hits[:count])


def _band_row(m: int, a: float, cells: np.ndarray | None, rng: np.random.Generator) -> tuple[int, float, float]:
    """(count, mean, tau*) of one row of m slots at the level a by the band
    construction of the module docstring, T = count + Poisson(mean) as in
    _draw_counts; cells are _unread_cells(a), None at a = 0, where every slot
    is in the band. It draws the band's slots and marks, each other mark when
    a walk of _band_tau first reads it, and the rest of the field only if the
    band holds no car; then _band_tau searches all of it."""
    k = int(rng.binomial(m, math.exp(-a)))
    slots = rng.choice(m, k, replace=False, shuffle=False)
    marks = a + rng.standard_exponential(k)
    xi = _Field(slots, marks, _fresh(rng, a))
    # the search visits about 7 of the band's 400 slots: convert only those
    tau = _band_tau(xi, map(int, slots[np.argsort(-marks)]), m)
    if tau is None:
        read = [xi[s] for s in range(m)]
        tau = _band_tau(read, sorted(range(m), key=read.__getitem__, reverse=True), m)
        read = np.array(read)
    else:
        read = np.concatenate((marks, xi.drawn))
    unread = m - read.size
    count = np.count_nonzero(read <= tau) + (_unread_arrivals(unread, cells, a, rng) if unread else 0)
    return count, np.maximum(tau - read, 0.0).sum() + unread * (tau - a), tau


def _row_marks(n: int, replicas: int, rng: np.random.Generator):
    """The Uniform(0, 1) marks of a row of `replicas` replicas on n sites, in
    chunks of about _CHUNK_MARKS marks (at least one replica) drawn one after
    another from the row's stream, each of shape (rows, n-1)."""
    for rows in chunk_sizes(replicas, max(1, _CHUNK_MARKS // (n - 1))):
        yield rng.random((rows, n - 1))


def _turning_cars(u: np.ndarray) -> int:
    """The car count of one row of marks u, from its turning points: with
    the package tie rule, the local extrema (the edge slots among them)
    split the row into monotone segments. Every local minimum holds a car,
    as does every other slot inside a segment of L steps counted from its
    minimum end, (L-1) >> 1 of them, and every local maximum whose two
    segments both have even length, an edge counting as length 0."""
    m = u.size
    asc = u[:-1] <= u[1:]
    turn = np.ones(m, dtype=bool)  # the edge slots and each slot where the direction changes
    np.not_equal(asc[1:], asc[:-1], out=turn[1:-1])
    seg = np.diff(np.flatnonzero(turn))  # steps per segment; extrema alternate
    even = np.ones(seg.size + 2, dtype=bool)
    np.equal(seg & 1, 0, out=even[1:-1])
    first_max = int(m == 1 or asc[0])  # the index of the first maximum among the turning points
    minima = (seg.size + 1 + first_max) // 2
    peaks = np.count_nonzero(even[first_max:-1:2] & even[first_max + 1 :: 2])
    return minima + int(((seg - 1) >> 1).sum()) + peaks


def _car_counts(n: int, replicas: int, rng: np.random.Generator) -> np.ndarray:
    """M of each replica of a row: twice its car count, from each chunk's
    parity pass, or row by row from its turning points (_turning_cars) for
    rows of at least _TURNING_MARKS = 2100 marks, where the two draw level
    (a row at n = 10^4, its marks drawn, takes 65 against 121 us)."""
    counts = []
    for u in _row_marks(n, replicas, rng):
        if n - 1 >= _TURNING_MARKS:
            counts.append([_turning_cars(row) for row in u])
        else:
            rise, descent = _run_parities(u)
            counts.append(np.count_nonzero(rise & descent, axis=1))
    return 2 * np.concatenate(counts)


def _first_arrival_row(n: int, replicas: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(T, tau*) of each replica of a row, T = count + Poisson(mean) with one
    Poisson draw after the last replica. Up to _BAND_SITES sites u* is the
    largest mark of each chunk's car mask (tau_star_rows) and _draw_counts
    takes it and the marks above it, so the row reads the marks _car_counts
    reads. Longer rows take _band_row, one replica after another, at the
    row's level a."""
    if n > _BAND_SITES:
        a = -math.log(min(1.0, _BAND / (n - 1)))
        cells = _unread_cells(a) if a > 0 else None
        count, mean, tau = map(np.array, zip(*(_band_row(n - 1, a, cells, rng) for _ in range(replicas))))
    else:
        parts = []
        for u in _row_marks(n, replicas, rng):
            rise, descent = _run_parities(u)
            car = np.logical_and(rise, descent, out=rise)
            top = tau_star_rows(u, car)
            slots = np.flatnonzero(np.greater(u, top[:, None], out=car))  # in row-major order
            parts.append(_draw_counts(u, top, slots // (n - 1), u.ravel()[slots]))
        count, mean, tau = map(np.concatenate, zip(*parts))
    return count + rng.poisson(mean), tau


def _row_streams(n_list, replicas: int, seed: int | SeedSpec) -> list[np.random.Generator]:
    """One stream per row, after checking the rows: row i of seed SeedSpec(m,
    r) draws from child stream (m, (r, i)) (core.child_streams), so a row's
    bits depend on its index, n and replicas, not on the other rows."""
    for n in n_list:
        if n < 2:
            raise ValueError("need n >= 2 sites")
    if replicas < 1:
        raise ValueError("need at least 1 replica")
    return child_streams(seed, len(n_list))


def first_arrival_batch(
    n_list, replicas: int, seed: int | SeedSpec = DEFAULT_SEED
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(T, tau*) for `replicas` replicas of each n, as int64 and float64
    arrays: the draw count of the uniform-draw process and its jamming time
    (see the module docstring)."""
    return [_first_arrival_row(n, replicas, rng) for n, rng in zip(n_list, _row_streams(n_list, replicas, seed))]


def simulate_direct_batch(n: int, replicas: int, seed: int | SeedSpec = DEFAULT_SEED) -> np.ndarray:
    """Law of M of the uniform-draw process across replicas, as an int64
    array. Up to _BAND_SITES sites its marks are those of
    first_arrival_batch([n], ...). Exactly the law of simulate_direct, which
    stays the draw-by-draw reference."""
    (rng,) = _row_streams([n], replicas, seed)
    return _car_counts(n, replicas, rng)
