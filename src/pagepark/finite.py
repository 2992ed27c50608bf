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

with below = #{s : u_s <= u*}. first_arrival_batch computes (T, tau*) this
way, and simulate_direct_batch M from the same marks in the same jobs;
simulate_direct runs the draws one by one and trials.simulate_poissonized
runs every arrival, and both stay independent references, as the oracle's
one replay pass (keeping each site's covering rank) is for parking in order.

Every classification runs through one parity pass, _run_parities: per slot,
whether the rise ending at it and the descent starting at it are odd. The
occupancy (occupancy_profile) is their shifted OR, and slot s holds a car iff
both are odd: M is twice the count of that car mask and u* its largest mark
(tau_star_rows), with no occupancy array built. For T, rows longer than
_SCAN_SITES are classified only if they must: tau_star visits the slots
above a threshold taken from a strided subsample, in decreasing mark order,
and takes the first that holds a car; if none does, one parity pass gives u*.

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

import numpy as np

from .core import DEFAULT_SEED, SeedSpec, as_generator, chunk_sizes, map_streams

_CHUNK_MARKS = 1 << 14  # marks per kernel job; small keeps peak memory flat
# longer rows find tau* by the tau_star scan. Per row on 2 vCPUs
# (whole job, median of 9), scan/mask time is 1.03-1.20 at n = 2001, 1.00 at
# 2501, 0.88-1.01 at 3001 and 0.79-0.82 at 4001-5001; 1.6 at n = 1001.
_SCAN_SITES = 2500
_SCAN_STRIDE = 64  # tau_star's threshold subsample: every 64th mark
_SCAN_TOP = 4  # its first threshold: the 4th largest subsample mark


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


def tau_star(xi: np.ndarray) -> float:
    """Jamming time of one first-arrival field xi over slots 1..n-1, without
    classifying every slot: its largest car mark, in the units of xi."""
    return _scan(np.asarray(xi, dtype=np.float64))[0]


def _scan(xi: np.ndarray) -> tuple[float, np.ndarray]:
    """tau_star of one field and its marks above that, in slot order.

    The threshold is the _SCAN_TOP-th largest mark of every _SCAN_STRIDE-th
    slot, so about _SCAN_TOP * _SCAN_STRIDE slots lie at or above it for
    i.i.d. marks. Those slots are visited in decreasing mark order, and the
    first one that holds a car gives tau*; every mark above it was visited,
    so the marks above tau* come off that band. Slot s holds a car iff the
    ascending run ending at it (the rise at site s+1) and the descending run
    starting at it (the descent at site s) both have odd length, with the
    package tie rule (left slot first). If no visited slot holds a car, the
    row is classified by one parity pass and tau* is its largest car mark
    (tau_star_rows), as for short rows. For i.i.d. marks a visited slot held a
    car on each of 25,600 rows tried (2500 to 2e5 slots), found after about
    7 visits, and each visit costs O(1) steps of the two walks."""
    m = xi.size
    if m < 1:
        raise ValueError("need at least one slot")
    sub = xi[::_SCAN_STRIDE]
    lo = np.partition(sub, sub.size - _SCAN_TOP)[sub.size - _SCAN_TOP] if _SCAN_TOP < sub.size else -np.inf
    band = np.flatnonzero(xi >= lo)
    marks = xi[band]
    for s in band[np.argsort(marks)[::-1]].tolist():  # 0-based slots
        r = s  # walk left to the start r of the ascending run ending at s
        while r > 0 and xi[r - 1] <= xi[r]:
            r -= 1
        if (s - r) % 2:
            continue
        e = s  # walk right to the end e of the descending run starting at s
        while e < m - 1 and not xi[e] <= xi[e + 1]:
            e += 1
        if (e - s) % 2 == 0:
            return float(xi[s]), marks[marks > xi[s]]
    rise, descent = _run_parities(xi)
    top = float(tau_star_rows(xi, rise & descent))
    return top, xi[xi > top]


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
    u: np.ndarray, top: np.ndarray, above_rows: np.ndarray, above: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(T, tau*) of each row of the Uniform(0, 1) marks u, shape (rows, n-1),
    with largest car marks top: the superposition identity of the module
    docstring. The marks above top (above, in slot order, with their rows
    above_rows) are taken off the count and off the row's sum of log(1 - u),
    so the classification reads only them. u is overwritten by log(1 - u),
    in place; 1 - u is exact on the 2^-53 grid of rng.random, so np.log(1 -
    u) needs no log1p, which only tau* = -log1p(-u*) takes."""
    rows, m = u.shape
    tau = -np.log1p(-top)
    below = m - np.bincount(above_rows, minlength=rows)
    logs = np.log(np.subtract(1.0, u, out=u), out=u)
    log_below = logs.sum(axis=1) - np.bincount(above_rows, weights=np.log(1.0 - above), minlength=rows)
    # rounding can leave a mean a few ulp below an exact 0 (ties, n = 2, 3)
    return below + rng.poisson(np.maximum(tau * below + log_below, 0.0)), tau


def _first_arrival_chunk(job: tuple, rng: np.random.Generator) -> tuple:
    """(T, tau*) of `rows` replicas on n sites, from one draw of their
    Uniform(0, 1) marks. Rows of up to _SCAN_SITES sites take the car mask of
    one parity pass, and u* is its largest mark (tau_star_rows). Longer rows
    scan for u* (_scan), which classifies a row only if its scan finds no
    car. Both paths hand u* and the marks above it to _draw_counts."""
    n, rows = job
    u = rng.random((rows, n - 1))
    if n <= _SCAN_SITES:
        rise, descent = _run_parities(u)
        car = np.logical_and(rise, descent, out=rise)
        top = tau_star_rows(u, car)
        slots = np.flatnonzero(np.greater(u, top[:, None], out=car))  # in row-major order
        above_rows, above = slots // (n - 1), u.ravel()[slots]
    else:
        scans = [_scan(row) for row in u]
        top = np.array([t for t, _ in scans])
        above = np.concatenate([a for _, a in scans])
        above_rows = np.repeat(np.arange(rows), [a.size for _, a in scans])
    return _draw_counts(u, top, above_rows, above, rng)


def _car_count_chunk(job: tuple, rng: np.random.Generator) -> np.ndarray:
    """M of `rows` replicas on n sites: twice the car count of one parity
    pass over the same draw of marks that _first_arrival_chunk takes."""
    n, rows = job
    rise, descent = _run_parities(rng.random((rows, n - 1)))
    return 2 * np.count_nonzero(rise & descent, axis=1)


def _rows(chunk, n_list, replicas: int, seed: int | SeedSpec, threads: int) -> list[list]:
    """chunk(job, rng) over each row's jobs (n, rows), as one list per row: a
    row of n sites splits into jobs of about _CHUNK_MARKS marks (at least one
    replica), numbered across rows. Job c of seed SeedSpec(m, r) draws from
    map_streams' stream (m, (r, c)), so results depend on neither `threads`
    nor the rows after a row."""
    for n in n_list:
        if n < 2:
            raise ValueError("need n >= 2 sites")
    if replicas < 1:
        raise ValueError("need at least 1 replica")
    sizes = [chunk_sizes(replicas, max(1, _CHUNK_MARKS // (n - 1))) for n in n_list]
    jobs = [(n, size) for n, row in zip(n_list, sizes) for size in row]
    parts = iter(map_streams(chunk, seed, jobs, threads))
    return [[next(parts) for _ in row] for row in sizes]


def first_arrival_batch(
    n_list, replicas: int, seed: int | SeedSpec = DEFAULT_SEED, threads: int = 1
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(T, tau*) for `replicas` replicas of each n, as int64 and float64
    arrays: the draw count of the uniform-draw process and its jamming time
    (see the module docstring)."""
    rows = _rows(_first_arrival_chunk, n_list, replicas, seed, threads)
    return [tuple(np.concatenate(part) for part in zip(*row)) for row in rows]


def simulate_direct_batch(
    n: int, replicas: int, seed: int | SeedSpec = DEFAULT_SEED, threads: int = 1
) -> np.ndarray:
    """Law of M of the uniform-draw process across replicas, as an int64
    array, from the jobs and marks of first_arrival_batch([n], ...). Exactly
    the law of simulate_direct, which stays the draw-by-draw reference."""
    return np.concatenate(_rows(_car_count_chunk, [n], replicas, seed, threads)[0])
