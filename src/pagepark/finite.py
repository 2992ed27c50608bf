"""Jamming on a finite interval: the uniform-draw process and the parity
classifier of marks that links it to parking in mark order.

Observed through the first arrivals of one unit-rate Poisson stream per slot
(merged, the streams pick slots uniformly), only the first draw of a slot can
park a car, so the jammed configuration is parking in increasing order of the
first-arrival marks xi, and the jamming time tau* is the largest mark
among the slots that hold a car. Each slot's later arrivals form a unit-rate
Poisson process on (xi_s, inf) independent of xi, so the draw count is

    T = #{s : xi_s <= tau*} + Poisson(sum_s (tau* - xi_s)^+)

exactly (the superposition identity). first_arrival_batch computes (M, T,
tau*) this way and is the one fast kernel for all three; simulate_direct runs
the draws one by one and trials.simulate_poissonized runs every arrival, and
both stay independent references. The reference for parking in mark order is
the oracle's one replay pass, which keeps each site's covering rank.

Every classification runs through one parity pass, _run_parities: per slot,
whether the rise ending at it and the descent starting at it are odd. The
occupancy (occupancy_profile) is their shifted OR, and slot s holds a car iff
both are odd, so the kernel reads M (twice the car count) and tau* (the
largest car mark, tau_star_rows) off that car mask without building an
occupancy array. Long rows that want only T never classify: tau_star visits
the slots above a threshold taken from a strided subsample, in decreasing
mark order, and lowers the threshold band by band until a slot holds a car.

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

_CHUNK_MARKS = 1 << 14  # marks per first_arrival_batch job; small keeps peak memory flat
# longer T-only rows find tau* by the tau_star scan. Per T-only row on 2 vCPUs
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


def car_slot_mask(occ: np.ndarray) -> np.ndarray:
    """Boolean mask, same shape (..., n) as the jammed occupancy occ, of the
    0-based slots holding cars (slot s covers sites s and s+1).

    Maximal occupied runs have even length and a unique perfect matching, so
    the car positions are forced: every other site from each run's start."""
    occ = np.asarray(occ, dtype=bool)
    idx = np.arange(occ.shape[-1])
    run_start = occ.copy()
    run_start[..., 1:] &= ~occ[..., :-1]
    last_start = np.maximum.accumulate(np.where(run_start, idx, 0), axis=-1)
    return occ & ((idx - last_start) % 2 == 0)


def car_slots_from_occupancy(occ: np.ndarray) -> np.ndarray:
    """0-based slots holding cars, recovered from a jammed 1-D occupancy."""
    return np.flatnonzero(car_slot_mask(occ))


def tau_star_rows(xi: np.ndarray, car: np.ndarray) -> np.ndarray:
    """Jamming time of each row of the first-arrival fields xi, shape
    (..., n-1), given their car mask car (slot s holds a car iff both of its
    runs in _run_parities are odd): the largest mark among the car slots."""
    return np.where(car, xi, -np.inf).max(axis=-1)


def tau_star(xi: np.ndarray) -> float:
    """Jamming time of one first-arrival field xi over slots 1..n-1, without
    classifying every slot.

    The threshold is the _SCAN_TOP-th largest mark of every _SCAN_STRIDE-th
    slot, so about _SCAN_TOP * _SCAN_STRIDE slots lie at or above it for
    i.i.d. marks. Those slots are visited in decreasing mark order, and the
    first one that holds a car gives tau*. If none does, the threshold falls
    to the subsample mark 8 times further down the order, and the slots in
    [new, old) are visited the same way; every slot not yet visited has a mark
    below the threshold, so the result is exact. Slot s holds a car iff the
    ascending run ending at it (the rise at site s+1) and the descending run
    starting at it (the descent at site s) both have odd length, with the
    package tie rule (left slot first). For i.i.d. marks the first band held
    a car on each of 25,600 rows tried (2500 to 2e5 slots), found after about
    7 visits, and each visit costs O(1) steps of the two walks."""
    xi = np.asarray(xi, dtype=np.float64)
    m = xi.size
    if m < 1:
        raise ValueError("need at least one slot")
    sub = xi[::_SCAN_STRIDE]
    k, hi = _SCAN_TOP, None
    while True:
        lo = np.partition(sub, sub.size - k)[sub.size - k] if k < sub.size else -np.inf
        band = xi >= lo
        if hi is not None:
            band &= xi < hi
        band = np.flatnonzero(band)
        for s in band[np.argsort(xi[band])[::-1]].tolist():  # 0-based slots
            r = s  # walk left to the start r of the ascending run ending at s
            while r > 0 and xi[r - 1] <= xi[r]:
                r -= 1
            if (s - r) % 2:
                continue
            e = s  # walk right to the end e of the descending run starting at s
            while e < m - 1 and not xi[e] <= xi[e + 1]:
                e += 1
            if (e - s) % 2 == 0:
                return float(xi[s])
        if lo == -np.inf:
            raise AssertionError("a nonempty interval always holds a car")
        k, hi = 8 * k, lo


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


def _draw_counts(xi: np.ndarray, tau: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """T of each row of first-arrival fields xi, shape (rows, n-1), with
    jamming times tau: the superposition identity of the module docstring.
    sum_s (tau* - xi_s)^+ is taken as tau* #below - (sum of all marks - those
    above), so only a mask the size of xi is allocated."""
    above = xi > tau[:, None]
    below = xi.shape[1] - np.count_nonzero(above, axis=1)
    mean_later = tau * below - (xi.sum(axis=1) - xi.sum(axis=1, where=above))
    # rounding can leave a mean a few ulp below an exact 0 (ties, n = 2, 3)
    return below + rng.poisson(np.maximum(mean_later, 0.0))


def _first_arrival_chunk(job: tuple, rng: np.random.Generator) -> tuple:
    """(M or None, T, tau*) of `rows` replicas on n sites, from one draw of
    their first-arrival fields. Rows that want M, and rows of up to
    _SCAN_SITES sites, take the car mask of one parity pass: M is twice its
    count and tau* its largest mark (tau_star_rows). Longer T-only rows scan
    for tau* (tau_star) and are never classified."""
    n, rows, want_m = job
    xi = rng.standard_exponential((rows, n - 1))
    m = None
    if want_m or n <= _SCAN_SITES:
        rise, descent = _run_parities(xi)
        car = np.logical_and(rise, descent, out=rise)
        tau = tau_star_rows(xi, car)
        if want_m:
            m = 2 * np.count_nonzero(car, axis=1)
    else:
        tau = np.array([tau_star(row) for row in xi])
    return m, _draw_counts(xi, tau, rng), tau


def first_arrival_batch(
    n_list, replicas: int, seed: int | SeedSpec = DEFAULT_SEED, threads: int = 1, want_m: bool = True
) -> list[tuple]:
    """(M or None, T, tau*) for `replicas` replicas of each n, as int64, int64
    and float64 arrays: the law of the uniform-draw process, its draw count and
    its jamming time (see the module docstring).

    Each row is split into jobs of about _CHUNK_MARKS marks (at least one
    replica), numbered across rows; job c of seed SeedSpec(m, r) draws from
    map_streams' stream (m, (r, c)), so results depend on neither `threads`
    nor the rows after a row."""
    for n in n_list:
        if n < 2:
            raise ValueError("need n >= 2 sites")
    if replicas < 1:
        raise ValueError("need at least 1 replica")
    sizes = [chunk_sizes(replicas, max(1, _CHUNK_MARKS // (n - 1))) for n in n_list]
    jobs = [(n, size, want_m) for n, row in zip(n_list, sizes) for size in row]
    parts = iter(map_streams(_first_arrival_chunk, seed, jobs, threads))
    out = []
    for row in sizes:
        m, t, tau = zip(*(next(parts) for _ in row))
        out.append((np.concatenate(m) if want_m else None, np.concatenate(t), np.concatenate(tau)))
    return out


def simulate_direct_batch(
    n: int, replicas: int, seed: int | SeedSpec = DEFAULT_SEED, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Law of (M, T) of the uniform-draw process across replicas, as int64
    arrays: one row of first_arrival_batch. Exactly the law of
    simulate_direct, which stays the draw-by-draw reference."""
    m, t, _ = first_arrival_batch([n], replicas, seed, threads)[0]
    return m, t
