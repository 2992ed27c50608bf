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
both stay independent references. The replay in mark order is
oracle.park_in_rank_order.

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
_SCAN_SITES = 1000  # longer rows find tau* by the tau_star scan: the T-only crossover is 700-1000 on 2 vCPUs


def occupancy_profile(values: np.ndarray) -> np.ndarray:
    """Vectorised run-parity classification of every site.

    values has shape (..., n-1) with marks along the last axis; the result is a
    boolean occupancy array of shape (..., n). Agrees with parking in mark
    order (oracle.park_in_rank_order; checked on every ordering for small n).
    """
    v = np.asarray(values, dtype=np.float64)
    m = v.shape[-1]
    if m < 1:
        raise ValueError("need at least one slot")
    asc = v[..., :-1] <= v[..., 1:]
    idx = np.arange(m)

    # start of the maximal ascending run ending at each slot
    brk = np.empty(v.shape[:-1] + (m,), dtype=bool)
    brk[..., 0] = True
    brk[..., 1:] = ~asc
    run_start = np.maximum.accumulate(np.where(brk, idx, 0), axis=-1)

    # end of the maximal descending run starting at each slot
    dbrk = np.empty_like(brk)
    dbrk[..., m - 1] = True
    dbrk[..., : m - 1] = asc
    run_end = np.minimum.accumulate(np.where(dbrk, idx, m - 1)[..., ::-1], axis=-1)[..., ::-1]

    rise = np.zeros(v.shape[:-1] + (m + 1,), dtype=np.int64)
    rise[..., 1:] = np.arange(1, m + 1) - run_start
    descent = np.zeros_like(rise)
    descent[..., :m] = run_end - idx + 1
    return (rise % 2 == 1) | (descent % 2 == 1)


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


def tau_star_rows(xi: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """Jamming time of each row of the first-arrival fields xi, shape
    (..., n-1), given occ = occupancy_profile(xi): the largest mark among the
    slots that hold a car."""
    return np.where(car_slot_mask(occ)[..., :-1], xi, -np.inf).max(axis=-1)


def tau_star(xi: np.ndarray) -> float:
    """Jamming time of one first-arrival field xi over slots 1..n-1, without
    classifying every site.

    Slots are visited in decreasing mark order, k at a time (argpartition, then
    a sort of the top k); the first one that holds a car gives tau*. Every slot
    not yet visited has a mark no larger, so the result is exact. Slot s holds
    a car iff the ascending run ending at it (the rise at site s+1) and the
    descending run starting at it (the descent at site s) both have odd length,
    with the package tie rule (left slot first). For i.i.d. marks the scan stops
    after O(1) candidates, each costing O(1) steps of the two walks."""
    xi = np.asarray(xi, dtype=np.float64)
    m = xi.size
    if m < 1:
        raise ValueError("need at least one slot")
    k = min(m, 32)
    while True:
        top = np.argpartition(xi, m - k)[m - k:]
        for s in top[np.argsort(xi[top])[::-1]].tolist():  # 0-based slots
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
        if k == m:
            raise AssertionError("a nonempty interval always holds a car")
        k = min(m, 8 * k)


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
    their first-arrival fields. Rows of up to _SCAN_SITES sites find tau* in
    the classified 2-D block; longer rows scan for it (tau_star) and are
    classified only when M is wanted."""
    n, rows, want_m = job
    xi = rng.standard_exponential((rows, n - 1))
    scan = n > _SCAN_SITES
    occ = occupancy_profile(xi) if want_m or not scan else None
    tau = np.array([tau_star(row) for row in xi]) if scan else tau_star_rows(xi, occ)
    return (occ.sum(axis=1) if want_m else None), _draw_counts(xi, tau, rng), tau


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
