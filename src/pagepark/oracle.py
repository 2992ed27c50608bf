"""Brute-force ground truth for small intervals.

Everything here is independent of the simulator modules. One pass parks cars
with its own plain-Python loop, once per permutation or weak ordering of the
slots, and keeps each site's covering rank: the exact report and the
classifier check are both read off those ranks. E[T_n] also comes from the
absorbing-chain linear system, which shares no code with the pass. The rest
of the package is validated against these values, never the other way round.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, permutations
from math import factorial

import numpy as np

ENUMERATION_CAP = 10  # (n-1)! permutations; 9! = 362880 is the practical limit
CHAIN_CAP = 12
LEMMA1_BLOCK = factorial(7)  # rankings replayed and classified per block of the one pass (~3 MB)


@dataclass(frozen=True)
class OracleReport:
    """Exact aggregates over all (n-1)! slot orderings, E[T_n] included."""

    n: int
    permutations: int
    expected_M: Fraction
    distribution_M: dict[int, Fraction]
    per_site_vacancy: tuple[Fraction, ...]
    expected_T: Fraction
    counterexamples: tuple[tuple[tuple[int, ...], int], ...] | None = None  # as verify_lemma1's, if classified


def _replay(order, n: int) -> list[int]:
    """Park greedily in the given slot order (0-based slots; slot s covers
    sites s and s+1). Entry i of the result is the 1-based position in order
    of the car covering 0-based site i, or 0 when the site stays vacant."""
    cover = [0] * n
    for k, s in enumerate(order, 1):
        if not (cover[s] or cover[s + 1]):
            cover[s] = cover[s + 1] = k
    return cover


def _draws_to_see(k: int, m: int) -> Fraction:
    """Expected uniform draws over m slots until k distinct slots have come
    up: sum_{j<k} m/(m-j)."""
    return sum((Fraction(m, m - j) for j in range(k)), Fraction(0))


def _replay_all(n: int, rank_vectors, classify):
    """The one pass: replay each slot ranking once, LEMMA1_BLOCK at a time,
    each block's orders from one stable argsort (equal ranks act left slot
    first). Returns the counts, over all rankings, of each number of occupied
    sites, of vacancies per site and of each position of the last car in the
    order, and the misses of classify (or None) as verify_lemma1 lists them."""
    if not 2 <= n <= ENUMERATION_CAP:
        raise ValueError(f"oracle cap exceeded: need 2 <= n <= {ENUMERATION_CAP}, got {n}")
    ranked = iter(rank_vectors)
    occupied_sites = np.zeros(n + 1, dtype=np.int64)
    vacant = np.zeros(n, dtype=np.int64)
    last_car = np.zeros(n, dtype=np.int64)  # last_car[k]: rankings whose last car slot comes k-th
    bad = []
    while block := list(islice(ranked, LEMMA1_BLOCK)):
        ranks = np.array(block, dtype=np.float64).reshape(len(block), n - 1)
        cover = np.array([_replay(order, n) for order in np.argsort(ranks, axis=1, kind="stable").tolist()])
        occupied = cover > 0
        occupied_sites += np.bincount(occupied.sum(axis=1), minlength=n + 1)
        vacant += (~occupied).sum(axis=0)
        last_car += np.bincount(cover.max(axis=1), minlength=n)
        if classify is not None:
            got = np.asarray(classify(ranks), dtype=bool)
            if got.shape != occupied.shape:
                raise ValueError(f"classify returned shape {got.shape}, expected {occupied.shape}")
            bad += [(block[r], int(i) + 1) for r, i in np.argwhere(got != occupied)]
    return occupied_sites.tolist(), vacant.tolist(), last_car.tolist(), bad


def enumerate_orderings(n: int, classify=None) -> OracleReport:
    """Exhaustively replay every ordering of the n-1 slots, once each.

    Returns exact rational aggregates: E[M_n], the full law of M_n, per-site
    vacancy probabilities, and E[T_n]. With a classify (as in verify_lemma1)
    the same pass also fills counterexamples. Raises ValueError above the
    enumeration cap (n > 10).

    E[T_n] comes from the orderings too. The first draws of the uniform-draw
    process visit the slots in a uniform random order, independent of the
    draw counts at which new slots come up, and only a slot's first draw can
    park a car. So the process jams at the first draw of the last car slot in
    that order; if it comes k-th, the draw count has mean _draws_to_see(k, m).
    """
    m = n - 1
    total = factorial(m)
    occupied_sites, vacant, last_car, bad = _replay_all(n, permutations(range(1, n)), classify)
    return OracleReport(
        n=n,
        permutations=total,
        expected_M=Fraction(sum(k * c for k, c in enumerate(occupied_sites)), total),
        distribution_M={k: Fraction(c, total) for k, c in enumerate(occupied_sites) if c},
        per_site_vacancy=tuple(Fraction(c, total) for c in vacant),
        expected_T=sum((c * _draws_to_see(k, m) for k, c in enumerate(last_car)), Fraction(0)) / total,
        counterexamples=None if classify is None else tuple(bad),
    )


def expected_T_exact(n: int) -> Fraction:
    """Exact E[T_n] for the uniform-draw process, T counting every draw up to
    and including the jamming one.

    Solves the absorbing-chain system over reachable occupancy states. Parking
    strictly adds cars, so after eliminating each state's rejection self-loop
    the system is triangular and back-substitution suffices:

        E[s] = ((n-1) + sum over parkable slots of E[park(s, slot)]) / #parkable
    """
    if not 2 <= n <= CHAIN_CAP:
        raise ValueError(f"oracle cap exceeded: need 2 <= n <= {CHAIN_CAP}, got {n}")
    m = n - 1

    @lru_cache(maxsize=None)
    def e_from(state: int) -> Fraction:
        children = []
        for s in range(m):
            if not state & (0b11 << s):
                children.append(state | (0b11 << s))
        if not children:
            return Fraction(0)
        return Fraction(m + sum(e_from(c) for c in children), len(children))

    return e_from(0)


def weak_orderings(m: int):
    """Every weak ordering of m slots once, as a rank vector with ties.

    ranks[s] is the level (1..k) of 0-based slot s; tied slots share a level.
    There are Fubini(m) of them (1, 3, 13, 75, 541, 4683 for m = 1..6), built
    as ordered set partitions: a block of slots on level 1, then the rest."""

    def fill(ranks: tuple, rest: tuple, level: int):
        if not rest:
            yield ranks
        for size in range(1, len(rest) + 1):
            for block in combinations(rest, size):
                placed = tuple(level if s in block else r for s, r in enumerate(ranks))
                yield from fill(placed, tuple(s for s in rest if s not in block), level + 1)

    return fill((0,) * m, tuple(range(m)), 1)


def park_in_rank_order(ranks) -> list[int | None]:
    """The one-row view of _replay: slots tried in increasing rank, equal ranks
    left slot first. Entry i is the 0-based slot of the car covering 0-based
    site i (read off its covering rank), or None when the site stays vacant."""
    order = np.argsort(ranks, kind="stable").tolist()
    return [order[k - 1] if k else None for k in _replay(order, len(order) + 1)]


def verify_lemma1(n: int, classify, rank_vectors=None) -> list[tuple[tuple[int, ...], int]]:
    """Check a batched site classifier against the replay for every given
    slot ranking, in the one pass enumerate_orderings runs.

    classify maps a 2-D mark array, one row of n-1 slot ranks per ordering
    (only the ordering matters), to the (rows, n) boolean occupancy it
    predicts; finite.occupancy_profile is such a function. It is called once
    per block of LEMMA1_BLOCK rankings. rank_vectors defaults to every
    permutation of 1..n-1; weak_orderings(n - 1) adds ties, which the replay
    breaks by slot index. Returns the list of (ranks, 1-based site)
    counterexamples in ranking order, expected empty.
    """
    return _replay_all(n, permutations(range(1, n)) if rank_vectors is None else rank_vectors, classify)[-1]
