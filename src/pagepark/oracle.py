"""Brute-force ground truth for small intervals.

Everything here is deliberately independent of the simulator modules: parking
is replayed with its own plain-Python loop over explicit permutations (or weak
orderings, whose ties the replay breaks by slot index), and the trial-count
mean comes from the absorbing-chain linear system. The rest of the
package is validated against these values, never the other way around.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

ENUMERATION_CAP = 10  # (n-1)! permutations; 9! = 362880 is the practical limit
CHAIN_CAP = 12


@dataclass(frozen=True)
class OracleReport:
    """Exact aggregates over all (n-1)! slot orderings."""

    n: int
    permutations: int
    expected_M: Fraction
    distribution_M: dict[int, Fraction]
    per_site_vacancy: tuple[Fraction, ...]
    expected_T: Fraction


def _replay(order, n: int) -> list[int | None]:
    """Park greedily in the given slot order (0-based slots; slot s covers
    sites s and s+1). Entry i of the result is the slot of the car covering
    0-based site i, or None when the site stays vacant."""
    cover: list[int | None] = [None] * n
    for s in order:
        if cover[s] is None and cover[s + 1] is None:
            cover[s] = cover[s + 1] = s
    return cover


def enumerate_orderings(n: int) -> OracleReport:
    """Exhaustively replay every ordering of the n-1 slots.

    Returns exact rational aggregates: E[M_n], the full law of M_n, per-site
    vacancy probabilities, and E[T_n] from the absorbing chain. Raises
    ValueError above the enumeration cap (n > 10).
    """
    if not 2 <= n <= ENUMERATION_CAP:
        raise ValueError(f"oracle cap exceeded: need 2 <= n <= {ENUMERATION_CAP}, got {n}")
    m = n - 1
    total = factorial(m)
    m_counts: dict[int, int] = {}
    vacant_counts = [0] * n
    for order in permutations(range(m)):
        cover = _replay(order, n)
        parked = n - cover.count(None)
        m_counts[parked] = m_counts.get(parked, 0) + 1
        for i in range(n):
            if cover[i] is None:
                vacant_counts[i] += 1
    return OracleReport(
        n=n,
        permutations=total,
        expected_M=Fraction(sum(k * c for k, c in m_counts.items()), total),
        distribution_M={k: Fraction(c, total) for k, c in sorted(m_counts.items())},
        per_site_vacancy=tuple(Fraction(c, total) for c in vacant_counts),
        expected_T=expected_T_exact(n),
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
    """Replay parking with slots tried in increasing rank, equal ranks in slot
    order (left slot first). Entry i is the 0-based slot of the car covering
    0-based site i, or None when the site stays vacant."""
    order = sorted(range(len(ranks)), key=lambda s: ranks[s])  # stable: ties by slot index
    return _replay(order, len(ranks) + 1)


def verify_lemma1(n: int, classify, rank_vectors=None) -> list[tuple[tuple[int, ...], int]]:
    """Check a site classifier against the replay for every given slot ranking.

    classify(ranks, i) must predict occupancy of 1-based site i from the slot
    ranks alone (rank vector = marks; only the ordering matters). rank_vectors
    defaults to every permutation of 1..n-1; weak_orderings(n - 1) adds ties,
    which the replay breaks by slot index. Returns the list of (ranks, site)
    counterexamples, expected empty.
    """
    if not 2 <= n <= ENUMERATION_CAP:
        raise ValueError(f"oracle cap exceeded: need 2 <= n <= {ENUMERATION_CAP}, got {n}")
    if rank_vectors is None:
        rank_vectors = permutations(range(1, n))
    bad: list[tuple[tuple[int, ...], int]] = []
    for ranks in rank_vectors:
        occ = [c is not None for c in park_in_rank_order(ranks)]
        for i in range(1, n + 1):
            if bool(classify(ranks, i)) != occ[i - 1]:
                bad.append((ranks, i))
    return bad
