"""Reassembling a G-invariant from decks of minors.

A deck is an unlabeled multiset of invariants of minors: restrictions to
copoints, contractions by circuits or by rank-g flats, or (restriction,
contraction) pairs over the rank-k flats.  Every rebuild is one slicing sum
nu(M) = sum over the flats X of one rank of nu(M|X) o nu(M/X), where the
circle product o concatenates gamma-basis coordinates.  A copoint deck is
the rank r-1 case with M/H = U(1, n - |H|), once the ground-set size n is
recovered from the deck by exact integer search; a girth deck is the rank
g case with M|X = U(g, g).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .constructions import g_dual
from .errors import ExactnessError
from .ginvariant import (CatenaryData, GInvariant, catenary_from_g,
                         g_from_catenary, g_invariant, gamma_one,
                         invariant_catenary, invariant_copies, pmd_catenary)
from .matroid import Matroid


@dataclass(frozen=True)
class Deck:
    """Multiset of deck entries with a role tag.

    Entries are (invariant, multiplicity) pairs for the copoint, circuit,
    and h-sums roles, and ((restriction, contraction), multiplicity) pairs
    for the rank-k role.
    """

    role: str
    entries: tuple

    ROLES = ("copoint", "circuit", "rank-k", "h-sums", "rank-g-contractions")

    def __post_init__(self):
        if self.role not in self.ROLES:
            raise ValueError(f"unknown deck role {self.role!r}")
        object.__setattr__(self, "entries", tuple(
            (item, int(mult)) for item, mult in self.entries))
        for item, mult in self.entries:
            if mult < 1:
                raise ValueError("multiplicities must be positive")


def circle_product(c1: CatenaryData, c2: CatenaryData) -> CatenaryData:
    """Concatenate gamma coordinates: the slicing sum of one pair."""
    return _slice_counts([(1, c1, c2)])


def _slice_counts(triples) -> CatenaryData:
    """Sum of mult * (c1 o c2) over (multiplicity, restriction catenary c1,
    contraction catenary c2) triples, whose products share one shape and
    whose keys share one loop count: keys a and b give a + b[1:], where b
    must be loopless, as the key of a contraction by a flat is."""
    triples = list(triples)
    shapes = {(c1.n + c2.n, c1.r + c2.r) for _, c1, c2 in triples}
    if not shapes:
        raise ValueError("empty deck")
    if len(shapes) > 1:
        raise ExactnessError(
            f"deck entries have mixed shapes {sorted(shapes)}")
    counts: dict[tuple, int] = {}
    for mult, c1, c2 in triples:
        for b, y in c2.counts.items():
            if b[0] != 0:
                raise ExactnessError(f"second factor has a loopy key {b}")
            tail = b[1:]
            for a, x in c1.counts.items():
                key = a + tail
                counts[key] = counts.get(key, 0) + mult * x * y
    total = CatenaryData(*shapes.pop(), counts)
    total.loops()
    return total


def _slicing_sum(triples) -> GInvariant:
    """The invariant a deck's triples rebuild, which must total n!."""
    g = g_from_catenary(_slice_counts(triples))
    invariant_copies(g)
    return g


def slice_assemble(deck: Deck, k: int) -> GInvariant:
    """Reassemble the invariant from the rank-k deck of (M|X, M/X) pairs."""
    if deck.role != "rank-k":
        raise ValueError("slicing needs a rank-k deck of pairs")
    for (g_rest, _), _ in deck.entries:
        if g_rest.r != k:
            raise ExactnessError(
                f"deck entry has restriction rank {g_rest.r}, expected {k}")
    return _slicing_sum(
        (mult, invariant_catenary(rest), invariant_catenary(contr))
        for (rest, contr), mult in deck.entries)


def _copoint_catenaries(deck: Deck) -> list[tuple[CatenaryData, int, int]]:
    """Entry catenaries with multiplicities and copoint counts: an h-sums
    entry sums the invariants of all copoints of its size."""
    copies = None if deck.role == "h-sums" else 1
    cats = []
    for g, mult in deck.entries:
        count = invariant_copies(g, copies)
        cats.append((catenary_from_g(g), mult, count))
    if not cats:
        raise ValueError("empty deck")
    ranks = {c.r for c, _, _ in cats}
    if len(ranks) != 1:
        raise ExactnessError(f"deck entries have mixed ranks {sorted(ranks)}")
    return cats


def recover_n(deck: Deck) -> int:
    """Ground-set size from a copoint deck, by monotone exact search.

    Summing, over deck entries and their flag compositions, the orderings
    of n elements that generate the flag extended by the copoint's
    complement (`gamma_one`) gives S(n).  S(n) / n! strictly decreases in n
    and is 1 exactly at the true ground-set size, so the search compares
    S(n) with n! and with n S(n-1), in integers.  Each evaluation costs an
    n!, so the search skips the n that a lower bound already puts above 1.
    The entries hold their gamma coordinates once solved, so a rebuild
    reads them back.
    """
    cats = _copoint_catenaries(deck)
    entry_rank = cats[0][0].r
    if entry_rank < 1:
        raise ExactnessError(
            "rank-0 deck entries leave the ground-set size undetermined")

    def orderings(n: int) -> int:
        return sum(mult * cnt * gamma_one(comp + (n - c.n,))
                   for c, mult, _ in cats for comp, cnt in c.counts.items())

    low = max(c.n for c, _, _ in cats)
    cap = sum(c.n * mult * count for c, mult, count in cats) + entry_rank + 1
    # each a_(j+1)/(n - s_j) is at least a_(j+1)/n, so S(n) > n! while
    # n^r is below the weight: the search starts at the first n past those
    weight = sum(mult * cnt * math.prod(comp[1:])
                 for c, mult, _ in cats for comp, cnt in c.counts.items())
    sizes = range(low + 1, cap + 1)
    start = bisect_left(sizes, weight, key=lambda n: n ** entry_rank)
    prev = None
    for n in sizes[start:]:
        cur, nf = orderings(n), math.factorial(n)
        if prev is not None and cur >= n * prev:
            raise ExactnessError("deck equation is not strictly decreasing in n")
        prev = cur
        if cur == nf:
            return n
        if cur < nf:
            break
    raise ExactnessError(
        "no ground-set size satisfies the copoint-deck equation: not a copoint deck")


def reconstruct_from_copoint_deck(deck: Deck) -> GInvariant:
    """Rebuild the invariant from the unlabeled copoint restrictions.

    The slicing sum at rank r - 1: the contraction by a copoint H is
    U(1, n - |H|), whose one key is (0, n - |H|).  Only per-size totals
    enter, so individual entries and size-grouped sums rebuild alike.
    """
    if deck.role not in {"copoint", "h-sums"}:
        raise ValueError("copoint reconstruction needs a copoint or h-sums deck")
    n = recover_n(deck)
    cats = _copoint_catenaries(deck)
    return _slicing_sum(
        (mult, c, CatenaryData(n - c.n, 1, {(0, n - c.n): 1}))
        for c, mult, _ in cats)


def circuit_deck_reconstruct(deck: Deck) -> GInvariant:
    """Rebuild the invariant from the contractions by all circuits.

    Contracting a circuit of M restricts the dual to a copoint, so
    dualizing the deck reduces to copoint reconstruction.
    """
    if deck.role != "circuit":
        raise ValueError("circuit reconstruction needs a circuit deck")
    dual_deck = Deck("copoint", tuple(
        (g_dual(g), mult) for g, mult in deck.entries))
    return g_dual(reconstruct_from_copoint_deck(dual_deck))


def girth_deck_reconstruct(deck: Deck, g: int, n: int) -> GInvariant:
    """Rebuild the invariant of a matroid with girth at least g+2 from the
    contractions by its rank-g flats (all of which are g-element independent
    flats, restricting to free matroids): the slicing sum at rank g with
    every restriction U(g,g), the design with flat sizes 0, 1, ..., g.
    """
    free = pmd_catenary(range(g + 1))
    rebuilt = _slicing_sum((mult, free, invariant_catenary(entry))
                           for entry, mult in deck.entries)
    if rebuilt.n != n:
        raise ValueError(
            f"entries of size {rebuilt.n - g} with g={g} do not fit n={n}")
    return rebuilt


# -- deck extraction from explicit matroids -------------------------------------

def _group(invariants) -> tuple:
    return tuple(Counter(invariants).items())


def copoint_deck(m: Matroid) -> Deck:
    """Deck of G-invariants of the restrictions to copoints."""
    return Deck("copoint", _group(
        g_invariant(m.restrict(x)) for x in m.copoints()))


def size_grouped_copoint_deck(m: Matroid) -> Deck:
    """The copoint deck with same-size entries summed (the h-sums form)."""
    return _size_grouped(copoint_deck(m))


def _size_grouped(deck: Deck) -> Deck:
    by_size: dict[tuple[int, int], dict[str, int]] = {}
    for g, mult in deck.entries:
        acc = by_size.setdefault((g.n, g.r), {})
        for key, c in g.coeffs.items():
            acc[key] = acc.get(key, 0) + mult * c
    return Deck("h-sums", tuple((GInvariant(n, r, acc), 1)
                                for (n, r), acc in sorted(by_size.items())))


def circuit_deck(m: Matroid) -> Deck:
    """Deck of G-invariants of the contractions by circuits."""
    return Deck("circuit", _group(
        g_invariant(m.contract(x)) for x in m.circuits()))


def rank_deck(m: Matroid, k: int) -> Deck:
    """Deck of (restriction, contraction) invariant pairs over rank-k flats."""
    return Deck("rank-k", _group(
        (g_invariant(m.restrict(x)), g_invariant(m.contract(x)))
        for x in m.flats_of_rank(k)))


def girth_deck(m: Matroid, g: int) -> Deck:
    """Deck of contractions by the rank-g flats."""
    return Deck("rank-g-contractions", _group(
        g_invariant(m.contract(x)) for x in m.flats_of_rank(g)))
