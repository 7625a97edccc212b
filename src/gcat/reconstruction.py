"""Reassembling a G-invariant from decks of minors.

A deck is an unlabeled multiset of invariants of minors: restrictions to
copoints, contractions by circuits, or (restriction, contraction) pairs over
the rank-k flats.  The circle product concatenates gamma-basis coordinates,
the slicing identity sums it over a rank level, and the copoint recursion
rebuilds the catenary data once the ground-set size has been recovered from
the deck by exact rational search.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .constructions import g_dual
from .errors import ExactnessError
from .ginvariant import (CatenaryData, GInvariant, catenary_from_g,
                         g_from_catenary, g_invariant, gamma_one,
                         invariant_catenary, invariant_copies)
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
    """Concatenate gamma coordinates: keys of c2 must be loopless, as a
    contraction by a flat is."""
    counts: dict[tuple, int] = {}
    for a, x in c1.counts.items():
        for b, y in c2.counts.items():
            if b[0] != 0:
                raise ExactnessError(f"second factor has a loopy key {b}")
            key = a + b[1:]
            counts[key] = counts.get(key, 0) + x * y
    return CatenaryData(c1.n + c2.n, c1.r + c2.r, counts)


def _deck_sum(entries, solve) -> CatenaryData:
    """Sum of mult * solve(entry) over (entry, mult) pairs of one shape."""
    total: dict[tuple, int] = {}
    shape = None
    for entry, mult in entries:
        c = solve(entry)
        if shape is None:
            shape = (c.n, c.r)
        elif shape != (c.n, c.r):
            raise ValueError("deck entries have inconsistent shapes")
        for comp, v in c.counts.items():
            total[comp] = total.get(comp, 0) + mult * v
    if shape is None:
        raise ValueError("empty deck")
    return CatenaryData(shape[0], shape[1], total)


def _rebuild(c: CatenaryData) -> GInvariant:
    """The invariant of summed deck counts, which must total n! orderings."""
    g = g_from_catenary(c)
    invariant_copies(g)
    return g


def slice_assemble(deck: Deck, k: int) -> GInvariant:
    """Reassemble the invariant from the rank-k deck of (M|X, M/X) pairs."""
    if deck.role != "rank-k":
        raise ValueError("slicing needs a rank-k deck of pairs")

    def solve(pair):
        g_rest, g_contr = pair
        if g_rest.r != k:
            raise ValueError(
                f"deck entry has restriction rank {g_rest.r}, expected {k}")
        return circle_product(invariant_catenary(g_rest),
                              invariant_catenary(g_contr))

    return _rebuild(_deck_sum(deck.entries, solve))


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

    Summing, over deck entries and their flag compositions, the share of
    the n! orderings that generate the flag extended by the copoint's
    complement (`gamma_one`) gives a strictly decreasing function of n that
    equals 1 exactly at the true ground-set size.  Each evaluation costs an
    n!, so the search skips the n that a lower bound already puts above 1.
    """
    return _recover_n(_copoint_catenaries(deck))


def _recover_n(cats: list[tuple[CatenaryData, int, int]]) -> int:
    """`recover_n` on the solved entries of `_copoint_catenaries`."""
    entry_rank = cats[0][0].r
    if entry_rank < 1:
        raise ExactnessError(
            "rank-0 deck entries leave the ground-set size undetermined")

    def value(n: int) -> Fraction:
        return Fraction(sum(mult * cnt * gamma_one(comp + (n - c.n,))
                            for c, mult, _ in cats
                            for comp, cnt in c.counts.items()),
                        math.factorial(n))

    low = max(c.n for c, _, _ in cats)
    cap = sum(c.n * mult * count for c, mult, count in cats) + entry_rank + 1
    # each a_(j+1)/(n - s_j) is at least a_(j+1)/n, so value(n) > 1 while
    # n^r is below the weight: the search starts at the first n past those
    weight = sum(mult * cnt * math.prod(comp[1:])
                 for c, mult, _ in cats for comp, cnt in c.counts.items())
    sizes = range(low + 1, cap + 1)
    start = bisect_left(sizes, weight, key=lambda n: n ** entry_rank)
    prev = None
    for n in sizes[start:]:
        cur = value(n)
        if prev is not None and cur >= prev:
            raise ExactnessError("deck equation is not strictly decreasing in n")
        prev = cur
        if cur == 1:
            return n
        if cur < 1:
            break
    raise ExactnessError(
        "no ground-set size satisfies the copoint-deck equation: not a copoint deck")


def reconstruct_from_copoint_deck(deck: Deck) -> GInvariant:
    """Rebuild the invariant from the unlabeled copoint restrictions.

    Works equally from individual entries or size-grouped sums: only the
    per-size totals enter, via the copoint recursion
    nu(a_0, ..., a_{r-1}, a_r) = sum over entries of size n - a_r of the
    entry's nu(a_0, ..., a_{r-1}).
    """
    if deck.role not in {"copoint", "h-sums"}:
        raise ValueError("copoint reconstruction needs a copoint or h-sums deck")
    cats = _copoint_catenaries(deck)
    n = _recover_n(cats)
    r = cats[0][0].r + 1
    loopsets = {c.loops() for c, _, _ in cats}
    if len(loopsets) != 1:
        raise ExactnessError(
            f"inconsistent loop counts across deck entries: {sorted(loopsets)}")
    counts: dict[tuple, int] = {}
    for c, mult, _ in cats:
        a_r = n - c.n
        if a_r < 1:
            raise ExactnessError(f"deck entry of size {c.n} cannot be a copoint")
        for comp, cnt in c.counts.items():
            key = comp + (a_r,)
            counts[key] = counts.get(key, 0) + mult * cnt
    return g_from_catenary(CatenaryData(n, r, counts))


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
    flats, restricting to free matroids).
    """
    summed = _deck_sum(deck.entries, invariant_catenary)
    if summed.n + g != n:
        raise ValueError(
            f"entries of size {summed.n} with g={g} do not fit n={n}")
    prefix = CatenaryData(g, g, {(0,) + (1,) * g: math.factorial(g)})
    return _rebuild(circle_product(prefix, summed))


# -- deck extraction from explicit matroids -------------------------------------

def _group(invariants) -> tuple:
    return tuple(Counter(invariants).items())


def copoint_deck(m: Matroid) -> Deck:
    """Deck of G-invariants of the restrictions to copoints."""
    return Deck("copoint", _group(
        g_invariant(m.restrict(x)) for x in m.copoints()))


def size_grouped_copoint_deck(m: Matroid) -> Deck:
    """The copoint deck with same-size entries summed (the h-sums form)."""
    by_size: dict[tuple[int, int], dict[str, int]] = {}
    for g, mult in copoint_deck(m).entries:
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
