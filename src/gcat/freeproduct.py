"""Detecting free products from the G-invariant alone.

A pinchpoint of the lattice of cyclic flats is an interior element comparable
with every cyclic flat; pinchpoints are in bijection with the sharp free
product factorizations M = (M|X) # (M/X).  Free extensions and coextensions
are invisible to the invariant by design, so only proper factorizations
(both parts with at least two cyclic flats) are reported.

The cyclic flats of each rank and size come from the census of unit chains
the catenary data hold (`parameters`), so the detection pays for one pass
over the keys per rank of M and of each split part, and reads every count
after that.  M's data hold the split parts too, so a second detection on
the same G solves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .configuration import Configuration
from .errors import ExactnessError
from .ginvariant import (CatenaryData, GInvariant, catenary_from_g,
                         g_from_catenary)
from .matroid import Matroid, elements_of
from .parameters import (_split_at_unique_flat, _unit_chains, flat_count,
                         flat_count_coloops)


@dataclass(frozen=True)
class FactorizationReport:
    """Outcome of free-product detection on an invariant.

    Each factor records the rank and size of a verified pinchpoint together
    with the invariants of the two constituents of the sharp factorization.
    """

    is_proper: bool
    factors: tuple  # of (rank, size, GInvariant, GInvariant)


def pinchpoints(c: Configuration) -> list[int]:
    """Interior nodes comparable to every node of the configuration."""
    return [x for x in range(c.m) if x not in (c.bottom, c.top)
            and len(c.below(x)) + c.up[x].bit_count() == c.m - 1]


def _cyclic_census(c: CatenaryData) -> dict[tuple[int, int], int]:
    """Count of cyclic flats by (rank, size), from the catenary data.

    A rank-k flat of size s lies on a flag, so only the pairs
    (k, a_0 + ... + a_k) of the catenary keys can hold one: the sizes of
    the flat counts in rank k's row of the unit-chain census c holds.  The
    coloop counts are held on c once solved, so a second census of the
    same data solves nothing."""
    out: dict[tuple[int, int], int] = {}
    for k in range(c.r + 1):
        for s in sorted(s for s, j in _unit_chains(c, k) if j == 0):
            v = flat_count_coloops(c, k, s, 0)
            if v:
                out[(k, s)] = v
    return out


def detect_free_product(g: GInvariant) -> FactorizationReport:
    """Decide whether the invariant belongs to a proper free product.

    Candidate ranks carry exactly one cyclic flat; a candidate is a
    pinchpoint when it is the unique flat of its rank and size and the
    cyclic flats of the two split parts exhaust the cyclic flats of M below
    and above the candidate's rank.
    """
    c = catenary_from_g(g)
    census = _cyclic_census(c)
    factors = []
    for k in range(1, c.r):
        at_rank = [(kk, s) for (kk, s) in census if kk == k]
        if sum(census[key] for key in at_rank) != 1:
            continue
        if not any(kk > k for (kk, _) in census):
            # the candidate is the maximum of the cyclic-flat lattice (the
            # matroid has coloops); a pinchpoint must be interior
            continue
        s0 = at_rank[0][1]
        if flat_count(c, k, s0) != 1:
            continue
        left, right = _split_at_unique_flat(c, k, s0)
        below = sum(v for (kk, _), v in census.items() if kk <= k)
        above = sum(v for (kk, _), v in census.items() if kk >= k)
        if sum(_cyclic_census(left).values()) != below:
            continue
        if sum(_cyclic_census(right).values()) != above:
            continue
        factors.append((k, s0, g_from_catenary(left), g_from_catenary(right)))
    return FactorizationReport(bool(factors), tuple(factors))


def _pinchpoint_flats(m: Matroid) -> list[int]:
    """The interior cyclic flats of m comparable with every cyclic flat.

    `cyclic_flats` lists them by rank, so the bottom comes first and the
    top last."""
    masks = [f for f, _ in m.cyclic_flats()]
    return [x for x in masks[1:-1]
            if all(f & ~x == 0 or x & ~f == 0 for f in masks)]


def factor_at_pinchpoint(m: Matroid, x: int) -> tuple[Matroid, Matroid]:
    """Split an explicit matroid at a pinchpoint of its cyclic-flat lattice.

    Returns (M|X, M/X) and checks that their free product reproduces M's
    basis collection under the natural relabeling.
    """
    if x not in _pinchpoint_flats(m):
        raise ValueError(
            "target set is not a pinchpoint of the cyclic-flat lattice")
    rest = m.restrict(x)
    contr = m.contract(x)
    # reproduce M: product elements are sorted(X) then sorted(E - X)
    relabel = elements_of(x) + elements_of(m.full & ~x)
    prod = rest.free_product(contr)
    mapped = frozenset(
        sum(1 << relabel[i] for i in elements_of(b)) for b in prod.bases)
    if mapped != m.bases:
        raise ExactnessError("free product of the parts does not rebuild the matroid")
    return rest, contr
