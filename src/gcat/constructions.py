"""Construction algebra on G-invariants and catenary data.

Every operation here works purely on invariant vectors, never touching a
matroid; the test suite validates each one against matroid-level composition.
Each identity has one path: symbol-basis rewrites accumulate coefficients,
each co-side construction is its partner seen through `g_dual`, and the
direct sum, loops included, goes through the gamma basis (`cat_direct_sum`).
"""

from __future__ import annotations

import math

from .errors import ExactnessError, held
from .ginvariant import (CatenaryData, GInvariant, cat_direct_sum,
                         catenary_from_g, g_from_catenary)


def _accumulate(pairs) -> dict:
    acc: dict = {}
    for key, c in pairs:
        acc[key] = acc.get(key, 0) + c
    return acc


# -- dual, truncation, lift ---------------------------------------------------

_SWAP = str.maketrans("01", "10")


def dual_symbols(g: GInvariant) -> GInvariant:
    """G of the dual: each symbol reversed and its 0s and 1s swapped."""
    return GInvariant(g.n, g.n - g.r, {
        key[::-1].translate(_SWAP): c for key, c in g.coeffs.items()})


def g_dual(g: GInvariant) -> GInvariant:
    """`dual_symbols` of g, which g holds once built, so every later call
    returns that one G and its gamma coordinates: each dual is solved once."""
    return held(g, "dual", dual_symbols)


def _demote(key: str) -> str:
    i = key.rindex("1")
    return key[:i] + "0" + key[i + 1:]


def g_truncate(g: GInvariant) -> GInvariant:
    """Turn the rightmost 1 of each symbol into a 0.

    The per-symbol rewrite is exact because truncating caps every prefix
    rank at r-1, which flips exactly the step where the rank reached r.
    Merging the last two parts of each composition in the gamma basis is NOT
    equivalent: merged coordinates count flags of the original matroid, and
    overcount each flag of the truncation once per interpolating copoint
    (e.g. it would give 18 instead of 6 for the truncated rank-3 wheel).
    """
    if g.r < 1:
        raise ValueError("cannot truncate at rank 0")
    coeffs = _accumulate((_demote(key), c) for key, c in g.coeffs.items())
    return GInvariant(g.n, g.r - 1, coeffs)


def g_lift(g: GInvariant) -> GInvariant:
    """The truncation seen through the dual: each leftmost 0 becomes a 1."""
    if g.r >= g.n:
        raise ValueError("cannot lift a matroid with no circuits")
    return g_dual(g_truncate(g_dual(g)))


# -- direct sums ---------------------------------------------------------------

def g_shuffle(g1: GInvariant, g2: GInvariant) -> GInvariant:
    """G-invariant of the direct sum, through the gamma basis.

    Only the catenary compositions of the two parts are shuffled, so the
    work grows with their flag keys, not with C(n1+n2, n1) per pair of
    symbols.  Inputs that are not matroid invariants raise ExactnessError.
    """
    return g_from_catenary(cat_direct_sum(catenary_from_g(g1),
                                          catenary_from_g(g2)))


# -- single-element and loop adjustments ----------------------------------------

def _insertions(key: str):
    for i in range(len(key) + 1):
        yield key[:i] + "1" + key[i:]


def g_add_coloop(g: GInvariant) -> GInvariant:
    """Insert a 1 in every position of every symbol."""
    coeffs = _accumulate((s, c) for key, c in g.coeffs.items()
                         for s in _insertions(key))
    return GInvariant(g.n + 1, g.r + 1, coeffs)


def g_add_loop(g: GInvariant) -> GInvariant:
    """The coloop addition seen through the dual: a 0 in every position."""
    return g_dual(g_add_coloop(g_dual(g)))


# -- free extension and coextension ----------------------------------------------

def g_free_extension(g: GInvariant) -> GInvariant:
    """The free extension is the truncation of M plus a coloop."""
    return g_truncate(g_add_coloop(g))


def g_free_coextension(g: GInvariant) -> GInvariant:
    """The free extension seen through the dual."""
    return g_dual(g_free_extension(g_dual(g)))


# -- free product -----------------------------------------------------------------

def _prefix_ranks(key: str) -> list[int]:
    """Number of ones in each prefix of a rank sequence, lengths 0..n."""
    w = [0]
    for ch in key:
        w.append(w[-1] + (ch == "1"))
    return w


def free_product_rank_sequence(key1: str, key2: str, positions) -> str:
    """Rank sequence of a shuffle of two rank sequences in the free product.

    `positions` says which slots of the merged order carry key1's elements.
    The rank after each step is min(r1_total + r2 of the part seen from the
    second factor, r1 of the part seen from the first factor + its size).
    """
    n1, n2 = len(key1), len(key2)
    pos = frozenset(positions)
    w1 = _prefix_ranks(key1)
    w2 = _prefix_ranks(key2)
    r1_total = w1[-1]
    out = []
    prev = x1 = 0
    for j in range(1, n1 + n2 + 1):
        if j - 1 in pos:
            x1 += 1
        x2 = j - x1
        cur = min(r1_total + w2[x2], w1[x1] + x2)
        out.append("1" if cur > prev else "0")
        prev = cur
    return "".join(out)


def _merged_sequences(w1: list[int], w2: list[int]) -> dict[int, int]:
    """Rank sequences of all shuffles of two prefix-rank lists, with counts.

    A shuffle is a lattice path from (0, 0) to (n1, n2); the rank at node
    (x1, x2) is min(r1 + w2[x2], w1[x1] + x2), so a step outputs a 1 exactly
    when it raises that rank.  The walk goes diagonal by diagonal, holding
    for each x1 a map from output prefix (an int, first step highest) to the
    number of paths that reach (x1, d - x1) with that prefix; paths that
    meet at a node with the same prefix share their future and are merged.
    """
    n1, n2 = len(w1) - 1, len(w2) - 1
    r1 = w1[-1]
    rank = [[min(r1 + b, a + x2) for x2, b in enumerate(w2)] for a in w1]
    layer = {0: {0: 1}}
    for d in range(n1 + n2):
        nxt: dict[int, dict[int, int]] = {}
        for x1, states in layer.items():
            x2 = d - x1
            here = rank[x1][x2]
            for y1, y2 in ((x1 + 1, x2), (x1, x2 + 1)):
                if y1 > n1 or y2 > n2:
                    continue
                bit = rank[y1][y2] > here
                acc = nxt.setdefault(y1, {})
                for p, cnt in states.items():
                    q = p << 1 | bit
                    acc[q] = acc.get(q, 0) + cnt
        layer = nxt
    return layer[n1]


def g_free_product(g1: GInvariant, g2: GInvariant) -> GInvariant:
    """G-invariant of the free product, by a lattice-path DP per symbol pair.

    Each pair of symbols runs `_merged_sequences`: its state is the grid
    node (x1, x2) with the merged output prefix, so the work grows with the
    distinct prefixes at each node rather than with the binomial(n1+n2, n1)
    shuffles that `free_product_rank_sequence` defines one at a time.
    """
    n = g1.n + g2.n
    right = [(_prefix_ranks(k2), c2) for k2, c2 in g2.coeffs.items()]
    coeffs: dict[str, int] = {}
    for k1, c1 in g1.coeffs.items():
        w1 = _prefix_ranks(k1)
        for w2, c2 in right:
            c = c1 * c2
            for p, cnt in _merged_sequences(w1, w2).items():
                key = format(p, f"0{n}b") if n else ""
                coeffs[key] = coeffs.get(key, 0) + c * cnt
    return GInvariant(n, g1.r + g2.r, coeffs)


# -- q-cone ------------------------------------------------------------------------

def cat_qcone(c: CatenaryData, q: int) -> CatenaryData:
    """Catenary data of a q-cone of a simple matroid with catenary data c.

    Each flag, for each jump position j, contributes q^(j-1) flags whose
    composition keeps the first j parts, inserts (sum of those parts)(q-1)+1,
    and scales the remaining parts by q.  Simplicity of the input is checked
    on the keys (no loops, singleton points); the transform itself is formal
    in q, so representability over a field with q elements is the caller's
    obligation.
    """
    if q < 2:
        raise ValueError("q-cone needs q >= 2")
    r = c.r
    counts: dict[tuple, int] = {}
    for comp, cnt in c.counts.items():
        if comp[0] != 0 or (r >= 1 and comp[1] != 1):
            raise ValueError(f"q-cone input must be simple; key {comp}")
        prefix_sum = 0
        for j in range(1, r + 2):
            prefix = comp[:j]
            prefix_sum = sum(prefix)
            new = prefix + (prefix_sum * (q - 1) + 1,) \
                + tuple(a * q for a in comp[j:])
            counts[new] = counts.get(new, 0) + cnt * q ** (j - 1)
    return CatenaryData(q * c.n + 1, r + 1, counts)


# -- circuit-hyperplane relaxation ----------------------------------------------------

def g_relax(g: GInvariant) -> GInvariant:
    """Relax one circuit-hyperplane at the invariant level.

    Adds r!(n-r)! to the top symbol 1^r 0^(n-r) and subtracts the same from
    1^(r-1) 0 1 0^(n-r-1), which in the gamma basis is r! flags added at
    (0, 1, ..., 1, n-r+1) and r!/2 taken from (0, 1, ..., 1, 2, n-r).  An
    input with no circuit-hyperplane H fails one of two checks: the swapped
    symbol must stay nonnegative, and for rank >= 2 the gamma coordinates
    must count at least the r!/2 flags through H (M|H is U(r-1, r)) at
    (0, 1, ..., 1, 2, n-r).  Only the second rejects U(1,3) + U(1,1).
    """
    n, r = g.n, g.r
    if r < 1 or n < r + 1:
        raise ExactnessError("no circuit-hyperplane can exist at this shape")
    delta = math.factorial(r) * math.factorial(n - r)
    top = "1" * r + "0" * (n - r)
    swapped = "1" * (r - 1) + "01" + "0" * (n - r - 1)
    coeffs = dict(g.coeffs)
    coeffs[top] = coeffs.get(top, 0) + delta
    coeffs[swapped] = coeffs.get(swapped, 0) - delta
    if coeffs[swapped] < 0:
        raise ExactnessError(
            f"coefficient of [{swapped}] would become negative: "
            "input has no circuit-hyperplane")
    if r >= 2:
        kswp = (0,) + (1,) * (r - 2) + (2, n - r)
        if catenary_from_g(g)[kswp] < math.factorial(r) // 2:
            raise ExactnessError(
                f"flag count at {kswp} would become negative: "
                "input has no circuit-hyperplane")
    return GInvariant(n, r, coeffs)
