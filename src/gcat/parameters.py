"""Matroid parameters extracted from catenary data alone.

Chain counts F_{h,k}, flat counts f_k(s), coloop-refined counts f_k(s,c),
circuit/cocircuit/cyclic-set counts, spanning-circuit detection, and the
G-invariants of the restriction to and contraction by a unique flat.  All
divisions are exact-integer checked; a failure names the violated identity
and signals a non-matroid input.

Flat and coloop counts need only chains whose sizes step by one, so
catenary data hold one census of them in their memo map (`held`), under
("unit chains", k): each rank's row is built in one pass over the keys, on
the first query of that rank, and every later count is a lookup.  The
counts of flats by coloops are solved from it once per rank and size and
held under ("coloops", k, s), and the two parts of a split at a unique
flat under ("split", k, s), so a second split solves nothing.  Circuit
counts go through the dual, which the invariant holds once built
(`g_dual`), so a census over sizes solves it once.
"""

from __future__ import annotations

import math

from .constructions import g_dual
from .errors import ExactnessError, held
from .ginvariant import (CatenaryData, GInvariant, catenary_from_g,
                         g_from_catenary, gamma_one)


def _validate_sizes(c: CatenaryData, h: int, k: int, sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in sizes)
    if not 0 <= h <= k <= c.r:
        raise ValueError(f"need 0 <= h <= k <= r, got h={h}, k={k}, r={c.r}")
    if len(sizes) != k - h + 1:
        raise ValueError(f"expected {k - h + 1} sizes for ranks {h}..{k}")
    if sizes[0] < 0:
        raise ValueError(f"sizes must be nonnegative: {sizes}")
    if any(x >= y for x, y in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must strictly increase: {sizes}")
    if sizes[-1] > c.n:
        raise ValueError(f"size {sizes[-1]} exceeds n={c.n}")
    return sizes


def chain_count(c: CatenaryData, h: int, k: int, sizes) -> int:
    """Number of chains of flats with ranks h..k and the given sizes.

    Specializing every symbol to 1 collapses the restriction/contraction
    factors to s_h! and (n-s_k)!, leaving a sum over catenary keys whose
    middle parts match the size increments, weighted by the all-ones gamma
    values of the head and tail.
    """
    sizes = _validate_sizes(c, h, k, sizes)
    n = c.n
    s_h, s_k = sizes[0], sizes[-1]
    incr = tuple(sizes[i + 1] - sizes[i] for i in range(len(sizes) - 1))
    total = 0
    for comp, cnt in c.counts.items():
        if comp[h + 1:k + 1] != incr:
            continue
        head = comp[:h + 1]
        if sum(head) != s_h:
            continue
        tail = (0,) + comp[k + 1:]
        total += gamma_one(head) * gamma_one(tail) * cnt
    denom = math.factorial(s_h) * math.factorial(n - s_k)
    if total % denom:
        raise _not_integral(h, k, sizes, total, denom)
    return total // denom


def _not_integral(h: int, k: int, sizes: tuple, total: int, denom: int
                  ) -> ExactnessError:
    return ExactnessError(
        f"chain count F_{{{h},{k}}}{sizes} = {total}/{denom} is not integral")


def _unit_chains(c: CatenaryData, k: int
                 ) -> dict[tuple[int, int], int | tuple[int, int]]:
    """Rank k's row of the census of unit chains that c holds."""
    return held(c, ("unit chains", k), _unit_chain_row, k)


def _unit_chain_row(c: CatenaryData, k: int
                    ) -> dict[tuple[int, int], int | tuple[int, int]]:
    """Rank k's row of the census of unit chains: the chain count
    F_{k-j,k}(s-j, ..., s) under (s, j).

    Such a chain's sizes step by one, so it matches the keys whose parts
    k-j+1..k are all 1 and whose first k+1 parts sum to s.  One pass over
    the keys finds every (s, j) of rank k: each key adds its `chain_count`
    numerator, count * gamma_one(head) * gamma_one(tail), under every j
    down the run of 1-parts that ends at part k.  Each sum is then divided
    by (s-j)! (n-s)!; one that does not divide, so c is no matroid's, is
    held as its numerator and denominator.
    """
    row = {}
    for comp, cnt in c.counts.items():
        s = sum(comp[:k + 1])
        tail = cnt * gamma_one((0,) + comp[k + 1:])
        j = 0
        while True:
            row[s, j] = row.get((s, j), 0) + tail * gamma_one(comp[:k - j + 1])
            if j == k or comp[k - j] != 1:
                break
            j += 1
    for (s, j), total in row.items():
        denom = math.factorial(s - j) * math.factorial(c.n - s)
        row[s, j] = (total, denom) if total % denom else total // denom
    return row


def _unit_chain_count(c: CatenaryData, k: int, s: int, j: int) -> int:
    """F_{k-j,k}(s-j, ..., s), read from the census; the caller checks the
    sizes."""
    count = _unit_chains(c, k).get((s, j), 0)
    if isinstance(count, tuple):
        raise _not_integral(k - j, k, tuple(range(s - j, s + 1)), *count)
    return count


def flat_count(c: CatenaryData, k: int, s: int) -> int:
    """Number of rank-k flats of size s."""
    (s,) = _validate_sizes(c, k, k, (s,))
    return _unit_chain_count(c, k, s, 0)


def flat_count_coloops(c: CatenaryData, k: int, s: int, coloops: int) -> int:
    """Number of rank-k, size-s flats whose restriction has exactly the
    given number of coloops; coloops = 0 counts the cyclic flats of that
    rank and size.  The counts of every coloop number are solved together
    on the first query of (k, s) and held as long as c.
    """
    if not 0 <= coloops <= k <= c.r:
        raise ValueError(f"need 0 <= coloops <= k <= r, got {coloops}, {k}, {c.r}")
    if k > s:
        return 0  # a rank-k flat has at least k elements
    (s,) = _validate_sizes(c, k, k, (s,))
    return held(c, ("coloops", k, s), _solve_coloops, k, s)[coloops]


def _solve_coloops(c: CatenaryData, k: int, s: int) -> tuple[int, ...]:
    """f_k(s, 0..k) by the triangular system
    sum_{j>=c} f_k(s,j) j!/(j-c)! = F_{k-c,k}(s-c, ..., s), solved
    downward from c = k, each right-hand side a census entry.
    """
    f = [0] * (k + 1)
    for cc in range(k, -1, -1):
        acc = (_unit_chain_count(c, k, s, cc)
               - sum(f[j] * math.perm(j, cc) for j in range(cc + 1, k + 1)))
        denom = math.factorial(cc)
        if acc % denom:
            raise ExactnessError(
                f"coloop census f_{k}({s},{cc}) = {acc}/{denom} is not integral")
        val = acc // denom
        if val < 0:
            raise ExactnessError(f"coloop census f_{k}({s},{cc}) = {val} is negative")
        f[cc] = val
    return tuple(f)


def family_counts(g: GInvariant, kind: str, size: int,
                  rank: int | None = None) -> int:
    """Count cocircuits, circuits, or cyclic sets of a given size.

    Cocircuits are complements of copoints; circuits are cocircuits of the
    dual; a cyclic set's complement is a flat of the dual.  For cyclic sets
    a rank may be given, otherwise all ranks are summed.
    """
    n, r = g.n, g.r
    if kind == "cocircuit":
        if not 1 <= size <= n or r == 0:
            return 0
        return flat_count(catenary_from_g(g), r - 1, n - size)
    if kind == "circuit":
        return family_counts(g_dual(g), "cocircuit", size)
    if kind == "cyclic_set":
        cdual = catenary_from_g(g_dual(g))
        ranks = range(r + 1) if rank is None else (rank,)
        total = 0
        for j in ranks:
            kdual = n - size - r + j
            if 0 <= kdual <= n - r:
                total += flat_count(cdual, kdual, n - size)
        return total
    raise ValueError(f"unknown family {kind!r}")


def has_spanning_circuit(g: GInvariant) -> bool:
    """True when some circuit has size r+1; for a graphic invariant this is
    Hamiltonicity of the (connected) graph."""
    return family_counts(g, "circuit", g.r + 1) > 0


def g_split_at_unique_flat(g: GInvariant, k: int, s: int
                           ) -> tuple[GInvariant, GInvariant]:
    """G-invariants of the restriction to and contraction by the unique
    rank-k, size-s flat X.

    Every flag whose rank-k flat has s elements passes through X, so the
    coordinate of its key a + b, with a the first k+1 parts, is
    nu(M|X; a) nu(M/X; (0,) + b): each minor's data is a marginal of those
    keys, divided by the other minor's number of flags.
    """
    rest, contr = _split_at_unique_flat(catenary_from_g(g), k, s)
    return g_from_catenary(rest), g_from_catenary(contr)


def _divide_marginal(n: int, r: int, sums: dict[tuple, int], side: str
                     ) -> CatenaryData:
    """A minor's catenary data on n elements from its marginal.

    The marginal is the data times a scale, and each of the n! orderings
    of the minor generates one flag, so sum(sums[a] gamma_one(a)) is n!
    times the scale.
    """
    total = sum(v * gamma_one(a) for a, v in sums.items())
    scale, rest = divmod(total, math.factorial(n))
    if rest or scale <= 0:
        raise ExactnessError(f"{side} scale {total}/{math.factorial(n)} "
                             "is not a positive integer")
    counts = {}
    for a, v in sums.items():
        counts[a], rest = divmod(v, scale)
        if rest:
            raise ExactnessError(
                f"{side} coordinate {a} = {v}/{scale} is not integral")
    return CatenaryData(n, r, counts)


def _split_at_unique_flat(c: CatenaryData, k: int, s: int
                          ) -> tuple[CatenaryData, CatenaryData]:
    """`g_split_at_unique_flat` from catenary data to catenary data, held
    in c's memo map, so the parts keep their own census and coloop
    counts."""
    return held(c, ("split", k, s), _split_marginals, k, s)


def _split_marginals(c: CatenaryData, k: int, s: int
                     ) -> tuple[CatenaryData, CatenaryData]:
    """The split, in one pass over the keys whose first k+1 parts sum to
    s: summing out each key's tail gives the restriction's marginal, its
    head the contraction's."""
    n, r = c.n, c.r
    if not 0 <= k <= r:
        raise ValueError(f"flat rank {k} out of range 0..{r}")
    if flat_count(c, k, s) != 1:
        raise ExactnessError(
            f"f_{k}({s}) = {flat_count(c, k, s)}; the flat is not unique")
    c.loops()  # a matroid's keys share their first part
    rest: dict[tuple, int] = {}
    contr: dict[tuple, int] = {}
    for comp, cnt in c.counts.items():
        if sum(comp[:k + 1]) == s:
            head, tail = comp[:k + 1], (0,) + comp[k + 1:]
            rest[head] = rest.get(head, 0) + cnt
            contr[tail] = contr.get(tail, 0) + cnt
    return (_divide_marginal(s, k, rest, "restriction"),
            _divide_marginal(n - s, r - k, contr, "contraction"))
