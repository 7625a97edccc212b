"""Explicit matroids on the ground set {0, ..., n-1}.

Subsets of the ground set are plain Python ints used as bitmasks.  A matroid
is its rank function on bitmasks.  A presentation supplies one: union-find
for a graph; for uniform, paving, Dowling and cyclic-flat matroids, one list
of (F, k) pairs ranked by the min-formula r(X) = min k + |X - F|
(`_listed`); and, for a matroid given by its bases, the largest intersection
with a basis.  Graphs and lists also close a set and take its cyclic
part, the union of the circuits inside it, from the presentation, and a
graph's minor is a graph, a list's minor a list.  A dual closes and takes
cyclic parts through its parent's.  Any other derived matroid (minor,
truncation, extension, relaxation, sum, product) ranks through a transform
of its parents' rank, so it keeps them alive, and closes a set or takes
its cyclic part by one rank call per element.  No closure is stored.  The
covers of a flat, from which the flats and the flag walk are built, cost one
closure each, except where the presentation lists them: a graph reads every
cover of a flat off one union-find of its components, so its walk closes
only the bottom flat.  The coloops are what the cyclic part of E leaves
out.  `catenary` solves the deletion of the coloops, which a graph or a
list builds as its own kind: a list names every cyclic flat, so its
configuration gives the data; any other matroid is walked or, at corank
r - 2 or less, its dual.  A paving presentation of rank r >= 2 (uniform,
paving, Dowling) knows how many copoints it has of each size, which fixes
its catenary data (the census theorem), so `catenary` walks no flats for
it; no derived matroid carries that census.  Each
presentation but a basis family is a matroid by construction, so only
`from_bases` checks basis exchange, on every family.  The bases, flats and
circuits are built only when read, and held in one memo map (`held`).
Everything here is desk-scale and exact; these matroids double as
ground-truth oracles for the invariant-level machinery.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .errors import PresentationError, held, json_int


def mask_of(elements) -> int:
    """Bitmask of an iterable of element indices."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> list[int]:
    """Sorted element indices of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _basis_scan(bases):
    """Rank as the largest intersection with a basis."""
    def rank_of(x):
        return max((x & b).bit_count() for b in bases)
    return rank_of


class Matroid:
    """A matroid with ground set {0, ..., n-1}, given by its rank function.

    `rank_of` maps a bitmask to its rank; `r` is the rank of the ground set.
    `closure_of`, when given, maps a bitmask to its closure without ranking,
    and `cyclic_of` maps one to its cyclic part, the union of the circuits
    inside it.
    `covers_of`, when given, maps a set x and elements `rest` outside cl(x)
    to the set of closures cl(x + e), e in rest, without closing each.
    `minor_of`, when given, maps (contract, delete) to the minor, and
    `cyclic_flats_of` lists the cyclic flats as `cyclic_flats` does.
    `copoint_sizes`, when given, maps each copoint size of a paving matroid
    of rank >= 2 to the number of copoints of that size.
    `bases`, a frozenset of bitmasks, is built on first read as the r-subsets
    of rank r, and held, as are the flats, cyclic flats and circuits, in
    `_held`, the memo map of `held`; ranks have their own cache.  Instances are
    immutable; every operation returns a new matroid.
    """

    __slots__ = ("n", "r", "full", "_rank_of", "_closure_of", "_cyclic_of",
                 "_covers_of", "_minor_of", "_cyclic_flats_of",
                 "copoint_sizes", "_rank_cache", "_held")

    def __init__(self, n: int, rank_of, *, closure_of=None, cyclic_of=None,
                 covers_of=None, minor_of=None, cyclic_flats_of=None,
                 copoint_sizes=None):
        self.n = n
        self.full = (1 << n) - 1
        self._rank_of = rank_of
        self._closure_of = closure_of
        self._cyclic_of = cyclic_of
        self._covers_of = covers_of
        self._minor_of = minor_of
        self._cyclic_flats_of = cyclic_flats_of
        self.copoint_sizes = copoint_sizes
        self.r = rank_of(self.full)
        self._rank_cache = {0: 0}
        self._held = {}

    @property
    def bases(self) -> frozenset[int]:
        return held(self, "bases", lambda m: frozenset(
            b for b in map(mask_of, itertools.combinations(range(m.n), m.r))
            if m._rank_of(b) == m.r))

    def _check_exchange(self):
        """For all bases b1, b2 and x in b1 - b2, some y in b2 - b1 has
        b1 - x + y a basis.

        Equivalently, every basis meets need(b1, x), the y with b1 - x + y a
        basis (x among them), which depends only on the stub b1 - x.  Bit j
        of column e is set when the j-th basis holds e, so the OR of the
        columns of need(stub) is the set of bases meeting it; one pass over
        the (basis, element) pairs builds both, so the check costs |B|·r
        ORs.  A failure is reported at the first b1 in the order of `bases`
        with a failing stub, then the first b2 and x, as a pairwise scan
        finds it.
        """
        order = list(self.bases)
        cols = [0] * self.n
        need: dict[int, int] = {}
        for j, b in enumerate(order):
            bit = 1 << j
            for e in elements_of(b):
                cols[e] |= bit
                stub = b & ~(1 << e)
                need[stub] = need.get(stub, 0) | 1 << e
        every = (1 << len(order)) - 1
        missed = {}
        for stub, ys in need.items():
            met = 0
            for y in elements_of(ys):
                met |= cols[y]
            if met != every:
                missed[stub] = every & ~met
        if not missed:
            return
        for b1 in order:
            misses = {x: missed.get(b1 & ~(1 << x), 0) for x in elements_of(b1)}
            low = min((miss & -miss for miss in misses.values() if miss),
                      default=0)
            if low:
                x = next(x for x, miss in misses.items() if miss & low)
                raise PresentationError(
                    f"basis-exchange fails for {elements_of(b1)}, "
                    f"{elements_of(order[low.bit_length() - 1])} "
                    f"at element {x}")

    # -- basic queries --------------------------------------------------

    def rank(self, x: int) -> int:
        cached = self._rank_cache.get(x)
        if cached is None:
            cached = self._rank_of(x)
            self._rank_cache[x] = cached
        return cached

    def closure(self, x: int) -> int:
        if self._closure_of is not None:
            return self._closure_of(x)
        rx, out = self.rank(x), x
        for e in elements_of(self.full & ~x):
            if self.rank(x | (1 << e)) == rx:
                out |= 1 << e
        return out

    def is_loop(self, e: int) -> bool:
        return self.rank(1 << e) == 0

    def is_coloop(self, e: int) -> bool:
        return self.rank(self.full & ~(1 << e)) < self.r

    def coloops(self) -> int:
        return self.full & ~self.cyclic(self.full)

    # -- flats -----------------------------------------------------------

    def covers(self, flat: int) -> set[int]:
        """The flats covering `flat`: cl(flat + e) for each e outside it.

        A presentation that lists covers (`covers_of`) gives them at once.
        Otherwise they partition the elements outside `flat`, so an element
        already inside a cover found here needs no closure of its own.
        """
        rest = self.full & ~flat
        if self._covers_of is not None:
            return self._covers_of(flat, rest)
        found = set()
        while rest:
            low = rest & -rest
            cov = self.closure(flat | low)
            found.add(cov)
            rest &= ~cov
        return found

    def flats_of_rank(self, k: int) -> list[int]:
        """All rank-k flats, each once.  k = r-1 yields the copoints."""
        if not 0 <= k <= self.r:
            raise ValueError(f"flat rank {k} out of range 0..{self.r}")
        return list(held(self, "flats", Matroid._flat_levels)[k])

    def _flat_levels(self) -> list[list[int]]:
        levels = [[self.closure(0)]]
        for _ in range(self.r):
            levels.append(sorted(set().union(
                *(self.covers(f) for f in levels[-1]))))
        return levels

    def flats(self) -> list[tuple[int, int]]:
        """All flats as (mask, rank) pairs, by increasing rank."""
        return [(f, k) for k in range(self.r + 1) for f in self.flats_of_rank(k)]

    def copoints(self) -> list[int]:
        if self.r == 0:
            return []
        return self.flats_of_rank(self.r - 1)

    # -- circuits and cyclic structure ------------------------------------

    def circuits(self) -> list[int]:
        """Minimal dependent sets (size at most r+1)."""
        return list(held(self, "circuits", lambda m: [
            c for k in range(1, m.r + 2)
            for c in map(mask_of, itertools.combinations(range(m.n), k))
            if m.is_circuit(c)]))

    def is_circuit(self, x: int) -> bool:
        """True when x is dependent and each x - e is independent."""
        k = x.bit_count()
        return self.rank(x) == k - 1 and all(
            self.rank(x & ~(1 << e)) == k - 1 for e in elements_of(x))

    def cocircuits(self) -> list[int]:
        return [self.full & ~x for x in self.copoints()]

    def cyclic_sets(self) -> list[int]:
        """Unions of circuits: complements of the flats of the dual."""
        dual = self.dual()
        return sorted(self.full & ~f for f, _ in dual.flats())

    def cyclic(self, x: int) -> int:
        """The union of the circuits inside x: each e in x with
        r(x - e) = r(x), or the presentation's `cyclic_of`."""
        if self._cyclic_of is not None:
            return self._cyclic_of(x)
        rx, out = self.rank(x), 0
        for e in elements_of(x):
            if self.rank(x & ~(1 << e)) == rx:
                out |= 1 << e
        return out

    def is_cyclic(self, x: int) -> bool:
        """True when the restriction to x has no coloops."""
        return self.cyclic(x) == x

    def cyclic_flats(self) -> list[tuple[int, int]]:
        """The lattice of cyclic flats as (mask, rank) pairs, by rank then mask.

        The order relation is bitmask containment; join is cl(X | Y) and meet
        is the union of the circuits inside X & Y.  A list presentation
        lists them itself (`cyclic_flats_of`), walking no flat.
        """
        return list(held(self, "cyclic_flats", Matroid._cyclic_flat_list))

    def _cyclic_flat_list(self) -> list[tuple[int, int]]:
        if self._cyclic_flats_of is not None:
            return self._cyclic_flats_of()
        return [(f, k) for f, k in self.flats() if self.is_cyclic(f)]

    def is_paving(self) -> bool:
        return all(c.bit_count() >= self.r for c in self.circuits())

    # -- minors and duality ----------------------------------------------

    def minor(self, contract: int = 0, delete: int = 0) -> "Matroid":
        """The minor M / contract \\ delete, relabeled onto {0, ..., m-1}.

        Remaining elements keep their relative order.  Through `minor_of`, a
        graph's minor is a graph and a list's minor a list (`_listed`).  Any
        other minor ranks a set as r(X | contract) - r(contract) once mapped
        back, and closes by the rank loop.
        """
        if contract & delete:
            raise ValueError("contract and delete sets overlap")
        if self._minor_of is not None:
            return self._minor_of(contract, delete)
        keep = [1 << e for e in elements_of(self.full & ~(contract | delete))]
        rank, rc = self.rank, self.rank(contract)

        def lift(x):
            y = contract
            while x:
                low = x & -x
                x ^= low
                y |= keep[low.bit_length() - 1]
            return y

        return Matroid(len(keep), lambda x: rank(lift(x)) - rc)

    def restrict(self, x: int) -> "Matroid":
        return self.minor(delete=self.full & ~x)

    def contract(self, x: int) -> "Matroid":
        return self.minor(contract=x)

    def delete(self, x: int) -> "Matroid":
        return self.minor(delete=x)

    def dual(self) -> "Matroid":
        """r*(X) = |X| - r + r(E - X).

        e outside X is in cl*(X) exactly when it is a coloop of M|(E - X),
        and e in X lies on a cocircuit inside X exactly when it is outside
        cl(E - X), so the dual closes and takes cyclic parts through m's.
        """
        rank, r, full = self.rank, self.r, self.full
        cyclic, closure = self.cyclic, self.closure
        return Matroid(self.n, lambda x: x.bit_count() - r + rank(full & ~x),
                       closure_of=lambda x: full & ~cyclic(full & ~x),
                       cyclic_of=lambda x: x & ~closure(full & ~x))

    # -- unary constructions ----------------------------------------------

    def truncate(self) -> "Matroid":
        """Bases become the independent sets of size r-1."""
        if self.r < 1:
            raise ValueError("cannot truncate a rank-0 matroid")
        rank, top = self.rank, self.r - 1
        return Matroid(self.n, lambda x: min(rank(x), top))

    def lift(self) -> "Matroid":
        """The free lift: dual of the truncation of the dual."""
        if self.r == self.n:
            raise ValueError("cannot lift a matroid with no circuits")
        return self.dual().truncate().dual()

    def free_extension(self) -> "Matroid":
        """Add a new last element freely (in general position): it raises
        the rank of every set that does not span."""
        rank, r, full, new = self.rank, self.r, self.full, 1 << self.n
        return Matroid(self.n + 1, lambda x: (
            min(rank(x & full) + 1, r) if x & new else rank(x)))

    def free_coextension(self) -> "Matroid":
        return self.dual().free_extension().dual()

    def add_coloop(self) -> "Matroid":
        rank, n, full = self.rank, self.n, self.full
        return Matroid(n + 1, lambda x: rank(x & full) + (x >> n))

    def add_loop(self) -> "Matroid":
        rank, full = self.rank, self.full
        return Matroid(self.n + 1, lambda x: rank(x & full))

    def relax(self, x: int) -> "Matroid":
        """Relax a circuit-hyperplane: x becomes a basis."""
        if self.closure(x) != x or self.rank(x) != self.r - 1:
            raise ValueError("relaxation target is not a copoint")
        if not self.is_circuit(x):
            raise ValueError("relaxation target is not a circuit")
        rank, r = self.rank, self.r
        return Matroid(self.n, lambda y: r if y == x else rank(y))

    # -- binary constructions ----------------------------------------------

    def direct_sum(self, other: "Matroid") -> "Matroid":
        """Disjoint union; other's elements are shifted up by self.n."""
        rank1, rank2, n1, full1 = self.rank, other.rank, self.n, self.full
        return Matroid(self.n + other.n,
                       lambda x: rank1(x & full1) + rank2(x >> n1))

    def free_product(self, other: "Matroid") -> "Matroid":
        """Bases meet self's part independently and span other's part:
        r(X) = min(r1(X1) + |X2|, r1 + r2(X2))."""
        rank1, rank2, n1, full1 = self.rank, other.rank, self.n, self.full
        r1 = self.r

        def rank_of(x):
            x2 = x >> n1
            return min(rank1(x & full1) + x2.bit_count(), r1 + rank2(x2))

        return Matroid(self.n + other.n, rank_of)

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matroid) and self.n == other.n
                and self.bases == other.bases)

    def __hash__(self):
        return hash((self.n, self.bases))

    def __repr__(self):
        return f"Matroid(n={self.n}, r={self.r})"


# -- presentations ---------------------------------------------------------

def _listed(n: int, pairs, census=None) -> Matroid:
    """The matroid of a list of (F, k) pairs: r(X) is the least k + |X - F|,
    which each caller says is a matroid rank function.

    The rank loop keeps only the least value.  An element e outside X
    keeps it exactly when some F attaining it holds e, so cl(X) is X and
    every such F, in one pass; e in X keeps it exactly when every such F
    holds e, which gives the cyclic part of X.  Every cyclic flat Z is
    listed: an F attaining r(Z) holds Z, as Z - F would be coloops of M|Z,
    and then r(F) = r(Z) makes F = Z.  So the cyclic flats are the listed
    sets that are closed and cyclic.  As
    r(X | C) - r(C) is the least (k + |C - F| - r(C)) + |X - F|, the minor
    M / C \\ D lists each F - C - D, relabeled, at k + |C - F| - r(C), a set
    listed twice at its least rank.  As r(X) <= |X|, the empty set at rank 0
    stands for every set whose rank is not below its size.
    """
    full = (1 << n) - 1
    listed = [(full & ~f, k, f) for f, k in pairs]

    def rank_of(x):
        # a list with an F at rank 0 ranks every set at most n
        least = n + 1
        for out, k, _ in listed:
            score = k + (x & out).bit_count()
            if score < least:
                least = score
        return least

    def closure_of(x):
        least, closed = n + 1, x
        for out, k, f in listed:
            score = k + (x & out).bit_count()
            if score < least:
                least, closed = score, x | f
            elif score == least:
                closed |= f
        return closed

    def cyclic_of(x):
        least, common = n + 1, x
        for out, k, f in listed:
            score = k + (x & out).bit_count()
            if score < least:
                least, common = score, x & f
            elif score == least:
                common &= f
        return common

    def cyclic_flats_of():
        found = {f for _, _, f in listed
                 if closure_of(f) == f and cyclic_of(f) == f}
        return sorted(((f, rank_of(f)) for f in found),
                      key=lambda fk: (fk[1], fk[0]))

    def minor_of(contract, delete):
        keep = enumerate(elements_of(full & ~(contract | delete)))
        bits = [(1 << e, 1 << i) for i, e in keep]
        lifted = {}
        for out, k, f in listed:
            g = 0
            for old, new in bits:
                if f & old:
                    g |= new
            k += (contract & out).bit_count()
            if lifted.get(g, k) >= k:
                lifted[g] = k
        rc = min(lifted.values())
        return _listed(len(bits), [(0, 0)] + [
            (g, k - rc) for g, k in lifted.items() if k - rc < g.bit_count()])

    return Matroid(n, rank_of, closure_of=closure_of, cyclic_of=cyclic_of,
                   minor_of=minor_of, cyclic_flats_of=cyclic_flats_of,
                   copoint_sizes=census)


def uniform(r: int, n: int) -> Matroid:
    """U(r, n), the list {0: 0, E: r}: r(X) = min(|X|, r), a matroid."""
    if not 0 <= r <= n:
        raise PresentationError(f"U({r},{n}) is not a matroid")
    census = {r - 1: math.comb(n, r - 1)} if r > 1 else None
    return _listed(n, [(0, 0), ((1 << n) - 1, r)], census)


def from_graph(edges) -> Matroid:
    """Cycle matroid of a multigraph given as a list of (u, v) edges.

    The rank of an edge set is the number of union-find merges it makes,
    the size of its largest forest: the cycle matroid's rank, so a matroid.
    Its closure is every edge whose ends lie in one component: the loops,
    and each edge incident to two vertices of one merged component.  Each
    edge outside the closure joins two components, and the cover it spans
    gains every edge between them, so one union-find lists every cover.
    An edge of x lies on a cycle of x exactly when it is a loop, an edge a
    search of x meets at a vertex already reached, or an edge of the tree
    path that such an edge closes, so one search gives the cyclic part.
    A minor is the graph with the contracted edges' ends merged.
    """
    edges = [tuple(e) for e in edges]
    index = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    ends = [(index[u], index[v]) for u, v in edges]
    nverts = len(index)
    incident = [0] * nverts
    loops = 0
    for i, (u, v) in enumerate(ends):
        if u == v:
            loops |= 1 << i
        else:
            incident[u] |= 1 << i
            incident[v] |= 1 << i

    def merge(x):
        """Union-find over the edges of x, each root the least vertex of
        its component: the parent array, merge count."""
        parent = list(range(nverts))
        merges = 0
        while x:
            low = x & -x
            x ^= low
            u, v = ends[low.bit_length() - 1]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                if u < v:
                    parent[v] = u
                else:
                    parent[u] = v
                merges += 1
        return parent, merges

    def rank_of(x):
        return merge(x)[1]

    def components(x):
        """The root of each vertex under the edges of x, the edges met at
        each root's component, and the closure of x."""
        roots, _ = merge(x)
        met, closed = [0] * nverts, loops
        for v, up in enumerate(roots):
            # a parent is never above its vertex, so its root is known
            root = roots[v] = roots[up]
            # an edge met at two vertices of one component lies inside it
            closed |= met[root] & incident[v]
            met[root] |= incident[v]
        return roots, met, closed

    def closure_of(x):
        return components(x)[2]

    def cyclic_of(x):
        # an edge met at a vertex already reached closes a cycle with the
        # tree path between its ends, which climbs to where they meet
        cyclic, rest = x & loops, x & ~loops
        depth, up, via = [-1] * nverts, [0] * nverts, [0] * nverts
        while rest:
            root = ends[(rest & -rest).bit_length() - 1][0]
            depth[root], stack = 0, [root]
            while stack:
                v = stack.pop()
                out = incident[v] & rest
                rest ^= out
                while out:
                    bit = out & -out
                    out ^= bit
                    a, w = ends[bit.bit_length() - 1]
                    if w == v:
                        w = a
                    if depth[w] < 0:
                        depth[w], up[w], via[w] = depth[v] + 1, v, bit
                        stack.append(w)
                        continue
                    cyclic |= bit
                    u = v
                    while u != w:
                        if depth[u] < depth[w]:
                            u, w = w, u
                        cyclic |= via[u]
                        u = up[u]
        return cyclic

    def covers_of(x, rest):
        # an edge outside cl(x) joins two of its components, and the cover
        # it spans gains every edge between those two
        roots, met, closed = components(x)
        found = set()
        while rest:
            u, v = ends[(rest & -rest).bit_length() - 1]
            between = met[roots[u]] & met[roots[v]]
            found.add(closed | between)
            rest &= ~between
        return found

    def minor_of(contract, delete):
        # contracting edges merges their ends; the rest keep their order
        roots = components(contract)[0]
        gone = contract | delete
        return from_graph([(roots[u], roots[v]) for i, (u, v) in enumerate(ends)
                           if not gone >> i & 1])

    return Matroid(len(edges), rank_of, closure_of=closure_of,
                   cyclic_of=cyclic_of, covers_of=covers_of, minor_of=minor_of)


def from_paving_copoints(n: int, r: int, copoints) -> Matroid:
    """Paving matroid with the given large copoints (size >= r).

    Copoints of size r-1 are implicit.  Two listed copoints may share at
    most r-2 elements, as hyperplanes of a paving matroid do; then each
    (r-1)-subset lies in exactly one copoint, listed or implicit, so the
    copoints meet the hyperplane axioms and form a matroid.  A set of at
    least r elements has rank r-1 when it lies inside a listed copoint and
    r otherwise, as the list {0: 0, each listed copoint: r-1, E: r} ranks it.
    """
    if r < 1 or r > n:
        raise PresentationError(f"paving rank {r} out of range for n={n}")
    masks = [c if isinstance(c, int) else mask_of(c) for c in copoints]
    full = (1 << n) - 1
    for c in masks:
        if c & ~full:
            raise PresentationError("copoint uses elements outside the ground set")
        if c.bit_count() < r:
            raise PresentationError("listed copoints must have at least r elements")
        if c == full:
            raise PresentationError("a copoint cannot be the whole ground set")
    for c1, c2 in itertools.combinations(masks, 2):
        if (c1 & c2).bit_count() >= r - 1:
            raise PresentationError(
                f"two listed copoints share r-1 = {r - 1} or more elements: "
                f"{elements_of(c1)} and {elements_of(c2)}")

    # the (r-1)-subsets inside no listed copoint are the implicit copoints
    census = Counter(c.bit_count() for c in masks)
    census[r - 1] += math.comb(n, r - 1) - sum(
        math.comb(size, r - 1) * f for size, f in census.items())
    return _listed(n, [(0, 0), *((c, r - 1) for c in masks), (full, r)],
                   census if r > 1 else None)


def from_cyclic_flats(n: int, flats) -> Matroid:
    """Matroid defined by its cyclic flats with ranks.

    `flats` is a list of (elements, rank) pairs; the rank of any set X is
    min over listed pairs of rank(F) + |X - F|.  The list must contain the
    minimal cyclic flat (the loops, possibly the empty set) with rank 0.
    The min-formula is a matroid rank function exactly when it is
    submodular on every pair of listed sets, which is checked: r(0) = 0
    makes every k >= 0; each term k + |X - F| is monotone and rises by at
    most 1 per element, and so does the minimum.  If F and G attain r(X)
    and r(Y), then r(X) + r(Y) = k_F + k_G + |X - F| + |Y - G|, which is at
    least r(F|G) + r(F&G) + |(X|Y) - (F|G)| + |(X&Y) - (F&G)| by the pair
    check and by counting each element, and so at least r(X|Y) + r(X&Y)
    by the unit rise and monotonicity.
    """
    pairs = []
    full = (1 << n) - 1
    for f, k in flats:
        m = f if isinstance(f, int) else mask_of(f)
        if m & ~full:
            raise PresentationError("cyclic flat uses elements outside the ground set")
        pairs.append((m, int(k)))
    if not pairs:
        raise PresentationError("at least one cyclic flat (the loop set) is required")
    m = _listed(n, pairs)
    # not `m.rank`, which holds r(0) = 0 before any call
    rank_of = m._rank_of
    if rank_of(0) != 0:
        raise PresentationError("no listed cyclic flat has rank 0 (the loop set)")
    for f, k in pairs:
        if rank_of(f) != k:
            raise PresentationError(
                f"listed rank {k} of {elements_of(f)} is inconsistent")
    for (f1, k1), (f2, k2) in itertools.combinations(pairs, 2):
        if rank_of(f1 | f2) + rank_of(f1 & f2) > k1 + k2:
            raise PresentationError(
                f"ranks of {elements_of(f1)} and {elements_of(f2)} "
                "are not submodular")
    return m


def _check_group_table(table) -> list[list[int]]:
    m = len(table)
    t = [list(row) for row in table]
    if m == 0 or any(len(row) != m for row in t):
        raise PresentationError("group table must be square and nonempty")
    rng = set(range(m))
    for row in t:
        if set(row) != rng:
            raise PresentationError("group table rows must be permutations")
    for j in range(m):
        if {row[j] for row in t} != rng:
            raise PresentationError("group table columns must be permutations")
    if not any(all(t[e][x] == x and t[x][e] == x for x in range(m))
               for e in range(m)):
        raise PresentationError("group table has no identity element")
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise PresentationError("group table is not associative")
    return t


def dowling3(table) -> Matroid:
    """Rank-3 Dowling matroid of the group given by its multiplication table.

    Elements: three joints followed by the three |G|-blocks of internal
    points, one block per pair of joints.  Built as a paving matroid from
    its large lines; in a group table two of them share at most one point,
    so they meet the hyperplane axioms as the paving builder argues.
    """
    t = _check_group_table(table)
    m = len(t)
    # joints p1, p2, p3 are elements 0, 1, 2; a_{ij} blocks follow
    base12, base13, base23 = 3, 3 + m, 3 + 2 * m
    lines = [
        {0, 1} | {base12 + a for a in range(m)},
        {0, 2} | {base13 + a for a in range(m)},
        {1, 2} | {base23 + a for a in range(m)},
    ]
    for a in range(m):
        for b in range(m):
            lines.append({base12 + a, base23 + b, base13 + t[a][b]})
    return from_paving_copoints(3 + 3 * m, 3, lines)


def from_bases(n: int, bases) -> Matroid:
    """The matroid of a basis family, kept as given; a set ranks as its
    largest intersection with a basis.  Only this input can break basis
    exchange, so every family is checked (|B|·r bitset ORs)."""
    bases = frozenset(b if isinstance(b, int) else mask_of(b) for b in bases)
    if not bases:
        raise PresentationError("a matroid needs at least one basis")
    sizes = {b.bit_count() for b in bases}
    if len(sizes) != 1:
        raise PresentationError(f"bases of unequal sizes: {sorted(sizes)}")
    if any(b & ~((1 << n) - 1) for b in bases):
        raise PresentationError("basis uses elements outside the ground set")
    m = Matroid(n, _basis_scan(bases))
    m._held["bases"] = bases
    m._check_exchange()
    return m


def _indices(value) -> list[int]:
    """A file's index list: JSON integers >= 0, no bool, and no bare
    integer, which a builder would read as a bitmask."""
    if type(value) is not list or any(type(e) is not int or e < 0 for e in value):
        raise PresentationError(f"{value!r} is not a list of indices")
    return value


def _elements(value) -> list[int]:
    """A file's element set: an index list with no repeat, which a builder
    would merge."""
    if len(set(_indices(value))) != len(value):
        raise PresentationError(f"{value!r} repeats an element")
    return value


def _edge(value) -> list[int]:
    """A file's graph edge: two vertex indices, the same one for a loop."""
    if len(_indices(value)) != 2:
        raise PresentationError(f"graph edge {value!r} is not a pair of vertices")
    return value


# presentation kind -> (needs ground_set_size, builder(record, n)); every
# graph edge in a file is read by `_edge`, every group-table row by
# `_indices`, and every element set by `_elements`
_PRESENTATIONS = {
    "bases": (True, lambda p, n: from_bases(n, map(_elements, p["bases"]))),
    "uniform": (True, lambda p, n: uniform(json_int(p["rank"]), n)),
    "graph": (False, lambda p, n: from_graph(map(_edge, p["edges"]))),
    "paving_copoints": (True, lambda p, n: from_paving_copoints(
        n, json_int(p["rank"]), map(_elements, p["copoints"]))),
    "cyclic_flats": (True, lambda p, n: from_cyclic_flats(n, [
        (_elements(f["elements"]), json_int(f["rank"])) for f in p["flats"]])),
    "dowling3": (False, lambda p, n: dowling3(
        list(map(_indices, p["group_table"])))),
}


def build_matroid(presentation: dict, n: int | None = None) -> Matroid:
    """Build a matroid from a presentation record (the JSON payload shape).
    A `ground_set_size` given with a graph or Dowling presentation must be
    the size that presentation builds."""
    if not isinstance(presentation, dict) or "kind" not in presentation:
        raise PresentationError("presentation must be a dict with a 'kind'")
    kind = presentation["kind"]
    try:
        sized, build = _PRESENTATIONS[kind]
    except (KeyError, TypeError):
        raise PresentationError(f"unknown presentation kind {kind!r}") from None
    if sized and n is None:
        raise PresentationError("ground_set_size is required")
    try:
        m = build(presentation, n)
    except KeyError as exc:
        raise PresentationError(f"presentation is missing field {exc}") from exc
    except TypeError as exc:
        raise PresentationError(f"malformed presentation: {exc}") from exc
    if n is not None and m.n != n:
        raise PresentationError(f"ground_set_size {n} is not the {m.n} "
                                f"elements of the {kind} presentation")
    return m
