"""Explicit matroids on the ground set {0, ..., n-1}.

The canonical internal presentation is the collection of bases; every other
presentation compiles down to it.  Subsets of the ground set are plain Python
ints used as bitmasks, so all derived structure (rank, closure, flats,
circuits, cyclic flats, minors, duals) reduces to popcount scans over the
basis list.  Everything here is desk-scale and exact; these matroids double
as ground-truth oracles for the invariant-level machinery.
"""

from __future__ import annotations

import itertools

from .errors import PresentationError

# Exchange-axiom validation is automatic up to this many elements; above it,
# pass validate=True explicitly (quadratic in the number of bases).
VALIDATE_LIMIT = 12


def mask_of(elements) -> int:
    """Bitmask of an iterable of element indices."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> list[int]:
    """Sorted element indices of a bitmask."""
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


class Matroid:
    """A matroid with ground set {0, ..., n-1}, presented by its bases.

    `bases` is a frozenset of bitmasks, all of the same popcount `r`.
    Instances are immutable; every operation returns a new matroid.
    """

    __slots__ = ("n", "bases", "r", "full", "_rank_cache", "_flats_by_rank",
                 "_circuits", "_closure_cache")

    def __init__(self, n: int, bases, *, validate: bool | None = None):
        bases = frozenset(int(b) for b in bases)
        if not bases:
            raise PresentationError("a matroid needs at least one basis")
        sizes = {b.bit_count() for b in bases}
        if len(sizes) != 1:
            raise PresentationError(f"bases of unequal sizes: {sorted(sizes)}")
        full = (1 << n) - 1
        if any(b & ~full for b in bases):
            raise PresentationError("basis uses elements outside the ground set")
        self.n = n
        self.bases = bases
        self.r = sizes.pop()
        self.full = full
        self._rank_cache = {0: 0}
        self._closure_cache = {}
        self._flats_by_rank = None
        self._circuits = None
        if validate is None:
            validate = n <= VALIDATE_LIMIT
        if validate:
            self._check_exchange()

    def _check_exchange(self):
        bases = self.bases
        for b1 in bases:
            for b2 in bases:
                only1 = b1 & ~b2
                gain = b2 & ~b1
                for x in elements_of(only1):
                    stub = b1 & ~(1 << x)
                    if not any(stub | (1 << y) in bases for y in elements_of(gain)):
                        raise PresentationError(
                            f"basis-exchange fails for {elements_of(b1)}, "
                            f"{elements_of(b2)} at element {x}")

    # -- basic queries --------------------------------------------------

    def rank(self, x: int) -> int:
        cached = self._rank_cache.get(x)
        if cached is None:
            cached = max((x & b).bit_count() for b in self.bases)
            self._rank_cache[x] = cached
        return cached

    def closure(self, x: int) -> int:
        cached = self._closure_cache.get(x)
        if cached is None:
            rx = self.rank(x)
            cached = x
            rest = self.full & ~x
            for e in elements_of(rest):
                if self.rank(x | (1 << e)) == rx:
                    cached |= 1 << e
            self._closure_cache[x] = cached
        return cached

    def is_loop(self, e: int) -> bool:
        return self.rank(1 << e) == 0

    def is_coloop(self, e: int) -> bool:
        return all(b & (1 << e) for b in self.bases)

    def loops(self) -> int:
        return self.closure(0)

    def coloops(self) -> int:
        m = self.full
        for b in self.bases:
            m &= b
            if not m:
                break
        return m

    # -- flats -----------------------------------------------------------

    def covers(self, flat: int) -> set[int]:
        """The flats covering `flat`: cl(flat + e) for each e outside it."""
        return {self.closure(flat | (1 << e))
                for e in elements_of(self.full & ~flat)}

    def flats_of_rank(self, k: int) -> list[int]:
        """All rank-k flats, each once.  k = r-1 yields the copoints."""
        if not 0 <= k <= self.r:
            raise ValueError(f"flat rank {k} out of range 0..{self.r}")
        if self._flats_by_rank is None:
            levels = [[self.closure(0)]]
            for _ in range(self.r):
                levels.append(sorted(set().union(
                    *(self.covers(f) for f in levels[-1]))))
            self._flats_by_rank = levels
        return list(self._flats_by_rank[k])

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
        if self._circuits is None:
            found = []
            for k in range(1, self.r + 2):
                for combo in itertools.combinations(range(self.n), k):
                    c = mask_of(combo)
                    if self.rank(c) != k - 1:
                        continue
                    if all(self.rank(c & ~(1 << e)) == k - 1 for e in combo):
                        found.append(c)
            self._circuits = found
        return list(self._circuits)

    def cocircuits(self) -> list[int]:
        return [self.full & ~x for x in self.copoints()]

    def cyclic_sets(self) -> list[int]:
        """Unions of circuits: complements of the flats of the dual."""
        dual = self.dual()
        return sorted(self.full & ~f for f, _ in dual.flats())

    def is_cyclic(self, x: int) -> bool:
        """True when the restriction to x has no coloops."""
        rx = self.rank(x)
        return all(self.rank(x & ~(1 << e)) == rx for e in elements_of(x))

    def cyclic_flats(self) -> list[tuple[int, int]]:
        """The lattice of cyclic flats as (mask, rank) pairs, by rank then mask.

        The order relation is bitmask containment; join is cl(X | Y) and meet
        is the union of the circuits inside X & Y.
        """
        out = []
        for f, k in self.flats():
            if self.is_cyclic(f):
                out.append((f, k))
        return out

    def is_paving(self) -> bool:
        return all(c.bit_count() >= self.r for c in self.circuits())

    # -- minors and duality ----------------------------------------------

    def minor(self, contract: int = 0, delete: int = 0) -> "Matroid":
        """The minor M / contract \\ delete, relabeled onto {0, ..., m-1}.

        Remaining elements keep their relative order.
        """
        if contract & delete:
            raise ValueError("contract and delete sets overlap")
        keep = elements_of(self.full & ~(contract | delete))
        rc = self.rank(contract)
        new_r = self.rank(self.full & ~delete) - rc
        new_bases = set()
        for combo in itertools.combinations(keep, new_r):
            x = mask_of(combo)
            if self.rank(x | contract) - rc == new_r:
                new_bases.add(mask_of(keep.index(e) for e in combo))
        return Matroid(len(keep), new_bases, validate=False)

    def restrict(self, x: int) -> "Matroid":
        return self.minor(delete=self.full & ~x)

    def contract(self, x: int) -> "Matroid":
        return self.minor(contract=x)

    def delete(self, x: int) -> "Matroid":
        return self.minor(delete=x)

    def dual(self) -> "Matroid":
        return Matroid(self.n, (self.full & ~b for b in self.bases),
                       validate=False)

    # -- unary constructions ----------------------------------------------

    def truncate(self) -> "Matroid":
        """Bases become the independent sets of size r-1."""
        if self.r < 1:
            raise ValueError("cannot truncate a rank-0 matroid")
        new = {b & ~(1 << e) for b in self.bases for e in elements_of(b)}
        return Matroid(self.n, new, validate=False)

    def lift(self) -> "Matroid":
        """The free lift: dual of the truncation of the dual."""
        if self.r == self.n:
            raise ValueError("cannot lift a matroid with no circuits")
        return self.dual().truncate().dual()

    def free_extension(self) -> "Matroid":
        """Add a new last element freely (in general position)."""
        x = 1 << self.n
        new = set(self.bases)
        for b in self.bases:
            for e in elements_of(b):
                new.add((b & ~(1 << e)) | x)
        return Matroid(self.n + 1, new, validate=False)

    def free_coextension(self) -> "Matroid":
        return self.dual().free_extension().dual()

    def add_coloop(self) -> "Matroid":
        x = 1 << self.n
        return Matroid(self.n + 1, (b | x for b in self.bases), validate=False)

    def add_loop(self) -> "Matroid":
        return Matroid(self.n + 1, self.bases, validate=False)

    def relax(self, x: int) -> "Matroid":
        """Relax a circuit-hyperplane: x becomes a basis."""
        if self.closure(x) != x or self.rank(x) != self.r - 1:
            raise ValueError("relaxation target is not a copoint")
        k = x.bit_count()
        if self.rank(x) != k - 1 or not all(
                self.rank(x & ~(1 << e)) == k - 1 for e in elements_of(x)):
            raise ValueError("relaxation target is not a circuit")
        return Matroid(self.n, self.bases | {x}, validate=False)

    # -- binary constructions ----------------------------------------------

    def direct_sum(self, other: "Matroid") -> "Matroid":
        """Disjoint union; other's elements are shifted up by self.n."""
        bases = {b1 | (b2 << self.n) for b1 in self.bases for b2 in other.bases}
        return Matroid(self.n + other.n, bases, validate=False)

    def free_product(self, other: "Matroid") -> "Matroid":
        """Bases meet self's part independently and span other's part."""
        n = self.n + other.n
        r = self.r + other.r
        full1 = self.full
        bases = set()
        for combo in itertools.combinations(range(n), r):
            b = mask_of(combo)
            b1 = b & full1
            b2 = b >> self.n
            if self.rank(b1) == b1.bit_count() and other.rank(b2) == other.r:
                bases.add(b)
        return Matroid(n, bases, validate=False)

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matroid) and self.n == other.n
                and self.bases == other.bases)

    def __hash__(self):
        return hash((self.n, self.bases))

    def __repr__(self):
        return f"Matroid(n={self.n}, r={self.r}, bases={len(self.bases)})"


# -- presentations ---------------------------------------------------------

def uniform(r: int, n: int, **kw) -> Matroid:
    if not 0 <= r <= n:
        raise PresentationError(f"U({r},{n}) is not a matroid")
    return Matroid(n, (mask_of(c) for c in itertools.combinations(range(n), r)),
                   validate=False)


def from_graph(edges, **kw) -> Matroid:
    """Cycle matroid of a multigraph given as a list of (u, v) edges."""
    edges = [tuple(e) for e in edges]
    verts = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(verts)}

    def forest_rank(edge_ids):
        parent = list(range(len(verts)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        count = 0
        for i in edge_ids:
            u, v = edges[i]
            ru, rv = find(index[u]), find(index[v])
            if ru == rv:
                return -1  # cycle
            parent[ru] = rv
            count += 1
        return count

    ncomp = 0
    seen = set()
    adj = {v: set() for v in verts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for v in verts:
        if v not in seen:
            ncomp += 1
            stack = [v]
            while stack:
                w = stack.pop()
                if w in seen:
                    continue
                seen.add(w)
                stack.extend(adj[w] - seen)
    r = len(verts) - ncomp
    bases = set()
    for combo in itertools.combinations(range(len(edges)), r):
        if forest_rank(combo) == r:
            bases.add(mask_of(combo))
    return Matroid(len(edges), bases, **kw)


def from_paving_copoints(n: int, r: int, copoints, **kw) -> Matroid:
    """Paving matroid with the given large copoints (size >= r).

    Bases are the r-subsets contained in no listed copoint; copoints of size
    r-1 are implicit.  Well-formedness beyond the pairwise-intersection check
    is left to the exchange-axiom validation.
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
        if (c1 & c2).bit_count() >= r:
            raise PresentationError(
                "two listed copoints share an r-subset: "
                f"{elements_of(c1)} and {elements_of(c2)}")
    bases = set()
    for combo in itertools.combinations(range(n), r):
        b = mask_of(combo)
        if not any(b & ~c == 0 for c in masks):
            bases.add(b)
    if not bases:
        raise PresentationError("presentation admits no basis")
    return Matroid(n, bases, **kw)


def from_cyclic_flats(n: int, flats, **kw) -> Matroid:
    """Matroid defined by its cyclic flats with ranks.

    `flats` is a list of (elements, rank) pairs; the rank of any set X is
    min over listed pairs of rank(F) + |X - F|.  The list must contain the
    minimal cyclic flat (the loops, possibly the empty set).
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

    def rk(x):
        return min(k + (x & ~f).bit_count() for f, k in pairs)

    for f, k in pairs:
        if rk(f) != k:
            raise PresentationError(
                f"listed rank {k} of {elements_of(f)} is inconsistent")
    r = rk(full)
    bases = set()
    for combo in itertools.combinations(range(n), r):
        b = mask_of(combo)
        if rk(b) == r:
            bases.add(b)
    if not bases:
        raise PresentationError("presentation admits no basis")
    return Matroid(n, bases, **kw)


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
    identity = None
    for e in range(m):
        if all(t[e][x] == x and t[x][e] == x for x in range(m)):
            identity = e
            break
    if identity is None:
        raise PresentationError("group table has no identity element")
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise PresentationError("group table is not associative")
    return t


def dowling3(table, **kw) -> Matroid:
    """Rank-3 Dowling matroid of the group given by its multiplication table.

    Elements: three joints followed by the three |G|-blocks of internal
    points, one block per pair of joints.  Built as a paving matroid from
    its large lines.
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
    return from_paving_copoints(3 + 3 * m, 3, lines, **kw)


def from_bases(n: int, bases, **kw) -> Matroid:
    return Matroid(n, (b if isinstance(b, int) else mask_of(b) for b in bases),
                   **kw)


# presentation kind -> (needs ground_set_size, builder(record, n, validate))
_PRESENTATIONS = {
    "bases": (True, lambda p, n, v: from_bases(n, p["bases"], validate=v)),
    "uniform": (True, lambda p, n, v: uniform(int(p["rank"]), n, validate=v)),
    "graph": (False, lambda p, n, v: from_graph(p["edges"], validate=v)),
    "paving_copoints": (True, lambda p, n, v: from_paving_copoints(
        n, int(p["rank"]), p["copoints"], validate=v)),
    "cyclic_flats": (True, lambda p, n, v: from_cyclic_flats(
        n, [(item["elements"], item["rank"]) for item in p["flats"]],
        validate=v)),
    "dowling3": (False, lambda p, n, v: dowling3(p["group_table"], validate=v)),
}


def build_matroid(presentation: dict, n: int | None = None,
                  validate: bool | None = None) -> Matroid:
    """Build a matroid from a presentation record (the JSON payload shape)."""
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
        return build(presentation, n, validate)
    except KeyError as exc:
        raise PresentationError(f"presentation is missing field {exc}") from exc
