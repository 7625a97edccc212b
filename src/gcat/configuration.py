"""Configurations: size/rank-labeled lattices of cyclic flats.

A configuration keeps only the abstract lattice of cyclic flats (Bonin and
de Mier) with each node labeled by the size and rank of its flat; for a
coloop-free matroid it determines the catenary data.  The computation is
one dynamic program over the states (lo, hi, T) of the given lattice: the
interval minor [lo, hi] truncated to rank T <= rank(hi), whose interior is
the nodes strictly between lo and hi of rank below T.  Truncating a state
lowers T and its intervals [v, hi] keep T, so no configuration is rebuilt.
The basis and independent-copoint counts of a state are sums over one node
of its interior; a single walk over the chains of the whole lattice then
multiplies the independent-copoint counts of each chain's steps by the
interleavings of their coloops.  Every memo lives for one call.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .errors import ExactnessError
from .ginvariant import CatenaryData
from .matroid import Matroid, elements_of


@dataclass(frozen=True)
class Configuration:
    """Nodes 0..m-1 with size and rank labels and a strict partial order.

    `less` holds all pairs (i, j) with node i strictly below node j; the
    order must have a single minimum and maximum, and both s and s - rho
    must strictly increase upward (necessary conditions on cyclic flats).
    """

    sizes: tuple[int, ...]
    ranks: tuple[int, ...]
    less: frozenset[tuple[int, int]]
    # the unique minimum and maximum nodes, found once by __post_init__
    bottom: int = field(init=False, compare=False)
    top: int = field(init=False, compare=False)
    # up[i]: bitmask of the nodes strictly above node i
    up: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(x) for x in self.sizes)
        ranks = tuple(int(x) for x in self.ranks)
        less = frozenset((int(i), int(j)) for i, j in self.less)
        m = len(sizes)
        if m == 0 or len(ranks) != m:
            raise ValueError("sizes and ranks must label the same nonempty node set")
        up = [0] * m
        for i, j in less:
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"bad order pair ({i}, {j})")
            # rising ranks make the order irreflexive and antisymmetric
            if sizes[i] >= sizes[j] or ranks[i] >= ranks[j]:
                raise ValueError(
                    f"size and rank must strictly increase: node {i} vs {j}")
            if sizes[i] - ranks[i] >= sizes[j] - ranks[j]:
                raise ValueError(
                    f"size minus rank must strictly increase: node {i} vs {j}")
            up[i] |= 1 << j
        if any(up[j] & ~up[i] for i in range(m) for j in elements_of(up[i])):
            raise ValueError("order is not transitive")
        full = (1 << m) - 1
        bottoms = [i for i in range(m) if up[i] | 1 << i == full]
        # a unique maximal node of a finite order is its maximum
        tops = [j for j in range(m) if not up[j]]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError("order must have a unique minimum and maximum")
        if ranks[bottoms[0]] != 0:
            raise ValueError("the minimum node must have rank 0")
        for name, value in (("sizes", sizes), ("ranks", ranks), ("less", less),
                            ("up", tuple(up)), ("bottom", bottoms[0]),
                            ("top", tops[0])):
            object.__setattr__(self, name, value)

    @classmethod
    def from_covers(cls, sizes, ranks, covers) -> Configuration:
        """The configuration whose order is generated by `covers`."""
        m = len(ranks)  # unequal label counts are rejected by cls()
        up = [0] * m
        for i, j in covers:
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"bad order pair ({i}, {j})")
            up[i] |= 1 << j
        # by falling rank, so joined up-sets are closed (covers raise rank)
        for i in sorted(range(m), key=lambda v: -ranks[v]):
            for j in elements_of(up[i]):
                up[i] |= up[j]
        return cls(sizes, ranks, frozenset(
            (i, j) for i in range(m) for j in elements_of(up[i])))

    @property
    def m(self) -> int:
        return len(self.sizes)

    def rank(self) -> int:
        return self.ranks[self.top]

    def size(self) -> int:
        return self.sizes[self.top]

    def below(self, j: int) -> list[int]:
        return [i for i in range(self.m) if self.up[i] >> j & 1]

    def above(self, i: int) -> list[int]:
        return elements_of(self.up[i])

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs of the order, for serialization."""
        out = []
        for i, mask in enumerate(self.up):
            reach = 0
            for k in elements_of(mask):
                reach |= self.up[k]
            out.extend((i, j) for j in elements_of(mask & ~reach))
        return out

    def __repr__(self):
        labels = ", ".join(f"({s},{r})" for s, r in zip(self.sizes, self.ranks))
        return f"Configuration([{labels}], covers={self.covers()})"


def _relabel(sizes, ranks, less, order) -> Configuration:
    pos = {node: i for i, node in enumerate(order)}
    return Configuration(
        tuple(sizes[v] for v in order),
        tuple(ranks[v] for v in order),
        frozenset((pos[i], pos[j]) for i, j in less
                  if i in pos and j in pos))


def _refine(colors, below, above) -> list[int]:
    """The colors split by the color multisets of each node's strict down-
    and up-sets until no class splits, renumbered 0, 1, ... in the order of
    these signatures, which name no node."""
    while True:
        sig = [(col, tuple(sorted(colors[j] for j in below[i])),
                tuple(sorted(colors[j] for j in above[i])))
               for i, col in enumerate(colors)]
        index = {s: k for k, s in enumerate(sorted(set(sig)))}
        stable = len(index) == len(set(colors))
        colors = [index[s] for s in sig]
        if stable:
            return colors


def canonical_key(c: Configuration):
    """Serialization of a configuration, equal exactly when two
    configurations are isomorphic.

    Nodes are colored by (rank, size) and refined (`_refine`).  While a
    color is shared, each node of the first shared color is made unique in
    turn and the coloring refined again; each order this ends in is
    serialized, and the least serialization is the key.  An order with the
    key's serialization gives an automorphism onto the key's order, so the
    search returns to where their choices parted; there, and wherever
    automorphisms found so far fix the choices made, a node they map onto
    a node already tried ends in the same serializations and is skipped.
    """
    m = c.m
    above = [c.above(i) for i in range(m)]
    below = [c.below(i) for i in range(m)]
    best, autos = [], []  # best: the least key, its order and its choices

    def search(colors, path):
        """None, or the depth to return to when an automorphism is found."""
        colors = _refine(colors, below, above)
        if len(set(colors)) == m:
            order = sorted(range(m), key=colors.__getitem__)
            pos = {node: i for i, node in enumerate(order)}
            key = (tuple((c.sizes[v], c.ranks[v]) for v in order),
                   tuple(sorted((pos[i], pos[j]) for i, j in c.less)))
            if best and key == best[0]:
                auto = [0] * m
                for u, v in zip(order, best[1]):
                    auto[u] = v
                autos.append(auto)
                return next(d for d, (u, v) in enumerate(zip(path, best[2]))
                            if u != v)
            if not best or key < best[0]:
                best[:] = key, order, path
            return None
        tied = min(col for col, k in Counter(colors).items() if k > 1)
        tried = set()
        for v in [i for i, col in enumerate(colors) if col == tied]:
            gens = [a for a in autos if all(a[x] == x for x in path)]
            orbit, todo = {v}, [v]
            while todo:
                x = todo.pop()
                for a in gens:
                    if a[x] not in orbit:
                        orbit.add(a[x])
                        todo.append(a[x])
            if orbit & tried:
                continue
            tried.add(v)
            back = search([2 * col + (col == tied and i != v)
                           for i, col in enumerate(colors)], path + [v])
            if back is not None and back < len(path):
                return back
        return None

    search([(c.ranks[i], c.sizes[i]) for i in range(m)], [])
    return best[0]


def _containment(flats) -> tuple[list[int], list[int], list[int]]:
    """Sizes, ranks and up-sets (bitmasks of the nodes above) of cyclic
    flats listed by rank, ordered by containment: a node's up-set is the
    other nodes holding each of its elements (`holder`)."""
    holder = [0] * flats[-1][0].bit_length()  # the top holds every flat
    for i, (f, _) in enumerate(flats):
        for e in elements_of(f):
            holder[e] |= 1 << i
    full = (1 << len(flats)) - 1
    up = [full & ~(1 << i) for i in range(len(flats))]
    for i, (f, _) in enumerate(flats):
        for e in elements_of(f):
            up[i] &= holder[e]
    return [f.bit_count() for f, _ in flats], [k for _, k in flats], up


def configuration_of(m: Matroid) -> Configuration:
    """Abstract copy of the lattice of cyclic flats; set identities are lost."""
    if m.coloops():
        raise ValueError("configurations are defined for coloop-free matroids")
    sizes, ranks, up = _containment(m.cyclic_flats())
    return Configuration(sizes, ranks, frozenset(
        (i, j) for i, mask in enumerate(up) for j in elements_of(mask)))


def config_minor(c: Configuration, x: int, mode: str) -> Configuration:
    """Interval minor at node x: the configuration of the restriction to,
    or contraction by, the corresponding cyclic flat."""
    if mode == "restrict":
        return _relabel(c.sizes, c.ranks, c.less, c.below(x) + [x])
    if mode == "contract":
        sizes = [c.sizes[v] - c.sizes[x] for v in range(c.m)]
        ranks = [c.ranks[v] - c.ranks[x] for v in range(c.m)]
        return _relabel(sizes, ranks, c.less, [x] + c.above(x))
    raise ValueError(f"unknown minor mode {mode!r}")


def config_truncate(c: Configuration) -> Configuration:
    """Configuration of the truncation: cyclic flats of rank up to r-2
    survive, and the whole ground set tops the lattice at rank r-1."""
    r = c.rank()
    if r < 1:
        raise ValueError("cannot truncate a rank-0 configuration")
    ranks = list(c.ranks)
    ranks[c.top] = r - 1
    keep = [v for v in range(c.m) if ranks[v] <= r - 2] + [c.top]
    return _relabel(c.sizes, ranks, c.less, keep)


# -- catenary data from a configuration --------------------------------------

def _occupancy(w: tuple) -> dict[tuple, int]:
    """Interleavings of the coloops of a chain with rank gaps w[i] + 1, by
    column sums: each of step i's w[i] coloops in turn goes into one of the
    columns 0..i, at any place among the entries already there."""
    dist = {(0,) * len(w): 1}
    for i, wi in enumerate(w):
        for _ in range(wi):
            nxt: dict[tuple, int] = {}
            for cols, x in dist.items():
                for j in range(i + 1):
                    grown = cols[:j] + (cols[j] + 1,) + cols[j + 1:]
                    nxt[grown] = nxt.get(grown, 0) + x * grown[j]
            dist = nxt
    return dist


class _Lattice:
    """A lattice by the sizes, ranks and up-sets of its nodes in rank order,
    so that ascending bits are a linear extension, and memos of the basis
    and independent-copoint counts of its states (lo, hi, T)."""

    def __init__(self, sizes, ranks, up):
        self.sizes, self.ranks, self.up = sizes, ranks, up
        self.down = [0] * len(up)
        for i, mask in enumerate(up):
            for j in elements_of(mask):
                self.down[j] |= 1 << i
        # under[t]: the nodes of rank below t, a prefix of the rank order
        self.under = [(1 << bisect_left(ranks, t)) - 1
                      for t in range(ranks[-1] + 1)]
        self._basis: dict[tuple, int] = {}
        self._iota: dict[tuple, int] = {}

    @classmethod
    def of(cls, c: Configuration) -> _Lattice:
        """The lattice of c, its nodes renumbered in rank order."""
        order = sorted(range(c.m), key=c.ranks.__getitem__)
        pos = {v: i for i, v in enumerate(order)}
        return cls([c.sizes[v] for v in order], [c.ranks[v] for v in order],
                   [sum(1 << pos[w] for w in elements_of(c.up[v]))
                    for v in order])

    def interior(self, lo: int, hi: int, t: int) -> int:
        return self.up[lo] & self.down[hi] & self.under[t]

    def basis(self, lo: int, hi: int, t: int) -> int:
        """Bases of the state (lo, hi, t) of rank r.  Its flags weighted by
        the product of their parts sum to r! b.  Grouped by the last cyclic
        flat u of their chain below the top, with a chain's coloop
        interleavings summed in closed form (a coloop placed while stepping
        up to relative rank rho goes after one of the steps so far or next
        to a coloop already placed), they give r b = sum over u of
        b[lo, u] * iota(u, hi, t) * (the part from u to the top)."""
        r = t - self.ranks[lo]
        inner = self.interior(lo, hi, t)
        if not inner:
            return math.comb(self.sizes[hi] - self.sizes[lo], r)
        got = self._basis.get((lo, hi, t))
        if got is None:
            total = 0
            for u in (lo, *elements_of(inner)):
                part = self.sizes[hi] - self.sizes[u] - t + self.ranks[u] + 1
                total += (self.basis(lo, u, self.ranks[u])
                          * self.iota(u, hi, t) * part)
            got, rem = divmod(total, r)
            if rem:
                raise ExactnessError(f"basis count {total}/{r} is not whole")
            self._basis[(lo, hi, t)] = got
        return got

    def iota(self, lo: int, hi: int, t: int) -> int:
        """Independent copoints of the state: bases of its truncation plus,
        for each chain F_1 < ... < F_p of its interior, (-1)^p times the
        bases of [lo, F_1], ..., [F_(p-1), F_p] and of the truncated
        [F_p, hi].  The chains after F_1 sum to iota(F_1, hi, t)."""
        got = self._iota.get((lo, hi, t))
        if got is None:
            got = self.basis(lo, hi, t - 1)
            for v in elements_of(self.interior(lo, hi, t)):
                got -= self.basis(lo, v, self.ranks[v]) * self.iota(v, hi, t)
            if got < 0:
                raise ExactnessError(
                    f"independent-copoint count {got} is negative: "
                    "not the configuration of a matroid")
            self._iota[(lo, hi, t)] = got
        return got

    def flags(self) -> dict[tuple, int]:
        """Flag counts by composition: over the chains of cyclic flats from
        bottom to top, the independent-copoint counts of the steps times
        the interleavings of their coloops.  The walk keeps one sum per
        sequence of (rank gap - 1, size jump) steps."""
        top = len(self.ranks) - 1
        if top == 0:
            return {(self.sizes[0],): 1}
        acc: dict[int, dict[tuple, int]] = {0: {(): 1}}
        for u in range(top):
            here = acc.pop(u, None)
            if not here:
                continue
            for v in elements_of(self.up[u]):
                x = self.iota(u, v, self.ranks[v])
                if x:
                    gap = self.ranks[v] - self.ranks[u]
                    step = ((gap - 1, self.sizes[v] - self.sizes[u] - gap + 1),)
                    into = acc.setdefault(v, {})
                    for key, y in here.items():
                        into[key + step] = into.get(key + step, 0) + x * y
        counts: dict[tuple, int] = {}
        occupancy: dict[tuple, dict] = {}
        for steps, x in acc.get(top, {}).items():
            w = tuple(g for g, _ in steps)
            if w not in occupancy:
                occupancy[w] = _occupancy(w)
            for cols, ways in occupancy[w].items():
                comp = [self.sizes[0]]
                for col, (_, jump) in zip(cols, steps):
                    comp += [1] * col
                    comp.append(jump)
                comp = tuple(comp)
                counts[comp] = counts.get(comp, 0) + x * ways
        return counts


def independent_copoint_count(c: Configuration) -> int:
    """Number of independent copoints, from the configuration alone."""
    if c.sizes[c.bottom] != 0:
        raise ValueError("independent copoints need a loopless configuration")
    if c.rank() == 0:
        return 0
    return _Lattice.of(c).iota(0, c.m - 1, c.rank())


def basis_count_config(c: Configuration) -> int:
    """Number of bases of any matroid with this configuration."""
    return _Lattice.of(c).basis(0, c.m - 1, c.rank())


def catenary_from_config(c: Configuration) -> CatenaryData:
    """Catenary data of any coloop-free matroid with this configuration.

    A lattice that no matroid has can give a negative independent-copoint
    count, which raises ExactnessError; flag counts are positive-weighted
    sums of their products."""
    return CatenaryData(c.size(), c.rank(), _Lattice.of(c).flags())
