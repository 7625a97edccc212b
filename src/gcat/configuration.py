"""Configurations: size/rank-labeled lattices of cyclic flats.

A configuration forgets which sets the cyclic flats are, keeping only the
abstract lattice with each node labeled by the size and rank of its flat.
For a coloop-free matroid the configuration determines the catenary data;
the computation recurses over chains of the lattice, counting the ways to
interleave coloops of intermediate flats between the chain's nodes, with
the independent-copoint counts of the interval minors supplied by an
inclusion/exclusion over chains and exact basis counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .ginvariant import CatenaryData, basis_count, _falling
from .matroid import Matroid


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

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(x) for x in self.sizes))
        object.__setattr__(self, "ranks", tuple(int(x) for x in self.ranks))
        object.__setattr__(self, "less", frozenset(
            (int(i), int(j)) for i, j in self.less))
        m = len(self.sizes)
        if m == 0 or len(self.ranks) != m:
            raise ValueError("sizes and ranks must label the same nonempty node set")
        for i, j in self.less:
            if not (0 <= i < m and 0 <= j < m) or i == j:
                raise ValueError(f"bad order pair ({i}, {j})")
            if (j, i) in self.less:
                raise ValueError(f"order is not antisymmetric at ({i}, {j})")
            if self.sizes[i] >= self.sizes[j] or self.ranks[i] >= self.ranks[j]:
                raise ValueError(
                    f"size and rank must strictly increase: node {i} vs {j}")
            if self.sizes[i] - self.ranks[i] >= self.sizes[j] - self.ranks[j]:
                raise ValueError(
                    f"size minus rank must strictly increase: node {i} vs {j}")
        for i, j in self.less:
            for k in range(m):
                if (j, k) in self.less and (i, k) not in self.less:
                    raise ValueError("order is not transitive")
        bottoms = [i for i in range(m)
                   if all((i, j) in self.less for j in range(m) if j != i)]
        tops = [j for j in range(m)
                if all((i, j) in self.less for i in range(m) if i != j)]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError("order must have a unique minimum and maximum")
        object.__setattr__(self, "bottom", bottoms[0])
        object.__setattr__(self, "top", tops[0])
        if self.ranks[self.bottom] != 0:
            raise ValueError("the minimum node must have rank 0")

    @property
    def m(self) -> int:
        return len(self.sizes)

    def rank(self) -> int:
        return self.ranks[self.top]

    def size(self) -> int:
        return self.sizes[self.top]

    def comparable(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self.less or (j, i) in self.less

    def below(self, j: int) -> list[int]:
        return [i for i in range(self.m) if (i, j) in self.less]

    def above(self, i: int) -> list[int]:
        return [j for j in range(self.m) if (i, j) in self.less]

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs of the order, for serialization."""
        out = []
        for i, j in sorted(self.less):
            if not any((i, k) in self.less and (k, j) in self.less
                       for k in range(self.m)):
                out.append((i, j))
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


@lru_cache(maxsize=None)
def canonical_key(c: Configuration):
    """Isomorphism-stable serialization used as a memo key.

    Nodes are colored by (rank, size) and refined by the color multisets of
    their strict down- and up-sets until stable, then sorted.  Equal keys
    imply isomorphic configurations (the full relation is serialized);
    unbroken ties can at worst cost a cache hit, never correctness.
    """
    m = c.m
    colors = [(c.ranks[i], c.sizes[i]) for i in range(m)]
    for _ in range(m):
        new = []
        for i in range(m):
            down = sorted(colors[j] for j in range(m) if (j, i) in c.less)
            up = sorted(colors[j] for j in range(m) if (i, j) in c.less)
            new.append((colors[i], tuple(down), tuple(up)))
        if len(set(new)) == len(set(colors)):
            colors = new
            break
        colors = new
    order = sorted(range(m), key=lambda i: (colors[i], i))
    pos = {node: i for i, node in enumerate(order)}
    rel = frozenset((pos[i], pos[j]) for i, j in c.less)
    return (tuple((c.sizes[v], c.ranks[v]) for v in order), rel)


def configuration_of(m: Matroid) -> Configuration:
    """Abstract copy of the lattice of cyclic flats; set identities are lost."""
    if m.coloops():
        raise ValueError("configurations are defined for coloop-free matroids")
    zf = m.cyclic_flats()
    less = frozenset((i, j) for i, (f1, _) in enumerate(zf)
                     for j, (f2, _) in enumerate(zf)
                     if f1 != f2 and f1 & ~f2 == 0)
    return Configuration(tuple(f.bit_count() for f, _ in zf),
                         tuple(k for _, k in zf), less)


def config_minor(c: Configuration, x: int, mode: str) -> Configuration:
    """Interval minor at node x: the configuration of the restriction to,
    or contraction by, the corresponding cyclic flat."""
    if mode == "restrict":
        order = sorted(c.below(x)) + [x]
        return _relabel(c.sizes, c.ranks, c.less, order)
    if mode == "contract":
        order = [x] + sorted(c.above(x))
        sizes = [c.sizes[v] - c.sizes[x] for v in range(c.m)]
        ranks = [c.ranks[v] - c.ranks[x] for v in range(c.m)]
        return _relabel(sizes, ranks, c.less, order)
    raise ValueError(f"unknown minor mode {mode!r}")


def config_interval(c: Configuration, lo: int, hi: int) -> Configuration:
    """Configuration of the minor restricted to [lo, hi], labels rebased."""
    if lo == hi:
        return Configuration((0,), (0,), frozenset())
    nodes = [lo] + sorted(v for v in range(c.m)
                          if (lo, v) in c.less and (v, hi) in c.less) + [hi]
    sizes = [c.sizes[v] - c.sizes[lo] for v in range(c.m)]
    ranks = [c.ranks[v] - c.ranks[lo] for v in range(c.m)]
    return _relabel(sizes, ranks, c.less, nodes)


def config_truncate(c: Configuration) -> Configuration:
    """Configuration of the truncation: cyclic flats of rank up to r-2
    survive, and the whole ground set tops the lattice at rank r-1."""
    r = c.rank()
    if r < 1:
        raise ValueError("cannot truncate a rank-0 configuration")
    keep = [v for v in range(c.m) if c.ranks[v] <= r - 2]
    sizes = [c.sizes[v] for v in keep] + [c.size()]
    ranks = [c.ranks[v] for v in keep] + [r - 1]
    top = len(keep)
    less = set()
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            if (i, j) in c.less:
                less.add((a, b))
        less.add((a, top))
    return Configuration(tuple(sizes), tuple(ranks), frozenset(less))


# -- catenary data from a configuration --------------------------------------

def _chains_between(c: Configuration, lo: int, hi: int):
    """All chains lo < ... < hi in the order (not only saturated ones)."""
    if lo == hi:
        yield (lo,)
        return
    out = []

    def walk(cur, acc):
        if cur == hi:
            out.append(tuple(acc))
            return
        for nxt in c.above(cur):
            if nxt == hi or (nxt, hi) in c.less:
                acc.append(nxt)
                walk(nxt, acc)
                acc.pop()

    walk(lo, [lo])
    yield from out


def _row_compositions(total: int, parts: int):
    """Weak compositions of `total` into `parts` nonnegative parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for cv in cuts:
            comp.append(cv - prev - 1)
            prev = cv
        comp.append(total + parts - 2 - prev)
        yield tuple(comp)


_iota_memo: dict = {}
_catenary_memo: dict = {}


def independent_copoint_count(c: Configuration) -> int:
    """Number of independent copoints, from the configuration alone.

    Inclusion/exclusion over chains of proper cyclic flats: the count is
    bases(Trun) plus, for each nonempty chain F_1 < ... < F_p, the signed
    product of the basis counts of the interval minors and of the truncated
    top contraction.
    """
    if c.sizes[c.bottom] != 0:
        raise ValueError("independent copoints need a loopless configuration")
    r = c.rank()
    if r == 0:
        return 0
    key = canonical_key(c)
    got = _iota_memo.get(key)
    if got is not None:
        return got

    def b_of(smaller: Configuration) -> int:
        # every basis count the inclusion/exclusion needs lives strictly
        # below this configuration's rank, which is what grounds the
        # mutual recursion with catenary_from_config
        assert smaller.rank() < r
        return basis_count_config(smaller)

    total = b_of(config_truncate(c))
    interior = [v for v in range(c.m) if 0 < c.ranks[v] < r]
    bot, top = c.bottom, c.top
    for first in interior:
        stack = [(first, [first])]
        while stack:
            cur, chain = stack.pop()
            term = b_of(config_interval(c, bot, chain[0]))
            for a, b in zip(chain, chain[1:]):
                term *= b_of(config_interval(c, a, b))
            term *= b_of(config_truncate(config_interval(c, chain[-1], top)))
            total += (-1) ** len(chain) * term
            for nxt in c.above(cur):
                if nxt in interior:
                    stack.append((nxt, chain + [nxt]))
    _iota_memo[key] = total
    return total


def basis_count_config(c: Configuration) -> int:
    """Number of bases of any matroid with this configuration."""
    return basis_count(catenary_from_config(c))


def catenary_from_config(c: Configuration) -> CatenaryData:
    """Catenary data of any coloop-free matroid with this configuration.

    Loops are stripped off the bottom label and restored afterwards.  A
    two-node (or smaller) configuration is a uniform matroid; otherwise each
    chain of cyclic flats contributes flags whose coloops interleave between
    the chain's steps, enumerated by lower-triangular occupancy matrices.
    """
    key = canonical_key(c)
    got = _catenary_memo.get(key)
    if got is not None:
        return got
    h = c.sizes[c.bottom]
    if h:
        sizes = tuple(s - h for s in c.sizes)
        stripped = Configuration(sizes, c.ranks, c.less)
        inner = catenary_from_config(stripped)
        out = CatenaryData(inner.n + h, inner.r,
                           {(h,) + comp[1:]: v for comp, v in inner.counts.items()})
        _catenary_memo[key] = out
        return out
    n, r = c.size(), c.rank()
    if c.m == 1:
        out = CatenaryData(n, 0, {(n,): 1})
        _catenary_memo[key] = out
        return out
    if c.m == 2:
        comp = (0,) + (1,) * (r - 1) + (n - r + 1,)
        out = CatenaryData(n, r, {comp: _falling(n, r - 1)})
        _catenary_memo[key] = out
        return out

    counts: dict[tuple, int] = {}
    bot, top = c.bottom, c.top
    for chain in _chains_between(c, bot, top):
        t = len(chain) - 1
        w = [c.ranks[chain[i]] - c.ranks[chain[i - 1]] - 1 for i in range(1, t + 1)]
        iotas = [independent_copoint_count(config_interval(c, chain[i - 1], chain[i]))
                 for i in range(1, t + 1)]
        mult = math.prod(iotas)
        if mult == 0:
            continue
        jumps = [c.sizes[chain[i]] - c.sizes[chain[i - 1]] - w[i - 1]
                 for i in range(1, t + 1)]
        for rows in itertools.product(*(_row_compositions(w[i], i + 1)
                                        for i in range(t))):
            cols = [sum(rows[i][j] for i in range(j, t)) for j in range(t)]
            ways = mult
            for i in range(t):
                row_ways = math.factorial(w[i])
                for entry in rows[i]:
                    row_ways //= math.factorial(entry)
                ways *= row_ways * math.factorial(cols[i])
            comp = [0]
            for j in range(t):
                comp.extend([1] * cols[j])
                comp.append(jumps[j])
            key_c = tuple(comp)
            counts[key_c] = counts.get(key_c, 0) + ways
    out = CatenaryData(n, r, counts)
    _catenary_memo[key] = out
    return out
