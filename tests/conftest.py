"""Shared fixtures: the desk-scale matroid corpus and cached invariants."""

from __future__ import annotations

import itertools
import json
import pathlib

import pytest
from hypothesis import strategies as st

from gcat import (Matroid, catenary, dowling3, from_bases, from_cyclic_flats,
                  from_graph, from_paving_copoints, g_brute_force,
                  g_from_catenary, mask_of, uniform)
from gcat.serialization import matroid_from_json

DATA = pathlib.Path(__file__).parent / "data"


def load_data(name: str) -> Matroid:
    with open(DATA / f"{name}.json", "r", encoding="utf-8") as fh:
        return matroid_from_json(json.load(fh))


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K5_EDGES = [(a, b) for a in range(5) for b in range(a + 1, 5)]
BOWTIE_EDGES = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
               (0, 3), (1, 4), (2, 5)]

FANO_LINES = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6],
              [2, 3, 6], [2, 4, 5]]


def fano() -> Matroid:
    return from_paving_copoints(7, 3, FANO_LINES)


def _build_corpus() -> list[tuple[str, Matroid]]:
    corpus: list[tuple[str, Matroid]] = []

    def add(name, m):
        corpus.append((name, m))
        return m

    for n in range(7):
        for r in range(n + 1):
            add(f"U({r},{n})", uniform(r, n))
    for r, n in [(1, 7), (2, 7), (3, 7), (6, 7), (2, 8), (4, 8)]:
        add(f"U({r},{n})", uniform(r, n))

    k4 = add("M(K4)", from_graph(K4_EDGES))
    add("bowtie", from_graph(BOWTIE_EDGES))
    add("M(K4)-e", from_graph(K4_EDGES[:-1]))
    add("path3", from_graph([(0, 1), (1, 2), (2, 3)]))
    add("triangle+pendant", from_graph([(0, 1), (1, 2), (0, 2), (2, 3)]))
    add("2x-triangle", from_graph([(0, 1), (0, 1), (1, 2), (0, 2)]))
    add("loop-edge+triangle", from_graph([(0, 0), (0, 1), (1, 2), (0, 2)]))
    add("C4-chord", from_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    add("K23", from_graph([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]))

    fig1_m = add("fig1-M", load_data("fig1-m"))
    fig1_n = add("fig1-N", load_data("fig1-n"))
    add("fig2-M1", load_data("fig2-m1"))
    add("fig2-M2", load_data("fig2-m2"))

    add("paving(7;4+3)", from_paving_copoints(7, 3, [[0, 1, 2, 3], [4, 5, 6]]))
    add("paving(8;5)r4", from_paving_copoints(8, 4, [[0, 1, 2, 3, 4]]))
    add("paving(6;shared)", from_paving_copoints(6, 3, [[0, 1, 2], [2, 3, 4]]))
    f7 = add("fano", fano())

    u12 = uniform(1, 2)
    u11 = uniform(1, 1)
    u23 = uniform(2, 3)
    add("U12+U11", u12.direct_sum(u11))
    add("U23+U11", u23.direct_sum(u11))
    add("U23+U23", u23.direct_sum(u23))
    add("U02+U11", uniform(0, 2).direct_sum(u11))
    add("U12+U12", u12.direct_sum(u12))
    add("U01+U24", uniform(0, 1).direct_sum(uniform(2, 4)))
    add("M(K4)+loop", k4.add_loop())
    add("U13+U02", uniform(1, 3).direct_sum(uniform(0, 2)))
    add("fig1-M+loop", fig1_m.add_loop())
    add("U24+coloop", uniform(2, 4).add_coloop())

    add("U12#U12", u12.free_product(u12))
    add("U01+(U12#U12)", uniform(0, 1).direct_sum(u12.free_product(u12)))
    add("(U12#U12)+coloop", u12.free_product(u12).add_coloop())
    add("U12#U23", u12.free_product(u23))
    add("U23#U12", u23.free_product(u12))
    add("(U12+U11)#U12", u12.direct_sum(u11).free_product(u12))
    add("U13#U13", uniform(1, 3).free_product(uniform(1, 3)))
    add("U11#U24", u11.free_product(uniform(2, 4)))
    add("U12#U13", u12.free_product(uniform(1, 3)))

    add("relax(U12+U11)", u12.direct_sum(u11).relax(mask_of([0, 1])))
    add("relax(M(K4))", k4.relax(mask_of([0, 1, 3])))
    add("nonfano", f7.relax(mask_of(FANO_LINES[0])))

    add("Trun(M(K4))", k4.truncate())
    add("Trun(fig1-M)", fig1_m.truncate())
    add("Lift(U24)", uniform(2, 4).lift())
    add("Lift(M(K4))", k4.lift())
    add("free-ext(fig1-N)", fig1_n.free_extension())
    add("free-ext(U23+U11)", u23.direct_sum(u11).free_extension())
    add("free-coext(U23)", u23.free_coextension())
    add("free-coext(M(K4)-e)", from_graph(K4_EDGES[:-1]).free_coextension())

    for name, m in corpus:
        assert m.n <= 8, name
    return corpus


_CORPUS = None


@pytest.fixture(scope="session")
def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = _build_corpus()
    return _CORPUS


class Cache:
    """Per-matroid lazily computed invariants shared across test modules."""

    def __init__(self):
        self._cat = {}
        self._g = {}
        self._gbf = {}

    def cat(self, name, m):
        if name not in self._cat:
            self._cat[name] = catenary(m)
        return self._cat[name]

    def g(self, name, m):
        if name not in self._g:
            self._g[name] = g_from_catenary(self.cat(name, m))
        return self._g[name]

    def g_bf(self, name, m):
        if name not in self._gbf:
            self._gbf[name] = g_brute_force(m)
        return self._gbf[name]


@pytest.fixture(scope="session")
def cache():
    return Cache()


@pytest.fixture(scope="session")
def named(corpus):
    return dict(corpus)


# triangle of K4 as a mask helper reused in several modules
TRIANGLE = mask_of([0, 1, 3])


def closures(m: Matroid) -> list[int]:
    """Every set m closes from its presentation from now on, in order."""
    closed: list[int] = []
    close = m._closure_of
    m._closure_of = lambda x: closed.append(x) or close(x)
    return closed


def gf_rank(vectors, q: int) -> int:
    """Rank of integer vectors over GF(q), q prime; test-side oracle."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    pivot_col = 0
    while rank < len(rows) and pivot_col < cols:
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][pivot_col] % q:
                pivot = i
                break
        if pivot is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][pivot_col], q - 2, q) if q > 2 else 1
        rows[rank] = [(x * inv) % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][pivot_col] % q:
                f = rows[i][pivot_col]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
        pivot_col += 1
    return rank


def linear_matroid(vectors, q: int) -> Matroid:
    """Matroid of columns-as-elements from explicit GF(q) coordinates."""
    n = len(vectors)
    r = gf_rank(vectors, q)
    bases = set()
    for combo in itertools.combinations(range(n), r):
        if gf_rank([vectors[i] for i in combo], q) == r:
            bases.add(mask_of(combo))
    return from_bases(n, bases)


def pg_points(dim: int, q: int) -> list[tuple]:
    """Normalized point coordinates of the projective geometry PG(dim, q)."""
    pts = []
    for vec in itertools.product(range(q), repeat=dim + 1):
        if not any(vec):
            continue
        lead = next(x for x in vec if x)
        if lead == 1 and (not pts or vec not in pts):
            pts.append(vec)
    return pts


def geometric_qcone(base_vectors, q: int) -> Matroid:
    """Hand-coded q-cone: embed the base in a hyperplane of PG(dim, q),
    pick an apex off it, and restrict to the union of the apex-base lines."""
    dim = len(base_vectors[0])  # base spans a rank-dim flat; cone adds one
    embedded = [tuple(v) + (0,) for v in base_vectors]
    apex = (0,) * dim + (1,)
    points = {apex}
    for p in embedded:
        for lam in range(q):
            for mu in range(q):
                if lam == 0 and mu == 0:
                    continue
                vec = tuple((lam * a + mu * b) % q for a, b in zip(p, apex))
                lead = next(x for x in vec if x)
                inv = pow(lead, q - 2, q) if q > 2 else 1
                points.add(tuple((x * inv) % q for x in vec))
    return linear_matroid(sorted(points), q)


# -- Hypothesis strategies: matroids of every presentation kind ---------------

def subsets(n, min_size=0):
    return st.sets(st.integers(0, n - 1), min_size=min_size, max_size=n)


@st.composite
def _graphs(draw, max_n):
    nverts = draw(st.integers(1, 5))
    vert = st.integers(0, nverts - 1)
    # small vertex counts make loops and parallel edges common
    return from_graph(draw(st.lists(st.tuples(vert, vert), max_size=max_n)))


@st.composite
def _uniforms(draw, max_n):
    n = draw(st.integers(0, max_n))
    return uniform(draw(st.integers(0, n)), n)


@st.composite
def _pavings(draw, max_n):
    n = draw(st.integers(3, max_n))
    r = draw(st.integers(2, min(4, n - 1)))
    kept = []
    for c in draw(st.lists(subsets(n, r), max_size=8)):
        c = mask_of(c)
        if c != (1 << n) - 1 and all((c & d).bit_count() <= r - 2 for d in kept):
            kept.append(c)
    return from_paving_copoints(n, r, kept)


@st.composite
def _nested(draw, max_n):
    # sizes, ranks and nullities strictly increase along the chain; elements
    # above its top are coloops
    n = draw(st.integers(1, max_n))
    chain = [(draw(st.integers(0, n)), 0)]
    while chain[-1][0] <= n - 2 and draw(st.booleans()):
        s0, k = chain[-1]
        size = draw(st.integers(s0 + 2, n))
        chain.append((size, draw(st.integers(k + 1, k + size - s0 - 1))))
    labels = draw(st.permutations(range(n)))
    return from_cyclic_flats(n, [(labels[:s], k) for s, k in chain])


def presentations(max_n):
    """Every presentation kind, on at most max_n elements."""
    # Dowling Z1 has 6 elements, Z2 has 9
    tables = [t for t in ([[0]], [[0, 1], [1, 0]]) if 3 + 3 * len(t) <= max_n]
    kinds = [_graphs(max_n), _uniforms(max_n), _pavings(max_n), _nested(max_n)]
    if tables:
        kinds.append(st.sampled_from(tables).map(dowling3))
    return st.one_of(kinds)


@st.composite
def _small_corank_graphs(draw):
    """A cycle of 3-9 edges, up to 3 more edges on its vertices (chords,
    parallel edges or loops) and up to 3 bridges hung off it, in a random
    order: a connected graph of corank 1-4, mostly of core rank n - r + 2
    or more."""
    length = draw(st.integers(3, 9))
    edges = [(v, (v + 1) % length) for v in range(length)]
    end = st.integers(0, length - 1)
    edges += draw(st.lists(st.tuples(end, end), max_size=3))
    for v in range(length, length + draw(st.integers(0, 3))):
        edges.append((draw(st.integers(0, v - 1)), v))
    return from_graph(draw(st.permutations(edges)))
