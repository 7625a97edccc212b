"""Matroid construction, derived structure, and ground-truth properties."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcat import ginvariant
from gcat.ginvariant import (_flag_walk, catenary_from_g, g_brute_force,
                             pmd_catenary)
from gcat import (PresentationError, build_matroid, catenary, dowling3,
                  elements_of, from_bases, from_cyclic_flats, from_graph,
                  from_paving_copoints, mask_of, uniform)
from gcat.matroid import Matroid, _basis_scan
from conftest import (K4_EDGES, TRIANGLE, _graphs, closures, load_data,
                      presentations, subsets)


def spanning_forest_count(edges):
    """Independent oracle: count maximal forests by explicit acyclicity."""
    verts = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(verts)}

    def acyclic(sub):
        parent = list(range(len(verts)))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for i in sub:
            u, v = (index[x] for x in edges[i])
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    best = 0
    count = 0
    for k in range(len(edges), -1, -1):
        for sub in itertools.combinations(range(len(edges)), k):
            if acyclic(sub):
                best = k
                count = sum(
                    1 for s in itertools.combinations(range(len(edges)), k)
                    if acyclic(s))
                return count
    return count


class TestBuild:
    def test_uniform(self):
        m = uniform(2, 3)
        assert m.bases == {0b011, 0b101, 0b110}

    def test_k4_spanning_trees(self):
        # frozen from the forest-enumeration oracle: 16 spanning trees
        assert spanning_forest_count(K4_EDGES) == 16
        assert len(from_graph(K4_EDGES).bases) == 16

    def test_graph_with_loop_and_parallel(self):
        m = from_graph([(0, 0), (0, 1), (0, 1), (1, 2)])
        assert m.is_loop(0)
        assert m.rank(mask_of([1, 2])) == 1

    def test_fig1_paving(self):
        m = load_data("fig1-m")
        assert (m.n, m.r) == (6, 3)
        assert len(m.bases) == 18

    def test_paving_rejects_overlapping_copoints(self):
        with pytest.raises(PresentationError):
            from_paving_copoints(6, 3, [[0, 1, 2, 3], [1, 2, 3, 4]])

    def test_paving_rejects_copoints_meeting_in_r_minus_1(self):
        # lines of a rank-2 paving matroid are disjoint; these two share 0,
        # and their bases would make 0 a loop of a non-paving matroid
        with pytest.raises(PresentationError):
            from_paving_copoints(5, 2, [[0, 1, 2], [0, 3, 4]])

    def test_empty_bases_rejected(self):
        with pytest.raises(PresentationError):
            from_bases(3, [])

    def test_unequal_bases_rejected(self):
        with pytest.raises(PresentationError):
            from_bases(3, [0b011, 0b100])

    def test_exchange_failure_rejected(self):
        with pytest.raises(PresentationError):
            from_bases(4, [0b0011, 0b1100])

    def test_cyclic_flats_presentation(self):
        m = from_cyclic_flats(4, [([], 0), ([0, 1, 2, 3], 2)])
        assert m == uniform(2, 4)

    def test_cyclic_flats_inconsistent_rank(self):
        # the pair ({0,1}, 0) forces rank(E) = 2, contradicting the listed 3
        with pytest.raises(PresentationError):
            from_cyclic_flats(4, [([], 0), ([0, 1], 0), ([0, 1, 2, 3], 3)])

    def test_cyclic_flats_must_be_submodular(self):
        # r({0,1}) + r({1,2}) = 2 < r({0,1,2}) + r({1}) = 3 under the
        # min-formula, although the derived bases ({0,2,3} alone) pass the
        # exchange check
        with pytest.raises(PresentationError):
            from_cyclic_flats(4, [([], 0), ([0, 1], 1), ([1, 2], 1)])

    def test_cyclic_flats_need_a_rank_0_flat(self):
        # the min-formula would give every nonempty set rank 2
        with pytest.raises(PresentationError):
            from_cyclic_flats(3, [([0, 1, 2], 2)])

    def test_dowling_trivial_group_is_k4(self):
        q = dowling3([[0]])
        k4 = from_graph(K4_EDGES)
        assert (q.n, q.r, len(q.bases)) == (6, 3, 16)
        assert sorted(f.bit_count() for f in q.copoints()) \
            == sorted(f.bit_count() for f in k4.copoints())

    def test_dowling_bad_table(self):
        with pytest.raises(PresentationError):
            dowling3([[0, 1], [1, 1]])
        # a Latin square that is not associative (smallest: order 5 loop)
        loop5 = [[0, 1, 2, 3, 4],
                 [1, 0, 3, 4, 2],
                 [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1],
                 [4, 3, 1, 2, 0]]
        with pytest.raises(PresentationError):
            dowling3(loop5)

    def test_build_matroid_dispatch(self):
        m = build_matroid({"kind": "uniform", "rank": 2}, n=4)
        assert m == uniform(2, 4)
        with pytest.raises(PresentationError):
            build_matroid({"kind": "nope"}, n=2)
        with pytest.raises(PresentationError):
            build_matroid({"kind": "bases"}, n=2)


class TestQueries:
    def test_rank_examples(self):
        u24 = uniform(2, 4)
        assert u24.rank(mask_of([0, 1, 2])) == 2
        k4 = from_graph(K4_EDGES)
        assert k4.rank(TRIANGLE) == 2
        assert k4.rank(0) == 0

    def test_closure_examples(self):
        m = load_data("fig1-m")
        assert m.closure(mask_of([0, 1])) == mask_of([0, 1, 2])
        assert uniform(2, 3).closure(1) == 1
        loopy = uniform(1, 2).add_loop()
        assert loopy.closure(0) == mask_of([2])

    def test_flats_of_rank(self):
        k4 = from_graph(K4_EDGES)
        lines = k4.flats_of_rank(2)
        assert len(lines) == 7
        assert sorted(f.bit_count() for f in lines) == [2, 2, 2, 3, 3, 3, 3]
        assert uniform(2, 4).flats_of_rank(1) == [1, 2, 4, 8]
        assert k4.flats_of_rank(3) == [k4.full]
        with pytest.raises(ValueError):
            k4.flats_of_rank(4)

    def test_set_families(self):
        u23 = uniform(2, 3)
        assert u23.circuits() == [0b111]
        k4 = from_graph(K4_EDGES)
        stars = [c for c in k4.cocircuits() if c.bit_count() == 3]
        assert len(stars) == 4
        m = load_data("fig1-m")
        cyc = [c for c in m.cyclic_sets()
               if c.bit_count() == 3 and m.rank(c) == 2]
        assert sorted(cyc) == [mask_of([0, 1, 2]), mask_of([3, 4, 5])]

    def test_is_circuit_is_minimal_dependence(self, corpus):
        for name, m in corpus:
            if m.n > 7:
                continue
            bases = m.bases

            def independent(x):
                return any(x & ~b == 0 for b in bases)

            for x in range(1 << m.n):
                minimal_dependent = not independent(x) and all(
                    independent(x & ~(1 << e)) for e in range(m.n)
                    if x >> e & 1)
                assert m.is_circuit(x) == minimal_dependent, (name, x)

    def test_cocircuits_by_exhaustive_minimality(self):
        # oracle: minimal sets meeting every basis
        k4 = from_graph(K4_EDGES)
        def meets_all(x):
            return all(x & b for b in k4.bases)
        minimal = []
        for k in range(1, 7):
            for combo in itertools.combinations(range(6), k):
                x = mask_of(combo)
                if meets_all(x) and all(
                        not meets_all(x & ~(1 << e)) for e in combo):
                    minimal.append(x)
        assert sorted(minimal) == sorted(k4.cocircuits())

    def test_cyclic_flats_examples(self):
        m = load_data("fig1-m")
        zf = m.cyclic_flats()
        assert [(elements_of(f), k) for f, k in zf] == [
            ([], 0), ([0, 1, 2], 2), ([3, 4, 5], 2), ([0, 1, 2, 3, 4, 5], 3)]
        assert uniform(2, 4).cyclic_flats() == [(0, 0), (0b1111, 2)]
        m2 = uniform(1, 2).direct_sum(uniform(1, 1))
        assert m2.cyclic_flats() == [(0, 0), (0b011, 1)]


class TestMinorsAndDual:
    def test_restriction_to_line_is_u23(self):
        m = load_data("fig1-m")
        assert m.restrict(mask_of([0, 1, 2])) == uniform(2, 3)

    def test_trivial_minor(self):
        k4 = from_graph(K4_EDGES)
        assert k4.minor() == k4

    def test_minor_overlap_rejected(self):
        with pytest.raises(ValueError):
            uniform(2, 3).minor(contract=1, delete=1)

    def test_dual_examples(self):
        assert uniform(2, 3).dual() == uniform(1, 3)
        k4 = from_graph(K4_EDGES)
        assert (k4.dual().r, k4.dual().n) == (3, 6)

    def test_dual_involution_corpus(self, corpus):
        for name, m in corpus:
            assert m.dual().dual().bases == m.bases, name

    def test_coloop_walk_closes_only_the_bottom_flat(self):
        # a 4-cycle with a chord and a 6-edge path hung off it: catenary
        # deletes the 6 coloops and walks the deletion, of corank 2 = r - 1
        # so walked as itself, a graph that lists its covers, so it closes
        # only its bottom flat; m closes nothing and ranks nothing, since
        # its coloops are what its cyclic part leaves out
        core = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        path = [(3 + i, 4 + i) for i in range(6)]
        m = from_graph(core + path)
        assert m.n == 11
        closed, walked, minor = closures(m), [], Matroid.minor

        def traced(self, *args, **kwargs):
            d = minor(self, *args, **kwargs)
            walked.append((d, closures(d)))
            return d

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Matroid, "minor", traced)
            catenary(m)
        assert closed == []
        assert m._rank_cache == {0: 0}
        (d, d_closed), = walked
        assert (d.n, d.r) == (5, 3) and d._covers_of is not None
        assert d_closed == [0]

    @staticmethod
    def _ranked(run):
        """`run()` and the (matroid, set) pairs ranked while it runs."""
        ranked, rank = [], Matroid.rank

        def traced(self, x):
            ranked.append((self, x))
            return rank(self, x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Matroid, "rank", traced)
            out = run()
        return out, ranked

    def test_coloop_split_of_a_graph_ranks_nothing(self):
        # a doubled edge with a 200-edge path hung off it: the 200 coloops
        # are what one search of the graph leaves outside its cyclic part
        m = from_graph([(0, 1), (0, 1)] + [(1 + i, 2 + i) for i in range(200)])
        c, ranked = self._ranked(lambda: catenary(m))
        assert [x for d, x in ranked if d is m] == []
        assert c == ginvariant.cat_direct_sum(catenary(uniform(1, 2)),
                                              pmd_catenary(range(201)))

    def test_graph_dual_closes_without_ranking(self):
        d = from_graph(BRIDGED_EDGES).dual()
        closed, ranked = self._ranked(
            lambda: [d.closure(x) for x in range(1 << d.n)])
        assert ranked == []
        assert closed == [_rank_closure(d, x) for x in range(1 << d.n)]

    def test_small_corank_core_is_walked_as_its_dual(self):
        # a 7-cycle with a 6-edge path hung off it: the deletion of the
        # coloops is the 7-cycle, n - r = 1 <= r - 2 = 4, so the one walk
        # is of its dual, of rank 1, and the catenary data come back
        # through G: the n!/2 flags of C7, all of one composition
        cycle = [(i, (i + 1) % 7) for i in range(7)]
        path = [(6 + i, 7 + i) for i in range(6)]
        m = from_graph(cycle + path)
        walked, walk = [], ginvariant._flag_walk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ginvariant, "_flag_walk",
                       lambda d: walked.append((d.n, d.r)) or walk(d))
            c = ginvariant.catenary(m)
        assert walked == [(7, 1)]
        core = ginvariant.catenary(from_graph(cycle))
        assert core.counts == {(0, 1, 1, 1, 1, 1, 2): 2520}
        assert c == ginvariant.cat_direct_sum(core, catenary(uniform(6, 6)))


class TestConstructions:
    def test_truncate(self):
        assert uniform(2, 3).truncate() == uniform(1, 3)
        with pytest.raises(ValueError):
            uniform(0, 2).truncate()

    def test_relax_parallel_pair(self):
        m = uniform(1, 2).direct_sum(uniform(1, 1))
        assert m.relax(0b011) == uniform(2, 3)
        with pytest.raises(ValueError):
            uniform(2, 3).relax(0b011)

    def test_free_extension_gives_fig1_n(self):
        nx = from_paving_copoints(5, 3, [[0, 1, 2], [0, 3, 4]])
        assert nx.free_extension() == load_data("fig1-n")

    def test_lift_is_dual_truncate_dual(self, corpus):
        for name, m in corpus:
            if m.r < m.n:
                assert m.lift() == m.dual().truncate().dual(), name


class TestCombine:
    def test_free_product_counts(self):
        fp = uniform(1, 2).free_product(uniform(1, 2))
        assert (fp.n, fp.r, len(fp.bases)) == (4, 2, 5)

    def test_k3_plus_k2(self):
        left = from_graph([(0, 1), (1, 2), (0, 2)])
        right = from_graph([(0, 1)])
        expect = uniform(2, 3).direct_sum(uniform(1, 1))
        assert left.direct_sum(right) == expect

    def test_free_product_with_u01_is_free_extension(self, corpus):
        for name, m in corpus:
            if m.n <= 5:
                assert m.free_product(uniform(0, 1)) == m.free_extension(), name

    def test_free_product_with_u11_is_free_coextension(self, corpus):
        u11 = uniform(1, 1)
        for name, m in corpus:
            if m.n <= 5:
                fp = u11.free_product(m)
                # relabel: coextension puts the new element last, not first
                perm = [m.n] + list(range(m.n))
                mapped = frozenset(
                    sum(1 << perm[e] for e in elements_of(b)) for b in fp.bases)
                assert mapped == m.free_coextension().bases, name


class TestAxioms:
    def test_corpus_basis_collections_satisfy_exchange(self, corpus):
        # re-validating from scratch exercises the exchange check even for
        # matroids that were produced by internally trusted constructions
        for name, m in corpus:
            assert from_bases(m.n, m.bases).bases == m.bases, name
        prism = from_graph(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
             (0, 3), (1, 4), (2, 5)])
        assert from_bases(9, prism.bases).bases == prism.bases

    @staticmethod
    def _tables(m):
        bases = list(m.bases)
        rank = [max((x & b).bit_count() for b in bases)
                for x in range(1 << m.n)]
        clo = []
        for x in range(1 << m.n):
            cx = x
            for e in range(m.n):
                if rank[x | (1 << e)] == rank[x]:
                    cx |= 1 << e
            clo.append(cx)
        return rank, clo

    def test_rank_monotone_submodular(self, corpus):
        # unit monotonicity plus diminishing returns over every subset is
        # equivalent to monotone + submodular over all pairs
        for name, m in corpus:
            rank, _ = self._tables(m)
            for x in range(1 << m.n):
                rx = rank[x]
                for e in elements_of(m.full & ~x):
                    xe = x | (1 << e)
                    assert rx <= rank[xe] <= rx + 1, (name, x, e)
                    for f in elements_of(m.full & ~xe):
                        assert rank[xe | (1 << f)] - rank[x | (1 << f)] \
                            <= rank[xe] - rx, (name, x, e, f)

    def test_pairwise_submodularity_small(self, corpus):
        # the definitional form, affordable on the small members
        for name, m in corpus:
            if m.n > 5:
                continue
            rank, _ = self._tables(m)
            for x in range(1 << m.n):
                for y in range(x, 1 << m.n):
                    assert rank[x | y] + rank[x & y] \
                        <= rank[x] + rank[y], (name, x, y)

    def test_closure_is_closure_operator(self, corpus):
        for name, m in corpus:
            _, clo = self._tables(m)
            for x in range(1 << m.n):
                cx = clo[x]
                assert cx & x == x
                assert clo[cx] == cx
                for e in elements_of(m.full & ~x):
                    assert cx & ~clo[x | (1 << e)] == 0

    def test_cyclic_flat_lattice_join_meet(self, corpus):
        for name, m in corpus:
            if m.n > 6:
                continue
            zf = [f for f, _ in m.cyclic_flats()]
            circuits = m.circuits()
            for f1 in zf:
                for f2 in zf:
                    join = m.closure(f1 | f2)
                    assert join in zf, (name, f1, f2)
                    meet = 0
                    for c in circuits:
                        if c & ~(f1 & f2) == 0:
                            meet |= c
                    assert meet in zf, (name, f1, f2)
                    below = [z for z in zf
                             if z & ~(f1 & f2) == 0]
                    assert meet == max(below, key=lambda z: z.bit_count())


@st.composite
def _cyclic_flat_lists(draw):
    """Arbitrary lists above the empty rank-0 flat, built when accepted
    (None when rejected)."""
    n = draw(st.integers(1, 6))
    flats = [([], 0)]
    for f in draw(st.lists(subsets(n, 1), min_size=1, max_size=3)):
        flats.append((sorted(f), draw(st.integers(1, max(1, len(f) - 1)))))
    try:
        return from_cyclic_flats(n, flats)
    except PresentationError:
        return None


@st.composite
def _minors(draw, max_n, kinds=presentations):
    """A minor of a drawn presentation, or a minor of one of its minors."""
    m = draw(kinds(max_n))
    for _ in range(draw(st.integers(1, 2))):
        roles = draw(st.lists(st.sampled_from("kcd"),
                              min_size=m.n, max_size=m.n))
        m = m.minor(mask_of(e for e, t in enumerate(roles) if t == "c"),
                    mask_of(e for e, t in enumerate(roles) if t == "d"))
    return m


class TestRankOracle:
    """The presentation's rank function against the scan of its bases."""

    @staticmethod
    def _check(m):
        bases = list(m.bases)
        for x in range(1 << m.n):
            assert m.rank(x) == max((x & b).bit_count() for b in bases), x
        for f, _ in m.flats():
            assert m.covers(f) == {m.closure(f | (1 << e))
                                   for e in elements_of(m.full & ~f)}, f

    @settings(max_examples=60, deadline=None)
    @given(presentations(10))
    def test_rank_is_the_basis_scan(self, m):
        self._check(m)

    @settings(max_examples=200, deadline=None)
    @given(_cyclic_flat_lists())
    def test_accepted_cyclic_flat_lists_rank_exactly(self, m):
        # most lists are rejected; an accepted one must rank by its
        # min-formula exactly
        if m is not None:
            self._check(m)

    @settings(max_examples=60, deadline=None)
    @given(_minors(10))
    def test_minors(self, m):
        self._check(m)


def _rank_closure(m, x):
    """Closure by definition: x and every element that keeps its rank."""
    rx = m.rank(x)
    return x | mask_of(e for e in elements_of(m.full & ~x)
                       if m.rank(x | 1 << e) == rx)


def _rank_cyclic(m, x):
    """Cyclic part by definition: each element of x that keeps its rank."""
    rx = m.rank(x)
    return mask_of(e for e in elements_of(x) if m.rank(x & ~(1 << e)) == rx)


# a loop, a parallel pair, a triangle and two bridges
BRIDGED_EDGES = [(0, 0), (0, 1), (0, 1), (1, 2), (2, 3), (3, 1), (3, 4),
                 (4, 5)]


class TestCyclicOracle:
    """Each cyclic part, the coloops and the dual's closure against their
    rank definitions, on every subset: a graph's come from one search, a
    list's from one scan, a dual's from its parent's closure and cyclic
    part, and any other matroid's from ranks."""

    @staticmethod
    def _check(m):
        for x in range(1 << m.n):
            assert m.cyclic(x) == _rank_cyclic(m, x), x
        assert m.coloops() == mask_of(e for e in range(m.n) if m.is_coloop(e))
        d = m.dual()
        for x in range(1 << m.n):
            assert d.closure(x) == _rank_closure(d, x), x

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(presentations(10))
    @example(from_graph(BRIDGED_EDGES))
    def test_presentations_and_duals(self, m):
        self._check(m)
        self._check(m.dual())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_minors(10))
    @example(from_graph(BRIDGED_EDGES).contract(0b100000))
    def test_minors(self, m):
        self._check(m)


@st.composite
def _padded_lists(draw):
    """A chain of cyclic flats, loops and coloops allowed, listed again
    with repeats and with random sets at their rank, which change no rank
    and are mostly not cyclic flats, in a random order."""
    n = draw(st.integers(1, 9))
    chain = [(draw(st.integers(0, n)), 0)]
    while chain[-1][0] <= n - 2 and draw(st.booleans()):
        s0, k = chain[-1]
        size = draw(st.integers(s0 + 2, n))
        chain.append((size, draw(st.integers(k + 1, k + size - s0 - 1))))
    labels = draw(st.permutations(range(n)))
    flats = [(labels[:s], k) for s, k in chain]
    m = from_cyclic_flats(n, flats)
    for x in draw(st.lists(subsets(n), max_size=4)):
        flats.append((sorted(x), m.rank(mask_of(x))))
    flats += draw(st.lists(st.sampled_from(flats), max_size=2))
    return from_cyclic_flats(n, draw(st.permutations(flats)))


class TestListRoute:
    """`catenary` solves a list's configuration from its listed cyclic
    flats and walks no flat."""

    @staticmethod
    def _check(m):
        covered, covers = [], Matroid.covers
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Matroid, "covers",
                       lambda self, f: covered.append(f) or covers(self, f))
            c = catenary(m)
        assert covered == []
        assert c == _flag_walk(m)
        core = m.delete(m.coloops())
        assert catenary(core) == _flag_walk(core)
        if m.n <= 9:
            assert c == catenary_from_g(g_brute_force(m))
        assert m.cyclic_flats() == [(f, k) for f, k in m.flats()
                                    if _rank_cyclic(m, f) == f]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_padded_lists())
    def test_padded_chains(self, m):
        self._check(m)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_cyclic_flat_lists())
    def test_accepted_cyclic_flat_lists(self, m):
        if m is not None:
            self._check(m)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_minors(10))
    def test_list_minors(self, m):
        if m._cyclic_flats_of is not None and m.copoint_sizes is None:
            self._check(m)


class TestClosureOracle:
    """Each presentation's closure against closure by rank, on every subset."""

    @staticmethod
    def _check(m):
        assert m._closure_of is not None
        for x in range(1 << m.n):
            assert m.closure(x) == _rank_closure(m, x), x

    @settings(max_examples=60, deadline=None)
    @given(presentations(10))
    def test_presentations(self, m):
        self._check(m)

    @settings(max_examples=60, deadline=None)
    @given(_minors(10))
    def test_minors(self, m):
        self._check(m)

    @settings(max_examples=200, deadline=None)
    @given(_cyclic_flat_lists())
    def test_accepted_cyclic_flat_lists(self, m):
        if m is not None:
            self._check(m)


class TestMinorsInKind:
    """A presentation that closes a set itself (a graph or a list) builds
    its minors in its own kind, so they do too; the minor of a rank
    transform, such as a dual, does neither."""

    @staticmethod
    def _check(m):
        assert m._closure_of is not None and m._minor_of is not None
        minor = m.dual().minor()
        assert minor._closure_of is None and minor._minor_of is None

    @settings(max_examples=60, deadline=None)
    @given(presentations(10))
    def test_presentations(self, m):
        self._check(m)

    @settings(max_examples=60, deadline=None)
    @given(_minors(10))
    def test_minors(self, m):
        self._check(m)


class TestCoversOracle:
    """Covers listed by a graph, or by a minor of one, against one closure
    per element outside the flat."""

    @staticmethod
    def _check(m):
        assert m._covers_of is not None
        closed = closures(m)
        flats = [f for f, _ in m.flats()]
        # listing the covers closes no set but the bottom flat
        assert closed == [0]
        for f in flats:
            assert m.covers(f) == {m.closure(f | 1 << e)
                                   for e in elements_of(m.full & ~f)}, f

    @settings(max_examples=100, deadline=None)
    @given(_graphs(10))
    def test_graphs(self, m):
        self._check(m)

    @settings(max_examples=100, deadline=None)
    @given(_minors(10, _graphs))
    def test_graph_minors(self, m):
        # a graph's minor is built as a graph, so it lists its covers too
        self._check(m)


class TestMatroidByConstruction:
    """Only `from_bases` checks exchange when it builds; every other
    presentation is a matroid by construction, checked here."""

    @settings(max_examples=60, deadline=None)
    @given(presentations(10))
    def test_presentations_pass_exchange(self, m):
        assert "bases" not in m._held
        m._check_exchange()

    @settings(max_examples=200, deadline=None)
    @given(_cyclic_flat_lists())
    def test_accepted_cyclic_flat_lists_pass_exchange(self, m):
        if m is not None:
            m._check_exchange()

    @pytest.mark.parametrize("build", [
        lambda: from_graph(K4_EDGES),
        lambda: load_data("fig1-m"),
        lambda: dowling3([[0, 1], [1, 0]]),
        lambda: from_cyclic_flats(6, [([], 0), ([0, 1, 2], 1),
                                      ([0, 1, 2, 3, 4], 2), (range(6), 3)]),
    ], ids=["graph", "paving", "dowling", "cyclic flats"])
    def test_catenary_builds_no_bases(self, build):
        m = build()
        catenary(m)
        assert "bases" not in m._held

    def test_bases_are_built_once(self):
        m = from_graph(K4_EDGES)
        assert m.bases is m.bases and len(m.bases) == 16

    def test_no_builder_takes_validate(self):
        # from_bases checks every family; no switch turns the check off
        for build in (lambda: from_bases(4, [0b0011, 0b1100], validate=False),
                      lambda: uniform(2, 4, validate=True),
                      lambda: from_graph(K4_EDGES, validate=True),
                      lambda: dowling3([[0]], validate=True)):
            with pytest.raises(TypeError):
                build()


def _pairwise_exchange(n, bases):
    """The exchange check as a scan over basis pairs (the reference)."""
    full = (1 << n) - 1
    for b1 in bases:
        outside = [1 << y for y in elements_of(full & ~b1)]
        needs = []
        for x in elements_of(b1):
            stub = b1 & ~(1 << x)
            need = 1 << x
            for y in outside:
                if stub | y in bases:
                    need |= y
            needs.append((x, need))
        for b2 in bases:
            for x, need in needs:
                if not b2 & need:
                    raise PresentationError(
                        f"basis-exchange fails for {elements_of(b1)}, "
                        f"{elements_of(b2)} at element {x}")


@st.composite
def _basis_families(draw):
    """A matroid's bases with up to two r-subsets toggled, or r-subsets at
    random, as a list of masks in a drawn order."""
    if draw(st.booleans()):
        m = draw(presentations(7))
        n, r, family = m.n, m.r, set(m.bases)
        pool = [mask_of(c) for c in itertools.combinations(range(n), r)]
        for x in draw(st.lists(st.sampled_from(pool), max_size=2)):
            family ^= {x}
    else:
        n = draw(st.integers(1, 7))
        r = draw(st.integers(0, n))
        pool = [mask_of(c) for c in itertools.combinations(range(n), r)]
        family = set(draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=12)))
    return n, draw(st.permutations(sorted(family)))


def _outcome(check):
    try:
        check()
    except PresentationError as exc:
        return type(exc), str(exc)
    return None


class TestExchangeCheck:
    @settings(max_examples=400, deadline=None)
    @given(_basis_families())
    def test_column_check_is_the_pairwise_scan(self, drawn):
        n, family = drawn
        if family:
            assert _outcome(lambda: from_bases(n, family)) \
                == _outcome(lambda: _pairwise_exchange(n, frozenset(family)))

    @pytest.mark.parametrize("n, family, message", [
        (6, [(0, 1, 2), (0, 1, 3), (3, 4, 5), (2, 4, 5), (0, 4, 5)],
         "basis-exchange fails for [0, 1, 2], [0, 4, 5] at element 1"),
        (7, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 6), (5, 6, 0),
             (1, 4, 6), (2, 3, 5)],
         "basis-exchange fails for [0, 5, 6], [0, 1, 2] at element 5"),
    ])
    def test_pinned_failure_message(self, n, family, message):
        # several stubs fail; the message names the first b1 in the order
        # of the bases, then its first missed b2, then the first x
        with pytest.raises(PresentationError) as exc:
            from_bases(n, family)
        assert str(exc.value) == message


def _independent(bases, x):
    return any(x & ~b == 0 for b in bases)


def _spanning(bases, x):
    return any(b & ~x == 0 for b in bases)


class TestRankTransforms:
    """Each derived matroid's rank transform against the scan of the basis
    family its textbook definition gives, built from the parents' bases."""

    @staticmethod
    def _agrees(m, family):
        family = frozenset(family)
        scan = _basis_scan(family)
        for x in range(1 << m.n):
            assert m.rank(x) == scan(x), x
        assert m.bases == family

    @settings(max_examples=60, deadline=None)
    @given(presentations(8))
    def test_unary(self, m):
        n, r, full, bases = m.n, m.r, m.full, m.bases
        new = 1 << n
        self._agrees(m.dual(), {full & ~b for b in bases})
        self._agrees(m.add_coloop(), {b | new for b in bases})
        self._agrees(m.add_loop(), bases)
        self._agrees(m.free_extension(), bases | {
            b & ~(1 << e) | new for b in bases for e in elements_of(b)})
        self._agrees(m.free_coextension(), {b | new for b in bases} | {
            b | 1 << e for b in bases for e in elements_of(full & ~b)})
        if r >= 1:
            self._agrees(m.truncate(), {
                b & ~(1 << e) for b in bases for e in elements_of(b)})
        if r < n:
            self._agrees(m.lift(), {
                b | 1 << e for b in bases for e in elements_of(full & ~b)})
        # circuit-hyperplanes: dependent r-sets whose (r-1)-subsets are
        # independent and whose one-element extensions span
        for x in map(mask_of, itertools.combinations(range(n), r)):
            if x in bases or not all(
                    _independent(bases, x & ~(1 << e)) for e in elements_of(x)):
                continue
            if all(_spanning(bases, x | 1 << e) for e in elements_of(full & ~x)):
                self._agrees(m.relax(x), bases | {x})

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(presentations(8), _minors(8)), st.data())
    def test_minor(self, m, data):
        roles = data.draw(st.lists(st.sampled_from("kcd"),
                                   min_size=m.n, max_size=m.n))
        contract = mask_of(e for e, t in enumerate(roles) if t == "c")
        delete = mask_of(e for e, t in enumerate(roles) if t == "d")
        keep = [e for e, t in enumerate(roles) if t == "k"]
        # M / C: bases meeting C in a basis of C, less C; then \ D: the
        # largest traces outside D
        most = max((b & contract).bit_count() for b in m.bases)
        contracted = {b & ~contract for b in m.bases
                      if (b & contract).bit_count() == most}
        traces = {b & ~delete for b in contracted}
        top = max(b.bit_count() for b in traces)
        family = {b for b in traces if b.bit_count() == top}
        relabel = {e: i for i, e in enumerate(keep)}
        self._agrees(m.minor(contract, delete), {
            mask_of(relabel[e] for e in elements_of(b)) for b in family})

    @settings(max_examples=60, deadline=None)
    @given(presentations(6), presentations(4))
    def test_binary(self, m1, m2):
        n1, b1s, b2s = m1.n, m1.bases, m2.bases
        self._agrees(m1.direct_sum(m2), {b1 | b2 << n1 for b1 in b1s
                                          for b2 in b2s})
        self._agrees(m1.free_product(m2), {
            b for b in map(mask_of, itertools.combinations(
                range(n1 + m2.n), m1.r + m2.r))
            if _independent(b1s, b & m1.full) and _spanning(b2s, b >> n1)})
