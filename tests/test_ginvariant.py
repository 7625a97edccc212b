"""Sequence/composition combinatorics, gamma basis, catenary data, oracles."""

import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcat import (CatenaryData, ExactnessError, GInvariant, TuttePolynomial,
                  basis_count, cat_direct_sum, catenary, catenary_from_g,
                  comp_to_seq, compositions, detect_free_product, dominates,
                  dowling3, from_cyclic_flats, from_graph,
                  from_paving_copoints, g_brute_force, g_from_catenary,
                  g_invariant, g_shuffle, gamma_expand, gamma_one,
                  paving_catenary, pmd_catenary, seq_to_comp,
                  tutte_brute_force, tutte_from_g, uniform)
from gcat.ginvariant import (_expand_shifted, _flag_walk, gamma_coeffs,
                             invariant_catenary, invariant_copies)
from gcat.matroid import Matroid
from gcat.serialization import ginvariant_to_json
from conftest import (FANO_LINES, K4_EDGES, closures, load_data,
                      presentations)


@st.composite
def _bridged_graphs(draw):
    """Two random blocks joined by a bridge, with pendant edges hung off
    them, the edges listed in a random order so the coloops interleave."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    edges = draw(st.lists(st.tuples(st.integers(0, a - 1),
                                    st.integers(0, a - 1)), max_size=4))
    edges += draw(st.lists(st.tuples(st.integers(a, a + b - 1),
                                     st.integers(a, a + b - 1)), max_size=4))
    edges.append((draw(st.integers(0, a - 1)), draw(st.integers(a, a + b - 1))))
    for v in range(a + b, a + b + draw(st.integers(0, 3))):
        edges.append((draw(st.integers(0, v - 1)), v))
    return from_graph(draw(st.permutations(edges)))


@st.composite
def _with_coloops(draw):
    """A presentation (n <= 8) with 1-4 coloops added, or a bridged graph."""
    how = draw(st.sampled_from(["add_coloop", "left", "right", "bridges"]))
    if how == "bridges":
        return draw(_bridged_graphs())
    m = draw(presentations(8))
    k = draw(st.integers(1, 4))
    if how == "left":
        return uniform(k, k).direct_sum(m)
    if how == "right":
        return m.direct_sum(uniform(k, k))
    for _ in range(k):
        m = m.add_coloop()
    return m


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


class TestBijection:
    def test_examples(self):
        assert seq_to_comp("110100") == (0, 1, 2, 3)
        assert comp_to_seq((0, 1, 1, 4)) == "111000"
        assert seq_to_comp("0011") == (2, 1, 1)

    @given(st.lists(st.sampled_from("01"), max_size=12).map("".join))
    def test_round_trip(self, seq):
        assert comp_to_seq(seq_to_comp(seq)) == seq

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            seq_to_comp("012")
        with pytest.raises(ValueError):
            comp_to_seq((0, 0, 1))


def _comps(n, r):
    return list(compositions(n, r))


class TestDominance:
    def test_examples(self):
        assert dominates((0, 1, 1, 4), (0, 1, 2, 3))
        assert not dominates((0, 1, 2, 3), (0, 1, 1, 4))
        assert dominates((0, 1, 2, 3), (0, 1, 2, 3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dominates((0, 1), (0, 1, 1))

    @given(st.integers(1, 7), st.data())
    def test_partial_order(self, n, data):
        r = data.draw(st.integers(0, n))
        comps = _comps(n, r)
        a = data.draw(st.sampled_from(comps))
        b = data.draw(st.sampled_from(comps))
        c = data.draw(st.sampled_from(comps))
        assert dominates(a, a)
        if dominates(a, b) and dominates(b, a):
            assert a == b
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    def test_extremes(self):
        # maximum 1^r 0^(n-r), minimum 0^(n-r) 1^r
        top = seq_to_comp("110")
        bot = seq_to_comp("011")
        for comp in _comps(3, 2):
            assert dominates(top, comp)
            assert dominates(comp, bot)


class TestGamma:
    def test_paper_displays(self):
        assert gamma_expand((0, 1, 1, 4)).coeffs == {"111000": 24}
        assert gamma_expand((0, 1, 2, 3)).coeffs == {
            "111000": 36, "110100": 12}
        assert gamma_expand((0, 1, 3, 2)).coeffs == {
            "111000": 36, "110100": 24, "110010": 12}
        assert gamma_expand((0, 1, 4, 1)).coeffs == {
            "111000": 24, "110100": 24, "110010": 24, "110001": 24}

    def test_small_case_vs_oracle(self):
        # gamma(0,1,2) must be 1/3 of the U(2,3) invariant (3 equal flags)
        assert gamma_expand((0, 1, 2)).coeffs == {"110": 2}
        assert g_brute_force(uniform(2, 3)).coeffs == {"110": 6}

    @given(st.integers(1, 7), st.data())
    def test_support_is_dominance_upset(self, n, data):
        r = data.draw(st.integers(0, n))
        a = data.draw(st.sampled_from(_comps(n, r)))
        coeffs = gamma_expand(a).coeffs
        for b in _comps(n, r):
            key = comp_to_seq(b)
            if dominates(b, a):
                assert coeffs.get(key, 0) > 0
            else:
                assert key not in coeffs

    def test_diagonal_coefficient(self):
        for a in _comps(6, 3):
            c = gamma_expand(a).coeffs[comp_to_seq(a)]
            expect = math.factorial(a[0]) * math.prod(
                x * math.factorial(x - 1) for x in a[1:])
            assert c == expect

    def test_top_coefficient_positive(self):
        for a in _comps(6, 2):
            top = comp_to_seq((0, 1, 5))
            assert gamma_expand(a).coeffs[top] > 0


def _expansion(a):
    """gamma(a) by the definition: every b of the dominance up-set of a,
    listed depth-first, with each falling power multiplied out afresh."""
    def falling(t, k):
        out = 1
        for i in range(k):
            out *= t - i
        return out

    r, n = len(a) - 1, sum(a)
    pa = list(itertools.accumulate(a))
    ups = []

    def rec(idx, used, parts):
        if idx == r:
            ups.append(tuple(parts) + (n - used,))
            return
        for val in range(0 if idx == 0 else 1, pa[idx] - used + 1):
            rec(idx + 1, used + val, parts + [val])

    rec(0, 0, [])
    out = {}
    for b in ups:
        pb = list(itertools.accumulate(b))
        coeff = falling(a[0], b[0])
        for j in range(1, r + 1):
            coeff *= a[j] * falling(a[j] - 1 + pa[j - 1] - pb[j - 1], b[j] - 1)
        out[comp_to_seq(b)] = coeff
    return out


class TestGammaKernels:
    """The prefix walk and the flag-ordering product against the
    definition, on every composition with n <= 10."""

    ALL = [a for n in range(11) for r in range(n + 1) for a in _comps(n, r)]

    def test_walk_is_the_expansion(self):
        assert len(self.ALL) == 2 ** 11 - 1
        for a in self.ALL:
            got = gamma_coeffs(a)
            assert list(got.items()) == list(_expansion(a).items()), a

    def test_gamma_one_is_the_coefficient_sum(self):
        for a in self.ALL:
            assert gamma_one(a) == sum(gamma_coeffs(a).values()), a


class TestCatenary:
    def test_k4(self):
        c = catenary(from_graph(K4_EDGES))
        assert c.counts == {(0, 1, 1, 4): 6, (0, 1, 2, 3): 12}

    def test_fig2_m1_table(self):
        c = catenary(load_data("fig2-m1"))
        assert c.counts == {(0, 1, 1, 5): 4, (0, 1, 2, 4): 7,
                            (0, 1, 3, 3): 4, (0, 2, 1, 4): 1, (0, 2, 2, 3): 2}

    def test_u24(self):
        assert catenary(uniform(2, 4)).counts == {(0, 1, 3): 4}

    def test_k7_spanning_trees(self):
        k7 = [(a, b) for a in range(7) for b in range(a + 1, 7)]
        assert basis_count(catenary(from_graph(k7))) == 7 ** 5  # Cayley

    def test_k8_spanning_trees(self):
        # n = 28, r = 7: C(28, 7) = 1,184,040 edge subsets; none is built
        k8 = [(a, b) for a in range(8) for b in range(a + 1, 8)]
        m = from_graph(k8)
        closed = closures(m)
        assert basis_count(catenary(m)) == 8 ** 6  # Cayley
        assert "bases" not in m._held
        # the graph lists each flat's covers by one union-find: only the
        # 28 coloop tests rank, and only the bottom flat is closed
        assert len(m._rank_cache) <= 40
        assert closed == [0]

    def test_doubled_edge_on_a_long_path(self):
        # two parallel edges and 1000 bridges: the 2 of the pair's one key
        # (0, 2) sits at any of 1001 places among the bridges' 1000 ones,
        # each after the 1000! orders of the bridges; 1001 parts are too many
        # for a shuffle that recurses once per part
        q = 1000
        m = from_graph([(0, 1), (0, 1)] + [(i, i + 1) for i in range(1, q + 1)])
        want = {(0, *(1,) * i, 2, *(1,) * (q - i)): math.factorial(q)
                for i in range(q + 1)}
        assert catenary(m).counts == want

    def test_u516_is_a_design(self):
        assert _flag_walk(uniform(5, 16)) == pmd_catenary([0, 1, 2, 3, 4, 16])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(presentations(10))
    def test_census_is_the_flag_walk(self, m):
        # uniform, paving and Dowling draws read their copoint census; the
        # walk is the oracle
        assert catenary(m) == _flag_walk(m)
        if m.copoint_sizes is not None:
            walked = Counter(c.bit_count() for c in m.copoints())
            assert {k: f for k, f in m.copoint_sizes.items() if f} == walked

    @pytest.mark.parametrize("m, census", [
        (uniform(0, 4), None), (uniform(1, 4), None),
        (uniform(4, 4), {3: 4}), (uniform(2, 2), {1: 2}),
        (from_paving_copoints(4, 4, []), {3: 4}),
        (from_paving_copoints(4, 1, [[0, 1]]), None),
        (from_paving_copoints(7, 3, FANO_LINES), {3: 7}),
        (from_paving_copoints(6, 3, [[0, 1, 2, 3]]), {4: 1, 2: 9}),
    ], ids=["U(0,4)", "U(1,4)", "U(4,4)", "U(2,2)", "paving r=n",
            "paving r=1", "Fano", "one 4-point line"])
    def test_census_edge_shapes(self, m, census):
        assert catenary(m) == _flag_walk(m)
        sizes = m.copoint_sizes
        assert census == (None if sizes is None else
                          {k: f for k, f in sizes.items() if f})

    def test_census_skips_the_walk(self):
        m = uniform(6, 40)
        closed = closures(m)
        assert catenary(m).counts == {
            (0, 1, 1, 1, 1, 1, 35): math.factorial(40) // math.factorial(35)}
        assert "flats" not in m._held
        assert closed == [] and m._rank_cache == {0: 0}

    @pytest.mark.parametrize("m", [
        uniform(3, 6), from_paving_copoints(7, 3, FANO_LINES),
        dowling3([[0, 1], [1, 0]])], ids=["U(3,6)", "Fano", "Dowling Z2"])
    def test_derived_matroids_carry_no_census(self, m):
        derived = [m.dual(), m.truncate(), m.lift(), m.delete(1),
                   m.contract(1), m.restrict(m.full), m.minor(1, 2),
                   m.free_extension(), m.free_coextension(), m.add_loop(),
                   m.add_coloop(), m.direct_sum(m), m.free_product(m)]
        for d in derived:
            assert d.copoint_sizes is None

    @settings(max_examples=40, deadline=None)
    @given(_with_coloops())
    def test_coloop_split_is_the_flag_walk(self, m):
        assert m.coloops()
        c = catenary(m)
        assert c == _flag_walk(m)
        if m.n <= 9:
            assert c == catenary_from_g(g_brute_force(m))

    @settings(max_examples=40, deadline=None)
    @given(_bridged_graphs())
    def test_coloop_split_builds_at_most_one_minor(self, m):
        # the deletion of the coloops is the one minor built, and none is
        # built for a forest, all coloops
        built, minor = [], Matroid.minor
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Matroid, "minor", lambda self, *args, **kwargs: (
                built.append(minor(self, *args, **kwargs)) or built[-1]))
            catenary(m)
        assert len(built) == (m.coloops() != m.full)
        assert all(d.n == m.n - m.coloops().bit_count() for d in built)

    @staticmethod
    def _check_either_side(m):
        # a core with n - r <= r - 2 is walked as its dual and solved back
        c = catenary(m)
        assert c == _flag_walk(m)
        if m.n <= 9:
            assert c == catenary_from_g(g_brute_force(m))

    @settings(max_examples=60, deadline=None)
    @given(presentations(10))
    # a nested list of corank 2 and rank 6, walked as its dual
    @example(from_cyclic_flats(8, [([], 0), ([0, 1, 2], 2), (range(8), 6)]))
    def test_presentations_give_the_flag_walk(self, m):
        self._check_either_side(m)

    @settings(max_examples=60, deadline=None)
    @given(_small_corank_graphs())
    def test_small_corank_graphs_give_the_flag_walk(self, m):
        self._check_either_side(m)

    @pytest.mark.parametrize("m", [
        uniform(0, 3),  # rank 0: the bottom flat is the top, key {3}
        uniform(2, 4).add_loop().add_loop(),  # a_0 = 2
        uniform(3, 3),  # every flag steps by one
        from_graph([(0, 0), (0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4)]),
    ], ids=["U(0,3)", "U(2,4)+2 loops", "U(3,3)", "loops and bridges"])
    def test_flag_walk_decodes_partial_sums(self, m):
        assert _flag_walk(m) == catenary_from_g(g_brute_force(m))

    def test_coloops_are_not_walked(self):
        # K4 with a 40-edge path hung off a vertex: 40 coloops, which would
        # multiply the 15 flats of K4 into about 2^40 for the flag walk
        path = [(3 + i, 4 + i) for i in range(40)]
        m = from_graph(K4_EDGES + path)
        t0 = time.perf_counter()
        c = catenary(m)
        assert time.perf_counter() - t0 < 1.0
        assert (m.n, m.r) == (46, 43)
        assert basis_count(c) == 16
        assert c.total() == 18 * math.factorial(40) * math.comb(43, 3)

    def test_rank0_and_empty(self):
        assert catenary(uniform(0, 2)).counts == {(2,): 1}
        assert catenary(uniform(0, 0)).counts == {(0,): 1}
        assert g_invariant(uniform(0, 2)).coeffs == {"00": 2}
        assert g_invariant(uniform(0, 0)).coeffs == {"": 1}


class TestConversions:
    def test_k4_both_ways(self):
        c = CatenaryData(6, 3, {(0, 1, 1, 4): 6, (0, 1, 2, 3): 12})
        g = g_from_catenary(c)
        assert g.coeffs == {"111000": 576, "110100": 144}
        # a fresh copy holds no coordinates, so this is the solve
        assert catenary_from_g(GInvariant(g.n, g.r, g.coeffs)) == c

    def test_sum_example(self):
        c = CatenaryData(3, 2, {(0, 1, 2): 1, (0, 2, 1): 1})
        assert g_from_catenary(c).coeffs == {"110": 4, "101": 2}

    def test_u23_inverse(self):
        g = GInvariant(3, 2, {"110": 6})
        assert catenary_from_g(g).counts == {(0, 1, 2): 3}

    def test_random_round_trip(self):
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(1, 10)
            r = rng.randint(0, n)
            comps = _comps(n, r)
            counts = {}
            for comp in rng.sample(comps, k=min(len(comps), rng.randint(1, 5))):
                counts[comp] = rng.randint(0, 50)
            c = CatenaryData(n, r, counts)
            g = g_from_catenary(c)
            assert catenary_from_g(GInvariant(n, r, g.coeffs)) == c

    @staticmethod
    def _scan(g):
        # back-substitution over all C(n, r) compositions, sorted lowest in
        # dominance first and, within a height, in compositions() order
        residual = dict(g.coeffs)
        counts = {}
        order = sorted(compositions(g.n, g.r),
                       key=lambda comp: sum(itertools.accumulate(comp)),
                       reverse=True)
        for a in order:
            key = comp_to_seq(a)
            num = residual.get(key, 0)
            if num == 0:
                continue
            coeffs = gamma_expand(a).coeffs
            den = coeffs[key]
            if num % den:
                raise ExactnessError(
                    f"gamma coordinate at {a} is {num}/{den}: not an integer")
            nu = num // den
            if nu < 0:
                raise ExactnessError(
                    f"gamma coordinate at {a} is negative: {nu}")
            counts[a] = nu
            for sym, coeff in coeffs.items():
                residual[sym] = residual.get(sym, 0) - nu * coeff
        assert not any(residual.values())
        return CatenaryData(g.n, g.r, counts)

    @staticmethod
    def _outcome(solve, g):
        try:
            return solve(g)
        except ExactnessError as exc:
            return type(exc), str(exc)

    def test_heap_solve_is_the_full_scan(self, corpus, cache):
        # corpus invariants, then the same vectors with one or two symbols
        # moved by +-k: the same counts, or the same first failing coordinate
        rng = random.Random(29)
        failures = 0
        for name, m in corpus:
            g = cache.g(name, m)
            fresh = GInvariant(g.n, g.r, g.coeffs)
            assert catenary_from_g(fresh) == self._scan(g), name
            by_height = {}
            for a in compositions(g.n, g.r):
                by_height.setdefault(sum(itertools.accumulate(a)), []) \
                    .append(comp_to_seq(a))
            symbols = [s for level in by_height.values() for s in level]
            for _ in range(12):
                first = rng.choice(symbols)
                mode = rng.randrange(3)
                if mode == 0:
                    picks = [first]
                elif mode == 1:
                    # a tie in height: which one fails first is the order
                    level = by_height[sum(itertools.accumulate(
                        seq_to_comp(first)))]
                    picks = rng.sample(level, min(2, len(level)))
                else:
                    picks = [first, rng.choice(symbols)]
                coeffs = dict(g.coeffs)
                for s in picks:
                    den = gamma_expand(seq_to_comp(s))[s]
                    k = rng.choice([1, 2, den, 3 * den])
                    coeffs[s] = coeffs.get(s, 0) + rng.choice((-k, k))
                h = GInvariant(g.n, g.r, coeffs)
                got = self._outcome(catenary_from_g, h)
                assert got == self._outcome(self._scan, h), (name, picks)
                failures += isinstance(got, tuple)
        assert failures > 500

    def test_non_matroid_rejected(self):
        with pytest.raises(ExactnessError):
            catenary_from_g(GInvariant(3, 2, {"110": 1}))
        with pytest.raises(ExactnessError):
            # integral but negative gamma coordinates
            g = g_from_catenary(CatenaryData(3, 2, {(0, 1, 2): 1}))
            bad = GInvariant(3, 2, {"110": g["110"] - 2, "101": 2})
            catenary_from_g(bad)


class TestInvariantCatenary:
    def test_accepts_the_corpus(self, corpus, cache):
        for name, m in corpus:
            g = cache.g(name, m)
            assert invariant_copies(g) == 1, name
            fresh = GInvariant(g.n, g.r, g.coeffs)
            assert invariant_catenary(fresh) == cache.cat(name, m), name

    def test_copies_none_accepts_a_sum_of_invariants(self, named, cache):
        # fig2-M1 and fig2-M2 share the shape (n, r); their sum totals 2 n!
        names = ("fig2-M1", "fig2-M2")
        g1, g2 = (cache.g(k, named[k]) for k in names)
        c1, c2 = (cache.cat(k, named[k]) for k in names)
        both = GInvariant(g1.n, g1.r, Counter(g1.coeffs) + Counter(g2.coeffs))
        assert invariant_copies(both, None) == 2
        assert invariant_catenary(both, None) == CatenaryData(
            g1.n, g1.r, Counter(c1.counts) + Counter(c2.counts))
        assert invariant_catenary(both, 2) == invariant_catenary(both, None)
        with pytest.raises(ExactnessError, match=f"not {g1.n}!: not an inv"):
            invariant_catenary(both)

    # an empty vector sums no invariant; a third of G(U(2,3)) solves to one
    # flag but totals 2, no multiple of 3!; the last totals 2! but its gamma
    # coordinate at (1, 1) is negative
    @pytest.mark.parametrize("g", [
        GInvariant(2, 1, {}), GInvariant(3, 2, {"110": 2}),
        GInvariant(2, 1, {"01": 2})],
        ids=["empty", "wrong-total", "negative-gamma"])
    @pytest.mark.parametrize("copies", [1, None])
    def test_rejects(self, g, copies):
        with pytest.raises(ExactnessError):
            invariant_catenary(g, copies)


def _lookups():
    info = gamma_coeffs.cache_info()
    return info.hits + info.misses


class TestHeldCoordinates:
    """A G built from its catenary data, or solved once, holds them."""

    def test_held_data_need_no_solve(self):
        c1, c2 = catenary(from_graph(K4_EDGES)), catenary(uniform(2, 3))
        k4, u23 = g_from_catenary(c1), g_from_catenary(c2)
        before = _lookups()
        assert catenary_from_g(k4) is c1 and catenary_from_g(u23) is c2
        assert not detect_free_product(k4).is_proper
        assert _lookups() == before
        # the shuffle expands its output's keys and solves nothing
        keys = len(cat_direct_sum(c1, c2).counts)
        before = _lookups()
        g_shuffle(k4, u23)
        assert _lookups() == before + keys
        # a proper free product expands its two parts and solves nothing
        prod = g_invariant(uniform(1, 2).free_product(uniform(2, 3)))
        before = _lookups()
        rep = detect_free_product(prod)
        spent = _lookups() - before
        assert rep.is_proper
        assert spent == sum(len(catenary_from_g(h).counts)
                            for _, _, left, right in rep.factors
                            for h in (left, right))
        # a fresh copy holds nothing: the detection solves it, once
        fresh = GInvariant(prod.n, prod.r, prod.coeffs)
        before = _lookups()
        assert detect_free_product(fresh) == rep
        assert _lookups() > before + spent
        before = _lookups()
        assert catenary_from_g(fresh) == catenary_from_g(prod)
        assert _lookups() == before

    def test_negative_counts_are_not_held(self):
        # integral gamma coordinates, one of them negative
        c = CatenaryData(3, 2, {(0, 1, 2): 2, (0, 2, 1): -1})
        g = g_from_catenary(c)
        fresh = GInvariant(g.n, g.r, g.coeffs)
        errors = []
        for h in (g, fresh):
            with pytest.raises(ExactnessError, match="negative") as exc:
                catenary_from_g(h)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_holding_changes_no_output(self):
        g = g_invariant(from_graph(K4_EDGES))
        fresh = GInvariant(g.n, g.r, g.coeffs)
        assert g == fresh and hash(g) == hash(fresh)
        assert repr(g) == repr(fresh)
        assert ginvariant_to_json(g) == ginvariant_to_json(fresh)
        assert {g, fresh} == {g}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(presentations(10))
    def test_held_equals_a_fresh_solve(self, m):
        g = g_invariant(m)
        assert catenary_from_g(g) == catenary_from_g(
            GInvariant(g.n, g.r, g.coeffs))

    @pytest.mark.parametrize("n, r, key", [(3, 1, "1a0"), (3, 1, "1 0"),
                                           (2, 0, "-0"), (2, 1, "12")])
    def test_symbols_are_0_1_strings(self, n, r, key):
        # "1a0" was read as "100", until g_dual called it no (3,2)-sequence;
        # the bad symbol is named beside a good one too
        good = "1" * r + "0" * (n - r)
        for coeffs in ({key: math.factorial(n)}, {good: 1, key: 1}):
            with pytest.raises(ValueError, match=repr(key)):
                GInvariant(n, r, coeffs)


class TestOracle:
    def test_brute_force_examples(self):
        assert g_brute_force(uniform(2, 3)).coeffs == {"110": 6}
        fig1 = load_data("fig1-m")
        assert g_brute_force(fig1).coeffs == {"111000": 648, "110100": 72}
        assert g_brute_force(uniform(0, 2)).coeffs == {"00": 2}

    def test_subset_count_is_the_permutation_walk(self, corpus):
        for name, m in corpus:
            if m.n > 7:
                continue
            words = Counter()
            for perm in itertools.permutations(range(m.n)):
                mask, prev, chars = 0, 0, []
                for e in perm:
                    mask |= 1 << e
                    cur = m.rank(mask)
                    chars.append("1" if cur > prev else "0")
                    prev = cur
                words["".join(chars)] += 1
            assert g_brute_force(m) == GInvariant(m.n, m.r, words), name

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            g_brute_force(uniform(2, 6), limit=5)

    def test_corpus_oracle_equality(self, corpus, cache):
        for name, m in corpus:
            assert cache.g(name, m) == cache.g_bf(name, m), name

    def test_oracle_at_the_default_cap(self):
        # n = 9 is the largest size the default oracle limit admits
        from conftest import PRISM_EDGES
        prism = from_graph(PRISM_EDGES)
        assert (prism.n, prism.r) == (9, 5)
        g = g_invariant(prism)
        assert g == g_brute_force(prism)
        assert tutte_from_g(g) == tutte_brute_force(prism)
        assert tutte_from_g(g).evaluate(1, 1) == 75  # prism spanning trees

    def test_coefficient_sum_and_top(self, corpus, cache):
        for name, m in corpus:
            g = cache.g(name, m)
            assert g.total() == math.factorial(m.n), name
            top = "1" * m.r + "0" * (m.n - m.r)
            assert g[top] == math.factorial(m.r) * math.factorial(m.n - m.r) \
                * len(m.bases), name


class TestTutte:
    def test_u23(self):
        t = tutte_from_g(g_invariant(uniform(2, 3)))
        assert t.terms == {(2, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_u12(self):
        t = tutte_from_g(GInvariant(2, 1, {"10": 2}))
        assert t.terms == {(1, 0): 1, (0, 1): 1}

    def test_single_elements(self):
        assert tutte_brute_force(uniform(1, 1)).terms == {(1, 0): 1}
        assert tutte_brute_force(uniform(0, 1)).terms == {(0, 1): 1}

    def test_k4_basis_count_at_11(self):
        t = tutte_brute_force(from_graph(K4_EDGES))
        assert t.evaluate(1, 1) == 16

    def test_k4_whole_polynomial(self):
        # x^3 + 3x^2 + 2x + 4xy + 2y + 3y^2 + y^3
        expect = {(3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4, (0, 1): 2,
                  (0, 2): 3, (0, 3): 1}
        k4 = from_graph(K4_EDGES)
        assert tutte_from_g(g_invariant(k4)).terms == expect
        assert tutte_brute_force(k4).terms == expect

    def test_fig2_pair_same_tutte(self):
        m1, m2 = load_data("fig2-m1"), load_data("fig2-m2")
        t1 = tutte_from_g(g_invariant(m1))
        t2 = tutte_from_g(g_invariant(m2))
        assert t1 == t2
        assert catenary(m1) != catenary(m2)

    def test_corpus_tutte_equality(self, corpus, cache):
        for name, m in corpus:
            assert tutte_from_g(cache.g(name, m)) \
                == tutte_brute_force(m), name

    def test_non_matroid_rejected(self):
        with pytest.raises(ExactnessError):
            tutte_from_g(GInvariant(3, 2, {"110": 1}))

    def test_non_integral_coefficient_message(self):
        # the reduced fraction coefficient / n! names the first bad term
        for g, msg in [
                (GInvariant(3, 2, {"110": 1}), "at (1, 0) is 1/6"),
                (GInvariant(4, 2, {"1100": 5, "1010": -3}),
                 "at (1, 0) is 11/12")]:
            with pytest.raises(ExactnessError) as exc:
                tutte_from_g(g)
            assert str(exc.value) == f"Tutte coefficient {msg}: not an integer"


def _subset_sum(m, x, y):
    """The corank-nullity sum at (x, y), one rank call per subset."""
    total = 0
    for mask in range(1 << m.n):
        rk = m.rank(mask)
        total += (x - 1) ** (m.r - rk) * (y - 1) ** (mask.bit_count() - rk)
    return total


GRID = [(x, y) for x in (-2, 0, 1, 3) for y in (-1, 0, 2, 5)]


class TestTutteOracles:
    """Oracles that share no code with the shifted expansion."""

    def test_expansion_is_the_shifted_sum(self):
        rng = random.Random(41)
        # a single row and a single column are the a = 0 and b = 0 cases
        shapes = [(1, 1), (1, 6), (6, 1), (3, 4), (5, 5)]
        for _ in range(60):
            wide, tall = shapes[rng.randrange(len(shapes))]
            grid = [[rng.choice((0, 0, rng.randint(-9, 9), 10 ** 20))
                     for _ in range(tall)] for _ in range(wide)]
            t = TuttePolynomial(_expand_shifted(grid))
            for x, y in GRID:
                want = sum(w * (x - 1) ** a * (y - 1) ** b
                           for a, row in enumerate(grid)
                           for b, w in enumerate(row))
                assert t.evaluate(x, y) == want, (grid, x, y)

    def test_expansion_keys_go_by_y_then_x(self):
        # tutte_from_g names the first term n! does not divide in this order
        terms = _expand_shifted([[0, 1], [1, 0], [2, 0]])
        assert terms == {(1, 0): -3, (2, 0): 2, (0, 1): 1}
        assert list(terms) == sorted(terms, key=lambda ij: ij[::-1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(presentations(8))
    def test_specialization_is_the_subset_sum(self, m):
        t = tutte_from_g(g_invariant(m))
        for x, y in GRID:
            assert t.evaluate(x, y) == _subset_sum(m, x, y), (m, x, y)

    @pytest.mark.parametrize("m", [
        uniform(0, 0), uniform(0, 4), uniform(4, 4), uniform(2, 5),
        uniform(1, 1).direct_sum(uniform(0, 2)),
        from_graph([(0, 0), (0, 1), (0, 1), (1, 2), (2, 2)]),
    ], ids=["U(0,0)", "U(0,4)", "U(4,4)", "U(2,5)", "coloop+2 loops",
            "graph with loops"])
    def test_edge_shapes(self, m):
        g = g_invariant(m)
        t = tutte_from_g(g)
        assert t == tutte_brute_force(m)
        assert tutte_from_g(GInvariant(g.n, g.r, g.coeffs)) == t
        for x, y in GRID:
            assert t.evaluate(x, y) == _subset_sum(m, x, y)

    def test_closed_forms(self):
        assert tutte_from_g(GInvariant(0, 0, {"": 1})).terms == {(0, 0): 1}
        assert tutte_from_g(g_invariant(uniform(0, 5))).terms == {(0, 5): 1}
        assert tutte_from_g(g_invariant(uniform(5, 5))).terms == {(5, 0): 1}
        assert tutte_from_g(GInvariant(3, 1, {})).terms == {}


class TestBasisCount:
    def test_examples(self):
        assert basis_count(catenary(from_graph(K4_EDGES))) == 16
        assert basis_count(catenary(uniform(2, 3))) == 3
        # exhaustive: 3-subsets of the fig-1 ground set avoiding both lines
        fig1 = load_data("fig1-m")
        expect = sum(1 for c in itertools.combinations(range(6), 3)
                     if set(c) != {0, 1, 2} and set(c) != {3, 4, 5})
        assert expect == 18
        assert basis_count(catenary(fig1)) == expect

    def test_non_integral_rejected(self):
        with pytest.raises(ExactnessError):
            basis_count(CatenaryData(3, 2, {(1, 1, 1): 1}))


class TestClosedForms:
    def test_pmd_examples(self):
        assert pmd_catenary([0, 1, 3, 7]).counts == {(0, 1, 2, 4): 21}
        assert pmd_catenary([0, 1, 2, 3]).counts == {(0, 1, 1, 1): 6}
        assert pmd_catenary([0, 1, 3, 9]).counts == {(0, 1, 2, 6): 36}

    def test_pmd_matches_fano(self):
        from conftest import fano
        assert pmd_catenary([0, 1, 3, 7]) == _flag_walk(fano())

    def test_pmd_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            pmd_catenary([0, 2, 1])
        with pytest.raises(ExactnessError,
                           match="^design parameters give flag count 3/2$"):
            pmd_catenary([0, 2, 3])

    def test_paving_examples(self):
        assert paving_catenary(6, 3, {2: 3, 3: 4}).counts == {
            (0, 1, 1, 4): 6, (0, 1, 2, 3): 12}
        assert paving_catenary(6, 3, {3: 2, 2: 9}).counts == {
            (0, 1, 2, 3): 6, (0, 1, 1, 4): 18}
        assert paving_catenary(4, 2, {1: 4}).counts == {(0, 1, 3): 4}
        assert paving_catenary(4, 2, {1: 4}) == _flag_walk(uniform(2, 4))

    def test_paving_census_matches_catenary(self, corpus, cache):
        for name, m in corpus:
            if m.r < 2 or not m.is_paving():
                continue
            census = {}
            for x in m.copoints():
                census[x.bit_count()] = census.get(x.bit_count(), 0) + 1
            assert paving_catenary(m.n, m.r, census) == cache.cat(name, m), name

    def test_paving_iff_leading_ones(self, corpus, cache):
        for name, m in corpus:
            g = cache.g(name, m)
            prefix = "1" * (m.r - 1)
            symbol_paving = all(key.startswith(prefix) for key in g.coeffs)
            assert symbol_paving == m.is_paving(), name


class TestCopointRecursion:
    def test_corpus(self, corpus, cache):
        for name, m in corpus:
            if m.r < 1:
                continue
            agg = {}
            for x in m.copoints():
                sub = catenary(m.restrict(x))
                for comp, v in sub.counts.items():
                    key = comp + (m.n - x.bit_count(),)
                    agg[key] = agg.get(key, 0) + v
            assert agg == dict(cache.cat(name, m).counts), name


class TestTuttePolynomialType:
    def test_eval_and_eq(self):
        t = TuttePolynomial({(2, 0): 1, (1, 0): 1, (0, 1): 1})
        assert t.evaluate(2, 2) == 8
        assert t == TuttePolynomial({(0, 1): 1, (1, 0): 1, (2, 0): 1, (5, 5): 0})

    def test_repr_constants(self):
        assert repr(TuttePolynomial({(0, 0): 1})) == "TuttePolynomial(1)"
        assert repr(TuttePolynomial({(0, 0): 2})) == "TuttePolynomial(2)"
        assert repr(TuttePolynomial({(1, 0): 1, (0, 0): 3})) \
            == "TuttePolynomial(x + 3)"

    def test_repr_signs_and_zero(self):
        assert repr(TuttePolynomial({(2, 0): 1, (1, 1): -2})) \
            == "TuttePolynomial(x^2 - 2xy)"
        assert repr(TuttePolynomial({(1, 0): -1, (0, 1): 1, (0, 0): -1})) \
            == "TuttePolynomial(-x + y - 1)"
        assert repr(TuttePolynomial({})) == "TuttePolynomial(0)"
