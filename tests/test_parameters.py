"""Chain/flat/coloop censuses and invariant-level minors vs exhaustive scans."""

import itertools

import pytest
from hypothesis import given, settings

from gcat import (CatenaryData, ExactnessError, GInvariant, catenary,
                  elements_of, from_graph, g_dual, g_invariant, ginvariant,
                  parameters, uniform)
from gcat.freeproduct import detect_free_product
from gcat.parameters import (_split_at_unique_flat, _unit_chain_count,
                             _unit_chains, chain_count, family_counts,
                             flat_count, flat_count_coloops,
                             g_split_at_unique_flat, has_spanning_circuit)
from gcat.serialization import catenary_to_json, ginvariant_to_json
from conftest import K4_EDGES, load_data, presentations


def exhaustive_chains(m, h, k, sizes):
    """Oracle: enumerate flat chains with the given ranks and sizes."""
    levels = [[f for f in m.flats_of_rank(j) if f.bit_count() == s]
              for j, s in zip(range(h, k + 1), sizes)]
    count = 0
    for chain in itertools.product(*levels):
        if all(a & ~b == 0 for a, b in zip(chain, chain[1:])):
            count += 1
    return count


def coloops_of_restriction(m, f, k):
    return sum(1 for e in elements_of(f) if m.rank(f & ~(1 << e)) == k - 1)


class TestChainCount:
    def test_k4_examples(self):
        c = catenary(from_graph(K4_EDGES))
        assert chain_count(c, 2, 2, (3,)) == 4
        assert chain_count(c, 1, 2, (1, 2)) == 6
        assert chain_count(c, 3, 3, (6,)) == 1

    def test_corpus_vs_exhaustive(self, corpus, cache):
        for name, m in corpus:
            if m.n > 6:
                continue
            c = cache.cat(name, m)
            for h in range(m.r + 1):
                for k in range(h, m.r + 1):
                    for sizes in itertools.combinations(range(m.n + 1), k - h + 1):
                        got = chain_count(c, h, k, sizes)
                        assert got == exhaustive_chains(m, h, k, sizes), \
                            (name, h, k, sizes)

    def test_validation(self):
        c = catenary(uniform(2, 4))
        with pytest.raises(ValueError):
            chain_count(c, 2, 1, (1, 2))
        with pytest.raises(ValueError):
            chain_count(c, 1, 2, (2, 2))
        with pytest.raises(ValueError):
            chain_count(c, 1, 2, (1,))


class TestFlatCount:
    def test_fig2_distinguisher(self):
        c1 = catenary(load_data("fig2-m1"))
        c2 = catenary(load_data("fig2-m2"))
        assert flat_count(c1, 1, 2) == 1
        assert flat_count(c2, 1, 2) == 1
        # the pair differs in two-point *lines* (rank 2, size 2)
        assert flat_count(c1, 2, 2) == 2
        assert flat_count(c2, 2, 2) == 3

    def test_k4(self):
        c = catenary(from_graph(K4_EDGES))
        assert flat_count(c, 2, 2) == 3
        assert flat_count(c, 2, 3) == 4

    def test_u24(self):
        assert flat_count(catenary(uniform(2, 4)), 1, 1) == 4


class TestColoopCensus:
    def test_examples(self):
        k4c = catenary(from_graph(K4_EDGES))
        assert flat_count_coloops(k4c, 2, 2, 2) == 3
        fig1 = catenary(load_data("fig1-m"))
        assert flat_count_coloops(fig1, 2, 3, 0) == 2
        u23 = catenary(uniform(2, 3))
        assert flat_count_coloops(u23, 1, 1, 1) == 3

    def test_corpus_vs_exhaustive(self, corpus, cache):
        for name, m in corpus:
            if m.n > 6:
                continue
            c = cache.cat(name, m)
            for k in range(m.r + 1):
                flats = m.flats_of_rank(k)
                for s in range(m.n + 1):
                    group = [f for f in flats if f.bit_count() == s]
                    for cc in range(k + 1):
                        expect = sum(
                            1 for f in group
                            if coloops_of_restriction(m, f, k) == cc)
                        assert flat_count_coloops(c, k, s, cc) == expect, \
                            (name, k, s, cc)

    def test_sums_to_flat_count(self, corpus, cache):
        for name, m in corpus:
            if m.n > 6:
                continue
            c = cache.cat(name, m)
            for k in range(m.r + 1):
                for s in range(m.n + 1):
                    total = sum(flat_count_coloops(c, k, s, cc)
                                for cc in range(k + 1))
                    assert total == flat_count(c, k, s), (name, k, s)


# a non-matroid catenary vector whose flat and coloop counts do not divide
NOT_A_MATROID = CatenaryData(4, 3, {(0, 2, 1, 1): 2, (1, 1, 1, 1): 3})


class TestInputChecks:
    """The texts every flat and coloop count raises, read from the census or
    not: the CLI prints them after "error: " or "inconsistency: "."""

    @pytest.mark.parametrize("query, text", [
        ((flat_count, 1, 99), "size 99 exceeds n=6"),
        ((flat_count_coloops, 1, 99, 0), "size 99 exceeds n=6"),
        ((flat_count, 4, 2), "need 0 <= h <= k <= r, got h=4, k=4, r=3"),
        ((flat_count_coloops, 4, 2, 0),
         "need 0 <= coloops <= k <= r, got 0, 4, 3"),
        ((flat_count_coloops, 1, 2, 2),
         "need 0 <= coloops <= k <= r, got 2, 1, 3"),
        ((flat_count, 2, -1), "sizes must be nonnegative: (-1,)"),
    ])
    def test_value_errors(self, query, text):
        fn, *args = query
        c = catenary(from_graph(K4_EDGES))
        with pytest.raises(ValueError) as exc:
            fn(c, *args)
        assert str(exc.value) == text

    def test_sizes_below_zero_count_no_coloop_flat(self):
        assert flat_count_coloops(catenary(from_graph(K4_EDGES)), 2, -1, 0) == 0

    @pytest.mark.parametrize("query, text", [
        ((flat_count, 1, 2), "chain count F_{1,1}(2,) = 10/4 is not integral"),
        ((flat_count_coloops, 1, 2, 0),
         "chain count F_{0,1}(1, 2) = 3/2 is not integral"),
        ((flat_count_coloops, 2, 3, 0),
         "coloop census f_2(3,2) = 3/2 is not integral"),
    ])
    def test_not_integral(self, query, text):
        fn, *args = query
        with pytest.raises(ExactnessError) as exc:
            fn(NOT_A_MATROID, *args)
        assert str(exc.value) == text


def _assert_census_is_the_scan(c):
    """Every unit chain of c, read from the census, against the scan."""
    for k in range(c.r + 1):
        row = _unit_chains(c, k)
        assert _unit_chains(c, k) is row
        for j in range(k + 1):
            for s in range(j, c.n + 1):
                scan = chain_count(c, k - j, k, range(s - j, s + 1))
                assert _unit_chain_count(c, k, s, j) == scan, (c, k, s, j)
                assert (s, j) in row or scan == 0, (c, k, s, j)


class TestUnitChainCensus:
    def test_corpus_census_is_the_scan(self, corpus, cache):
        for name, m in corpus:
            _assert_census_is_the_scan(cache.cat(name, m))

    def test_loops_coloops_and_runs_to_rank_0(self):
        # two loops, three coloops and a parallel class: some runs of
        # 1-parts reach rank 0
        m = uniform(0, 2).direct_sum(uniform(3, 3)).direct_sum(uniform(1, 3))
        c = catenary(m)
        assert c.loops() == 2
        _assert_census_is_the_scan(c)
        assert any(j == k for k in range(1, c.r + 1)
                   for _, j in _unit_chains(c, k))
        assert flat_count_coloops(c, 3, 5, 3) == 1
        _assert_census_is_the_scan(catenary(uniform(3, 3)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(presentations(10))
    def test_census_is_the_scan(self, m):
        _assert_census_is_the_scan(catenary(m))


class TestHeldCensusAndDual:
    """The census and the dual are held, invisibly, as long as their owner."""

    def test_holding_changes_no_output(self):
        g = g_invariant(from_graph(K4_EDGES).free_product(uniform(2, 4)))
        c = ginvariant.catenary_from_g(g)
        fresh_c = CatenaryData(c.n, c.r, c.counts)
        fresh_g = GInvariant(g.n, g.r, g.coeffs)
        # a proper detection fills c's map with the census, the coloop
        # counts and the split parts
        assert detect_free_product(g).is_proper
        for k in range(c.r + 1):
            flat_count(c, k, 3)
        assert {key[0] for key in c._held} == {"unit chains", "coloops",
                                                "split"}
        assert g._held == {"catenary": c} and g_dual(g) is g_dual(g)
        assert c == fresh_c and hash(c) == hash(fresh_c)
        assert repr(c) == repr(fresh_c)
        assert catenary_to_json(c) == catenary_to_json(fresh_c)
        assert g == fresh_g and hash(g) == hash(fresh_g)
        assert repr(g) == repr(fresh_g)
        assert ginvariant_to_json(g) == ginvariant_to_json(fresh_g)
        assert g_dual(g_dual(g)) == g

    def test_each_dual_is_solved_once(self, monkeypatch):
        calls = []
        solve = ginvariant._gamma_solve
        monkeypatch.setattr(ginvariant, "_gamma_solve",
                            lambda g: calls.append(g) or solve(g))
        g = g_invariant(from_graph(K4_EDGES))
        counts = [family_counts(g, "circuit", s) for s in range(1, g.r + 2)]
        assert counts == [0, 0, 4, 3]
        assert has_spanning_circuit(g)
        assert family_counts(g, "cyclic_set", 4) == 3
        assert list(map(id, calls)) == [id(g_dual(g))]
        # a fresh copy holds neither its dual nor its coordinates
        fresh = GInvariant(g.n, g.r, g.coeffs)
        assert has_spanning_circuit(fresh)
        assert ginvariant.catenary_from_g(fresh) == ginvariant.catenary_from_g(g)
        assert list(map(id, calls)) == list(map(id, (g_dual(g), g_dual(fresh),
                                                     fresh)))


class TestFamilyCounts:
    def test_k4(self):
        g = g_invariant(from_graph(K4_EDGES))
        assert family_counts(g, "cocircuit", 3) == 4
        assert family_counts(g, "circuit", 3) == 4

    def test_fig1_cyclic(self):
        g = g_invariant(load_data("fig1-m"))
        assert family_counts(g, "cyclic_set", 6, 3) == 1

    def test_cocircuits_equal_copoints(self, corpus, cache):
        for name, m in corpus:
            if m.r < 1 or m.n > 6:
                continue
            g = cache.g(name, m)
            total = sum(family_counts(g, "cocircuit", s)
                        for s in range(m.n + 1))
            assert total == len(m.copoints()), name

    def test_corpus_vs_exhaustive(self, corpus, cache):
        for name, m in corpus:
            if m.n > 6:
                continue
            g = cache.g(name, m)
            circuits = m.circuits()
            cocircuits = m.cocircuits()
            cyclic = m.cyclic_sets()
            for s in range(m.n + 1):
                assert family_counts(g, "circuit", s) == sum(
                    1 for c in circuits if c.bit_count() == s), (name, s)
                assert family_counts(g, "cocircuit", s) == sum(
                    1 for c in cocircuits if c.bit_count() == s), (name, s)
                assert family_counts(g, "cyclic_set", s) == sum(
                    1 for c in cyclic if c.bit_count() == s), (name, s)
                for j in range(m.r + 1):
                    assert family_counts(g, "cyclic_set", s, j) == sum(
                        1 for c in cyclic
                        if c.bit_count() == s and m.rank(c) == j), (name, s, j)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            family_counts(g_invariant(uniform(1, 2)), "flats", 1)


class TestSpanningCircuit:
    def test_examples(self, named):
        assert has_spanning_circuit(g_invariant(named["M(K4)"]))
        assert not has_spanning_circuit(g_invariant(uniform(2, 2)))
        assert not has_spanning_circuit(g_invariant(named["bowtie"]))


class TestSplitAtUniqueFlat:
    def test_free_product_split(self):
        fp = uniform(1, 2).free_product(uniform(1, 2))
        left, right = g_split_at_unique_flat(g_invariant(fp), 1, 2)
        assert left == g_invariant(uniform(1, 2))
        assert right == g_invariant(uniform(1, 2))

    def test_whole_ground_set(self):
        g = g_invariant(uniform(2, 4))
        left, right = g_split_at_unique_flat(g, 2, 4)
        assert left == g
        assert right.n == 0 and right.coeffs == {"": 1}

    def test_not_unique_rejected(self):
        g = g_invariant(load_data("fig1-m"))
        with pytest.raises(ExactnessError):
            g_split_at_unique_flat(g, 2, 3)

    def test_corpus_unique_flats(self, corpus, cache):
        for name, m in corpus:
            if m.n > 6:
                continue
            g = cache.g(name, m)
            for k in range(m.r + 1):
                flats = m.flats_of_rank(k)
                for s in range(m.n + 1):
                    group = [f for f in flats if f.bit_count() == s]
                    if len(group) != 1:
                        continue
                    left, right = g_split_at_unique_flat(g, k, s)
                    assert left == g_invariant(m.restrict(group[0])), (name, k, s)
                    assert right == g_invariant(m.contract(group[0])), (name, k, s)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(presentations(10))
    def test_marginals_are_the_minors(self, m):
        # every unique flat, the loops (k = 0) and E (k = r) among them
        c = catenary(m)
        for k in range(m.r + 1):
            flats = m.flats_of_rank(k)
            for s in {f.bit_count() for f in flats}:
                group = [f for f in flats if f.bit_count() == s]
                if len(group) != 1:
                    continue
                left, right = _split_at_unique_flat(c, k, s)
                assert left == catenary(m.restrict(group[0])), (m, k, s)
                assert right == catenary(m.contract(group[0])), (m, k, s)

    def test_no_chain_count_scan(self, monkeypatch):
        def scan(*args):
            raise AssertionError("chain_count scanned")
        monkeypatch.setattr(parameters, "chain_count", scan)
        g = g_invariant(uniform(1, 2).free_product(uniform(2, 3)))
        left, right = g_split_at_unique_flat(g, 1, 2)
        assert (left, right) == (g_invariant(uniform(1, 2)),
                                 g_invariant(uniform(2, 3)))
        report = detect_free_product(g)
        assert report.is_proper
        assert [(k, s) for k, s, _, _ in report.factors] == [(1, 2)]

    @pytest.mark.parametrize("c, k, s", [
        # the restriction's marginal {(0, 1, 1): 3} is 3/2 times a flag count
        (CatenaryData(5, 4, {(0, 1, 1, 2, 1): 3}), 2, 2),
        # the restriction's marginal counts no flag: the contraction's scale is 0
        (CatenaryData(5, 3, {(0, 1, 3, 1): -2, (0, 3, 1, 1): 2}), 2, 4),
    ])
    def test_non_matroid_marginals_rejected(self, c, k, s):
        assert flat_count(c, k, s) == 1
        with pytest.raises(ExactnessError):
            _split_at_unique_flat(c, k, s)

    @pytest.mark.parametrize("c, k, s, text", [
        # both marginals scale by 2, but the restriction's (0, 2, 1) is 3
        (CatenaryData(5, 4, {(0, 1, 1, 2, 1): 1, (0, 2, 1, 1, 1): 3}), 2, 3,
         "restriction coordinate (0, 2, 1) = 3/2 is not integral"),
        # a matroid's keys share their loop count; these do not
        (CatenaryData(3, 2, {(0, 2, 1): 3, (1, 1, 1): 2}), 0, 1,
         "inconsistent loop counts across keys: [0, 1]"),
    ])
    def test_reachable_checks_name_the_defect(self, c, k, s, text):
        assert flat_count(c, k, s) == 1
        with pytest.raises(ExactnessError) as exc:
            _split_at_unique_flat(c, k, s)
        assert str(exc.value) == text
