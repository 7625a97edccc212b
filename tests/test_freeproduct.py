"""Pinchpoints and free-product detection from the invariant."""

import math
import random

import pytest

import gcat
from gcat import (catenary_from_g, configuration_of, detect_free_product,
                  elements_of, factor_at_pinchpoint, from_graph,
                  g_free_product, g_from_catenary, g_invariant, mask_of,
                  pinchpoints, uniform)
from gcat.freeproduct import _cyclic_census
from gcat.parameters import flat_count_coloops
from conftest import K4_EDGES, K5_EDGES, load_data


class TestPinchpoints:
    def test_free_product_chain(self):
        fp = uniform(1, 2).free_product(uniform(1, 2))
        conf = configuration_of(fp)
        nodes = pinchpoints(conf)
        assert [(conf.sizes[x], conf.ranks[x]) for x in nodes] == [(2, 1)]

    def test_fig1_has_none(self):
        assert pinchpoints(configuration_of(load_data("fig1-n"))) == []

    def test_two_node_has_none(self):
        assert pinchpoints(configuration_of(uniform(2, 4))) == []


class TestDetect:
    def test_u12_squared(self):
        rep = detect_free_product(
            g_invariant(uniform(1, 2).free_product(uniform(1, 2))))
        assert rep.is_proper
        (k, s, left, right), = rep.factors
        assert (k, s) == (1, 2)
        assert left == g_invariant(uniform(1, 2))
        assert right == g_invariant(uniform(1, 2))

    def test_fig1_not_proper(self):
        rep = detect_free_product(g_invariant(load_data("fig1-n")))
        assert not rep.is_proper and rep.factors == ()

    def test_k4_not_proper(self):
        assert not detect_free_product(
            g_invariant(from_graph(K4_EDGES))).is_proper

    def test_matches_lattice_on_corpus(self, corpus, cache):
        for name, m in corpus:
            if m.n > 6 or m.coloops():
                continue
            rep = detect_free_product(cache.g(name, m))
            assert rep.is_proper == bool(
                pinchpoints(configuration_of(m))), name

    def test_census_is_the_full_census(self, corpus, cache):
        def full(c):
            out = {}
            for k in range(c.r + 1):
                for s in range(k, c.n + 1):
                    v = flat_count_coloops(c, k, s, 0)
                    if v:
                        out[(k, s)] = v
            return out

        cats = [cache.cat(name, m) for name, m in corpus]
        pool = [(name, m) for name, m in corpus
                if 2 <= m.n <= 4 and not m.coloops()]
        rng = random.Random(29)
        for _ in range(12):
            (n1, m1), (n2, m2) = rng.choice(pool), rng.choice(pool)
            cats.append(catenary_from_g(g_free_product(
                cache.g(n1, m1), cache.g(n2, m2))))
        for c in cats:
            got = _cyclic_census(c)
            assert list(got.items()) == list(full(c).items()), c

    def test_top_of_lattice_is_not_a_pinchpoint(self):
        # with a coloop present the maximum cyclic flat has rank below r(M)
        # and used to masquerade as a pinchpoint candidate
        m = uniform(2, 3).add_coloop()
        assert not detect_free_product(g_invariant(m)).is_proper
        m2 = uniform(1, 2).free_product(uniform(1, 2)).add_coloop()
        rep = detect_free_product(g_invariant(m2))
        assert [(k, s) for k, s, _, _ in rep.factors] == [(1, 2)]

    def test_each_invariant_is_solved_once(self, monkeypatch):
        # rank 7, n = 13, with pinchpoints at ranks 3 and 5
        prod = from_graph(K4_EDGES).free_product(uniform(2, 4)) \
            .free_product(uniform(2, 3))
        g = g_invariant(prod)
        solved = []
        for module in (gcat.freeproduct, gcat.parameters):
            solve = module.catenary_from_g

            def counted(h, solve=solve):
                solved.append(h)
                return solve(h)
            monkeypatch.setattr(module, "catenary_from_g", counted)
        assert detect_free_product(g).is_proper
        assert len(solved) == len(set(solved))

    def test_held_census_is_not_solved_again(self, monkeypatch):
        solved = []
        solve = gcat.parameters._solve_coloops
        monkeypatch.setattr(gcat.parameters, "_solve_coloops",
                            lambda c, k, s: solved.append(c) or solve(c, k, s))
        # K4 has no candidate rank: a second detection solves nothing
        k4 = g_invariant(from_graph(K4_EDGES))
        assert not detect_free_product(k4).is_proper
        assert solved
        solved.clear()
        assert not detect_free_product(k4).is_proper
        assert solved == []
        # a proper product: G's data hold their counts and the split parts,
        # which hold theirs, so a second detection solves nothing
        g = g_invariant(from_graph(K4_EDGES).free_product(uniform(2, 4)))
        first = detect_free_product(g)
        assert first.is_proper
        c = catenary_from_g(g)
        assert any(d is c for d in solved)
        assert any(d is not c for d in solved)
        solved.clear()
        assert detect_free_product(g) == first
        assert solved == []

    def test_sharp_products_recover_parts(self, corpus, named, cache):
        pool = [(name, m) for name, m in corpus
                if m.n <= 4 and not m.coloops() and not m.closure(0)
                and len(m.cyclic_flats()) >= 2]
        rng = random.Random(17)
        assert len(pool) >= 3
        seen = 0
        for _ in range(20):
            (n1, m1), (n2, m2) = rng.choice(pool), rng.choice(pool)
            if m1.n + m2.n > 8:
                continue
            prod = m1.free_product(m2)
            rep = detect_free_product(g_invariant(prod))
            assert rep.is_proper, (n1, n2)
            pairs = [(left, right) for _, _, left, right in rep.factors]
            assert (g_invariant(m1), g_invariant(m2)) in pairs, (n1, n2)
            seen += 1
        assert seen >= 15


class TestRoundTripAtN16:
    """Free product, gamma round trip and detection on 16 elements."""

    @pytest.mark.parametrize("parts, pinches", [
        ((K4_EDGES, K5_EDGES), [(3, 6)]),
        ((K4_EDGES, (2, 4), K4_EDGES), [(3, 6), (5, 10)]),
    ], ids=["K4#K5", "K4#U(2,4)#K4"])
    def test_detect_then_rebuild(self, parts, pinches):
        gs = [g_invariant(uniform(*p) if len(p) == 2 else from_graph(p))
              for p in parts]
        g = gs[0]
        for h in gs[1:]:
            g = g_free_product(g, h)
        assert g.n == 16 and g.total() == math.factorial(16)
        assert g_from_catenary(catenary_from_g(g)) == g
        rep = detect_free_product(g)
        assert [(k, s) for k, s, _, _ in rep.factors] == pinches
        assert rep.factors[0][2] == gs[0]
        for _, _, left, right in rep.factors:
            assert g_free_product(left, right) == g


class TestFactorAtPinchpoint:
    def test_round_trip(self):
        fp = uniform(1, 2).free_product(uniform(1, 2))
        rest, contr = factor_at_pinchpoint(fp, mask_of([0, 1]))
        assert rest == uniform(1, 2) and contr == uniform(1, 2)

    def test_random_sharp_products(self, corpus):
        pool = [m for _, m in corpus
                if m.n <= 4 and not m.coloops() and not m.closure(0)
                and len(m.cyclic_flats()) >= 2]
        rng = random.Random(23)
        done = 0
        while done < 20:
            m1, m2 = rng.choice(pool), rng.choice(pool)
            if m1.n + m2.n > 8:
                continue
            prod = m1.free_product(m2)
            x = mask_of(range(m1.n))
            rest, contr = factor_at_pinchpoint(prod, x)
            assert rest.bases == m1.bases and contr.bases == m2.bases
            done += 1

    def test_guards(self):
        n = load_data("fig1-n")
        with pytest.raises(ValueError):
            factor_at_pinchpoint(n, mask_of([0, 1, 2]))
        with pytest.raises(ValueError):
            factor_at_pinchpoint(n, mask_of([0, 1]))

    def test_rejects_every_non_pinchpoint_alike(self):
        # two parallel pairs: cyclic flats 0, {0, 1}, {2, 3} and E
        m = uniform(1, 2).direct_sum(uniform(1, 2))
        assert [f for f, _ in m.cyclic_flats()] == [0, 0b0011, 0b1100, 0b1111]
        # a set that is no cyclic flat, the bottom, the top and a cyclic
        # flat incomparable with another
        for x in (0b0001, 0, 0b1111, 0b0011):
            with pytest.raises(ValueError, match="^target set is not a "
                               "pinchpoint of the cyclic-flat lattice$"):
                factor_at_pinchpoint(m, x)


class TestCoLoopReduction:
    def test_coloop_shift_identity(self):
        # for M1 with coloop set Y: (M1 \ Y) # ((M1|Y) # M2) matches M1 # M2
        m2 = uniform(1, 2)
        for m1 in (uniform(2, 3).add_coloop(), uniform(1, 2).add_coloop()):
            y = m1.coloops()
            lhs = m1.free_product(m2)
            stripped = m1.delete(y)
            inner = m1.restrict(y).free_product(m2)
            rhs = stripped.free_product(inner)
            # same unordered ground set: coloops of M1 sit between the parts
            # in both factorizations, so the basis collections agree after
            # sorting elements back into place
            perm = elements_of(m1.full & ~y) + elements_of(y) \
                + list(range(m1.n, m1.n + m2.n))
            mapped = frozenset(
                sum(1 << perm[e] for e in elements_of(b)) for b in rhs.bases)
            assert mapped == lhs.bases
