"""Invariant-level construction algebra against matroid-level ground truth."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcat import (CatenaryData, ExactnessError, GInvariant, cat_direct_sum,
                  cat_qcone, catenary, catenary_from_g, dc_sum_check,
                  dowling3, free_product_rank_sequence, from_graph,
                  g_add_coloop, g_add_loop, g_brute_force, g_dual,
                  g_free_coextension, g_free_extension, g_free_product,
                  g_invariant, g_lift, g_relax, g_shuffle, g_truncate,
                  gamma_expand, uniform)
from gcat.ginvariant import compositions
from gcat import constructions
from conftest import K4_EDGES, geometric_qcone, load_data, presentations


class TestDual:
    def test_examples(self):
        g = GInvariant(3, 2, {"110": 4, "101": 2})
        assert g_dual(g).coeffs == {"100": 4, "010": 2}
        assert g_dual(g) == g_invariant(
            uniform(1, 2).direct_sum(uniform(1, 1)).dual())
        u12 = g_invariant(uniform(1, 2))
        assert g_dual(u12) == u12

    def test_involution(self, corpus, cache):
        for name, m in corpus:
            g = cache.g(name, m)
            assert g_dual(g_dual(g)) == g, name


class TestTruncateLift:
    def test_examples(self):
        assert g_truncate(GInvariant(3, 2, {"110": 6})).coeffs == {"100": 6}
        u13 = g_invariant(uniform(1, 3))
        assert g_lift(u13) == g_invariant(uniform(1, 3).lift())

    def test_truncated_k4_catenary(self):
        # direct flag enumeration of the truncation (each edge of the wheel
        # lies on three lines, so the merged-composition shortcut would
        # wrongly give 18 here)
        k4 = from_graph(K4_EDGES)
        assert catenary(k4.truncate()).counts == {(0, 1, 5): 6}
        assert catenary_from_g(g_truncate(g_invariant(k4))).counts \
            == {(0, 1, 5): 6}

    def test_guards(self):
        with pytest.raises(ValueError):
            g_truncate(g_invariant(uniform(0, 2)))
        with pytest.raises(ValueError):
            g_lift(g_invariant(uniform(2, 2)))


class TestShuffle:
    def test_single_symbols(self):
        one = GInvariant(1, 1, {"1": 1})
        assert g_shuffle(one, one).coeffs == {"11": 2}

    def test_k3_plus_k2(self):
        g = g_shuffle(g_invariant(uniform(2, 3)), g_invariant(uniform(1, 1)))
        c = catenary_from_g(g)
        assert c.counts == {(0, 1, 1, 2): 6, (0, 1, 2, 1): 3}

    def test_commutative_associative(self):
        rng = random.Random(3)
        pool = [g_invariant(uniform(r, n))
                for n in range(1, 4) for r in range(n + 1)]
        for _ in range(10):
            a, b, c = rng.sample(pool, 3)
            assert g_shuffle(a, b) == g_shuffle(b, a)
            assert g_shuffle(g_shuffle(a, b), c) == g_shuffle(a, g_shuffle(b, c))


class TestCatDirectSum:
    def test_examples(self):
        assert cat_direct_sum(catenary(uniform(2, 3)),
                              catenary(uniform(1, 1))).counts == {
            (0, 1, 1, 2): 6, (0, 1, 2, 1): 3}
        assert cat_direct_sum(catenary(uniform(0, 2)),
                              catenary(uniform(1, 1))).counts == {(2, 1): 1}

    def test_random_pairs_cross_path(self):
        # g_shuffle and catenary (at coloops) are built on cat_direct_sum, so
        # the oracle is the brute-force invariant of the matroid-level sum
        rng = random.Random(11)
        small = [uniform(r, n) for n in range(1, 5) for r in range(n + 1)]
        for _ in range(50):
            m1, m2 = rng.choice(small), rng.choice(small)
            lhs = cat_direct_sum(catenary(m1), catenary(m2))
            assert lhs == catenary_from_g(g_brute_force(m1.direct_sum(m2)))


def _interleaved(c1, c2):
    """Direct-sum oracle: every pair of keys, every position set of the
    first key's positive parts among all positive parts."""
    counts = {}
    for a, x in c1.counts.items():
        for b, y in c2.counts.items():
            p, q = len(a) - 1, len(b) - 1
            for pos in itertools.combinations(range(p + q), p):
                left, right = iter(a[1:]), iter(b[1:])
                key = (a[0] + b[0], *(next(left) if i in pos else next(right)
                                      for i in range(p + q)))
                counts[key] = counts.get(key, 0) + x * y
    return CatenaryData(c1.n + c2.n, c1.r + c2.r, counts)


@st.composite
def _catenary_vectors(draw):
    """Up to four keys of one (n, r)-shape, r <= 4, with a_0 <= 2 loops and
    parts <= 3, so that parts repeat; r = 0 gives the one key (a_0,)."""
    loops = draw(st.integers(0, 2))
    first = (loops, *draw(st.lists(st.integers(1, 3), max_size=4)))
    n, r = sum(first), len(first) - 1
    keys = [k for k in compositions(n, r) if k[0] == loops and max(k) <= 3]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=3)) + [first]
    return CatenaryData(n, r, {k: draw(st.integers(1, 5)) for k in chosen})


class TestMergedShuffles:
    """`cat_direct_sum` against the interleaving oracle."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_catenary_vectors(), _catenary_vectors())
    def test_vectors(self, c1, c2):
        assert cat_direct_sum(c1, c2) == _interleaved(c1, c2)

    @pytest.mark.parametrize("k", range(9))
    def test_free_parts(self, k):
        # U(k,k)'s one key (0, 1, ..., 1) against repeated parts, loops on
        # both sides and a rank-0 side
        free = catenary(uniform(k, k))
        for c in (catenary(from_graph(K4_EDGES).add_loop()),
                  CatenaryData(6, 3, {(1, 1, 1, 3): 2, (1, 2, 1, 2): 1}),
                  _loops(2), free):
            assert cat_direct_sum(c, free) == _interleaved(c, free)
            assert cat_direct_sum(free, c) == _interleaved(free, c)


def _loops(h):
    """Catenary data of U(0, h): one flag, the ground set."""
    return CatenaryData(h, 0, {(h,): 1})


class TestLoopsColoops:
    def test_examples(self):
        assert g_add_coloop(GInvariant(2, 1, {"10": 2})).coeffs == {
            "110": 4, "101": 2}
        assert g_add_loop(GInvariant(1, 1, {"1": 1})).coeffs == {"01": 1, "10": 1}
        assert cat_direct_sum(CatenaryData(1, 1, {(0, 1): 1}),
                              _loops(2)).counts == {(2, 1): 1}

    def test_loop_relabel_round_trip(self, corpus, cache):
        # adding h loops is the direct sum with U(0, h), loopy inputs too
        for name, m in corpus:
            c = cache.cat(name, m)
            for h in (1, 2):
                target = m
                for _ in range(h):
                    target = target.add_loop()
                assert cat_direct_sum(c, _loops(h)) == catenary(target), name


class TestFreeExtension:
    def test_worked_example(self):
        g = GInvariant(5, 3, {"11100": 96, "11010": 24})
        assert g_free_extension(g).coeffs == {"111000": 648, "110100": 72}

    def test_trivial(self):
        assert g_free_extension(GInvariant(1, 1, {"1": 1})).coeffs == {"10": 2}

    def test_coextension_is_lift_plus_loop_on_corpus(self, corpus, cache):
        for name, m in corpus:
            if m.n > 6:
                continue
            g = cache.g(name, m)
            assert g_free_coextension(g) == g_lift(g_add_loop(g)), name


class TestUnaryAgainstMatroids:
    OPS = [
        ("dual", g_dual, lambda m: m.dual(), lambda m: True),
        ("truncate", g_truncate, lambda m: m.truncate(), lambda m: m.r >= 1),
        ("lift", g_lift, lambda m: m.lift(), lambda m: m.r < m.n),
        ("freeext", g_free_extension, lambda m: m.free_extension(),
         lambda m: True),
        ("freecoext", g_free_coextension, lambda m: m.free_coextension(),
         lambda m: True),
        ("addloop", g_add_loop, lambda m: m.add_loop(), lambda m: True),
        ("addcoloop", g_add_coloop, lambda m: m.add_coloop(), lambda m: True),
    ]

    @pytest.mark.parametrize("opname,gop,mop,ok", OPS,
                             ids=[row[0] for row in OPS])
    def test_corpus(self, corpus, cache, opname, gop, mop, ok):
        for name, m in corpus:
            if m.n > 6 or not ok(m):
                continue
            assert gop(cache.g(name, m)) == g_invariant(mop(m)), name


@st.composite
def _sized_invariants(draw, n):
    """G-invariant of a presentation (at most 5 elements) brought to n
    elements: minors remove elements, loops and coloops add them."""
    m = draw(presentations(5))
    while m.n > n:
        e = 1 << draw(st.integers(0, m.n - 1))
        m = m.delete(e) if draw(st.booleans()) else m.contract(e)
    while m.n < n:
        m = m.add_loop() if draw(st.booleans()) else m.add_coloop()
    return g_invariant(m)


@st.composite
def _integer_vectors(draw, n):
    """Integer vectors on (n, r)-symbols, mostly not matroid invariants."""
    r = draw(st.integers(0, n))
    symbols = ["".join("1" if i in ones else "0" for i in range(n))
               for ones in itertools.combinations(range(n), r)]
    coeffs = draw(st.dictionaries(st.sampled_from(symbols),
                                  st.integers(-40, 40), max_size=4))
    return GInvariant(n, r, coeffs)


def _vectors(n):
    return st.one_of(_sized_invariants(n), _integer_vectors(n))


def _rewritten(g, n, r, rewrite):
    """g with each symbol replaced by the symbols `rewrite` gives for it."""
    acc = {}
    for key, c in g.coeffs.items():
        for s in rewrite(key):
            acc[s] = acc.get(s, 0) + c
    return GInvariant(n, r, acc)


class TestSymbolRules:
    """The paper's symbol rules for the co-side constructions, which are
    computed through `g_dual`; the rules are linear, so they hold on every
    integer vector, invariant or not."""

    @settings(deadline=None, derandomize=True)
    @given(st.integers(0, 6).flatmap(_integer_vectors))
    def test_lift_promotes_the_leftmost_0(self, g):
        if g.r == g.n:
            with pytest.raises(ValueError, match="no circuits"):
                g_lift(g)
            return
        assert g_lift(g) == _rewritten(
            g, g.n, g.r + 1, lambda key: [key.replace("0", "1", 1)])

    @settings(deadline=None, derandomize=True)
    @given(st.integers(0, 6).flatmap(_integer_vectors))
    def test_add_loop_inserts_a_0_everywhere(self, g):
        assert g_add_loop(g) == _rewritten(
            g, g.n + 1, g.r,
            lambda key: [key[:i] + "0" + key[i:] for i in range(g.n + 1)])

    @settings(deadline=None, derandomize=True)
    @given(st.integers(0, 6).flatmap(_integer_vectors))
    def test_free_coextension_is_lift_plus_loop(self, g):
        assert g_free_coextension(g) == g_lift(g_add_loop(g))


class TestFreeProduct:
    @staticmethod
    def _replay(g1, g2):
        # the defining sum over every shuffle of every pair of symbols
        n = g1.n + g2.n
        acc = {}
        for pos in itertools.combinations(range(n), g1.n):
            for k1, c1 in g1.coeffs.items():
                for k2, c2 in g2.coeffs.items():
                    key = free_product_rank_sequence(k1, k2, pos)
                    acc[key] = acc.get(key, 0) + c1 * c2
        return GInvariant(n, g1.r + g2.r, acc)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_dp_is_the_shuffle_sum(self, data):
        # the product is linear, so vectors that are not invariants
        # (negative or non-integral gamma coordinates) must agree too
        n1 = data.draw(st.integers(0, 6), label="n1")
        n2 = data.draw(st.integers(0, min(6, 10 - n1)), label="n2")
        g1 = data.draw(_vectors(n1), label="g1")
        g2 = data.draw(_vectors(n2), label="g2")
        assert g_free_product(g1, g2) == self._replay(g1, g2)

    def test_empty_invariant_is_a_unit(self, corpus, cache):
        empty = GInvariant(0, 0, {"": 1})
        assert g_free_product(empty, empty) == empty
        for name, m in corpus:
            g = cache.g(name, m)
            assert g_free_product(empty, g) == g, name
            assert g_free_product(g, empty) == g, name

    def test_rank_sequence_table(self):
        assert free_product_rank_sequence("101", "10010", (3, 4, 5)) \
            == "11100010"

    def test_u12_squared(self):
        g = g_free_product(g_invariant(uniform(1, 2)),
                           g_invariant(uniform(1, 2)))
        assert g.coeffs == {"1100": 20, "1010": 4}
        assert g["1100"] == math.factorial(2) * math.factorial(2) * 5

    def test_unit_laws_on_corpus(self, corpus, cache):
        one = g_invariant(uniform(1, 1))
        zero = g_invariant(uniform(0, 1))
        for name, m in corpus:
            if m.n > 5:
                continue
            g = cache.g(name, m)
            assert g_free_product(one, g) == g_free_coextension(g), name
            assert g_free_product(g, zero) == g_free_extension(g), name

    def test_binary_against_matroids(self, corpus, named, cache):
        pairs = [("U(1,2)", "U(2,3)"), ("U(2,3)", "U(1,2)"),
                 ("U12+U11", "U(1,2)"), ("U(1,3)", "U(1,3)"),
                 ("U(0,2)", "U(2,4)"), ("U(2,4)", "U(2,2)")]
        for n1, n2 in pairs:
            m1, m2 = named[n1], named[n2]
            gp = g_free_product(g_invariant(m1), g_invariant(m2))
            assert gp == g_invariant(m1.free_product(m2)), (n1, n2)
            gs = g_shuffle(g_invariant(m1), g_invariant(m2))
            assert gs == g_invariant(m1.direct_sum(m2)), (n1, n2)

    def test_associative(self):
        rng = random.Random(5)
        pool = [g_invariant(uniform(r, n))
                for n in range(1, 4) for r in range(n + 1)]
        for _ in range(8):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert g_free_product(g_free_product(a, b), c) \
                == g_free_product(a, g_free_product(b, c))


class TestQCone:
    def test_fig1_at_q5(self):
        qc = cat_qcone(catenary(load_data("fig1-m")), 5)
        assert qc.counts == {
            (0, 1, 5, 10, 15): 36, (0, 1, 5, 5, 20): 108,
            (0, 1, 2, 13, 15): 150, (0, 1, 1, 9, 20): 450,
            (0, 1, 2, 3, 25): 750, (0, 1, 1, 4, 25): 2250}

    def test_total_flag_multiplier(self):
        for m in (uniform(2, 4), load_data("fig1-m")):
            c = catenary(m)
            for q in (2, 3):
                qc = cat_qcone(c, q)
                factor = sum(q ** j for j in range(m.r + 1))
                assert qc.total() == c.total() * factor

    def test_point_cone_is_line(self):
        qc = cat_qcone(catenary(uniform(1, 1)), 2)
        assert qc == catenary(uniform(2, 3))

    def test_matches_geometric_cones(self):
        # hand-coded projective constructions over GF(2) and GF(3)
        point = [(1,)]
        line3 = [(1, 0), (0, 1), (1, 1)]
        for q in (2, 3):
            cone = geometric_qcone(point, q)
            assert catenary(cone) == cat_qcone(catenary(uniform(1, 1)), q)
            cone = geometric_qcone(line3, q)
            assert catenary(cone) == cat_qcone(catenary(uniform(2, 3)), q)

    def test_guards(self):
        with pytest.raises(ValueError):
            cat_qcone(catenary(uniform(2, 3)), 1)
        with pytest.raises(ValueError):
            cat_qcone(catenary(uniform(1, 2)), 2)  # parallel pair: not simple
        with pytest.raises(ValueError):
            cat_qcone(catenary(uniform(1, 1).add_loop()), 2)


class TestRelax:
    def test_parallel_pair(self):
        g = g_invariant(uniform(1, 2).direct_sum(uniform(1, 1)))
        assert g_relax(g) == g_invariant(uniform(2, 3))

    def test_catenary_view(self):
        before = catenary_from_g(
            g_invariant(uniform(1, 2).direct_sum(uniform(1, 1))))
        after = catenary_from_g(
            g_relax(g_invariant(uniform(1, 2).direct_sum(uniform(1, 1)))))
        assert after[(0, 1, 2)] == before[(0, 1, 2)] + 2
        assert after[(0, 2, 1)] == before[(0, 2, 1)] - 1

    def test_guard_no_circuit_hyperplane(self):
        with pytest.raises(ExactnessError):
            g_relax(g_invariant(uniform(2, 3)))

    def test_gamma_count_guard(self):
        # the symbol check passes (6 >= 2!2! = 4); only the flags through a
        # would-be circuit-hyperplane, counted at (0, 2, 2), are missing
        g = g_invariant(uniform(1, 3).direct_sum(uniform(1, 1)))
        assert g["1010"] == 6
        with pytest.raises(ExactnessError) as exc:
            g_relax(g)
        assert str(exc.value) == ("flag count at (0, 2, 2) would become "
                                  "negative: input has no circuit-hyperplane")

    def test_symbol_update_is_the_gamma_update(self):
        # r! gamma(0,1..1,n-r+1) - (r!/2) gamma(0,1..1,2,n-r) is
        # r!(n-r)! ([1^r 0^(n-r)] - [1^(r-1) 0 1 0^(n-r-1)])
        for n in range(3, 13):
            for r in range(2, n):
                f = math.factorial(r)
                lhs = {}
                for a, w in [((0,) + (1,) * (r - 1) + (n - r + 1,), f),
                             ((0,) + (1,) * (r - 2) + (2, n - r), -f // 2)]:
                    for key, c in gamma_expand(a).coeffs.items():
                        lhs[key] = lhs.get(key, 0) + w * c
                delta = f * math.factorial(n - r)
                rhs = {"1" * r + "0" * (n - r): delta,
                       "1" * (r - 1) + "01" + "0" * (n - r - 1): -delta}
                assert GInvariant(n, r, lhs) == GInvariant(n, r, rhs), (n, r)

    def test_one_solve_and_no_rebuild(self, monkeypatch):
        calls = []
        for name in ("catenary_from_g", "g_from_catenary"):
            fn = getattr(constructions, name)
            monkeypatch.setattr(
                constructions, name,
                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        g_relax(g_invariant(uniform(1, 2).direct_sum(uniform(1, 1))))
        assert calls == ["catenary_from_g"]
        g_relax(g_invariant(uniform(0, 1).direct_sum(uniform(1, 1))))
        assert calls == ["catenary_from_g"]  # rank 1: the symbol check only

    def test_corpus_circuit_hyperplanes(self, corpus, cache):
        from gcat import elements_of
        seen = 0
        for name, m in corpus:
            if m.n > 6:
                continue
            for x in m.copoints():
                k = x.bit_count()
                if m.rank(x) != k - 1:
                    continue
                if not all(m.rank(x & ~(1 << e)) == k - 1
                           for e in elements_of(x)):
                    continue
                assert g_relax(cache.g(name, m)) == g_invariant(m.relax(x)), name
                seen += 1
        assert seen >= 5  # the corpus really exercises this


class TestDowlingInvariance:
    def test_rank3_group_size_only(self):
        z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        z22 = [[a ^ b for b in range(4)] for a in range(4)]
        g1 = g_invariant(dowling3(z4))
        g2 = g_invariant(dowling3(z22))
        assert g1 == g2
        z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
        g3 = g_invariant(dowling3(z3))
        assert g3.n == 12 and g3 != g1


class TestDeletionContraction:
    def test_examples(self):
        assert dc_sum_check(from_graph(K4_EDGES)) is True
        assert dc_sum_check(uniform(2, 4)) is True
        assert dc_sum_check(uniform(0, 1)) is True

    def test_corpus_sample(self, corpus):
        for name, m in corpus:
            if 1 <= m.n <= 5:
                assert dc_sum_check(m) is True, name
