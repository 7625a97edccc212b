"""Circle product, slicing, and deck reconstruction round-trips."""

import math

import pytest

import gcat.reconstruction
from gcat import (CatenaryData, Deck, ExactnessError, GInvariant,
                  catenary, circle_product, circuit_deck,
                  circuit_deck_reconstruct, copoint_deck,
                  g_invariant, gamma_one, girth_deck, girth_deck_reconstruct,
                  rank_deck,
                  reconstruct_from_copoint_deck, recover_n,
                  size_grouped_copoint_deck, slice_assemble, uniform)
from gcat.ginvariant import invariant_copies
from conftest import load_data


class TestCircleProduct:
    def test_concatenation(self):
        c1 = CatenaryData(1, 1, {(0, 1): 1})
        c2 = CatenaryData(2, 1, {(0, 2): 1})
        assert circle_product(c1, c2).counts == {(0, 1, 2): 1}
        c3 = CatenaryData(2, 1, {(0, 2): 1})
        c4 = CatenaryData(4, 2, {(0, 1, 3): 2})
        assert circle_product(c3, c4).counts == {(0, 2, 1, 3): 2}

    def test_loopy_second_factor_rejected(self):
        with pytest.raises(ValueError):
            circle_product(CatenaryData(1, 1, {(0, 1): 1}),
                           CatenaryData(2, 1, {(1, 1): 1}))

    def test_u23_slices_at_points(self):
        point = catenary(uniform(1, 1))
        rest = catenary(uniform(1, 2))
        total = {}
        for _ in range(3):
            prod = circle_product(point, rest)
            for comp, v in prod.counts.items():
                total[comp] = total.get(comp, 0) + v
        assert total == dict(catenary(uniform(2, 3)).counts)


class TestSlicing:
    def test_examples(self, named):
        assert slice_assemble(rank_deck(uniform(2, 3), 1), 1).coeffs \
            == {"110": 6}
        k4 = named["M(K4)"]
        deck = rank_deck(k4, 2)
        assert sum(mult for _, mult in deck.entries) == 7
        assert slice_assemble(deck, 2).coeffs == {"111000": 576, "110100": 144}
        assert slice_assemble(rank_deck(k4, 0), 0) == g_invariant(k4)

    def test_every_rank_on_corpus(self, corpus, cache):
        for name, m in corpus:
            if m.n > 6:
                continue
            g = cache.g(name, m)
            for k in range(m.r + 1):
                assert slice_assemble(rank_deck(m, k), k) == g, (name, k)

    def test_averaged_slicing(self, corpus, cache):
        for name, m in corpus:
            if m.n > 5:
                continue
            g = cache.g(name, m)
            total = {}
            for k in range(m.r + 1):
                part = slice_assemble(rank_deck(m, k), k)
                for key, c in part.coeffs.items():
                    total[key] = total.get(key, 0) + c
            assert {k: v // (m.r + 1) for k, v in total.items()} \
                == dict(g.coeffs), name


class TestRecoverN:
    def test_examples(self, named):
        assert recover_n(copoint_deck(uniform(2, 3))) == 3
        assert recover_n(copoint_deck(named["M(K4)"])) == 6

    def test_rank0_entries_rejected(self):
        with pytest.raises(ExactnessError):
            recover_n(copoint_deck(uniform(1, 3)))

    def test_garbage_deck_rejected(self):
        # 3 x U(2,3) forces n(n-1) = 18, which has no integer solution
        g = g_invariant(uniform(2, 3))
        with pytest.raises(ExactnessError):
            recover_n(Deck("copoint", ((g, 3),)))

    def test_only_grouped_entries_may_be_sums(self, named):
        # K4's h-sums entries total 3 * 2! and 4 * 3! (its 2- and 3-point
        # lines); the same vectors as copoint entries are no invariants
        grouped = size_grouped_copoint_deck(named["M(K4)"])
        assert recover_n(grouped) == 6
        with pytest.raises(ExactnessError, match="not an invariant"):
            recover_n(Deck("copoint", grouped.entries))

    def test_corpus(self, corpus, cache):
        for name, m in corpus:
            if m.r < 2 or m.n > 6:
                continue
            assert recover_n(copoint_deck(m)) == m.n, name

    def test_large_ground_sets(self, monkeypatch):
        # U(2, N) has N one-point copoints and U(3, N) has C(N, 2) two-point
        # ones; each evaluation of the deck equation costs an n!, so the
        # search must go straight to the n where the lower bound reaches 1
        evaluated = []

        def counted(a):
            evaluated.append(sum(a))
            return gamma_one(a)
        monkeypatch.setattr(gcat.reconstruction, "gamma_one", counted)
        point, line = g_invariant(uniform(1, 1)), g_invariant(uniform(2, 2))
        assert recover_n(Deck("copoint", ((point, 3000),))) == 3000
        assert recover_n(Deck("copoint", ((line, math.comb(2000, 2)),))) \
            == 2000
        assert evaluated == [3000, 2000]


class TestCopointDeck:
    def test_k4(self, named):
        k4 = named["M(K4)"]
        assert reconstruct_from_copoint_deck(copoint_deck(k4)).coeffs \
            == {"111000": 576, "110100": 144}

    def test_fig1(self):
        fig1 = load_data("fig1-m")
        deck = copoint_deck(fig1)
        sizes = sorted((g.n, mult) for g, mult in deck.entries)
        assert sizes == [(2, 9), (3, 2)]
        assert reconstruct_from_copoint_deck(deck).coeffs \
            == {"111000": 648, "110100": 72}

    def test_h_sums_equivalent(self, corpus, cache):
        for name, m in corpus:
            if m.r < 2 or m.n > 6:
                continue
            g = cache.g(name, m)
            assert reconstruct_from_copoint_deck(copoint_deck(m)) == g, name
            assert reconstruct_from_copoint_deck(
                size_grouped_copoint_deck(m)) == g, name

    def test_rebuilds_pass_the_total_check(self, corpus, monkeypatch):
        # the last total the rebuild checks is its own output's, against 1
        # copy of n!
        checked = []

        def recording(g, copies=1):
            checked.append((g, copies))
            return invariant_copies(g, copies)
        monkeypatch.setattr(gcat.reconstruction, "invariant_copies", recording)
        for name, m in corpus:
            if m.r < 2 or m.n > 6:
                continue
            for deck in (copoint_deck(m), size_grouped_copoint_deck(m)):
                g = reconstruct_from_copoint_deck(deck)
                assert checked[-1][0] is g and checked[-1][1] == 1, name

    def test_loop_count_consistency_guard(self):
        # a loopy entry of another rank fails the rank check; two points and
        # a point with two loops pass recover_n (n = 4), but the rebuilt
        # keys start with 0 and with 2 loops
        good = g_invariant(uniform(2, 3))
        deck = Deck("copoint", ((good, 2), (g_invariant(
            uniform(1, 2).add_loop()), 1)))
        with pytest.raises(ExactnessError, match="mixed ranks"):
            reconstruct_from_copoint_deck(deck)
        point = g_invariant(uniform(1, 1))
        loopy = g_invariant(uniform(1, 1).add_loop().add_loop())
        deck = Deck("copoint", ((point, 2), (loopy, 1)))
        assert recover_n(deck) == 4
        with pytest.raises(ExactnessError, match="loop counts"):
            reconstruct_from_copoint_deck(deck)


class TestCircuitDeck:
    def test_k4(self, named):
        k4 = named["M(K4)"]
        deck = circuit_deck(k4)
        assert sum(mult for _, mult in deck.entries) == 7  # 4 triangles + 3 quads
        assert circuit_deck_reconstruct(deck) == g_invariant(k4)

    def test_duality_with_copoint_deck(self, corpus, cache):
        from gcat import g_dual
        for name, m in corpus:
            if m.n > 5 or m.n - m.r < 2:
                continue
            entries = {}
            for g, mult in circuit_deck(m).entries:
                key = g_dual(g)
                entries[key] = entries.get(key, 0) + mult
            expect = {}
            for g, mult in copoint_deck(m.dual()).entries:
                expect[g] = expect.get(g, 0) + mult
            assert entries == expect, name

    def test_corpus(self, corpus, cache):
        for name, m in corpus:
            if m.n > 6 or m.n - m.r < 2:
                continue
            assert circuit_deck_reconstruct(circuit_deck(m)) \
                == cache.g(name, m), name

    def test_degenerate_circuit_deck_rejected(self):
        # the only circuit of U(2,3) is the ground set; its contraction is
        # the rank-0 empty matroid, which cannot determine n
        with pytest.raises(ExactnessError):
            circuit_deck_reconstruct(circuit_deck(uniform(2, 3)))


def _doubled(g):
    return GInvariant(g.n, g.r, {k: 2 * v for k, v in g.coeffs.items()})


class TestGirthDeck:
    def test_u23(self):
        deck = girth_deck(uniform(2, 3), 1)
        assert girth_deck_reconstruct(deck, 1, 3).coeffs == {"110": 6}

    def test_k4_simple(self, named):
        k4 = named["M(K4)"]
        deck = girth_deck(k4, 1)
        assert sum(mult for _, mult in deck.entries) == 6
        assert girth_deck_reconstruct(deck, 1, 6) == g_invariant(k4)

    def test_g0_degenerates_to_identity(self, named):
        m = named["fig1-M"]
        deck = girth_deck(m, 0)
        assert girth_deck_reconstruct(deck, 0, 6) == g_invariant(m)

    def test_high_girth(self):
        # girth of U(3,4) is 4, so g = 2 is admissible
        m = uniform(3, 4)
        deck = girth_deck(m, 2)
        assert girth_deck_reconstruct(deck, 2, 4) == g_invariant(m)

    def test_shape_mismatch(self):
        deck = girth_deck(uniform(2, 3), 1)
        with pytest.raises(ValueError):
            girth_deck_reconstruct(deck, 1, 5)

    def test_mixed_shapes_rejected(self, named):
        # M(K4)/e has shape (5, 2) and U(2,4) shape (4, 2)
        deck = girth_deck(named["M(K4)"], 1)
        entries = deck.entries + ((g_invariant(uniform(2, 4)), 1),)
        with pytest.raises(ExactnessError, match="mixed shapes"):
            girth_deck_reconstruct(Deck(deck.role, entries), 1, 6)

    # K4's deck is one entry M(K4)/e x 6.  Doubled, it totals 2 * 5!; one
    # more copy rebuilds a vector totalling 840, not 6!; doubled and half as
    # often it would rebuild G(K4) from an entry that is no invariant
    @pytest.mark.parametrize("edit", [
        lambda g, mult: (_doubled(g), mult), lambda g, mult: (g, mult + 1),
        lambda g, mult: (_doubled(g), mult // 2)],
        ids=["doubled", "extra-copy", "doubled-half-as-often"])
    def test_deck_of_no_invariant_rejected(self, named, edit):
        deck = girth_deck(named["M(K4)"], 1)
        entries = (edit(*deck.entries[0]),) + deck.entries[1:]
        with pytest.raises(ExactnessError, match="not an invariant"):
            girth_deck_reconstruct(Deck(deck.role, entries), 1, 6)


class TestDeckType:
    def test_role_validation(self):
        with pytest.raises(ValueError):
            Deck("points", ())
        with pytest.raises(ValueError):
            Deck("copoint", ((g_invariant(uniform(1, 1)), 0),))
