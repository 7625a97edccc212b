"""Acceptance criteria, one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Brute-force oracles stay within n <= 9.
"""

import itertools

from gcat import (canonical_key, cat_qcone, catenary, catenary_from_g,
                  catenary_from_config, circuit_deck, circuit_deck_reconstruct,
                  configuration_of, copoint_deck, detect_free_product,
                  dowling3, elements_of, free_product_rank_sequence,
                  from_graph, g_brute_force, g_free_extension, g_free_product,
                  g_from_catenary, g_invariant, g_relax, gamma_expand,
                  pinchpoints, rank_deck,
                  reconstruct_from_copoint_deck, recover_n,
                  size_grouped_copoint_deck, slice_assemble, tutte_brute_force,
                  tutte_from_g, uniform)
from gcat.parameters import (chain_count, family_counts, flat_count,
                             flat_count_coloops, has_spanning_circuit)
from gcat import GInvariant
from conftest import K4_EDGES, K5_EDGES, load_data


def test_c01_k4_invariant_and_catenary():
    k4 = from_graph(K4_EDGES)
    assert catenary(k4).counts == {(0, 1, 1, 4): 6, (0, 1, 2, 3): 12}
    assert g_invariant(k4).coeffs == {"111000": 576, "110100": 144}


def test_c02_fig1_pair_shares_everything():
    m = load_data("fig1-m")
    n = load_data("fig1-n")
    expect_cat = {(0, 1, 2, 3): 6, (0, 1, 1, 4): 18}
    expect_g = {"111000": 648, "110100": 72}
    for mat in (m, n):
        assert catenary(mat).counts == expect_cat
        assert g_invariant(mat).coeffs == expect_g
    cm, cn = configuration_of(m), configuration_of(n)
    assert canonical_key(cm) == canonical_key(cn)
    assert catenary_from_config(cm).counts == expect_cat
    assert catenary_from_config(cn).counts == expect_cat


def test_c03_fig2_pair_tutte_equal_catenary_not():
    m1 = load_data("fig2-m1")
    m2 = load_data("fig2-m2")
    assert tutte_from_g(g_invariant(m1)) == tutte_from_g(g_invariant(m2))
    assert catenary(m1).counts == {(0, 1, 1, 5): 4, (0, 1, 2, 4): 7,
                                   (0, 1, 3, 3): 4, (0, 2, 1, 4): 1,
                                   (0, 2, 2, 3): 2}
    assert catenary(m2).counts == {(0, 1, 1, 5): 6, (0, 1, 2, 4): 3,
                                   (0, 1, 3, 3): 6, (0, 2, 1, 4): 3,
                                   (0, 2, 2, 3): 1}


def test_c04_gamma_displays():
    assert gamma_expand((0, 1, 1, 4)).coeffs == {"111000": 24}
    assert gamma_expand((0, 1, 2, 3)).coeffs == {"111000": 36, "110100": 12}
    assert gamma_expand((0, 1, 3, 2)).coeffs == {
        "111000": 36, "110100": 24, "110010": 12}
    assert gamma_expand((0, 1, 4, 1)).coeffs == {
        "111000": 24, "110100": 24, "110010": 24, "110001": 24}


def test_c05_k5_catenary_two_routes():
    k5 = from_graph(K5_EDGES)
    expect = {(0, 1, 2, 3, 4): 60, (0, 1, 1, 4, 4): 30,
              (0, 1, 1, 2, 6): 60, (0, 1, 2, 1, 6): 30}
    assert catenary(k5).counts == expect
    via_recursion = {}
    for x in k5.copoints():
        sub = catenary(k5.restrict(x))
        a_r = k5.n - x.bit_count()
        for comp, v in sub.counts.items():
            key = comp + (a_r,)
            via_recursion[key] = via_recursion.get(key, 0) + v
    assert via_recursion == expect


def test_c06_free_extension_example():
    g = GInvariant(5, 3, {"11100": 96, "11010": 24})
    assert g_free_extension(g).coeffs == {"111000": 648, "110100": 72}
    nx = load_data("fig1-n").delete(1 << 5)
    assert g_invariant(nx) == g
    assert g_free_extension(g_invariant(nx)) == g_invariant(nx.free_extension())
    assert nx.free_extension() == load_data("fig1-n")


def test_c07_free_product_table_and_oracle():
    assert free_product_rank_sequence("101", "10010", (3, 4, 5)) == "11100010"
    m1 = uniform(1, 2).direct_sum(uniform(1, 1))
    m2 = uniform(1, 3).direct_sum(uniform(1, 2))
    assert g_invariant(m1).coeffs == {"110": 4, "101": 2}
    assert g_invariant(m2).coeffs == {"11000": 72, "10100": 36, "10010": 12}
    got = g_free_product(g_invariant(m1), g_invariant(m2))
    assert got == g_brute_force(m1.free_product(m2))


def test_c08_qcone_at_q5():
    qc = cat_qcone(catenary(load_data("fig1-m")), 5)
    assert qc.counts == {(0, 1, 5, 10, 15): 36, (0, 1, 5, 5, 20): 108,
                         (0, 1, 2, 13, 15): 150, (0, 1, 1, 9, 20): 450,
                         (0, 1, 2, 3, 25): 750, (0, 1, 1, 4, 25): 2250}


def test_c09_relaxation(corpus, cache):
    base = g_invariant(uniform(1, 2).direct_sum(uniform(1, 1)))
    lifted = {k: v for k, v in base.coeffs.items()}
    lifted["110"] = lifted.get("110", 0) + 2
    lifted["101"] = lifted.get("101", 0) - 2
    assert GInvariant(3, 2, lifted) == g_invariant(uniform(2, 3))
    assert g_relax(base) == g_invariant(uniform(2, 3))
    checked = 0
    for name, m in corpus:
        g = None
        for x in m.copoints():
            k = x.bit_count()
            if m.rank(x) != k - 1:
                continue
            if not all(m.rank(x & ~(1 << e)) == k - 1 for e in elements_of(x)):
                continue
            g = g if g is not None else cache.g(name, m)
            assert g_relax(g) == g_invariant(m.relax(x)), name
            checked += 1
    assert checked >= 10


def test_c10_dowling_invariance():
    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    z22 = [[a ^ b for b in range(4)] for a in range(4)]
    q1, q2 = dowling3(z4), dowling3(z22)
    assert (q1.n, q1.r) == (15, 3)
    c1, c2 = catenary(q1), catenary(q2)
    assert c1 == c2
    assert g_from_catenary(c1) == g_from_catenary(c2)


# -- criterion 11: the oracle-equivalence property suite -----------------------

def _exhaustive_chain_count(m, h, k, sizes):
    levels = [{f for f in m.flats_of_rank(j) if f.bit_count() == s}
              for j, s in zip(range(h, k + 1), sizes)]

    def extend(f, idx):
        if idx == len(levels):
            return 1
        return sum(extend(g, idx + 1) for g in levels[idx] if f & ~g == 0)

    return sum(extend(f, 1) for f in levels[0])


def test_c11a_corpus_size(corpus):
    assert len(corpus) >= 60
    assert all(m.n <= 8 for _, m in corpus)


def test_c11b_invariant_oracles(corpus, cache):
    for name, m in corpus:
        g = cache.g(name, m)
        assert g == cache.g_bf(name, m), name
        assert tutte_from_g(g) == tutte_brute_force(m), name
        fresh = GInvariant(g.n, g.r, g.coeffs)  # holds no coordinates
        assert catenary_from_g(fresh) == cache.cat(name, m), name


def test_c11c_slicing_every_rank(corpus, cache):
    for name, m in corpus:
        g = cache.g(name, m)
        for k in range(m.r + 1):
            assert slice_assemble(rank_deck(m, k), k) == g, (name, k)


def test_c11d_deck_reconstruction(corpus, cache):
    for name, m in corpus:
        g = cache.g(name, m)
        if m.r >= 2:
            deck = copoint_deck(m)
            assert recover_n(deck) == m.n, name
            assert reconstruct_from_copoint_deck(deck) == g, name
            assert reconstruct_from_copoint_deck(
                size_grouped_copoint_deck(m)) == g, name
        if m.n - m.r >= 2:
            assert circuit_deck_reconstruct(circuit_deck(m)) == g, name


def test_c11e_parameter_censuses(corpus, cache):
    for name, m in corpus:
        c = cache.cat(name, m)
        g = cache.g(name, m)
        flats_by = {}
        for k in range(m.r + 1):
            for f in m.flats_of_rank(k):
                flats_by.setdefault(k, {}).setdefault(
                    f.bit_count(), []).append(f)
        for k in range(m.r + 1):
            for s in range(m.n + 1):
                group = flats_by.get(k, {}).get(s, [])
                assert flat_count(c, k, s) == len(group), (name, k, s)
                for cc in range(k + 1):
                    expect = sum(
                        1 for f in group
                        if sum(1 for e in elements_of(f)
                               if m.rank(f & ~(1 << e)) == k - 1) == cc)
                    assert flat_count_coloops(c, k, s, cc) == expect, \
                        (name, k, s, cc)
        for h in range(m.r + 1):
            for k in range(h, m.r + 1):
                for sizes in itertools.combinations(range(m.n + 1), k - h + 1):
                    assert chain_count(c, h, k, sizes) \
                        == _exhaustive_chain_count(m, h, k, sizes), \
                        (name, h, k, sizes)
        circuits = m.circuits()
        cocircuits = m.cocircuits()
        for s in range(m.n + 1):
            assert family_counts(g, "circuit", s) == sum(
                1 for x in circuits if x.bit_count() == s), (name, s)
            assert family_counts(g, "cocircuit", s) == sum(
                1 for x in cocircuits if x.bit_count() == s), (name, s)


def test_c11f_freeproduct_detection(corpus, cache):
    for name, m in corpus:
        # pinchpoints straight from the cyclic-flat masks, so matroids with
        # coloops (whose lattice tops out below rank r) are covered too
        zf = m.cyclic_flats()
        masks = [f for f, _ in zf]
        interior = [f for f in masks
                    if f not in (min(masks, key=int.bit_count),
                                 max(masks, key=int.bit_count))]
        pins = [f for f in interior
                if all(f & ~g2 == 0 or g2 & ~f == 0 for g2 in masks)]
        rep = detect_free_product(cache.g(name, m))
        assert rep.is_proper == bool(pins), name
        expected_pairs = {
            (g_invariant(m.restrict(f)), g_invariant(m.contract(f)))
            for f in pins}
        got_pairs = {(left, right) for _, _, left, right in rep.factors}
        assert got_pairs == expected_pairs, name


def test_c12_hamiltonicity():
    assert has_spanning_circuit(g_invariant(from_graph(K4_EDGES)))
    assert has_spanning_circuit(g_invariant(from_graph(K5_EDGES)))
    bowtie = load_data("bowtie")
    assert not has_spanning_circuit(g_invariant(bowtie))
