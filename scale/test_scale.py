"""The paper's counts at sizes no brute-force oracle reaches.

Closed forms serve as the oracles: the flag total of M(K_v) is the number
of maximal chains of the partition lattice, v!(v-1)!/2^(v-1), its basis
count is Cayley's v^(v-2), and its G-invariant sums to n!.  Its Tutte
polynomial counts the same trees at (1, 1), the 2^n subsets at (2, 2) and
the v! acyclic orientations at (2, 0).  A connected graph with n edges on
v vertices, each edge made a path of k edges, has k^(n-v+1) times its
trees, and a cycle C_n has n trees and n!/2 flags.  The configuration
theorem is checked against the flag count of the matroid itself, a
nested list's data against a basis count layer by layer,
free-product detection against the parts it was built from, and
copoint-deck reconstruction against the invariant it was taken from.
Not part of the tier-1 suite; run as

    PYTHONPATH=src python -m pytest scale/
"""

import itertools
import math
import time

import pytest

from gcat import (GInvariant, basis_count, catenary, catenary_from_config,
                  catenary_from_g, configuration_of, copoint_deck,
                  detect_free_product, from_cyclic_flats, from_graph,
                  g_add_loop, g_free_coextension, g_free_product,
                  g_from_catenary, g_invariant, g_lift, parameters,
                  reconstruct_from_copoint_deck, recover_n, tutte_from_g)
from gcat.serialization import configuration_from_json, configuration_to_json


def complete(v):
    return from_graph(list(itertools.combinations(range(v), 2)))


def subdivided(edges, k):
    """Each edge replaced by a path of k + 1 edges through new vertices."""
    out, fresh = [], itertools.count(max(map(max, edges)) + 1)
    for u, v in edges:
        inner = [next(fresh) for _ in range(k)]
        out += itertools.pairwise([u, *inner, v])
    return out


def theta(paths, length):
    """`paths` paths of `length` edges each between vertices 0 and 1."""
    return subdivided([(0, 1)] * paths, length - 1)


@pytest.mark.parametrize("edges, trees, flags", [
    # C40: U(39, 40), so 40 bases and 40!/2 flags
    (list(itertools.pairwise([*range(40), 0])), 40, math.factorial(40) // 2),
    # three 10-edge paths between two vertices: a spanning tree drops an
    # edge from each of two paths, 3 * 10 * 10 ways
    (theta(3, 10), 300, None),
])
def test_small_corank_graphs_are_solved_from_their_cyclic_flats(edges, trees,
                                                               flags):
    t0 = time.perf_counter()
    c = catenary(from_graph(edges))
    assert time.perf_counter() - t0 < 0.1
    assert basis_count(c) == trees
    assert flags is None or c.total() == flags


def test_k5_subdivided_twice():
    # n = 30, r = 24: a spanning tree keeps 4 whole paths of K5's 125 trees
    # and drops one of the 3 edges from each of the other 6 paths
    m = from_graph(subdivided(list(itertools.combinations(range(5), 2)), 2))
    t0 = time.perf_counter()
    c = catenary(m)
    assert time.perf_counter() - t0 < 2
    assert (c.n, c.r) == (30, 24)
    assert basis_count(c) == 125 * 3 ** 6


@pytest.mark.parametrize("length, trees, seconds", [(8, 10_864, 2),
                                                    (9, 40_545, 20)])
def test_ladder(length, trees, seconds):
    # two paths of `length` vertices joined by `length` rungs: n = 3L - 2,
    # r = 2L - 1, and the spanning-tree counts of the ladders run
    # 1, 4, 15, 56, 209, ... (t_L = 4 t_(L-1) - t_(L-2))
    top = [(v, v + 1) for v in range(length - 1)]
    m = from_graph(top + [(u + length, v + length) for u, v in top]
                   + [(v, v + length) for v in range(length)])
    t0 = time.perf_counter()
    c = catenary(m)
    assert time.perf_counter() - t0 < seconds
    assert (c.n, c.r) == (3 * length - 2, 2 * length - 1)
    assert basis_count(c) == trees


def test_nested_list_of_40_is_solved_from_its_configuration():
    # the chain (6, 2) < (15, 5) < (28, 8) < (40, 11) above the empty set;
    # the list names its cyclic flats, so no flat is walked
    chain = [(6, 2), (15, 5), (28, 8), (40, 11)]
    m = from_cyclic_flats(40, [([], 0)] + [(range(s), k) for s, k in chain])
    t0 = time.perf_counter()
    c = catenary(m)
    assert time.perf_counter() - t0 < 1
    assert (c.n, c.r) == (40, 11)
    # a basis is an 11-set holding at most k elements of each chain flat
    # of rank k, so it is counted layer by layer: ways[j] counts the
    # j-sets of the layers so far
    ways, below = {0: 1}, 0
    for size, k in chain:
        layer, nxt = size - below, {}
        for j, w in ways.items():
            for t in range(min(layer, k - j) + 1):
                nxt[j + t] = nxt.get(j + t, 0) + w * math.comb(layer, t)
        ways, below = nxt, size
    assert basis_count(c) == ways[11]


def test_k9_flags_and_spanning_trees():
    c = catenary(complete(9))
    assert (c.n, c.r) == (36, 8)
    assert c.total() == 57_153_600
    assert c.total() == math.factorial(9) * math.factorial(8) // 2 ** 8
    assert basis_count(c) == 9 ** 7
    g = g_from_catenary(c)
    assert g.total() == math.factorial(36)
    # a fresh copy holds no coordinates, so this is the solve
    assert catenary_from_g(GInvariant(g.n, g.r, g.coeffs)) == c
    t = tutte_from_g(g)
    assert t.evaluate(1, 1) == 9 ** 7  # spanning trees
    assert t.evaluate(2, 2) == 2 ** 36
    assert t.evaluate(2, 0) == math.factorial(9)  # acyclic orientations


def test_k10_flags_and_spanning_trees():
    # 115,975 flats walked with covers listed by the graph; G(K10) is not
    # expanded here
    c = catenary(complete(10))
    assert (c.n, c.r) == (45, 9)
    assert c.total() == 2_571_912_000
    assert c.total() == math.factorial(10) * math.factorial(9) // 2 ** 9
    assert basis_count(c) == 10 ** 8


def test_k5_k6_free_product_detect_then_rebuild(monkeypatch):
    left, right = g_invariant(complete(5)), g_invariant(complete(6))
    g = g_free_product(left, right)
    assert g.n == 25 and g.total() == math.factorial(25)
    rep = detect_free_product(g)
    assert [(k, s) for k, s, _, _ in rep.factors] == [(4, 10)]
    (_, _, got_left, got_right), = rep.factors
    assert (got_left, got_right) == (left, right)
    assert g_free_product(got_left, got_right) == g
    # g's data hold their coloop counts and the split parts, which hold
    # theirs, so a second detection solves nothing
    solved = []
    solve = parameters._solve_coloops
    monkeypatch.setattr(parameters, "_solve_coloops",
                        lambda c, k, s: solved.append((k, s)) or solve(c, k, s))
    assert detect_free_product(g) == rep
    assert solved == []


@pytest.mark.parametrize("v, nodes, pairs", [(7, 205, 1_709),
                                             (8, 871, 12_253)])
def test_configuration_theorem_on_complete_graphs(v, nodes, pairs):
    m = complete(v)
    conf = configuration_of(m)
    assert (conf.m, len(conf.less)) == (nodes, pairs)
    assert configuration_from_json(configuration_to_json(conf)) == conf
    c = catenary_from_config(conf)
    assert c == catenary(m)
    assert c.total() == math.factorial(v) * math.factorial(v - 1) // 2 ** (v - 1)


def test_k8_copoint_deck_reconstruction():
    m = complete(8)
    deck = copoint_deck(m)
    assert recover_n(deck) == 28
    assert reconstruct_from_copoint_deck(deck) == g_invariant(m)


def _promoted(key):
    return [key.replace("0", "1", 1)]


def _looped(key):
    return [key[:i] + "0" + key[i:] for i in range(len(key) + 1)]


def _rewritten(g, n, r, *rewrites):
    """g with each symbol rewritten by the paper's rules, in turn."""
    keys = g.coeffs
    for rewrite in rewrites:
        acc = {}
        for key, c in keys.items():
            for s in rewrite(key):
                acc[s] = acc.get(s, 0) + c
        keys = acc
    return GInvariant(n, r, keys)


@pytest.mark.parametrize("op, shape, rewrites", [
    (g_lift, (28, 8), (_promoted,)),
    (g_add_loop, (29, 7), (_looped,)),
    (g_free_coextension, (29, 8), (_looped, _promoted))],
    ids=["lift", "add_loop", "free_coextension"])
def test_k8_co_constructions_follow_the_symbol_rules(op, shape, rewrites):
    # each goes through g_dual; a fresh copy of G(K8) holds no dual
    g = g_invariant(complete(8))
    assert (g.n, g.r, len(g.coeffs)) == (28, 7, 2_496)
    fresh = GInvariant(g.n, g.r, g.coeffs)
    t0 = time.perf_counter()
    got = op(fresh)
    assert time.perf_counter() - t0 < 1
    assert got == _rewritten(g, *shape, *rewrites)
