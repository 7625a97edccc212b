"""Configurations and the catenary-from-configuration recursion."""

import itertools
import random

import pytest

import gcat.configuration
from gcat import (Configuration, ExactnessError, basis_count_config,
                  canonical_key, catenary, catenary_from_config, config_minor,
                  config_truncate, configuration_of, from_graph,
                  independent_copoint_count, uniform)
from gcat.ginvariant import _flag_walk
from gcat.serialization import configuration_from_json, configuration_to_json
from conftest import DATA, K4_EDGES, load_data

# two parallel classes of size 3 in a rank-2 matroid on 5 elements: the
# labels pass the order checks but no matroid has this lattice
NOT_A_MATROID = Configuration((0, 3, 3, 5), (0, 1, 1, 2),
                              frozenset({(0, 1), (0, 2), (0, 3), (1, 3),
                                         (2, 3)}))


# every coloop-free matroid file in tests/data
DATA_CONFIGS = sorted(p.stem for p in DATA.glob("*.json")
                      if not load_data(p.stem).coloops())


def complete_graph(v):
    return from_graph(list(itertools.combinations(range(v), 2)))


def chain_config(labels) -> Configuration:
    m = len(labels)
    sizes, ranks = zip(*labels)
    less = frozenset((i, j) for i in range(m) for j in range(i + 1, m))
    return Configuration(sizes, ranks, less)


def exhaustive_independent_copoints(m):
    return sum(1 for x in m.copoints()
               if m.rank(x) == x.bit_count())


class TestConfigurationType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Configuration((0, 3), (0, 2), frozenset({(1, 0), (0, 1)}))
        with pytest.raises(ValueError):
            Configuration((0, 3), (0, 3), frozenset({(0, 1)}))  # s-rho equal
        with pytest.raises(ValueError):
            Configuration((0, 2, 3), (0, 1, 2),
                          frozenset({(0, 1), (0, 2)}))  # two maxima
        with pytest.raises(ValueError):
            Configuration((1, 3), (1, 2), frozenset({(0, 1)}))  # bottom rank

    def test_covers(self):
        c = chain_config([(0, 0), (2, 1), (4, 2)])
        assert c.covers() == [(0, 1), (1, 2)]

    def test_up_masks(self):
        c = chain_config([(0, 0), (2, 1), (4, 2)])
        assert c.up == (0b110, 0b100, 0)
        assert c.below(2) == [0, 1] and c.above(0) == [1, 2]

    def test_from_covers_closes_the_order(self):
        c = chain_config([(0, 0), (2, 1), (4, 2), (7, 3)])
        assert Configuration.from_covers(c.sizes, c.ranks, c.covers()) == c
        with pytest.raises(ValueError):
            Configuration.from_covers((0, 2), (0, 1), [(0, 2)])

    def test_k6_json_round_trip(self):
        c = configuration_of(complete_graph(6))
        assert configuration_from_json(configuration_to_json(c)) == c


class TestConfigurationOf:
    def test_fig1_shape(self):
        m = load_data("fig1-m")
        c = configuration_of(m)
        assert sorted(zip(c.sizes, c.ranks)) == [(0, 0), (3, 2), (3, 2), (6, 3)]
        n = configuration_of(load_data("fig1-n"))
        assert canonical_key(c) == canonical_key(n)

    def test_u24(self):
        c = configuration_of(uniform(2, 4))
        assert sorted(zip(c.sizes, c.ranks)) == [(0, 0), (4, 2)]

    def test_coloop_rejected(self):
        with pytest.raises(ValueError):
            configuration_of(uniform(1, 1))

    def test_order_is_containment(self, corpus):
        for name, m in corpus:
            if m.coloops():
                continue
            zf = [f for f, _ in m.cyclic_flats()]
            contained = {(i, j) for i, f in enumerate(zf)
                         for j, g in enumerate(zf) if f != g and f & ~g == 0}
            assert configuration_of(m).less == contained, name


class TestMinorsAndTruncate:
    def test_fig1_interval_minors(self):
        c = configuration_of(load_data("fig1-m"))
        line = next(i for i in range(c.m) if (c.sizes[i], c.ranks[i]) == (3, 2))
        rest = config_minor(c, line, "restrict")
        assert sorted(zip(rest.sizes, rest.ranks)) == [(0, 0), (3, 2)]
        contr = config_minor(c, line, "contract")
        assert sorted(zip(contr.sizes, contr.ranks)) == [(0, 0), (3, 1)]
        top = next(i for i in range(c.m) if c.ranks[i] == 3)
        assert canonical_key(config_minor(c, top, "restrict")) \
            == canonical_key(c)

    def test_truncate_examples(self):
        k4 = configuration_of(from_graph(K4_EDGES))
        t = config_truncate(k4)
        assert sorted(zip(t.sizes, t.ranks)) == [(0, 0), (6, 2)]
        u24 = configuration_of(uniform(2, 4))
        assert sorted(zip(config_truncate(u24).sizes,
                          config_truncate(u24).ranks)) == [(0, 0), (4, 1)]
        rank1 = configuration_of(uniform(1, 3))
        single = config_truncate(rank1)
        assert (single.sizes, single.ranks) == ((3,), (0,))

    def test_truncate_matches_matroid_level(self, corpus):
        for name, m in corpus:
            if m.n > 6 or m.r < 1 or m.coloops():
                continue
            if m.truncate().coloops():
                continue
            lhs = canonical_key(config_truncate(configuration_of(m)))
            rhs = canonical_key(configuration_of(m.truncate()))
            assert lhs == rhs, name

    def test_minor_matches_matroid_level(self, corpus):
        for name, m in corpus:
            if m.n > 6 or m.coloops():
                continue
            zf = m.cyclic_flats()
            conf = configuration_of(m)
            for idx, (f, k) in enumerate(zf):
                # configuration_of lists nodes in the same (rank, mask) order
                rest = m.restrict(f)
                assert canonical_key(config_minor(conf, idx, "restrict")) \
                    == canonical_key(configuration_of(rest)), (name, idx)
                contr = m.contract(f)
                if not contr.coloops():
                    assert canonical_key(config_minor(conf, idx, "contract")) \
                        == canonical_key(configuration_of(contr)), (name, idx)


class TestIota:
    def test_examples(self):
        assert independent_copoint_count(
            configuration_of(uniform(2, 3))) == 3
        assert independent_copoint_count(
            configuration_of(load_data("fig1-m"))) == 9
        assert independent_copoint_count(
            configuration_of(uniform(1, 2))) == 1

    def test_corpus_vs_exhaustive(self, corpus):
        for name, m in corpus:
            if m.n > 6 or m.coloops() or m.closure(0):
                continue
            got = independent_copoint_count(configuration_of(m))
            assert got == exhaustive_independent_copoints(m), name

    def test_not_a_matroid(self):
        with pytest.raises(ExactnessError, match="negative"):
            independent_copoint_count(NOT_A_MATROID)


class TestBasisCount:
    def test_examples(self):
        assert basis_count_config(chain_config([(0, 0), (4, 2)])) == 6
        assert basis_count_config(
            configuration_of(load_data("fig1-m"))) == 18
        assert basis_count_config(
            configuration_of(from_graph(K4_EDGES))) == 16


class TestCatenaryFromConfig:
    def test_fig1(self):
        c = configuration_of(load_data("fig1-m"))
        assert catenary_from_config(c).counts == {
            (0, 1, 2, 3): 6, (0, 1, 1, 4): 18}

    def test_two_node_uniform(self):
        assert catenary_from_config(chain_config([(0, 0), (5, 2)])).counts \
            == {(0, 1, 4): 5}

    def test_fig2_m1_table(self):
        c = configuration_of(load_data("fig2-m1"))
        assert catenary_from_config(c).counts == {
            (0, 1, 1, 5): 4, (0, 1, 2, 4): 7, (0, 1, 3, 3): 4,
            (0, 2, 1, 4): 1, (0, 2, 2, 3): 2}

    def test_corpus(self, corpus, cache):
        # `catenary` of a list is this solve, so a list is checked against
        # its flag walk
        for name, m in corpus:
            if m.coloops():
                continue
            conf = configuration_of(m)
            want = (cache.cat(name, m) if m._cyclic_flats_of is None
                    else _flag_walk(m))
            assert catenary_from_config(conf) == want, name

    def test_same_config_same_catenary(self):
        m = load_data("fig1-m")
        n = load_data("fig1-n")
        assert catenary_from_config(configuration_of(m)) \
            == catenary_from_config(configuration_of(n)) == catenary(m) \
            == catenary(n) == _flag_walk(m) == _flag_walk(n)

    def test_prism_lattice(self):
        # 14 cyclic flats across four rank levels, with incomparable nodes
        # meeting at joins: a stiffer workout than the corpus provides
        from conftest import PRISM_EDGES
        from gcat import from_graph
        prism = from_graph(PRISM_EDGES)
        conf = configuration_of(prism)
        assert conf.m == 14
        assert catenary_from_config(conf) == catenary(prism)

    def test_k6(self):
        m = complete_graph(6)
        assert catenary_from_config(configuration_of(m)) == catenary(m)

    def test_not_a_matroid(self):
        with pytest.raises(ExactnessError, match="negative"):
            catenary_from_config(NOT_A_MATROID)

    def test_no_state_outlives_a_call(self):
        def module_state():
            out = {}
            for name, value in vars(gcat.configuration).items():
                if name.startswith("__"):
                    continue
                if isinstance(value, (dict, list, set)):
                    out[name] = len(value)
                elif hasattr(value, "cache_info"):
                    out[name] = value.cache_info().currsize
            return out

        before = module_state()
        for m in (load_data("fig1-m"), complete_graph(5), uniform(3, 6)):
            conf = configuration_of(m)
            for _ in range(2):
                catenary_from_config(conf)
                independent_copoint_count(conf)
                canonical_key(conf)
        assert module_state() == before
        assert not any(hasattr(value, "cache_info")
                       for value in vars(gcat.configuration).values())


class TestCanonicalKey:
    def test_relabeling_invariance(self):
        a = chain_config([(0, 0), (2, 1), (4, 2)])
        # same chain presented with nodes permuted
        b = Configuration((4, 0, 2), (2, 0, 1),
                          frozenset({(1, 0), (1, 2), (2, 0)}))
        assert canonical_key(a) == canonical_key(b)

    def test_ties_left_by_refinement_are_broken(self):
        # two 2-chains from one bottom to one top; color refinement alone
        # leaves the two (2, 3) nodes and the two (3, 5) nodes tied, and
        # sorting by node index paired them differently in these two
        sizes, ranks = (0, 3, 3, 5, 5, 8), (0, 2, 2, 3, 3, 4)
        a = Configuration.from_covers(
            sizes, ranks, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)])
        b = Configuration.from_covers(
            sizes, ranks, [(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)])
        assert canonical_key(a) == canonical_key(b)

    def test_tied_orders_that_differ_keep_their_keys(self):
        # four (3, 2) nodes under four (5, 3) nodes, each below two: one
        # 8-cycle of covers against two 4-cycles, which refinement alone
        # cannot tell apart
        sizes = (0, 3, 3, 3, 3, 5, 5, 5, 5, 8)
        ranks = (0, 2, 2, 2, 2, 3, 3, 3, 3, 4)
        outer = [(0, i) for i in range(1, 5)] + [(j, 9) for j in range(5, 9)]
        ring = Configuration.from_covers(sizes, ranks, outer + [
            (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 8), (4, 8), (4, 5)])
        twins = Configuration.from_covers(sizes, ranks, outer + [
            (1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (3, 8), (4, 7), (4, 8)])
        assert canonical_key(ring) != canonical_key(twins)

    @pytest.mark.parametrize("name", DATA_CONFIGS)
    def test_relabelings_give_one_key(self, name):
        conf = configuration_of(load_data(name))
        key, rng = canonical_key(conf), random.Random(name)
        for _ in range(5):
            perm = rng.sample(range(conf.m), conf.m)
            place = {v: i for i, v in enumerate(perm)}
            relabeled = Configuration(
                [conf.sizes[v] for v in perm], [conf.ranks[v] for v in perm],
                {(place[i], place[j]) for i, j in conf.less})
            assert canonical_key(relabeled) == key

    def test_distinguishes_labels(self):
        a = chain_config([(0, 0), (2, 1), (5, 2)])
        b = chain_config([(0, 0), (3, 1), (5, 2)])
        assert canonical_key(a) != canonical_key(b)
