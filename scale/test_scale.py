"""The paper's counts at sizes no brute-force oracle reaches.

Closed forms serve as the oracles: the flag total of M(K_v) is the number
of maximal chains of the partition lattice, v!(v-1)!/2^(v-1), and its
basis count is Cayley's v^(v-2).  The configuration theorem is checked
against the flag count of the matroid itself.  Not part of the tier-1
suite; run as

    PYTHONPATH=src python -m pytest scale/
"""

import itertools
import math

import pytest

from gcat import (basis_count, catenary, catenary_from_config,
                  configuration_of, from_graph)
from gcat.serialization import configuration_from_json, configuration_to_json


def complete(v):
    return from_graph(list(itertools.combinations(range(v), 2)),
                      validate=False)


def test_k9_flags_and_spanning_trees():
    c = catenary(complete(9))
    assert (c.n, c.r) == (36, 8)
    assert c.total() == 57_153_600
    assert c.total() == math.factorial(9) * math.factorial(8) // 2 ** 8
    assert basis_count(c) == 9 ** 7


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
