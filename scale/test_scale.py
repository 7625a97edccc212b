"""The paper's counts at sizes no brute-force oracle reaches.

Closed forms serve as the oracles: the flag total of M(K_v) is the number
of maximal chains of the partition lattice, v!(v-1)!/2^(v-1), and its
basis count is Cayley's v^(v-2).  Not part of the tier-1 suite; run as

    PYTHONPATH=src python -m pytest scale/
"""

import itertools
import math

from gcat import basis_count, catenary, from_graph


def complete(v):
    return from_graph(list(itertools.combinations(range(v), 2)),
                      validate=False)


def test_k9_flags_and_spanning_trees():
    c = catenary(complete(9))
    assert (c.n, c.r) == (36, 8)
    assert c.total() == 57_153_600
    assert c.total() == math.factorial(9) * math.factorial(8) // 2 ** 8
    assert basis_count(c) == 9 ** 7
