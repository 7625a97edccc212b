#!/usr/bin/env python3
"""Rebuild an invariant from unlabeled decks of minors.

The deck of copoint restrictions determines the whole invariant, including
the ground-set size, which falls out of an exact integer equation: the
orderings the deck accounts for at size n, against n!, a ratio strictly
decreasing in n.
"""

from gcat import (circuit_deck, circuit_deck_reconstruct, copoint_deck,
                  from_graph, g_invariant, rank_deck, recover_n,
                  reconstruct_from_copoint_deck, slice_assemble, uniform)

K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
k4 = from_graph(K4)
g = g_invariant(k4)

deck = copoint_deck(k4)
print("copoint deck of M(K4):")
for entry, mult in deck.entries:
    print(f"  {mult} x invariant of an {entry.n}-point copoint:",
          dict(entry.items()))
print("recovered ground-set size:", recover_n(deck))
assert reconstruct_from_copoint_deck(deck) == g
print("copoint deck rebuilds the invariant: True")

assert circuit_deck_reconstruct(circuit_deck(k4)) == g
print("circuit deck rebuilds the invariant: True")

for k in range(k4.r + 1):
    assert slice_assemble(rank_deck(k4, k), k) == g
print("slicing identity holds at every rank 0..", k4.r)

# the deck genuinely forgets labels: two different matroids, same deck
m = uniform(1, 2).direct_sum(uniform(1, 1))
print("\ndeck entries are unlabeled multisets;",
      "isomorphic copoints collapse with multiplicities:")
for entry, mult in copoint_deck(m).entries:
    print(f"  {mult} x", dict(entry.items()))
