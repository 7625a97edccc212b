"""Seeded generators for the matroid payloads the workloads feed to gcat.

Every generator takes a `random.Random` and returns a matroid file payload
(the JSON shape `gcat.serialization.matroid_from_json` reads).  Nothing here
imports gcat: the program receives only the generated inputs.
"""

from __future__ import annotations

import itertools


def graph(rng, edges: int, verts: int) -> dict:
    """Random connected simple graph: a random spanning tree plus extra edges.

    Vertex labels and edge order are shuffled so that equal shapes still give
    distinct payloads.
    """
    if not verts - 1 <= edges <= verts * (verts - 1) // 2:
        raise ValueError(f"no simple connected graph with {verts} vertices "
                         f"and {edges} edges")
    order = list(range(verts))
    rng.shuffle(order)
    chosen = set()
    for i in range(1, verts):
        u, v = order[i], order[rng.randrange(i)]
        chosen.add((min(u, v), max(u, v)))
    rest = [p for p in itertools.combinations(range(verts), 2)
            if p not in chosen]
    chosen.update(rng.sample(rest, edges - len(chosen)))
    edge_list = [list(p) for p in chosen]
    edge_list.sort()
    rng.shuffle(edge_list)
    return {"name": f"graph-{verts}v-{edges}e", "ground_set_size": edges,
            "presentation": {"kind": "graph", "edges": edge_list}}


def uniform(r: int, n: int) -> dict:
    return {"name": f"U({r},{n})", "ground_set_size": n,
            "presentation": {"kind": "uniform", "rank": r}}


def linear_space(rng, n: int) -> dict:
    """Rank-3 paving matroid whose large lines form a random partial linear
    space: lines of 3 or 4 points, no two sharing two points."""
    covered = set()
    lines = []
    for _ in range(4 * n):
        size = rng.choice((3, 3, 4))
        pts = rng.sample(range(n), size)
        pairs = {(min(a, b), max(a, b)) for a, b in itertools.combinations(pts, 2)}
        if pairs & covered:
            continue
        covered |= pairs
        lines.append(sorted(pts))
    lines.sort()
    return {"name": f"paving-{n}-{len(lines)}lines", "ground_set_size": n,
            "presentation": {"kind": "paving_copoints", "rank": 3,
                             "copoints": lines}}


def cyclic_group_table(rng, order: int) -> list[list[int]]:
    """Multiplication table of Z_order under a random relabeling."""
    perm = list(range(order))
    rng.shuffle(perm)
    table = [[0] * order for _ in range(order)]
    for a in range(order):
        for b in range(order):
            table[perm[a]][perm[b]] = perm[(a + b) % order]
    return table


def dowling(rng, order: int) -> dict:
    return {"name": f"dowling-Z{order}", "ground_set_size": 3 + 3 * order,
            "presentation": {"kind": "dowling3",
                             "group_table": cyclic_group_table(rng, order)}}


def nested(rng, n: int, chain) -> dict:
    """Nested matroid given by a chain of cyclic flats.

    `chain` lists (size, rank) pairs above the empty flat, ending at (n, r).
    Sizes, ranks and nullities (size minus rank) must strictly increase,
    which makes the cyclic-flat min-formula a matroid rank function.  The
    ground set is relabeled at random.
    """
    chain = [(0, 0)] + [tuple(p) for p in chain]
    if chain[-1][0] != n or not all(
            s2 > s1 and r2 > r1 and s2 - r2 > s1 - r1
            for (s1, r1), (s2, r2) in zip(chain, chain[1:])):
        raise ValueError(f"not a nested chain on {n} elements: {chain}")
    labels = list(range(n))
    rng.shuffle(labels)
    flats = [{"elements": sorted(labels[:s]), "rank": k} for s, k in chain]
    return {"name": f"nested-{n}-{len(chain)}", "ground_set_size": n,
            "presentation": {"kind": "cyclic_flats", "flats": flats}}
