"""The benchmark's three workloads.

A workload is built from a seed: its constructor generates the inputs and
precomputes what the requests need (the set-up), `run(i)` performs request i
and returns its canonical output text, and `check(i, out)` tests that output
outside the timed loop, raising `CheckFailed` when it is wrong.  Requests
cycle through a fixed schedule of request classes, so every prefix of a run
has the same mix whatever the seed; the seed picks the instances.

gcat is reached through `api`, a namespace of its modules whose attributes
are looked up at call time, so the tracing wrappers apply.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import gen

DEFAULT_SEED = 1
MODULES = ("matroid", "ginvariant", "constructions", "parameters",
           "freeproduct", "reconstruction", "configuration", "serialization",
           "verify", "cli")


class CheckFailed(Exception):
    """A request's output is wrong."""


def expect(cond, what: str):
    if not cond:
        raise CheckFailed(what)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def digest(text: str) -> str:
    """sha256 of an output, cut to 16 hex digits to keep references small."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def import_gcat() -> SimpleNamespace:
    """Import gcat afresh (module caches cold) and return its modules."""
    for key in [k for k in sys.modules if k == "gcat" or k.startswith("gcat.")]:
        del sys.modules[key]
    return SimpleNamespace(**{name: importlib.import_module(f"gcat.{name}")
                              for name in MODULES})


def check_ginvariant(api, g):
    """G's total is n!, and the gamma-basis solve succeeds and round-trips."""
    G = api.ginvariant
    expect(g.total() == math.factorial(g.n), f"total {g.total()} != {g.n}!")
    c = G.catenary_from_g(g)
    expect(G.g_from_catenary(c) == g, "gamma round trip changed G")
    return c


def check_tutte(api, t, m):
    """Tutte polynomial against the corank-nullity oracle where n <= 10."""
    if m is not None and m.n <= 10:
        want = api.ginvariant.tutte_brute_force(m, limit=10)
        expect(t == want, "Tutte polynomial differs from the subset oracle")


# -- lattice ------------------------------------------------------------------

# One cycle of request classes.  Sizes straddle the exchange-validation
# limit (n <= 12 is validated), so both validation and the rank/closure path
# of the flag enumeration carry load.  The cycle is stratified so that the
# 90th percentile sits in the middle of a deterministic band: three heavy
# random classes (paving n = 12, Dowling Z3, graph with 13 edges) fill the
# top 6% of requests, U(4,13) fills the next 8%, and every other class is
# lighter.  A seed then changes which instances lie beyond the 90th
# percentile, but not the request class it falls on.
LATTICE_CYCLE = (
    ("graph", 8, 5), ("uniform", 4, 13), ("paving", 9), ("dowling", 1),
    ("nested", 8, ((2, 1), (5, 2), (8, 4))),
    ("graph", 9, 6), ("uniform", 4, 10), ("paving", 10), ("dowling", 2),
    ("nested", 9, ((3, 1), (9, 3))),
    ("graph", 10, 7), ("uniform", 3, 12), ("paving", 11), ("dowling", 3),
    ("nested", 10, ((2, 1), (5, 2), (10, 4))),
    ("graph", 12, 11), ("uniform", 4, 12), ("paving", 12), ("dowling", 4),
    ("nested", 12, ((5, 1), (12, 3))),
    ("graph", 13, 13), ("uniform", 3, 13), ("graph", 11, 9), ("uniform", 4, 11),
    ("nested", 13, ((6, 2), (13, 3))),
    ("graph", 8, 6), ("uniform", 4, 13), ("paving", 9), ("dowling", 1),
    ("nested", 8, ((2, 1), (5, 2), (8, 4))),
    ("graph", 9, 7), ("uniform", 4, 10), ("paving", 10), ("dowling", 2),
    ("nested", 9, ((3, 1), (9, 3))),
    ("graph", 10, 8), ("uniform", 4, 13), ("paving", 11), ("dowling", 2),
    ("nested", 10, ((2, 1), (5, 2), (10, 4))),
    ("graph", 12, 12), ("uniform", 4, 13), ("paving", 11), ("dowling", 4),
    ("nested", 12, ((5, 1), (12, 3))),
    ("graph", 11, 10), ("uniform", 3, 13), ("graph", 11, 9), ("uniform", 4, 11),
    ("nested", 13, ((6, 2), (13, 3))),
)


def lattice_payload(rng, spec) -> dict:
    kind = spec[0]
    if kind == "graph":
        return gen.graph(rng, spec[1], spec[2])
    if kind == "uniform":
        return gen.uniform(spec[1], spec[2])
    if kind == "paving":
        return gen.linear_space(rng, spec[1])
    if kind == "dowling":
        return gen.dowling(rng, spec[1])
    return gen.nested(rng, spec[1], spec[2])


class Lattice:
    """A matroid presentation goes in; catenary data, G and Tutte come out."""

    name = "lattice"
    size = 750
    cycle = len(LATTICE_CYCLE)

    def __init__(self, api, seed: int):
        self.api = api
        rng = random.Random(f"lattice-{seed}")
        self.payloads = [lattice_payload(rng, LATTICE_CYCLE[i % len(LATTICE_CYCLE)])
                         for i in range(self.size)]

    def run(self, i: int) -> str:
        ser, G = self.api.serialization, self.api.ginvariant
        m = ser.matroid_from_json(self.payloads[i % self.size])
        c = G.catenary(m)
        g = G.g_from_catenary(c)
        t = G.tutte_from_g(g)
        return ser.canonical_dumps({"catenary": ser.catenary_to_json(c),
                                    "g": ser.ginvariant_to_json(g),
                                    "tutte": ser.tutte_to_json(t)})

    def check(self, i: int, out: str):
        ser, G = self.api.serialization, self.api.ginvariant
        doc = json.loads(out)
        g = ser.ginvariant_from_json(doc["g"])
        c = check_ginvariant(self.api, g)
        expect(c == ser.catenary_from_json(doc["catenary"]),
               "catenary data differs from the gamma solve of G")
        t = tutte_from_json(self.api, doc["tutte"])
        expect(t == G.tutte_from_g(g), "Tutte output differs from G")
        payload = dict(self.payloads[i % self.size], validate=False)
        check_tutte(self.api, t, ser.matroid_from_json(payload))


def tutte_from_json(api, doc):
    return api.ginvariant.TuttePolynomial(
        {(int(i), int(j)): int(c) for i, j, c in doc["terms"]})


# -- algebra ------------------------------------------------------------------

# Pool of small matroids (n <= 9) whose invariants, decks and configurations
# are precomputed in setup; the seed picks the random instances.
POOL_SPECS = (
    [("graph", e, v) for e, v in ((5, 4), (6, 4), (6, 5), (7, 5), (7, 6),
                                  (8, 5), (8, 6), (8, 7), (9, 6), (9, 7),
                                  (9, 8))] * 3
    + [("uniform", r, n) for r, n in ((1, 4), (2, 5), (3, 6), (2, 7), (3, 7),
                                      (4, 8), (3, 8), (5, 9))]
    + [("paving", n) for n in (7, 8, 9, 7, 8, 9)]
    + [("nested", n, chain) for n, chain in (
        (6, ((2, 1), (6, 3))), (7, ((3, 1), (7, 3))), (7, ((3, 2), (7, 4))),
        (8, ((4, 2), (8, 4))), (8, ((2, 1), (5, 2), (8, 3))),
        (9, ((2, 1), (6, 3), (9, 4))), (9, ((4, 2), (9, 5))))]
    + [("dowling", 1), ("dowling", 2)]
)

# Direct sums and free products have n1 + n2 <= 14 and are drawn from bands
# of their replay count |G1| * |G2| * C(n1 + n2, n1), in turn, so that the
# cost mix does not hang on the pool a seed happens to draw.
SUM_BANDS = (0, 1500, 5000, 12000)
PRODUCT_BANDS = (0, 800, 2000, 4000)
ALGEBRA_CYCLE = ("sum", "unary", "census", "product", "deck", "detect",
                 "sum", "config", "census", "deck", "product", "unary",
                 "census", "deck", "detect", "config")
CENSUS_KINDS = ("flats", "circuits", "hamiltonian", "split")
DECK_ROLES = ("copoint", "h-sums", "circuit", "rank-k")
UNARY_OPS = ("dual", "truncate", "lift", "freeext", "freecoext")


def pool_item(api, payload) -> SimpleNamespace:
    """A pool matroid with everything requests and checks need."""
    ser, G, R, CF = (api.serialization, api.ginvariant, api.reconstruction,
                     api.configuration)
    m = ser.matroid_from_json(payload)
    cat = G.catenary(m)
    g = G.g_from_catenary(cat)
    item = SimpleNamespace(payload=payload, m=m, g=g, cat=cat, decks={}, config=None)
    if m.r >= 2:
        item.decks["copoint"] = R.copoint_deck(m)
        item.decks["h-sums"] = R.size_grouped_copoint_deck(m)
    if m.n - m.r >= 2:
        item.decks["circuit"] = R.circuit_deck(m)
    item.rank_k = min(1, m.r)
    item.decks["rank-k"] = R.rank_deck(m, item.rank_k)
    if not m.coloops():
        item.config = CF.configuration_of(m)
    census: dict = {}
    for f, k in m.flats():
        census.setdefault((k, f.bit_count()), []).append(f)
    item.flats = census
    item.unique = [(k, s, fs[0]) for (k, s), fs in sorted(census.items())
                   if len(fs) == 1 and 0 < k < m.r]
    item.hyperplanes = [x for x in m.copoints() if is_circuit(m, x)]
    item.simple = all(comp[0] == 0 and (m.r == 0 or comp[1] == 1)
                      for comp in cat.counts)
    item.graphic = payload["presentation"]["kind"] == "graph"
    return item


def build_pool(api, rng, specs) -> list:
    """Pool items for the specs, dropping repeats of an invariant."""
    pool, seen = [], set()
    for spec in specs:
        item = pool_item(api, lattice_payload(rng, spec))
        item.spec = spec
        if item.g not in seen:
            seen.add(item.g)
            pool.append(item)
    return pool


def is_circuit(m, x: int) -> bool:
    k = x.bit_count()
    return m.rank(x) == k - 1 and all(
        m.rank(x & ~(1 << e)) == k - 1 for e in range(m.n) if x >> e & 1)


class Algebra:
    """Invariants go in and invariants come out; no matroid in the loop."""

    name = "algebra"
    size = 6000
    cycle = len(ALGEBRA_CYCLE)

    def __init__(self, api, seed: int):
        self.api = api
        rng = random.Random(f"algebra-{seed}")
        self.pool = pool = build_pool(api, rng, POOL_SPECS)
        idx = range(len(pool))
        pairs = {}
        for a, b in itertools.permutations(idx, 2):
            ga, gb = pool[a].g, pool[b].g
            if ga.n + gb.n <= 14:
                pairs[a, b] = (len(ga.coeffs) * len(gb.coeffs)
                               * math.comb(ga.n + gb.n, ga.n))
        draws = {"item": Draw(rng, list(idx)),
                 "config": Draw(rng, [i for i in idx if pool[i].config])}
        for kind, edges in (("sum", SUM_BANDS), ("product", PRODUCT_BANDS)):
            for band, (lo, hi) in enumerate(zip(edges, edges[1:])):
                draws[kind, band] = Draw(rng, [p for p, rep in pairs.items()
                                               if lo <= rep < hi])
        small = [p for p, rep in pairs.items() if rep < PRODUCT_BANDS[-1]
                 and pool[p[0]].m.n + pool[p[1]].m.n <= 10]
        C = api.constructions
        self.detect_products = {p: C.g_free_product(pool[p[0]].g, pool[p[1]].g)
                                for p in rng.sample(small, min(24, len(small)))}
        draws["product-detect"] = Draw(rng, sorted(self.detect_products))
        self.requests = []
        nth = dict.fromkeys(ALGEBRA_CYCLE, 0)
        for i in range(self.size):
            kind = ALGEBRA_CYCLE[i % len(ALGEBRA_CYCLE)]
            self.requests.append(self._request(rng, kind, nth[kind], draws))
            nth[kind] += 1

    def _request(self, rng, kind, turn, draws):
        """Request tuple for the `turn`-th request of this kind."""
        pool = self.pool
        if kind in ("sum", "product"):
            return (kind, draws[kind, turn % (len(SUM_BANDS) - 1)].next())
        if kind == "config":
            return (kind, draws["config"].next())
        if kind == "census":
            which = CENSUS_KINDS[turn % len(CENSUS_KINDS)]
            while True:
                i = draws["item"].next()
                if which != "split" or pool[i].unique:
                    break
            if which == "split":
                k, s, _ = rng.choice(pool[i].unique)
                return (kind, i, which, k, s)
            return (kind, i, which)
        if kind == "deck":
            role = DECK_ROLES[turn % len(DECK_ROLES)]
            while True:
                i = draws["item"].next()
                if role in pool[i].decks:
                    return (kind, i, role)
        if kind == "detect":
            if turn % 2:
                return (kind, "product", draws["product-detect"].next())
            return (kind, "item", draws["item"].next())
        # unary: a short chain of constructions, kept valid by tracking (n, r)
        i = draws["item"].next()
        item = pool[i]
        if turn % 5 == 4 and item.simple and item.graphic and item.m.n <= 6:
            return (kind, i, ("qcone",))
        n, r = item.m.n, item.m.r
        ops = []
        if item.hyperplanes and turn % 3 == 0:
            ops.append("relax")
        for _ in range(rng.randint(1, 3)):
            choices = [op for op in UNARY_OPS
                       if not (op == "truncate" and r < 1)
                       and not (op == "lift" and r >= n)]
            op = rng.choice(choices)
            ops.append(op)
            n += op in ("freeext", "freecoext")
            r += {"truncate": -1, "lift": 1, "freecoext": 1}.get(op, 0)
            if op == "dual":
                r = n - r
        return (kind, i, tuple(ops))

    # -- the request ----------------------------------------------------

    def run(self, i: int) -> str:
        api = self.api
        ser, G, C, P = (api.serialization, api.ginvariant, api.constructions,
                        api.parameters)
        req = self.requests[i % self.size]
        kind = req[0]
        pool = self.pool
        if kind in ("sum", "product"):
            a, b = req[1]
            op = C.g_shuffle if kind == "sum" else C.g_free_product
            g = op(pool[a].g, pool[b].g)
            return ser.canonical_dumps({
                "g": ser.ginvariant_to_json(g),
                "catenary": ser.catenary_to_json(G.catenary_from_g(g)),
                "tutte": ser.tutte_to_json(G.tutte_from_g(g))})
        if kind == "unary":
            g = pool[req[1]].g
            for op in req[2]:
                if op == "qcone":
                    g = G.g_from_catenary(C.cat_qcone(G.catenary_from_g(g), 2))
                else:
                    g = unary_op(C, op)(g)
            return ser.canonical_dumps(ser.ginvariant_to_json(g))
        if kind == "census":
            g = pool[req[1]].g
            which = req[2]
            if which == "flats":
                c = G.catenary_from_g(g)
                out = {f"{k},{s}": str(P.flat_count(c, k, s))
                       for k in range(g.r + 1) for s in range(g.n + 1)}
            elif which == "circuits":
                out = {str(s): str(P.family_counts(g, "circuit", s))
                       for s in range(1, g.r + 2)}
            elif which == "hamiltonian":
                out = {"hamiltonian": P.has_spanning_circuit(g)}
            else:
                left, right = P.g_split_at_unique_flat(g, req[3], req[4])
                out = {"restriction": ser.ginvariant_to_json(left),
                       "contraction": ser.ginvariant_to_json(right)}
            return ser.canonical_dumps(out)
        if kind == "deck":
            R = api.reconstruction
            item, role = pool[req[1]], req[2]
            deck = item.decks[role]
            if role == "circuit":
                g = R.circuit_deck_reconstruct(deck)
            elif role == "rank-k":
                g = R.slice_assemble(deck, item.rank_k)
            else:
                g = R.reconstruct_from_copoint_deck(deck)
            return ser.canonical_dumps(ser.ginvariant_to_json(g))
        if kind == "detect":
            g = (self.detect_products[req[2]] if req[1] == "product"
                 else pool[req[2]].g)
            return ser.canonical_dumps(
                ser.report_to_json(api.freeproduct.detect_free_product(g)))
        c = api.configuration.catenary_from_config(pool[req[1]].config)
        return ser.canonical_dumps(ser.catenary_to_json(c))

    # -- the check ------------------------------------------------------

    def check(self, i: int, out: str):
        api = self.api
        ser, G = api.serialization, api.ginvariant
        req = self.requests[i % self.size]
        kind = req[0]
        pool = self.pool
        doc = json.loads(out)
        if kind in ("sum", "product"):
            a, b = (pool[j].m for j in req[1])
            g = ser.ginvariant_from_json(doc["g"])
            c = check_ginvariant(api, g)
            expect(c == ser.catenary_from_json(doc["catenary"]),
                   "catenary output differs from the gamma solve of G")
            t = tutte_from_json(api, doc["tutte"])
            expect(t == G.tutte_from_g(g), "Tutte output differs from G")
            if a.n + b.n <= 10:
                check_tutte(api, t, a.direct_sum(b) if kind == "sum"
                            else a.free_product(b))
        elif kind == "unary":
            g = ser.ginvariant_from_json(doc)
            check_ginvariant(api, g)
            item = pool[req[1]]
            if "qcone" not in req[2]:
                m = item.m
                for op in req[2]:
                    m = matroid_op(m, op, item)
                check_tutte(api, G.tutte_from_g(g), m)
        elif kind == "census":
            self._check_census(req, doc)
        elif kind == "deck":
            expect(ser.ginvariant_from_json(doc) == pool[req[1]].g,
                   f"{req[2]} deck did not rebuild G")
        elif kind == "detect":
            if req[1] == "product":
                a, b = (pool[j].m for j in req[2])
                m = a.free_product(b)
            else:
                m = pool[req[2]].m
            expect(doc == expected_report(api, m), "free-product report differs "
                   "from the pinchpoints of the cyclic-flat lattice")
        else:
            expect(ser.catenary_from_json(doc) == pool[req[1]].cat,
                   "configuration catenary differs from the flag count")

    def _check_census(self, req, doc):
        api = self.api
        item = self.pool[req[1]]
        m, which = item.m, req[2]
        if which == "flats":
            want = {f"{k},{s}": str(len(item.flats.get((k, s), ())))
                    for k in range(m.r + 1) for s in range(m.n + 1)}
            expect(doc == want, "flat counts differ from the flat lattice")
        elif which == "circuits":
            sizes = [c.bit_count() for c in m.circuits()]
            want = {str(s): str(sizes.count(s)) for s in range(1, m.r + 2)}
            expect(doc == want, "circuit counts differ from the circuits")
        elif which == "hamiltonian":
            want = any(c.bit_count() == m.r + 1 for c in m.circuits())
            expect(doc == {"hamiltonian": want}, "spanning-circuit answer wrong")
        else:
            flat = item.flats[(req[3], req[4])][0]
            ser, G = api.serialization, api.ginvariant
            expect(ser.ginvariant_from_json(doc["restriction"])
                   == G.g_invariant(m.restrict(flat)), "restriction wrong")
            expect(ser.ginvariant_from_json(doc["contraction"])
                   == G.g_invariant(m.contract(flat)), "contraction wrong")


class Draw:
    """Draws without replacement, reshuffling when the list runs out."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.left: list = []

    def next(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class Rotation:
    """Draws in a fixed order, round and round.

    Every seed then puts the same pool positions (the same sizes and kinds
    of matroid) on the same requests; the seed only picks the instances.
    """

    def __init__(self, items):
        self.items = list(items)
        self.turn = 0

    def next(self):
        item = self.items[self.turn % len(self.items)]
        self.turn += 1
        return item


def unary_op(C, op):
    return {"dual": C.g_dual, "truncate": C.g_truncate, "lift": C.g_lift,
            "freeext": C.g_free_extension, "freecoext": C.g_free_coextension,
            "relax": C.g_relax}[op]


def matroid_op(m, op, item):
    if op == "relax":
        return m.relax(item.hyperplanes[0])
    return {"dual": m.dual, "truncate": m.truncate, "lift": m.lift,
            "freeext": m.free_extension, "freecoext": m.free_coextension}[op]()


def expected_report(api, m) -> dict:
    """Free-product report read off the explicit cyclic-flat lattice."""
    G = api.ginvariant
    masks = [f for f, _ in m.cyclic_flats()]
    bottom = min(masks, key=int.bit_count)
    top = max(masks, key=int.bit_count)
    pins = sorted((f for f in masks if f not in (bottom, top)
                   and all(f & ~y == 0 or y & ~f == 0 for y in masks)),
                  key=lambda f: (m.rank(f), f))
    ser = api.serialization
    factors = [{"rank": m.rank(f), "size": f.bit_count(),
                "left": ser.ginvariant_to_json(G.g_invariant(m.restrict(f))),
                "right": ser.ginvariant_to_json(G.g_invariant(m.contract(f)))}
               for f in pins]
    return {"is_proper": bool(pins), "factors": factors}


# -- cli ------------------------------------------------------------------------

CLI_POOL_SPECS = (
    ("uniform", 2, 4), ("graph", 5, 4), ("graph", 4, 4), ("graph", 6, 4),
    ("graph", 7, 5), ("graph", 8, 5), ("graph", 8, 6),
    ("graph", 9, 6), ("graph", 10, 7), ("graph", 6, 5), ("graph", 7, 6),
    ("paving", 7), ("paving", 8), ("paving", 9), ("uniform", 2, 6),
    ("uniform", 3, 7), ("nested", 8, ((4, 2), (8, 4))),
    ("nested", 7, ((3, 1), (7, 3))),
    ("dowling", 1), ("dowling", 2), ("graph", 10, 6),
)
# One cycle covers every subcommand and option.  `verify` always runs on a
# matroid of one fixed shape, `CLI_VERIFY_SPEC` (the same up to relabeling
# on every seed), and `verify --deep` makes one sixth of the cycle: the
# deep runs are the heaviest requests, and the 90th percentile falls in the
# middle of their band instead of in the tail of process start-up times.
CLI_VERIFY_SPEC = ("nested", 8, ((4, 2), (8, 4)))
CLI_CYCLE = (
    "ginv", "tutte", "op dual", "params --flats", "catenary",
    "verify --deep", "op truncate", "verify", "params --coloops", "op sum",
    "ginv --basis gamma", "verify --deep", "op lift", "reconstruct copoint",
    "config", "params --circuits", "op freeext", "verify --deep",
    "reconstruct circuit", "detect-freeproduct", "op freecoext",
    "config-catenary", "verify --deep", "params --hamiltonian", "op relax",
    "reconstruct rank-k", "op freeproduct", "verify --deep",
    "reconstruct h-sums", "op qcone",
)


def child_env(root) -> dict:
    """Environment for a child interpreter that imports gcat from `root`."""
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class Cli:
    """One-shot `python -m gcat.cli` processes on small generated files."""

    name = "cli"
    size = 300
    cycle = len(CLI_CYCLE)

    def __init__(self, api, seed: int, root, workdir):
        self.api = api
        self.root = root
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        ser = api.serialization
        rng = random.Random(f"cli-{seed}")
        self.pool = pool = build_pool(api, rng, CLI_POOL_SPECS)
        self.verify_item = next(j for j, item in enumerate(pool)
                                if item.spec == CLI_VERIFY_SPEC)
        for j, item in enumerate(pool):
            item.files = {"matroid": self._write(f"m{j}", item.payload),
                          "g": self._write(f"g{j}", ser.ginvariant_to_json(item.g))}
            for role, deck in item.decks.items():
                item.files[role] = self._write(f"d{j}-{role}", ser.deck_to_json(deck))
            if item.config:
                item.files["config"] = self._write(
                    f"c{j}", ser.configuration_to_json(item.config))
        idx = range(len(pool))
        pairs = [(a, b) for a, b in itertools.permutations(idx, 2)
                 if pool[a].m.n + pool[b].m.n <= 10]
        self.draws = {"item": Rotation(list(idx)), "pair": Draw(rng, pairs)}
        self.requests = [self._request(rng, CLI_CYCLE[i % len(CLI_CYCLE)])
                         for i in range(self.size)]
        self.env = child_env(root)

    def _write(self, stem, doc) -> str:
        path = os.path.join(self.workdir, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical(doc))
        return path

    def _pick(self, ok):
        for _ in range(10 * len(self.pool)):
            j = self.draws["item"].next()
            if ok(self.pool[j]):
                return j
        raise ValueError("no pool item fits the request")

    def _request(self, rng, command):
        """(command, pool indices, argv) for one request."""
        words = command.split()
        head = words[0]
        pool = self.pool
        if head in ("ginv", "catenary", "config"):
            j = self._pick(lambda it: head != "config" or it.config)
            return (command, (j,), words[:1] + [pool[j].files["matroid"]] + words[1:])
        if head == "verify":
            j = self.verify_item
            return (command, (j,), words[:1] + [pool[j].files["matroid"]] + words[1:])
        if head == "config-catenary":
            j = self._pick(lambda it: it.config)
            return (command, (j,), [head, pool[j].files["config"]])
        if head == "reconstruct":
            role = words[1]
            j = self._pick(lambda it: role in it.decks)
            return (command, (j,), [head, "--deck", pool[j].files[role],
                                    "--role", role])
        if head == "op" and words[1] in ("sum", "freeproduct"):
            a, b = self.draws["pair"].next()
            return (command, (a, b), words + [pool[a].files["g"], pool[b].files["g"]])
        if head == "op":
            op = words[1]
            ok = {"truncate": lambda it: it.m.r >= 1,
                  "lift": lambda it: it.m.r < it.m.n,
                  "relax": lambda it: it.hyperplanes,
                  "qcone": lambda it: it.simple and it.graphic and it.m.n <= 6,
                  }.get(op, lambda it: True)
            j = self._pick(ok)
            extra = ["--q", "2"] if op == "qcone" else []
            return (command, (j,), words + [pool[j].files["g"]] + extra)
        if head == "params":
            j = self._pick(lambda it: it.m.r >= 1)
            m = pool[j].m
            opt = words[1]
            if opt == "--flats":
                k, s = rng.choice(sorted(pool[j].flats))
                extra = [str(k), str(s)]
            elif opt == "--coloops":
                k, s = rng.choice(sorted(pool[j].flats))
                extra = [str(k), str(s), str(rng.randint(0, k))]
            elif opt == "--circuits":
                extra = [str(rng.randint(1, m.r + 1))]
            else:
                extra = []
            return (command, (j,), [head, pool[j].files["g"], opt] + extra)
        j = self._pick(lambda it: True)   # tutte, detect-freeproduct
        return (command, (j,), [head, pool[j].files["g"]])

    def run(self, i: int) -> str:
        argv = self.requests[i % self.size][2]
        proc = subprocess.run([sys.executable, "-m", "gcat.cli", *argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              timeout=120)
        if proc.returncode != 0:
            raise CheckFailed(f"exit {proc.returncode}: "
                              f"{proc.stderr.decode(errors='replace')[-300:]}")
        return proc.stdout.decode("utf-8")

    def replay(self, i: int) -> str:
        """The same request through `gcat.cli.main` in this process."""
        argv = self.requests[i % self.size][2]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.api.cli.main(list(argv))
        if code != 0:
            raise CheckFailed(f"exit {code}: {err.getvalue()[-300:]}")
        return out.getvalue()

    def check(self, i: int, out: str):
        api = self.api
        ser, G = api.serialization, api.ginvariant
        command, items, argv = self.requests[i % self.size]
        doc = json.loads(out)
        expect(out == canonical(doc), "stdout is not canonical JSON")
        item = self.pool[items[0]]
        head = command.split()[0]
        if command in ("ginv", "reconstruct copoint", "reconstruct circuit",
                       "reconstruct rank-k", "reconstruct h-sums"):
            expect(ser.ginvariant_from_json(doc) == item.g, "G differs")
        elif command in ("catenary", "ginv --basis gamma", "config-catenary"):
            expect(ser.catenary_from_json(doc) == item.cat, "catenary differs")
        elif command == "tutte":
            t = tutte_from_json(api, doc)
            expect(t == G.tutte_from_g(item.g), "Tutte differs from G")
            check_tutte(api, t, item.m)
        elif head == "op":
            check_ginvariant(api, ser.ginvariant_from_json(doc))
        elif head == "verify":
            expect(doc["passed"] is True, "verify reported a failed check")
        elif command == "detect-freeproduct":
            expect(doc == expected_report(api, item.m), "free-product report wrong")
        elif command == "params --flats":
            k, s = int(argv[-2]), int(argv[-1])
            expect(doc == {"flats": str(len(item.flats.get((k, s), ())))},
                   "flat count wrong")
        elif command == "params --circuits":
            s = int(argv[-1])
            want = sum(1 for c in item.m.circuits() if c.bit_count() == s)
            expect(doc == {"circuits": str(want)}, "circuit count wrong")
        elif command == "params --hamiltonian":
            want = any(c.bit_count() == item.m.r + 1 for c in item.m.circuits())
            expect(doc == {"has_spanning_circuit": want}, "Hamiltonicity wrong")
        elif command == "config":
            got = ser.configuration_from_json(doc)
            expect(api.configuration.canonical_key(got)
                   == api.configuration.canonical_key(item.config),
                   "configuration differs")
