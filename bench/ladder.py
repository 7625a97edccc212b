"""The ROADMAP baseline table, measured again in the traced run.

Each row is timed once, with gcat's module caches emptied and its inputs
built fresh beforehand, and printed beside the figure the ROADMAP records.
The figures are reported, never gated.
"""

from __future__ import annotations

from time import perf_counter

from tracing import cold_caches

# metric name, ROADMAP row, ROADMAP seconds
ROWS = (
    ("ladder.catenary_K5_s", "catenary K5", 0.0097),
    ("ladder.catenary_K6_s", "catenary K6", 1.09),
    ("ladder.catenary_U4_14_s", "catenary U(4,14)", 0.43),
    ("ladder.g_shuffle_K4_K5_s", "g_shuffle K4+K5", 0.292),
    ("ladder.g_free_product_K4_K5_s", "g_free_product K4#K5", 1.15),
    ("ladder.run_verify_K5_deep_s", "run_verify(K5, deep=True)", 0.43),
    # stands in for the `catenary_from_g` K7 row
    ("ladder.catenary_from_g_K4_K5_s", "catenary_from_g G(K4+K5) [K7 row]",
     0.262),
)
WAITING = ("catenary K7 (158 s) and catenary U(5,16) (6.6 s) wait for "
           "ROADMAP item 2 (rank oracle); they are not run")


def complete(v: int):
    return [(a, b) for a in range(v) for b in range(a + 1, v)]


def cases(api):
    """Per metric: a builder of the inputs (untimed) and the timed call."""
    M, G, C = api.matroid, api.ginvariant, api.constructions
    k4g = lambda: G.g_invariant(M.from_graph(complete(4)))
    k5g = lambda: G.g_invariant(M.from_graph(complete(5)))
    return {
        "ladder.catenary_K5_s": (lambda: M.from_graph(complete(5)), G.catenary),
        "ladder.catenary_K6_s": (lambda: M.from_graph(complete(6)), G.catenary),
        "ladder.catenary_U4_14_s": (lambda: M.uniform(4, 14), G.catenary),
        "ladder.g_shuffle_K4_K5_s": (lambda: (k4g(), k5g()),
                                     lambda p: C.g_shuffle(*p)),
        "ladder.g_free_product_K4_K5_s": (lambda: (k4g(), k5g()),
                                          lambda p: C.g_free_product(*p)),
        "ladder.run_verify_K5_deep_s": (
            lambda: M.from_graph(complete(5)),
            lambda m: api.verify.run_verify(m, deep=True)),
        "ladder.catenary_from_g_K4_K5_s": (lambda: C.g_shuffle(k4g(), k5g()),
                                           G.catenary_from_g),
    }


def run(api) -> dict[str, float]:
    table = cases(api)
    out = {}
    for name, _, _ in ROWS:
        build, call = table[name]
        arg = build()
        cold_caches()
        t0 = perf_counter()
        call(arg)
        out[name] = perf_counter() - t0
    return out


def report(times, file):
    print("layer ladder (one timing each, caches cold; never gated):", file=file)
    for name, row, roadmap in ROWS:
        print(f"  {row:<36} {times[name]:9.4f} s   ROADMAP {roadmap:.4g} s",
              file=file)
    print(f"  {WAITING}", file=file)
