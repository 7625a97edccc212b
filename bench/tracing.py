"""Outside-in tracing of gcat's layers.

`Tracer.install` wraps public functions of the `gcat` modules from here, in
every module namespace (and class) that holds them, so calls between gcat
modules are seen too; `uninstall` puts the originals back.  The program
itself is not changed.

Each wrapped call is a span: name, start, end, parent span and the request
it belongs to.  Self time is a span's duration minus the time its child
spans cover.  Spans are kept in memory and written out at the end of a run.
The hot leaf queries (`Matroid.rank`, `Matroid.closure`) run millions of
times, so they only add to counters and to their parent's child time and
are not stored one by one.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from time import perf_counter


def _each(module: str, *names: str) -> tuple[str, ...]:
    return tuple(f"{module}.{name}" for name in names)


# span name -> the gcat functions it covers ("module.function" or
# "module.Class.method", relative to the gcat package)
SPANS = {
    "matroid.build": ("matroid.build_matroid",),
    "matroid.rank": ("matroid.Matroid.rank",),
    "matroid.closure": ("matroid.Matroid.closure",),
    "matroid.minor": ("matroid.Matroid.minor",),
    "ginvariant.catenary": ("ginvariant.catenary",),
    "ginvariant.g_from_catenary": ("ginvariant.g_from_catenary",),
    "ginvariant.tutte_from_g": ("ginvariant.tutte_from_g",),
    "ginvariant.catenary_from_g": ("ginvariant.catenary_from_g",),
    "constructions.g_shuffle": ("constructions.g_shuffle",),
    "constructions.g_free_product": ("constructions.g_free_product",),
    "constructions.unary": _each(
        "constructions", "g_dual", "g_truncate", "g_lift", "g_free_extension",
        "g_free_coextension", "g_relax", "cat_qcone"),
    "parameters.chain_count": ("parameters.chain_count",),
    "parameters.g_split_at_unique_flat": ("parameters.g_split_at_unique_flat",),
    "freeproduct.detect_free_product": ("freeproduct.detect_free_product",),
    "reconstruction.reconstruct": _each(
        "reconstruction", "reconstruct_from_copoint_deck",
        "circuit_deck_reconstruct", "slice_assemble"),
    "reconstruction.recover_n": ("reconstruction.recover_n",),
    "configuration.catenary_from_config": (
        "configuration.catenary_from_config",),
    "configuration.independent_copoint_count": (
        "configuration.independent_copoint_count",),
    "serialization.load": _each(
        "serialization", "matroid_from_json", "ginvariant_from_json",
        "catenary_from_json", "configuration_from_json", "deck_from_json"),
    "serialization.dump": _each(
        "serialization", "canonical_dumps", "ginvariant_to_json",
        "catenary_to_json", "tutte_to_json", "configuration_to_json",
        "deck_to_json", "report_to_json"),
    "cli.main": ("cli.main",),
    "verify.run_verify": ("verify.run_verify",),
}
# counted per distinct (matroid, argument) query; no span records
HOT = ("matroid.rank", "matroid.closure")


def _replays(result, args):
    g1, g2 = args[0], args[1]
    return {"replays": len(g1.coeffs) * len(g2.coeffs)
            * math.comb(g1.n + g2.n, g1.n)}


def _support(result, args):
    # output keys against the C(n, r) compositions the solve scans
    g = args[0]
    return {"keys": len(result.counts), "scanned": math.comb(g.n, g.r)}


# extra counters, from a call's result and arguments
COUNTERS = {
    "ginvariant.catenary": lambda result, args: {"keys": len(result.counts)},
    "ginvariant.catenary_from_g": _support,
    "constructions.g_shuffle": _replays,
    "constructions.g_free_product": _replays,
}

# lru caches read with cache_info(): (module, attribute, metric prefix)
CACHES = [
    ("gcat.ginvariant", "gamma_coeffs", "ginvariant.gamma_coeffs"),
    ("gcat.configuration", "canonical_key", "configuration.canonical_key"),
]


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = defaultdict(int)


class Tracer:
    """Span recorder with per-name call counts and self time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, Stat] = defaultdict(Stat)
        # frame: [span id, child time]; the bottom frame is outside any span
        self.stack: list[list] = [[None, 0.0]]
        self.next_id = 0
        self.request = None
        self.active = False
        self.missing: list[str] = []
        self._patched: list[tuple] = []
        self._distinct: dict[str, dict] = defaultdict(dict)

    # -- spans ---------------------------------------------------------

    def wrap(self, fn, name):
        """`fn` recorded under span `name` while the tracer is active."""
        tracer = self
        stack = self.stack
        stat = self.stats[name]
        hot = name in HOT
        distinct = self._distinct[name] if hot else None
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [None, 0.0]
            if not hot:
                frame[0] = tracer.next_id
                tracer.next_id += 1
            parent = stack[-1][0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                stack[-1][1] += d
                stat.calls += 1
                stat.self_s += d - frame[1]
                if not hot:
                    tracer.spans.append((frame[0], name, t0, t1, parent,
                                         tracer.request))
            if distinct is not None:
                m = args[0]
                seen = distinct.get(id(m))
                if seen is None:
                    # keep the matroid alive so its id is not reused
                    seen = distinct[id(m)] = (m, set())
                seen[1].add(args[1])
            elif counter is not None:
                for key, v in counter(result, args).items():
                    stat.extra[key] += v
            return result

        return wrapper

    def install(self):
        """Wrap every target in each loaded gcat module that holds it."""
        mods = [m for k, m in sys.modules.items()
                if (k == "gcat" or k.startswith("gcat.")) and m is not None]
        for name, targets in SPANS.items():
            for target in targets:
                modname, _, attr = target.partition(".")
                holder = sys.modules.get(f"gcat.{modname}")
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    holder = getattr(holder, cls_name, None)
                orig = getattr(holder, attr, None)
                if orig is None:
                    self.missing.append(target)
                    continue
                wrapped = self.wrap(orig, name)
                holders = [holder] if isinstance(holder, type) else mods
                for h in holders:
                    for key, val in list(vars(h).items()):
                        if val is orig:
                            setattr(h, key, wrapped)
                            self._patched.append((h, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched.clear()

    def begin_request(self, index: int):
        self.request = index

    def end_request(self):
        """Fold the per-matroid distinct-query sets into counters."""
        for name, table in self._distinct.items():
            self.stats[name].extra["distinct"] += sum(
                len(seen) for _, seen in table.values())
            table.clear()
        self.request = None

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures named as in BENCHMARK.json's per_layer list."""
        s = self.stats
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.self_s"] = s[name].self_s
        for name in HOT:
            out[f"{name}.distinct"] = s[name].extra["distinct"]
        out["ginvariant.catenary.keys"] = s["ginvariant.catenary"].extra["keys"]
        sup = s["ginvariant.catenary_from_g"].extra
        out["ginvariant.catenary_from_g.support_ratio"] = (
            sup["keys"] / sup["scanned"] if sup["scanned"] else 0.0)
        for name in ("constructions.g_shuffle", "constructions.g_free_product"):
            out[f"{name}.replays"] = s[name].extra["replays"]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, req in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "request": req}) + "\n")


def cache_metrics() -> dict[str, int]:
    """hits, misses and size of gcat's lru caches, zero where one is gone."""
    out = {}
    for modname, attr, prefix in CACHES:
        fn = getattr(sys.modules.get(modname), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[f"{prefix}.hits"] = info.hits if info else 0
        out[f"{prefix}.misses"] = info.misses if info else 0
        if prefix == "ginvariant.gamma_coeffs":
            out[f"{prefix}.currsize"] = info.currsize if info else 0
    return out


def cold_caches():
    """Empty gcat's module-level caches, as in a freshly started process."""
    for modname, attr, _ in CACHES:
        fn = getattr(sys.modules.get(modname), attr, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    gi = sys.modules.get("gcat.ginvariant")
    if hasattr(getattr(gi, "gamma_one", None), "cache_clear"):
        gi.gamma_one.cache_clear()
    conf = sys.modules.get("gcat.configuration")
    for attr in ("_catenary_memo", "_iota_memo"):
        memo = getattr(conf, attr, None)
        if isinstance(memo, dict):
            memo.clear()
