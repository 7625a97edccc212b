"""Cross-module identity harness run by the CLI's verify command.

Each check computes the same quantity along two independent routes and
demands exact equality.  The deep suite adds the slower sweeps (parameter
censuses against exhaustive flat scans, configuration-derived catenary,
free-product agreement, relaxation deltas).
"""

from __future__ import annotations

import math
from functools import cache

from . import constructions as cons
from . import parameters as params
from .configuration import catenary_from_config, configuration_of
from .errors import ExactnessError
from .freeproduct import _pinchpoint_flats, detect_free_product
from .ginvariant import (DEFAULT_ORACLE_LIMIT, GInvariant, _flag_walk,
                         basis_count, catenary, catenary_from_g,
                         g_brute_force, g_from_catenary, g_invariant,
                         invariant_copies, tutte_brute_force, tutte_from_g)
from .matroid import Matroid, elements_of
from .reconstruction import (_size_grouped, circuit_deck,
                             circuit_deck_reconstruct, copoint_deck, rank_deck,
                             reconstruct_from_copoint_deck, recover_n,
                             slice_assemble)


def _exhaustive_flat_census(m: Matroid):
    flats = {}
    for k in range(m.r + 1):
        for f in m.flats_of_rank(k):
            flats.setdefault((k, f.bit_count()), []).append(f)
    return flats


def _require(ok: bool, detail="") -> None:
    """Fail a check, as `assert` would, but also under `python -O`."""
    if not ok:
        raise AssertionError(detail)


def dc_sum_check(m: Matroid) -> bool | str:
    """Verify the all-deletions and all-contractions concatenation identities.

    The G-invariant equals the sum over elements of G(M minus a) with a 0
    (or 1, for a coloop) appended, and the sum of G(M / a) with a 1 (or 0,
    for a loop) prepended.  Returns True, or the name of the failing side.
    """
    if m.n < 1:
        raise ValueError("identities need at least one element")
    g = g_invariant(m)
    del_acc: dict[str, int] = {}
    con_acc: dict[str, int] = {}
    for e in range(m.n):
        bit = 1 << e
        suffix = "1" if m.is_coloop(e) else "0"
        for key, c in g_invariant(m.delete(bit)).coeffs.items():
            del_acc[key + suffix] = del_acc.get(key + suffix, 0) + c
        prefix = "0" if m.is_loop(e) else "1"
        for key, c in g_invariant(m.contract(bit)).coeffs.items():
            con_acc[prefix + key] = con_acc.get(prefix + key, 0) + c
    if GInvariant(m.n, m.r, del_acc) != g:
        return "deletion"
    if GInvariant(m.n, m.r, con_acc) != g:
        return "contraction"
    return True


def run_verify(m: Matroid, deep: bool = False):
    """Run the identity suite; returns (all_passed, list of check records).
    The brute-force oracles run when n <= DEFAULT_ORACLE_LIMIT."""
    checks = []

    def check(name):
        def wrap(fn):
            try:
                fn()
                checks.append({"name": name, "status": "pass"})
            except AssertionError as exc:
                checks.append({"name": name, "status": "fail",
                               "detail": str(exc) or "assertion failed"})
            except ExactnessError as exc:
                checks.append({"name": name, "status": "fail", "detail": str(exc)})
        return wrap

    cat = catenary(m)
    g = g_from_catenary(cat)

    @check("dual-involution")
    def _():
        _require(m.dual().dual().bases == m.bases)

    @check("coefficient-total-n-factorial")
    def _():
        invariant_copies(g)

    @check("top-symbol-counts-bases")
    def _():
        top = "1" * m.r + "0" * (m.n - m.r)
        expect = math.factorial(m.r) * math.factorial(m.n - m.r) * len(m.bases)
        _require(g[top] == expect, f"{g[top]} != {expect}")

    @check("gamma-roundtrip")
    def _():
        # g holds cat; a copy holds nothing, so the solve runs
        _require(catenary_from_g(GInvariant(g.n, g.r, g.coeffs)) == cat)

    @check("basis-count-formula")
    def _():
        _require(basis_count(cat) == len(m.bases))

    if m.n <= DEFAULT_ORACLE_LIMIT:
        @check("permutation-oracle")
        def _():
            _require(g_brute_force(m) == g)

        @check("tutte-specialization-vs-subsets")
        def _():
            _require(tutte_from_g(g) == tutte_brute_force(m))

    # each rank's slicing sum, shared by the checks; a raise is not cached,
    # so each check that asks records it under its own name
    slice_at = cache(lambda k: slice_assemble(rank_deck(m, k), k))

    @check("slicing-at-every-rank")
    def _():
        for k in range(m.r + 1):
            _require(slice_at(k) == g, f"rank {k}")

    if m.r >= 2:
        @check("copoint-deck-roundtrip")
        def _():
            deck = copoint_deck(m)
            _require(recover_n(deck) == m.n)
            _require(reconstruct_from_copoint_deck(deck) == g)
            _require(reconstruct_from_copoint_deck(_size_grouped(deck)) == g)

    if m.n - m.r >= 2:
        @check("circuit-deck-roundtrip")
        def _():
            _require(circuit_deck_reconstruct(circuit_deck(m)) == g)

    if m.n >= 1:
        @check("deletion-contraction-sums")
        def _():
            _require(dc_sum_check(m) is True)

    if m.r >= 1:
        @check("copoint-recursion")
        def _():
            agg = {}
            for x in m.copoints():
                sub = catenary(m.restrict(x))
                a_r = m.n - x.bit_count()
                for comp, v in sub.counts.items():
                    key = comp + (a_r,)
                    agg[key] = agg.get(key, 0) + v
            _require(agg == dict(cat.counts))

    if deep:
        census = _exhaustive_flat_census(m)

        @check("flat-counts-vs-exhaustive")
        def _():
            for k in range(m.r + 1):
                for s in range(m.n + 1):
                    expect = len(census.get((k, s), []))
                    _require(params.flat_count(cat, k, s) == expect, (k, s))

        @check("coloop-census-vs-exhaustive")
        def _():
            for (k, s), flats in census.items():
                by_c = {}
                for f in flats:
                    ncol = sum(1 for e in elements_of(f)
                               if m.rank(f & ~(1 << e)) == k - 1)
                    by_c[ncol] = by_c.get(ncol, 0) + 1
                for c in range(k + 1):
                    _require(params.flat_count_coloops(cat, k, s, c)
                             == by_c.get(c, 0), (k, s, c))

        @check("family-counts-vs-exhaustive")
        def _():
            circuits = m.circuits()
            cocircuits = m.cocircuits()
            cyc = m.cyclic_sets()
            for s in range(m.n + 1):
                _require(params.family_counts(g, "circuit", s) == sum(
                    1 for c in circuits if c.bit_count() == s), s)
                _require(params.family_counts(g, "cocircuit", s) == sum(
                    1 for c in cocircuits if c.bit_count() == s), s)
                for j in range(m.r + 1):
                    _require(params.family_counts(g, "cyclic_set", s, j) == sum(
                        1 for c in cyc
                        if c.bit_count() == s and m.rank(c) == j), (s, j))

        @check("spanning-circuit")
        def _():
            expect = any(c.bit_count() == m.r + 1 for c in m.circuits())
            _require(params.has_spanning_circuit(g) == expect)

        @check("unique-flat-split")
        def _():
            for (k, s), flats in census.items():
                if len(flats) != 1:
                    continue
                left, right = params.g_split_at_unique_flat(g, k, s)
                _require(left == g_invariant(m.restrict(flats[0])), (k, s))
                _require(right == g_invariant(m.contract(flats[0])), (k, s))

        if not m.coloops():
            # `catenary` of a list or of a core of corank r - 2 or less is
            # this solve, so it is checked against the flag walk
            @check("configuration-catenary")
            def _():
                _require(catenary_from_config(configuration_of(m))
                         == _flag_walk(m))

        @check("freeproduct-detection-vs-lattice")
        def _():
            pins = _pinchpoint_flats(m)
            rep = detect_free_product(g)
            _require(rep.is_proper == bool(pins))
            expect = {(g_invariant(m.restrict(f)), g_invariant(m.contract(f)))
                      for f in pins}
            _require({(left, right)
                      for _, _, left, right in rep.factors} == expect)

        @check("relaxation-delta")
        def _():
            for x in m.copoints():
                if m.is_circuit(x):
                    _require(cons.g_relax(g) == g_invariant(m.relax(x)))

        @check("averaged-slicing")
        def _():
            total = {}
            for k in range(m.r + 1):
                for key, c in slice_at(k).coeffs.items():
                    total[key] = total.get(key, 0) + c
            _require(all(v % (m.r + 1) == 0 for v in total.values()))
            scaled = {key: v // (m.r + 1) for key, v in total.items()}
            _require(scaled == dict(g.coeffs))

    passed = all(c["status"] == "pass" for c in checks)
    return passed, checks
