"""Canonical JSON interchange for every value the tools exchange.

Big integers travel as decimal strings, composition-keyed maps as sorted
[composition, count] pair lists (JSON object keys cannot be arrays), and all
dumps use sorted keys with fixed separators so identical values serialize to
identical bytes.
"""

from __future__ import annotations

import json

from .configuration import Configuration
from .errors import PresentationError, json_int
from .freeproduct import FactorizationReport
from .ginvariant import CatenaryData, GInvariant, TuttePolynomial
from .matroid import Matroid, build_matroid
from .reconstruction import Deck


def canonical_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


# -- matroids ---------------------------------------------------------------

def matroid_from_json(doc: dict) -> Matroid:
    n = doc.get("ground_set_size")
    if n is not None and type(n) is not int:
        raise PresentationError("'ground_set_size' must be a JSON integer")
    pres = doc.get("presentation")
    if pres is None:
        raise PresentationError("matroid file needs a 'presentation'")
    return build_matroid(pres, n=n)


# -- invariants ----------------------------------------------------------------

def ginvariant_to_json(g: GInvariant) -> dict:
    return {"n": g.n, "r": g.r,
            "coeffs": {key: str(c) for key, c in g.coeffs.items()}}


def ginvariant_from_json(doc: dict) -> GInvariant:
    try:
        coeffs = {str(k): json_int(v) for k, v in doc["coeffs"].items()}
        return GInvariant(json_int(doc["n"]), json_int(doc["r"]), coeffs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PresentationError(f"bad G-invariant payload: {exc}") from exc


def catenary_to_json(c: CatenaryData) -> dict:
    return {"n": c.n, "r": c.r,
            "counts": [[list(comp), str(v)] for comp, v in c.items()]}


def catenary_from_json(doc: dict) -> CatenaryData:
    try:
        counts = {tuple(map(json_int, comp)): json_int(v)
                  for comp, v in doc["counts"]}
        return CatenaryData(json_int(doc["n"]), json_int(doc["r"]), counts)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PresentationError(f"bad catenary payload: {exc}") from exc


def tutte_to_json(t: TuttePolynomial) -> dict:
    return {"terms": [[i, j, str(c)] for (i, j), c in t.items()]}


# -- configurations ---------------------------------------------------------------

def configuration_to_json(c: Configuration) -> dict:
    return {"nodes": [{"size": s, "rank": r}
                      for s, r in zip(c.sizes, c.ranks)],
            "covers": [list(p) for p in c.covers()]}


def configuration_from_json(doc: dict) -> Configuration:
    try:
        sizes = tuple(json_int(node["size"]) for node in doc["nodes"])
        ranks = tuple(json_int(node["rank"]) for node in doc["nodes"])
        covers = [(json_int(i), json_int(j)) for i, j in doc["covers"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PresentationError(f"bad configuration payload: {exc}") from exc
    try:
        return Configuration.from_covers(sizes, ranks, covers)
    except ValueError as exc:
        raise PresentationError(f"bad configuration: {exc}") from exc


# -- decks ------------------------------------------------------------------------

def deck_to_json(d: Deck) -> dict:
    entries = []
    for item, mult in d.entries:
        if d.role == "rank-k":
            entries.append({"restriction": ginvariant_to_json(item[0]),
                            "contraction": ginvariant_to_json(item[1]),
                            "multiplicity": mult})
        else:
            entries.append({"invariant": ginvariant_to_json(item),
                            "multiplicity": mult})
    return {"role": d.role, "entries": entries}


def deck_from_json(doc: dict) -> Deck:
    try:
        role = doc["role"]
        entries = []
        for item in doc["entries"]:
            mult = json_int(item.get("multiplicity", 1))
            if role == "rank-k":
                pair = (ginvariant_from_json(item["restriction"]),
                        ginvariant_from_json(item["contraction"]))
                entries.append((pair, mult))
            else:
                entries.append((ginvariant_from_json(item["invariant"]), mult))
        return Deck(role, tuple(entries))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PresentationError(f"bad deck payload: {exc}") from exc


# -- reports -----------------------------------------------------------------------

def report_to_json(rep: FactorizationReport) -> dict:
    return {"is_proper": rep.is_proper,
            "factors": [{"rank": k, "size": s,
                         "left": ginvariant_to_json(left),
                         "right": ginvariant_to_json(right)}
                        for k, s, left, right in rep.factors]}
