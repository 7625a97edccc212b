"""CLI fuzz guard: mutated and random payloads never escape as a traceback.

Every command runs in-process through `cli.main` on G-invariant payloads
(n <= 7), on copoint, h-sums, circuit and rank-k decks, each mutated at a
random place of its JSON tree or given wrong multiplicities, and on the
matroid files of `tests/data` with fields retyped, dropped or given element
indices in [-3, n+3], and on the configurations of the coloop-free ones
with node labels retyped and covers moved, reversed, dropped or duplicated.
A run must exit 0, 1 or 2, and every exit-0 output
must load back through its `serialization` loader; a rebuilt invariant must
also pass the invariant check.
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcat import (circuit_deck, configuration_of, copoint_deck, from_graph,
                  g_invariant, rank_deck, size_grouped_copoint_deck, uniform)
from gcat.cli import main
from gcat.ginvariant import invariant_catenary
from gcat.serialization import (catenary_from_json, configuration_from_json,
                                configuration_to_json, deck_to_json,
                                ginvariant_from_json, ginvariant_to_json,
                                matroid_from_json)
from conftest import DATA, K4_EDGES, BOWTIE_EDGES, load_data

MATROIDS = [uniform(2, 4), uniform(1, 3), from_graph(K4_EDGES),
            from_graph(BOWTIE_EDGES), load_data("fig1-m"),
            uniform(1, 2).free_product(uniform(2, 3)),
            uniform(2, 3).add_coloop()]
INVARIANTS = [ginvariant_to_json(g_invariant(m)) for m in MATROIDS]
DECKS = [deck_to_json(make(m)) for m in MATROIDS[:5]
         for make in (copoint_deck, size_grouped_copoint_deck, circuit_deck,
                      lambda m: rank_deck(m, 1))]
MATROID_FILES = [json.loads(path.read_text(encoding="utf-8"))
                 for path in sorted(DATA.glob("*.json"))]
CONFIGS = [configuration_to_json(configuration_of(m))
           for m in map(matroid_from_json, MATROID_FILES) if not m.coloops()]

SMALL = st.integers(-1, 8)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 10 ** 6),
                    st.integers(-3, 50).map(str),
                    st.text(alphabet="01x-", max_size=8),
                    st.lists(st.integers(0, 3), max_size=2), st.builds(dict))


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield from _paths(val, path + (key,))
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            yield from _paths(val, path + (i,))


def _node(draw, doc):
    """A random node of doc other than the root, as (parent, key), or None."""
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return None
    *head, last = path
    parent = doc
    for step in head:
        parent = parent[step]
    return parent, last


@st.composite
def _mutated(draw, base):
    """A copy of a payload with up to three edits: a node replaced by some
    other JSON value, deleted, nudged by one, or a symbol key bit-flipped."""
    doc = json.loads(json.dumps(draw(base)))
    for _ in range(draw(st.integers(0, 3))):
        node = _node(draw, doc)
        if node is None:
            continue
        parent, last = node
        val = parent[last]
        how = draw(st.sampled_from(["replace", "delete", "nudge", "flip"]))
        if how == "replace":
            parent[last] = draw(SCALARS)
        elif how == "delete":
            del parent[last]
        elif how == "nudge" and isinstance(val, (int, str)) \
                and str(val).lstrip("-").isdigit():
            parent[last] = type(val)(int(val) + draw(st.sampled_from([-1, 1])))
        elif how == "flip" and isinstance(last, str) and last \
                and set(last) <= {"0", "1"}:
            i = draw(st.integers(0, len(last) - 1))
            key = last[:i] + "10"[int(last[i])] + last[i + 1:]
            parent[key] = parent.pop(last)
    return doc


@st.composite
def _wrong_multiplicities(draw):
    """A deck with one entry's multiplicity changed or one invariant's
    coefficients scaled, so that its entries can all be invariants while
    their sum is no matroid's."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DECKS))))
    entry = draw(st.sampled_from(doc["entries"]))
    if draw(st.booleans()):
        entry["multiplicity"] = draw(st.integers(1, 4).filter(
            lambda mult: mult != entry["multiplicity"]))
    else:
        half = draw(st.sampled_from(
            [key for key in ("invariant", "restriction", "contraction")
             if key in entry]))
        scale = draw(st.integers(2, 3))
        entry[half]["coeffs"] = {key: str(scale * int(c))
                                 for key, c in entry[half]["coeffs"].items()}
    return doc


@st.composite
def _mutated_matroids(draw):
    """A shipped matroid file with one to three edits: a field given a value
    of another type, an element index moved into [-3, n+3], or a field
    dropped.  Values stay at the file's scale; work budgets are not fuzzed."""
    doc = json.loads(json.dumps(draw(st.sampled_from(MATROID_FILES))))
    index = st.integers(-3, doc["ground_set_size"] + 3)
    values = st.one_of(st.none(), st.booleans(), index, index.map(float),
                       index.map(str), st.text(max_size=3),
                       st.lists(index, max_size=3), st.builds(dict))
    for _ in range(draw(st.integers(1, 3))):
        node = _node(draw, doc)
        if node is None:
            continue
        parent, last = node
        how = draw(st.sampled_from(["retype", "index", "drop"]))
        if how == "retype":
            parent[last] = draw(values)
        elif how == "index" and type(parent[last]) is int:
            parent[last] = draw(index)
        elif how == "drop":
            del parent[last]
    return doc


@st.composite
def _mutated_configs(draw):
    """A configuration of a coloop-free shipped matroid with one to three
    edits: a node size or rank given a value of another type, a cover index
    moved into [-3, m+3], or a cover reversed, dropped or duplicated.  Sizes
    stay at most 64; work budgets are not fuzzed."""
    doc = json.loads(json.dumps(draw(st.sampled_from(CONFIGS))))
    nodes, covers = doc["nodes"], doc["covers"]
    index = st.integers(-3, len(nodes) + 3)
    label = st.integers(-3, 64)
    values = st.one_of(st.none(), st.booleans(), label, label.map(float),
                       label.map(str), st.text(max_size=3),
                       st.lists(label, max_size=2), st.builds(dict))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(
            ["retype", "index", "reverse", "drop", "duplicate"]))
        if how == "retype":
            node = draw(st.sampled_from(nodes))
            node[draw(st.sampled_from(["size", "rank"]))] = draw(values)
        elif not covers:
            continue
        elif how == "index":
            cover = draw(st.sampled_from(covers))
            cover[draw(st.integers(0, 1))] = draw(index)
        elif how == "reverse":
            draw(st.sampled_from(covers)).reverse()
        elif how == "drop":
            covers.remove(draw(st.sampled_from(covers)))
        else:
            covers.append(list(draw(st.sampled_from(covers))))
    return doc


@st.composite
def _random_invariants(draw):
    n = draw(st.integers(0, 7))
    r = draw(st.integers(0, n))
    ones = [c for c in itertools.combinations(range(n), r)]
    keys = draw(st.lists(st.sampled_from(ones), max_size=6, unique=True))
    coeffs = {"".join("1" if i in c else "0" for i in range(n)):
              str(draw(st.integers(-2, 5040))) for c in keys}
    return {"n": n, "r": r, "coeffs": coeffs}


INVARIANT_PAYLOADS = st.one_of(_mutated(st.sampled_from(INVARIANTS)),
                               _random_invariants())


def _params_args(draw):
    mode = draw(st.sampled_from(["flats", "coloops", "circuits",
                                 "hamiltonian"]))
    arity = {"flats": 2, "coloops": 3, "circuits": 1, "hamiltonian": 0}
    return [f"--{mode}"] + [str(draw(SMALL)) for _ in range(arity[mode])]


INVARIANT_COMMANDS = {
    "ginv": lambda draw: ["--basis", "gamma"],
    "tutte": lambda draw: [],
    "detect-freeproduct": lambda draw: [],
    "params": _params_args,
}


def _check_output(command, text):
    doc = json.loads(text)
    if command == "ginv":
        catenary_from_json(doc)
    elif command == "tutte":
        assert all(int(c) for _, _, c in doc["terms"])
    elif command == "params":
        (key, val), = doc.items()
        assert isinstance(val, bool) if key == "has_spanning_circuit" \
            else int(val) >= 0
    elif command in ("catenary", "config-catenary"):
        catenary_from_json(doc)
    elif command == "config":
        configuration_from_json(doc)
    elif command == "verify":
        assert doc["passed"] is True
    elif command == "detect-freeproduct":
        for factor in doc["factors"]:
            ginvariant_from_json(factor["left"])
            ginvariant_from_json(factor["right"])
    else:
        invariant_catenary(ginvariant_from_json(doc))


def _run(tmp, payload, command, args):
    path = tmp / "payload.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    argv = ([command, "--deck", str(path)] + args if command == "reconstruct"
            else [command, str(path)] + args)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, payload, code)
    if code == 0:
        _check_output(command, out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue(), (argv, payload)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(payload=INVARIANT_PAYLOADS,
       command=st.sampled_from(sorted(INVARIANT_COMMANDS)), data=st.data())
def test_invariant_commands(tmp, payload, command, data):
    _run(tmp, payload, command, INVARIANT_COMMANDS[command](data.draw))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(payload=_mutated(st.sampled_from(DECKS)), data=st.data())
def test_reconstruct(tmp, payload, data):
    roles = ["copoint", "h-sums", "circuit", "rank-k"]
    if isinstance(payload, dict) and payload.get("role") in roles:
        roles.remove(payload["role"])
        roles.insert(0, payload["role"])
    role = data.draw(st.sampled_from(roles[:1] * 3 + roles[1:]))
    _run(tmp, payload, "reconstruct", ["--role", role])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(payload=_wrong_multiplicities())
def test_reconstruct_wrong_multiplicities(tmp, payload):
    _run(tmp, payload, "reconstruct", ["--role", payload["role"]])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(payload=_mutated_matroids(),
       command=st.sampled_from(["catenary", "config", "verify"]))
def test_matroid_commands(tmp, payload, command):
    _run(tmp, payload, command, [])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(payload=_mutated_configs())
def test_config_catenary(tmp, payload):
    _run(tmp, payload, "config-catenary", [])
