"""Command-line front end.

Every command reads JSON files and writes canonical JSON to stdout: sorted
keys, fixed separators, big integers as decimal strings, so identical inputs
produce byte-identical output.  Exit codes: 0 success, 1 malformed input,
2 mathematical inconsistency (a non-integral solve or negative coefficient,
i.e. the input is not the invariant of any matroid).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constructions as cons
from . import parameters as params
from . import serialization as ser
from .configuration import catenary_from_config, configuration_of
from .errors import ExactnessError, PresentationError
from .freeproduct import detect_free_product
from .ginvariant import (GInvariant, catenary, catenary_from_g,
                         g_from_catenary, invariant_catenary, tutte_from_g)
from .reconstruction import (circuit_deck_reconstruct,
                             reconstruct_from_copoint_deck, slice_assemble)
from .verify import run_verify


def _qcone(g: GInvariant, q: int | None) -> GInvariant:
    if q is None:
        raise PresentationError("qcone needs --q")
    return g_from_catenary(cons.cat_qcone(catenary_from_g(g), q))


# op name -> (number of invariant files, options passed after them,
# construction of the loaded invariants)
OPS = {
    "dual": (1, (), cons.g_dual),
    "truncate": (1, (), cons.g_truncate),
    "lift": (1, (), cons.g_lift),
    "freeext": (1, (), cons.g_free_extension),
    "freecoext": (1, (), cons.g_free_coextension),
    "relax": (1, (), cons.g_relax),
    "qcone": (1, ("q",), _qcone),
    "sum": (2, (), cons.g_shuffle),
    "freeproduct": (2, (), cons.g_free_product),
}

# deck role -> reconstruction; a rank-k deck carries k in its restrictions
RECONSTRUCTIONS = {
    "copoint": reconstruct_from_copoint_deck,
    "circuit": circuit_deck_reconstruct,
    "rank-k": lambda deck: slice_assemble(deck, deck.entries[0][0][0].r),
    "h-sums": reconstruct_from_copoint_deck,
}


def _load_json(path: str) -> dict:
    """The JSON object a file holds; every command's input is one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise PresentationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PresentationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PresentationError(f"{path} must hold a JSON object")
    return doc


def _load_ginvariant(path: str) -> GInvariant:
    """A matroid or G-invariant file, as an invariant holding its catenary
    data: the flag walk, or the solve that checks an invariant file."""
    doc = _load_json(path)
    if "coeffs" not in doc:
        return g_from_catenary(catenary(ser.matroid_from_json(doc)))
    g = ser.ginvariant_from_json(doc)
    invariant_catenary(g)
    return g


def _load_matroid(path: str):
    return ser.matroid_from_json(_load_json(path))


def _params(g: GInvariant, args) -> dict:
    c = catenary_from_g(g)
    if args.flats:
        return {"flats": str(params.flat_count(c, *args.flats))}
    if args.coloops:
        return {"flats_with_coloops":
                str(params.flat_count_coloops(c, *args.coloops))}
    if args.circuits is not None:
        return {"circuits":
                str(params.family_counts(g, "circuit", args.circuits))}
    return {"has_spanning_circuit": params.has_spanning_circuit(g)}


# one-file command -> (summary, loader of FILE, payload of the loaded value
# and the parsed arguments)
FILE_COMMANDS = {
    "ginv": ("G-invariant of a matroid file", _load_ginvariant,
             lambda g, args: ser.catenary_to_json(catenary_from_g(g))
             if args.basis == "gamma" else ser.ginvariant_to_json(g)),
    "catenary": ("catenary data of a matroid file", _load_matroid,
                 lambda m, args: ser.catenary_to_json(catenary(m))),
    "tutte": ("Tutte polynomial of a matroid file", _load_ginvariant,
              lambda g, args: ser.tutte_to_json(tutte_from_g(g))),
    "params": ("derived parameters of a matroid file", _load_ginvariant,
               _params),
    "config": ("configuration of a matroid file", _load_matroid,
               lambda m, args: ser.configuration_to_json(configuration_of(m))),
    "config-catenary": ("catenary data from a configuration file",
                        lambda path: ser.configuration_from_json(
                            _load_json(path)),
                        lambda conf, args: ser.catenary_to_json(
                            catenary_from_config(conf))),
    "detect-freeproduct": (
        "free-product detection from a matroid or G-invariant file",
        _load_ginvariant,
        lambda g, args: ser.report_to_json(detect_free_product(g))),
}


def _emit(payload) -> int:
    sys.stdout.write(ser.canonical_dumps(payload))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gcat",
        description="G-invariant, catenary data, and Tutte polynomial of "
                    "explicitly presented matroids")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p

    for name, (summary, _, _) in FILE_COMMANDS.items():
        command(name, _run_file, summary).add_argument("file")
    sub.choices["ginv"].add_argument(
        "--basis", choices=["symbol", "gamma"], default="symbol")
    grp = sub.choices["params"].add_mutually_exclusive_group(required=True)
    grp.add_argument("--flats", nargs=2, type=int, metavar=("K", "S"))
    grp.add_argument("--coloops", nargs=3, type=int, metavar=("K", "S", "C"))
    grp.add_argument("--circuits", type=int, metavar="S")
    grp.add_argument("--hamiltonian", action="store_true")

    p = command("op", _op, "invariant-level construction")
    p.add_argument("name", choices=list(OPS))
    p.add_argument("files", nargs="+")
    p.add_argument("--q", type=int, default=None, help="q for the q-cone")

    p = command("reconstruct", _reconstruct,
                "rebuild a G-invariant from a deck")
    p.add_argument("--deck", required=True)
    p.add_argument("--role", required=True, choices=list(RECONSTRUCTIONS))

    p = command("verify", _verify, "run the identity suite on a matroid file")
    p.add_argument("file")
    p.add_argument("--deep", action="store_true")
    return top


def _run_file(args) -> int:
    _, load, payload = FILE_COMMANDS[args.command]
    return _emit(payload(load(args.file), args))


def _op(args) -> int:
    arity, options, construction = OPS[args.name]
    if len(args.files) != arity:
        raise PresentationError(
            f"{args.name} takes {arity} invariant file(s), "
            f"got {len(args.files)}")
    loaded = [_load_ginvariant(path) for path in args.files]
    out = construction(*loaded, *(getattr(args, opt) for opt in options))
    return _emit(ser.ginvariant_to_json(out))


def _reconstruct(args) -> int:
    deck = ser.deck_from_json(_load_json(args.deck))
    if deck.role != args.role:
        raise PresentationError(
            f"deck file has role {deck.role!r}, command says {args.role!r}")
    if not deck.entries:
        raise PresentationError("empty deck")
    return _emit(ser.ginvariant_to_json(RECONSTRUCTIONS[deck.role](deck)))


def _verify(args) -> int:
    doc = _load_json(args.file)
    m = ser.matroid_from_json(doc)
    passed, checks = run_verify(m, deep=args.deep)
    _emit({"matroid": doc.get("name"), "n": m.n, "r": m.r,
           "deep": args.deep, "passed": passed, "checks": checks})
    return 0 if passed else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ExactnessError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2
    except (PresentationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
