"""End-to-end CLI behavior: commands, formats, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from gcat import (from_graph, g_invariant, ginvariant, reconstruction, uniform,
                  verify)
from gcat.cli import main
from gcat.reconstruction import Deck, copoint_deck, rank_deck
from gcat.serialization import (canonical_dumps, deck_to_json,
                                ginvariant_to_json)
from gcat.verify import run_verify
from conftest import DATA, K4_EDGES

# a verify run on a triangle with the permutation oracle made wrong
WRONG_ORACLE = """
import gcat.verify as v
from gcat import GInvariant, from_graph
v.g_brute_force = lambda m: GInvariant(m.n, m.r, {})
_, checks = v.run_verify(from_graph([(0, 1), (1, 2), (0, 2)]))
print({c["name"]: c["status"] for c in checks}["permutation-oracle"])
"""


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def data(name):
    return DATA / f"{name}.json"


def _doubled(doc):
    """An invariant payload with every coefficient doubled."""
    return dict(doc, coeffs={k: str(2 * int(v))
                             for k, v in doc["coeffs"].items()})


class TestGinv:
    def test_k4(self, capsys):
        code, out = run(capsys, "ginv", data("k4"))
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n": 6, "r": 3,
                       "coeffs": {"110100": "144", "111000": "576"}}

    def test_gamma_basis(self, capsys):
        code, out = run(capsys, "ginv", data("k4"), "--basis", "gamma")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == [[[0, 1, 1, 4], "6"], [[0, 1, 2, 3], "12"]]

    def test_accepts_invariant_file(self, capsys, tmp_path):
        payload = ginvariant_to_json(g_invariant(uniform(2, 3)))
        path = tmp_path / "g.json"
        path.write_text(canonical_dumps(payload))
        code, out = run(capsys, "ginv", path)
        assert code == 0
        assert json.loads(out)["coeffs"] == {"110": "6"}

    def test_every_basis_family_is_exchange_checked(self, capsys, tmp_path):
        # no size exempts a family that is not a matroid
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ground_set_size": 13, "presentation": {
            "kind": "bases", "bases": [[0, 1], [2, 3]]}}))
        assert main(["ginv", str(bad)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: basis-exchange fails for [0, 1], [2, 3] "
                           "at element 0\n")

    def test_determinism(self, capsys):
        _, first = run(capsys, "ginv", data("fig2-m1"))
        _, second = run(capsys, "ginv", data("fig2-m1"))
        assert first == second


class TestCatenaryAndTutte:
    def test_catenary(self, capsys):
        code, out = run(capsys, "catenary", data("fig1-m"))
        assert code == 0
        assert json.loads(out)["counts"] == [
            [[0, 1, 1, 4], "18"], [[0, 1, 2, 3], "6"]]

    def test_tutte(self, capsys):
        code, out = run(capsys, "tutte", data("u23"))
        assert code == 0
        assert json.loads(out)["terms"] == [[0, 1, "1"], [1, 0, "1"], [2, 0, "1"]]

    def test_fig2_pair_equal_tutte(self, capsys):
        _, t1 = run(capsys, "tutte", data("fig2-m1"))
        _, t2 = run(capsys, "tutte", data("fig2-m2"))
        assert t1 == t2


class TestParams:
    def test_flats_distinguish_fig2(self, capsys):
        code, out = run(capsys, "params", data("fig2-m1"), "--flats", 2, 2)
        assert code == 0 and json.loads(out) == {"flats": "2"}
        code, out = run(capsys, "params", data("fig2-m2"), "--flats", 2, 2)
        assert code == 0 and json.loads(out) == {"flats": "3"}

    def test_coloops_circuits_hamiltonian(self, capsys):
        code, out = run(capsys, "params", data("k4"), "--coloops", 2, 2, 2)
        assert json.loads(out) == {"flats_with_coloops": "3"}
        code, out = run(capsys, "params", data("k4"), "--circuits", 3)
        assert json.loads(out) == {"circuits": "4"}
        code, out = run(capsys, "params", data("k4"), "--hamiltonian")
        assert json.loads(out) == {"has_spanning_circuit": True}
        code, out = run(capsys, "params", data("bowtie"), "--hamiltonian")
        assert json.loads(out) == {"has_spanning_circuit": False}


FILE = object()  # where the input file goes in the argument list


@pytest.mark.parametrize("args", [("ginv", FILE, "--basis", "gamma"),
                                  ("params", FILE, "--flats", 2, 2),
                                  ("params", FILE, "--coloops", 2, 2, 2),
                                  ("op", "qcone", FILE, "--q", 2),
                                  ("op", "sum", FILE, FILE),
                                  ("detect-freeproduct", FILE),
                                  ("params", FILE, "--circuits", 3),
                                  ("params", FILE, "--hamiltonian")])
def test_each_input_is_solved_once(capsys, tmp_path, monkeypatch, args):
    # the loaded invariant holds its catenary data: the checking solve of
    # an invariant file, the flag walk of a matroid file; circuits are
    # counted on the dual, which is solved once more
    calls = []
    solve = ginvariant._gamma_solve
    monkeypatch.setattr(ginvariant, "_gamma_solve",
                        lambda g: calls.append(g) or solve(g))
    path = tmp_path / "g.json"
    path.write_text(canonical_dumps(
        ginvariant_to_json(g_invariant(from_graph(K4_EDGES)))))
    for source, expect in ((path, 1), (data("k4"), 0)):
        calls.clear()
        code, out = run(capsys, *(source if a is FILE else a for a in args))
        assert code == 0 and out
        duals = "--circuits" in args or "--hamiltonian" in args
        assert len(calls) == expect * args.count(FILE) + duals, source


class TestOps:
    def test_unary(self, capsys):
        code, out = run(capsys, "op", "dual", data("u23"))
        assert code == 0 and json.loads(out)["coeffs"] == {"100": "6"}
        code, out = run(capsys, "op", "truncate", data("u23"))
        assert json.loads(out)["coeffs"] == {"100": "6"}
        code, out = run(capsys, "op", "freeext", data("u23"))
        assert json.loads(out)["r"] == 2

    def test_binary(self, capsys, tmp_path):
        code, out = run(capsys, "op", "sum", data("u23"), data("u23"))
        assert code == 0 and json.loads(out)["n"] == 6
        code, out = run(capsys, "op", "freeproduct", data("u23"), data("u23"))
        assert code == 0
        doc = json.loads(out)
        assert (doc["n"], doc["r"]) == (6, 4)

    def test_qcone(self, capsys):
        code, out = run(capsys, "op", "qcone", data("u23"), "--q", 2)
        assert code == 0
        assert json.loads(out)["n"] == 7

    def test_relax_failure_is_exit_2(self, capsys):
        code, _ = run(capsys, "op", "relax", data("u23"))
        assert code == 2

    def test_wrong_arity_is_exit_1(self, capsys):
        code, _ = run(capsys, "op", "dual", data("u23"), data("k4"))
        assert code == 1

    # G of U(2,2) has no circuits to lift; G of U(0,2) has no rank to cut
    @pytest.mark.parametrize("op, doc, err", [
        ("lift", {"n": 2, "r": 2, "coeffs": {"11": "2"}},
         "error: cannot lift a matroid with no circuits\n"),
        ("truncate", {"n": 2, "r": 0, "coeffs": {"00": "2"}},
         "error: cannot truncate at rank 0\n")], ids=["lift", "truncate"])
    def test_guard_texts_exit_1(self, capsys, tmp_path, op, doc, err):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(doc))
        assert main(["op", op, str(g)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == err


class TestConfig:
    def test_config_roundtrip(self, capsys, tmp_path):
        code, out = run(capsys, "config", data("fig1-m"))
        assert code == 0
        doc = json.loads(out)
        assert sorted((n["size"], n["rank"]) for n in doc["nodes"]) \
            == [(0, 0), (3, 2), (3, 2), (6, 3)]
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(doc))
        code, out = run(capsys, "config-catenary", conf)
        assert code == 0
        assert json.loads(out)["counts"] == [
            [[0, 1, 1, 4], "18"], [[0, 1, 2, 3], "6"]]

    def test_same_for_fig1_pair(self, capsys):
        _, c1 = run(capsys, "config", data("fig1-m"))
        _, c2 = run(capsys, "config", data("fig1-n"))
        assert c1 == c2

    def test_non_matroid_configuration_is_exit_2(self, capsys, tmp_path):
        # two rank-1 cyclic flats of size 3 cannot be disjoint in 5 elements
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "nodes": [{"size": 0, "rank": 0}, {"size": 3, "rank": 1},
                      {"size": 3, "rank": 1}, {"size": 5, "rank": 2}],
            "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}))
        code, out = run(capsys, "config-catenary", conf)
        assert code == 2
        assert out == ""


class TestDetect:
    def test_not_proper(self, capsys):
        code, out = run(capsys, "detect-freeproduct", data("k4"))
        assert code == 0
        assert json.loads(out) == {"is_proper": False, "factors": []}

    def test_proper_from_invariant_file(self, capsys, tmp_path):
        fp = uniform(1, 2).free_product(uniform(1, 2))
        path = tmp_path / "fp.json"
        path.write_text(canonical_dumps(ginvariant_to_json(g_invariant(fp))))
        code, out = run(capsys, "detect-freeproduct", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["is_proper"] is True
        assert doc["factors"][0]["rank"] == 1
        assert doc["factors"][0]["left"]["coeffs"] == {"10": "2"}


class TestReconstruct:
    def test_copoint_roundtrip(self, capsys, tmp_path, named):
        k4 = named["M(K4)"]
        path = tmp_path / "deck.json"
        path.write_text(canonical_dumps(deck_to_json(copoint_deck(k4))))
        code, out = run(capsys, "reconstruct", "--deck", path,
                        "--role", "copoint")
        assert code == 0
        assert json.loads(out)["coeffs"] == {"110100": "144", "111000": "576"}

    def test_rank_k_roundtrip(self, capsys, tmp_path, named):
        k4 = named["M(K4)"]
        path = tmp_path / "deck.json"
        path.write_text(canonical_dumps(deck_to_json(rank_deck(k4, 2))))
        code, out = run(capsys, "reconstruct", "--deck", path, "--role", "rank-k")
        assert code == 0
        assert json.loads(out)["coeffs"] == {"110100": "144", "111000": "576"}

    def test_rank_k_loopy_contraction_is_exit_2(self, capsys, tmp_path):
        # well-formed invariants, U(1,1) and U(0,1), but a contraction by a
        # flat has no loops, so the pair is no matroid's deck entry
        path = tmp_path / "deck.json"
        path.write_text(json.dumps({"role": "rank-k", "entries": [{
            "restriction": {"n": 1, "r": 1, "coeffs": {"1": "1"}},
            "contraction": {"n": 1, "r": 0, "coeffs": {"0": "1"}}}]}))
        assert main(["reconstruct", "--deck", str(path),
                     "--role", "rank-k"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "inconsistency: second factor has a loopy key (1,)\n")

    # K4's first rank-1 and rank-2 entries both have shape (6, 3), but their
    # restriction ranks differ; U(3,5)'s rank-1 entry has shape (5, 3)
    @pytest.mark.parametrize("other", [
        lambda: rank_deck(from_graph(K4_EDGES), 2).entries[0],
        lambda: rank_deck(uniform(3, 5), 1).entries[0]],
        ids=["mixed-restriction-ranks", "mixed-shapes"])
    def test_rank_k_mixed_entries_is_exit_2(self, capsys, tmp_path, other):
        first = rank_deck(from_graph(K4_EDGES), 1).entries[0]
        path = tmp_path / "deck.json"
        path.write_text(json.dumps(deck_to_json(
            Deck("rank-k", (first, other())))))
        assert main(["reconstruct", "--deck", str(path),
                     "--role", "rank-k"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("inconsistency:")

    def test_rank_k_empty_deck(self, capsys, tmp_path):
        path = tmp_path / "deck.json"
        path.write_text(json.dumps({"role": "rank-k", "entries": []}))
        assert main(["reconstruct", "--deck", str(path), "--role", "rank-k"]) == 1
        assert capsys.readouterr().err == "error: empty deck\n"

    def test_circuit_entry_that_is_no_invariant_is_exit_2(self, capsys,
                                                          tmp_path):
        # the dual entry totals 276010, not 1!: the deck stops there, before
        # recover_n settles on n = 828,030 and rebuilds an invariant that big
        path = tmp_path / "deck.json"
        path.write_text(json.dumps({"role": "circuit", "entries": [
            {"invariant": {"n": 1, "r": 0, "coeffs": {"0": 276010}},
             "multiplicity": 3}]}))
        assert main(["reconstruct", "--deck", str(path),
                     "--role", "circuit"]) == 2
        assert "not 1!: not an invariant" in capsys.readouterr().err

    # U(1,2)'s rank-1 deck with its contraction doubled rebuilt {"10": "4"};
    # K4's with one more copy of an entry rebuilt a vector totalling 840.
    # K4's one entry (U(1,1), M(K4)/e) x 6 with the contraction doubled and
    # the multiplicity halved would rebuild G(K4), yet the entry is no pair
    # of invariants
    @pytest.mark.parametrize("m, edit", [
        (uniform(1, 2), lambda entry: entry.update(
            contraction=_doubled(entry["contraction"]))),
        (from_graph(K4_EDGES), lambda entry: entry.update(
            multiplicity=entry["multiplicity"] + 1)),
        (from_graph(K4_EDGES), lambda entry: entry.update(
            multiplicity=3, contraction=_doubled(entry["contraction"])))],
        ids=["doubled-contraction", "extra-copy", "doubled-half-as-often"])
    def test_rank_k_deck_of_no_invariant_is_exit_2(self, capsys, tmp_path,
                                                   m, edit):
        doc = deck_to_json(rank_deck(m, 1))
        edit(doc["entries"][0])
        path = tmp_path / "deck.json"
        path.write_text(json.dumps(doc))
        assert main(["reconstruct", "--deck", str(path),
                     "--role", "rank-k"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "not an invariant" in out.err

    def test_rank_k_pairs_is_no_role(self, capsys, tmp_path, named):
        path = tmp_path / "deck.json"
        path.write_text(json.dumps(dict(
            deck_to_json(rank_deck(named["M(K4)"], 2)), role="rank-k-pairs")))
        assert main(["reconstruct", "--deck", str(path),
                     "--role", "rank-k"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_role_mismatch(self, capsys, tmp_path, named):
        path = tmp_path / "deck.json"
        path.write_text(canonical_dumps(
            deck_to_json(copoint_deck(named["M(K4)"]))))
        code, _ = run(capsys, "reconstruct", "--deck", path, "--role", "circuit")
        assert code == 1


class TestVerify:
    def test_u23(self, capsys):
        code, out = run(capsys, "verify", data("u23"))
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert "permutation-oracle" in names
        assert "slicing-at-every-rank" in names
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_deep_on_shipped_corpus(self, capsys):
        for name in ("u23", "k4", "fig1-m", "fig1-n", "fig2-m1",
                     "fig2-m2", "bowtie"):
            code, out = run(capsys, "verify", data(name), "--deep")
            assert code == 0, (name, out)
            assert json.loads(out)["passed"] is True

    def test_copoint_deck_is_built_once(self, monkeypatch):
        # the h-sums round trip groups the deck the check already built
        built = []

        def counted(m):
            built.append(m)
            return copoint_deck(m)

        monkeypatch.setattr(verify, "copoint_deck", counted)
        monkeypatch.setattr(reconstruction, "copoint_deck", counted)
        passed, checks = run_verify(from_graph(K4_EDGES))
        assert passed and "copoint-deck-roundtrip" in {c["name"] for c in checks}
        assert len(built) == 1

    def test_no_brute_force_above_the_oracle_cap(self):
        assert ginvariant.DEFAULT_ORACLE_LIMIT < 10
        passed, checks = run_verify(uniform(2, 10))
        assert passed
        assert "permutation-oracle" not in {c["name"] for c in checks}

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
    def test_a_wrong_oracle_fails_under_python_o(self, flags):
        # python -O strips assert statements, so no check may be one
        env = dict(os.environ)
        src = str(DATA.parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p)
        env.pop("PYTHONOPTIMIZE", None)
        proc = subprocess.run([sys.executable, *flags, "-c", WRONG_ORACLE],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "fail\n"


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["ginv", "no-such-file.json"]) == 1

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["ginv", str(bad)]) == 1

    @pytest.mark.parametrize("text", ["3", "null", '"coeffs"'])
    @pytest.mark.parametrize("command", ["tutte", "ginv"])
    def test_file_must_hold_an_object(self, capsys, tmp_path, text, command):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_presentation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ground_set_size": 3, "presentation": {
            "kind": "bases", "bases": [[0], [0, 1]]}}))
        assert main(["ginv", str(bad)]) == 1

    # a "validate" field is ignored, as "name" is
    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, []])
    def test_validate_field_is_ignored(self, capsys, tmp_path, flag):
        _, plain = run(capsys, "ginv", data("k4"))
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(dict(json.loads(data("k4").read_text()),
                                        validate=flag)))
        assert run(capsys, "ginv", path) == (0, plain)

    # each payload was read as some other matroid and printed its invariant
    @pytest.mark.parametrize("doc", [
        {"ground_set_size": 3, "presentation": {
            "kind": "bases", "bases": [[True, 2], [0, 2]]}},
        {"presentation": {"kind": "graph",
                          "edges": [[0, 1], [1, True], [0, 2]]}},
        {"presentation": {"kind": "dowling3",
                          "group_table": [[0, True], [True, 0]]}},
        {"ground_set_size": 4, "presentation": {
            "kind": "paving_copoints", "rank": 2, "copoints": [7]}},
        {"ground_set_size": 9, "presentation": {
            "kind": "graph", "edges": [[0, 1], [1, 2], [0, 2]]}},
        {"ground_set_size": 6, "presentation": {
            "kind": "dowling3", "group_table": [[0, 1], [1, 0]]}},
    ], ids=["bases-bool", "graph-bool", "dowling-bool", "copoint-bare-int",
            "graph-size", "dowling-size"])
    def test_payload_read_as_another_matroid(self, capsys, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["ginv", str(bad)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")

    # a repeated element was merged (a basis [0, 0] was reported as a basis
    # of another size); a graph edge [v, v] stays a loop
    @pytest.mark.parametrize("doc", [
        {"ground_set_size": 3, "presentation": {
            "kind": "paving_copoints", "rank": 2, "copoints": [[0, 0, 1]]}},
        {"ground_set_size": 3, "presentation": {
            "kind": "cyclic_flats", "flats": [
                {"elements": [], "rank": 0},
                {"elements": [0, 1, 1], "rank": 1}]}},
        {"ground_set_size": 2, "presentation": {
            "kind": "bases", "bases": [[0, 0], [0, 1]]}},
    ], ids=["copoint", "cyclic-flat", "basis"])
    def test_repeated_element_exits_1(self, capsys, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["ginv", str(bad)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")
        assert "repeats an element" in out.err

    # an edge that is no pair exited 1 with Python's unpacking message
    @pytest.mark.parametrize("edge", [[0, 1, 2], [0], []])
    def test_graph_edge_that_is_no_pair_exits_1(self, capsys, tmp_path, edge):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"presentation": {
            "kind": "graph", "edges": [[0, 1], edge]}}))
        assert main(["catenary", str(bad)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: graph edge {edge} is not a pair of vertices\n"

    def test_presentation_fields_of_the_wrong_type(self, capsys, tmp_path):
        docs = [
            {"presentation": {"kind": "graph", "edges": [1, 2]}},
            {"ground_set_size": "4",
             "presentation": {"kind": "uniform", "rank": 2}},
            {"ground_set_size": 4, "presentation": {
                "kind": "paving_copoints", "rank": 2,
                "copoints": [["a", 1, 2]]}},
            {"ground_set_size": 3, "presentation": {
                "kind": "cyclic_flats", "flats": [3]}},
            {"ground_set_size": 3, "presentation": {
                "kind": "bases", "bases": [[0, "x"]]}},
            {"ground_set_size": 3, "presentation": {
                "kind": "bases", "bases": 5}},
        ]
        bad = tmp_path / "bad.json"
        for doc in docs:
            bad.write_text(json.dumps(doc))
            assert main(["ginv", str(bad)]) == 1, doc
            assert capsys.readouterr().err.startswith("error:"), doc

    @pytest.mark.parametrize("query, err", [
        (["--flats", "1", "99"], "error: size 99 exceeds n=6\n"),
        (["--coloops", "1", "99", "0"], "error: size 99 exceeds n=6\n"),
        (["--coloops", "1", "2", "2"],
         "error: need 0 <= coloops <= k <= r, got 2, 1, 3\n")])
    def test_params_out_of_range_exits_1(self, capsys, query, err):
        assert main(["params", str(data("k4"))] + query) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == err

    # the payload reader names the symbol; no command reaches the solve
    @pytest.mark.parametrize("command", [["ginv"], ["tutte"], ["op", "dual"]])
    def test_symbol_that_is_not_0_1_exits_1(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "r": 1, "coeffs": {"1a0": "6"}}))
        assert main(command + [str(bad)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "'1a0'" in out.err

    # each number below was truncated or reparsed by int(), and the command
    # printed a result for the value the file does not hold
    @pytest.mark.parametrize("command, payload", [
        (["ginv"], {"n": 3, "r": 2, "coeffs": {"110": 6.9}}),
        (["ginv"], {"n": 1, "r": 1, "coeffs": {"1": True}}),
        (["ginv"], {"n": 3.5, "r": 2, "coeffs": {"110": "6"}}),
        (["ginv"], {"n": 3, "r": True, "coeffs": {"100": "6"}}),
        (["ginv"], {"n": 5, "r": 1, "coeffs": {"10000": "1_20"}}),
        (["ginv"], {"n": 3, "r": 2, "coeffs": {"110": " 6 "}}),
        (["ginv"], {"ground_set_size": 4, "presentation": {
            "kind": "uniform", "rank": 2.5}}),
        (["ginv"], {"ground_set_size": 4, "presentation": {
            "kind": "paving_copoints", "rank": 2.5, "copoints": []}}),
        (["ginv"], {"ground_set_size": 2, "presentation": {
            "kind": "cyclic_flats", "flats": [
                {"elements": [], "rank": 0},
                {"elements": [0, 1], "rank": 1.5}]}}),
        (["ginv"], {"ground_set_size": True, "presentation": {
            "kind": "uniform", "rank": 1}}),
        (["config-catenary"], {
            "nodes": [{"size": 0, "rank": 0}, {"size": 3.9, "rank": 2},
                      {"size": 3, "rank": 2}, {"size": 6, "rank": 3}],
            "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}),
        (["reconstruct", "--role", "copoint", "--deck"], {
            "role": "copoint", "entries": [{
                "invariant": {"n": 1, "r": 1, "coeffs": {"1": "1"}},
                "multiplicity": 3.7}]})],
        ids=["coeff-float", "coeff-bool", "n-float", "r-bool",
             "coeff-underscore", "coeff-spaces", "uniform-rank-float",
             "paving-rank-float", "cyclic-flat-rank-float",
             "ground-set-size-bool", "config-size-float",
             "deck-multiplicity-float"])
    def test_numbers_must_be_integers(self, capsys, tmp_path, command,
                                      payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(command + [str(bad)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")
        assert "integer" in out.err

    def test_non_matroid_invariant_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad-g.json"
        bad.write_text(json.dumps(
            {"n": 3, "r": 2, "coeffs": {"110": "1"}}))
        assert main(["tutte", str(bad)]) == 2

    # the first total is not 3!; the second totals 2! but has a negative
    # gamma coordinate
    @pytest.mark.parametrize("payload", [
        {"n": 3, "r": 1, "coeffs": {"100": "-6"}},
        {"n": 2, "r": 1, "coeffs": {"01": "2"}}])
    @pytest.mark.parametrize("command", [["tutte"], ["op", "dual"]])
    def test_invariant_file_must_be_an_invariant(self, capsys, tmp_path,
                                                  payload, command):
        bad = tmp_path / "bad-g.json"
        bad.write_text(json.dumps(payload))
        assert main(command + [str(bad)]) == 2
        assert capsys.readouterr().out == ""
