"""The demos run clean, the benchmark's tracer finds every layer, the
README documents every CLI command and presentation kind, the invariant
layer imports no matroid, and no gcat module holds an assert statement."""

import argparse
import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gcat
from gcat import matroid
from gcat.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_finds_every_traced_function():
    # a deleted or renamed gcat function would silently zero a bench layer
    for info in pkgutil.iter_modules(gcat.__path__):
        importlib.import_module(f"gcat.{info.name}")
    spec = importlib.util.spec_from_file_location(
        "gcat_bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_readme_lists_every_cli_command():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("Commands:\n\n```sh\n", 1)[1].split("```", 1)[0]
    documented = set(re.findall(r"^gcat ([\w-]+)", block, re.MULTILINE))
    sub, = (action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    assert documented == set(sub.choices)


def test_readme_lists_every_presentation_kind():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("with `kind` one of ", 1)[1].split("(see", 1)[0]
    assert set(re.findall(r"`(\w+)`", sentence)) == set(matroid._PRESENTATIONS)


def _imported_modules(path):
    """Absolute names of the gcat modules a gcat source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("gcat." * (node.level > 0) + (node.module or "")).rstrip(".")
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("module", ["constructions", "parameters"])
def test_invariant_layer_imports_no_matroid(module):
    # these modules work on invariant vectors alone; matroids stay oracles
    imported = _imported_modules(ROOT / "src" / "gcat" / f"{module}.py")
    assert not {name for name in imported
                if name == "gcat.matroid" or name.startswith("gcat.matroid.")}


def test_catenary_layer_imports_no_constructions():
    # catenary builds no G, and `dual_symbols` lives beside `g_dual` in
    # constructions, so the catenary layer leaves constructions idle
    imported = _imported_modules(ROOT / "src" / "gcat" / "ginvariant.py")
    assert not {name for name in imported
                if name == "gcat.constructions"
                or name.startswith("gcat.constructions.")}


def test_no_fractions_in_gcat():
    # every solve is exact integer division with a remainder check
    imported = {name for path in (ROOT / "src" / "gcat").glob("*.py")
                for name in _imported_modules(path)}
    assert not {name for name in imported
                if name == "fractions" or name.startswith("fractions.")}


def test_no_assert_in_gcat():
    # python -O strips assert statements, so a check written as one passes
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "gcat").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
