"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import cache_metrics  # noqa: E402

COUNTS = (".calls", ".distinct", ".hits", ".misses", ".replays",
          ".support_ratio", ".keys", ".currsize")


def traced_counts(name: str, seed: int, count: int) -> dict:
    api = workloads.import_gcat()
    wl = run.make(name, api, seed)
    try:
        fn = wl.replay if name == "cli" else wl.run
        tracer, outs, fails, _ = run.traced_pass(fn, count)
        assert not fails, fails
        for i, out in enumerate(outs):
            wl.check(i, out)
        layer = tracer.metrics()
        layer.update(cache_metrics())
    finally:
        run.cleanup()
    return {k: v for k, v in layer.items() if k.endswith(COUNTS)}


@pytest.mark.parametrize("name,count", [("lattice", 25), ("algebra", 48),
                                        ("cli", 26)])
def test_counters_repeat_exactly(name, count):
    first = traced_counts(name, 7, count)
    second = traced_counts(name, 7, count)
    assert first == second
    assert any(first.values())


def test_idle_layers_stay_idle():
    assert traced_counts("algebra", 7, 48)["matroid.rank.calls"] == 0
    lattice = traced_counts("lattice", 7, 25)
    assert lattice["constructions.g_shuffle.calls"] == 0
    assert lattice["constructions.g_free_product.calls"] == 0


@pytest.mark.parametrize("name", ["lattice", "algebra", "cli"])
def test_reference_digests_hold(name):
    ref = run.load_reference(name, workloads.DEFAULT_SEED)
    assert ref is not None
    api = workloads.import_gcat()
    wl = run.make(name, api, workloads.DEFAULT_SEED)
    try:
        fn = wl.replay if name == "cli" else wl.run
        for i in range(len(workloads.LATTICE_CYCLE)):
            assert workloads.digest(fn(i)) == ref[i], i
    finally:
        run.cleanup()


def test_metric_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()


def test_fails_without_the_program():
    """Holding only BENCHMARK.json and bench/, the benchmark exits nonzero."""
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "lattice", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
