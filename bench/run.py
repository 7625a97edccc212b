"""gcat benchmark: closed-loop workloads through the library and the CLI.

Run from the repository root:

    python3 bench/run.py --workload lattice|algebra|cli --seed N \
        --seconds S --trace 0|1

One client runs one request at a time in a closed loop, in this process
(`lattice`, `algebra`) or as one `python -m gcat.cli` child at a time
(`cli`).  Inputs come from the seed.  Every output is checked after the
timed loop: sha256 digests against `bench/reference/` on the default seed,
and identities that hold on any seed.  A failed request is counted, never
fatal.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; a readable report goes to stderr.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` the
run replays a prefix of the requests twice, untraced then traced, and
reports per-layer figures, the tracing overhead, the idle-layer self-check
and the ROADMAP layer ladder; spans go to `.bench_out/`.

`--write-reference` recomputes the reference digests of the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import ladder
import workloads
from tracing import Tracer, cache_metrics, cold_caches

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = (3, 11)  # at least 3; up to 11 while under SETUP_BUDGET_S
SETUP_BUDGET_S = 3.5
MIN_REQUESTS = 100     # so that ten samples lie beyond the 90th percentile
LOOP_CAP_S = 120.0
PROBE_REPEATS = 5

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric the traced run prints."""
    names = list(Tracer().metrics()) + list(cache_metrics())
    names += ["cli.interpreter_s", "cli.import_s",
              "tracing.untraced_ops_per_s", "tracing.traced_ops_per_s",
              "selfcheck.idle_layer_calls"]
    names += [row[0] for row in ladder.ROWS]
    return {name: unit_of(name) for name in names}


def unit_of(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def make(name, api, seed):
    if name == "lattice":
        return workloads.Lattice(api, seed)
    if name == "algebra":
        return workloads.Algebra(api, seed)
    return workloads.Cli(api, seed, str(ROOT), str(workdir()))


def workdir() -> Path:
    """Where the cli workload writes its input files."""
    return OUT / f"cli-{os.getpid()}"


def cleanup():
    shutil.rmtree(workdir(), ignore_errors=True)


def timed_loop(run, seconds=None, count=None, spool=None,
               min_requests=MIN_REQUESTS, stride=1):
    """Closed loop: the next request starts when the previous one ends.

    Stops after `count` requests, or once `seconds` have passed, at least
    `min_requests` are done and the count is a multiple of `stride` (whole
    cycles of request classes, so that every run has the same mix).
    Outputs go to `spool` (one line each) or are returned, so that they do
    not grow this process's memory.
    """
    lat, outs, fails = [], [], {}
    start = perf_counter()
    i = 0
    while True:
        now = perf_counter() - start
        if count is not None:
            if i >= count:
                break
        elif (now >= seconds and i >= min_requests and i % stride == 0) \
                or now >= LOOP_CAP_S:
            break
        t0 = perf_counter()
        try:
            out = run(i)
        except Exception as exc:  # a failed request is counted, not fatal
            out = ""
            fails[i] = f"{type(exc).__name__}: {exc}"
        lat.append(perf_counter() - t0)
        if spool is not None:
            spool.write(out if out.endswith("\n") else out + "\n")
        else:
            outs.append(out)
        i += 1
    return lat, outs, fails, perf_counter() - start


def load_reference(name, seed):
    path = BENCH / "reference" / f"{name}.json"
    if seed != workloads.DEFAULT_SEED or not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def check_outputs(wl, outs, fails, ref):
    """Digest and identity checks; a repeated request must repeat its output.

    Requests wrap around after `wl.size`, so each distinct request gets the
    full check once and the check time stays bounded however fast gcat is.
    """
    seen = {}
    for i, out in enumerate(outs):
        if i in fails:
            continue
        key = workloads.digest(out)
        try:
            if ref is not None:
                workloads.expect(key == ref[i % len(ref)],
                                 "output digest differs from the reference")
            if i % wl.size in seen:
                workloads.expect(key == seen[i % wl.size],
                                 "a repeated request changed its output")
            else:
                wl.check(i, out)
                seen[i % wl.size] = key
        except Exception as exc:  # a failed check is counted, not fatal
            fails[i] = f"check: {type(exc).__name__}: {exc}"


def peak_rss_mb(name) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(name, seed, seconds):
    setups = []
    wl = None
    least, most = SETUP_REPEATS
    while len(setups) < least or (len(setups) < most
                                  and sum(setups) < SETUP_BUDGET_S):
        cleanup()
        t0 = perf_counter()
        api = workloads.import_gcat()
        wl = make(name, api, seed)
        setups.append(perf_counter() - t0)
    cold_caches()
    spool_path = OUT / f"spool-{os.getpid()}.txt"
    with open(spool_path, "w+", encoding="utf-8") as spool:
        lat, _, fails, elapsed = timed_loop(wl.run, seconds=seconds,
                                            spool=spool, stride=wl.cycle)
        rss = peak_rss_mb(name)
        spool.seek(0)
        outs = spool.read().splitlines(keepends=True)
    spool_path.unlink()
    check_outputs(wl, outs, fails, load_reference(name, seed))
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / elapsed,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": rss,
    }
    print(f"{name}: {len(lat)} requests in {elapsed:.2f} s "
          f"(p90 from {len(lat)} samples), {len(fails)} failed, "
          f"failed_ratio {len(fails) / len(lat):.4f}; setup runs "
          + ", ".join(f"{s:.3f}" for s in setups) + " s", file=sys.stderr)
    return len(lat), fails, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def cli_probes() -> dict[str, float]:
    """Bare interpreter start, and `import gcat.cli` on top of it."""
    env = workloads.child_env(str(ROOT))

    def median_run(code):
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True, timeout=60)
            times.append(perf_counter() - t0)
        return statistics.median(times)
    bare = median_run("pass")
    return {"cli.interpreter_s": bare,
            "cli.import_s": median_run("import gcat.cli") - bare}


def traced_pass(run, count):
    """Requests 0..count-1 with every layer traced, from cold caches."""
    cold_caches()
    tracer = Tracer()
    tracer.install()
    request = tracer.wrap(run, "bench.request")

    def traced(i):
        tracer.begin_request(i)
        try:
            return request(i)
        finally:
            tracer.end_request()

    tracer.active = True
    try:
        _, outs, fails, elapsed = timed_loop(traced, count=count)
    finally:
        tracer.active = False
        tracer.uninstall()
    return tracer, outs, fails, elapsed


def run_traced(name, seed, seconds):
    api = workloads.import_gcat()
    wl = make(name, api, seed)
    run = wl.replay if name == "cli" else wl.run
    cold_caches()
    lat_u, outs_u, fails_u, el_u = timed_loop(run, seconds=seconds / 3,
                                              min_requests=1)
    count = len(lat_u)
    tracer, outs_t, fails_t, el_t = traced_pass(run, count)
    layer = tracer.metrics()
    layer.update(cache_metrics())
    if name == "algebra":
        idle = layer["matroid.rank.calls"] + layer["matroid.closure.calls"]
    elif name == "lattice":
        idle = sum(st.calls for key, st in tracer.stats.items()
                   if key.startswith("constructions."))
    else:
        idle = 0
    layer["selfcheck.idle_layer_calls"] = idle
    layer["tracing.untraced_ops_per_s"] = count / el_u
    layer["tracing.traced_ops_per_s"] = count / el_t
    layer.update(cli_probes())
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{name}-{seed}.jsonl")
    times = ladder.run(api)
    layer.update(times)

    ref = load_reference(name, seed)
    check_outputs(wl, outs_u, fails_u, ref)
    check_outputs(wl, outs_t, fails_t, ref)
    fails = {**fails_u, **{count + i: f for i, f in fails_t.items()}}

    err = sys.stderr
    print(f"{name}: {count} requests untraced in {el_u:.2f} s, then traced "
          f"in {el_t:.2f} s ({len(tracer.spans)} spans); {len(fails)} failed",
          file=err)
    print(f"tracing overhead: untraced {count / el_u:.2f} ops/s, traced "
          f"{count / el_t:.2f} ops/s", file=err)
    if idle:
        print(f"MIS-BUILT: the {name} workload made {idle} calls into a layer "
              "that should be idle on it", file=err)
    if tracer.missing:
        print("not traced (gone from gcat): " + ", ".join(tracer.missing),
              file=err)
    ladder.report(times, err)
    units = per_layer_units()
    return 2 * count, fails, {k: (layer[k], units[k]) for k in units}


def write_reference(name):
    api = workloads.import_gcat()
    wl = make(name, api, workloads.DEFAULT_SEED)
    cold_caches()
    digests = []
    for i in range(wl.size):
        out = wl.run(i)
        wl.check(i, out)
        digests.append(workloads.digest(out))
    path = BENCH / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": workloads.DEFAULT_SEED,
                   "digests": digests}, fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {path}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["lattice", "algebra", "cli"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "gcat" / "__init__.py").is_file():
        print(f"error: no gcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    try:
        if args.write_reference:
            write_reference(args.workload)
            return 0
        runner = run_traced if args.trace else run_untraced
        attempted, fails, metrics = runner(args.workload, args.seed,
                                           args.seconds)
    finally:
        cleanup()
    for i, why in sorted(fails.items())[:10]:
        print(f"  request {i} failed: {why}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<48} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not fails, "attempted": attempted, "failed": len(fails),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
