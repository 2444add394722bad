#!/usr/bin/env python3
"""perfbench: one command for simulator, native-analytics and serving speed.

    python3 perfbench/run.py --workload sim_sssp|native_analytics|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the CoSPARSE libraries plus perfbench_runner) into
.bench_build/perfbench; later runs only re-check the build. The runner sets
up, measures for --seconds, and checks every result against plain reference
implementations. This script turns its record into metrics.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 prints
its per-layer metrics, from a separate traced run (spans around each layer
call, in-program telemetry, host probes). Every metric is printed by name
with its unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed check makes the line say "correct": false and the exit code 1. A
build or runner error exits non-zero without printing the line. Each run
leaves its record, with provenance, in .bench_build/perfbench/results/.

Which layer metric should move which end-to-end metric, and where:
  sparse.*, kernels.*, runtime.prepare_ms  -> setup_s on native_analytics;
      inside batches, queries_per_s on serve_mixed
  runtime.iteration_ms_*, native.*, graph.* -> queries_per_s and
      query_ms_p50 on native_analytics
  sim.* host times (tile_fill, replay, phase, ns_per_access) -> queries_per_s
      on sim_sssp; sim.* counts, runtime counts -> sim.cycles (exact)
  serve.* (batch_overhead_ms is what a prepared-matrix cache removes) ->
      queries_per_s and query_ms_p50 on serve_mixed
A sim-only change should leave native_analytics and serve_mixed unchanged; a
serve-cache change should leave native_analytics unchanged. Layers a workload
does not exercise report 0.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
WORKLOADS = ("sim_sssp", "native_analytics", "serve_mixed")
# Layers the spans are named after (the prefix before the first dot);
# "bench.run" is the root span, whose self time is the unattributed rest.
SPAN_LAYERS = ("sparse", "kernels", "runtime", "native", "graph", "serve",
               "host", "bench")
ROOT_SPAN = "bench.run"
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_runner",
                  "-j4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))


def rank(p, n):
    """Nearest rank of percentile p among n samples (1-based)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest rank: the smallest value with at least p% at or below it."""
    return sorted(values)[rank(p, len(values)) - 1]


def tail(values):
    """(percentile, value): the highest of p99.9/p99/p90/p50 that still has
    ten samples beyond it; (0, 0) with fewer than twenty samples."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n - rank(p, n) >= 10:
            return p, percentile(values, p)
    return 0.0, 0.0


def self_times(spans):
    """Per-layer self time (ms), unattributed time and traced wall time.

    `spans` rows are [name, parent index, begin ms, end ms]. A span's self
    time is its duration minus that of its direct children; children of one
    span never overlap (spans come from one thread, strictly nested). Layer
    self times plus the root span's own self time ("unattributed") sum to
    the root span's duration."""
    child_ms = [0.0] * len(spans)
    for name, parent, begin, end in spans:
        if parent >= 0:
            child_ms[parent] += end - begin
    layers = {layer: 0.0 for layer in SPAN_LAYERS}
    unattributed = wall = 0.0
    for i, (name, parent, begin, end) in enumerate(spans):
        own = (end - begin) - child_ms[i]
        if name == ROOT_SPAN and parent < 0:
            unattributed += own
            wall += end - begin
        else:
            layers[name.split(".")[0]] += own
    return layers, unattributed, wall


def metrics_from(doc):
    """Every metric this benchmark can report, from one runner record."""
    ops = doc["op_ms"]
    kinds = doc["op_kind"]
    m = {
        "setup_s": statistics.median(doc["setup_s"]),
        "queries_per_s": len(ops) / doc["ops_wall_s"],
        "query_ms_p50": statistics.median(ops),
        "peak_rss_mb": doc["peak_rss_mb"],
        "error_rate": doc["failed"] / doc["attempted"],
    }
    m.update(doc["layers"])
    for algo in ("bfs", "sssp", "pagerank"):
        own = [ms for k, ms in zip(kinds, ops) if k == "graph." + algo]
        m["graph.%s_ms" % algo] = statistics.median(own) if own else 0.0
    m["query.count"] = len(ops)
    m["query.tail_pct"], m["query.ms_tail"] = tail(ops)
    if doc["trace"]:
        layers, unattributed, wall = self_times(doc["spans"])
        for layer, ms in layers.items():
            m[layer + ".self_ms"] = ms
        m["trace.unattributed_ms"] = unattributed
        m["trace.wall_ms"] = wall
        m["trace.overhead_frac"] = (
            doc["traced_replay_s"] / doc["untraced_replay_s"] - 1.0)
    return m


def result_line(doc, metrics, spec):
    listed = spec["per_layer"] if doc["trace"] else spec["end_to_end"]
    out = {}
    for entry in listed:
        if entry["name"] not in metrics:
            raise KeyError("no value for metric " + entry["name"])
        out[entry["name"]] = {"value": metrics[entry["name"]],
                              "unit": entry["unit"]}
    return {"correct": doc["failed"] == 0 and not doc["failures"],
            "attempted": doc["attempted"], "failed": doc["failed"],
            "metrics": out}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-digest", action="store_true",
                    help="test hook: corrupt one validated digest")
    args = ap.parse_args(argv)

    spec = load_spec()
    build()
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".raw.json"]
    if args.corrupt_digest:
        cmd.append("--corrupt-digest")
    if os.path.exists(stem + ".raw.json"):
        os.remove(stem + ".raw.json")
    # The program reads COSPARSE_* settings from the environment (thread
    # counts, data and cache directories, telemetry); the benchmark fixes
    # all of them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("COSPARSE_")}
    proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1):
        log("perfbench: runner exited with %d" % proc.returncode)
        return 2
    with open(stem + ".raw.json") as f:
        doc = json.load(f)

    metrics = metrics_from(doc)
    line = result_line(doc, metrics, spec)
    with open(stem + ".json", "w") as f:
        json.dump({"provenance": doc["provenance"], "config": doc["config"],
                   "failures": doc["failures"], "all_metrics": metrics,
                   "result": line}, f, indent=1)
    for name, v in line["metrics"].items():
        print("%-28s %.6g %s" % (name, v["value"], v["unit"]))
    for failure in doc["failures"]:
        print("FAILED " + failure)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
