#!/usr/bin/env python3
"""Builds the benchmark driver and runs one workload of the benchmark.

    python3 perfbench/run.py --workload pagerank|ktruss|ingest \
        --seed N --seconds S --trace 0|1

Run from the root of the repository.  The first run configures and
builds the library and the driver (perfbench/grbbench.cpp) in Release
mode under $CARGO_TARGET_DIR (default .bench_build); later runs reuse
that build.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, taken from the library's counters (whole window) and its spans
(the first few ops), split by the module the time was spent in.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pagerank", "ktruss", "ingest")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720
# Allowed beyond --seconds: input generation, references, set-up, checks.
RUN_SLACK_S = 120


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_cmd(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout.

    Build and benchmark output goes to stderr so that stdout carries only
    the result line.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        die(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_cmd(["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"], CONFIGURE_TIMEOUT_S)
    run_cmd(["cmake", "--build", build_dir, "--target", "grbbench",
             "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "grbbench")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    # No tail percentile: ktruss completes well under 100 ops in a window,
    # too few for a p90 with ten samples beyond it.
    return {
        "latency_ms": metric(statistics.median(raw["op_ms"]), "ms"),
        "setup_s": metric(statistics.median(raw["setup_ms"]) / 1e3, "s"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MiB"),
    }


# --- per-layer split ---------------------------------------------------------

# Library entry points grouped by the part of src/ that does their work.
# Names are the C API's, without the GrB_/Matrix_/Vector_ prefixes and
# template suffixes; anything unlisted (new, dup, free, nvals,
# extractTuples, ...) is container bookkeeping.
FAMILIES = {
    "mxm": "ops.semiring_ms", "vxm": "ops.semiring_ms",
    "mxv": "ops.semiring_ms",
    "eWiseAdd": "ops.ewise_ms", "eWiseMult": "ops.ewise_ms",
    "eWiseUnion": "ops.ewise_ms",
    "apply": "ops.apply_select_ms", "select": "ops.apply_select_ms",
    "reduce": "ops.reduce_ms",
    "assign": "ops.assign_extract_ms", "subassign": "ops.assign_extract_ms",
    "extract": "ops.assign_extract_ms",
    "setElement": "ops.element_ms", "extractElement": "ops.element_ms",
    "removeElement": "ops.element_ms",
    "wait": "exec.wait_ms",
}
FAMILY_METRICS = sorted(set(FAMILIES.values())) + ["containers.other_ms"]


def family(name):
    base = name.split("<", 1)[0]
    for prefix in ("GrB_", "Matrix_", "Vector_", "Scalar_"):
        if base.startswith(prefix):
            base = base[len(prefix):]
    return FAMILIES.get(base, "containers.other_ms")


def span_split(trace_path, traced_ops, traced_wall_ms):
    """Exclusive time per module, in ms per op, from the library's spans.

    A span's self time is its duration minus its children's.  API spans
    ("api") hold validation, enqueueing and synchronous work; deferred
    spans ("deferred") hold kernels run at completion, charged to the
    entry point that enqueued them; fusion spans hold planning and fused
    execution.  Calls the benchmark makes for itself (GxB_*) are left out.
    """
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e.get("ph") == "X" and not e["name"].startswith("GxB_")]
    out = {m: 0.0 for m in FAMILY_METRICS}
    out.update({"capi.sync_ms": 0.0, "exec.deferred_ms": 0.0,
                "exec.fusion_ms": 0.0})
    top_level_us = 0.0
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            e["child_us"] = 0.0
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
                stack.pop()
            if stack:
                stack[-1]["child_us"] += e["dur"]
            else:
                top_level_us += e["dur"]
            stack.append(e)
        for e in spans:
            self_ms = (e["dur"] - e["child_us"]) / 1e3
            cat = e.get("cat")
            if cat == "fusion":
                out["exec.fusion_ms"] += self_ms
                continue
            out[family(e["name"])] += self_ms
            layer = "exec.deferred_ms" if cat == "deferred" else "capi.sync_ms"
            out[layer] += self_ms
    # Time between library calls: algorithm code (src/algorithms) and the
    # benchmark's own loop.
    out["caller.self_ms"] = traced_wall_ms - top_level_us / 1e3
    return {k: v / traced_ops for k, v in out.items()}


def per_layer(raw, trace_path):
    n = raw["attempted"]
    st = raw["stats"]
    ops = {k: v for k, v in st["ops"].items() if not k.startswith("GxB_")}
    glob = st["global"]
    pools = st.get("pools", {}).values()

    def total(field):
        return sum(v.get(field, 0) for v in ops.values())

    def share(num, den):
        return num / den if den else 0.0

    traced = raw["traced_ops"]
    spans = span_split(trace_path, traced, sum(raw["op_ms"][:traced]))
    m = {k: metric(v, "ms") for k, v in spans.items()}
    m["bench.traced_op_ms"] = metric(statistics.median(raw["op_ms"]), "ms")
    counts = {
        "capi.calls": total("calls"),
        "exec.enqueued": glob.get("queue.enqueued", 0),
        "exec.fused_ops": glob.get("fusion.ops_fused", 0),
        "exec.dead_writes": glob.get("fusion.dead_writes_eliminated", 0),
        "exec.pool_chunks": sum(p.get("chunks", 0) for p in pools),
        "ops.flops": total("flops"),
        "containers.format_switches": glob.get("format.switches", 0),
        "containers.csr_conversions": glob.get("format.csr_conversions", 0),
    }
    for k, v in counts.items():
        m[k] = metric(v / n, "count")
    # Worker time parked waiting for work, summed over the pool's threads.
    m["exec.pool_park_ms"] = metric(
        sum(p.get("park_ns", 0) for p in pools) / 1e6 / n, "ms")
    m["exec.parallel_share"] = metric(
        share(total("parallel"), total("parallel") + total("serial")), "ratio")
    hits = glob.get("arena.reuse_hits", 0)
    m["ops.arena_reuse_share"] = metric(
        share(hits, hits + glob.get("arena.reuse_misses", 0)), "ratio")
    hits = glob.get("format.transpose_cache_hits", 0)
    m["containers.transpose_hit_share"] = metric(
        share(hits, hits + glob.get("format.transpose_cache_misses", 0)),
        "ratio")
    m["mem.library_peak_mb"] = metric(
        glob.get("mem.peak_bytes", 0) / 2**20, "MiB")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    exe = build(build_dir)
    trace_path = os.path.join(build_dir, f"spans_{args.workload}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    out = run_cmd(cmd, args.seconds + RUN_SLACK_S, capture=True)
    lines = out.strip().splitlines()
    if not lines:
        die("driver printed nothing")
    raw = json.loads(lines[-1])
    if raw["attempted"] < 1:
        die("no op completed within the window")
    metrics = (per_layer(raw, trace_path) if args.trace else end_to_end(raw))
    print(json.dumps({
        "correct": bool(raw["correct"]) and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
