#!/usr/bin/env python3
"""Repository benchmark for the Xenic simulator.

    python3 xbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Builds xbench_runner (the simulator library
compiled from src/ plus xbench/runner.cc) into .bench_build/xbench, runs the
workload as a series of runner processes, checks their outputs and prints the
metrics one per line with unit and kind, then one JSON object as the last
line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Without --workload every workload runs in turn and the metric names are
prefixed with the workload. Exits 1 when the build fails, a runner crashes or
a correctness check fails. xbench/README.md defines every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "xbench"
RUNNER = BUILD_DIR / "xbench_runner"

# Sub-runs pooled into the simulated metrics. Each is one runner process with
# its own seed derived from --seed; the count is fixed per workload so that
# the simulated metrics depend on --seed alone, never on host speed.
SIM_SUBRUNS = {"retwis-large": 4, "ycsb-hot": 8, "tpcc-neworder-long": 5}

# Hard limit for one invocation, below the 180 s a run may take.
TIME_LIMIT_S = 170.0

# (name, unit, kind): kind "sim" is simulated and deterministic per seed,
# "host" is time or memory on the machine running the simulator.
END_TO_END = [
    ("setup_s", "s", "host"),
    ("run_s", "s", "host"),
    ("wall_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("tput_per_server", "txn/s", "sim"),
    ("p50_latency_us", "us", "sim"),
    ("p99_latency_us", "us", "sim"),
    ("abort_rate", "ratio", "sim"),
]

RESOURCES = [
    "nicmodel.dma_queues",
    "nicmodel.dma_submit",
    "nicmodel.nic_cores",
    "nicmodel.host_cores",
    "net.wire_tx",
    "net.pcie_up",
    "net.pcie_down",
]
# No workload here ever queues work for the NIC or host cores (their mean
# wait reads 0), so only their utilisation is reported.
UTIL_ONLY = {"nicmodel.nic_cores", "nicmodel.host_cores"}
BUCKETS = ["host_cpu", "nic_arm", "dma", "wire", "queueing", "redo"]

# (name, unit, kind). "host" values are medians over the traced sub-runs
# (sim.host_ns_per_event over the untraced ones); "sim" values come from the
# first traced sub-run and repeat exactly for the same seed.
PER_LAYER = (
    [
        ("store.load_s", "s", "host"),
        ("store.load_ns_per_record", "ns", "host"),
        ("store.records", "count", "sim"),
        ("store.probe_slots_per_record", "count", "sim"),
        ("workload.gen_s", "s", "host"),
        ("workload.next_txn_ns", "ns", "host"),
        ("harness.build_s", "s", "host"),
        ("harness.measure_s", "s", "host"),
        ("harness.warmup_drain_s", "s", "host"),
        ("harness.latency_samples", "count", "sim"),
        ("sim.events", "count", "sim"),
        ("sim.events_per_commit", "count", "sim"),
        ("sim.host_ns_per_event", "ns", "host"),
        ("txn.submit_ns", "ns", "host"),
        ("txn.msgs_per_commit", "count", "sim"),
        ("txn.remote_rounds_per_commit", "count", "sim"),
        ("txn.local_fastpath_ratio", "ratio", "sim"),
    ]
    + [
        (f"txn.abort.{reason}_share", "ratio", "sim")
        for reason in ("lock_execute", "lock_local", "validate", "gap", "other")
    ]
    + [
        ("repl.log_msgs_per_commit", "count", "sim"),
        ("nicmodel.dma_ops_per_commit", "count", "sim"),
        ("nicmodel.dma_bytes_per_commit", "bytes", "sim"),
    ]
    + [
        (f"{res}.{stat}", unit, "sim")
        for res in RESOURCES
        for stat, unit in (("util", "ratio"), ("mean_wait_us", "us"))
        if stat == "util" or res not in UTIL_ONLY
    ]
    + [
        (f"path.{bucket}.{stat}", "us", "sim")
        for bucket in BUCKETS
        for stat in ("p50_us", "tail_us")
    ]
    + [
        ("obs.trace_overhead_s", "s", "host"),
        ("host.calib_ns", "ns", "host"),
    ]
)

# Runner outputs that must be identical between a traced and an untraced run
# of the same seed (the observer-only contract).
SIM_KEYS = [
    "tput_per_server",
    "abort_rate",
    "latency_samples",
    "committed",
    "aborted",
    "messages",
    "messages_by_type",
    "sim_events",
    "latency_hist",
]

MIN_COUNTED_COMMITS = 1000


class BenchError(Exception):
    pass


def build():
    """Configure (once) and build the runner; build output goes to stderr.
    Compiler temporaries go under the build directory, inside the checkout."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "Makefile").exists():
        steps.append(
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        )
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def subrun_seed(seed, i):
    return (seed * 1000 + i) % (1 << 64)


def run_runner(workload, seed, trace, deadline):
    """One runner process; returns its JSON output plus wall_s, the process's
    wall time less the runner's calibration loop."""
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - start)
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} seed {seed}: runner timed out") from e
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed}: runner exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall - result["calib_s"]
    return result


def check_subrun(r):
    """Correctness checks on one runner output; returns a list of failures."""
    errors = []
    if r["messages_by_type"] != r["messages"]:
        errors.append(
            f"message conservation: per-type sum {r['messages_by_type']} != {r['messages']}"
        )
    if r["committed"] <= 0:
        errors.append("nothing committed")
    if r["latency_samples"] < MIN_COUNTED_COMMITS:
        errors.append(f"{r['latency_samples']} counted commits < {MIN_COUNTED_COMMITS}")
    return errors


def check_same_simulation(plain, traced):
    return [
        f"traced run changed {k}: {plain[k]!r:.60} -> {traced[k]!r:.60}"
        for k in SIM_KEYS
        if plain[k] != traced[k]
    ]


def bucket_width(mid):
    # Histogram layout of src/common/histogram.cc: exact below 64, then 64
    # linear sub-buckets per octave.
    return 1 if mid < 64 else 1 << (mid.bit_length() - 6)


def quantile(hist, q):
    """Quantile of a pooled {bucket midpoint: count} histogram, interpolated
    linearly inside the bucket that holds the target rank."""
    total = sum(hist.values())
    rank = q * (total - 1)
    seen = 0
    for mid in sorted(hist):
        count = hist[mid]
        if seen + count > rank:
            width = bucket_width(mid)
            return mid - width / 2 + (rank - seen + 0.5) / count * width
        seen += count
    raise BenchError("empty latency histogram")


def pooled_simulation(results):
    hist = Counter()
    for r in results:
        for mid, count in r["latency_hist"]:
            hist[mid] += count
    commits = sum(r["committed"] for r in results)
    aborts = sum(r["aborted"] for r in results)
    samples = sum(hist.values())
    return {
        "tput_per_server": statistics.fmean(r["tput_per_server"] for r in results),
        "p50_latency_us": quantile(hist, 0.50) / 1e3,
        "p99_latency_us": quantile(hist, 0.99) / 1e3,
        "abort_rate": aborts / (aborts + commits),
    }, samples


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def measure_end_to_end(workload, seed, seconds):
    """Untraced sub-runs: the first SIM_SUBRUNS pool into the simulated
    metrics; more run while --seconds last, for the host-time medians."""
    subruns = SIM_SUBRUNS[workload]
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    results, errors = [], []
    while len(results) < subruns or (
        time.monotonic() - start + median_of(results, "wall_s") <= seconds
    ):
        r = run_runner(workload, subrun_seed(seed, len(results)), 0, deadline)
        errors += check_subrun(r)
        results.append(r)
    sim, samples = pooled_simulation(results[:subruns])
    metrics = {k: median_of(results, k) for k in ("setup_s", "run_s", "wall_s", "peak_rss_mb")}
    metrics.update(sim)
    notes = [
        f"p99_latency_us over {samples} samples ({samples // 100} beyond it), "
        f"{subruns} pooled sub-runs",
        f"{len(results)} sub-runs, host.calib_ns {median_of(results, 'host.calib_ns'):.4f}",
    ]
    attempted = sum(r["committed"] for r in results[:subruns])
    return metrics, END_TO_END, attempted, errors, notes


def measure_per_layer(workload, seed, seconds):
    """Pairs of an untraced and a traced sub-run of one seed, while --seconds
    last (at least one pair)."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    pairs, errors = [], []
    while not pairs or (
        time.monotonic() - start + (time.monotonic() - start) / len(pairs) <= seconds
    ):
        s = subrun_seed(seed, len(pairs))
        plain = run_runner(workload, s, 0, deadline)
        traced = run_runner(workload, s, 1, deadline)
        errors += check_subrun(plain) + check_subrun(traced)
        errors += check_same_simulation(plain, traced)
        pairs.append((plain, traced))
    plains = [p for p, _ in pairs]
    traces = [t for _, t in pairs]
    metrics = {}
    for name, _, kind in PER_LAYER:
        if name in traces[0]:
            metrics[name] = median_of(traces, name) if kind == "host" else traces[0][name]
    metrics["sim.host_ns_per_event"] = median_of(plains, "sim.host_ns_per_event")
    metrics["obs.trace_overhead_s"] = median_of(traces, "run_s") - median_of(plains, "run_s")
    metrics["host.calib_ns"] = median_of(plains + traces, "host.calib_ns")
    util = {res: metrics[f"{res}.util"] for res in RESOURCES}
    top = max(util, key=util.get)
    notes = [
        f"{len(pairs)} untraced+traced pairs; top-utilised resource {top} ({util[top]:.3f})",
    ]
    attempted = sum(p["committed"] for p in plains)
    return metrics, PER_LAYER, attempted, errors, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(SIM_SUBRUNS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build()
    except BenchError as e:
        print(f"xbench: {e}", file=sys.stderr)
        return 1

    workloads = [args.workload] if args.workload else list(SIM_SUBRUNS)
    measure = measure_per_layer if args.trace else measure_end_to_end
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in workloads:
        prefix = "" if args.workload else wl + "."
        try:
            metrics, table, attempted, errors, notes = measure(wl, args.seed, args.seconds)
        except BenchError as e:
            print(f"xbench: {e}", file=sys.stderr)
            return 1
        print(f"== {wl} (seed {args.seed}, trace {args.trace})")
        for name, unit, kind in table:
            print(f"{prefix + name:44s} {metrics[name]:14.6g} {unit:6s} {kind}")
        for note in notes:
            print(f"# {note}")
        for err in errors:
            print(f"xbench: {wl}: check failed: {err}", file=sys.stderr)
        out["attempted"] += attempted
        if errors:
            out["correct"] = False
            out["failed"] += attempted
        for name, unit, _ in table:
            out["metrics"][prefix + name] = {"value": metrics[name], "unit": unit}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
