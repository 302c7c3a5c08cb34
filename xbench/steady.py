#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 xbench/steady.py [--runs 10] [--seconds 30] [--save FILE] [--compare FILE]

Runs xbench/run.py --runs times per workload, one process at a time, with
seed i + 1 on round i and the workload order reversed on every other round,
so a drift of the host's speed spreads over all workloads alike. Prints per
metric the median, the quartiles (statistics.quantiles, n=4) and the spread,
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json; "ok"
means the spread is below a third of the bound, "FAIL" that it is above the
bound. host.calib_ns, the runner's fixed CPU loop, shows whether the host
itself was slow or noisy while the set ran.

--save writes every value to FILE; --compare FILE checks that each median is
no worse than FILE's by more than the bound, the test a second set of runs of
the same code must pass.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from run import SIM_SUBRUNS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALIB = re.compile(r"host\.calib_ns ([0-9.eE+-]+)")


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    calib = CALIB.search(proc.stdout)
    if calib:
        values["host.calib_ns"] = float(calib.group(1))
    return result["correct"], values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(name, spec, base, new):
    if base == 0:
        return 0.0
    change = (new - base) / base
    return -change if spec.get(name, {}).get("better") == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    workloads = list(SIM_SUBRUNS)
    spec = load_spec()
    data = {w: {} for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            correct, values = run_once(w, i + 1, args.seconds)
            ok &= correct
            for name, v in values.items():
                data[w].setdefault(name, []).append(v)
            print(f"round {i} {w}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  flush=True)

    base = json.loads(Path(args.compare).read_text()) if args.compare else None
    for w in workloads:
        print(f"\n== {w} ({args.runs} runs)")
        print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}  verdict")
        for name, values in data[w].items():
            med, q1, q3, sp = spread(values)
            bound = spec.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "FAIL")
                ok &= sp <= bound
            if base is not None and bound is not None:
                old = statistics.median(base[w][name])
                delta = worse_by(name, spec, old, med)
                verdict += f" vs saved median {old:.6g}: worse by {delta:+.3f}"
                ok &= delta <= bound
            print(f"{name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} "
                  f"{bound if bound is not None else '':>6}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(data))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
