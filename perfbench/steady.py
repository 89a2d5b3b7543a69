#!/usr/bin/env python3
"""Steadiness check for perfbench.

Runs every workload --runs times with a different seed each time,
alternating the workload order between repetitions, and prints each
end-to-end metric's median, quartiles and spread (interquartile range over
median, as statistics.quantiles(values, n=4) gives the quartiles) against
the metric's bound in BENCHMARK.json.  A spread above its bound (setup_s
excepted: one cold set-up per run is expected to spread) or a failed-share
that differs between runs makes the script exit non-zero.

    python3 perfbench/steady.py [--runs 10] [--seed 1000] [--workloads a,b]
                                [--seconds N] [--out .bench_out/steady.json]

Run from the repository root.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out", default=os.path.join(".bench_out", "steady.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for rep in range(args.runs):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(spec, w, args.seed + rep, seconds)
            results[w].append(r)
            print(f"run {rep + 1}/{args.runs} {w}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), file=sys.stderr)

    ok = True
    print(f"{'workload':<11} {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'of bound':>8}")
    for w in workloads:
        runs = results[w]
        if not all(r["correct"] for r in runs):
            print(f"{w}: a run reported correct=false")
            ok = False
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            of_bound = spread / bound if bound == bound else float("nan")
            flag = ""
            if name != "setup_s" and not spread <= bound:
                flag = "  OVER"
                ok = False
            print(f"{w:<11} {name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.2%} {bound:>6.2f} {of_bound:>8.2f}{flag}")

    os.makedirs(os.path.dirname(os.path.join(ROOT, args.out)), exist_ok=True)
    with open(os.path.join(ROOT, args.out), "w") as f:
        json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
