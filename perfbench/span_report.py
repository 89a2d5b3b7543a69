#!/usr/bin/env python3
"""Reduce a perfbench span dump to a per-layer self-time table.

A traced run (--trace 1) writes .bench_out/spans-<workload>-<seed>.json:
{"spans": [{"id", "name", "parent", "start_us", "dur_us"}, ...]}, recorded
by the benchmark around its calls into each layer's public functions.  A
span's self time is its duration minus the time its child spans cover; a
layer is the first dot-separated part of the span name ("bench" is the
benchmark's own work: input copies, polling, checks).

    python3 perfbench/span_report.py .bench_out/spans-paper_n6-1.json [...]

Standard library only.
"""

import json
import sys
from collections import defaultdict


def self_times(spans):
    """Yield (name, duration_us, self_us) for every span."""
    child_cover = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_cover[s["parent"]] += s["dur_us"]
    for s in spans:
        yield s["name"], s["dur_us"], max(0.0, s["dur_us"] - child_cover[s["id"]])


def report(path):
    with open(path) as f:
        spans = json.load(f)["spans"]
    by_name = defaultdict(lambda: [0, 0.0, 0.0])
    by_layer = defaultdict(float)
    for name, dur, self_us in self_times(spans):
        row = by_name[name]
        row[0] += 1
        row[1] += dur
        row[2] += self_us
        by_layer[name.split(".")[0]] += self_us
    total_self = sum(by_layer.values()) or 1.0

    print(f"# {path}")
    print(f"{'layer':<10} {'self ms':>12} {'share':>7}")
    for layer, us in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"{layer:<10} {us / 1e3:>12.2f} {us / total_self:>7.1%}")
    print()
    print(f"{'span':<36} {'count':>7} {'total ms':>12} {'self ms':>12} {'mean us':>12}")
    for name, (count, dur, self_us) in sorted(by_name.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<36} {count:>7} {dur / 1e3:>12.2f} {self_us / 1e3:>12.2f} "
              f"{dur / count:>12.1f}")
    print()


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv:
        report(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
