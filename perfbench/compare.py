#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as `perfbench` appends them to
`perfbench/results/runs.jsonl` (one JSON object per line). For every
workload and metric present on both sides this prints each side's
median and quartiles, the ratio NEW/BASE with its base value, and a
verdict:

* `unresolved` - a side's spread (interquartile range over median)
  exceeds the end-to-end metric's bound, so the medians cannot be told
  apart;
* `within bound` - the median moved by no more than the bound;
* `worse` / `better` - the median moved past the bound, in the metric's
  bad or good direction.

Per-layer metrics have no bound; their spread takes its place, and a
move no larger than it reads `within spread`.

Bounds and directions come from BENCHMARK.json at the repository root.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    meta = {}
    for m in spec["end_to_end"]:
        meta[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        meta[m["name"]] = (m["better"], None)
    return meta


def load_runs(path):
    """{(workload, metric): [values]} over every correct run in `path`."""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            res = rec["result"]
            if not res["correct"]:
                continue
            for name, m in res["metrics"].items():
                runs[(rec["workload"], name)].append(m["value"])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(better, bound, base, new):
    (b_med, _, _, b_spread), (n_med, _, _, n_spread) = base, new
    if b_med == 0:
        return "same" if n_med == 0 else "new (base 0)"
    ratio = n_med / b_med
    noise = max(b_spread, n_spread)
    if bound is not None and noise > bound:
        return "unresolved"
    limit = noise if bound is None else bound
    if abs(ratio - 1.0) <= limit:
        return "within spread" if bound is None else "within bound"
    worse = ratio > 1.0 if better == "lower" else ratio < 1.0
    return "worse" if worse else "better"


def fmt(s):
    return f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    meta = load_spec()
    base = load_runs(argv[1])
    new = load_runs(argv[2])
    keys = sorted(set(base) & set(new))
    if not keys:
        print("no workload and metric in common", file=sys.stderr)
        return 1
    print(f"{'workload':11} {'metric':24} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'new/base (base)':>22}  verdict")
    for w, name in keys:
        better, bound = meta.get(name, ("lower", None))
        b = summary(base[(w, name)])
        n = summary(new[(w, name)])
        ratio = f"{n[0] / b[0]:.3f} ({b[0]:.4g})" if b[0] else "- (0)"
        print(f"{w:11} {name:24} {fmt(b):>32} {fmt(n):>32} {ratio:>22}  "
              f"{verdict(better, bound, b, n)} (runs {len(base[(w, name)])}/{len(new[(w, name)])})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
