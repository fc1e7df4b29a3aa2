#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload and layer
by layer.

    python3 perfbench/summarize.py base.jsonl change.jsonl

Each file holds the JSON lines run.py --out appends (one per run). For
every workload and metric the report gives each side's median and
quartiles over its runs, the number of runs, and the ratio of the
medians together with its base, grouped by layer: end-to-end metrics
first, then the per-layer metrics by the module before the dot. A
metric present on one side only is listed with the other side empty.
"""

import json
import statistics
import sys


def load(path):
    """Returns {(workload, trace): {metric: (unit, [values])}}."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            metrics = out.setdefault(key, {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return out


def stats(values):
    if not values:
        return None
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, len(values)


def fmt(s):
    if s is None:
        return "%-40s" % "-"
    med, q1, q3, n = s
    return "%12.4g [%10.4g %10.4g] n=%-3d" % (med, q1, q3, n)


def layer(name):
    return name.split(".", 1)[0] if "." in name else "end-to-end"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        print("== %s (%s)" % (workload, "traced, per layer" if trace else "end to end"))
        print("   %-30s %-8s %-40s %-40s %s" % ("metric", "unit", "base median [q1 q3]", "change median [q1 q3]", "ratio (base)"))
        b, c = base.get(key, {}), change.get(key, {})
        names = sorted(set(b) | set(c), key=lambda n: (layer(n) != "end-to-end", layer(n), n))
        current = None
        for name in names:
            if layer(name) != current:
                current = layer(name)
                print("   -- %s" % current)
            unit = (b.get(name) or c.get(name))[0]
            sb = stats(b[name][1]) if name in b else None
            sc = stats(c[name][1]) if name in c else None
            ratio = "-"
            if sb and sc and sb[0] != 0:
                ratio = "%.4f (base %.4g %s)" % (sc[0] / sb[0], sb[0], unit)
            print("   %-30s %-8s %s %s %s" % (name, unit, fmt(sb), fmt(sc), ratio))
        print()


if __name__ == "__main__":
    main()
