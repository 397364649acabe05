#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per (workload, metric).

Usage (from the repository root):

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files run.py writes with ``--out`` (only the
untraced ``*-trace0.json`` ones are read).  For every workload and every
end-to-end metric in BENCHMARK.json, plus op_p99_ms and fail_ratio, which
are reported but not declared, the row shows each side's median with its
quartiles over the runs, and a verdict:

* unresolved -- either side's spread (quartile distance over median) exceeds
  the metric's bound, and not every new run beats, or trails, every base run;
* worse      -- the new median is worse than the base by more than the bound;
* better     -- the new median is better by more than the base's own spread;
* unchanged  -- anything else.

op_p99_ms is judged with the bound the declared time metrics carry.
fail_ratio has no bound: any difference in its median decides the verdict.
A note flags seeds whose input digests differ between the two sides, since
then the two sides did not run the same inputs.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: [result, ...]} from the untraced result files."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            r = json.load(fh)
        out.setdefault(r["workload"], []).append(r)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base, new, better, bound):
    sign = 1 if better == "higher" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    if bound is None:
        if mn == mb:
            return "unchanged"
        return "better" if sign * (mn - mb) > 0 else "worse"
    if max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "better"
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "worse"
        return "unresolved"
    gain = sign * (mn - mb) / mb
    if gain < -bound:
        return "worse"
    if gain > spread(base):
        return "better"
    return "unchanged"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    p50_bound = next(b for n, _, b in metrics if n == "op_p50_ms")
    metrics += [("op_p99_ms", "lower", p50_bound), ("fail_ratio", "lower", None)]
    base, new = load(argv[0]), load(argv[1])
    fmt = "{:<16} {:<12} {:>30} {:>30}  {}"
    print(fmt.format("workload", "metric", "base median [q1, q3]",
                     "new median [q1, q3]", "verdict"))
    for workload in sorted(set(base) & set(new)):
        digests = {}
        for side, runs in (("base", base[workload]), ("new", new[workload])):
            for r in runs:
                digests.setdefault(r["seed"], {})[side] = r["input_sha256"]
        differing = sorted(s for s, d in digests.items()
                           if len(d) == 2 and d["base"] != d["new"])
        for name, better, bound in metrics:
            cols = []
            values = {}
            for side, runs in (("base", base[workload]), ("new", new[workload])):
                v = [r["metrics"][name]["value"] if name in r["metrics"] else r[name]
                     for r in runs]
                q1, med, q3 = quartiles(v)
                cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(v)}")
                values[side] = v
            print(fmt.format(workload, name, *cols,
                             verdict(values["base"], values["new"], better, bound)))
        if differing:
            print(f"note: {workload} inputs differ between the sides for seeds "
                  f"{differing}")
    for workload in sorted(set(base) ^ set(new)):
        print(f"note: {workload} has results on one side only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
