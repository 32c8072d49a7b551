"""Compare two benchmark results files, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one JSON record per run, as ``run.py`` appends them to
``perfbench/out/results.jsonl``. For every workload, tracing mode and
metric, prints each side's run count, median and quartiles. End-to-end
metrics of ``BENCHMARK.json`` also get a verdict against their bound:

* ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, and the runs do not separate completely;
* ``worse``: NEW's median is worse than BASE's by more than the bound, or
  every NEW run is worse than every BASE run while the spread is too wide;
* ``better``: NEW's median is better than BASE's by more than BASE's own
  quartile spread, or every NEW run is better than every BASE run;
* ``within-bound``: none of the above.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import load_spec


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    key = (rec["workload"], rec["trace"], name)
                    groups.setdefault(key, []).append(m["value"])
    return groups


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), q1, q3


def verdict(base, new, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    (mb, b1, b3), (mn, n1, n3) = summary(base), summary(new)
    spread_base = (b3 - b1) / mb if mb else 0.0
    spread_new = (n3 - n1) / mn if mn else 0.0
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    if max(spread_base, spread_new) > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    change = sign * (mn - mb) / mb if mb else 0.0
    if change > bound:
        return "worse"
    if -change > spread_base or all_better:
        return "better"
    return "within-bound"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    print(f"{'workload':15s} {'t':1s} {'metric':32s} {'base n  median [q1, q3]':>36s}"
          f" {'new n  median [q1, q3]':>36s}  verdict")
    for key in sorted(set(base) | set(new)):
        workload, trace, name = key
        cells = []
        for side in (base, new):
            if key in side:
                m, q1, q3 = summary(side[key])
                cells.append(f"{len(side[key]):2d} {m:11.5g} [{q1:.5g}, {q3:.5g}]")
            else:
                cells.append("-")
        v = "-"
        if trace == 0 and name in bounds and key in base and key in new:
            b = bounds[name]
            v = verdict(base[key], new[key], b["bound"], b["better"] == "lower")
        print(f"{workload:15s} {trace:1d} {name:32s} {cells[0]:>36s} {cells[1]:>36s}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
