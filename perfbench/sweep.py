"""Accuracy/cost sweep over hypotheses H and DDIM iterations M (not gated).

    python3 perfbench/sweep.py --seed 1

Builds the ``tiny-estimate`` set-up for the seed (the same synthesized data
and set-up-trained checkpoint the benchmark uses), then runs
``cli.run_estimate`` and ``cli.run_eval`` for every H in {1, 4, 20} and M in
{1, 4, 10}. Writes ``mpjpe_mm`` and ``estimate_seq_s`` (median seconds per
record) per cell to ``perfbench/out/sweep-seed<seed>.json`` and prints them
as a table. BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
HYPOTHESES = (1, 4, 20)
ITERATIONS = (1, 4, 10)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isfile(os.path.join(src, "posediff", "__init__.py")):
        print("error: src/posediff not found; run from a posediff checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads BLAS
    os.environ.pop("POSEDIFF_THREADS", None)
    sys.path.insert(0, src)
    from posediff import cli

    from workload import N_JOINTS, WORKLOADS, Clock, Ops, setup

    spec = WORKLOADS["tiny-estimate"]
    work = os.path.join(OUT, f"sweep-work-{os.getpid()}")
    cells = []
    try:
        state = setup(spec, args.seed, work)
        for H in HYPOTHESES:
            for M in ITERATIONS:
                pred = os.path.join(work, f"pred-h{H}-m{M}.ptc")
                clock = Clock(spec["frames"] * N_JOINTS, state["cfg"]["model"]["feature_dim"],
                              spec["cal_ms"])
                clock.point()
                ops = Ops(clock)
                ops.install()
                try:
                    cli.run_estimate(state["checkpoint"], state["test_data"], pred,
                                     hypotheses=H, iterations=M)
                finally:
                    ops.uninstall()
                _, _, rows = cli.run_eval(pred, state["test_data"], os.path.join(work, "eval"))
                overall = next(r for r in rows if r[0] == "overall")[5]
                cells.append({
                    "hypotheses": H,
                    "iterations": M,
                    "mpjpe_mm": overall["mpjpe_mm"],
                    "p_mpjpe_mm": overall["p_mpjpe_mm"],
                    "estimate_seq_s": statistics.median(ops.per_op_ms(ops.spans, False)) / 1e3,
                    "records": len(ops.spans),
                })
                c = cells[-1]
                print(f"H={H:2d} M={M:2d}  mpjpe {c['mpjpe_mm']:8.2f} mm  "
                      f"p-mpjpe {c['p_mpjpe_mm']:8.2f} mm  {c['estimate_seq_s']:7.3f} s/record",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = os.path.join(OUT, f"sweep-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "workload": "tiny-estimate", "cells": cells}, f, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
