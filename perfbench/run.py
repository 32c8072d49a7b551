"""posediff benchmark: one workload per invocation, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tiny-train --seed 1 --seconds 10 --trace 0

The workload runs in a fresh child process (``workload.py``) with
``POSEDIFF_THREADS`` unset and BLAS pinned to one thread through the child's
environment. Inputs are synthesized from ``--seed``; the program sees only
the generated datasets and checkpoints. Working files live under
``perfbench/out/`` and are removed at the end; each run appends its full
record (every metric, every output check, the environment) to
``perfbench/out/results.jsonl``, and a traced run also writes its spans
there. The last line on stdout is the JSON result; with ``--trace 0`` it
carries the ``end_to_end`` metrics of ``BENCHMARK.json``, with
``--trace 1`` the ``per_layer`` metrics.

Workloads (why each exists is in ``BENCHMARK.json``):

* ``tiny-train``: ``cli.run_train``, tiny preset, 8 sequences of 16 frames,
  20 steps per pass. Interpreter-bound: graph building, backward and
  per-tensor AdamW.
* ``tiny-estimate``: ``cli.run_estimate`` + ``cli.run_eval`` at H=20, M=10 on
  6 sequences plus a 2-character scene; the checkpoint is trained for 40
  steps in set-up. No graph, no backward.
* ``paper-estimate``: full paper shape (243 frames, D=512), H=2, M=2, one
  sequence, seeded untrained checkpoint written in set-up; two passes.
  BLAS- and memory-bound.

End-to-end metrics (tracing off): ``setup_s`` (child start-up and imports,
plus the median of three set-ups), ``wall_s`` (median wall of one pass),
``op_ms`` (median ms per optimizer step or per record), ``peak_rss_mb``.
Times are calibrated: each interval is scaled by the speed of a fixed
kernel timed around it (``workload.Clock``), because the shared host this
was built on drifts by up to 2x between runs. The raw times are printed
and kept as ``*_raw``. The child also reports the workload-specific
``train_step_ms``, ``train_samples_per_s``, ``train_loss_final``,
``estimate_seq_s``, ``mpjpe_mm``, ``p_mpjpe_mm`` and ``ops_failed_share``.

Per-layer metrics (``--trace 1``) come from spans recorded around posediff's
public functions by ``tracing.py``; milliseconds (raw) and calls are per
pass. A layer the workload does not run reads 0. Counts marked
``computed`` are derived from shapes, not measured.

Related tools: ``compare.py`` compares two results files; ``sweep.py`` runs
the hypothesis/iteration accuracy-cost sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_child(args, tag):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env.pop("POSEDIFF_THREADS", None)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", MALLOC_MMAP_THRESHOLD_="131072",
    )
    work = os.path.join(OUT, f"work-{tag}")
    result = os.path.join(OUT, f"result-{tag}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--result", result,
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{tag}.json")]
    try:
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited with code {proc.returncode}")
        with open(result) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(result):
            os.unlink(result)


def report(rec, declared):
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"passes {rec['passes']}  ops {rec['attempted']} attempted, {rec['failed']} failed")
    for name, m in rec["metrics"].items():
        mark = "*" if name in declared else " "
        kind = "  (computed)" if m["kind"] == "computed" else ""
        print(f" {mark} {name:32s} {m['value']:>14.6g} {m['unit']}{kind}")
    for name, ok in rec["checks"].items():
        print(f"   check {name:30s} {'PASS' if ok else 'FAIL'}")
    for err in rec["errors"]:
        print("   error: " + err.strip().replace("\n", "\n          "))
    env = rec["env"]
    print(f"   env nproc={env['nproc']} blas={env['blas']!r} blas_threads={env['blas_threads']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"loadavg={env['loadavg_start']}->{env['loadavg_end']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "posediff", "__init__.py")):
        print("error: src/posediff not found; run from the root of a posediff checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        rec = run_child(args, tag)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    report(rec, {m["name"] for m in declared})
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps(rec) + "\n")
    if not rec["passes"]:
        print("error: no pass completed; no metrics to report", file=sys.stderr)
        return 1
    metrics = {}
    for m in declared:
        got = rec["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"error: metric {m['name']!r} missing or not in {m['unit']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(rec["checks"].values()),
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
