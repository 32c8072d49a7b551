"""One benchmark workload in one process: set-up, timed passes, output checks.

Started by ``run.py`` with BLAS pinned to one thread through the
environment; not meant to be run by hand. A *pass* is the workload's fixed
unit of work through the public CLI functions: ``cli.run_train`` for a fixed
step count, or ``cli.run_estimate`` followed by ``cli.run_eval``. The timed
phase repeats passes until ``--seconds`` have elapsed (at least
``min_passes``). An *op* is one optimizer step (train workloads) or one
record (estimate workloads); ops are timed from outside, around
``Trainer.train_epoch`` and around the ``estimate_single`` that ``cli``
calls. Times are calibrated (see ``Clock``); the raw figures are kept under
``*_raw`` names.

With ``--trace 1`` the set-up runs once under the tracer, the untraced passes
run as usual, and then the same number of passes run again under the tracer;
per-layer metrics are raw and per traced pass, except ``data.synth_ms``,
which is per set-up because synthesis happens only there.

The result, with every metric the workload produces, goes to ``--result``
as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback

import numpy as np

from posediff import autodiff, cli, data, denoiser, training
from posediff.config import build_runtime, load_config
from posediff.container import read_container
from posediff.prompts import TOTAL_TOKENS, PromptSpec

from tracing import Tracer

SETUP_REPEATS = 3
N_JOINTS = 17

# ``steps`` is the pass length of a train workload; ``setup_steps`` the
# training that makes an estimate workload's checkpoint, 0 for a seeded,
# untrained one. ``mpjpe_bound_mm`` is the correctness bound on the eval
# report, set from the spread over seeds at that many set-up steps.
# ``cal_ms`` is the nominal time of the workload's calibration kernel (see
# ``Clock``): its median on the 2-core host the benchmark was built on.
WORKLOADS = {
    "tiny-train": dict(
        kind="train", preset="tiny", frames=16, sequences=8, steps=20, min_passes=5,
        cal_ms=12.0,
    ),
    "tiny-estimate": dict(
        kind="estimate", preset="tiny", frames=16, sequences=6, characters=2,
        setup_steps=40, hypotheses=20, iterations=10, mpjpe_bound_mm=300.0, min_passes=1,
        cal_ms=12.0,
    ),
    "paper-estimate": dict(
        kind="estimate", preset="paper", frames=243, sequences=1, characters=0,
        setup_steps=0, hypotheses=2, iterations=2, mpjpe_bound_mm=None, min_passes=2,
        cal_ms=40.0,
    ),
}


def _config(spec, seed):
    return load_config(
        preset_name=spec["preset"],
        overrides={"seed": seed, "data": {"n_frames": spec["frames"]}},
    )


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# -- computed counts -------------------------------------------------------------


def forward_flops(cfg):
    """FLOPs (2 per multiply-add) of one denoiser forward, from config shapes.

    Counts the linear GEMMs, QK^T and AV of spatial and temporal attention,
    and cross-attention over the prompt rows; elementwise work is left out.
    """
    m = cfg["model"]
    n, j, d = cfg["data"]["n_frames"], N_JOINTS, m["feature_dim"]
    hidden = int(round(m["mlp_ratio"] * d))
    tokens = n * j
    gemm = 2 * tokens * 5 * d + 2 * tokens * d * 3  # input embed, head
    gemm += 2 * 2 * (2 * d * d)  # timestamp MLP, run by embed_input and pts
    spatial = m["blocks_spatial"] + m["blocks_spatio_temporal"]
    temporal = m["blocks_temporal"] + m["blocks_spatio_temporal"]
    per_block = 4 * 2 * tokens * d * d + 2 * 2 * tokens * d * hidden
    gemm += (spatial + temporal) * per_block
    attn = spatial * 2 * 2 * tokens * j * d + temporal * 2 * 2 * tokens * n * d
    if m["use_fpp"] and m["use_fpc"]:
        p = TOTAL_TOKENS
        gemm += 2 * 2 * tokens * d * d + 2 * 2 * p * d * d  # q, o; k, v on prompts
        attn += 2 * 2 * tokens * p * d
    if m["use_pts"]:
        gemm += 3 * 2 * d * d
    return gemm + attn


def trainable_params(cfg):
    m = cfg["model"]
    dc = denoiser.DenoiserConfig(n_frames=cfg["data"]["n_frames"], n_joints=N_JOINTS, **m)
    count = sum(math.prod(s) for s in denoiser.weight_shapes(dc).values())
    if m["use_fpp"]:
        count += sum(PromptSpec().modifier_rows) * m["feature_dim"]
    return count


# -- environment ---------------------------------------------------------------


def _blas():
    """(library description, threads in effect) of the BLAS numpy loaded."""
    import ctypes

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    desc = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "blas" in ln.lower() and "/" in ln})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is None:
                    continue
                fn.restype = ctypes.c_int
                conf = getattr(lib, f"{prefix}get_config{suffix}", None)
                if conf is not None:
                    conf.restype = ctypes.c_char_p
                    desc = conf().decode()
                return desc, int(fn())
    return desc, -1


def environment():
    desc, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": desc,
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "posediff_threads": os.environ.get("POSEDIFF_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": os.getloadavg(),
    }


# -- calibrated clock ------------------------------------------------------------

CAL_GAP_S = 0.5


class Clock:
    """A timeline of calibration points that reports time at a nominal speed.

    The shared host this benchmark was built on changes speed by up to 2x
    over tens of seconds, which no amount of work in one run averages out.
    Each ``point()`` runs a fixed kernel owned by the benchmark: a Python
    loop over small numpy ops plus one GEMM of the workload's token count
    and model width, i.e. what posediff spends its time on, but unaffected
    by changes to posediff. The time between two consecutive points is
    scaled by ``nominal_ms`` over the median kernel time of the points
    around it, i.e. reported at the speed of a machine that runs the kernel
    in ``nominal_ms``; kernel time itself is in no interval. Ops,
    passes and set-ups are bracketed by points, and ``Ops`` adds points
    inside long ops, at most every ``CAL_GAP_S``. ``now()`` is a clock that
    stands still while the kernel runs; the tracer uses it, so no span
    counts kernel time.
    """

    def __init__(self, tokens, width, nominal_ms):
        self.nominal_ms = nominal_ms
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((272, 64)).astype(np.float32)
        self.w = rng.standard_normal((64, 64)).astype(np.float32) * 0.1
        self.g = rng.standard_normal((384, 384)).astype(np.float32)
        self.x = rng.standard_normal((tokens, width)).astype(np.float32)
        self.wx = rng.standard_normal((width, width)).astype(np.float32) * 0.05
        self.seg_s = []  # seg_s[i]: seconds from the end of point i-1 to point i
        self.kernel_ms = []  # kernel_ms[i]: kernel time at point i
        self.kernel_s = 0.0
        self._mark = None

    def _kernel_ms(self):
        t0 = time.perf_counter()
        for _ in range(2):
            for _ in range(100):
                h = self.a @ self.w
                h = h - h.mean(axis=-1, keepdims=True)
                np.exp(-np.abs(h)).sum()
            for _ in range(3):
                self.g @ self.g
            np.exp(-np.abs(self.x @ self.wx)).sum()
        return (time.perf_counter() - t0) * 1e3 / 2

    def now(self):
        return time.perf_counter() - self.kernel_s

    def point(self):
        """Close the current segment; returns the index of this point."""
        end = time.perf_counter()
        self.seg_s.append(0.0 if self._mark is None else end - self._mark)
        self.kernel_ms.append(self._kernel_ms())
        self._mark = time.perf_counter()
        self.kernel_s += self._mark - end
        return len(self.seg_s) - 1

    def maybe_point(self):
        if time.perf_counter() - self._mark >= CAL_GAP_S:
            self.point()

    def _ref_ms(self, i):
        # kernels at the points around segment i: one before it, two after
        return statistics.median(self.kernel_ms[max(0, i - 1): i + 2])

    def raw(self, i0, i1):
        return sum(self.seg_s[i0 + 1: i1 + 1])

    def calibrated(self, i0, i1):
        return sum(self.seg_s[i] * self.nominal_ms / self._ref_ms(i)
                   for i in range(i0 + 1, i1 + 1))


# -- op timing -----------------------------------------------------------------


class Ops:
    """Counts and brackets ops from outside the program.

    Patches ``Trainer.train_epoch`` (an epoch's steps share one interval),
    ``cli.estimate_single`` (one record) and ``Tensor.backward`` (counted).
    The patched ``Denoiser.denoise`` and ``Tensor.backward`` add clock
    points inside long ops. An op that raises is counted as failed and the
    exception moves on to end the pass.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # (first point, last point, steps)
        self.attempted = 0
        self.failed = 0
        self.backward_calls = 0
        self._patches = []

    def install(self):
        ops, clock = self, self.clock
        epoch = training.Trainer.train_epoch
        record = cli.estimate_single
        backward = autodiff.Tensor.backward
        denoise = denoiser.Denoiser.denoise

        def train_epoch(trainer, *args, **kwargs):
            before = trainer.opt.step_count
            i0 = clock.point()
            try:
                result = epoch(trainer, *args, **kwargs)
            except Exception:
                ops.attempted += trainer.opt.step_count - before + 1
                ops.failed += 1
                raise
            steps = trainer.opt.step_count - before
            ops.attempted += steps
            ops.spans.append((i0, clock.point(), steps))
            return result

        def estimate_single(*args, **kwargs):
            ops.attempted += 1
            i0 = clock.point()
            try:
                result = record(*args, **kwargs)
            except Exception:
                ops.failed += 1
                raise
            ops.spans.append((i0, clock.point(), 1))
            return result

        def counted_backward(tensor, *args, **kwargs):
            ops.backward_calls += 1
            result = backward(tensor, *args, **kwargs)
            clock.maybe_point()
            return result

        def clocked_denoise(*args, **kwargs):
            result = denoise(*args, **kwargs)
            clock.maybe_point()
            return result

        for owner, attr, new in ((training.Trainer, "train_epoch", train_epoch),
                                 (cli, "estimate_single", estimate_single),
                                 (autodiff.Tensor, "backward", counted_backward),
                                 (denoiser.Denoiser, "denoise", clocked_denoise)):
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def per_op_ms(self, spans, calibrated):
        interval = self.clock.calibrated if calibrated else self.clock.raw
        return [interval(i0, i1) * 1e3 / steps for i0, i1, steps in spans if steps]


# -- set-up and passes ------------------------------------------------------------


def setup(spec, seed, work):
    """Synthesize inputs and, for estimate workloads, write the checkpoint."""
    os.makedirs(work, exist_ok=True)
    cfg = _config(spec, seed)
    state = {"cfg": cfg}
    if spec["kind"] == "train":
        path = os.path.join(work, "train.ptc")
        data.save_dataset(
            path, data.synth_generate(spec["sequences"], spec["frames"], N_JOINTS, seed)
        )
        state["train_data"] = path
        state["artifact"] = path
        return state
    test = data.synth_generate(spec["sequences"], spec["frames"], N_JOINTS, seed + 1)
    if spec["characters"]:
        test += data.synth_generate_multi(spec["characters"], spec["frames"], N_JOINTS, seed + 2)
    state["test_data"] = os.path.join(work, "test.ptc")
    data.save_dataset(state["test_data"], test)
    if spec["setup_steps"]:
        train_path = os.path.join(work, "train.ptc")
        data.save_dataset(train_path, data.synth_generate(8, spec["frames"], N_JOINTS, seed))
        ckpt, _ = cli.run_train(cfg, train_path, os.path.join(work, "train"),
                                max_steps=spec["setup_steps"])
    else:
        # seeded, untrained: training at the paper shape does not fit in memory
        rt = build_runtime(cfg)
        trainer = training.Trainer(rt.model, rt.bank, rt.sched, rt.train_config, seed)
        ckpt = os.path.join(work, "ckpt.ptc")
        training.save_checkpoint(ckpt, trainer, cfg)
    training.read_checkpoint(ckpt)
    state["checkpoint"] = ckpt
    state["artifact"] = ckpt
    return state


def run_pass(spec, state, out, clock):
    """One pass of the workload's fixed work; returns its outputs and checks."""
    os.makedirs(out)
    i0 = clock.point()
    if spec["kind"] == "train":
        last, trainer = cli.run_train(state["cfg"], state["train_data"], out,
                                      max_steps=spec["steps"])
        i1 = clock.point()
        final_epoch = trainer.logs[-1].epoch
        loss = float(np.mean([r.loss for r in trainer.logs if r.epoch == final_epoch]))
        return {
            "points": (i0, i1),
            "digest": _digest(last),
            "loss": loss,
            "samples": trainer.opt.step_count * trainer.cfg.batch_size,
            "checks": {
                "steps_completed": trainer.opt.step_count == spec["steps"],
                "loss_finite": math.isfinite(loss),
            },
        }
    pred = os.path.join(out, "pred.ptc")
    H, M = spec["hypotheses"], spec["iterations"]
    cli.run_estimate(state["checkpoint"], state["test_data"], pred, hypotheses=H, iterations=M)
    _, _, rows = cli.run_eval(pred, state["test_data"], os.path.join(out, "eval"))
    i1 = clock.point()
    overall = next(r for r in rows if r[0] == "overall")[5]
    tensors, _ = read_container(pred)
    records = data.load_dataset(state["test_data"])
    shapes_ok = finite_ok = index_ok = True
    for rec in records:
        poses = tensors.get(f"pred/{rec.seq_id}/poses")
        idx = tensors.get(f"pred/{rec.seq_id}/per_joint_hypothesis_index")
        shapes_ok &= poses is not None and poses.shape == (rec.n_frames, rec.n_joints, 3)
        finite_ok &= poses is not None and bool(np.isfinite(poses).all())
        index_ok &= idx is not None and bool(((idx >= 0) & (idx < H)).all())
    checks = {
        "predictions_shape": shapes_ok,
        "predictions_finite": finite_ok,
        "hypothesis_index_in_range": index_ok,
        "p_mpjpe_not_above_mpjpe": overall["p_mpjpe_mm"] <= overall["mpjpe_mm"] + 1e-9,
    }
    if spec["mpjpe_bound_mm"] is not None:
        checks["mpjpe_under_bound"] = overall["mpjpe_mm"] < spec["mpjpe_bound_mm"]
    return {
        "points": (i0, i1),
        "digest": _digest(pred),
        "mpjpe_mm": overall["mpjpe_mm"],
        "p_mpjpe_mm": overall["p_mpjpe_mm"],
        "checks": checks,
    }


def run_passes(spec, state, work, tag, clock, seconds=0.0, count=None):
    """Passes until ``seconds`` elapse (at least ``min_passes``), or exactly ``count``."""
    results, errors = [], []
    t_end = time.perf_counter() + seconds
    i = 0
    while (i < count) if count is not None else (
        i < spec["min_passes"] or time.perf_counter() < t_end
    ):
        out = os.path.join(work, f"{tag}{i}")
        gc.collect()
        try:
            results.append(run_pass(spec, state, out, clock))
        except Exception:
            errors.append(traceback.format_exc(limit=4))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        i += 1
    return results, errors


# -- main ----------------------------------------------------------------------


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    args = p.parse_args()
    startup_s = time.monotonic() - args.spawned_at
    spec = WORKLOADS[args.workload]
    env = environment()
    traced = bool(args.trace)
    clock = Clock(spec["frames"] * N_JOINTS, _config(spec, 0)["model"]["feature_dim"],
                  spec["cal_ms"])
    tracer = Tracer(clock.now) if traced else None

    clock.point()
    if traced:
        tracer.install()
    setups, setup_digests = [], []
    for i in range(1 if traced else SETUP_REPEATS):
        gc.collect()
        i0 = clock.point()
        state = setup(spec, args.seed, os.path.join(args.work, f"setup{i}"))
        setups.append((i0, clock.point()))
        setup_digests.append(_digest(state["artifact"]))
    if traced:
        tracer.uninstall()

    ops = Ops(clock)
    ops.install()
    passes, errors = run_passes(spec, state, args.work, "pass", clock, seconds=args.seconds)
    op_spans = list(ops.spans)
    traced_passes = []
    if traced and passes:
        tracer.phase = "timed"
        tracer.install()
        traced_passes, traced_errors = run_passes(
            spec, state, args.work, "traced", clock, count=len(passes)
        )
        tracer.uninstall()
        errors += traced_errors
    ops.uninstall()
    env["loadavg_end"] = os.getloadavg()

    checks = {
        "setup_repeatable": len(set(setup_digests)) == 1,
        "passes_completed": not errors and bool(passes),
        "outputs_repeatable": len({r["digest"] for r in passes + traced_passes}) == 1,
    }
    if spec["kind"] == "estimate":
        checks["no_backward_calls"] = ops.backward_calls == 0
    for r in passes + traced_passes:
        for k, v in r["checks"].items():
            checks[k] = checks.get(k, True) and bool(v)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "passes": len(passes),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": errors,
        "checks": checks,
        "metrics": {},
        "timeline": {"seg_s": clock.seg_s, "kernel_ms": clock.kernel_ms, "ops": op_spans},
    }
    op_ms = ops.per_op_ms(op_spans, calibrated=True)
    if passes and op_ms:
        if traced_passes:
            checks["traced_outputs_identical"] = (
                {r["digest"] for r in traced_passes} == {r["digest"] for r in passes}
            )
        e2e_metrics(result["metrics"], spec, clock, startup_s, setups, passes, ops, op_spans)
        if traced_passes:
            layer_metrics(result["metrics"], tracer, state["cfg"], clock, passes, traced_passes)
            if args.spans:
                tracer.write(args.spans)
    with open(args.result, "w") as f:
        json.dump(result, f, indent=1)


def _put(metrics, name, value, unit, kind="measured"):
    metrics[name] = {"value": value, "unit": unit, "kind": kind}


def e2e_metrics(metrics, spec, clock, startup_s, setups, passes, ops, op_spans):
    def put(*a):
        _put(metrics, *a)

    kernels = clock.kernel_ms
    # the child's start-up precedes the first point; scale it by the first kernels
    startup_cal = startup_s * clock.nominal_ms / statistics.median(kernels[:3])
    op_ms = ops.per_op_ms(op_spans, calibrated=True)
    op_ms_raw = ops.per_op_ms(op_spans, calibrated=False)
    walls = [clock.calibrated(*r["points"]) for r in passes]
    put("setup_s", startup_cal + statistics.median(clock.calibrated(*s) for s in setups), "s")
    put("wall_s", statistics.median(walls), "s")
    put("op_ms", statistics.median(op_ms), "ms")
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    put("ops_failed_share", ops.failed / max(1, ops.attempted), "share")
    put("op_samples", len(op_ms), "count")
    if len(op_ms) >= 100:  # at least 10 samples lie beyond the 90th percentile
        put("op_ms_p90", statistics.quantiles(op_ms, n=10)[-1], "ms")
    if spec["kind"] == "train":
        put("train_step_ms", statistics.median(op_ms), "ms")
        if "op_ms_p90" in metrics:
            put("train_step_ms_p90", metrics["op_ms_p90"]["value"], "ms")
        put("train_samples_per_s", sum(r["samples"] for r in passes) / sum(walls), "1/s")
        put("train_loss_final", passes[0]["loss"], "loss")
    else:
        put("estimate_seq_s", statistics.median(op_ms) / 1e3, "s")
        put("mpjpe_mm", passes[0]["mpjpe_mm"], "mm")
        put("p_mpjpe_mm", passes[0]["p_mpjpe_mm"], "mm")
    put("setup_s_raw", startup_s + statistics.median(clock.raw(*s) for s in setups), "s")
    put("wall_s_raw", statistics.median(clock.raw(*r["points"]) for r in passes), "s")
    put("op_ms_raw", statistics.median(op_ms_raw), "ms")
    put("startup_s_raw", startup_s, "s")
    put("calibration_kernel_ms", statistics.median(kernels), "ms")
    put("calibration_points", len(kernels), "count")


def layer_metrics(metrics, tracer, cfg, clock, passes, traced_passes):
    def put(*a):
        _put(metrics, *a)

    n = len(traced_passes)
    timed = tracer.totals("timed")
    set_up = tracer.totals("setup")

    def calls(name):
        return timed.get(name, (0, 0.0, 0.0))[0] / n

    def ms(name):
        return timed.get(name, (0, 0.0, 0.0))[1] / n

    def mean(key):
        values = tracer.samples.get(("timed", key), [])
        return float(np.mean(values)) if values else 0.0

    put("autodiff.backward_ms", ms("autodiff.backward"), "ms")
    put("autodiff.backward_calls", calls("autodiff.backward"), "count")
    put("autodiff.graph_nodes_per_step", mean("graph_nodes"), "count", "computed")
    put("autodiff.graph_mb_per_step", mean("graph_bytes") / 2**20, "MB", "computed")
    for part in ("denoise", "spatial_block", "temporal_block", "cross_attention", "pts",
                 "embed_input", "head", "linear"):
        put(f"denoiser.{part}_ms", ms(f"denoiser.{part}"), "ms")
    put("denoiser.denoise_calls", calls("denoiser.denoise"), "count")
    put("denoiser.timestamp_embed_calls", calls("denoiser.timestamp_embed"), "count")
    put("denoiser.linear_calls", calls("denoiser.linear"), "count")
    gflop = forward_flops(cfg) / 1e9
    put("denoiser.forward_gflop", gflop, "GFLOP", "computed")
    denoise_s = ms("denoiser.denoise") / 1e3
    put("denoiser.gflops_per_s",
        gflop * calls("denoiser.denoise") / denoise_s if denoise_s else 0.0,
        "GFLOP/s", "computed")
    put("training.adamw_step_ms", ms("training.adamw_step"), "ms")
    put("training.checkpoint_write_ms", ms("training.checkpoint_write"), "ms")
    put("training.trainable_params", trainable_params(cfg), "count", "computed")
    put("prompts.assemble_ms", ms("prompts.assemble"), "ms")
    put("prompts.assemble_calls", calls("prompts.assemble"), "count")
    put("diffusion.forward_diffuse_ms", ms("diffusion.forward_diffuse"), "ms")
    put("diffusion.ddim_step_ms", ms("diffusion.ddim_step"), "ms")
    put("diffusion.ddim_step_calls", calls("diffusion.ddim_step"), "count")
    put("sampler.ddim_loop_self_ms",
        timed.get("sampler.ddim_loop", (0, 0.0, 0.0))[2] / n, "ms")
    put("sampler.jpma_ms", ms("sampler.jpma"), "ms")
    put("sampler.reproject_ms", ms("sampler.reproject"), "ms")
    put("sampler.hypotheses_used_ratio", mean("hypotheses_used_ratio"), "ratio")
    put("metrics.p_mpjpe_ms", ms("metrics.p_mpjpe"), "ms")
    put("metrics.mpjpe_ms", ms("metrics.mpjpe"), "ms")
    put("container.write_ms", ms("container.write"), "ms")
    put("container.write_mb",
        sum(tracer.samples.get(("timed", "container_write_bytes"), [])) / n / 2**20, "MB")
    put("container.read_ms", ms("container.read"), "ms")
    put("data.synth_ms", set_up.get("data.synth", (0, 0.0, 0.0))[1], "ms")
    put("data.load_ms", ms("data.load"), "ms")
    put("config.build_runtime_ms", ms("config.build_runtime"), "ms")
    for name in ("run_train", "run_estimate", "run_eval"):
        put(f"cli.{name}_ms", ms(f"cli.{name}"), "ms")
    untraced = statistics.median(clock.calibrated(*r["points"]) for r in passes)
    traced = statistics.median(clock.calibrated(*r["points"]) for r in traced_passes)
    put("trace.overhead_share", (traced - untraced) / untraced, "share")
    put("trace.passes", n, "count")


if __name__ == "__main__":
    main()
