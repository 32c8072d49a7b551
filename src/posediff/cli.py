"""Command-line entry point: synth, train, estimate, eval, plot.

Every command is deterministic under a fixed config and seed; rerunning
produces byte-identical artifacts (the training log's wall-clock column
excepted). Exit codes: 0 success, 1 user/config error, 2 internal invariant
violation. During estimation each DDIM step denoises all hypotheses of a
record in one call; the denoiser picks its own thread count for it
(``denoiser.thread_budget``), which never changes outputs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import traceback
from functools import partial

import numpy as np

from .config import build_runtime, config_hash, load_config, validate_config
from .container import read_container, write_container
from .data import (
    denormalize_poses,
    load_dataset,
    normalize_record,
    save_dataset,
    synth_generate,
    synth_generate_multi,
)
from .exceptions import ConfigError, PoseDiffError
from .metrics import REPORT_METRICS, compute_report
from .plotting import per_joint_error_rows, skeleton_svg
from .sampler import character_seed, default_camera, estimate_single, reproject, scene_seed
from .training import (
    StepLog,
    Trainer,
    read_checkpoint,
    restore_trainer,
    save_checkpoint,
)

REPORT_COLUMNS = ("scope", "id", "action", "frames", "joints", *REPORT_METRICS)


def _fmt(v: float) -> str:
    return f"{v:.9f}"


# -- synth -----------------------------------------------------------------------


def run_synth(out_path, n_sequences, n_frames, n_joints, seed, motion, characters=0):
    records = synth_generate(n_sequences, n_frames, n_joints, seed, motion)
    if characters:
        records += synth_generate_multi(characters, n_frames, n_joints, seed + 1, motion)
    save_dataset(out_path, records)
    return out_path


# -- train -----------------------------------------------------------------------


def _training_samples(records, runtime):
    cfg = runtime.cfg
    samples = []
    for rec in records:
        if rec.gt_3d is None:
            raise ConfigError(f"record {rec.seq_id!r} has no 3D ground truth to train on")
        if (rec.n_frames, rec.n_joints) != (cfg["data"]["n_frames"], cfg["data"]["n_joints"]):
            raise ConfigError(
                f"record {rec.seq_id!r} is {rec.n_frames}x{rec.n_joints}; config expects "
                f"{cfg['data']['n_frames']}x{cfg['data']['n_joints']} "
                "(adjust data.n_frames/data.n_joints)"
            )
        norm, _ = normalize_record(rec, cfg["data"]["normalize"])
        samples.append((norm.keypoints_2d, norm.gt_3d, rec.action))
    return samples


LOG_COLUMNS = ("epoch", "step", "loss", "train_mpjpe", "lr", "wall_ms")


def _write_log(path, logs):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(LOG_COLUMNS)
        for row in logs:
            w.writerow(
                [row.epoch, row.step, _fmt(row.loss), _fmt(row.train_mpjpe),
                 f"{row.lr:.3e}", f"{row.wall_ms:.1f}"]
            )


def _read_log(path, steps):
    """The rows of the first ``steps`` optimizer steps of a run's log.csv."""
    try:
        with open(path, newline="") as f:
            rows = [
                StepLog(int(r["epoch"]), int(r["step"]), *(float(r[k]) for k in LOG_COLUMNS[2:]))
                for r in csv.DictReader(f)
            ]
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"cannot resume the training log {path}: {e}") from e
    rows = [r for r in rows if r.step <= steps]
    if [r.step for r in rows] != list(range(1, steps + 1)):
        raise ConfigError(f"{path} does not hold steps 1..{steps} of the checkpoint")
    return rows


def run_train(cfg, data_path, out_dir, resume=False, max_steps=None, epochs=None):
    if not os.path.exists(data_path):
        raise ConfigError(f"dataset not found: {data_path} (run `posediff synth` first)")
    os.makedirs(out_dir, exist_ok=True)
    runtime = build_runtime(cfg)
    records = load_dataset(data_path)
    if not records:
        raise ConfigError(f"dataset {data_path} holds no sequences")
    samples = _training_samples(records, runtime)
    trainer = Trainer(runtime.model, runtime.bank, runtime.sched, runtime.train_config, cfg["seed"])

    last_path = os.path.join(out_dir, "ckpt_last.ptc")
    log_path = os.path.join(out_dir, "log.csv")
    if resume:
        if not os.path.exists(last_path):
            raise ConfigError(f"--resume set but {last_path} does not exist")
        tensors, meta = read_checkpoint(last_path)
        try:
            validate_config(meta["run_config"])
        except ConfigError as e:
            raise ConfigError(
                f"checkpoint was trained with a different config, one off the schema: {e}"
            ) from None
        if config_hash(meta["run_config"]) != runtime.hash:
            raise ConfigError(
                "checkpoint was trained with a different config "
                f"(hash {config_hash(meta['run_config'])} != {runtime.hash})"
            )
        restore_trainer(trainer, tensors, meta)
        trainer.logs = _read_log(log_path, trainer.opt.step_count)

    def save(*names):
        # the log first: a checkpoint never holds steps its log lacks
        _write_log(log_path, trainer.logs)
        for name in names:
            save_checkpoint(os.path.join(out_dir, name), trainer, cfg)

    tcfg = trainer.cfg
    max_steps = tcfg.max_steps if max_steps is None else max_steps
    target_epochs = tcfg.epochs if epochs is None else epochs
    every = tcfg.checkpoint_every

    def done():
        return max_steps is not None and trainer.opt.step_count >= max_steps

    while trainer.epoch < target_epochs and not done():
        trainer.train_epoch(samples, max_steps=max_steps)
        if trainer.epoch_step:  # stopped inside the epoch
            save("ckpt_last.ptc")
        elif trainer.epoch % every == 0 or trainer.epoch == target_epochs or done():
            save(f"ckpt_epoch{trainer.epoch:05d}.ptc", "ckpt_last.ptc")
    if not os.path.exists(last_path):
        save("ckpt_last.ptc")
    return last_path, trainer


# -- estimate --------------------------------------------------------------------


def _load_model(checkpoint_path):
    """The runtime of a checkpoint, built from its weights and prompt modifiers
    (its optimizer moments are not read)."""
    tensors, meta = read_checkpoint(checkpoint_path, prefixes=("weights/", "prompt/"))
    return build_runtime(meta["run_config"], tensors)


def _estimate_record(rec, runtime, H, M, base_seed, per_frame):
    cfg, mc = runtime.cfg, runtime.model_config
    if (rec.n_frames, rec.n_joints) != (mc.n_frames, mc.n_joints):
        raise ConfigError(
            f"record {rec.seq_id!r} is {rec.n_frames}x{rec.n_joints}; checkpoint "
            f"expects {mc.n_frames}x{mc.n_joints}"
        )
    if rec.scene is not None and rec.character is not None:
        seed = character_seed(scene_seed(base_seed, rec.scene), rec.character)
    else:
        seed = scene_seed(base_seed, rec.seq_id)
    cam = rec.camera or default_camera()
    norm, params = normalize_record(rec, cfg["data"]["normalize"])
    prompt = runtime.prompt_for(rec.action)
    x_norm = norm.keypoints_2d.astype(runtime.dtype)
    denoise_fn = partial(runtime.model.denoise_array, prompt=prompt)  # the model casts yt
    return estimate_single(
        x_norm, cam, denoise_fn, runtime.sched, H, M, seed,
        deterministic=cfg["sample"]["deterministic"], per_frame=per_frame,
        to_camera=lambda y: denormalize_poses(y, params),
        x_pixels=rec.keypoints_2d, frame_mask=rec.presence,
    )


def run_estimate(
    checkpoint_path,
    data_path,
    out_path,
    hypotheses=None,
    iterations=None,
    seed=None,
    per_frame=None,
):
    runtime = _load_model(checkpoint_path)
    cfg = runtime.cfg
    H = hypotheses if hypotheses is not None else cfg["sample"]["hypotheses"]
    M = iterations if iterations is not None else cfg["sample"]["iterations"]
    base_seed = seed if seed is not None else cfg["seed"]
    jpma_per_frame = per_frame if per_frame is not None else cfg["sample"]["per_frame_jpma"]
    records = load_dataset(data_path)
    if not records:
        raise ConfigError(f"dataset {data_path} holds no sequences")
    results = [_estimate_record(rec, runtime, H, M, base_seed, jpma_per_frame) for rec in records]

    tensors, cam_notes = {}, {}
    for rec, res in zip(records, results):
        base = f"pred/{rec.seq_id}"
        tensors[f"{base}/poses"] = res.poses
        tensors[f"{base}/per_joint_hypothesis_index"] = res.hypothesis_index.astype(np.float64)
        if rec.presence is not None:
            tensors[f"{base}/presence"] = rec.presence.astype(np.float64)
        cam = rec.camera or default_camera()
        cam_notes[rec.seq_id] = {"camera": cam.to_dict(), "default_camera": rec.camera is None}
    meta = {
        "kind": "predictions",
        "config": cfg,
        "config_hash": runtime.hash,
        "hypotheses": H,
        "iterations": M,
        "seed": base_seed,
        "per_frame_jpma": jpma_per_frame,
        "cameras": cam_notes,
    }
    write_container(out_path, tensors, meta)
    return out_path


# -- eval ------------------------------------------------------------------------


def _read_predictions(pred_path):
    tensors, meta = read_container(pred_path)
    if meta.get("kind") != "predictions":
        raise ConfigError(f"{pred_path}: not a predictions container")
    return tensors, meta


def _scored_frames(rec):
    """The frame mask that ``rec`` is scored over: the frames its character is in."""
    if rec.gt_3d is None:
        raise ConfigError(f"record {rec.seq_id!r} has no ground truth to evaluate")
    if rec.presence is None:
        return np.ones(rec.n_frames, bool)
    if not rec.presence.any():
        raise ConfigError(f"record {rec.seq_id!r} has no present frame to evaluate")
    return rec.presence


def _write_per_joint(path, errors):
    """The per-joint error CSV of ``errors``, (sequence id, per-joint mm) pairs."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sequence_id", "joint", "mpjpe_mm"])
        for sid, per_joint in errors:
            for j, err in enumerate(per_joint):
                w.writerow([sid, j, _fmt(err)])


def _pair_predictions(pred_tensors, records):
    # multi-human ids look like "scene000/ch1", so strip fixed affixes only
    pred_ids = {
        name[len("pred/") : -len("/poses")]
        for name in pred_tensors
        if name.startswith("pred/") and name.endswith("/poses")
    }
    rec_ids = {r.seq_id for r in records}
    missing = sorted(rec_ids - pred_ids)
    orphans = sorted(pred_ids - rec_ids)
    if missing or orphans:
        raise ConfigError(
            f"prediction/dataset id mismatch: missing predictions for {missing}, "
            f"predictions without records {orphans}"
        )


def run_eval(pred_path, data_path, out_dir, rigid_only=None):
    """Score predictions; ``rigid_only=None`` takes the predictions' sample.rigid_only."""
    os.makedirs(out_dir, exist_ok=True)
    pred_tensors, pred_meta = _read_predictions(pred_path)
    if rigid_only is None:  # the stored config's; False for a file without one
        stored = pred_meta.get("config", {})
        if not isinstance(stored, dict):
            raise ConfigError(f"{pred_path}: predictions 'config' must be an object")
        sample = stored.get("sample", {})
        if not isinstance(sample, dict):
            raise ConfigError(f"{pred_path}: predictions config 'sample' must be an object")
        rigid_only = sample.get("rigid_only", False)
        if not isinstance(rigid_only, bool):
            raise ConfigError(
                f"{pred_path}: 'sample.rigid_only' must be true or false, got {rigid_only!r}"
            )
    records = load_dataset(data_path)
    _pair_predictions(pred_tensors, records)

    pairs, per_joint = [], []
    for rec in sorted(records, key=lambda r: r.seq_id):
        mask = _scored_frames(rec)
        pred = pred_tensors[f"pred/{rec.seq_id}/poses"]
        pairs.append((rec.seq_id, rec.action, pred[mask], rec.gt_3d[mask]))
        per_joint.append((rec.seq_id, per_joint_error_rows(pred, rec.gt_3d, mask)))

    rows = compute_report(pairs, rigid_only=rigid_only)
    report_path = os.path.join(out_dir, "report.csv")
    with open(report_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(REPORT_COLUMNS)
        for *labels, m in rows:
            w.writerow(labels + [_fmt(m[k]) for k in REPORT_METRICS])
    per_joint_path = os.path.join(out_dir, "per_joint.csv")
    _write_per_joint(per_joint_path, per_joint)
    return report_path, per_joint_path, rows


# -- plot ------------------------------------------------------------------------


def run_plot(pred_path, data_path, seq_id, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    pred_tensors, _ = _read_predictions(pred_path)
    records = {r.seq_id: r for r in load_dataset(data_path)}
    if seq_id not in records:
        raise ConfigError(f"unknown sequence id {seq_id!r}; dataset has {sorted(records)}")
    key = f"pred/{seq_id}/poses"
    if key not in pred_tensors:
        raise ConfigError(f"{pred_path} has no prediction for {seq_id!r}")
    rec = records[seq_id]
    mask = _scored_frames(rec)
    pred = pred_tensors[key]
    pred_2d = reproject(pred, rec.camera or default_camera())
    svg = skeleton_svg(pred_2d, rec.keypoints_2d, title=f"{seq_id} ({rec.action})")
    stem = seq_id.replace("/", "_")
    svg_path = os.path.join(out_dir, f"{stem}.svg")
    with open(svg_path, "w") as f:
        f.write(svg)

    csv_path = os.path.join(out_dir, f"{stem}_errors.csv")
    _write_per_joint(csv_path, [(seq_id, per_joint_error_rows(pred, rec.gt_3d, mask))])
    return svg_path, csv_path


# -- argparse --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_config_args(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", choices=["tiny", "paper"], help="configuration preset")
    p.add_argument("--seed", type=int, help="override config seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="posediff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--sequences", type=int, default=8)
    p.add_argument("--frames", type=int, default=16)
    p.add_argument("--joints", type=int, default=17)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--motion", default="mixed",
                   choices=["walk_cycle", "arm_wave", "sit", "mixed"])
    p.add_argument("--characters", type=int, default=0,
                   help="also add one multi-human scene with this many characters")

    p = sub.add_parser("train", help="train a denoiser")
    _add_config_args(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--steps", type=int, help="stop after this many optimizer steps")
    p.add_argument("--epochs", type=int, help="override config epoch count")

    p = sub.add_parser("estimate", help="predict 3D poses for a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hypotheses", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--per-frame-jpma", action="store_true", default=None)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rigid-only", action="store_true", default=None,
                   help="rigid P-MPJPE alignment (default: the predictions' sample.rigid_only)")

    p = sub.add_parser("plot", help="render one sequence as SVG + error CSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--out", required=True)
    return parser


def _dispatch(args) -> int:
    if args.command == "synth":
        path = run_synth(
            args.out, args.sequences, args.frames, args.joints, args.seed,
            args.motion, args.characters,
        )
        print(f"wrote dataset {path}")
    elif args.command == "train":
        overrides = {"seed": args.seed} if args.seed is not None else None
        cfg = load_config(args.config, args.preset, overrides)
        ckpt, trainer = run_train(
            cfg, args.data, args.out, resume=args.resume,
            max_steps=args.steps, epochs=args.epochs,
        )
        final = trainer.logs[-1].loss if trainer.logs else float("nan")
        print(f"trained {trainer.opt.step_count} steps; final loss {final:.6f}; wrote {ckpt}")
    elif args.command == "estimate":
        path = run_estimate(
            args.checkpoint, args.data, args.out,
            hypotheses=args.hypotheses, iterations=args.iterations,
            seed=args.seed, per_frame=args.per_frame_jpma,
        )
        print(f"wrote predictions {path}")
    elif args.command == "eval":
        report, per_joint, rows = run_eval(
            args.predictions, args.data, args.out, rigid_only=args.rigid_only
        )
        overall = next(r for r in rows if r[0] == "overall")[5]
        print(
            f"MPJPE {overall['mpjpe_mm']:.3f}mm  P-MPJPE {overall['p_mpjpe_mm']:.3f}mm  "
            f"PCK {overall['pck150_percent']:.2f}  AUC {overall['auc_percent']:.2f}"
        )
        print(f"wrote {report} and {per_joint}")
    elif args.command == "plot":
        svg, errors = run_plot(args.predictions, args.data, args.sequence, args.out)
        print(f"wrote {svg} and {errors}")
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigError(f"unknown command {args.command!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PoseDiffError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
