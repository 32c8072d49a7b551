"""Command-line entry point: synth, train, estimate, eval, plot.

Every command is deterministic under a fixed config and seed; rerunning
produces byte-identical artifacts (the training log's wall-clock column
excepted). Exit codes: 0 success, 1 user/config error, 2 internal invariant
violation. During estimation each DDIM step denoises all hypotheses of a
record in one call, on one ``denoiser.hypothesis_pool`` that the whole run
shares, the only pool the package opens; neither changes outputs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import traceback
from contextlib import contextmanager
from functools import partial

import numpy as np

from .autodiff import no_grad
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
from .denoiser import hypothesis_pool
from .exceptions import ConfigError, NumericsError, PoseDiffError
from .metrics import REPORT_METRICS, coincident_frames, compute_report
from .plotting import per_joint_error_rows, skeleton_svg
from .prompts import prompt_for
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


def _check_floors(command, flags):
    """Reject the first flag set below its floor; ``flags`` holds (flag, value, floor)."""
    for flag, value, floor in flags:
        if value is not None and value < floor:
            raise ConfigError(f"{command} {flag} must be >= {floor}, got {value}")


def _check_out_dir(out_dir):
    """Reject an ``--out`` directory that an existing file stands in the place of."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {out_dir} cannot be a directory: {path} is a file")


@contextmanager
def _naming(path):
    """Lead each ConfigError raised inside with ``path``, the file it judged."""
    try:
        yield
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


# -- synth -----------------------------------------------------------------------


def run_synth(out_path, n_sequences, n_frames, n_joints, seed, motion, characters=0):
    _check_floors("synth", (("--sequences", n_sequences, 1), ("--frames", n_frames, 1),
                            ("--characters", characters, 0)))
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
    _check_floors("train", (("--steps", max_steps, 1), ("--epochs", epochs, 1)))
    _check_out_dir(out_dir)
    if not os.path.exists(data_path):
        raise ConfigError(f"dataset not found: {data_path} (run `posediff synth` first)")
    last_path = os.path.join(out_dir, "ckpt_last.ptc")
    log_path = os.path.join(out_dir, "log.csv")
    if resume and not os.path.exists(last_path):
        raise ConfigError(f"--resume set but {last_path} does not exist")
    runtime = _load_model(last_path, cfg) if resume else build_runtime(cfg)
    samples = _training_samples(load_dataset(data_path), runtime)
    trainer = Trainer(runtime.model, runtime.bank, runtime.sched, runtime.train_config, cfg["seed"])
    if resume:
        tensors, meta = read_checkpoint(last_path, prefixes=("opt/",))
        with _naming(last_path):
            restore_trainer(trainer, tensors, meta, len(samples))
        trainer.logs = _read_log(log_path, trainer.opt.step_count)
    os.makedirs(out_dir, exist_ok=True)

    def save(*names):
        # the log first: a checkpoint never holds steps its log lacks
        _write_log(log_path, trainer.logs)
        for name in names:
            save_checkpoint(os.path.join(out_dir, name), trainer, cfg)

    tcfg = trainer.cfg
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
    return last_path, trainer


# -- estimate --------------------------------------------------------------------


def _load_model(checkpoint_path, run_cfg=None):
    """The runtime of a checkpoint, built from its weights and prompt modifiers
    (its optimizer moments are not read). ``train --resume`` passes the config
    it runs under as ``run_cfg``, which the stored config must equal."""
    tensors, meta = read_checkpoint(checkpoint_path, prefixes=("weights/", "prompt/"))
    stored = meta["run_config"]
    with _naming(checkpoint_path):
        validate_config(stored, prefix="stored run config: " if run_cfg is None else
                        "checkpoint was trained with a different config, one off the schema: ")
        if run_cfg is not None and config_hash(stored) != config_hash(run_cfg):
            raise ConfigError("checkpoint was trained with a different config "
                              f"(hash {config_hash(stored)} != {config_hash(run_cfg)})")
        return build_runtime(stored, tensors)


def _estimate_record(rec, runtime, H, M, base_seed, per_frame, pool):
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
    prompt = prompt_for(runtime.bank, rec.action)
    x_norm = norm.keypoints_2d.astype(runtime.dtype)
    denoise_fn = partial(runtime.model.denoise_array, prompt=prompt, pool=pool)  # casts yt
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
    per_frame=False,
):
    out_dir = os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory {out_dir} does not exist")
    if os.path.isdir(out_path):
        raise ConfigError(f"--out {out_path} is a directory, not a predictions file")
    _check_floors("estimate", (("--hypotheses", hypotheses, 1), ("--iterations", iterations, 1)))
    runtime = _load_model(checkpoint_path)
    cfg = runtime.cfg
    H = hypotheses if hypotheses is not None else cfg["sample"]["hypotheses"]
    M = iterations if iterations is not None else cfg["sample"]["iterations"]
    base_seed = seed if seed is not None else cfg["seed"]
    records = load_dataset(data_path)
    with no_grad(), hypothesis_pool(H) as pool:  # arenas last the run
        results = [_estimate_record(r, runtime, H, M, base_seed, per_frame, pool) for r in records]

    tensors, cam_notes = {}, {}
    for rec, (poses, index) in zip(records, results):
        base = f"pred/{rec.seq_id}"
        tensors[f"{base}/poses"] = poses
        tensors[f"{base}/per_joint_hypothesis_index"] = index.astype(np.float64)
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
        "per_frame_jpma": per_frame,
        "cameras": cam_notes,
    }
    write_container(out_path, tensors, meta)
    return out_path


# -- eval ------------------------------------------------------------------------


def _read_predictions(pred_path):
    tensors, meta = read_container(pred_path)
    if meta.get("kind") != "predictions":
        raise ConfigError(f"{pred_path}: not a predictions container (kind={meta.get('kind')!r})")
    return tensors


def _judged_poses(pred_path, pred_tensors, rec):
    """``rec``'s predicted poses from ``pred_path``, which must have the shape of
    its ground truth, and the frame mask they are scored over: the frames its
    character is in. Neither array may hold a frame whose squares overflow float64."""
    if rec.gt_3d is None:
        raise ConfigError(f"record {rec.seq_id!r} has no ground truth to evaluate")
    pred = pred_tensors.get(f"pred/{rec.seq_id}/poses")
    if pred is None:
        raise ConfigError(f"{pred_path} has no prediction for {rec.seq_id!r}")
    if pred.shape != rec.gt_3d.shape:
        raise ConfigError(f"{pred_path}: record {rec.seq_id!r} has {rec.gt_3d.shape} "
                          f"ground truth but {pred.shape} poses")
    for where, poses in ((f"{pred_path}: record {rec.seq_id!r}", pred),
                         (f"record {rec.seq_id!r} ground truth", rec.gt_3d)):
        with np.errstate(over="ignore"):
            huge = np.flatnonzero(~np.isfinite(np.square(poses, dtype=np.float64).sum(axis=(1, 2))))
        if huge.size:
            raise ConfigError(f"{where} frame {huge[0]}: coordinates too large to score "
                              "(their squares overflow float64)")
    if rec.presence is None:
        return pred, np.ones(rec.n_frames, bool)
    if not rec.presence.any():
        raise ConfigError(f"record {rec.seq_id!r} has no present frame to evaluate")
    return pred, rec.presence


def _write_per_joint(path, errors):
    """The per-joint error CSV of ``errors``, (sequence id, per-joint mm) pairs."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sequence_id", "joint", "mpjpe_mm"])
        for sid, per_joint in errors:
            for j, err in enumerate(per_joint):
                w.writerow([sid, j, _fmt(err)])


def _pair_predictions(pred_path, pred_tensors, records):
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
            f"{pred_path}: prediction/dataset id mismatch: missing predictions for {missing}, "
            f"predictions without records {orphans}"
        )


def run_eval(pred_path, data_path, out_dir, rigid_only=False):
    """Score predictions; ``rigid_only`` aligns P-MPJPE without scale."""
    _check_out_dir(out_dir)
    pred_tensors = _read_predictions(pred_path)
    records = load_dataset(data_path)
    _pair_predictions(pred_path, pred_tensors, records)

    pairs, per_joint = [], []
    for rec in sorted(records, key=lambda r: r.seq_id):
        pred, mask = _judged_poses(pred_path, pred_tensors, rec)
        flat = np.flatnonzero(mask)[coincident_frames(pred[mask])]
        if flat.size:
            raise ConfigError(f"{pred_path}: record {rec.seq_id!r} frame {flat[0]}: all joints "
                              "coincide, so P-MPJPE cannot align it")
        pairs.append((rec.seq_id, rec.action, pred[mask], rec.gt_3d[mask]))
        per_joint.append((rec.seq_id, per_joint_error_rows(pred, rec.gt_3d, mask)))

    rows = compute_report(pairs, rigid_only=rigid_only)
    os.makedirs(out_dir, exist_ok=True)
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
    _check_out_dir(out_dir)
    pred_tensors = _read_predictions(pred_path)
    records = {r.seq_id: r for r in load_dataset(data_path)}
    if seq_id not in records:
        raise ConfigError(f"unknown sequence id {seq_id!r}; dataset has {sorted(records)}")
    rec = records[seq_id]
    pred, mask = _judged_poses(pred_path, pred_tensors, rec)
    try:
        pred_2d = reproject(pred, rec.camera or default_camera())
    except NumericsError as e:  # a depth at or behind the camera
        raise ConfigError(f"{pred_path}: record {seq_id!r}: {e}") from None
    svg = skeleton_svg(pred_2d, rec.keypoints_2d, title=f"{seq_id} ({rec.action})")
    os.makedirs(out_dir, exist_ok=True)
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
    p.add_argument("--per-frame-jpma", action="store_true",
                   help="pick each joint's hypothesis per frame (default: per sequence)")

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rigid-only", action="store_true",
                   help="align P-MPJPE by rotation and translation only (default: also scale)")

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
    except (ConfigError, MemoryError) as e:  # MemoryError: a config too big for memory
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
