"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the numeric tolerances are pinned in the assertions.
"""

import hashlib
import time

import numpy as np
import pytest

from posediff.autodiff import attention
from posediff.cli import _load_model, run_estimate, run_eval, run_train
from posediff.config import build_runtime, load_config
from posediff.container import read_container
from posediff.data import (
    denormalize_poses,
    normalize_record,
    save_dataset,
    synth_generate,
    synth_generate_multi,
)
from posediff.denoiser import Denoiser, DenoiserConfig
from posediff.diffusion import (
    build_schedule,
    ddim_epsilon,
    forward_diffuse,
)
from posediff.metrics import mpjpe, p_mpjpe, pck, procrustes_align
from posediff.prompts import HashTextEncoder, PromptBank, PromptSpec, prompt_for
from posediff.rng import gaussian
from posediff.sampler import (
    HypothesisSet,
    character_seed,
    ddim_loop,
    estimate_single,
    jpma_aggregate,
    reproject,
    sample_initial_hypotheses,
    scene_seed,
)
from posediff.training import (
    Trainer,
    TrainConfig,
    mse_loss,
    save_checkpoint,
)

from gradcheck import gradient_check
from test_metrics import random_rotation
from test_sampler import CAM, brute_force_jpma, random_positive_depth_hyps


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


def test_01_diffusion_round_trip():
    sched = build_schedule(1000)
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        y0 = rng.standard_normal((4, 17, 3))
        t = int(rng.integers(1, 1001))
        eps = rng.standard_normal(y0.shape)
        yt = forward_diffuse(y0, t, sched, eps)
        rec = ddim_epsilon(yt, y0, t, sched)
        rel = np.abs(rec - eps) / np.maximum(np.abs(eps), 1e-300)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(1, f"max rel err {worst:.2e}, {elapsed * 1e3:.0f}ms")


def test_02_ddim_fixed_point():
    sched = build_schedule(1000)
    rng = np.random.default_rng(1)
    y_true = rng.standard_normal((6, 17, 3))
    hyp = sample_initial_hypotheses(3, 6, 17, seed=2)
    out = ddim_loop(
        np.zeros((6, 17, 2)), hyp, 10, lambda y, x, t: np.stack([y_true] * len(y)), sched, seed=2,
        deterministic=True,
    )
    err = np.abs(out.hypotheses - y_true[None]).max()
    assert err <= 1e-8
    report(2, f"max abs err {err:.2e} after M=10 oracle loop")


def test_03_forward_process_moments():
    sched = build_schedule(100)
    t = 60
    y0 = np.array([[[0.8, -0.4, 1.5]]])
    n = 10_000
    draws = np.stack(
        [forward_diffuse(y0, t, sched, gaussian(y0.shape, 7, i)) for i in range(n)]
    )
    abar = sched.alpha_bar[t]
    var = 1.0 - abar
    se_mean = np.sqrt(var / n)
    se_var = var * np.sqrt(2.0 / (n - 1))
    mean_err = np.abs(draws.mean(axis=0) - np.sqrt(abar) * y0).max()
    var_err = np.abs(draws.var(axis=0, ddof=1) - var).max()
    assert mean_err < 3 * se_mean
    assert var_err < 3 * se_var
    report(3, f"mean err {mean_err:.4f} < {3 * se_mean:.4f}, var err {var_err:.4f} < {3 * se_var:.4f}")


def test_04_gradient_oracle_tiny_config(monkeypatch):
    from posediff import denoiser

    nodes = []  # the attention cores of the latest loss
    monkeypatch.setattr(denoiser, "attention", lambda *a: nodes.append(attention(*a)) or nodes[-1])
    cfg = DenoiserConfig(n_frames=2, n_joints=3, feature_dim=8, heads=2)
    model = Denoiser.create(cfg, seed=3)
    bank = PromptBank(PromptSpec(), HashTextEncoder(8, seed=4), seed=5)
    rng = np.random.default_rng(6)
    yt = rng.standard_normal((2, 3, 3))
    x = rng.standard_normal((2, 3, 2))
    target = rng.standard_normal((2, 3, 3))

    def build_loss():
        nodes.clear()
        return mse_loss(target, model.denoise(yt, x, 11, bank.assemble("walk_cycle")))

    params = dict(model.trainable())
    params.update(bank.trainable())
    t0 = time.perf_counter()
    checked = gradient_check(build_loss, params, step=1e-5, rtol=1e-4, atol=1e-8, max_entries=4)
    elapsed = time.perf_counter() - t0
    assert set(checked) == set(params)  # every trainable tensor
    # each self-attention block and the cross-attention recorded one node
    assert len(nodes) == len(cfg.block_names()) + 1 and all(len(n._parents) == 3 for n in nodes)
    assert elapsed < 120.0
    report(4, f"{len(checked)} tensors (FPP+FPC+PTS path) in {elapsed:.1f}s")


def test_05_overfit_tiny_preset(tmp_path):
    cfg = load_config(None, "tiny")
    cfg["train"]["checkpoint_every"] = 10**6
    records = synth_generate(8, cfg["data"]["n_frames"], cfg["data"]["n_joints"], seed=5)
    data = tmp_path / "overfit.ptc"
    save_dataset(data, records)
    t0 = time.perf_counter()
    _, trainer = run_train(cfg, data, tmp_path / "run", max_steps=1200, epochs=10**6)
    elapsed = time.perf_counter() - t0
    assert trainer.opt.step_count <= 2000
    initial = trainer.logs[0].train_mpjpe
    final = float(np.mean([row.train_mpjpe for row in trainer.logs[-20:]]))
    ratio = final / initial
    assert ratio < 0.05
    assert elapsed < 600.0
    report(5, f"train MPJPE {initial:.4f} -> {final:.4f} ({ratio * 100:.1f}%) in {elapsed:.0f}s, {trainer.opt.step_count} steps")


def test_06_jpma_oracle_equivalence():
    rng = np.random.default_rng(8)
    for trial in range(100):
        H = int(rng.integers(1, 6))
        J = int(rng.integers(1, 5))
        N = int(rng.integers(1, 4))
        hyps = random_positive_depth_hyps(rng, H, N, J)
        x = rng.standard_normal((N, J, 2))
        out, sel = jpma_aggregate(HypothesisSet(hyps), x, CAM)
        want_out, want_sel = brute_force_jpma(hyps, x, CAM)
        np.testing.assert_array_equal(sel, want_sel)
        np.testing.assert_array_equal(out, want_out)
        agg_err = np.linalg.norm(reproject(out, CAM) - x, axis=-1).sum(axis=0)
        for h in range(H):
            h_err = np.linalg.norm(reproject(hyps[h], CAM) - x, axis=-1).sum(axis=0)
            assert np.all(agg_err <= h_err + 1e-12)
    report(6, "100 random sets, H<=5, J<=4: exact argmin match + dominance")


def test_07_prompt_structure():
    spec = PromptSpec()
    assert spec.token_budget == (7, 12, 10, 10, 10, 14, 14)
    bank = PromptBank(spec, HashTextEncoder(512, seed=9), seed=10)
    emb = bank.assemble("walk_cycle")
    assert emb.tokens.shape == (77, 512)

    entries = np.concatenate([m.data.ravel() for m in bank.modifiers])
    assert entries.size >= 10_000
    assert abs(entries.mean()) <= 0.002
    assert abs(entries.std() - 0.02) <= 0.1 * 0.02

    # frozen tokens take no gradient over a full training epoch
    dcfg = DenoiserConfig(n_frames=2, n_joints=3, feature_dim=8, heads=2)
    model = Denoiser.create(dcfg, seed=11)
    small_bank = PromptBank(spec, HashTextEncoder(8, seed=12), seed=13)
    trainer = Trainer(
        model, small_bank, build_schedule(50),
        TrainConfig(epochs=1, batch_size=2, lr0=1e-3, lr_decay=1.0, weight_decay=0.0),
        seed=14,
    )
    rng = np.random.default_rng(15)
    samples = [
        (rng.standard_normal((2, 3, 2)), rng.standard_normal((2, 3, 3)), a)
        for a in ("walk_cycle", "sit", "arm_wave", "walk_cycle")
    ]
    frozen_before = {
        a: [b.copy() for b in small_bank.frozen_blocks(a)]
        for a in ("walk_cycle", "sit", "arm_wave")
    }
    mods_before = [m.data.copy() for m in small_bank.modifiers]
    trainer.train_epoch(samples)
    for a, blocks in frozen_before.items():
        for b0, b1 in zip(blocks, small_bank.frozen_blocks(a)):
            np.testing.assert_array_equal(b0, b1)
    assert any(
        not np.array_equal(m0, m.data)
        for m0, m in zip(mods_before, small_bank.modifiers)
    )
    report(7, "77 rows, widths {7,12,10,10,10,14,14}, init stats ok, frozen tokens untouched")


def test_08_metric_suite():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        pred = rng.standard_normal((2, 8, 3)) * 60
        gt = rng.standard_normal((2, 8, 3)) * 60
        assert p_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-9

    pred = rng.standard_normal((3, 17, 3)) * 100
    gt = rng.standard_normal((3, 17, 3)) * 100
    base = p_mpjpe(pred, gt)
    moved = 1.9 * pred @ random_rotation(rng).T + np.array([30.0, -10.0, 70.0])
    assert abs(p_mpjpe(moved, gt) - base) <= 1e-9

    values = [pck(pred, gt, t) for t in np.linspace(0, 400, 60)]
    assert all(b >= a for a, b in zip(values, values[1:]))

    from posediff.metrics import auc

    err = np.sqrt(((pred - gt) ** 2).sum(axis=-1))
    brute = [float((err <= t).sum() / err.size * 100.0) for t in range(0, 151, 5)]
    assert auc(pred, gt) == sum(brute) / len(brute)
    report(8, "1000 pairs p<=m, similarity invariance 1e-9, PCK monotone, AUC exact")


def test_09_multi_human_equivalence(tmp_path):
    # a C=3 scene through the CLI path equals stacked per-character estimate_single
    cfg = load_config(None, "tiny")
    cfg["data"]["n_frames"] = 8
    cfg["model"]["feature_dim"] = 32
    runtime = build_runtime(cfg)
    ckpt = tmp_path / "ckpt.ptc"
    trainer = Trainer(runtime.model, runtime.bank, runtime.sched, runtime.train_config, cfg["seed"])
    save_checkpoint(ckpt, trainer, cfg)
    records = synth_generate_multi(3, 8, 17, seed=17)
    data = tmp_path / "scene.ptc"
    save_dataset(data, records)
    pred, _ = read_container(run_estimate(ckpt, data, tmp_path / "p.ptc", 3, 2, seed=18))

    runtime = _load_model(ckpt)
    for c, rec in enumerate(records):
        norm, params = normalize_record(rec, cfg["data"]["normalize"])
        prompt = prompt_for(runtime.bank, rec.action)
        poses, index = estimate_single(
            norm.keypoints_2d.astype(runtime.dtype), rec.camera,
            lambda yt, x, t: runtime.model.denoise_array(yt.astype(runtime.dtype), x, t, prompt),
            runtime.sched, H=3, M=2, seed=character_seed(scene_seed(18, rec.scene), c),
            to_camera=lambda y: denormalize_poses(y, params), x_pixels=rec.keypoints_2d,
            frame_mask=rec.presence,
        )
        base = f"pred/{rec.seq_id}"
        assert np.array_equal(pred[f"{base}/poses"], poses)
        assert np.array_equal(pred[f"{base}/per_joint_hypothesis_index"], index)
        assert np.array_equal(pred[f"{base}/presence"] > 0.5, rec.presence)
    assert not records[1].presence.all()
    report(9, "C=3 scene via run_estimate bit-identical to stacked estimate_single")


def tensors_digest(path):
    """sha256 of a container's tensor names, dtypes, shapes and bytes; its meta
    (config, config hash) is left out."""
    tensors, _ = read_container(path)
    h = hashlib.sha256()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.digest()


def test_10_end_to_end_determinism(tmp_path):
    data = tmp_path / "d.ptc"
    save_dataset(data, synth_generate(3, 8, 17, seed=19))

    def pipeline(tag):
        cfg = load_config(None, "tiny")
        cfg["data"]["n_frames"] = 8
        cfg["model"]["feature_dim"] = 32
        cfg["train"]["checkpoint_every"] = 10**6
        cfg["seed"] = 20
        ckpt, _ = run_train(cfg, data, tmp_path / f"{tag}_run", max_steps=8, epochs=10**6)
        pred = run_estimate(ckpt, data, tmp_path / f"{tag}.ptc", hypotheses=3, iterations=2, seed=21)
        report_path, per_joint, _ = run_eval(pred, data, tmp_path / f"{tag}_eval")
        return (
            open(ckpt, "rb").read(),
            (tmp_path / f"{tag}.ptc").read_bytes(),
            open(report_path, "rb").read(),
            open(per_joint, "rb").read(),
        )

    a = pipeline("a")
    b = pipeline("b")
    assert a[0] == b[0]  # last checkpoint
    assert a[1] == b[1]  # prediction container
    assert a[2] == b[2]  # report CSV
    assert a[3] == b[3]  # per-joint CSV
    # one digest over the four artifacts, to compare runs of two versions by eye
    digest = hashlib.sha256(b"".join(hashlib.sha256(x).digest() for x in a)).hexdigest()[:16]
    # and one over the numerics alone: a change to the config tree moves the
    # first digest but not this one
    parts = [tensors_digest(tmp_path / "a_run" / "ckpt_last.ptc"),
             tensors_digest(tmp_path / "a.ptc"),
             hashlib.sha256(a[2]).digest(), hashlib.sha256(a[3]).digest()]
    numerics = hashlib.sha256(b"".join(parts)).hexdigest()[:16]
    # and one over the checkpoint's tensors alone: a change to inference
    # rounding moves the second digest but not this one
    trained = hashlib.sha256(parts[0]).hexdigest()[:16]
    report(10, f"two train->estimate->eval pipelines byte-identical, sha256 {digest}, "
               f"tensors-only sha256 {numerics}, checkpoint tensors sha256 {trained}")


def test_11_ablation_plumbing(tmp_path):
    train_data = tmp_path / "train.ptc"
    val_data = tmp_path / "val.ptc"
    save_dataset(train_data, synth_generate(6, 8, 17, seed=21))
    save_dataset(val_data, synth_generate(3, 8, 17, seed=99))

    def variant(tag, flags, steps):
        cfg = load_config(None, "tiny")
        cfg["data"]["n_frames"] = 8
        cfg["model"]["feature_dim"] = 32
        cfg["model"].update(flags)
        cfg["train"]["checkpoint_every"] = 10**6
        cfg["seed"] = 3
        ckpt, _ = run_train(cfg, train_data, tmp_path / tag, max_steps=steps, epochs=10**6)
        pred = run_estimate(ckpt, val_data, tmp_path / f"{tag}.ptc",
                            hypotheses=2, iterations=2, seed=7)
        _, _, rows = run_eval(pred, val_data, tmp_path / f"{tag}_eval")
        return next(r for r in rows if r[0] == "overall")[5]["mpjpe_mm"]

    # every variant trains and evaluates without error
    wo_fpc = variant("wo_fpc", {"use_fpc": False}, steps=5)
    wo_pts = variant("wo_pts", {"use_pts": False}, steps=5)
    assert np.isfinite(wo_fpc) and np.isfinite(wo_pts)

    # directional check at identical step budgets
    full = variant("full", {}, steps=400)
    wo_prompt = variant(
        "wo_prompt", {"use_fpp": False, "use_fpc": False, "use_pts": False}, steps=400
    )
    assert full <= wo_prompt
    report(11, f"full {full:.2f}mm <= w/o-Prompt {wo_prompt:.2f}mm at 400 steps; variants run")
