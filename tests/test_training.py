import os
import subprocess
import sys

import numpy as np
import pytest

import posediff
from posediff import autodiff, training
from posediff.autodiff import Tensor
from posediff.denoiser import Denoiser, DenoiserConfig, weight_shapes
from posediff.diffusion import build_schedule
from posediff.exceptions import ConfigError, NumericsError, ShapeError
from posediff.prompts import HashTextEncoder, PromptBank, PromptSpec
from posediff.training import (
    AdamW,
    Trainer,
    TrainConfig,
    checkpoint_weights,
    lr_schedule,
    mse_loss,
    read_checkpoint,
    restore_modifiers,
    restore_trainer,
    save_checkpoint,
)

from gradcheck import gradient_check

TINY = DenoiserConfig(n_frames=2, n_joints=3, feature_dim=8, heads=2)


def make_trainer(seed=0, cfg=None, dcfg=TINY, lr0=1e-3, checkpoint=None):
    """A seeded trainer; with ``checkpoint`` (a checkpoint's tensors), its weights
    and prompt modifiers are the checkpoint's, as ``train --resume`` builds them."""
    if checkpoint is None:
        model = Denoiser.create(dcfg, seed=seed)
    else:
        model = Denoiser(dcfg, checkpoint_weights(checkpoint, weight_shapes(dcfg), np.float64))
    bank = (
        PromptBank(PromptSpec(), HashTextEncoder(dcfg.feature_dim, seed=seed + 1), seed=seed + 2)
        if dcfg.use_fpp
        else None
    )
    if checkpoint is not None and bank is not None:
        restore_modifiers(bank, checkpoint)
    sched = build_schedule(40)
    cfg = cfg or TrainConfig(epochs=2, batch_size=2, lr0=lr0, lr_decay=1.0, weight_decay=0.0)
    return Trainer(model, bank, sched, cfg, seed=seed)


def make_samples(n=4, seed=0, n_frames=2, n_joints=3):
    rng = np.random.default_rng(seed)
    actions = ["walk_cycle", "arm_wave", "sit"]
    return [
        (
            rng.standard_normal((n_frames, n_joints, 2)) * 0.3,
            rng.standard_normal((n_frames, n_joints, 3)) * 0.3,
            actions[i % 3],
        )
        for i in range(n)
    ]


class TestMseLoss:
    def test_identical_is_zero(self):
        y = np.ones((2, 3, 3))
        assert float(mse_loss(y, Tensor(y)).data) == 0.0

    def test_offset_by_one_gives_one(self):
        y = np.zeros((2, 3, 3))
        assert float(mse_loss(y, Tensor(y + 1.0)).data) == pytest.approx(1.0, rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 2, 3)), rng.standard_normal((2, 2, 3))
        assert float(mse_loss(a, Tensor(b)).data) == pytest.approx(
            float(mse_loss(b, Tensor(a)).data), rel=1e-12
        )

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 2, 3))
        assert float(mse_loss(a, Tensor(a + 1e-9)).data) > 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 3, 3)), Tensor(np.zeros((3, 2, 3))))


class TestLrSchedule:
    def test_epoch_zero_is_paper_value(self):
        assert lr_schedule(0, TrainConfig()) == 6e-5

    def test_epoch_one(self):
        assert lr_schedule(1, TrainConfig()) == pytest.approx(5.958e-5, rel=1e-6)

    def test_monotone_decreasing(self):
        cfg = TrainConfig()
        values = [lr_schedule(e, cfg) for e in range(20)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestAdamW:
    def test_zero_grad_zero_decay_no_change(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = AdamW({"p": p}, TrainConfig(weight_decay=0.0))
        opt.step(0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_hand_value(self):
        # p=1, g=1, lr=0.1, wd=0: bias-corrected first step moves by ~lr.
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = AdamW({"p": p}, TrainConfig(weight_decay=0.0))
        opt.step(0.1)
        want = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
        assert p.data[0] == pytest.approx(want, abs=1e-12)
        assert p.data[0] == pytest.approx(0.9, abs=1e-8)

    def test_decoupled_decay_with_zero_grad(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        opt = AdamW({"p": p}, TrainConfig(weight_decay=0.1))
        opt.step(0.5)
        assert p.data[0] == pytest.approx(2.0 * (1.0 - 0.5 * 0.1), rel=1e-12)
        opt.step(0.5)
        assert p.data[0] == pytest.approx(2.0 * (1.0 - 0.5 * 0.1) ** 2, rel=1e-12)

    def test_nonfinite_gradient_raises(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = AdamW({"p": p}, TrainConfig())
        with pytest.raises(NumericsError):
            opt.step(0.1)


class TestGradientCheck:
    def test_full_denoiser_path_tiny_config(self):
        # Every trainable tensor of the full FPP+FPC+PTS path, sampled entries.
        trainer = make_trainer(seed=3)
        model, bank = trainer.model, trainer.bank
        rng = np.random.default_rng(4)
        yt = rng.standard_normal((2, 3, 3))
        x = rng.standard_normal((2, 3, 2))
        target = rng.standard_normal((2, 3, 3))

        def build_loss():
            return mse_loss(target, model.denoise(yt, x, 7, bank.assemble("sit")))

        params = dict(model.trainable())
        params.update(bank.trainable())
        report = gradient_check(build_loss, params, max_entries=4, seed=0)
        assert set(report) == set(params)

    def test_simple_quadratic_passes(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        report = gradient_check(lambda: (p * p).sum(), {"p": p})
        assert report["p"][0] < 1e-8

    def test_unused_parameter_is_flagged(self):
        used = Tensor(np.array([1.0]), requires_grad=True)
        orphan = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(NumericsError, match="orphan"):
            gradient_check(lambda: (used * used).sum(), {"used": used, "orphan": orphan})


class TestTrainEpoch:
    def test_deterministic_epoch_loss(self):
        samples = make_samples()
        a = make_trainer(seed=5).train_epoch(samples)
        b = make_trainer(seed=5).train_epoch(samples)
        assert a == b

    def test_frozen_tokens_unchanged_and_modifiers_move(self):
        trainer = make_trainer(seed=6)
        samples = make_samples()
        frozen_before = {
            a: [b.copy() for b in blocks]
            for a, blocks in ((k, trainer.bank.frozen_blocks(k)) for k in ("walk_cycle", "arm_wave", "sit"))
        }
        mods_before = [m.data.copy() for m in trainer.bank.modifiers]
        trainer.train_epoch(samples)
        for action, blocks in frozen_before.items():
            for b0, b1 in zip(blocks, trainer.bank.frozen_blocks(action)):
                np.testing.assert_array_equal(b0, b1)
        assert any(
            not np.array_equal(m0, m.data)
            for m0, m in zip(mods_before, trainer.bank.modifiers)
        )

    def test_loss_decreases_on_one_sample(self):
        trainer = make_trainer(seed=7, cfg=TrainConfig(
            epochs=200, batch_size=1, lr0=3e-3, lr_decay=1.0, weight_decay=0.0
        ))
        samples = make_samples(1)
        first = trainer.train_epoch(samples)
        for _ in range(199):
            last = trainer.train_epoch(samples)
        assert last < 0.3 * first

    def test_max_steps_cap(self):
        trainer = make_trainer(seed=8)
        samples = make_samples(8)
        for _ in range(10):
            trainer.train_epoch(samples, max_steps=5)
        assert trainer.opt.step_count == 5

    def test_empty_dataset_raises(self):
        with pytest.raises(ConfigError):
            make_trainer().train_epoch([])

    def test_log_rows(self):
        trainer = make_trainer(seed=9)
        trainer.train_epoch(make_samples(4))
        assert len(trainer.logs) == 2  # 4 samples, batch 2
        row = trainer.logs[0]
        assert row.epoch == 0 and row.step == 1
        assert row.loss > 0 and row.train_mpjpe > 0 and row.lr > 0


def workspace_is_dead(trainer):
    return trainer.workspace and all(
        refs == autodiff._DEAD for pool in trainer.workspace.values()
        for refs in autodiff._refcounts(pool))


# 20 tiny steps after 2 warm-up steps under the benchmark's malloc setting, in a
# fresh process; prints the minor page faults per step
FAULT_PROBE = """
import resource
from posediff.cli import _training_samples
from posediff.config import build_runtime, load_config
from posediff.data import synth_generate
from posediff.training import Trainer

cfg = load_config(None, "tiny", overrides={"data": {"n_frames": 16}})
runtime = build_runtime(cfg)
samples = _training_samples(synth_generate(8, 16, 17, seed=7), runtime)
trainer = Trainer(runtime.model, runtime.bank, runtime.sched, runtime.train_config, cfg["seed"])


def faults_per_step(n):
    start, goal = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, trainer.opt.step_count + n
    while trainer.opt.step_count < goal:
        trainer.train_epoch(samples, max_steps=goal)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / n


faults_per_step(2)
print(faults_per_step(20))
"""
# Over PYTHONHASHSEED 1-16 a tiny step took 71-192 faults; it took 912-1,610 with
# two graphs alive and no workspace, and about 25,000 freeing its graph without one.
FAULTS_PER_STEP_BOUND = 500


class TestWorkspace:
    def test_no_buffer_is_allocated_after_the_first_step(self, monkeypatch):
        trainer, samples = make_trainer(seed=14), make_samples(8)  # 4 steps an epoch
        allocations, empty = [], np.empty

        def counted_empty(*args, **kw):
            if sys._getframe(1).f_code is autodiff._buffer.__code__:
                allocations.append(trainer.opt.step_count + 1)  # the step under way
            return empty(*args, **kw)

        monkeypatch.setattr(np, "empty", counted_empty)
        for max_steps in (1, None, None):  # one step, the epoch's rest, then another epoch
            trainer.train_epoch(samples, max_steps=max_steps)
            assert workspace_is_dead(trainer)
            assert not {"workspace", "sweep"} & vars(autodiff._state).keys()
        assert trainer.opt.step_count == 8 and set(allocations) == {1}

    @pytest.mark.parametrize("where", ["loss", "backward"])
    def test_failed_step_leaves_no_workspace_or_sweep_flag(self, monkeypatch, where):
        samples = make_samples(2)
        if where == "loss":  # squares overflow: the step raises before its backward
            samples = [(x, y * 1e200, action) for x, y, action in samples]
        else:  # a node's backward raises inside the sweep
            loss = training.mse_loss

            def failing(g):
                raise NumericsError("injected")

            monkeypatch.setattr(training, "mse_loss", lambda y0, y0_hat: Tensor._make(
                loss(y0, y0_hat).data, (y0_hat,), failing))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
            make_trainer(seed=15).train_epoch(samples)
        assert not {"workspace", "sweep"} & vars(autodiff._state).keys()

    def test_tiny_step_page_faults_stay_bounded(self):
        src = os.path.dirname(os.path.dirname(posediff.__file__))
        env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", PYTHONHASHSEED="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                               text=True, timeout=300, check=True)
        assert float(probe.stdout) < FAULTS_PER_STEP_BOUND


class TestCheckpoint:
    def test_round_trip_bit_exact_resume(self, tmp_path):
        samples = make_samples(4, seed=10)
        samples[0] = (*samples[0][:2], None)  # unlabelled: the generic "motion" prompt
        # uninterrupted: two epochs
        ref = make_trainer(seed=11)
        ref.train_epoch(samples)
        ref.train_epoch(samples)

        # interrupted: one epoch, checkpoint, restore into a fresh trainer
        half = make_trainer(seed=11)
        half.train_epoch(samples)
        path = tmp_path / "ck.ptc"
        save_checkpoint(path, half, run_config={"note": "test"})
        tensors, meta = read_checkpoint(path)
        # frozen prompt text is not stored: the encoder rebuilds it
        assert not [k for k in tensors if "frozen" in k]
        fresh = make_trainer(seed=11, checkpoint=tensors)
        restore_trainer(fresh, tensors, meta, len(samples))
        assert fresh.epoch == 1
        fresh.train_epoch(samples)

        for name in ref.model.weights:
            np.testing.assert_array_equal(
                ref.model.weights[name].data, fresh.model.weights[name].data
            )
        for m0, m1 in zip(ref.bank.modifiers, fresh.bank.modifiers):
            np.testing.assert_array_equal(m0.data, m1.data)

    def test_stored_frozen_blocks_are_ignored(self, tmp_path):
        # checkpoints of earlier versions also hold prompt_frozen/{action}/{k}
        trainer = make_trainer(seed=13)
        trainer.train_epoch(make_samples(2))
        path = tmp_path / "ck.ptc"
        save_checkpoint(path, trainer, run_config={"x": 1})
        tensors, meta = read_checkpoint(path)
        for k in range(7):
            tensors[f"prompt_frozen/motion/{k}"] = np.full((4, 3), 9.0)
        fresh = make_trainer(seed=13, checkpoint=tensors)
        restore_trainer(fresh, tensors, meta, 2)
        for action in ("walk_cycle", None):
            np.testing.assert_array_equal(
                fresh.bank.assemble(action).tokens.data, trainer.bank.assemble(action).tokens.data
            )

    def test_checkpoint_carries_meta(self, tmp_path):
        trainer = make_trainer(seed=12)
        trainer.train_epoch(make_samples(2))
        path = tmp_path / "ck.ptc"
        save_checkpoint(path, trainer, run_config={"x": 1})
        tensors, meta = read_checkpoint(path)
        assert meta["epoch"] == 1
        assert meta["run_config"] == {"x": 1}
        assert any(k.startswith("weights/") for k in tensors)
        assert "prompt/0/modifier" in tensors

    def test_wrong_kind_rejected(self, tmp_path):
        from posediff.container import write_container

        path = tmp_path / "x.ptc"
        write_container(path, {"a": np.ones(2)}, meta={"kind": "dataset"})
        with pytest.raises(ConfigError):
            read_checkpoint(path)
