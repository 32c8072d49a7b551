"""Training loop: L2 reconstruction loss, AdamW with decoupled weight decay,
the per-epoch learning-rate decay and checkpointing.

One optimizer step is a serial forward/backward/update transaction over the
weights. Every random draw (shuffle order, timestamp, diffusion noise) is
derived from (seed, epoch, step, slot), so training is stateless with
respect to RNG and resuming from a checkpoint reproduces an uninterrupted
run bit-exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .container import _is_int, read_container, write_container
from .diffusion import NoiseSchedule, forward_diffuse
from .exceptions import ConfigError, NumericsError, ShapeError
from .prompts import prompt_for
from .rng import gaussian, rng_for

__all__ = [
    "TrainConfig",
    "mse_loss",
    "lr_schedule",
    "AdamW",
    "Trainer",
    "save_checkpoint",
    "read_checkpoint",
    "checkpoint_weights",
    "restore_modifiers",
    "restore_trainer",
]

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 4
    lr0: float = 6e-5
    lr_decay: float = 0.993
    weight_decay: float = 0.1
    checkpoint_every: int = 1


def mse_loss(y0, y0_hat: Tensor) -> Tensor:
    """L2 reconstruction loss: sqrt of the mean squared coordinate error."""
    y0 = np.asarray(y0) if not isinstance(y0, Tensor) else y0
    target_shape = y0.shape if not isinstance(y0, Tensor) else y0.data.shape
    if tuple(target_shape) != tuple(y0_hat.shape):
        raise ShapeError(f"loss shapes differ: {target_shape} vs {y0_hat.shape}")
    diff = y0_hat - y0
    return (diff * diff).mean().sqrt()


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate at the start of `epoch`: lr0 * decay^epoch."""
    return cfg.lr0 * cfg.lr_decay**epoch


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    The decay term subtracts lr * wd * p directly from each parameter before
    the moment update, so decay acts even on parameters with zero gradient.
    """

    def __init__(self, params: dict, cfg: TrainConfig):
        self.params = dict(params)
        self.cfg = cfg
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float):
        cfg = self.cfg
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1**self.step_count
        bc2 = 1.0 - ADAM_BETA2**self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is not None and not np.isfinite(g).all():
                raise NumericsError(f"non-finite gradient for {name!r}")
            if cfg.weight_decay:
                p.data -= lr * cfg.weight_decay * p.data
            m, v = self.m[name], self.v[name]
            if g is None:
                g = 0.0
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * np.square(g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if not np.isfinite(p.data).all():
                raise NumericsError(f"non-finite parameter {name!r} after update")


@dataclass
class StepLog:
    epoch: int
    step: int
    loss: float
    train_mpjpe: float
    lr: float
    wall_ms: float


class Trainer:
    """Binds denoiser, prompt bank, schedule and optimizer over a dataset.

    ``samples`` are (x_2d, y0_3d, action) triples in model units. Each batch
    draws a fresh timestamp and diffusion noise per sample, runs a single
    denoise pass, and minimizes the mean per-sample reconstruction loss.
    ``bank`` is None exactly when the model runs without prompts (``use_fpp``).
    """

    def __init__(self, model, bank, sched: NoiseSchedule, cfg: TrainConfig, seed: int):
        self.model = model
        self.bank = bank
        self.sched = sched
        self.cfg = cfg
        self.seed = int(seed)
        params = dict(model.trainable())
        if bank is not None:
            params.update(bank.trainable())
        self.opt = AdamW(params, cfg)
        self.epoch = 0
        self.epoch_step = 0  # batches of ``epoch`` already taken
        self.logs: list = []

    def train_epoch(self, samples: list, max_steps: int | None = None) -> float:
        """The rest of the current epoch over the shuffled dataset; returns the
        mean step loss. At ``max_steps`` it stops inside the epoch, and the
        next call resumes the epoch at ``epoch_step``. A step whose loss is not
        finite raises NumericsError before its backward and update.
        """
        if not samples:
            raise ConfigError("training dataset is empty")
        epoch = self.epoch
        lr = lr_schedule(epoch, self.cfg)
        order = rng_for(self.seed, "epoch", epoch, "shuffle").permutation(len(samples))
        dtype = self.model.dtype
        losses = []
        for step in range(0, len(order), self.cfg.batch_size)[self.epoch_step:]:
            if max_steps is not None and self.opt.step_count >= max_steps:
                break
            t0 = time.perf_counter()
            batch = order[step : step + self.cfg.batch_size]
            self.opt.zero_grad()
            total = None
            err_sum, err_n = 0.0, 0
            for slot, idx in enumerate(batch):
                x, y0, action = samples[int(idx)]
                y0 = np.asarray(y0, dtype=dtype)
                t = int(
                    rng_for(self.seed, "epoch", epoch, "step", step, "t", slot).integers(
                        1, self.sched.T + 1
                    )
                )
                eps = gaussian(
                    y0.shape, self.seed, "epoch", epoch, "step", step, "noise", slot,
                    dtype=dtype,
                )
                yt = forward_diffuse(y0, t, self.sched, eps)
                prompt = prompt_for(self.bank, action)
                y0_hat = self.model.denoise(yt, np.asarray(x, dtype=dtype), t, prompt)
                term = mse_loss(y0, y0_hat)
                total = term if total is None else total + term
                err = np.linalg.norm(y0_hat.data - y0, axis=-1)
                err_sum += float(err.sum())
                err_n += err.size
            loss = total * (1.0 / len(batch))
            value = float(loss.data)
            if not np.isfinite(value):  # an overflow's gradients can all be finite zeros
                raise NumericsError(f"step {self.opt.step_count + 1}: training loss is {value}")
            loss.backward()
            self.opt.step(lr)
            wall = (time.perf_counter() - t0) * 1e3
            losses.append(value)
            self.logs.append(
                StepLog(epoch, self.opt.step_count, value, err_sum / err_n, lr, wall)
            )
            self.epoch_step += 1
        else:
            self.epoch, self.epoch_step = epoch + 1, 0
        return float(np.mean(losses)) if losses else float("nan")


# -- checkpointing ---------------------------------------------------------------


def save_checkpoint(path, trainer: Trainer, run_config: dict) -> None:
    """Weights, prompt modifiers, optimizer moments and training position.

    The frozen prompt text is not stored: the run config's encoder rebuilds it.
    """
    from .config import config_hash

    tensors = {}
    for name, p in trainer.model.weights.items():
        tensors[f"weights/{name}"] = p.data
    if trainer.bank is not None:
        for k, mod in enumerate(trainer.bank.modifiers):
            tensors[f"prompt/{k}/modifier"] = mod.data
    for name in trainer.opt.params:
        tensors[f"opt/m/{name}"] = trainer.opt.m[name]
        tensors[f"opt/v/{name}"] = trainer.opt.v[name]
    meta = {
        "kind": "checkpoint",
        "epoch": trainer.epoch,
        "epoch_step": trainer.epoch_step,
        "opt_step": trainer.opt.step_count,
        "run_config": run_config,
        "config_hash": config_hash(run_config),
    }
    write_container(path, tensors, meta)


def read_checkpoint(path, prefixes: tuple | None = None) -> tuple[dict, dict]:
    """A checkpoint's tensors (only those under ``prefixes``, if given) and meta."""
    tensors, meta = read_container(path, prefixes)
    if meta.get("kind") != "checkpoint":
        raise ConfigError(f"{path}: not a checkpoint (kind={meta.get('kind')!r})")
    if not isinstance(meta.get("run_config"), dict):
        raise ConfigError(f"{path}: checkpoint meta has no run_config object")
    return tensors, meta


def _checkpoint_tensor(tensors: dict, key: str, shape: tuple, dtype) -> np.ndarray:
    if key not in tensors:
        raise ConfigError(f"checkpoint is missing tensor {key!r}")
    if tensors[key].shape != shape:
        raise ConfigError(
            f"checkpoint tensor {key!r} has shape {tensors[key].shape}, model expects {shape}"
        )
    return tensors[key].astype(dtype, copy=False)


def checkpoint_weights(tensors: dict, shapes: dict, dtype) -> dict:
    """The checkpoint's ``weights/<name>`` for each name -> shape of ``shapes``."""
    return {
        name: _checkpoint_tensor(tensors, f"weights/{name}", shape, dtype)
        for name, shape in shapes.items()
    }


def restore_modifiers(bank, tensors: dict) -> None:
    """Install the checkpoint's learnable prompt modifiers into ``bank``."""
    for k, mod in enumerate(bank.modifiers):
        key = f"prompt/{k}/modifier"
        mod.data = _checkpoint_tensor(tensors, key, mod.data.shape, mod.data.dtype)


def restore_trainer(trainer: Trainer, tensors: dict, meta: dict, n_samples: int) -> None:
    """Install a checkpoint's training position and optimizer moments into a
    trainer built from its weights and modifiers, which goes on to train on
    ``n_samples`` samples (bit-exact resume). A second moment (``opt/v``) must not
    be negative."""
    batches = -(-n_samples // trainer.cfg.batch_size)  # per epoch
    for key, end in (("opt_step", None), ("epoch", None), ("epoch_step", batches)):
        v = meta.get(key)
        if not _is_int(v) or v < 0 or (end is not None and v >= end):
            bound = "" if end is None else f" below the epoch's {end} batches"
            raise ConfigError(f"checkpoint meta {key!r} must be an integer >= 0{bound}, got {v!r}")
    opt = trainer.opt
    for name in opt.params:
        for moments, key in ((opt.m, f"opt/m/{name}"), (opt.v, f"opt/v/{name}")):
            moments[name] = _checkpoint_tensor(
                tensors, key, moments[name].shape, moments[name].dtype
            )
        if (opt.v[name] < 0).any():
            raise ConfigError(f"checkpoint tensor 'opt/v/{name}' holds a negative second moment")
    opt.step_count = meta["opt_step"]
    trainer.epoch = meta["epoch"]
    trainer.epoch_step = meta["epoch_step"]
