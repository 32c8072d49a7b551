"""Run configuration: one JSON tree with full defaulting, strict key
validation, and a provenance hash embedded in every output artifact.

Two presets ship: ``tiny`` (desk-scale: 16 frames, 64-dim features, fast
optimizer settings) and ``paper`` (243 frames, 512-dim features, the
published optimizer/sampler settings; runnable but slow).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json

import numpy as np

from .denoiser import Denoiser, DenoiserConfig, weight_shapes
from .diffusion import build_schedule
from .exceptions import ConfigError
from .prompts import HashTextEncoder, PrecomputedTextEncoder, PromptBank, PromptSpec
from .training import TrainConfig, checkpoint_weights, restore_modifiers

__all__ = ["preset", "load_config", "validate_config", "config_hash", "build_runtime"]

DEFAULTS = {
    "seed": 0,
    "dtype": "float32",
    "schedule": {"T": 1000},
    # the model and train sections are the dataclasses' fields and defaults
    "model": {
        f.name: f.default
        for f in dataclasses.fields(DenoiserConfig)
        if f.name not in ("n_frames", "n_joints")  # set from the data section
    },
    # a path picks the file encoder, null the hash encoder
    "prompt": {"embeddings_file": None},
    "data": {
        "n_frames": 243,
        "n_joints": 17,
        "normalize": "root_centered",
    },
    "train": {f.name: f.default for f in dataclasses.fields(TrainConfig)},
    "sample": {
        "hypotheses": 20,
        "iterations": 10,
        "deterministic": True,
    },
}

PRESETS = {
    "paper": {},
    "tiny": {
        "schedule": {"T": 100},
        "model": {"feature_dim": 64, "heads": 4},
        "data": {"n_frames": 16},
        "train": {
            "epochs": 400,
            "lr0": 2e-3,
            "lr_decay": 0.999,
            "weight_decay": 0.01,
            "checkpoint_every": 100,
        },
        "sample": {"hypotheses": 4, "iterations": 4},
    },
}

_DTYPES = {"float32": np.float32, "float64": np.float64}

# keys whose default is null, and the type a value set there takes
_NULLABLE = {"prompt.embeddings_file": str}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}

# each bounded key's range: (lowest, whether the lowest itself is allowed,
# highest or None), or a tuple of choices; other keys take any value of their type
_GE0, _GE1, _GT0 = (0, True, None), (1, True, None), (0, False, None)
RANGES = {
    "dtype": tuple(_DTYPES), "schedule.T": _GE1,
    "model.feature_dim": _GE1, "model.heads": _GE1, "model.mlp_ratio": _GT0,
    "model.blocks_spatial": _GE0, "model.blocks_temporal": _GE0,
    "model.blocks_spatio_temporal": _GE0,
    "data.n_frames": _GE1, "data.n_joints": (3, True, None),  # P-MPJPE aligns 3 or more
    "data.normalize": ("root_centered", "image_normalized"),
    "train.epochs": _GE1, "train.batch_size": _GE1, "train.checkpoint_every": _GE1,
    "train.lr0": _GT0, "train.lr_decay": (0, False, 1), "train.weight_decay": _GE0,
    "sample.hypotheses": _GE1, "sample.iterations": _GE1,
}


def _merge(base: dict, override: dict) -> dict:
    """Deep overlay of ``override`` on ``base``; ``validate_config`` judges the result."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(out.get(key), dict) and isinstance(value, dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return _merge(DEFAULTS, PRESETS[name])


def load_config(path=None, preset_name: str | None = None, overrides: dict | None = None) -> dict:
    """A preset (``paper`` if none is named), overlaid with a JSON file, then overrides."""
    cfg = preset(preset_name or "paper")
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}")
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: config root must be an object")
        cfg = _merge(cfg, user)
    if overrides:
        cfg = _merge(cfg, overrides)
    validate_config(cfg)
    return cfg


def _schema_errors(cfg, schema: dict, path: str = "") -> list:
    """Where ``cfg`` leaves ``schema``: each missing or unknown key, and each value
    of another JSON type than its default or outside its range, by dotted path."""
    if not isinstance(cfg, dict):
        return [f"config section {path or 'root'!r} must be an object"]
    errors = []
    for key in sorted(set(cfg) | set(schema)):
        where = f"{path}.{key}" if path else key
        if key not in schema:
            errors.append(f"unknown config key {where!r}")
        elif key not in cfg:
            errors.append(f"missing config key {where!r}")
        elif isinstance(schema[key], dict):
            errors += _schema_errors(cfg[key], schema[key], where)
        else:
            errors += _type_errors(cfg[key], schema[key], where) or _range_errors(cfg[key], where)
    return errors


def _type_errors(value, default, where: str) -> list:
    """A bool is not a number, nor are NaN and Infinity; an int stands in for a float."""
    if where in _NULLABLE:
        if value is None:
            return []
        kind = _NULLABLE[where]
    else:
        kind = type(default)
    kinds = (int, float) if kind is float else kind
    if isinstance(value, kinds) and (kind is bool or not isinstance(value, bool)):
        if not isinstance(value, float) or np.isfinite(value):
            return []
    name = _TYPE_NAMES[kind] + (" or null" if where in _NULLABLE else "")
    return [f"config key {where!r} must be {name}, got {value!r}"]


def _range_errors(value, where: str) -> list:
    rule = RANGES.get(where)
    if rule is None:
        return []
    if isinstance(rule[0], str):
        ok, need = value in rule, f"one of {list(rule)}"
    else:
        low, closed, high = rule
        ok = (value >= low if closed else value > low) and (high is None or value <= high)
        need = f"{'>=' if closed else '>'} {low}" + ("" if high is None else f" and <= {high}")
    return [] if ok else [f"config key {where!r} must be {need}, got {value!r}"]


def validate_config(cfg: dict, prefix: str = ""):
    """The one judge of a config: exactly the keys of DEFAULTS, each value of its
    default's JSON type and in its ``RANGES`` entry, then the two rules that join
    model values. One ``ConfigError``, led by ``prefix``, names every failure."""
    errors = _schema_errors(cfg, DEFAULTS)
    if not errors:
        m = cfg["model"]
        if m["feature_dim"] % 2 or m["feature_dim"] % m["heads"]:
            errors.append(f"config key 'model.feature_dim' must be even and a multiple of "
                          f"model.heads ({m['heads']}), got {m['feature_dim']}")
        if round(m["mlp_ratio"] * m["feature_dim"]) < 1:
            errors.append(f"config key 'model.mlp_ratio' must make the MLP width "
                          f"round(mlp_ratio * feature_dim) >= 1, got {m['mlp_ratio']!r}")
    if errors:
        raise ConfigError(prefix + "; ".join(errors))


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()[:16]


class Runtime:
    """Everything a command needs, assembled from one validated config.

    With ``checkpoint`` (a checkpoint's tensors), the denoiser weights and
    prompt modifiers are the checkpoint's; otherwise they are seeded.
    """

    def __init__(self, cfg: dict, checkpoint: dict | None = None):
        validate_config(cfg)
        self.cfg = cfg
        self.hash = config_hash(cfg)
        self.dtype = _DTYPES[cfg["dtype"]]
        self.sched = build_schedule(cfg["schedule"]["T"])
        m = cfg["model"]
        self.model_config = DenoiserConfig(
            n_frames=cfg["data"]["n_frames"], n_joints=cfg["data"]["n_joints"], **m
        )
        if checkpoint is None:
            self.model = Denoiser.create(self.model_config, seed=cfg["seed"], dtype=self.dtype)
        else:
            shapes = weight_shapes(self.model_config)
            self.model = Denoiser(
                self.model_config, checkpoint_weights(checkpoint, shapes, self.dtype)
            )
        self.bank = None
        if m["use_fpp"]:
            path = cfg["prompt"]["embeddings_file"]
            if path is not None:
                encoder = PrecomputedTextEncoder(path)
                if encoder.embed_dim != m["feature_dim"]:
                    raise ConfigError(f"{path}: embedding file dim {encoder.embed_dim} "
                                      f"!= model dim {m['feature_dim']}")
            else:
                encoder = HashTextEncoder(m["feature_dim"])
            self.bank = PromptBank(
                PromptSpec(), encoder, seed=cfg["seed"], dtype=self.dtype
            )
            if checkpoint is not None:
                restore_modifiers(self.bank, checkpoint)
        self.train_config = TrainConfig(**cfg["train"])


def build_runtime(cfg: dict, checkpoint: dict | None = None) -> Runtime:
    return Runtime(cfg, checkpoint)
