"""Prompt-driven denoiser: maps (noisy 3D pose, 2D keypoints, timestamp,
prompt matrix) to a clean 3D pose estimate.

Pipeline per forward pass: per-joint input embedding (+ pooled prompt and
timestamp vectors), spatial self-attention over joints, cross-attention from
pose tokens to the 77 prompt rows, prompt/timestamp feature stylization,
temporal self-attention over frames, three further spatial-temporal blocks,
and a linear 3D decode head. All blocks are pre-norm residual transformer
layers and preserve the N x J x D feature shape.

The three conditioning stages can be disabled independently (ablation
plumbing): ``use_fpp`` gates the prompt bank entirely, ``use_fpc`` the
cross-attention, ``use_pts`` the stylization.

Inference also takes a leading hypothesis axis: without a graph, every
stage runs on an (h, N, J, .) stack as it does on one (N, J, .) sequence,
and each hypothesis's rows round exactly as in its own forward. ``denoise``
runs a stack on the calling thread, or spreads it over the workers of the
``hypothesis_pool`` it is handed, whose GEMMs and large ufuncs release the
interpreter lock: one hypothesis per task when a forward is of paper size,
else one contiguous share per thread, run as one forward, when a share is
big enough that the threads stop queueing on the lock. A pool worker stays
in ``no_grad`` for life, so its buffer arena lasts as long as the pool.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _grad_enabled, attention, concat, gelu, layer_norm, linear, no_grad
from .exceptions import ConfigError, ShapeError
from .prompts import TOTAL_TOKENS, PromptEmbedding
from .rng import gaussian

__all__ = [
    "DenoiserConfig", "Denoiser", "hypothesis_pool", "init_denoiser_weights", "sinusoid_embedding",
    "thread_budget",
]

WEIGHT_STD = 0.02
LN_EPS = 1e-5
# Smallest work (frames x joints x feature_dim) one pool task runs: 24x17x64,
# the smallest measured forward at which 2 threads beat one in at least 9 of
# 10 pairs in every round (sweep in CHANGES.md). Below it, the threads mostly
# wait for the interpreter lock. A paper forward (243x17x512) passes alone;
# a tiny one (16x17x64) passes as a share of 2 or more hypotheses.
PARALLEL_MIN_ELEMENTS = 26_112
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def thread_budget() -> int:
    """Hypothesis threads: usable CPUs // BLAS threads.

    BLAS threads come from the first of ``BLAS_THREAD_VARS`` holding a
    positive integer, as OpenBLAS reads them; with none, BLAS takes every
    core, so one worker keeps workers x BLAS threads within the cores.
    Narrowing the CPU affinity (``taskset``) narrows the budget.
    """
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    cpus = len(affinity(0)) if affinity else os.cpu_count()
    for var in BLAS_THREAD_VARS:
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas >= 1:
            return max(1, cpus // blas)
    return 1


def _start_worker():
    no_grad().__enter__()
    np.seterr(over="ignore", invalid="ignore")


def hypothesis_pool(hypotheses: int) -> ThreadPoolExecutor:
    """``min(thread_budget(), hypotheses)`` workers that each enter ``no_grad``
    as they start and never leave it. They raise no numpy floating-point
    warnings: the sampler judges the poses of every forward."""
    workers = min(thread_budget(), hypotheses)
    return ThreadPoolExecutor(max_workers=workers, initializer=_start_worker)


@dataclass(frozen=True)
class DenoiserConfig:
    n_frames: int
    n_joints: int
    feature_dim: int = 512
    heads: int = 8
    blocks_spatial: int = 1
    blocks_temporal: int = 1
    blocks_spatio_temporal: int = 3
    mlp_ratio: float = 2.0
    use_fpp: bool = True
    use_fpc: bool = True
    use_pts: bool = True

    @property
    def head_dim(self):
        return self.feature_dim // self.heads

    def block_names(self):
        names = [f"spatial{i}" for i in range(self.blocks_spatial)]
        names += [f"temporal{i}" for i in range(self.blocks_temporal)]
        for i in range(self.blocks_spatio_temporal):
            names += [f"st{i}/spatial", f"st{i}/temporal"]
        return names


def _attention_weight_shapes(d):
    return {
        "ln/scale": (d,),
        "ln/offset": (d,),
        "wq": (d, d),
        "bq": (d,),
        "wk": (d, d),
        "bk": (d,),
        "wv": (d, d),
        "bv": (d,),
        "wo": (d, d),
        "bo": (d,),
    }


def weight_shapes(config: DenoiserConfig) -> dict:
    """Canonical name -> shape map fully determined by the config."""
    d = config.feature_dim
    hidden = int(round(config.mlp_ratio * d))
    shapes = {
        "input/proj/w": (5, d),
        "input/proj/b": (d,),
        "input/pos_spatial": (config.n_joints, d),
        "input/pos_temporal": (config.n_frames, d),
        "time/fc1/w": (d, d),
        "time/fc1/b": (d,),
        "time/fc2/w": (d, d),
        "time/fc2/b": (d,),
        "head/w": (d, 3),
        "head/b": (3,),
    }
    for blk in config.block_names():
        for suffix, shape in _attention_weight_shapes(d).items():
            shapes[f"{blk}/attn/{suffix}"] = shape
        shapes[f"{blk}/mlp/ln/scale"] = (d,)
        shapes[f"{blk}/mlp/ln/offset"] = (d,)
        shapes[f"{blk}/mlp/fc1/w"] = (d, hidden)
        shapes[f"{blk}/mlp/fc1/b"] = (hidden,)
        shapes[f"{blk}/mlp/fc2/w"] = (hidden, d)
        shapes[f"{blk}/mlp/fc2/b"] = (d,)
    if config.use_fpp and config.use_fpc:
        for suffix, shape in _attention_weight_shapes(d).items():
            shapes[f"cross/{suffix}"] = shape
    if config.use_pts:
        for name in ("phi", "psi_w", "psi_b"):
            shapes[f"pts/{name}/w"] = (d, d)
            shapes[f"pts/{name}/b"] = (d,)
    return shapes


def init_denoiser_weights(config: DenoiserConfig, seed: int, dtype=np.float64) -> dict:
    """Gaussian(0, 0.02) projections, identity layer norms, zero biases.

    The stylization scale branch starts at an all-ones bias so the block is
    the identity map at initialization.
    """
    dtype = np.dtype(dtype)
    weights = {}
    for name, shape in weight_shapes(config).items():
        if name.endswith("ln/scale") or name == "pts/psi_w/b":
            value = np.ones(shape, dtype=dtype)
        elif name.endswith(("/b", "/offset", "bq", "bk", "bv", "bo")):
            value = np.zeros(shape, dtype=dtype)
        else:
            value = WEIGHT_STD * gaussian(shape, seed, "weight", name, dtype=dtype)
        weights[name] = value
    return weights


def _residual(x: Tensor, y: Tensor) -> Tensor:
    """x + y, added into y, a fresh projection output; one node, gradient ``(g, g)``."""
    y.data += x.data
    return Tensor._make(y.data, (x, y), lambda g: (g, g))


def sinusoid_embedding(t: float, dim: int) -> np.ndarray:
    """Interleaved sin/cos positional code of scalar t; t=0 gives [0,1,0,1,...]."""
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    emb = np.empty(dim)
    emb[0::2] = np.sin(t * freqs)
    emb[1::2] = np.cos(t * freqs)
    return emb


class Denoiser:
    """Denoiser network over a named weight map, one array per entry of
    ``weight_shapes(config)``: ``init_denoiser_weights`` seeds such a map, and
    ``training.checkpoint_weights`` judges a checkpoint's against it.

    Forward passes are pure functions of (inputs, weights): the hypotheses
    of one ``denoise`` call may run concurrently against one weight snapshot,
    while training mutates the weights between batches under exclusive access.
    """

    def __init__(self, config: DenoiserConfig, weights: dict):
        self.config = config
        self.weights = {name: Tensor(w, requires_grad=True) for name, w in weights.items()}
        self.dtype = self.weights["head/w"].data.dtype

    @classmethod
    def create(cls, config: DenoiserConfig, seed: int = 0, dtype=np.float64):
        return cls(config, init_denoiser_weights(config, seed, dtype))

    def _w(self, name):
        return self.weights[name]

    # -- conditioning --------------------------------------------------------

    def timestamp_embed(self, t: float) -> Tensor:
        """Sinusoidal code of t through linear-GELU-linear; returns (1, D)."""
        sin = sinusoid_embedding(float(t), self.config.feature_dim)
        h = linear(Tensor(sin[None].astype(self.dtype)), self._w("time/fc1/w"), self._w("time/fc1/b"))
        return linear(gelu(h), self._w("time/fc2/w"), self._w("time/fc2/b"))

    def embed_input(self, yt, x, t, prompt: PromptEmbedding | None) -> Tensor:
        """Concat(3D, 2D) per joint token -> D, plus positional/prompt/time terms.

        ``yt`` is (N, J, 3) or, without a graph, an (h, N, J, 3) stack that
        shares the (N, J, 2) keypoints ``x``.
        """
        yt = np.asarray(yt)
        x = np.asarray(x)
        if yt.ndim not in (3, 4) or yt.shape[-1] != 3 or x.ndim != 3 or x.shape[2] != 2:
            raise ShapeError(f"expected (N,J,3) or (H,N,J,3) and (N,J,2), got {yt.shape} "
                             f"and {x.shape}")
        if yt.shape[-3:-1] != x.shape[:2]:
            raise ShapeError(f"pose/keypoint frame-joint mismatch: {yt.shape} vs {x.shape}")
        cfg = self.config
        if x.shape[:2] != (cfg.n_frames, cfg.n_joints):
            raise ShapeError(
                f"input is {x.shape[:2]}, config expects {(cfg.n_frames, cfg.n_joints)}"
            )
        x = np.broadcast_to(x.astype(self.dtype), yt.shape[:-1] + (2,))
        tok = concat([Tensor(yt.astype(self.dtype)), Tensor(x)], axis=-1)
        z = linear(tok, self._w("input/proj/w"), self._w("input/proj/b"))
        z = z + self._w("input/pos_spatial")
        if cfg.use_fpp:
            if prompt is None:
                raise ConfigError("prompt conditioning enabled but no prompt given")
            z = z + prompt.pooled
        return z + self.timestamp_embed(t)

    # -- attention blocks ----------------------------------------------------

    def _attention(self, x: Tensor, prefix: str, context=None, attn_sink=None):
        """Pre-norm residual multi-head attention over x's second-to-last axis.

        Queries come from the layer-normed x; keys and values from the same
        normed x (self-attention) or from the ``context`` rows (cross-attention).
        """
        w = self._w
        h = layer_norm(x, w(f"{prefix}/ln/scale"), w(f"{prefix}/ln/offset"), LN_EPS)
        kv = h if context is None else context
        q = linear(h, w(f"{prefix}/wq"), w(f"{prefix}/bq"))
        k = linear(kv, w(f"{prefix}/wk"), w(f"{prefix}/bk"))
        v = linear(kv, w(f"{prefix}/wv"), w(f"{prefix}/bv"))
        cfg = self.config
        out = attention(q, k, v, cfg.heads, 1.0 / math.sqrt(cfg.head_dim), attn_sink)
        return _residual(x, linear(out, w(f"{prefix}/wo"), w(f"{prefix}/bo")))

    def _mlp(self, x: Tensor, prefix: str) -> Tensor:
        w = self._w
        h = layer_norm(x, w(f"{prefix}/ln/scale"), w(f"{prefix}/ln/offset"), LN_EPS)
        h = gelu(linear(h, w(f"{prefix}/fc1/w"), w(f"{prefix}/fc1/b")))
        return _residual(x, linear(h, w(f"{prefix}/fc2/w"), w(f"{prefix}/fc2/b")))

    def mhsa_block(self, f: Tensor, axis: str, block: str, attn_sink=None) -> Tensor:
        """One transformer block; ``axis`` picks joint-wise or frame-wise attention.

        Attention runs over the second-to-last axis: joints, or frames in a temporal
        block's joint-major (..., J, N, D) view. A leading hypothesis axis is a batch.
        """
        if axis == "temporal":
            swap = (*range(f.ndim - 3), f.ndim - 2, f.ndim - 3, f.ndim - 1)
            f = self._attention(f.permute(*swap), f"{block}/attn", attn_sink=attn_sink)
            f = f.permute(*swap)
        else:
            f = self._attention(f, f"{block}/attn", attn_sink=attn_sink)
        return self._mlp(f, f"{block}/mlp")

    def prompt_cross_attention(self, f: Tensor, prompt: PromptEmbedding, attn_sink=None) -> Tensor:
        """Inject the 77 prompt rows into pose tokens; residual + output projection."""
        if prompt.tokens.shape != (TOTAL_TOKENS, self.config.feature_dim):
            raise ShapeError(
                f"prompt matrix is {prompt.tokens.shape}, expected "
                f"({TOTAL_TOKENS}, {self.config.feature_dim})"
            )
        # a sequence's N*J pose tokens are the query rows of one attention; a
        # stack keeps them apart as (H, 1, N*J, D), which ``linear`` and the
        # attention core run one sequence at a time
        n, j, d = f.shape[-3:]
        rows = (n * j, d) if f.ndim == 3 else (f.shape[0], 1, n * j, d)
        out = self._attention(f.reshape(*rows), "cross", prompt.tokens, attn_sink)
        return out.reshape(*f.shape)

    def pts_stylize(self, f: Tensor, prompt: PromptEmbedding | None, t) -> Tensor:
        """Scale-and-offset features with a prompt+timestamp vector."""
        w = self._w
        v = self.timestamp_embed(t)
        if self.config.use_fpp and prompt is not None:
            v = prompt.pooled + v
        base = linear(v, w("pts/phi/w"), w("pts/phi/b"))
        scale = linear(base, w("pts/psi_w/w"), w("pts/psi_w/b"))
        offset = linear(base, w("pts/psi_b/w"), w("pts/psi_b/b"))
        return f * scale + offset

    def spatio_temporal_stack(self, f: Tensor) -> Tensor:
        for i in range(self.config.blocks_spatio_temporal):
            f = self.mhsa_block(f, "spatial", f"st{i}/spatial")
            f = self.mhsa_block(f, "temporal", f"st{i}/temporal")
        return f

    def decode_head(self, f: Tensor) -> Tensor:
        return linear(f, self._w("head/w"), self._w("head/b"))

    # -- full forward ----------------------------------------------------------

    def denoise(self, yt, x, t, prompt: PromptEmbedding | None = None, pool=None) -> Tensor:
        """Full forward pass; returns the predicted clean pose as (N, J, 3).

        For inference only, ``yt`` may also be an (H, N, J, 3) hypothesis
        stack; the predictions come back stacked in hypothesis order, each
        bitwise equal to its own (N, J, 3) forward. With E = frames x joints
        x feature_dim, G = ``PARALLEL_MIN_ELEMENTS``, ``threads`` the workers
        of ``pool`` (a ``hypothesis_pool``) capped at H, or 1 without one,
        and a share of ``ceil(H / threads)`` hypotheses, a stack runs
          * one hypothesis per task if E >= G, which bounds memory;
          * else one contiguous share per thread, each as one forward, or
            the whole stack as one forward if threads == 1 or share x E < G.
        The tasks go to ``pool`` only when more than one thread is left, so
        without a pool the stack runs on the calling thread; neither changes
        the result. Each task copies its predictions into its rows of the
        output, so no arena buffer leaves its thread.
        """
        yt = np.asarray(yt)
        if yt.ndim != 4:
            return self._forward(yt, x, t, prompt)
        if _grad_enabled():
            raise ShapeError(
                f"a hypothesis stack {yt.shape} is for inference only; denoise it under no_grad"
            )
        cfg = self.config
        per_forward = cfg.n_frames * cfg.n_joints * cfg.feature_dim
        hyps = len(yt)
        threads = 1 if pool is None else min(pool._max_workers, hyps)
        out = np.empty(yt.shape, self.dtype)
        if per_forward >= PARALLEL_MIN_ELEMENTS or not hyps:  # an empty stack runs no task
            tasks = yt, out
        elif threads > 1 and math.ceil(hyps / threads) * per_forward >= PARALLEL_MIN_ELEMENTS:
            tasks = np.array_split(yt, threads), np.array_split(out, threads)
        else:
            threads, tasks = 1, ([yt], [out])

        def forward(task, rows):
            rows[...] = self._forward(task, x, t, prompt).data

        list((pool.map if threads > 1 else map)(forward, *tasks))
        return Tensor(out)

    def _forward(self, yt, x, t, prompt) -> Tensor:
        cfg = self.config
        f = self.embed_input(yt, x, t, prompt)
        for i in range(cfg.blocks_spatial):
            f = self.mhsa_block(f, "spatial", f"spatial{i}")
        if cfg.use_fpp and cfg.use_fpc:
            f = self.prompt_cross_attention(f, prompt)
        if cfg.use_pts:
            f = self.pts_stylize(f, prompt, t)
        f = f + self._w("input/pos_temporal").reshape(cfg.n_frames, 1, cfg.feature_dim)
        for i in range(cfg.blocks_temporal):
            f = self.mhsa_block(f, "temporal", f"temporal{i}")
        f = self.spatio_temporal_stack(f)
        return self.decode_head(f)

    def denoise_array(self, yt, x, t, prompt=None, pool=None) -> np.ndarray:
        """Inference convenience: no graph construction, plain ndarray out."""
        with no_grad():
            return self.denoise(yt, x, t, prompt, pool).data

    def trainable(self) -> dict:
        return dict(self.weights)
