"""Part-aware prompt bank: seven text prompts plus learnable modifiers
assembled into a fixed 77-row conditioning matrix.

Each prompt k keeps the first 4 token embeddings of its text (frozen) and
prepends L_k-4 learnable modifier rows; concatenating the seven prompts in
order yields the 77 x D matrix consumed by the denoiser's cross-attention.
Only the modifier rows train; text embeddings come from a frozen encoder.

The default encoder is hash-seeded so the repo runs with zero external
assets; embeddings exported offline from a pretrained text encoder can be
loaded from a container file instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, concat
from .container import read_container
from .exceptions import ConfigError
from .rng import gaussian

__all__ = [
    "PromptSpec",
    "HashTextEncoder",
    "PrecomputedTextEncoder",
    "PromptBank",
    "PromptEmbedding",
    "prompt_for",
]

TOTAL_TOKENS = 77
FROZEN_ROWS = 4
MODIFIER_STD = 0.02

DEFAULT_TEXTS = ("person", "motion", "speed", "head", "body", "arms", "legs")
DEFAULT_BUDGET = (7, 12, 10, 10, 10, 14, 14)
ACTION_SLOT = 1  # texts[1] carries the per-sequence action class


@dataclass(frozen=True)
class PromptSpec:
    texts: tuple = DEFAULT_TEXTS
    token_budget: tuple = DEFAULT_BUDGET

    def with_action(self, action: str | None) -> "PromptSpec":
        return replace(self, texts=self.texts[:ACTION_SLOT] + (action or "motion",) + self.texts[ACTION_SLOT + 1 :])

    @property
    def modifier_rows(self):
        return tuple(b - FROZEN_ROWS for b in self.token_budget)


class HashTextEncoder:
    """Deterministic stand-in for a frozen text encoder.

    Tokenizes on whitespace, adds begin/end markers, pads to 4 positions, and
    embeds each token as a seeded Gaussian vector keyed by the token string.
    The same string therefore always yields identical embeddings.
    """

    def __init__(self, embed_dim: int, seed: int = 0):
        self.embed_dim = embed_dim
        self.seed = seed

    def encode(self, text: str) -> np.ndarray:
        tokens = ["<bos>"] + text.lower().split() + ["<eos>"]
        while len(tokens) < FROZEN_ROWS:
            tokens.append("<pad>")
        rows = [
            MODIFIER_STD * gaussian(self.embed_dim, self.seed, "token", tok)
            for tok in tokens
        ]
        return np.stack(rows)


class PrecomputedTextEncoder:
    """Serves 4 x D blocks exported offline, keyed by exact prompt text."""

    def __init__(self, path):
        tensors, meta = read_container(path)
        texts = meta.get("texts", {})
        if not isinstance(texts, dict):
            raise ConfigError(f"{path}: meta.texts must map entry names to texts")
        self._blocks = {}
        dims = set()
        for key, arr in tensors.items():
            if not key.endswith("/frozen"):
                continue
            text = texts.get(key[: -len("/frozen")])
            if not isinstance(text, str):
                raise ConfigError(f"{path}: entry {key!r} needs a string text in meta.texts, "
                                  f"got {text!r}")
            if arr.ndim != 2 or arr.shape[0] != FROZEN_ROWS:
                raise ConfigError(
                    f"{path}: entry {key!r} must be {FROZEN_ROWS} x D, got {arr.shape}"
                )
            self._blocks[text] = arr
            dims.add(arr.shape[1])
        if not self._blocks:
            raise ConfigError(f"{path}: no prompt embeddings found")
        if len(dims) != 1:
            raise ConfigError(f"{path}: inconsistent embedding dims {sorted(dims)}")
        self.embed_dim = dims.pop()

    def encode(self, text: str) -> np.ndarray:
        block = self._blocks.get(text)
        if block is None:
            raise ConfigError(
                f"no precomputed embedding for prompt text {text!r}; "
                f"export it or use the hash encoder"
            )
        return block


def init_modifiers(spec: PromptSpec, embed_dim: int, seed: int) -> list:
    """Learnable modifier rows, i.i.d. Gaussian(0, 0.02), one matrix per prompt."""
    return [
        MODIFIER_STD * gaussian((rows, embed_dim), seed, "modifier", k)
        for k, rows in enumerate(spec.modifier_rows)
    ]


def encode_texts(spec: PromptSpec, encoder) -> list:
    """First 4 token embeddings per prompt text, in spec order."""
    return [
        np.array(encoder.encode(text)[:FROZEN_ROWS], dtype=np.float64)
        for text in spec.texts
    ]


@dataclass
class PromptEmbedding:
    """Assembled 77 x D matrix plus its pooled summary vector."""

    tokens: Tensor
    pooled: Tensor


def _pool_selector(spec: PromptSpec) -> np.ndarray:
    """(1, 77) matrix averaging each prompt block's last row, a frozen text row."""
    sel = np.zeros((1, TOTAL_TOKENS))
    ends = np.cumsum(spec.token_budget)
    sel[0, ends - 1] = 1.0 / len(spec.token_budget)
    return sel


class PromptBank:
    """Frozen text tokens plus learnable modifiers for the 7 prompts.

    Modifiers are shared across action classes; frozen blocks are encoded per
    action text by the encoder, their only source, and cached. Assembled
    embeddings are immutable snapshots safe for concurrent readers, while the
    modifiers are mutated only by training.
    """

    def __init__(self, spec: PromptSpec, encoder, seed: int = 0, dtype=np.float64):
        self.spec = spec
        self.encoder = encoder
        self.embed_dim = encoder.embed_dim
        self.dtype = np.dtype(dtype)
        self.modifiers = [
            Tensor(m.astype(self.dtype), requires_grad=True)
            for m in init_modifiers(spec, self.embed_dim, seed)
        ]
        self._frozen_cache: dict = {}

    def frozen_blocks(self, action: str | None = None) -> list:
        key = action or "motion"
        if key not in self._frozen_cache:
            blocks = encode_texts(self.spec.with_action(key), self.encoder)
            self._frozen_cache[key] = [b.astype(self.dtype) for b in blocks]
        return self._frozen_cache[key]

    def trainable(self) -> dict:
        return {f"prompt/{k}/modifier": m for k, m in enumerate(self.modifiers)}

    def assemble(self, action: str | None = None) -> PromptEmbedding:
        """Concatenate [modifiers; frozen 4 rows] per prompt into 77 x D."""
        frozen = self.frozen_blocks(action)
        pieces = []
        for mod, txt in zip(self.modifiers, frozen):
            pieces.append(mod)
            pieces.append(Tensor(txt))
        tokens = concat(pieces, axis=0)
        # only frozen rows: a graph node would send modifiers exact zeros
        pooled = Tensor(_pool_selector(self.spec).astype(self.dtype) @ tokens.data)
        return PromptEmbedding(tokens=tokens, pooled=pooled)


def prompt_for(bank: PromptBank | None, action: str | None) -> PromptEmbedding | None:
    """``bank``'s prompt for ``action``; None when the model runs without
    prompts, which is when it has no bank."""
    return None if bank is None else bank.assemble(action)
