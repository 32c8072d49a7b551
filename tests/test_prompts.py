from types import SimpleNamespace

import numpy as np
import pytest

from posediff.autodiff import Tensor
from posediff.container import write_container
from posediff.exceptions import ConfigError
from posediff.prompts import (
    FROZEN_ROWS,
    HashTextEncoder,
    PrecomputedTextEncoder,
    PromptBank,
    PromptSpec,
    encode_texts,
    init_modifiers,
)


def stub_encoder(embed_dim, encode):
    """Text encoder whose ``encode(text)`` is the given function."""
    return SimpleNamespace(embed_dim=embed_dim, encode=encode)


class TestPromptSpec:
    def test_defaults(self):
        spec = PromptSpec()
        assert spec.token_budget == (7, 12, 10, 10, 10, 14, 14)
        assert sum(spec.token_budget) == 77
        assert spec.texts[0] == "person"

    def test_modifier_rows_total(self):
        assert sum(PromptSpec().modifier_rows) == 77 - 28

    def test_with_action(self):
        spec = PromptSpec().with_action("walk_cycle")
        assert spec.texts[1] == "walk_cycle"
        assert PromptSpec().with_action(None).texts[1] == "motion"


class TestInitModifiers:
    def test_total_rows(self):
        mods = init_modifiers(PromptSpec(), 16, seed=0)
        assert sum(m.shape[0] for m in mods) == 49
        assert all(m.shape[1] == 16 for m in mods)

    def test_statistics(self):
        # 49 rows x 512 dims ~ 25k entries: std within 10% of 0.02, mean within 1e-3.
        mods = init_modifiers(PromptSpec(), 512, seed=7)
        entries = np.concatenate([m.ravel() for m in mods])
        assert entries.size >= 10_000
        assert abs(entries.mean()) < 1e-3
        assert abs(entries.std() - 0.02) < 0.002

    def test_seed_determinism(self):
        a = init_modifiers(PromptSpec(), 8, seed=3)
        b = init_modifiers(PromptSpec(), 8, seed=3)
        c = init_modifiers(PromptSpec(), 8, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0])


class TestEncodeTexts:
    def test_keeps_first_four_rows(self):
        class TenTokenEncoder:
            embed_dim = 6

            def encode(self, text):
                return np.arange(60, dtype=float).reshape(10, 6)

        blocks = encode_texts(PromptSpec(), TenTokenEncoder())
        assert all(b.shape == (4, 6) for b in blocks)
        np.testing.assert_array_equal(blocks[0], np.arange(24).reshape(4, 6))

    def test_action_changes_only_slot_two(self):
        enc = HashTextEncoder(8, seed=0)
        a = encode_texts(PromptSpec().with_action("running"), enc)
        b = encode_texts(PromptSpec().with_action("sitting"), enc)
        assert not np.array_equal(a[1], b[1])
        for k in (0, 2, 3, 4, 5, 6):
            np.testing.assert_array_equal(a[k], b[k])

    def test_hash_encoder_frozen(self):
        enc = HashTextEncoder(8, seed=1)
        np.testing.assert_array_equal(enc.encode("head"), enc.encode("head"))
        assert enc.encode("a b c d e").shape == (7, 8)
        assert enc.encode("x").shape == (4, 8)


class TestAssemble:
    def make_bank(self, dim=8, seed=0):
        return PromptBank(PromptSpec(), HashTextEncoder(dim, seed=seed), seed=seed)

    def test_total_rows_is_77(self):
        for dim in (4, 8, 32):
            bank = self.make_bank(dim)
            emb = bank.assemble("walk_cycle")
            assert emb.tokens.shape == (77, dim)

    def test_first_prompt_row_layout(self):
        # person (L=7): rows 0..2 modifiers, rows 3..6 frozen text.
        bank = self.make_bank()
        emb = bank.assemble()
        np.testing.assert_array_equal(emb.tokens.data[:3], bank.modifiers[0].data)
        np.testing.assert_array_equal(emb.tokens.data[3:7], bank.frozen_blocks()[0])

    def test_zeroed_bank_pools_to_zero(self):
        bank = PromptBank(PromptSpec(), stub_encoder(8, lambda text: np.zeros((4, 8))))
        for m in bank.modifiers:
            m.data[:] = 0
        emb = bank.assemble("motion")
        np.testing.assert_array_equal(emb.pooled.data, np.zeros((1, 8)))

    def test_pooled_is_mean_of_last_rows(self):
        bank = self.make_bank()
        emb = bank.assemble("sit")
        ends = np.cumsum(bank.spec.token_budget) - 1
        want = emb.tokens.data[ends].mean(axis=0)
        np.testing.assert_allclose(emb.pooled.data[0], want, atol=1e-12)

    def test_pooled_of_identical_rows(self):
        u = np.arange(8.0)
        bank = PromptBank(PromptSpec(), stub_encoder(8, lambda text: np.tile(u, (4, 1))))
        for m in bank.modifiers:
            m.data[:] = u
        emb = bank.assemble("motion")
        np.testing.assert_allclose(emb.pooled.data[0], u, atol=1e-12)

    def test_pooled_linearity(self):
        bank = self.make_bank()
        emb = bank.assemble()
        hashed = HashTextEncoder(8, seed=0)
        scaled = PromptBank(PromptSpec(), stub_encoder(8, lambda text: 3.0 * hashed.encode(text)))
        for m_src, m_dst in zip(bank.modifiers, scaled.modifiers):
            m_dst.data[:] = 3.0 * m_src.data
        emb3 = scaled.assemble("motion")
        np.testing.assert_allclose(emb3.pooled.data, 3.0 * emb.pooled.data, atol=1e-12)

    def test_pooled_records_no_node(self):
        # the selector weights only frozen rows, so a matmul node would send
        # every modifier row exact zeros
        emb = self.make_bank().assemble("sit")
        assert emb.tokens.requires_grad
        assert not emb.pooled.requires_grad and emb.pooled._parents == ()

    def test_gradient_reaches_modifiers_not_frozen(self):
        bank = self.make_bank()
        before = [b.copy() for b in bank.frozen_blocks()]
        emb = bank.assemble()
        (emb.tokens * emb.tokens).sum().backward()
        assert all(m.grad is not None for m in bank.modifiers)
        for b0, b1 in zip(before, bank.frozen_blocks()):
            np.testing.assert_array_equal(b0, b1)

    def test_trainable_names(self):
        bank = self.make_bank()
        names = sorted(bank.trainable())
        assert names == [f"prompt/{k}/modifier" for k in range(7)]
        assert all(isinstance(v, Tensor) for v in bank.trainable().values())


class TestPrecomputedEncoder:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.ptc"
        spec = PromptSpec()
        rng = np.random.default_rng(0)
        tensors, texts = {}, {}
        for k, text in enumerate(spec.texts):
            tensors[f"prompt/{k}/frozen"] = rng.standard_normal((4, 12))
            texts[f"prompt/{k}"] = text
        write_container(path, tensors, meta={"texts": texts})

        enc = PrecomputedTextEncoder(path)
        assert enc.embed_dim == 12
        np.testing.assert_array_equal(enc.encode("person"), tensors["prompt/0/frozen"])
        bank = PromptBank(spec, enc, seed=0)
        assert bank.assemble().tokens.shape == (77, 12)

    def test_missing_text_raises(self, tmp_path):
        path = tmp_path / "emb.ptc"
        write_container(
            path,
            {"prompt/0/frozen": np.zeros((4, 6))},
            meta={"texts": {"prompt/0": "person"}},
        )
        enc = PrecomputedTextEncoder(path)
        with pytest.raises(ConfigError, match="legs"):
            enc.encode("legs")
