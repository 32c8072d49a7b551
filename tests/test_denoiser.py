import sys

import numpy as np
import pytest

from posediff.autodiff import Tensor
from posediff.denoiser import (
    Denoiser,
    DenoiserConfig,
    init_denoiser_weights,
    sinusoid_embedding,
    weight_shapes,
)
from posediff.exceptions import ConfigError, ShapeError
from posediff.prompts import HashTextEncoder, PromptBank, PromptSpec

from test_prompts import stub_encoder


def fixed_text_bank(encode):
    """8-dim prompt bank whose encoder maps each prompt text through ``encode``."""
    return PromptBank(PromptSpec(), stub_encoder(8, encode), seed=2)


def tiny_config(**kw):
    base = dict(n_frames=2, n_joints=3, feature_dim=8, heads=2)
    base.update(kw)
    return DenoiserConfig(**base)


@pytest.fixture
def setup():
    cfg = tiny_config()
    model = Denoiser.create(cfg, seed=0)
    bank = PromptBank(PromptSpec(), HashTextEncoder(cfg.feature_dim, seed=1), seed=2)
    prompt = bank.assemble("walk_cycle")
    rng = np.random.default_rng(3)
    yt = rng.standard_normal((2, 3, 3))
    x = rng.standard_normal((2, 3, 2))
    return cfg, model, bank, prompt, yt, x


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            tiny_config(feature_dim=10, heads=4)

    def test_default_block_counts(self):
        cfg = DenoiserConfig(n_frames=4, n_joints=5, feature_dim=16, heads=2)
        assert (cfg.blocks_spatial, cfg.blocks_temporal, cfg.blocks_spatio_temporal) == (1, 1, 3)

    def test_weight_names_unique_and_shaped(self):
        cfg = tiny_config()
        shapes = weight_shapes(cfg)
        w = init_denoiser_weights(cfg, seed=0)
        assert set(w) == set(shapes)
        for name, arr in w.items():
            assert arr.shape == tuple(shapes[name]), name
            assert np.isfinite(arr).all()

    def test_ablated_configs_drop_weights(self):
        assert not any(
            k.startswith("cross/") for k in weight_shapes(tiny_config(use_fpc=False))
        )
        assert not any(
            k.startswith("pts/") for k in weight_shapes(tiny_config(use_pts=False))
        )
        assert not any(
            k.startswith(("cross/", "pts/"))
            for k in weight_shapes(tiny_config(use_fpp=False, use_pts=False))
        )


class TestTimestampEmbed:
    def test_sinusoid_at_zero_alternates(self):
        emb = sinusoid_embedding(0.0, 12)
        np.testing.assert_array_equal(emb, np.tile([0.0, 1.0], 6))

    def test_sinusoid_injective_over_schedule(self):
        rows = np.stack([sinusoid_embedding(t, 16) for t in range(1001)])
        assert np.unique(rows, axis=0).shape[0] == 1001

    def test_pure_function(self, setup):
        _, model, _, _, _, _ = setup
        a = model.timestamp_embed(17).data
        b = model.timestamp_embed(17).data
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, 8)

    def test_distinct_timestamps_distinct_embeddings(self, setup):
        _, model, _, _, _, _ = setup
        a = model.timestamp_embed(3).data
        b = model.timestamp_embed(4).data
        assert not np.allclose(a, b)


class TestEmbedInput:
    def test_shape_contract(self, setup):
        _, model, _, prompt, yt, x = setup
        z = model.embed_input(yt, x, 5, prompt)
        assert z.shape == (2, 3, 8)

    def test_all_zero_path(self, setup):
        cfg, model, _, _, yt, x = setup
        for name in ("input/proj/w", "input/proj/b", "input/pos_spatial",
                     "time/fc2/w", "time/fc2/b"):
            model.weights[name].data[:] = 0
        bank = fixed_text_bank(lambda text: np.zeros((4, 8)))
        for m in bank.modifiers:
            m.data[:] = 0
        z = model.embed_input(yt, x, 5, bank.assemble("motion"))
        np.testing.assert_allclose(z.data, 0.0, atol=1e-15)

    def test_pooled_shift_is_uniform(self, setup):
        _, model, _, prompt, yt, x = setup
        z1 = model.embed_input(yt, x, 5, prompt).data
        doubled = type(prompt)(tokens=prompt.tokens, pooled=prompt.pooled * 2.0)
        z2 = model.embed_input(yt, x, 5, doubled).data
        delta = z2 - z1
        np.testing.assert_allclose(delta, np.broadcast_to(delta[0, 0], delta.shape), atol=1e-12)

    def test_shape_errors(self, setup):
        _, model, _, prompt, yt, x = setup
        with pytest.raises(ShapeError):
            model.embed_input(yt, x[:1], 5, prompt)
        with pytest.raises(ShapeError):
            model.embed_input(np.zeros((9, 9, 3)), np.zeros((9, 9, 2)), 5, prompt)


class TestMhsaBlock:
    def test_attention_rows_sum_to_one(self, setup):
        _, model, _, prompt, yt, x = setup
        f = model.embed_input(yt, x, 5, prompt)
        for axis in ("spatial", "temporal"):
            sink = []
            model.mhsa_block(f, axis, "spatial0", attn_sink=sink)
            rows = sink[0].reshape(-1, sink[0].shape[-1]).astype(np.float32)
            np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-6)

    def test_single_token_attention_is_one(self):
        cfg = tiny_config(n_joints=1)
        model = Denoiser.create(cfg, seed=0)
        f = Tensor(np.random.default_rng(0).standard_normal((2, 1, 8)))
        sink = []
        model.mhsa_block(f, "spatial", "spatial0", attn_sink=sink)
        np.testing.assert_allclose(sink[0], 1.0, atol=1e-12)

    def test_identical_tokens_stay_identical(self, setup):
        _, model, _, _, _, _ = setup
        tok = np.random.default_rng(1).standard_normal(8)
        f = Tensor(np.tile(tok, (2, 3, 1)))
        out = model.mhsa_block(f, "spatial", "spatial0").data
        np.testing.assert_allclose(out, np.broadcast_to(out[:, :1, :], out.shape), atol=1e-10)

    def test_shape_preserved(self, setup):
        _, model, _, prompt, yt, x = setup
        f = model.embed_input(yt, x, 5, prompt)
        for block, axis in (("spatial0", "spatial"), ("temporal0", "temporal")):
            assert model.mhsa_block(f, axis, block).shape == (2, 3, 8)


class TestCrossAttention:
    def test_rows_sum_to_one_over_77(self, setup):
        cfg, model, _, prompt, yt, x = setup
        f = model.embed_input(yt, x, 5, prompt)
        sink = []
        model.prompt_cross_attention(f, prompt, attn_sink=sink)
        assert sink[0].shape == (cfg.heads, 6, 77)
        rows = sink[0].astype(np.float32)
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-6)

    def test_identical_prompt_rows_make_attention_irrelevant(self, setup):
        cfg, model, _, _, yt, x = setup
        row = np.random.default_rng(5).standard_normal(8)
        bank = fixed_text_bank(lambda text: np.tile(row, (4, 1)))
        for m in bank.modifiers:
            m.data[:] = row
        prompt = bank.assemble("motion")
        f = model.embed_input(yt, x, 5, prompt)
        got = model.prompt_cross_attention(f, prompt).data
        # Convex combination of identical value rows: result equals residual
        # plus the projection of that single value row.
        w = {k: t.data for k, t in model.weights.items()}
        from posediff.autodiff import layer_norm as _  # noqa: F401

        v_row = row @ w["cross/wv"] + w["cross/bv"]
        want = f.data + (v_row @ w["cross/wo"] + w["cross/bo"])
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_saturated_softmax_selects_dominant_row(self, setup):
        cfg, model, _, _, yt, x = setup
        # Rig key projection so one prompt row dwarfs the rest.
        person = np.zeros((4, 8))
        person[0] = 1.0  # a single distinguished row (global row index 3)
        bank = fixed_text_bank(lambda text: person if text == "person" else np.zeros((4, 8)))
        for m in bank.modifiers:
            m.data[:] = 0.0
        prompt = bank.assemble("motion")
        model.weights["cross/wk"].data[:] = 1000.0 * np.eye(8)
        model.weights["cross/wq"].data[:] = np.eye(8)
        model.weights["cross/ln/offset"].data[:] = 1.0  # keep queries positive-ish
        f = Tensor(np.abs(np.random.default_rng(6).standard_normal((2, 3, 8))))
        got = model.prompt_cross_attention(f, prompt).data
        w = {k: t.data for k, t in model.weights.items()}
        v = prompt.tokens.data[3] @ w["cross/wv"] + w["cross/bv"]
        want = f.data + (v @ w["cross/wo"] + w["cross/bo"])
        np.testing.assert_allclose(got, want, atol=1e-6)


class TestPts:
    def test_identity_at_default_init(self, setup):
        # psi_w starts at an all-ones bias with zero fc weights... the weight
        # matrices are Gaussian, so force the exact identity configuration.
        cfg, model, _, prompt, yt, x = setup
        model.weights["pts/psi_w/w"].data[:] = 0
        model.weights["pts/psi_b/w"].data[:] = 0
        f = Tensor(np.random.default_rng(7).standard_normal((2, 3, 8)))
        out = model.pts_stylize(f, prompt, 5).data
        np.testing.assert_allclose(out, f.data, atol=1e-12)

    def test_zero_scale_gives_constant_offset(self, setup):
        cfg, model, _, prompt, yt, x = setup
        model.weights["pts/psi_w/w"].data[:] = 0
        model.weights["pts/psi_w/b"].data[:] = 0
        f = Tensor(np.random.default_rng(8).standard_normal((2, 3, 8)))
        out = model.pts_stylize(f, prompt, 5).data
        np.testing.assert_allclose(out, np.broadcast_to(out[0, 0], out.shape), atol=1e-12)

    def test_timestamps_change_stylization(self, setup):
        _, model, _, prompt, yt, x = setup
        f = Tensor(np.ones((2, 3, 8)))
        a = model.pts_stylize(f, prompt, 1).data
        b = model.pts_stylize(f, prompt, 900).data
        assert not np.allclose(a, b)


class TestStackAndHead:
    def test_stack_preserves_shape(self, setup):
        _, model, _, prompt, yt, x = setup
        f = model.embed_input(yt, x, 5, prompt)
        assert model.spatio_temporal_stack(f).shape == (2, 3, 8)

    def test_zeroed_branches_make_stack_identity(self, setup):
        _, model, _, _, _, _ = setup
        for name, w in model.weights.items():
            if name.endswith(("wo", "bo")) or "/mlp/fc2/" in name:
                w.data[:] = 0
        f = Tensor(np.random.default_rng(9).standard_normal((2, 3, 8)))
        np.testing.assert_allclose(model.spatio_temporal_stack(f).data, f.data, atol=1e-14)

    def test_permute_round_trip_is_identity(self):
        f = Tensor(np.random.default_rng(10).standard_normal((4, 5, 6)))
        np.testing.assert_array_equal(
            f.permute(1, 0, 2).permute(1, 0, 2).data, f.data
        )

    def test_decode_zero_weights(self, setup):
        _, model, _, prompt, yt, x = setup
        model.weights["head/w"].data[:] = 0
        model.weights["head/b"].data[:] = 0
        f = model.embed_input(yt, x, 5, prompt)
        np.testing.assert_array_equal(model.decode_head(f).data, np.zeros((2, 3, 3)))

    def test_decode_identity_like_weights(self, setup):
        _, model, _, _, _, _ = setup
        w = np.zeros((8, 3))
        w[:3, :3] = np.eye(3)
        model.weights["head/w"].data[:] = w
        model.weights["head/b"].data[:] = 0
        f = Tensor(np.random.default_rng(11).standard_normal((2, 3, 8)))
        np.testing.assert_allclose(model.decode_head(f).data, f.data[..., :3], atol=1e-14)


class TestDenoise:
    def test_deterministic_and_shaped(self, setup):
        _, model, _, prompt, yt, x = setup
        a = model.denoise_array(yt, x, 40, prompt)
        b = model.denoise_array(yt, x, 40, prompt)
        assert a.shape == (2, 3, 3)
        np.testing.assert_array_equal(a, b)

    def test_prompt_sensitivity_through_modifiers(self, setup):
        _, model, bank, _, yt, x = setup
        base = model.denoise_array(yt, x, 40, bank.assemble("walk_cycle"))
        for k in range(7):
            bank.modifiers[k].data[0, 0] += 0.5
            perturbed = model.denoise_array(yt, x, 40, bank.assemble("walk_cycle"))
            bank.modifiers[k].data[0, 0] -= 0.5
            assert not np.allclose(base, perturbed), f"modifier {k} has no effect"

    def test_ablated_variants_run(self, setup):
        cfg, _, bank, prompt, yt, x = setup
        for flags in (
            dict(use_fpp=False, use_fpc=False, use_pts=False),
            dict(use_fpc=False),
            dict(use_pts=False),
            dict(use_fpp=False, use_fpc=False),
            dict(use_fpc=False, use_pts=False),  # prompt added at input only
        ):
            model = Denoiser.create(tiny_config(**flags), seed=0)
            p = prompt if model.config.use_fpp else None
            out = model.denoise_array(yt, x, 10, p)
            assert out.shape == (2, 3, 3)
            assert np.isfinite(out).all()

    def test_overfit_one_fixed_pair(self):
        # Fixed (x, y0, t, noisy input): the prediction error must drop
        # below 1e-2 in normalized units after a short optimization run.
        from posediff.training import AdamW, TrainConfig, mse_loss

        cfg = tiny_config()
        model = Denoiser.create(cfg, seed=1)
        bank = PromptBank(PromptSpec(), HashTextEncoder(8, seed=2), seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 2)) * 0.3
        y0 = rng.standard_normal((2, 3, 3)) * 0.3
        yt = y0 + 0.5 * rng.standard_normal((2, 3, 3))
        params = dict(model.trainable())
        params.update(bank.trainable())
        opt = AdamW(params, TrainConfig(weight_decay=0.0, lr0=1e-2, lr_decay=1.0))
        for _ in range(300):
            opt.zero_grad()
            loss = mse_loss(y0, model.denoise(yt, x, 9, bank.assemble("sit")))
            loss.backward()
            opt.step(1e-2)
        final = model.denoise_array(yt, x, 9, bank.assemble("sit"))
        assert np.sqrt(np.mean((final - y0) ** 2)) < 1e-2

    def test_linear_primitive_matches_composition(self, monkeypatch):
        # The tiny preset's network shape, run with the ``linear`` primitive
        # and with the matmul-plus-bias composition it replaced: training
        # (graph recorded) must round identically; inference, which flattens
        # the leading axes into one GEMM, may differ by rounding only.
        from posediff import denoiser

        cfg = DenoiserConfig(n_frames=16, n_joints=17, feature_dim=64, heads=4)
        model = Denoiser.create(cfg, seed=0, dtype=np.float32)
        rng = np.random.default_rng(5)
        for name, w in model.weights.items():
            if name.endswith(("/b", "bq", "bk", "bv", "bo")):
                w.data[:] = 0.1 * rng.standard_normal(w.shape)
        bank = PromptBank(PromptSpec(), HashTextEncoder(64, seed=1), seed=2, dtype=np.float32)
        prompt = bank.assemble("walk_cycle")
        yt = rng.standard_normal((16, 17, 3))
        x = rng.standard_normal((16, 17, 2))
        target = rng.standard_normal((16, 17, 3)).astype(np.float32)

        def run():
            for w in model.weights.values():
                w.grad = None
            out = model.denoise(yt, x, 30, prompt)
            (out * target).sum().backward()
            grads = {k: w.grad for k, w in model.weights.items()}
            return out.data, grads, model.denoise_array(yt, x, 30, prompt)

        out, grads, inferred = run()
        monkeypatch.setattr(
            denoiser, "linear", lambda x, w, b=None: x @ w if b is None else x @ w + b
        )
        ref_out, ref_grads, ref_inferred = run()
        np.testing.assert_array_equal(out, ref_out)
        for name, g in grads.items():
            np.testing.assert_array_equal(g, ref_grads[name], err_msg=name)
        np.testing.assert_allclose(inferred, ref_inferred, rtol=1e-5)

    @pytest.mark.parametrize("threads", ["1", "2", "5"])
    def test_hypothesis_stack_equals_stacked_single_calls(self, monkeypatch, threads):
        from posediff import denoiser

        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 0)
        monkeypatch.setenv("POSEDIFF_THREADS", threads)
        cfg = DenoiserConfig(n_frames=16, n_joints=17, feature_dim=64, heads=4)
        model = Denoiser.create(cfg, seed=0, dtype=np.float32)
        bank = PromptBank(PromptSpec(), HashTextEncoder(64, seed=1), seed=2, dtype=np.float32)
        prompt = bank.assemble("walk_cycle")
        rng = np.random.default_rng(6)
        stack = rng.standard_normal((3, 16, 17, 3)).astype(np.float32)
        x = rng.standard_normal((16, 17, 2)).astype(np.float32)
        want = np.stack([model.denoise_array(y, x, 70, prompt) for y in stack])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to surface shared state
        try:
            got = model.denoise_array(stack, x, 70, prompt)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(got, want)

    @staticmethod
    def record_pools(monkeypatch):
        """The keyword arguments of every thread pool the denoiser opens from now."""
        from posediff import denoiser

        pools = []

        class Pool(denoiser.ThreadPoolExecutor):
            def __init__(self, **kw):
                pools.append(kw)
                super().__init__(**kw)

        monkeypatch.setattr(denoiser, "ThreadPoolExecutor", Pool)
        return pools

    @pytest.mark.parametrize("gate, pooled", [(48, True), (49, False)])
    def test_size_gate_picks_the_pool(self, setup, monkeypatch, gate, pooled):
        # tiny_config's forward is 2 frames x 3 joints x 8 features = 48
        from posediff import denoiser

        _, model, _, prompt, yt, x = setup
        pools = self.record_pools(monkeypatch)
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", gate)
        monkeypatch.setenv("POSEDIFF_THREADS", "2")
        model.denoise_array(np.stack([yt] * 3), x, 40, prompt)
        assert pools == ([{"max_workers": 2}] if pooled else [])

    @pytest.mark.parametrize("threads, max_workers", [("3", 3), ("8", 4)])
    def test_library_call_pools_the_thread_budget(self, setup, monkeypatch, threads,
                                                  max_workers):
        from posediff import denoiser

        _, model, _, prompt, yt, x = setup
        pools = self.record_pools(monkeypatch)
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 48)  # at the gate
        monkeypatch.setenv("POSEDIFF_THREADS", threads)
        model.denoise_array(np.stack([yt] * 4), x, 40, prompt)
        assert pools == [{"max_workers": max_workers}]

    @pytest.mark.parametrize("threads", ["0", "-3", "many"])
    def test_bad_thread_budget_raises_below_the_gate(self, setup, monkeypatch, threads):
        from posediff import denoiser

        _, model, _, prompt, yt, x = setup
        assert 2 * 3 * 8 < denoiser.PARALLEL_MIN_ELEMENTS
        monkeypatch.setenv("POSEDIFF_THREADS", threads)
        with pytest.raises(ConfigError, match="POSEDIFF_THREADS"):
            model.denoise_array(np.stack([yt] * 3), x, 40, prompt)

    def test_hypothesis_stack_while_recording_raises(self, setup):
        _, model, _, prompt, yt, x = setup
        with pytest.raises(ShapeError, match="inference only"):
            model.denoise(np.stack([yt, yt]), x, 40, prompt)

    def test_float32_weights_give_float32(self):
        cfg = tiny_config()
        model = Denoiser.create(cfg, seed=0, dtype=np.float32)
        bank = PromptBank(PromptSpec(), HashTextEncoder(8, seed=1), seed=2, dtype=np.float32)
        out = model.denoise_array(
            np.zeros((2, 3, 3)), np.zeros((2, 3, 2)), 5, bank.assemble()
        )
        assert out.dtype == np.float32
