import contextlib
import functools
import itertools
import os
import sys
import threading

import numpy as np
import pytest

from posediff.autodiff import Tensor, linear, no_grad
from posediff.denoiser import (
    Denoiser,
    DenoiserConfig,
    _residual,
    hypothesis_pool,
    init_denoiser_weights,
    sinusoid_embedding,
    weight_shapes,
)
from posediff.exceptions import ShapeError
from posediff.prompts import HashTextEncoder, PromptBank, PromptSpec

from test_prompts import stub_encoder


def fixed_text_bank(encode):
    """8-dim prompt bank whose encoder maps each prompt text through ``encode``."""
    return PromptBank(PromptSpec(), stub_encoder(8, encode), seed=2)


def tiny_config(**kw):
    base = dict(n_frames=2, n_joints=3, feature_dim=8, heads=2)
    base.update(kw)
    return DenoiserConfig(**base)


def record_pools(monkeypatch):
    """The ``max_workers`` of every thread pool the denoiser opens from now."""
    from posediff import denoiser

    pools = []

    class Pool(denoiser.ThreadPoolExecutor):
        def __init__(self, max_workers, **kw):
            pools.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(denoiser, "ThreadPoolExecutor", Pool)
    return pools


def pin_cpus(monkeypatch, cpus):
    """Give ``thread_budget`` ``cpus`` threads as the benchmark does: that
    many usable CPUs, each BLAS call pinned to one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cpus))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    for var in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)


def spy_forwards(monkeypatch, meet=0):
    """From now on, record each new arena buffer as (thread, step, forward).

    A step is one ``Denoiser.denoise`` call, counted from 1 on the calling
    thread; a thread's forwards (``Denoiser._forward`` calls) count from 1,
    and the returned ``forwards`` maps each thread to how many it ran. With
    ``meet``, that many other threads wait for each other in step 1, so
    each of them runs a forward there.
    """
    from posediff import autodiff

    caller, barrier = threading.current_thread(), threading.Barrier(meet or 1)
    steps, forwards, allocations = [0], {}, []
    empty, denoise, forward = np.empty, Denoiser.denoise, Denoiser._forward

    def counted_denoise(self, *args, **kw):
        steps[0] += 1
        return denoise(self, *args, **kw)

    def counted_forward(self, *args):
        me = threading.current_thread()
        forwards[me] = forwards.get(me, 0) + 1
        if meet and me is not caller and steps[0] == 1:
            barrier.wait(timeout=60)
        return forward(self, *args)

    def counted_empty(*args, **kw):
        if sys._getframe(1).f_code is autodiff._buffer.__code__:
            me = threading.current_thread()
            allocations.append((me, steps[0], forwards.get(me, 0)))
        return empty(*args, **kw)

    monkeypatch.setattr(Denoiser, "denoise", counted_denoise)
    monkeypatch.setattr(Denoiser, "_forward", counted_forward)
    monkeypatch.setattr(np, "empty", counted_empty)
    return allocations, forwards


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

    @pytest.mark.parametrize("axis", ["spatial", "temporal"])
    def test_no_grad_block_matches_recorded_block(self, axis):
        # both modes attend over the same layout: a temporal block's joint-major (J, N, D) view
        model = Denoiser.create(tiny_config(n_frames=5, feature_dim=12, heads=2), seed=0)
        f = Tensor(np.random.default_rng(2).standard_normal((5, 3, 12)))
        sinks = [], []
        want = model.mhsa_block(f, axis, "spatial0", attn_sink=sinks[0])
        with no_grad():
            got = model.mhsa_block(f, axis, "spatial0", attn_sink=sinks[1])
        assert want.requires_grad and not got.requires_grad
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=1e-14)
        assert sinks[1][0].shape == sinks[0][0].shape
        np.testing.assert_allclose(sinks[1][0], sinks[0][0], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("recording", [True, False])
    def test_residual_is_one_node_in_the_projection_buffer(self, recording):
        rng = np.random.default_rng(3)
        x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((2, 3, 4), (4, 4), 4))
        with contextlib.nullcontext() if recording else no_grad():
            y = linear(x, w, b)
            want = x.data + y.data
            out = _residual(x, y)
        assert np.shares_memory(out.data, y.data)
        np.testing.assert_array_equal(out.data, want)
        assert out.requires_grad == recording
        if recording:
            assert len(out._parents) == 2 and out._parents[0] is x and out._parents[1] is y
            g = rng.standard_normal(want.shape)
            assert all(pg is g for pg in out._backward(g))

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
        # The tiny preset's network shape, under every ablation flag, run with
        # the ``linear`` primitive and with the matmul-plus-bias composition it
        # replaced: training (graph recorded) must round identically;
        # inference, which flattens the leading axes into one GEMM and takes
        # the no-graph layer norm, GELU and attention, may differ from either
        # by rounding only.
        from posediff import denoiser

        primitive = denoiser.linear
        rng = np.random.default_rng(5)
        bank = PromptBank(PromptSpec(), HashTextEncoder(64, seed=1), seed=2, dtype=np.float32)
        for flags in itertools.product([True, False], repeat=3):
            cfg = DenoiserConfig(n_frames=16, n_joints=17, feature_dim=64, heads=4,
                                 **dict(zip(("use_fpp", "use_fpc", "use_pts"), flags)))
            model = Denoiser.create(cfg, seed=0, dtype=np.float32)
            for name, w in model.weights.items():
                if name.endswith(("/b", "bq", "bk", "bv", "bo")):
                    w.data[:] = 0.1 * rng.standard_normal(w.shape)
            prompt = bank.assemble("walk_cycle") if cfg.use_fpp else None
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

            monkeypatch.setattr(denoiser, "linear", primitive)
            out, grads, inferred = run()
            monkeypatch.setattr(
                denoiser, "linear", lambda x, w, b=None: x @ w if b is None else x @ w + b
            )
            ref_out, ref_grads, ref_inferred = run()
            np.testing.assert_array_equal(out, ref_out, err_msg=str(flags))
            for name, g in grads.items():
                np.testing.assert_array_equal(g, ref_grads[name], err_msg=f"{flags} {name}")
            # entries near zero get an absolute floor of 1e-5 of the output's scale
            tol = {"rtol": 1e-5, "atol": 1e-5 * np.abs(out).max(), "err_msg": str(flags)}
            np.testing.assert_allclose(inferred, out, **tol)
            np.testing.assert_allclose(ref_inferred, out, **tol)
            if all(flags):
                np.testing.assert_allclose(inferred, ref_inferred, rtol=1e-5)

    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_hypothesis_stack_equals_stacked_single_calls(self, monkeypatch, threads):
        from posediff import denoiser

        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 0)
        pin_cpus(monkeypatch, threads)
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
            with hypothesis_pool(len(stack)) as pool:
                got = model.denoise_array(stack, x, 70, prompt, pool=pool)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hypothesis_shares_equal_single_calls(self, monkeypatch, dtype):
        # The tiny preset's forward, 40 hypotheses on 2 threads, gated so
        # that each thread runs its share of 20 as one forward. Its GEMMs
        # then have 20x the rows of a single forward's; one GEMM over all of
        # them rounds differently, so each must stay per hypothesis.
        from posediff import denoiser

        cfg = DenoiserConfig(n_frames=16, n_joints=17, feature_dim=64, heads=4)
        per_forward = 16 * 17 * 64
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", per_forward + 1)
        pin_cpus(monkeypatch, 2)
        model = Denoiser.create(cfg, seed=0, dtype=dtype)
        rng = np.random.default_rng(7)
        for w in model.weights.values():
            w.data += (0.05 * rng.standard_normal(w.shape)).astype(dtype)
        bank = PromptBank(PromptSpec(), HashTextEncoder(64, seed=1), seed=2, dtype=dtype)
        prompt = bank.assemble("walk_cycle")
        stack = rng.standard_normal((40, 16, 17, 3)).astype(dtype)
        x = rng.standard_normal((16, 17, 2)).astype(dtype)
        want = np.stack([model.denoise_array(y, x, 70, prompt) for y in stack])
        shares = []
        forward = Denoiser._forward
        monkeypatch.setattr(Denoiser, "_forward",
                            lambda self, yt, *a: shares.append(len(yt)) or forward(self, yt, *a))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to surface shared state
        try:
            with hypothesis_pool(len(stack)) as pool:
                got = model.denoise_array(stack, x, 70, prompt, pool=pool)
        finally:
            sys.setswitchinterval(interval)
        assert shares == [20, 20]
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "gate, threads, sizes, pooled",
        [(48, 2, [1, 1, 1], True),  # a forward passes the gate: one per task
         (96, 2, [2, 1], True),  # a share of 2 passes it: one forward per share
         (97, 2, [3], False),  # neither: the stack as one forward on the calling thread
         (48, 1, [1, 1, 1], False),  # a forward passes it on one thread: one per task
         (97, 1, [3], False)],  # one thread below it: the stack as one forward
    )
    def test_task_rule_regimes(self, setup, monkeypatch, gate, threads, sizes, pooled):
        # tiny_config's forward is 2 frames x 3 joints x 8 features = 48
        from posediff import denoiser

        _, model, _, prompt, yt, x = setup
        caller = threading.get_ident()
        calls = []
        forward = Denoiser._forward

        def spy(self, task, *args):
            lead = task.shape[0] if task.ndim == 4 else 1
            calls.append((lead, threading.get_ident() != caller))
            return forward(self, task, *args)

        monkeypatch.setattr(Denoiser, "_forward", spy)
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", gate)
        pin_cpus(monkeypatch, threads)
        stack = yt + np.arange(3)[:, None, None, None]
        with hypothesis_pool(len(stack)) as pool:
            got = model.denoise_array(stack, x, 40, prompt, pool=pool)
        assert sorted(size for size, _ in calls) == sorted(sizes)
        assert all(off_caller == pooled for _, off_caller in calls)
        want = np.stack([model.denoise_array(y, x, 40, prompt) for y in stack])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("gate, pooled", [(48, True), (96, True), (97, False)])
    def test_size_gate_picks_the_pool(self, setup, monkeypatch, gate, pooled):
        # the gate judges a thread's share: tiny_config's forward is 2 frames
        # x 3 joints x 8 features = 48, and 3 hypotheses on 2 threads make
        # shares of at most 2, so 96; below it the pool starts no worker
        from posediff import denoiser

        _, model, _, prompt, yt, x = setup
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", gate)
        pin_cpus(monkeypatch, 2)
        with hypothesis_pool(3) as pool:
            model.denoise_array(np.stack([yt] * 3), x, 40, prompt, pool=pool)
            assert bool(pool._threads) == pooled

    @pytest.mark.parametrize("threads, max_workers", [(3, 3), (8, 4)])
    def test_library_call_pools_the_thread_budget(self, setup, monkeypatch, threads,
                                                  max_workers):
        # a library caller's hypothesis_pool(H) holds the budget, capped at H
        from posediff import denoiser

        _, model, _, prompt, yt, x = setup
        pools = record_pools(monkeypatch)
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 48)  # at the gate
        pin_cpus(monkeypatch, threads)
        _, forwards = spy_forwards(monkeypatch)
        with hypothesis_pool(4) as pool:
            model.denoise_array(np.stack([yt] * 4), x, 40, prompt, pool=pool)
        assert pools == [max_workers]
        assert threading.current_thread() not in forwards

    def test_library_call_pool_keeps_its_arenas_then_joins(self, setup, monkeypatch):
        # 4 hypotheses, one per task, on 2 workers: one worker runs 2 or more
        from posediff import autodiff, denoiser

        _, model, _, prompt, yt, x = setup
        stack = yt + np.arange(4)[:, None, None, None]
        want = np.stack([model.denoise_array(y, x, 40, prompt) for y in stack])
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 48)
        pin_cpus(monkeypatch, 2)
        before = set(threading.enumerate())
        pools = record_pools(monkeypatch)
        allocations, forwards = spy_forwards(monkeypatch)
        with hypothesis_pool(len(stack)) as pool:
            got = model.denoise_array(stack, x, 40, prompt, pool=pool)
        workers = set(forwards) - {threading.current_thread()}
        assert pools == [2] and len(workers) <= 2 and max(forwards[w] for w in workers) >= 2
        # a worker's arena holds all one forward needs after its first
        assert {nth for thread, _, nth in allocations if thread in workers} == {1}
        assert set(threading.enumerate()) == before
        assert getattr(autodiff._state, "arena", None) is None
        np.testing.assert_array_equal(got, want)

    def test_pool_less_stack_runs_on_the_calling_thread(self, setup, monkeypatch):
        # a budget of 2 and a gate every forward passes: a pool would take
        # the stack, but a call without one starts no thread
        from posediff import denoiser

        _, model, _, prompt, yt, x = setup
        stack = yt + np.arange(3)[:, None, None, None]
        want = np.stack([model.denoise_array(y, x, 40, prompt) for y in stack])
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 0)
        pin_cpus(monkeypatch, 2)
        before = set(threading.enumerate())
        pools, during = record_pools(monkeypatch), []
        forward = Denoiser._forward
        monkeypatch.setattr(Denoiser, "_forward", lambda self, *args: (
            during.append(set(threading.enumerate())) or forward(self, *args)))
        got = model.denoise_array(stack, x, 40, prompt)
        assert pools == [] and during == [before] * 3
        assert set(threading.enumerate()) == before
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("gate", [0, 97])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_empty_stack_runs_no_forward(self, setup, monkeypatch, gate, pooled):
        from posediff import denoiser

        _, model, _, prompt, _, x = setup
        monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", gate)
        monkeypatch.setattr(Denoiser, "_forward",
                            lambda self, *args: pytest.fail("an empty stack ran a forward"))
        pin_cpus(monkeypatch, 2)
        with hypothesis_pool(2) as pool:
            got = model.denoise_array(np.empty((0, 2, 3, 3), np.float32), x, 40, prompt,
                                      pool=pool if pooled else None)
        assert got.shape == (0, 2, 3, 3) and got.dtype == model.dtype

    def test_hypothesis_stack_while_recording_raises(self, setup):
        _, model, _, prompt, yt, x = setup
        with pytest.raises(ShapeError, match="inference only"):
            model.denoise(np.stack([yt, yt]), x, 40, prompt)

    def test_timestamp_embedded_once_per_call_without_graph(self, setup, monkeypatch):
        _, model, _, prompt, yt, x = setup
        calls = []
        original = Denoiser.timestamp_embed
        monkeypatch.setattr(Denoiser, "timestamp_embed",
                            lambda self, t: calls.append(t) or original(self, t))
        recorded = model.denoise(yt, x, 40, prompt).data
        assert calls == [40, 40]  # embed_input and pts_stylize, each its own
        stacked = model.denoise_array(np.stack([yt] * 3), x, 40, prompt)
        assert calls == [40, 40, 40]
        np.testing.assert_allclose(stacked, np.stack([recorded] * 3), rtol=1e-12, atol=1e-14)

    def test_float32_weights_give_float32(self):
        cfg = tiny_config()
        model = Denoiser.create(cfg, seed=0, dtype=np.float32)
        bank = PromptBank(PromptSpec(), HashTextEncoder(8, seed=1), seed=2, dtype=np.float32)
        out = model.denoise_array(
            np.zeros((2, 3, 3)), np.zeros((2, 3, 2)), 5, bank.assemble()
        )
        assert out.dtype == np.float32


@functools.cache
def perturbed_tiny_preset(dtype):
    """The tiny preset's model (16x17x64, 4 heads), weights moved off their
    init, and its prompt; shared by the tests, which only read them."""
    cfg = DenoiserConfig(n_frames=16, n_joints=17, feature_dim=64, heads=4)
    model = Denoiser.create(cfg, seed=0, dtype=dtype)
    rng = np.random.default_rng(7)
    for w in model.weights.values():
        w.data += (0.05 * rng.standard_normal(w.shape)).astype(dtype)
    bank = PromptBank(PromptSpec(), HashTextEncoder(64, seed=1), seed=2, dtype=dtype)
    return model, bank.assemble("walk_cycle")


class TestBufferArena:
    @pytest.mark.parametrize("stacked", [True, False], ids=["stack", "sequence"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_arena_output_equals_fresh_buffers(self, monkeypatch, dtype, threads, stacked):
        from posediff import autodiff

        pin_cpus(monkeypatch, threads)
        model, prompt = perturbed_tiny_preset(dtype)
        rng = np.random.default_rng(8)
        yt = rng.standard_normal((4, 16, 17, 3) if stacked else (16, 17, 3)).astype(dtype)
        x = rng.standard_normal((16, 17, 2)).astype(dtype)
        with hypothesis_pool(4) as pool:
            got = model.denoise_array(yt, x, 70, prompt, pool=pool)
        with monkeypatch.context() as m:
            m.setattr(autodiff, "_buffer", lambda shape, dtype: np.empty(shape, dtype))
            want = model.denoise_array(yt, x, 70, prompt)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    def test_kept_result_survives_a_second_call(self):
        # a single sequence's result is the head's arena buffer itself; the
        # outer block keeps the arena alive across both calls
        model, prompt = perturbed_tiny_preset(np.float32)
        rng = np.random.default_rng(8)
        yt = rng.standard_normal((2, 16, 17, 3)).astype(np.float32)
        x = rng.standard_normal((2, 16, 17, 2)).astype(np.float32)
        with no_grad():
            kept = model.denoise_array(yt[0], x[0], 70, prompt)
            snapshot = kept.copy()
            other = model.denoise_array(yt[1], x[1], 30, prompt)
        assert not np.shares_memory(kept, other)
        np.testing.assert_array_equal(kept, snapshot)

    def test_library_call_keeps_no_arena(self):
        from posediff import autodiff

        model, prompt = perturbed_tiny_preset(np.float32)
        rng = np.random.default_rng(8)
        yt = rng.standard_normal((16, 17, 3)).astype(np.float32)
        x = rng.standard_normal((16, 17, 2)).astype(np.float32)
        model.denoise_array(yt, x, 70, prompt)
        assert getattr(autodiff._state, "arena", None) is None

    def test_attention_sinks_hold_their_own_blocks(self):
        model, prompt = perturbed_tiny_preset(np.float64)
        rng = np.random.default_rng(8)
        f = Tensor(rng.standard_normal((16, 17, 64)))
        sink, own = [], []
        with no_grad():
            for block in ("spatial0", "st0/spatial", "st1/spatial"):
                f = model.mhsa_block(f, "spatial", block, attn_sink=sink)
                own.append(sink[-1].copy())
        for i, j in itertools.combinations(range(3), 2):
            assert not np.shares_memory(sink[i], sink[j])
        for got, want in zip(sink, own):
            np.testing.assert_array_equal(got, want)

    def test_repeated_forward_allocates_no_new_buffer(self, monkeypatch):
        from posediff import autodiff

        model, prompt = perturbed_tiny_preset(np.float32)
        rng = np.random.default_rng(8)
        yt = rng.standard_normal((16, 17, 3)).astype(np.float32)
        x = rng.standard_normal((16, 17, 2)).astype(np.float32)
        allocations = []
        empty = np.empty

        def counted(*args, **kw):
            if sys._getframe(1).f_code is autodiff._buffer.__code__:
                allocations.append(args[0])
            return empty(*args, **kw)

        with monkeypatch.context() as m:
            m.setattr(autodiff, "_buffer", lambda shape, dtype: np.empty(shape, dtype))
            want = model.denoise_array(yt, x, 70, prompt)
        monkeypatch.setattr(np, "empty", counted)
        with no_grad():
            first = model.denoise_array(yt, x, 70, prompt).copy()
            assert allocations
            allocations.clear()
            second = model.denoise_array(yt, x, 70, prompt)
        assert allocations == []
        np.testing.assert_array_equal(first, want)
        np.testing.assert_array_equal(second, want)
