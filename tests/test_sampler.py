import numpy as np
import pytest

from posediff.diffusion import build_schedule, ddim_step, timestamp_for_iteration
from posediff.exceptions import ConfigError, NumericsError
from posediff.sampler import (
    CameraIntrinsics,
    HypothesisSet,
    ddim_loop,
    default_camera,
    estimate_single,
    jpma_aggregate,
    reproject,
    sample_initial_hypotheses,
)
from posediff.rng import gaussian

CAM = CameraIntrinsics(fx=2.0, fy=2.0, cx=0.0, cy=0.0)


def brute_force_jpma(hyps, x, cam, per_frame=False):
    """Independent oracle: explicit python loops over every (h, j) pair."""
    H, N, J, _ = hyps.shape
    proj = np.stack([reproject(hyps[h], cam) for h in range(H)])
    out = np.zeros((N, J, 3))
    if per_frame:
        sel = np.zeros((N, J), dtype=int)
        for n in range(N):
            for j in range(J):
                errs = [np.linalg.norm(proj[h, n, j] - x[n, j]) for h in range(H)]
                best = min(range(H), key=lambda h: (errs[h], h))
                sel[n, j] = best
                out[n, j] = hyps[best, n, j]
        return out, sel
    sel = np.zeros(J, dtype=int)
    for j in range(J):
        errs = [
            sum(np.linalg.norm(proj[h, n, j] - x[n, j]) for n in range(N))
            for h in range(H)
        ]
        best = min(range(H), key=lambda h: (errs[h], h))
        sel[j] = best
        out[:, j] = hyps[best, :, j]
    return out, sel


def random_positive_depth_hyps(rng, H, N, J):
    hyps = rng.standard_normal((H, N, J, 3))
    hyps[..., 2] = 2.0 + np.abs(hyps[..., 2])
    return hyps


class TestSampleInitialHypotheses:
    def test_single(self):
        hyp = sample_initial_hypotheses(1, 4, 5, seed=0)
        assert hyp.hypotheses.shape == (1, 4, 5, 3)

    def test_determinism(self):
        a = sample_initial_hypotheses(3, 4, 5, seed=9)
        b = sample_initial_hypotheses(3, 4, 5, seed=9)
        assert np.array_equal(a.hypotheses, b.hypotheses)

    def test_hypotheses_differ(self):
        hyp = sample_initial_hypotheses(2, 4, 5, seed=9)
        assert not np.array_equal(hyp.hypotheses[0], hyp.hypotheses[1])

    def test_unit_variance(self):
        hyp = sample_initial_hypotheses(10_000, 1, 1, seed=3)
        flat = hyp.hypotheses.reshape(10_000, 3)
        se = np.sqrt(2.0 / (10_000 - 1))
        assert np.all(np.abs(flat.var(axis=0, ddof=1) - 1.0) < 3 * se)


class TestDdimLoop:
    def test_m1_single_denoise_at_T(self):
        sched = build_schedule(100)
        calls = []

        def fn(y, x, t):
            calls.append(t)
            return y * 0.5

        hyp = sample_initial_hypotheses(1, 2, 3, seed=0)
        out = ddim_loop(np.zeros((2, 3, 2)), hyp, 1, fn, sched, seed=0)
        assert calls == [100]
        np.testing.assert_array_equal(out.hypotheses[0], hyp.hypotheses[0] * 0.5)

    def test_call_count_h20_m10(self):
        sched = build_schedule(1000)
        calls = []

        def fn(y, x, t):
            calls.append((t, y.shape))
            return np.zeros_like(y)

        hyp = sample_initial_hypotheses(20, 2, 3, seed=0)
        ddim_loop(np.zeros((2, 3, 2)), hyp, 10, fn, sched, seed=0)
        # one call per step on the whole stack, at T, T(1-1/M), ..., T/M
        want = [1000, 900, 800, 700, 600, 500, 400, 300, 200, 100]
        assert calls == [(t, (20, 2, 3, 3)) for t in want]

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_timestamp_collisions_reuse_the_prediction(self, deterministic):
        # M > T: iterations that round to no lower timestamp take no step
        T, M, H = 10, 25, 3
        sched = build_schedule(T)
        x = np.zeros((2, 3, 2))
        hyp = sample_initial_hypotheses(H, 2, 3, seed=2)

        def oracle(y, x, t):
            return 0.9 * y + 0.01 * t

        def denoise_every_iteration():  # the loop that called the denoiser M times
            y, t_cur = hyp.hypotheses, T
            for m in range(1, M + 1):
                y0_hat = oracle(y, x, t_cur)
                if m == M:
                    break
                t_next = timestamp_for_iteration(m, M, T)
                if t_next >= t_cur:
                    continue
                noise = None if deterministic else np.stack(
                    [gaussian(y.shape[1:], 7, "ddim", h, m) for h in range(H)]
                )
                y = ddim_step(y, y0_hat, t_cur, t_next, sched, noise)
                t_cur = t_next
            return y0_hat

        calls = []
        out = ddim_loop(x, hyp, M, lambda y, x, t: calls.append(t) or oracle(y, x, t),
                        sched, deterministic=deterministic, seed=7)
        visited = {T} | {timestamp_for_iteration(m, M, T) for m in range(1, M)}
        assert calls == sorted(visited, reverse=True)  # 10, 9, ..., 0: 11 calls, not 25
        np.testing.assert_array_equal(out.hypotheses, denoise_every_iteration())

    def test_oracle_returns_fixed_point(self):
        sched = build_schedule(1000)
        rng = np.random.default_rng(4)
        y_star = rng.standard_normal((3, 4, 3))
        hyp = sample_initial_hypotheses(4, 3, 4, seed=1)
        out = ddim_loop(
            np.zeros((3, 4, 2)), hyp, 10, lambda y, x, t: np.stack([y_star] * len(y)), sched,
            seed=0,
        )
        for h in range(4):
            np.testing.assert_allclose(out.hypotheses[h], y_star, atol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_denoise_raises_at_m1(self, bad):
        hyp = sample_initial_hypotheses(2, 2, 3, seed=0)
        with pytest.raises(NumericsError, match="non-finite"):
            ddim_loop(np.zeros((2, 3, 2)), hyp, 1, lambda y, x, t: np.full_like(y, bad),
                      build_schedule(10), seed=0)

    def test_stochastic_reproducible(self):
        sched = build_schedule(50)
        fn = lambda y, x, t: y * 0.9
        hyp = sample_initial_hypotheses(2, 2, 2, seed=5)
        x = np.zeros((2, 2, 2))
        a = ddim_loop(x, hyp, 5, fn, sched, deterministic=False, seed=5)
        b = ddim_loop(x, hyp, 5, fn, sched, deterministic=False, seed=5)
        c = ddim_loop(x, hyp, 5, fn, sched, deterministic=False, seed=6)
        assert np.array_equal(a.hypotheses, b.hypotheses)
        assert not np.array_equal(a.hypotheses, c.hypotheses)


class TestReproject:
    def test_on_axis_point(self):
        cam = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        out = reproject(np.array([[[0.0, 0.0, 1.0]]]), cam)
        np.testing.assert_array_equal(out, [[[0.0, 0.0]]])

    def test_scalar_evaluation(self):
        out = reproject(np.array([[[1.0, 2.0, 2.0]]]), CAM)
        np.testing.assert_allclose(out, [[[1.0, 2.0]]])

    def test_projective_scale_invariance(self):
        rng = np.random.default_rng(0)
        pts = random_positive_depth_hyps(rng, 1, 4, 5)[0]
        np.testing.assert_allclose(reproject(2 * pts, CAM), reproject(pts, CAM), rtol=1e-12)

    def test_degenerate_depth_names_frame_and_joint(self):
        pts = np.ones((2, 3, 3))
        pts[1, 2, 2] = 0.0
        with pytest.raises(NumericsError, match="frame 1, joint 2"):
            reproject(pts, CAM)

    def test_degenerate_depth_in_a_stack_names_its_hypothesis(self):
        # the first offending index is reported with its own depth, not the minimum
        pts = np.ones((2, 4, 3, 3))
        pts[0, 1, 2, 2] = 0.0
        pts[1, 3, 0, 2] = -50.0
        with pytest.raises(NumericsError) as err:
            reproject(pts, CAM)
        assert str(err.value) == "degenerate depth 0 at hypothesis 0, frame 1, joint 2"

    def test_default_camera(self):
        cam = default_camera()
        assert cam.fx == cam.fy == 1000.0


class TestJpma:
    def test_single_hypothesis_identity(self):
        rng = np.random.default_rng(1)
        hyps = random_positive_depth_hyps(rng, 1, 3, 4)
        x = rng.standard_normal((3, 4, 2))
        out, sel = jpma_aggregate(HypothesisSet(hyps), x, CAM)
        np.testing.assert_array_equal(out, hyps[0])
        np.testing.assert_array_equal(sel, np.zeros(4, dtype=int))

    def test_constructed_cross_win(self):
        # Hypothesis 0 wins joint 0, hypothesis 1 wins joint 1.
        gt3d = np.array([[[0.0, 0.0, 2.0], [1.0, 1.0, 2.0]]])
        x = reproject(gt3d, CAM)  # (1, 2, 2)
        h0 = gt3d[0].copy()
        h1 = gt3d[0].copy()
        h0[1] += [5.0, 0, 0]  # ruin joint 1 in hypothesis 0
        h1[0] += [5.0, 0, 0]  # ruin joint 0 in hypothesis 1
        hyps = np.stack([h0[None], h1[None]])
        out, sel = jpma_aggregate(HypothesisSet(hyps), x, CAM)
        np.testing.assert_array_equal(sel, [0, 1])
        np.testing.assert_array_equal(out[0, 0], h0[0])
        np.testing.assert_array_equal(out[0, 1], h1[1])

    def test_identical_hypotheses(self):
        rng = np.random.default_rng(2)
        one = random_positive_depth_hyps(rng, 1, 2, 3)[0]
        hyps = np.stack([one, one, one])
        x = rng.standard_normal((2, 3, 2))
        out, sel = jpma_aggregate(HypothesisSet(hyps), x, CAM)
        np.testing.assert_array_equal(out, one)
        np.testing.assert_array_equal(sel, np.zeros(3, dtype=int))  # tie-break low

    @pytest.mark.parametrize("per_frame", [False, True])
    def test_matches_brute_force(self, per_frame):
        rng = np.random.default_rng(3)
        for trial in range(100):
            H = int(rng.integers(1, 6))
            J = int(rng.integers(1, 5))
            N = int(rng.integers(1, 4))
            hyps = random_positive_depth_hyps(rng, H, N, J)
            x = rng.standard_normal((N, J, 2))
            out, sel = jpma_aggregate(
                HypothesisSet(hyps), x, CAM, per_frame=per_frame
            )
            want_out, want_sel = brute_force_jpma(hyps, x, CAM, per_frame)
            np.testing.assert_array_equal(sel, want_sel)
            np.testing.assert_array_equal(out, want_out)

    def test_dominance_over_every_hypothesis(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            hyps = random_positive_depth_hyps(rng, 5, 3, 4)
            x = rng.standard_normal((3, 4, 2))
            out, _ = jpma_aggregate(HypothesisSet(hyps), x, CAM)
            agg_err = np.linalg.norm(reproject(out, CAM) - x, axis=-1).sum(axis=0)
            for h in range(5):
                h_err = np.linalg.norm(reproject(hyps[h], CAM) - x, axis=-1).sum(axis=0)
                assert np.all(agg_err <= h_err + 1e-12)

    def test_permutation_invariant_without_ties(self):
        rng = np.random.default_rng(5)
        hyps = random_positive_depth_hyps(rng, 4, 2, 3)
        x = rng.standard_normal((2, 3, 2))
        out, _ = jpma_aggregate(HypothesisSet(hyps), x, CAM)
        perm = [2, 0, 3, 1]
        out_p, _ = jpma_aggregate(HypothesisSet(hyps[perm]), x, CAM)
        np.testing.assert_array_equal(out, out_p)


class FakeDenoiser:
    """Pulls hypotheses toward a target, modulated by the initial noise."""

    def __init__(self, target):
        self.target = target
        self.calls = 0

    def __call__(self, y, x, t):
        self.calls += 1
        return self.target + 0.05 * y


class TestEstimateSingle:
    def make_inputs(self, seed=0):
        rng = np.random.default_rng(seed)
        target = random_positive_depth_hyps(rng, 1, 3, 4)[0]
        x = reproject(target, CAM)
        return target, x

    def test_h1_m1_is_one_denoise_call(self):
        target, x = self.make_inputs()
        sched = build_schedule(100)
        fn = FakeDenoiser(target)
        estimate_single(x, CAM, fn, sched, H=1, M=1, seed=0)
        assert fn.calls == 1

    def test_seed_determinism(self):
        target, x = self.make_inputs()
        sched = build_schedule(100)
        a_poses, a_index = estimate_single(x, CAM, FakeDenoiser(target), sched, H=4, M=3, seed=7)
        b_poses, b_index = estimate_single(x, CAM, FakeDenoiser(target), sched, H=4, M=3, seed=7)
        assert np.array_equal(a_poses, b_poses)
        assert np.array_equal(a_index, b_index)

    def test_aggregated_error_dominates(self):
        target, x = self.make_inputs(3)
        sched = build_schedule(100)
        poses, _ = estimate_single(x, CAM, FakeDenoiser(target), sched, H=5, M=2, seed=1)
        # the refined stack estimate_single aggregates, rebuilt from the same seed
        hyp = sample_initial_hypotheses(5, *x.shape[:2], seed=1)
        refined = ddim_loop(x, hyp, 2, FakeDenoiser(target), sched, seed=1).hypotheses
        assert np.array_equal(poses, jpma_aggregate(HypothesisSet(refined), x, CAM)[0])
        agg = np.linalg.norm(reproject(poses, CAM) - x, axis=-1).sum(axis=0)
        for h in range(5):
            err = np.linalg.norm(reproject(refined[h], CAM) - x, axis=-1).sum(axis=0)
            assert np.all(agg <= err + 1e-12)

    def test_to_camera_transform_applies(self):
        target, x = self.make_inputs(4)
        sched = build_schedule(100)
        shift = np.array([0.0, 0.0, 10.0])
        poses, _ = estimate_single(
            x, CAM, FakeDenoiser(target - shift), sched, H=2, M=1, seed=0,
            to_camera=lambda y: y + shift,
        )
        # Without the shift the hypotheses sit at depth ~ -8 and reprojection
        # would fail; with it they land near the positive-depth target.
        assert poses[..., 2].min() > 0
        assert np.abs(poses - target).max() < 0.5
