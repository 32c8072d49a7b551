import math

import numpy as np
import pytest

from posediff.diffusion import (
    NoiseSchedule,
    build_schedule,
    ddim_epsilon,
    ddim_sigma,
    ddim_step,
    forward_diffuse,
    timestamp_for_iteration,
)
from posediff.exceptions import ScheduleError, ShapeError
from posediff.rng import gaussian


def make_linear(T, b0, b1):
    """Schedule whose betas run evenly from b0 to b1 (for hand examples)."""
    beta = np.linspace(b0, b1, T, dtype=np.float64)
    return NoiseSchedule(T=T, alpha_bar=np.concatenate([[1.0], np.cumprod(1.0 - beta)]))


class TestBuildSchedule:
    def test_single_step_product(self):
        s = make_linear(1, 0.1, 0.1)
        np.testing.assert_allclose(s.alpha_bar, [1.0, 0.9])

    def test_two_step_hand_product(self):
        s = make_linear(2, 0.1, 0.1)
        np.testing.assert_allclose(s.alpha_bar, [1.0, 0.9, 0.81])

    def test_invariants(self):
        s = build_schedule(1000)
        assert s.alpha_bar[0] == 1.0
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all((s.alpha_bar > 0) & (s.alpha_bar <= 1))
        # the per-step ratios telescope to the squared-cosine curve f(t)/f(0);
        # only the last beta reaches the 0.999 clip, because f(T) = 0
        grid = np.arange(1001) / 1000
        f = np.cos((grid + 0.008) / 1.008 * math.pi / 2) ** 2
        np.testing.assert_allclose(s.alpha_bar[:-1], f[:-1] / f[0], rtol=1e-12)
        assert s.alpha_bar[-1] == pytest.approx(0.001 * s.alpha_bar[-2], rel=1e-12)

    def test_tables_immutable(self):
        s = make_linear(4, 0.1, 0.2)
        with pytest.raises(ValueError):
            s.alpha_bar[1] = 0.5
        with pytest.raises(ValueError):
            build_schedule(4).alpha_bar[1] = 0.5


class TestForwardDiffuse:
    def test_scalar_hand_value(self):
        # alpha_bar[1] = 0.25 from beta = 0.75.
        s = make_linear(1, 0.75, 0.75)
        y0 = np.array([2.0])
        eps = np.array([1.0])
        out = forward_diffuse(y0, 1, s, eps)
        np.testing.assert_allclose(out, [0.5 * 2.0 + math.sqrt(0.75)], rtol=1e-12)

    def test_zero_noise_schedule_limit(self):
        # beta tiny: alpha_bar ~ 1 so output ~ y0.
        s = make_linear(1, 1e-12, 1e-12)
        y0 = np.arange(6.0).reshape(2, 3)
        eps = np.zeros(y0.shape)
        np.testing.assert_allclose(forward_diffuse(y0, 1, s, eps), y0, rtol=1e-9)

    def test_zero_epsilon(self):
        s = make_linear(3, 0.1, 0.3)
        y0 = np.ones((2, 3, 3))
        out = forward_diffuse(y0, 2, s, np.zeros(y0.shape))
        np.testing.assert_allclose(out, math.sqrt(s.alpha_bar[2]) * y0, rtol=1e-12)

    def test_range_and_shape_errors(self):
        s = make_linear(3, 0.1, 0.3)
        y0 = np.ones((2, 3))
        with pytest.raises(ScheduleError):
            forward_diffuse(y0, 4, s, np.zeros(y0.shape))
        with pytest.raises(ScheduleError):
            forward_diffuse(y0, 0, s, np.zeros(y0.shape))
        with pytest.raises(ShapeError):
            forward_diffuse(y0, 1, s, np.zeros((3, 2)))

    def test_seed_determinism(self):
        a = gaussian((4, 5), 123, "noise", 7)
        b = gaussian((4, 5), 123, "noise", 7)
        c = gaussian((4, 5), 124, "noise", 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empirical_moments(self):
        # Sample mean ~ sqrt(abar)*y0 and variance ~ 1-abar, within 3 SE.
        s = make_linear(10, 0.05, 0.2)
        t = 7
        y0 = np.array([0.7, -1.3, 2.1])
        n = 10_000
        draws = np.stack(
            [
                forward_diffuse(y0, t, s, gaussian(y0.shape, 99, i))
                for i in range(n)
            ]
        )
        abar = s.alpha_bar[t]
        var = 1.0 - abar
        se_mean = math.sqrt(var / n)
        se_var = var * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(draws.mean(axis=0) - math.sqrt(abar) * y0) < 3 * se_mean)
        assert np.all(np.abs(draws.var(axis=0, ddof=1) - var) < 3 * se_var)


class TestDdimEpsilon:
    def test_consistent_pair_gives_zero(self):
        s = make_linear(5, 0.1, 0.3)
        y0 = np.linspace(-1, 1, 12).reshape(4, 3)
        yt = math.sqrt(s.alpha_bar[3]) * y0
        np.testing.assert_allclose(ddim_epsilon(yt, y0, 3, s), 0.0, atol=1e-12)

    def test_round_trip_recovers_noise(self):
        s = build_schedule(50)
        rng = np.random.default_rng(5)
        for _ in range(100):
            y0 = rng.standard_normal((2, 3, 3))
            t = int(rng.integers(1, 51))
            eps = rng.standard_normal(y0.shape)
            yt = forward_diffuse(y0, t, s, eps)
            rec = ddim_epsilon(yt, y0, t, s)
            err = np.abs(rec - eps) / np.maximum(np.abs(eps), 1e-12)
            assert err.max() < 1e-10

    def test_scalar_inverts_forward_example(self):
        s = make_linear(1, 0.75, 0.75)
        out = ddim_epsilon(np.array([1.8660254037844386]), np.array([2.0]), 1, s)
        np.testing.assert_allclose(out, [1.0], rtol=1e-10)

    def test_degenerate_timestamp(self):
        s = make_linear(2, 0.1, 0.1)
        with pytest.raises(ScheduleError):
            ddim_epsilon(np.ones(3), np.ones(3), 0, s)


def schedule_with_abars(abars):
    """Schedule whose alpha_bar[1:] equal the given values (for hand examples)."""
    abars = np.asarray(abars, dtype=np.float64)
    return NoiseSchedule(T=len(abars), alpha_bar=np.concatenate([[1.0], abars]))


class TestDdimSigma:
    def test_scalar_hand_value(self):
        s = schedule_with_abars([0.5, 0.25])
        got = ddim_sigma(2, 1, s)
        want = math.sqrt(0.5 / 0.75) * math.sqrt(1.0 - 0.25 / 0.5)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.5773502691896257, rel=1e-9)

    def test_t_prev_zero_gives_zero(self):
        s = make_linear(5, 0.1, 0.3)
        assert ddim_sigma(3, 0, s) == 0.0

    def test_equal_abars_give_zero(self):
        s = schedule_with_abars([0.5, 0.5])
        assert ddim_sigma(2, 1, s) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_over_all_pairs(self):
        s = build_schedule(64)
        for t in range(1, 65):
            for tp in range(0, t):
                assert ddim_sigma(t, tp, s) >= 0.0


class TestDdimStep:
    def test_zero_eps_t_deterministic(self):
        s = make_linear(4, 0.1, 0.2)
        y0 = np.full((2, 3), 1.5)
        yt = math.sqrt(s.alpha_bar[3]) * y0  # makes eps_t = 0
        out = ddim_step(yt, y0, 3, 1, s)
        np.testing.assert_allclose(out, math.sqrt(s.alpha_bar[1]) * y0, rtol=1e-12)

    def test_scalar_hand_evaluation(self):
        s = schedule_with_abars([0.5, 0.25])
        yt = np.array([1.8660254037844386])  # 0.5*2 + sqrt(0.75), abar_t=0.25
        y0h = np.array([2.0])
        # Stochastic step with explicitly zero noise: hand evaluation of the
        # update with sigma = 0.57735..., eps_t = 1.
        sigma = ddim_sigma(2, 1, s)
        eps_t = 1.0
        want = math.sqrt(0.5) * 2.0 + eps_t * math.sqrt(1.0 - 0.5 - sigma**2)
        out = ddim_step(yt, y0h, 2, 1, s, noise=np.zeros(1))
        np.testing.assert_allclose(out, [want], rtol=1e-10)

    def test_perfect_oracle_loop_hits_fixed_point(self):
        s = build_schedule(30)
        rng = np.random.default_rng(11)
        y0 = rng.standard_normal((4, 5, 3))
        yt = forward_diffuse(y0, 30, s, gaussian(y0.shape, 1))
        ts = [30, 24, 18, 12, 6, 0]
        for t, tp in zip(ts[:-1], ts[1:]):
            yt = ddim_step(yt, y0, t, tp, s)
        np.testing.assert_allclose(yt, y0, atol=1e-12)

    def test_ordering_errors(self):
        s = make_linear(4, 0.1, 0.2)
        y = np.ones(3)
        with pytest.raises(ScheduleError):
            ddim_step(y, y, 2, 2, s)
        with pytest.raises(ScheduleError):
            ddim_step(y, y, 2, 3, s)


class TestTimestampForIteration:
    def test_endpoint(self):
        assert timestamp_for_iteration(10, 10, 1000) == 0

    def test_direct_formula(self):
        assert timestamp_for_iteration(1, 10, 1000) == 900

    def test_single_iteration(self):
        assert timestamp_for_iteration(1, 1, 1000) == 0

    def test_out_of_range(self):
        with pytest.raises(ScheduleError):
            timestamp_for_iteration(0, 10, 1000)
        with pytest.raises(ScheduleError):
            timestamp_for_iteration(11, 10, 1000)
