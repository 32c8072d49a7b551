"""Closed-form diffusion mathematics shared by training and inference.

The forward process corrupts a clean pose sequence Y0 toward Gaussian noise
through the cosine variance schedule; the reverse process reconstructs it
with DDIM steps driven by a predicted clean sample; a step is stochastic
exactly when it is given noise. All functions here are pure and a schedule
is immutable after construction, so they are safe to share across concurrent
hypothesis evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, ScheduleError, ShapeError

__all__ = [
    "NoiseSchedule",
    "build_schedule",
    "forward_diffuse",
    "ddim_epsilon",
    "ddim_sigma",
    "ddim_step",
    "timestamp_for_iteration",
]

# fp slack for the in-root term of a DDIM step; larger violations mean the
# schedule itself is inconsistent and must not be silently clamped.
ROOT_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal table alpha_bar, indexed 0..T with alpha_bar[0]=1."""

    T: int
    alpha_bar: np.ndarray

    def __post_init__(self):
        self.alpha_bar.setflags(write=False)

    def check_timestamp(self, t: int):
        if not (1 <= t <= self.T):
            raise ScheduleError(f"timestamp {t} outside [1, {self.T}]")


def build_schedule(T: int) -> NoiseSchedule:
    """Cosine variance schedule over T timestamps: the squared-cosine
    cumulative-signal curve (offset 0.008), with betas clipped at 0.999.
    """
    if T < 1:
        raise ConfigError(f"schedule length T={T} must be >= 1")
    s = 0.008
    grid = np.arange(T + 1, dtype=np.float64) / T
    f = np.cos((grid + s) / (1 + s) * math.pi / 2) ** 2
    beta = np.clip(1.0 - f[1:] / f[:-1], 0.0, 0.999)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    return NoiseSchedule(T=T, alpha_bar=alpha_bar)


def forward_diffuse(
    y0: np.ndarray, t: int, sched: NoiseSchedule, noise: np.ndarray
) -> np.ndarray:
    """Corrupt y0 to its timestamp-t marginal: sqrt(abar_t)*y0 + noise*sqrt(1-abar_t)."""
    sched.check_timestamp(t)
    if np.shape(noise) != np.shape(y0):
        raise ShapeError(f"noise shape {np.shape(noise)} != pose shape {np.shape(y0)}")
    abar = sched.alpha_bar[t]
    return math.sqrt(abar) * y0 + noise * math.sqrt(1.0 - abar)


def ddim_epsilon(
    yt: np.ndarray, y0_hat: np.ndarray, t: int, sched: NoiseSchedule
) -> np.ndarray:
    """Noise implied by (yt, y0_hat) at timestamp t."""
    sched.check_timestamp(t)
    abar = sched.alpha_bar[t]
    if abar >= 1.0:
        raise ScheduleError(f"alpha_bar[{t}]=1 makes the noise term degenerate")
    return (yt - math.sqrt(abar) * y0_hat) / math.sqrt(1.0 - abar)


def ddim_sigma(t: int, t_prev: int, sched: NoiseSchedule) -> float:
    """Stochasticity scale of the t -> t_prev reverse step."""
    sched.check_timestamp(t)
    if not (0 <= t_prev < t):
        raise ScheduleError(f"need 0 <= t_prev < t, got t_prev={t_prev}, t={t}")
    abar_t = sched.alpha_bar[t]
    abar_prev = sched.alpha_bar[t_prev]
    if abar_t >= 1.0:
        raise ScheduleError(f"alpha_bar[{t}]=1 makes sigma degenerate")
    return math.sqrt((1.0 - abar_prev) / (1.0 - abar_t)) * math.sqrt(
        1.0 - abar_t / abar_prev
    )


def ddim_step(
    yt: np.ndarray,
    y0_hat: np.ndarray,
    t: int,
    t_prev: int,
    sched: NoiseSchedule,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """One DDIM reverse step from timestamp t to t_prev.

    Returns sqrt(abar_prev)*y0_hat + eps_t*sqrt(1-abar_prev-sigma^2) + sigma*noise.
    With ``noise=None`` the step is deterministic: sigma is 0 and both of its
    terms are dropped.
    """
    sched.check_timestamp(t)
    if not (0 <= t_prev < t):
        raise ScheduleError(f"need 0 <= t_prev < t, got t_prev={t_prev}, t={t}")
    abar_prev = sched.alpha_bar[t_prev]
    sigma = 0.0 if noise is None else ddim_sigma(t, t_prev, sched)
    eps_t = ddim_epsilon(yt, y0_hat, t, sched)

    under_root = 1.0 - abar_prev - sigma * sigma
    if under_root < -ROOT_CLAMP_TOL:
        raise ScheduleError(
            f"1 - alpha_bar[{t_prev}] - sigma^2 = {under_root} < 0: inconsistent schedule"
        )
    under_root = max(under_root, 0.0)

    out = math.sqrt(abar_prev) * y0_hat + eps_t * math.sqrt(under_root)
    if sigma > 0.0:
        if np.shape(noise) != np.shape(yt):
            raise ShapeError(f"noise shape {np.shape(noise)} != pose shape {np.shape(yt)}")
        out = out + sigma * noise
    return out


def timestamp_for_iteration(m: int, M: int, T: int) -> int:
    """Target timestamp after iteration m of M: round(T*(1-m/M)); m=M gives 0."""
    if not (1 <= m <= M):
        raise ScheduleError(f"iteration index m={m} outside [1, {M}]")
    return int(round(T * (1.0 - m / M)))
