"""Multi-hypothesis DDIM inference and joint-wise reprojection aggregation.

Inference draws H independent Gaussian pose hypotheses, refines them
together with M denoising iterations, reprojects the results to the image
plane, and for every joint keeps the trajectory of the hypothesis whose
reprojection lies closest to the observed 2D keypoints. Hypotheses never
exchange information: each DDIM step denoises the (H, N, J, 3) stack in one
call, which refines every hypothesis on its own, and the refined stack goes
to camera space in one ``to_camera`` call; all merging is by index and
deterministic. The characters of a multi-human scene are estimated as
separate sequences, each with its own seed (``character_seed``) and presence
mask (``frame_mask``).

The denoiser enters as a plain callable ``denoise_fn(Y, x, t) -> Y0_hat``
over a hypothesis stack, with weights and prompt already bound, which keeps
the loop testable against oracle models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import NoiseSchedule, ddim_step, timestamp_for_iteration
from .exceptions import ConfigError, NumericsError, ShapeError
from .rng import gaussian, rng_for

__all__ = [
    "CameraIntrinsics",
    "HypothesisSet",
    "sample_initial_hypotheses",
    "ddim_loop",
    "reproject",
    "jpma_aggregate",
    "estimate_single",
]

DEPTH_EPSILON = 1e-6


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")

    def to_dict(self):
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy}

    @classmethod
    def from_dict(cls, d):
        return cls(fx=d["fx"], fy=d["fy"], cx=d["cx"], cy=d["cy"])


def default_camera() -> CameraIntrinsics:
    """Fallback intrinsics when a dataset carries none (recorded in outputs)."""
    return CameraIntrinsics(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0)


@dataclass(frozen=True)
class HypothesisSet:
    """H candidate pose sequences sharing one (N, J) layout."""

    hypotheses: np.ndarray  # (H, N, J, 3)

    def __post_init__(self):
        arr = np.asarray(self.hypotheses)
        if arr.ndim != 4 or arr.shape[-1] != 3:
            raise ShapeError(f"hypotheses must be (H, N, J, 3), got {arr.shape}")

    @property
    def count(self):
        return self.hypotheses.shape[0]


def sample_initial_hypotheses(H: int, n_frames: int, n_joints: int, seed: int) -> HypothesisSet:
    """H >= 1 unit-Gaussian pose tensors, stream-split per hypothesis index."""
    hyps = np.stack(
        [gaussian((n_frames, n_joints, 3), seed, "hypothesis", h) for h in range(H)]
    )
    return HypothesisSet(hyps)


def ddim_loop(
    x: np.ndarray,
    hyp: HypothesisSet,
    M: int,
    denoise_fn,
    sched: NoiseSchedule,
    *,
    seed: int,
    deterministic: bool = True,
) -> HypothesisSet:
    """Refine every hypothesis with M >= 1 denoise/step iterations.

    Iteration m denoises the whole (H, N, J, 3) stack in one ``denoise_fn``
    call at the current timestamp (starting at T) and steps every hypothesis
    to round(T*(1-m/M)); after the final denoise the predicted clean poses
    are returned directly (stepping to timestamp 0 would reproduce them
    exactly). When M > T, rounding can give an iteration no lower timestamp:
    it takes no step and keeps the prediction it would repeat, so
    ``denoise_fn`` runs once per distinct timestamp visited. Stochastic
    steps draw hypothesis h's noise from (``seed``, "ddim", h, m). A
    non-finite denoiser output raises ``NumericsError``.
    """
    y = hyp.hypotheses
    t_cur = sched.T
    y0_hat = None  # the prediction at (y, t_cur), until a step moves them
    for m in range(1, M + 1):
        if y0_hat is None:
            y0_hat = np.asarray(denoise_fn(y, x, t_cur))
            if y0_hat.shape != y.shape:
                raise ShapeError(f"denoiser returned {y0_hat.shape}, expected {y.shape}")
            if not np.isfinite(y0_hat).all():
                raise NumericsError(f"denoiser returned non-finite poses at t={t_cur}")
        if m == M:
            break
        t_next = timestamp_for_iteration(m, M, sched.T)
        if t_next >= t_cur:  # rounding collision when M > T: no step, no new call
            continue
        noise = None if deterministic else np.stack(
            [gaussian(y.shape[1:], seed, "ddim", h, m) for h in range(hyp.count)]
        )
        y = ddim_step(y, y0_hat, t_cur, t_next, sched, noise)
        t_cur, y0_hat = t_next, None
    return HypothesisSet(y0_hat)


def reproject(poses: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Pinhole projection u = fx*X/Z + cx, v = fy*Y/Z + cy over (..., J, 3)."""
    poses = np.asarray(poses)
    if poses.shape[-1] != 3:
        raise ShapeError(f"poses must end in xyz, got {poses.shape}")
    z = poses[..., 2]
    if np.any(z <= DEPTH_EPSILON):
        idx = tuple(int(i) for i in np.argwhere(z <= DEPTH_EPSILON)[0])
        axes = ("hypothesis", "frame", "joint")[-len(idx):]
        where = ", ".join(f"{axis} {i}" for axis, i in zip(axes, idx[-3:]))
        raise NumericsError(f"degenerate depth {z[idx]:.3g} at {where}")
    u = cam.fx * poses[..., 0] / z + cam.cx
    v = cam.fy * poses[..., 1] / z + cam.cy
    return np.stack([u, v], axis=-1)


def jpma_aggregate(
    hyps: HypothesisSet,
    x: np.ndarray,
    cam: CameraIntrinsics,
    *,
    per_frame: bool = False,
    frame_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per joint, keep the hypothesis with minimal 2D reprojection error.

    Default mode sums the error over all frames and selects one hypothesis
    per joint trajectory (preserves temporal coherence); ``per_frame``
    selects independently per (frame, joint). Ties go to the lowest
    hypothesis index. ``frame_mask`` excludes frames (absent characters)
    from the error. Returns (aggregated poses, selected indices).
    """
    x = np.asarray(x)
    arr = hyps.hypotheses
    if x.shape != arr.shape[1:3] + (2,):
        raise ShapeError(f"keypoints {x.shape} do not match hypotheses {arr.shape}")
    proj = reproject(arr, cam)  # (H, N, J, 2)
    err = np.linalg.norm(proj - x[None], axis=-1)  # (H, N, J)
    if frame_mask is not None:
        mask = np.asarray(frame_mask, dtype=bool)
        if mask.shape != (arr.shape[1],):
            raise ShapeError(f"frame_mask must be (N,), got {mask.shape}")
        err = err * mask[None, :, None]
    if per_frame:
        sel = np.argmin(err, axis=0)  # (N, J)
        out = np.take_along_axis(arr, sel[None, ..., None], axis=0)[0]
    else:
        sel = np.argmin(err.sum(axis=1), axis=0)  # (J,)
        out = np.take_along_axis(arr, sel[None, None, :, None], axis=0)[0]
    return out, sel


def estimate_single(
    x: np.ndarray,
    cam: CameraIntrinsics,
    denoise_fn,
    sched: NoiseSchedule,
    H: int,
    M: int,
    seed: int,
    *,
    deterministic: bool = True,
    per_frame: bool = False,
    to_camera=None,
    x_pixels: np.ndarray | None = None,
    frame_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full single-human inference: sample, iterate, aggregate. Returns
    ``jpma_aggregate``'s (camera-space poses, selected hypothesis indices).

    ``to_camera`` maps the (H, N, J, 3) model-space hypothesis stack to
    camera-space poses before reprojection (identity when the model already
    works in camera space);
    ``x_pixels`` supplies the raw pixel keypoints when ``x`` is normalized.
    """
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[-1] != 2:
        raise ShapeError(f"keypoints must be (N, J, 2), got {x.shape}")
    n, j = x.shape[:2]
    hyp = sample_initial_hypotheses(H, n, j, seed)
    refined = ddim_loop(x, hyp, M, denoise_fn, sched, deterministic=deterministic, seed=seed)
    cam_hyps = refined.hypotheses if to_camera is None else to_camera(refined.hypotheses)
    ref_x = x if x_pixels is None else np.asarray(x_pixels)
    return jpma_aggregate(
        HypothesisSet(cam_hyps), ref_x, cam, per_frame=per_frame, frame_mask=frame_mask
    )


def scene_seed(seed: int, scene: str) -> int:
    """Estimate seed of a scene id (or a single-human sequence id) under run seed ``seed``.

    A single-human sequence uses it as is; character ``c`` of a scene uses
    ``character_seed(scene_seed(seed, scene), c)``.
    """
    return int(rng_for(seed, "estimate", scene).integers(0, 2**63 - 1))


def character_seed(seed: int, c: int) -> int:
    """Seed of character ``c`` of a scene whose seed is ``seed``."""
    return int(rng_for(seed, "character", c).integers(0, 2**63 - 1))
