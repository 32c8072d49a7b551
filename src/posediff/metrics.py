"""Pose-estimation metrics: MPJPE, Procrustes-aligned MPJPE, PCK, AUC.

All functions take (pred, gt) arrays shaped (N, J, 3) in millimeters and are
pure, with deterministic reduction order. Alignment defaults to a similarity
transform (rotation + translation + scale, the community P-MPJPE protocol);
``rigid_only`` restricts it to rotation + translation.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericsError, ShapeError

__all__ = [
    "mpjpe",
    "coincident_frames",
    "procrustes_align",
    "p_mpjpe",
    "pck",
    "auc",
    "joint_errors",
    "compute_report",
]

PCK_THRESHOLD_MM = 150.0
AUC_THRESHOLDS_MM = tuple(float(t) for t in range(0, 151, 5))  # 31 points


def _check_pair(pred, gt):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"pred {pred.shape} vs gt {gt.shape}")
    if pred.ndim != 3 or pred.shape[-1] != 3:
        raise ShapeError(f"poses must be (N, J, 3), got {pred.shape}")
    return pred, gt


def joint_errors(pred, gt) -> np.ndarray:
    """Per-(frame, joint) Euclidean distances, shape (N, J)."""
    pred, gt = _check_pair(pred, gt)
    return np.linalg.norm(pred - gt, axis=-1)


def mpjpe(pred, gt) -> float:
    """Mean per-joint position error over all frames and joints."""
    return float(joint_errors(pred, gt).mean())


def _align_frame(p: np.ndarray, g: np.ndarray, rigid_only: bool) -> np.ndarray:
    """Optimal similarity (or rigid) transform of p onto g, one frame."""
    mu_p = p.mean(axis=0)
    mu_g = g.mean(axis=0)
    pc = p - mu_p
    gc = g - mu_g
    var_p = (pc**2).sum()
    cov = pc.T @ gc  # 3x3 cross-covariance
    u, s, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0:
        raise NumericsError("degenerate frame: rank-deficient joint configuration")
    flip = np.diag([1.0, 1.0, d])
    rot = vt.T @ flip @ u.T  # det +1: reflections excluded
    scale = 1.0 if rigid_only else (s * np.diag(flip)).sum() / var_p
    return scale * pc @ rot.T + mu_g


def coincident_frames(poses) -> np.ndarray:
    """The indices of the frames of (N, J, 3) ``poses`` whose joints all
    coincide, which no alignment can scale."""
    poses = np.asarray(poses, dtype=np.float64)
    centered = poses - poses.mean(axis=1, keepdims=True)
    return np.flatnonzero((centered**2).sum(axis=(1, 2)) < 1e-12)


def procrustes_align(pred, gt, rigid_only: bool = False) -> np.ndarray:
    """Per-frame least-squares alignment of pred onto gt."""
    pred, gt = _check_pair(pred, gt)
    if pred.shape[1] < 3:
        raise NumericsError("alignment needs at least 3 joints per frame")
    flat = coincident_frames(pred)
    if flat.size:
        raise NumericsError(f"frame {flat[0]}: degenerate frame: all joints coincide")
    out = np.empty_like(pred)
    for n in range(pred.shape[0]):
        try:
            out[n] = _align_frame(pred[n], gt[n], rigid_only)
        except NumericsError as e:
            raise NumericsError(f"frame {n}: {e}") from e
    return out


def p_mpjpe(pred, gt, rigid_only: bool = False) -> float:
    """MPJPE after per-frame Procrustes alignment."""
    return mpjpe(procrustes_align(pred, gt, rigid_only=rigid_only), gt)


def pck(pred, gt, threshold_mm: float = PCK_THRESHOLD_MM) -> float:
    """Percentage of (frame, joint) pairs with error within the threshold."""
    err = joint_errors(pred, gt)
    return float((err <= threshold_mm).sum() / err.size * 100.0)


def auc(pred, gt) -> float:
    """Mean PCK over thresholds 0, 5, ..., 150 mm."""
    values = [pck(pred, gt, t) for t in AUC_THRESHOLDS_MM]
    return sum(values) / len(values)


REPORT_METRICS = ("mpjpe_mm", "p_mpjpe_mm", "pck150_percent", "auc_percent")


def _mean(scores: list) -> dict:
    return {k: float(np.mean([s[k] for s in scores])) for k in REPORT_METRICS}


def compute_report(sequences, rigid_only: bool = False) -> list:
    """Score [(seq_id, action, pred, gt), ...] and aggregate, in report order.

    Returns (scope, id, action, count, joints, metrics) rows, where metrics
    maps each of REPORT_METRICS to its value: one ``sequence`` row per input
    (count = frames), one ``action`` row per action in sorted order (the
    mean over its sequences), then ``overall`` (the mean over sequences) and
    ``overall_by_action`` (the mean over the action rows). Aggregate rows
    count sequences and carry the first sequence's joint count.

    A row's P-MPJPE can exceed its MPJPE: the alignment minimizes squared
    error, not mean distance.
    """
    rows, by_action = [], {}
    for seq_id, action, pred, gt in sequences:
        pred, gt = _check_pair(pred, gt)
        seq = {
            "mpjpe_mm": mpjpe(pred, gt),
            "p_mpjpe_mm": p_mpjpe(pred, gt, rigid_only=rigid_only),
            "pck150_percent": pck(pred, gt),
            "auc_percent": auc(pred, gt),
        }
        rows.append(("sequence", seq_id, action, len(pred), pred.shape[1], seq))
        by_action.setdefault(action, []).append(seq)
    if not rows:
        raise ShapeError("no sequence pairs to evaluate")
    n_seq, joints = len(rows), rows[0][4]
    actions = [
        ("action", a, a, len(seqs), joints, _mean(seqs)) for a, seqs in sorted(by_action.items())
    ]
    return rows + actions + [
        ("overall", "overall", "", n_seq, joints, _mean([r[5] for r in rows])),
        ("overall_by_action", "overall_by_action", "", n_seq, joints,
         _mean([r[5] for r in actions])),
    ]
