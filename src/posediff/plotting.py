"""Static skeleton rendering: per-frame 2D overlays of predicted and
ground-truth poses as a single SVG, plus the per-joint error table as CSV.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .data import PARENTS_17
from .metrics import joint_errors

__all__ = ["skeleton_svg", "per_joint_error_rows"]

PANEL = 220.0
MARGIN = 10.0
GT_COLOR = "#9aa0a6"
PRED_COLOR = "#1a73e8"


def _panel_transform(points: np.ndarray):
    """Map pixel coordinates of all panels into a shared PANEL-sized box."""
    lo = points.reshape(-1, 2).min(axis=0)
    hi = points.reshape(-1, 2).max(axis=0)
    span = max(float((hi - lo).max()), 1e-9)
    scale = (PANEL - 2 * MARGIN) / span

    def apply(p):
        return (p - lo) * scale + MARGIN

    return apply


def _bones(n_joints: int):
    return [(j, PARENTS_17[j]) for j in range(1, min(n_joints, 17))]


def _skeleton_group(kp: np.ndarray, color: str, offset_x: float) -> list:
    parts = []
    for j, p in _bones(kp.shape[0]):
        parts.append(
            f'<line x1="{kp[p, 0] + offset_x:.2f}" y1="{kp[p, 1]:.2f}" '
            f'x2="{kp[j, 0] + offset_x:.2f}" y2="{kp[j, 1]:.2f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    for j in range(kp.shape[0]):
        parts.append(
            f'<circle cx="{kp[j, 0] + offset_x:.2f}" cy="{kp[j, 1]:.2f}" r="2.5" '
            f'fill="{color}" class="joint"/>'
        )
    return parts


def skeleton_svg(pred_2d: np.ndarray, gt_2d: np.ndarray, title: str = "") -> str:
    """One panel per frame, ground truth behind prediction."""
    n_frames = pred_2d.shape[0]
    apply = _panel_transform(np.concatenate([pred_2d, gt_2d]))
    width = n_frames * PANEL
    height = PANEL + 20
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<title>{escape(title)}</title>',
    ]
    for n in range(n_frames):
        off = n * PANEL
        parts.append(
            f'<rect x="{off:.1f}" y="0" width="{PANEL:.1f}" height="{PANEL:.1f}" '
            'fill="none" stroke="#dddddd"/>'
        )
        parts.extend(_skeleton_group(apply(gt_2d[n]), GT_COLOR, off))
        parts.extend(_skeleton_group(apply(pred_2d[n]), PRED_COLOR, off))
        parts.append(
            f'<text x="{off + 4:.1f}" y="{PANEL + 14:.1f}" font-size="10" '
            f'fill="#444444">frame {n}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def per_joint_error_rows(pred_mm: np.ndarray, gt_mm: np.ndarray, mask=None) -> list:
    """Mean per-joint 3D error in mm over (optionally masked) frames."""
    err = joint_errors(pred_mm, gt_mm)
    if mask is not None:
        err = err[np.asarray(mask, dtype=bool)]
    return [float(v) for v in err.mean(axis=0)]
