"""Dataset records, the on-disk dataset container, a synthetic skeleton
generator for desk-scale runs, and invertible normalization.

Datasets live in the shared `.ptc` container: per-sequence tensors under
``seq/<id>/...`` plus a JSON manifest carrying the sequence index, the unit
declaration (millimeters) and the coordinate convention (camera frame,
x right, y down, z forward). 3D poses are camera-space mm; 2D keypoints are
pixels produced by pinhole reprojection.

The generator builds kinematically plausible skeletons by forward kinematics
over rigid bone offsets, so bone lengths are constant per sequence by
construction and the stored 2D keypoints are exact reprojections of the 3D
ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .container import _is_int, read_container, write_container
from .exceptions import ConfigError, ShapeError
from .rng import rng_for
from .sampler import CameraIntrinsics, default_camera, reproject

__all__ = [
    "SequenceRecord",
    "NormalizationParams",
    "save_dataset",
    "load_dataset",
    "synth_generate",
    "synth_generate_multi",
    "normalize_record",
    "denormalize_poses",
    "normalize_keypoints",
]

MM_PER_UNIT = 1000.0
DEFAULT_ROOT_DEPTH_MM = 3500.0
ROOT_JOINT = 0
MOTION_KINDS = ("walk_cycle", "arm_wave", "sit")

# 17-joint skeleton tree (pelvis root): parents precede children, so any
# prefix of the joint list is itself a consistent tree.
PARENTS_17 = (-1, 0, 1, 2, 0, 4, 5, 0, 7, 8, 9, 8, 11, 12, 8, 14, 15)

# bone offsets from parent, body frame (x lateral, y up, z forward), mm
OFFSETS_17 = np.array(
    [
        [0, 0, 0],        # 0 pelvis
        [-130, 0, 0],     # 1 right hip
        [0, -450, 0],     # 2 right knee
        [0, -450, 0],     # 3 right ankle
        [130, 0, 0],      # 4 left hip
        [0, -450, 0],     # 5 left knee
        [0, -450, 0],     # 6 left ankle
        [0, 230, 0],      # 7 spine
        [0, 230, 0],      # 8 thorax
        [0, 110, 0],      # 9 neck
        [0, 110, 0],      # 10 head
        [170, 0, 0],      # 11 left shoulder
        [0, -280, 0],     # 12 left elbow
        [0, -250, 0],     # 13 left wrist
        [-170, 0, 0],     # 14 right shoulder
        [0, -280, 0],     # 15 right elbow
        [0, -250, 0],     # 16 right wrist
    ],
    dtype=np.float64,
)

@dataclass
class SequenceRecord:
    seq_id: str
    keypoints_2d: np.ndarray  # (N, J, 2) pixels
    gt_3d: np.ndarray | None  # (N, J, 3) mm camera space; None for inference-only
    action: str
    camera: CameraIntrinsics | None
    presence: np.ndarray | None = None  # (N,) bool; None means always present
    scene: str | None = None
    character: int | None = None

    def __post_init__(self):
        kp = np.asarray(self.keypoints_2d, dtype=np.float64)
        if kp.ndim != 3 or kp.shape[-1] != 2:
            raise ShapeError(f"{self.seq_id}: keypoints_2d must be (N, J, 2), got {kp.shape}")
        if kp.shape[0] < 1 or kp.shape[1] < 1:
            raise ShapeError(f"{self.seq_id}: N and J must be positive")
        self.keypoints_2d = kp
        if self.gt_3d is not None:
            gt = np.asarray(self.gt_3d, dtype=np.float64)
            if gt.shape != kp.shape[:2] + (3,):
                raise ShapeError(
                    f"{self.seq_id}: gt_3d {gt.shape} disagrees with keypoints {kp.shape}"
                )
            self.gt_3d = gt
        if self.presence is not None:
            pres = np.asarray(self.presence, dtype=bool)
            if pres.shape != (kp.shape[0],):
                raise ShapeError(f"{self.seq_id}: presence must be (N,), got {pres.shape}")
            if np.abs(kp[~pres]).max(initial=0.0) > 0:
                raise ShapeError(f"{self.seq_id}: absent frames must hold exact zeros")
            self.presence = pres

    @property
    def n_frames(self):
        return self.keypoints_2d.shape[0]

    @property
    def n_joints(self):
        return self.keypoints_2d.shape[1]


# -- dataset container ---------------------------------------------------------


def save_dataset(path, records: list) -> None:
    tensors = {}
    index = []
    for rec in records:
        base = f"seq/{rec.seq_id}"
        tensors[f"{base}/keypoints_2d"] = rec.keypoints_2d
        if rec.gt_3d is not None:
            tensors[f"{base}/gt_3d"] = rec.gt_3d
        if rec.presence is not None:
            tensors[f"{base}/presence"] = rec.presence.astype(np.float64)
        index.append(
            {
                "id": rec.seq_id,
                "n_frames": rec.n_frames,
                "n_joints": rec.n_joints,
                "action": rec.action,
                "camera": rec.camera.to_dict() if rec.camera else None,
                "scene": rec.scene,
                "character": rec.character,
                "has_gt": rec.gt_3d is not None,
                "has_presence": rec.presence is not None,
            }
        )
    meta = {
        "kind": "dataset",
        "unit": "mm",
        "coords": "camera frame: x right, y down, z forward (depth), millimeters",
        "sequences": sorted(index, key=lambda e: e["id"]),
    }
    write_container(path, tensors, meta)


def load_dataset(path) -> list:
    """The file's records, at least one. ``SequenceRecord`` judges each one; its
    and the camera's errors become ConfigErrors naming the file and the record."""
    tensors, meta = read_container(path)
    if meta.get("kind") != "dataset":
        raise ConfigError(f"{path}: not a dataset container (kind={meta.get('kind')!r})")
    sequences = meta.get("sequences", [])
    if not isinstance(sequences, list):
        raise ConfigError(f"{path}: the sequence index is not a list")
    if not sequences:
        raise ConfigError(f"{path}: dataset holds no sequences")
    records, seen = [], set()
    for i, entry in enumerate(sequences):
        _check_entry(path, i, entry)
        sid = entry["id"]
        if sid in seen:
            raise ConfigError(f"{path}: record {sid!r} appears twice in the sequence index")
        seen.add(sid)
        base = f"seq/{sid}"
        kp = tensors.get(f"{base}/keypoints_2d")
        if kp is None:
            raise ConfigError(f"{path}: record {sid!r} is indexed but has no keypoints")
        n, j = entry["n_frames"], entry["n_joints"]
        if kp.shape != (n, j, 2):
            raise ConfigError(
                f"{path}: record {sid!r} manifest says {n}x{j} frames/joints "
                f"but blob holds {kp.shape}"
            )
        for flag, name in (("has_gt", "gt_3d"), ("has_presence", "presence")):
            if entry.get(flag) and f"{base}/{name}" not in tensors:
                raise ConfigError(f"{path}: record {sid!r} is missing its {name} tensor")
        gt, presence = tensors.get(f"{base}/gt_3d"), tensors.get(f"{base}/presence")
        cam = entry.get("camera")
        try:
            rec = SequenceRecord(
                seq_id=sid,
                keypoints_2d=kp,
                gt_3d=gt,
                action=entry.get("action", ""),
                camera=None if cam is None else CameraIntrinsics.from_dict(cam),
                presence=None if presence is None else presence > 0.5,
                scene=entry.get("scene"),
                character=entry.get("character"),
            )
        except (ShapeError, ConfigError) as e:
            msg = str(e).removeprefix(f"{sid}: ")  # the record's own messages open with its id
            raise ConfigError(f"{path}: record {sid!r}: {msg}") from None
        if rec.camera is not None:
            _check_rays(path, rec)
        records.append(rec)
    return records


def _check_entry(path, i, entry) -> None:
    """Raise ConfigError naming index entry ``i`` unless its fields are well typed."""
    if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
        raise ConfigError(f"{path}: sequence index entry {i} is not an object with a string id")
    cam, character = entry.get("camera"), entry.get("character")
    cam_fields = ("fx", "fy", "cx", "cy")
    valid = {
        "n_frames": _is_int(entry.get("n_frames")),
        "n_joints": _is_int(entry.get("n_joints")),
        "action": isinstance(entry.get("action", ""), str),
        "scene": isinstance(entry.get("scene"), (str, type(None))),
        "character": character is None or _is_int(character),
        # type(), not isinstance(): JSON true/false must not pass as a number
        "camera": cam is None
        or (isinstance(cam, dict) and all(type(cam.get(k)) in (int, float) for k in cam_fields)),
    }
    for key, ok in valid.items():
        if not ok:
            raise ConfigError(
                f"{path}: record {entry['id']!r} has a missing or mistyped {key}: "
                f"{entry.get(key)!r}"
            )


def _check_rays(path, rec) -> None:
    """Raise ConfigError unless the record's normalized keypoints fit in float32.

    A camera field can be finite in the index and still send the rays past
    the narrowest model dtype (``cx`` = 1e308, ``fx`` = 1e-300).
    """
    cam = rec.camera
    with np.errstate(over="ignore"):
        rays = normalize_keypoints(rec.keypoints_2d, cam, rec.presence)
    for axis, (c, f) in enumerate((("cx", "fx"), ("cy", "fy"))):
        if not (np.abs(rays[..., axis]) <= np.finfo(np.float32).max).all():
            raise ConfigError(f"{path}: record {rec.seq_id!r} camera {c}={getattr(cam, c)!r}, "
                              f"{f}={getattr(cam, f)!r} puts keypoints outside float32")


# -- synthetic generator ---------------------------------------------------------


def _rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def _joint_rotations(kind: str, phase: float, progress: float) -> dict:
    """Local rotation per joint for one frame of the motion pattern."""
    if kind == "walk_cycle":
        swing = 0.6 * math.sin(phase)
        return {
            1: _rot_x(swing),
            4: _rot_x(-swing),
            2: _rot_x(0.35 * (1 + math.cos(phase))),
            5: _rot_x(0.35 * (1 - math.cos(phase))),
            11: _rot_x(0.4 * math.sin(phase)),
            14: _rot_x(-0.4 * math.sin(phase)),
        }
    if kind == "arm_wave":
        lift = 2.2 + 0.5 * math.sin(phase)
        return {
            11: _rot_z(lift),
            14: _rot_z(-lift),
            12: _rot_z(0.4 * math.sin(phase * 2)),
            15: _rot_z(-0.4 * math.sin(phase * 2)),
        }
    if kind == "sit":
        bend = (0.5 * math.pi) * min(1.0, progress * 1.5)
        return {
            1: _rot_x(-bend),
            4: _rot_x(-bend),
            2: _rot_x(bend),
            5: _rot_x(bend),
            7: _rot_x(0.15 * bend),
        }
    raise ConfigError(f"unknown motion kind {kind!r}; choose from {MOTION_KINDS}")


def _forward_kinematics(offsets: np.ndarray, parents, rotations: dict) -> np.ndarray:
    j = offsets.shape[0]
    pos = np.zeros((j, 3))
    acc = [np.eye(3)] * j
    for i in range(1, j):
        p = parents[i]
        acc[i] = acc[p] @ rotations.get(i, np.eye(3))
        pos[i] = pos[p] + acc[i] @ offsets[i]
    return pos


def _synth_one(
    seq_id: str,
    n_frames: int,
    n_joints: int,
    kind: str,
    cam: CameraIntrinsics,
    rng: np.random.Generator,
    lateral_mm: float = 0.0,
) -> SequenceRecord:
    if not (5 <= n_joints <= 17):
        raise ConfigError(f"synthetic skeleton supports 5..17 joints, got {n_joints}")
    scale = 0.9 + 0.2 * rng.random()  # per-sequence stature
    offsets = OFFSETS_17[:n_joints] * scale
    cycles = 1.5 + rng.random()
    phase0 = 2 * math.pi * rng.random()
    depth = DEFAULT_ROOT_DEPTH_MM + 400.0 * (rng.random() - 0.5)
    sway = 30.0 * rng.random()

    gt = np.zeros((n_frames, n_joints, 3))
    for n in range(n_frames):
        phase = phase0 + 2 * math.pi * cycles * n / n_frames
        body = _forward_kinematics(offsets, PARENTS_17, _joint_rotations(kind, phase, n / max(1, n_frames - 1)))
        root = np.array(
            [lateral_mm + sway * math.sin(phase), 0.0, depth + 50.0 * math.cos(phase)]
        )
        # body frame y is up, camera y is down
        gt[n, :, 0] = body[:, 0] + root[0]
        gt[n, :, 1] = -body[:, 1] + root[1]
        gt[n, :, 2] = body[:, 2] + root[2]
    return SequenceRecord(
        seq_id=seq_id,
        keypoints_2d=reproject(gt, cam),
        gt_3d=gt,
        action=kind,
        camera=cam,
    )


def synth_generate(
    n_sequences: int,
    n_frames: int,
    n_joints: int,
    seed: int,
    motion_kind: str = "mixed",
) -> list:
    """Seeded synthetic dataset; ``mixed`` cycles through the motion kinds."""
    cam = default_camera()
    records = []
    for i in range(n_sequences):
        kind = MOTION_KINDS[i % 3] if motion_kind == "mixed" else motion_kind
        rng = rng_for(seed, "synth", i)
        records.append(_synth_one(f"seq{i:03d}", n_frames, n_joints, kind, cam, rng))
    return records


def synth_generate_multi(
    n_characters: int,
    n_frames: int,
    n_joints: int,
    seed: int,
    motion_kind: str = "mixed",
    scene: str = "scene000",
) -> list:
    """One multi-human scene: C laterally offset characters sharing N frames.

    Characters beyond the first leave the view for a stretch of frames; those
    frames hold exact zeros in their 2D keypoints.
    """
    cam = default_camera()
    records = []
    for c in range(n_characters):
        kind = MOTION_KINDS[c % 3] if motion_kind == "mixed" else motion_kind
        rng = rng_for(seed, "synth-multi", c)
        lateral = (c - (n_characters - 1) / 2) * 900.0
        rec = _synth_one(
            f"{scene}/ch{c}", n_frames, n_joints, kind, cam, rng, lateral_mm=lateral
        )
        presence = np.ones(n_frames, dtype=bool)
        if c > 0 and n_frames >= 4:
            gap = slice(n_frames // 2, n_frames // 2 + max(1, n_frames // 4))
            presence[gap] = False
        kp = rec.keypoints_2d.copy()
        kp[~presence] = 0.0
        records.append(
            replace(rec, keypoints_2d=kp, presence=presence, scene=scene, character=c)
        )
    return records


# -- normalization ---------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationParams:
    mode: str
    roots_mm: np.ndarray | None  # (N, 3) root track re-anchoring root_centered poses


def normalize_keypoints(kp: np.ndarray, cam: CameraIntrinsics, presence=None) -> np.ndarray:
    """Pixels -> camera-normalized rays; absent frames stay exactly zero."""
    out = np.empty_like(np.asarray(kp, dtype=np.float64))
    out[..., 0] = (kp[..., 0] - cam.cx) / cam.fx
    out[..., 1] = (kp[..., 1] - cam.cy) / cam.fy
    if presence is not None:
        out[~np.asarray(presence, dtype=bool)] = 0.0
    return out


def normalize_record(
    record: SequenceRecord, mode: str = "root_centered"
) -> tuple[SequenceRecord, NormalizationParams]:
    """Invertible transform to model units.

    ``root_centered``: 3D poses are root-relative and scaled mm -> m; 2D
    keypoints become intrinsics-normalized rays. ``image_normalized`` keeps
    3D absolute (scaled only). Millimeter parameters are retained so metrics
    always run in mm.
    """
    if mode == "root_centered" and record.gt_3d is None:
        raise ConfigError(f"{record.seq_id}: root_centered normalization needs gt_3d")
    cam = record.camera or default_camera()
    roots = None if record.gt_3d is None else record.gt_3d[:, ROOT_JOINT, :].copy()
    params = NormalizationParams(mode=mode, roots_mm=roots)
    kp = normalize_keypoints(record.keypoints_2d, cam, record.presence)
    gt = None
    if record.gt_3d is not None:
        # the zero-fill contract covers the 2D inputs only; 3D poses keep
        # their values so reprojection stays valid on every frame
        if mode == "root_centered":
            gt = (record.gt_3d - params.roots_mm[:, None, :]) / MM_PER_UNIT
        else:
            gt = record.gt_3d / MM_PER_UNIT
    return replace(record, keypoints_2d=kp, gt_3d=gt), params


def denormalize_poses(poses: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Model units back to camera-space millimeters."""
    out = np.asarray(poses, dtype=np.float64) * MM_PER_UNIT
    if params.mode == "root_centered":
        out = out + params.roots_mm[:, None, :]
    return out
