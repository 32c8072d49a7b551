import json
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posediff.cli import main
from posediff.container import read_container, write_container
from posediff.data import (
    PARENTS_17,
    SequenceRecord,
    denormalize_poses,
    load_dataset,
    normalize_keypoints,
    normalize_record,
    save_dataset,
    synth_generate,
    synth_generate_multi,
)
from posediff.exceptions import ConfigError, ShapeError
from posediff.metrics import mpjpe
from posediff.sampler import CameraIntrinsics, reproject


DELETE = object()


def rewrite_manifest(path, keys, value):
    """Set (or, with DELETE, remove) the manifest item at ``keys``; () is the root."""
    raw = path.read_bytes()
    man_len = int.from_bytes(raw[4:8], "little")
    manifest = json.loads(raw[8 : 8 + man_len])
    if keys:
        node = manifest
        for k in keys[:-1]:
            node = node[k]
        if value is DELETE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    else:
        manifest = value
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(b"PTC1" + len(payload).to_bytes(4, "little") + payload + raw[8 + man_len :])


def tobytes_encoding(tensors, meta=None):
    """The container bytes built the plain way: a ``tobytes()`` copy per tensor."""
    index, chunks, offset = {}, [], 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        raw = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
        code = {np.float32: "f4", np.float64: "f8"}[arr.dtype.type]
        index[name] = {"dtype": code, "shape": list(np.shape(tensors[name])), "offset": offset,
                       "nbytes": len(raw)}
        chunks.append(raw)
        offset += len(raw)
    manifest = {"version": 1, "endianness": "little", "layout": "row-major",
                "tensors": index, "meta": meta or {}}
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return b"PTC1" + len(payload).to_bytes(4, "little") + payload + b"".join(chunks)


def traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


MALFORMED_MANIFESTS = {
    "root_not_object": ((), [1]),
    "tensors_not_object": (("tensors",), []),
    "meta_not_object": (("meta",), [1]),
    "entry_not_object": (("tensors", "x"), 5),
    "no_dtype": (("tensors", "x", "dtype"), DELETE),
    "no_shape": (("tensors", "x", "shape"), DELETE),
    "no_offset": (("tensors", "x", "offset"), DELETE),
    "no_nbytes": (("tensors", "x", "nbytes"), DELETE),
    "dtype_not_string": (("tensors", "x", "dtype"), ["f8"]),
    "shape_not_list": (("tensors", "x", "shape"), "4"),
    "shape_float_dim": (("tensors", "x", "shape"), [4.0]),
    "shape_bool_dim": (("tensors", "x", "shape"), [True, 4]),
    "negative_dims": (("tensors", "x", "shape"), [-1, -4]),
    "offset_string": (("tensors", "x", "offset"), "0"),
    "nbytes_float": (("tensors", "x", "nbytes"), 32.0),
}


# (manifest keys under meta.sequences, new value, expected error text)
MALFORMED_DATASET_ENTRIES = {
    "index_not_list": ((), {"seq000": {}}, "index is not a list"),
    "entry_not_object": ((1,), "seq001", "entry 1"),
    "no_id": ((1, "id"), DELETE, "entry 1"),
    "id_not_string": ((1, "id"), 7, "entry 1"),
    "no_n_frames": ((1, "n_frames"), DELETE, "seq001.*n_frames"),
    "n_frames_float": ((1, "n_frames"), 4.0, "seq001.*n_frames"),
    "n_joints_bool": ((1, "n_joints"), True, "seq001.*n_joints"),
    "action_not_string": ((1, "action"), 5, "seq001.*action"),
    "scene_not_string": ((1, "scene"), ["s"], "seq001.*scene"),
    "character_string": ((1, "character"), "0", "seq001.*character"),
    "camera_not_object": ((1, "camera"), [1000.0], "seq001.*camera"),
    "camera_no_fy": ((1, "camera"), {"fx": 1.0}, "seq001.*camera"),
    "camera_string_cx": ((1, "camera", "cx"), "500", "seq001.*camera"),
    # finite in the index, but the normalized keypoints overflow float32
    "camera_cx_huge": ((1, "camera", "cx"), 1e308, r"seq001.*cx=1e\+308"),
    "camera_cy_huge": ((1, "camera", "cy"), -1e308, r"seq001.*cy=-1e\+308"),
    "camera_fx_tiny": ((1, "camera", "fx"), 1e-300, r"seq001.*fx=1e-300"),
    "camera_fy_tiny": ((1, "camera", "fy"), 1e-300, r"seq001.*fy=1e-300"),
    "camera_fx_negative": ((1, "camera", "fx"), -1000.0, "seq001.*focal lengths"),
}


def set_item(index, value):
    """A mutation that sets ``x[index]`` on a copy of ``x``."""
    def mutate(x):
        x = x.copy()
        x[index] = value
        return x
    return mutate


# (record, tensor under seq/<record>/, mutation or DELETE, expected error text);
# frames 4 and 5 of scene000/ch1 are absent
MALFORMED_DATASET_TENSORS = {
    "presence_missing": ("scene000/ch1", "presence", DELETE, "missing its presence tensor"),
    "presence_short": ("scene000/ch1", "presence", lambda x: x[:-1], r"presence must be \(N,\)"),
    "absent_frame_nonzero": ("scene000/ch1", "keypoints_2d", set_item((4, 3, 0), 1.0),
                             "absent frames must hold exact zeros"),
    "gt_missing": ("seq001", "gt_3d", DELETE, "missing its gt_3d tensor"),
    "gt_wrong_shape": ("seq001", "gt_3d", lambda x: x[:, :-1], "gt_3d .* disagrees"),
    "keypoints_missing": ("seq001", "keypoints_2d", DELETE, "has no keypoints"),
}


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a/b": rng.standard_normal((3, 4)),
            "c": rng.standard_normal(7).astype(np.float32),
        }
        path = tmp_path / "t.ptc"
        write_container(path, tensors, meta={"hello": [1, 2]})
        got, meta = read_container(path)
        assert meta == {"hello": [1, 2]}
        for k in tensors:
            assert got[k].dtype == tensors[k].dtype
            np.testing.assert_array_equal(got[k], tensors[k])

    def test_write_is_deterministic(self, tmp_path):
        tensors = {"x": np.arange(6.0).reshape(2, 3), "y": np.ones(4)}
        p1, p2 = tmp_path / "a.ptc", tmp_path / "b.ptc"
        write_container(p1, tensors, meta={"k": 1})
        write_container(p2, dict(reversed(tensors.items())), meta={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_names_preserved(self, tmp_path):
        path = tmp_path / "t.ptc"
        write_container(path, {"mystery/tensor": np.ones(3)})
        got, _ = read_container(path)
        write_container(path, got)
        got2, _ = read_container(path)
        np.testing.assert_array_equal(got2["mystery/tensor"], np.ones(3))

    def test_rejects_bad_offsets(self, tmp_path):
        path = tmp_path / "t.ptc"
        write_container(path, {"x": np.ones(4)})
        rewrite_manifest(path, ("tensors", "x", "offset"), 10_000)
        with pytest.raises(ConfigError, match="byte range"):
            read_container(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_rejects_malformed_manifest(self, tmp_path, case):
        path = tmp_path / "t.ptc"
        write_container(path, {"x": np.ones(4)})
        rewrite_manifest(path, *MALFORMED_MANIFESTS[case])
        with pytest.raises(ConfigError):
            read_container(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_bytes_read_or_raise_config_error(self, tmp_path, data):
        path = tmp_path / "t.ptc"
        write_container(path, {"a/b": np.arange(12.0).reshape(3, 4),
                               "c": np.ones(7, dtype=np.float32)}, meta={"kind": "x"})
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 7))
            for pos, bit in data.draw(st.lists(flips, min_size=1, max_size=3), label="flips"):
                raw[pos] ^= 1 << bit
        path.write_bytes(bytes(raw))
        try:
            tensors, meta = read_container(path)
        except ConfigError:
            return
        assert isinstance(tensors, dict) and isinstance(meta, dict)

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_file_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            path = tmp_path / "t.ptc"
            write_container(path, {"x": np.ones(2)})
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["t.ptc"]

    def test_rejects_int_tensors(self, tmp_path):
        with pytest.raises(ConfigError):
            write_container(tmp_path / "t.ptc", {"x": np.arange(3)})

    def test_rejects_non_container(self, tmp_path):
        p = tmp_path / "bogus.ptc"
        p.write_bytes(b"NOPE....")
        with pytest.raises(ConfigError, match="not a PTC"):
            read_container(p)

    def test_bytes_equal_tobytes_encoding(self, tmp_path):
        rng = np.random.default_rng(3)
        tensors = {
            "f4": rng.standard_normal((3, 5)).astype(np.float32),
            "f8": rng.standard_normal((2, 2, 2)),
            "strided": rng.standard_normal((6, 8))[::2, 1::3],
            "transposed": rng.standard_normal((4, 3)).astype(np.float32).T,
            "scalar": np.float64(2.5),
            "zero_d": np.array(-1.0, dtype=np.float32),
            "empty": np.zeros((0, 4)),
            "empty_f4": np.zeros((3, 0), dtype=np.float32),
        }
        path = tmp_path / "t.ptc"
        write_container(path, tensors, meta={"kind": "x"})
        assert path.read_bytes() == tobytes_encoding(tensors, {"kind": "x"})
        got, _ = read_container(path)
        for name, arr in tensors.items():
            np.testing.assert_array_equal(got[name].reshape(np.shape(arr)), arr)

    @pytest.mark.parametrize("code", ["f4", "f8"])
    def test_big_endian_round_trip_is_stored_little_endian(self, tmp_path, code):
        little = (np.arange(6.0).reshape(2, 3) * 0.75 - 1.5).astype("<" + code)
        big = little.astype(">" + code)
        write_container(tmp_path / "big.ptc", {"x": big})
        write_container(tmp_path / "little.ptc", {"x": little})
        assert (tmp_path / "big.ptc").read_bytes() == (tmp_path / "little.ptc").read_bytes()
        got, _ = read_container(tmp_path / "big.ptc")
        assert got["x"].dtype == np.dtype("<" + code)
        np.testing.assert_array_equal(got["x"], big)

    def test_zero_d_tensor_keeps_its_shape(self, tmp_path):
        tensors = {"a": np.float32(2.5), "b": np.array(-1.0), "c": np.array(0.25, ">f8")}
        path = tmp_path / "t.ptc"
        write_container(path, tensors)
        got, _ = read_container(path)
        for name, value in tensors.items():
            assert got[name].shape == (), name
            assert got[name] == value
        write_container(tmp_path / "again.ptc", got)
        assert (tmp_path / "again.ptc").read_bytes() == path.read_bytes()

    def test_read_holds_one_copy(self, tmp_path):
        path = tmp_path / "t.ptc"
        size = 8 << 20
        write_container(path, {"x": np.ones(size // 4, dtype=np.float32)})
        assert traced_peak(read_container, path) < 1.5 * size

    def test_write_adds_no_copy(self, tmp_path):
        size = 8 << 20
        tensors = {"x": np.ones(size // 4, dtype=np.float32), "y": np.zeros(3)}
        assert traced_peak(write_container, tmp_path / "t.ptc", tensors) < 0.5 * size

    def test_read_arrays_own_separate_writeable_memory(self, tmp_path):
        path = tmp_path / "t.ptc"
        write_container(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4),
                               "c": np.zeros(2, dtype=np.float32), "d": np.zeros(0)})
        got, _ = read_container(path)
        for arr in got.values():
            assert arr.flags.writeable and arr.flags.owndata and arr.base is None
        names = sorted(got)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert not np.shares_memory(got[a], got[b])

    def test_tensor_larger_than_file_is_not_allocated(self, tmp_path):
        path = tmp_path / "t.ptc"
        write_container(path, {"x": np.ones(4), "y": np.ones(2)})
        rewrite_manifest(path, ("tensors", "y", "shape"), [1 << 28])
        rewrite_manifest(path, ("tensors", "y", "nbytes"), 8 << 28)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="'y' byte range"):
                read_container(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_zero_size_shape_numpy_cannot_index_is_config_error(self, tmp_path):
        path = tmp_path / "t.ptc"
        write_container(path, {"x": np.zeros(0)})
        rewrite_manifest(path, ("tensors", "x", "shape"), [0, 1 << 70])
        with pytest.raises(ConfigError, match="'x'"):
            read_container(path)

    def test_prefixes_select_tensors_and_check_every_entry(self, tmp_path):
        path = tmp_path / "t.ptc"
        write_container(path, {"weights/a": np.ones(2), "opt/m/a": np.zeros(2),
                               "prompt/0": np.ones(3)})
        got, _ = read_container(path, prefixes=("weights/", "prompt/"))
        assert sorted(got) == ["prompt/0", "weights/a"]
        rewrite_manifest(path, ("tensors", "opt/m/a", "offset"), 10_000)
        with pytest.raises(ConfigError, match="opt/m/a"):
            read_container(path, prefixes=("weights/",))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_value_is_config_error(self, tmp_path, bad, dtype):
        path = tmp_path / "t.ptc"
        x = np.ones((2, 3), dtype=dtype)
        x[1, 2] = bad
        write_container(path, {"ok": np.ones(2), "x/y": x})
        with pytest.raises(ConfigError, match=f"{path}.*'x/y'.*non-finite"):
            read_container(path)
        assert read_container(path, prefixes=("ok",))[0].keys() == {"ok"}

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "t.ptc"
        write_container(path, {"x": np.ones(2)})
        rewrite_manifest(path, ("version",), 99)
        with pytest.raises(ConfigError, match="version"):
            read_container(path)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        records = synth_generate(3, 8, 17, seed=1)
        path = tmp_path / "d.ptc"
        save_dataset(path, records)
        loaded = load_dataset(path)
        assert [r.seq_id for r in loaded] == [r.seq_id for r in records]
        for a, b in zip(records, loaded):
            np.testing.assert_array_equal(a.keypoints_2d, b.keypoints_2d)
            np.testing.assert_array_equal(a.gt_3d, b.gt_3d)
            assert a.action == b.action
            assert a.camera == b.camera

    def test_frame_count_mismatch_names_record(self, tmp_path):
        records = synth_generate(2, 8, 17, seed=1)
        path = tmp_path / "d.ptc"
        save_dataset(path, records)
        tensors, meta = read_container(path)
        meta["sequences"][0]["n_frames"] = 10  # blob still holds 8
        write_container(path, tensors, meta)
        with pytest.raises(ConfigError, match="seq000"):
            load_dataset(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_DATASET_ENTRIES))
    def test_rejects_malformed_index_entry(self, tmp_path, case):
        path = tmp_path / "d.ptc"
        save_dataset(path, synth_generate(2, 4, 17, seed=1))
        keys, value, error = MALFORMED_DATASET_ENTRIES[case]
        rewrite_manifest(path, ("meta", "sequences") + keys, value)
        with pytest.raises(ConfigError, match=error):
            load_dataset(path)
        assert main(["train", "--preset", "tiny", "--data", str(path),
                     "--out", str(tmp_path / "run"), "--steps", "1"]) == 1

    def test_duplicate_id_names_record(self, tmp_path, capsys):
        path = tmp_path / "d.ptc"
        save_dataset(path, synth_generate(2, 8, 17, seed=1))
        tensors, meta = read_container(path)
        meta["sequences"].append(dict(meta["sequences"][1]))
        write_container(path, tensors, meta)
        with pytest.raises(ConfigError, match="'seq001' appears twice"):
            load_dataset(path)
        run = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--preset", "tiny", "--data", str(path), "--out", str(run),
                     "--steps", "1"]) == 1
        assert "'seq001'" in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_DATASET_TENSORS))
    def test_rejects_malformed_record_tensor(self, tmp_path, capsys, case):
        path = tmp_path / "d.ptc"
        records = synth_generate(2, 8, 17, seed=1) + synth_generate_multi(2, 8, 17, seed=2)
        save_dataset(path, records)
        sid, name, mutation, error = MALFORMED_DATASET_TENSORS[case]
        tensors, meta = read_container(path)
        key = f"seq/{sid}/{name}"
        if mutation is DELETE:
            del tensors[key]
        else:
            tensors[key] = mutation(tensors[key])
        write_container(path, tensors, meta)
        named = f"{re.escape(str(path))}: record '{sid}'"
        with pytest.raises(ConfigError, match=f"{named}.*{error}"):
            load_dataset(path)
        run = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--preset", "tiny", "--data", str(path), "--out", str(run),
                     "--steps", "1"]) == 1
        assert re.search(named, capsys.readouterr().err)
        assert not run.exists()

    def test_inference_only_record(self, tmp_path):
        rec = SequenceRecord(
            seq_id="x",
            keypoints_2d=np.zeros((4, 17, 2)),
            gt_3d=None,
            action="walk_cycle",
            camera=CameraIntrinsics(1000, 1000, 500, 500),
        )
        path = tmp_path / "d.ptc"
        save_dataset(path, [rec])
        loaded = load_dataset(path)[0]
        assert loaded.gt_3d is None

    def test_record_validation(self):
        with pytest.raises(ShapeError):
            SequenceRecord("bad", np.zeros((4, 17, 2)), np.zeros((5, 17, 3)), "a", None)
        with pytest.raises(ShapeError):
            SequenceRecord(
                "bad",
                np.ones((4, 17, 2)),
                None,
                "a",
                None,
                presence=np.array([True, False, True, True]),
            )


class TestSynth:
    def bone_lengths(self, gt):
        lengths = []
        for j in range(1, gt.shape[1]):
            p = PARENTS_17[j]
            lengths.append(np.linalg.norm(gt[:, j] - gt[:, p], axis=-1))
        return np.stack(lengths)

    @pytest.mark.parametrize("kind", ["walk_cycle", "arm_wave", "sit"])
    def test_bone_lengths_constant(self, kind):
        rec = synth_generate(1, 12, 17, seed=2, motion_kind=kind)[0]
        lengths = self.bone_lengths(rec.gt_3d)
        assert np.abs(lengths - lengths[:, :1]).max() < 1e-9

    def test_keypoints_are_exact_reprojections(self):
        rec = synth_generate(1, 6, 17, seed=3)[0]
        np.testing.assert_array_equal(rec.keypoints_2d, reproject(rec.gt_3d, rec.camera))

    def test_seed_determinism(self):
        a = synth_generate(2, 5, 17, seed=4)
        b = synth_generate(2, 5, 17, seed=4)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.gt_3d, y.gt_3d)

    def test_action_labels(self):
        recs = synth_generate(3, 4, 17, seed=5, motion_kind="mixed")
        assert [r.action for r in recs] == ["walk_cycle", "arm_wave", "sit"]
        recs = synth_generate(2, 4, 17, seed=5, motion_kind="sit")
        assert all(r.action == "sit" for r in recs)

    def test_positive_depth(self):
        for rec in synth_generate(4, 10, 17, seed=6):
            assert rec.gt_3d[..., 2].min() > 1000.0

    def test_truncated_joint_count(self):
        rec = synth_generate(1, 4, 11, seed=7)[0]
        assert rec.gt_3d.shape == (4, 11, 3)
        with pytest.raises(ConfigError):
            synth_generate(1, 4, 4, seed=7)
        with pytest.raises(ConfigError):
            synth_generate(1, 4, 18, seed=7)

    def test_multi_scene(self):
        recs = synth_generate_multi(3, 8, 17, seed=8)
        assert len(recs) == 3
        assert all(r.scene == "scene000" for r in recs)
        assert [r.character for r in recs] == [0, 1, 2]
        absent = ~recs[1].presence
        assert absent.any()
        assert np.abs(recs[1].keypoints_2d[absent]).max() == 0.0
        # characters share the frame count
        assert len({r.n_frames for r in recs}) == 1


class TestNormalize:
    def test_root_centering(self):
        rec = synth_generate(1, 6, 17, seed=9)[0]
        norm, params = normalize_record(rec, "root_centered")
        np.testing.assert_allclose(norm.gt_3d[:, 0], 0.0, atol=1e-12)
        assert np.abs(norm.gt_3d).max() < 2.0  # meters scale

    def test_round_trip_identity(self):
        rec = synth_generate(1, 6, 17, seed=10)[0]
        for mode in ("root_centered", "image_normalized"):
            norm, params = normalize_record(rec, mode)
            back = denormalize_poses(norm.gt_3d, params)
            np.testing.assert_allclose(back, rec.gt_3d, atol=1e-9)

    def test_metrics_preserved_through_round_trip(self):
        rec = synth_generate(1, 6, 17, seed=11)[0]
        norm, params = normalize_record(rec, "root_centered")
        pred_mm = denormalize_poses(norm.gt_3d, params)
        assert mpjpe(pred_mm, rec.gt_3d) < 1e-6

    def test_keypoint_normalization_invertible(self):
        # rays are ((u - cx) / fx, (v - cy) / fy): invertible for fx, fy > 0
        rec = synth_generate(1, 6, 17, seed=12)[0]
        cam = CameraIntrinsics(fx=800.0, fy=1200.0, cx=320.0, cy=240.0)
        rays = normalize_keypoints(rec.keypoints_2d, cam)
        u, v = rec.keypoints_2d[..., 0], rec.keypoints_2d[..., 1]
        np.testing.assert_array_equal(rays[..., 0], (u - 320.0) / 800.0)
        np.testing.assert_array_equal(rays[..., 1], (v - 240.0) / 1200.0)

    def test_masked_frames_zero_in_keypoints_only(self):
        recs = synth_generate_multi(2, 8, 17, seed=13)
        rec = recs[1]
        norm, params = normalize_record(rec, "root_centered")
        absent = ~rec.presence
        # the zero-fill contract covers 2D inputs; 3D stays valid everywhere
        assert np.abs(norm.keypoints_2d[absent]).max() == 0.0
        back = denormalize_poses(norm.gt_3d, params)
        np.testing.assert_allclose(back, rec.gt_3d, atol=1e-9)

    def test_root_centered_requires_gt(self):
        rec = SequenceRecord(
            "x", np.ones((3, 17, 2)), None, "a", CameraIntrinsics(1000, 1000, 500, 500)
        )
        with pytest.raises(ConfigError):
            normalize_record(rec, "root_centered")
        norm, _ = normalize_record(rec, "image_normalized")
        assert norm.gt_3d is None
