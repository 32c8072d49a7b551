import numpy as np
import pytest

from posediff.exceptions import NumericsError, ShapeError
from posediff.metrics import (
    AUC_THRESHOLDS_MM,
    auc,
    compute_report,
    mpjpe,
    p_mpjpe,
    pck,
    procrustes_align,
)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def brute_mpjpe(pred, gt):
    """Independent oracle: scalar loops over frames and joints."""
    total, count = 0.0, 0
    for n in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            d = 0.0
            for c in range(3):
                d += (pred[n, j, c] - gt[n, j, c]) ** 2
            total += d**0.5
            count += 1
    return total / count


class TestMpjpe:
    def test_identical_is_zero(self):
        gt = np.random.default_rng(0).standard_normal((4, 17, 3))
        assert mpjpe(gt, gt) == 0.0

    def test_uniform_offset(self):
        gt = np.random.default_rng(1).standard_normal((3, 5, 3))
        pred = gt + np.array([10.0, 0.0, 0.0])
        assert mpjpe(pred, gt) == pytest.approx(10.0, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        pred = rng.standard_normal((2, 3, 3)) * 50
        gt = rng.standard_normal((2, 3, 3)) * 50
        assert mpjpe(pred, gt) == pytest.approx(brute_mpjpe(pred, gt), rel=1e-12)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 4, 3))
        b = rng.standard_normal((3, 4, 3))
        assert mpjpe(a, b) == pytest.approx(mpjpe(b, a), rel=1e-12)
        assert mpjpe(a, b) > 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mpjpe(np.zeros((2, 3, 3)), np.zeros((2, 4, 3)))


class TestProcrustes:
    def test_recovers_rigid_motion(self):
        rng = np.random.default_rng(4)
        gt = rng.standard_normal((5, 17, 3)) * 100
        rot = random_rotation(rng)
        pred = gt @ rot.T + np.array([50.0, -20.0, 5.0])
        aligned = procrustes_align(pred, gt)
        assert mpjpe(aligned, gt) < 1e-9

    def test_absorbs_pure_scale(self):
        rng = np.random.default_rng(5)
        gt = rng.standard_normal((3, 17, 3)) * 100
        aligned = procrustes_align(2.0 * gt, gt)
        assert mpjpe(aligned, gt) < 1e-9

    def test_rigid_only_keeps_scale_error(self):
        rng = np.random.default_rng(6)
        gt = rng.standard_normal((2, 17, 3)) * 100
        aligned = procrustes_align(2.0 * gt, gt, rigid_only=True)
        assert mpjpe(aligned, gt) > 1.0

    def test_aligned_never_worse_than_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pred = rng.standard_normal((2, 8, 3)) * 30
            gt = rng.standard_normal((2, 8, 3)) * 30
            raw_sse = ((pred - gt) ** 2).sum()
            aligned_sse = ((procrustes_align(pred, gt) - gt) ** 2).sum()
            assert aligned_sse <= raw_sse + 1e-9

    def test_rotation_is_proper(self):
        # Mirrored input must not be fixed by a reflection.
        rng = np.random.default_rng(8)
        gt = rng.standard_normal((1, 17, 3)) * 100
        mirrored = gt.copy()
        mirrored[..., 0] = -mirrored[..., 0]
        aligned = procrustes_align(mirrored, gt)
        assert mpjpe(aligned, gt) > 1.0

    def test_degenerate_frame_raises(self):
        gt = np.random.default_rng(9).standard_normal((1, 5, 3))
        flat = np.zeros((1, 5, 3))
        with pytest.raises(NumericsError, match="frame 0"):
            procrustes_align(flat, gt)


class TestPMpjpe:
    def test_identical_is_zero(self):
        gt = np.random.default_rng(10).standard_normal((3, 17, 3))
        assert p_mpjpe(gt, gt) < 1e-12

    def test_bounded_by_mpjpe_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pred = rng.standard_normal((2, 10, 3)) * 40
            gt = rng.standard_normal((2, 10, 3)) * 40
            assert p_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-9

    def test_invariant_under_similarity_motion(self):
        rng = np.random.default_rng(12)
        pred = rng.standard_normal((3, 17, 3)) * 100
        gt = rng.standard_normal((3, 17, 3)) * 100
        base = p_mpjpe(pred, gt)
        rot = random_rotation(rng)
        moved = 1.7 * pred @ rot.T + np.array([10.0, 20.0, -5.0])
        assert p_mpjpe(moved, gt) == pytest.approx(base, abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        pred = rng.standard_normal((2, 17, 3)) * 100
        gt = rng.standard_normal((2, 17, 3)) * 100
        assert p_mpjpe(pred + 123.0, gt) == pytest.approx(p_mpjpe(pred, gt), abs=1e-9)


class TestPck:
    def test_all_zero_errors(self):
        gt = np.zeros((2, 4, 3))
        assert pck(gt, gt, 150.0) == 100.0

    def test_half_beyond_threshold(self):
        gt = np.zeros((1, 4, 3))
        pred = np.zeros((1, 4, 3))
        pred[0, :2, 0] = 200.0  # two of four joints beyond 150mm
        assert pck(pred, gt, 150.0) == 50.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(14)
        pred = rng.standard_normal((3, 10, 3)) * 100
        gt = rng.standard_normal((3, 10, 3)) * 100
        values = [pck(pred, gt, t) for t in np.linspace(0, 300, 40)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_boundary_is_inclusive(self):
        gt = np.zeros((1, 1, 3))
        pred = np.array([[[150.0, 0.0, 0.0]]])
        assert pck(pred, gt, 150.0) == 100.0


class TestAuc:
    def test_all_zero_errors(self):
        gt = np.zeros((2, 3, 3))
        assert auc(gt, gt) == 100.0

    def test_all_errors_beyond_range(self):
        gt = np.zeros((2, 3, 3))
        pred = gt + np.array([500.0, 0.0, 0.0])
        assert auc(pred, gt) == 0.0

    def test_single_joint_75mm(self):
        gt = np.zeros((1, 1, 3))
        pred = np.array([[[75.0, 0.0, 0.0]]])
        # Brute-force enumeration over the documented grid.
        want = sum(
            (100.0 if 75.0 <= t else 0.0) for t in AUC_THRESHOLDS_MM
        ) / len(AUC_THRESHOLDS_MM)
        assert auc(pred, gt) == want

    def test_matches_brute_force_enumeration_exactly(self):
        rng = np.random.default_rng(15)
        pred = rng.standard_normal((3, 8, 3)) * 120
        gt = rng.standard_normal((3, 8, 3)) * 120
        vals = []
        for t in range(0, 151, 5):
            err = np.sqrt(((pred - gt) ** 2).sum(axis=-1))
            vals.append((err <= t).sum() / err.size * 100.0)
        assert auc(pred, gt) == sum(vals) / len(vals)


class TestReport:
    def test_per_action_breakdown(self):
        rng = np.random.default_rng(16)
        gt1 = rng.standard_normal((2, 5, 3)) * 40
        gt2 = rng.standard_normal((3, 5, 3)) * 40
        pairs = [
            ("a", "walk", gt1 + 10.0, gt1),
            ("b", "walk", gt1 + 20.0, gt1),
            ("c", "sit", gt2, gt2),
        ]
        rows = compute_report(pairs)
        assert [r[:5] for r in rows] == [
            ("sequence", "a", "walk", 2, 5),
            ("sequence", "b", "walk", 2, 5),
            ("sequence", "c", "sit", 3, 5),
            ("action", "sit", "sit", 1, 5),
            ("action", "walk", "walk", 2, 5),
            ("overall", "overall", "", 3, 5),
            ("overall_by_action", "overall_by_action", "", 3, 5),
        ]
        seq, act = {r[1]: r[5] for r in rows[:3]}, {r[1]: r[5] for r in rows[3:5]}
        assert act["sit"]["mpjpe_mm"] == pytest.approx(0.0, abs=1e-12)
        want_walk = (mpjpe(gt1 + 10.0, gt1) + mpjpe(gt1 + 20.0, gt1)) / 2
        assert act["walk"]["mpjpe_mm"] == pytest.approx(want_walk, rel=1e-12)
        # overall averages sequences; overall_by_action averages actions
        overall, by_action = rows[5][5], rows[6][5]
        assert overall["mpjpe_mm"] == pytest.approx(
            sum(m["mpjpe_mm"] for m in seq.values()) / 3, rel=1e-12
        )
        assert by_action["mpjpe_mm"] == pytest.approx(want_walk / 2, rel=1e-12)
        assert overall["p_mpjpe_mm"] <= overall["mpjpe_mm"] + 1e-9

    def test_row_p_mpjpe_may_exceed_mpjpe(self):
        # one joint far off: the least-squares alignment spreads its error
        gt = np.random.default_rng(17).standard_normal((1, 17, 3)) * 100
        pred = gt.copy()
        pred[0, 0] += 1000.0
        seq = compute_report([("s", "walk", pred, gt)])[0][5]
        assert seq["p_mpjpe_mm"] > seq["mpjpe_mm"]
