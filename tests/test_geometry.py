import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lane3d_kit.errors import InvalidRig, MissingLidarExtrinsics
from lane3d_kit.geometry import (
    MIN_DEPTH,
    CameraRig,
    project_points_to_feature,
    project_points_to_lidar,
)
from lane3d_kit.jsonable import from_json, to_json

from conftest import random_rig, random_rotation, unit_rig


def hand_project(k, t_gc, p, su, sv):
    """Independent oracle: explicit homogeneous matrix product."""
    hom = np.asarray(k) @ (np.asarray(t_gc) @ np.array([p[0], p[1], p[2], 1.0]))
    return su * hom[0] / hom[2], sv * hom[1] / hom[2], hom[2]


def hand_back_project(rig, u, v, depth):
    """Independent inverse of the projection given the depth: the camera
    point is depth * K^-1 (u / su, v / sv, 1), then undo T_gc."""
    cam = depth * np.linalg.solve(rig.K, [u / rig.scale_u, v / rig.scale_v, 1.0])
    return rig.T_gc[:, :3].T @ (cam - rig.T_gc[:, 3])


def project_one(p, rig):
    """(u, v, depth, in_front) of a single ground point."""
    uv, depth, in_front = project_points_to_feature(np.array([p], dtype=np.float64), rig)
    return uv[0, 0], uv[0, 1], depth[0], bool(in_front[0])


def test_optical_axis_maps_to_principal_point():
    assert project_one((0.0, 10.0, 1.5), unit_rig()) == (240.0, 180.0, 10.0, True)


def test_projection_matches_hand_matrix_product():
    rig = unit_rig()
    u, v, depth, _ = project_one((2.0, 10.0, 0.0), rig)
    # Oracle: camera coords (2, 1.5, 10) -> pixel (2600/10, 1950/10).
    expected = hand_project(rig.K, rig.T_gc, (2.0, 10.0, 0.0), 1.0, 1.0)
    assert expected == (260.0, 195.0, 10.0)
    assert (u, v, depth) == pytest.approx(expected, abs=1e-12)


def test_projection_applies_feature_ratio():
    u, v, depth, _ = project_one((2.0, 10.0, 0.0), unit_rig(ratio=8))
    assert (u, v, depth) == pytest.approx((260.0 / 8, 195.0 / 8, 10.0), abs=1e-12)


def test_point_behind_camera_raises():
    # Depth equals the ground y here; at or below MIN_DEPTH a point is not
    # in front of the camera and its uv stays at 0.
    pts = np.array([[0.0, -1.0, 0.0], [0.0, MIN_DEPTH, 0.0], [0.0, 2 * MIN_DEPTH, 0.0]])
    uv, depth, ok = project_points_to_feature(pts, unit_rig())
    assert depth.tolist() == [-1.0, MIN_DEPTH, 2 * MIN_DEPTH]
    assert ok.tolist() == [False, False, True]
    assert uv[:2].tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_batch_projection_flags_behind_camera(rng):
    rig = unit_rig()
    pts = np.array([[0.0, 10.0, 1.5], [0.0, -1.0, 0.0], [2.0, 10.0, 0.0]])
    uv, depth, ok = project_points_to_feature(pts, rig)
    assert ok.tolist() == [True, False, True]
    assert depth[1] == -1.0
    assert uv[2].tolist() == [260.0, 195.0]


def test_lidar_identity_and_translation():
    rig = unit_rig()
    rig.T_gl = np.hstack([np.eye(3), np.zeros((3, 1))])
    pts = np.array([[1.0, 2.0, 3.0]])
    assert project_points_to_lidar(pts, rig).tolist() == [[1.0, 2.0, 3.0]]
    rig.T_gl = np.hstack([np.eye(3), np.array([[0.0], [0.0], [-0.5]])])
    assert project_points_to_lidar(pts, rig).tolist() == [[1.0, 2.0, 2.5]]


def test_lidar_matches_homogeneous_oracle(rng):
    for _ in range(20):
        rig = random_rig(rng, with_lidar=True)
        pts = rng.normal(scale=10.0, size=(3, 3))
        got = project_points_to_lidar(pts, rig)
        t44 = np.vstack([rig.T_gl, [0.0, 0.0, 0.0, 1.0]])
        for p, row in zip(pts, got):
            np.testing.assert_allclose(row, (t44 @ np.append(p, 1.0))[:3], atol=1e-12)


def test_missing_lidar_extrinsics():
    with pytest.raises(MissingLidarExtrinsics):
        project_points_to_lidar(np.array([[0.0, 1.0, 0.0]]), unit_rig())


def test_back_project_inverts_example():
    rig = unit_rig()
    np.testing.assert_allclose(hand_back_project(rig, 240.0, 180.0, 10.0), [0.0, 10.0, 1.5],
                               atol=1e-12)
    assert project_one((0.0, 10.0, 1.5), rig) == (240.0, 180.0, 10.0, True)


def test_back_project_rejects_zero_depth():
    # A point on the camera plane has no inverse: the projection flags it.
    _, _, depth, in_front = project_one((240.0, 0.0, 180.0), unit_rig())
    assert depth == 0.0 and not in_front


def test_round_trip_random_points(rng):
    rig = random_rig(rng)
    pts = rng.normal(scale=15.0, size=(4000, 3))
    uv, depth, in_front = project_points_to_feature(pts, rig)
    keep = np.flatnonzero(in_front & (depth > 0.1))[:1000]
    assert keep.shape[0] == 1000
    for i in keep:
        np.testing.assert_allclose(hand_back_project(rig, *uv[i], depth[i]), pts[i], atol=1e-9)


def test_projection_linear_in_homogeneous_space(rng):
    # Midpoint of two equal-depth points projects to the uv midpoint.
    rig = random_rig(rng)
    r3 = rig.T_gc[2, :3]
    for _ in range(50):
        a = rng.normal(scale=10.0, size=3)
        b = rng.normal(scale=10.0, size=3)
        depth_a = r3 @ a + rig.T_gc[2, 3]
        if depth_a <= 0.5:
            continue
        # Slide b along the camera plane's normal so its depth matches a's.
        depth_b = r3 @ b + rig.T_gc[2, 3]
        b = b + (depth_a - depth_b) * r3 / (r3 @ r3)
        uv, _, ok = project_points_to_feature(np.array([a, b, 0.5 * (a + b)]), rig)
        assert ok.all()
        np.testing.assert_allclose(uv[2], 0.5 * (uv[0] + uv[1]), rtol=0, atol=1e-9)


def test_depth_equals_projection_third_row(rng):
    rig = random_rig(rng)
    P = rig.K @ rig.T_gc
    for _ in range(50):
        p = rng.normal(scale=10.0, size=3)
        expected = (P @ np.append(p, 1.0))[2]
        if expected <= 1e-6:
            continue
        # The batch projection adds the translation after the 3-term product,
        # so it may differ from the 4-term oracle in the last bits.
        assert project_one(p, rig)[2] == pytest.approx(expected, rel=0, abs=1e-12)


def test_rig_invariants():
    k = np.array([[100.0, 0.0, 240.0], [0.0, 100.0, 180.0], [0.0, 0.0, 1.0]])
    t = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.5], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(InvalidRig):
        bad_k = k.copy()
        bad_k[2, 2] = 2.0
        CameraRig(K=bad_k, T_gc=t, image_size=(360, 480), feature_size=(45, 60))
    with pytest.raises(InvalidRig):
        bad_t = t.copy()
        bad_t[:, :3] *= 2.0
        CameraRig(K=k, T_gc=bad_t, image_size=(360, 480), feature_size=(45, 60))
    with pytest.raises(InvalidRig):
        CameraRig(K=k, T_gc=t, image_size=(360, 480), feature_size=(45, 61))


@pytest.mark.parametrize("name, index, bad", [
    ("K", (0, 0), np.inf),
    ("T_gc", (2, 3), np.nan),
    ("K", (1, 2), -np.inf),
    ("T_gl", (0, 3), np.nan),
], ids=["K/0/0-inf", "T_gc/2/3-nan", "K/1/2--inf", "T_gl/0/3-nan"])
def test_rig_refuses_a_non_finite_value(name, index, bad):
    fields = {"K": unit_rig().K, "T_gc": unit_rig().T_gc, "T_gl": unit_rig().T_gc,
              "image_size": (360, 480), "feature_size": (45, 60)}
    fields[name] = fields[name].copy()
    fields[name][index] = bad
    with np.errstate(all="raise"):  # refused before it reaches any arithmetic
        with pytest.raises(InvalidRig, match=f"^{name} holds a non-finite value$"):
            CameraRig(**fields)


@pytest.mark.parametrize("index, bad", [((0, 0), np.inf), ((1, 2), -np.inf), ((2, 1), np.nan)],
                         ids=["0/0-inf", "1/2--inf", "2/1-nan"])
def test_rig_refuses_a_non_finite_rotation_without_a_warning(index, bad):
    t = unit_rig().T_gc.copy()
    t[index] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidRig, match="^rotation block of T_gc is not orthonormal$"):
            CameraRig(K=unit_rig().K, T_gc=t, image_size=(360, 480), feature_size=(45, 60))


@seed(1689)
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-8.0, -4.0),
       st.none() | st.tuples(st.integers(0, 8), st.sampled_from([np.nan, np.inf, -np.inf])))
def test_rig_rotation_check_is_allclose(draw_seed, log_scale, bad):
    rng = np.random.default_rng(draw_seed)
    rot = random_rotation(rng) + rng.normal(scale=10.0 ** log_scale, size=(3, 3))
    if bad is not None:
        rot.flat[bad[0]] = bad[1]
    with np.errstate(invalid="ignore"):
        close = np.allclose(rot @ rot.T, np.eye(3), atol=1e-6)
        try:
            CameraRig(K=unit_rig().K, T_gc=np.hstack([rot, np.ones((3, 1))]),
                      image_size=(360, 480), feature_size=(45, 60))
        except InvalidRig as e:
            assert "rotation block" in str(e)
            assert not close
        else:
            assert close


def test_rig_json_round_trip(rng):
    rig = random_rig(rng, with_lidar=True)
    clone = from_json(CameraRig, to_json(rig), "<rig>")
    np.testing.assert_array_equal(clone.K, rig.K)
    np.testing.assert_array_equal(clone.T_gc, rig.T_gc)
    np.testing.assert_array_equal(clone.T_gl, rig.T_gl)
    assert clone.image_size == rig.image_size
    assert clone.feature_size == rig.feature_size
