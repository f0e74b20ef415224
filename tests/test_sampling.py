import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lane3d_kit.anchors import Anchor3D
from lane3d_kit.config import make_profile
from lane3d_kit.errors import LengthMismatch, MissingLidarExtrinsics, ShapeMismatch
from lane3d_kit.geometry import project_points_to_lidar
from lane3d_kit.sampling import (
    AnchorFeature,
    FeatureMap,
    FeatureVolume,
    bilinear_sample,
    fuse,
    sample_anchor_lidar,
    sample_anchors,
    sample_camera,
    sample_lidar,
    trilinear_sample,
)
from lane3d_kit.synth import SceneSpec, generate_scene, rasterize_features

from conftest import random_rotation, unit_rig


def grid2x2():
    return FeatureMap(data=np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(2, 2, 1))


def test_bilinear_exact_on_cell():
    fm = FeatureMap(data=np.arange(24, dtype=float).reshape(3, 4, 2))
    values, valid = bilinear_sample(fm, np.array([3.0, 0.0, 1.0]), np.array([2.0, 0.0, 1.0]))
    assert valid.all()
    np.testing.assert_array_equal(values, fm.data[[2, 0, 1], [3, 0, 1]])


def test_bilinear_center_average():
    values, valid = bilinear_sample(grid2x2(), np.array([0.5]), np.array([0.5]))
    assert valid[0] and values[0, 0] == 1.5


def test_bilinear_hand_weights():
    values, _ = bilinear_sample(grid2x2(), np.array([0.25, 0.75]), np.array([0.75, 0.25]))
    # (0.75*0.25)*0 + (0.25*0.25)*1 + (0.75*0.75)*2 + (0.25*0.75)*3
    assert values[0, 0] == pytest.approx(1.75, abs=1e-12)
    # (0.25*0.75)*0 + (0.75*0.75)*1 + (0.25*0.25)*2 + (0.75*0.25)*3
    assert values[1, 0] == pytest.approx(1.25, abs=1e-12)


def test_bilinear_out_of_range_is_zero_invalid():
    u = np.array([-0.01, 0.5, 0.5, 1.01, 1.0])
    v = np.array([0.5, 1.01, -0.01, 0.5, 1.0])
    values, valid = bilinear_sample(grid2x2(), u, v)
    assert valid.tolist() == [False, False, False, False, True]
    assert values[:, 0].tolist() == [0.0, 0.0, 0.0, 0.0, 3.0]


def test_bilinear_linear_in_data(rng):
    f1 = rng.normal(size=(4, 5, 3))
    f2 = rng.normal(size=(4, 5, 3))
    a, b = 0.7, -1.3
    u, v = rng.uniform(0, 4, size=20), rng.uniform(0, 3, size=20)
    s1, _ = bilinear_sample(FeatureMap(data=f1), u, v)
    s2, _ = bilinear_sample(FeatureMap(data=f2), u, v)
    s, _ = bilinear_sample(FeatureMap(data=a * f1 + b * f2), u, v)
    np.testing.assert_allclose(s, a * s1 + b * s2, atol=1e-12)


def test_bilinear_bounded_by_neighbors(rng):
    data = rng.normal(size=(5, 6, 1))
    u, v = rng.uniform(0, 5, size=50), rng.uniform(0, 4, size=50)
    values, _ = bilinear_sample(FeatureMap(data=data), u, v)
    for ui, vi, value in zip(u, v, values[:, 0]):
        u0, v0 = int(ui), int(vi)
        block = data[v0:v0 + 2, u0:u0 + 2, 0]
        assert block.min() - 1e-12 <= value <= block.max() + 1e-12


def volume_2x2x2():
    data = np.arange(8, dtype=float).reshape(2, 2, 2, 1)
    extent = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    return FeatureVolume(data=data, extent=extent)


def test_trilinear_exact_on_voxel_center():
    fv = volume_2x2x2()
    values, valid = trilinear_sample(fv, np.array([[1.0, 0.0, 1.0]]))  # ix=1, iy=0, iz=1
    assert valid[0]
    assert values[0, 0] == fv.data[1, 0, 1, 0]


def test_trilinear_center_of_block():
    values, valid = trilinear_sample(volume_2x2x2(), np.array([[0.5, 0.5, 0.5]]))
    assert valid[0] and values[0, 0] == pytest.approx(3.5, abs=1e-12)


def test_trilinear_matches_hand_weights(rng):
    data = rng.normal(size=(3, 3, 3, 2))
    extent = np.array([[-1.0, 1.0], [2.0, 6.0], [0.0, 0.5]])
    fv = FeatureVolume(data=data, extent=extent)
    fracs = rng.uniform(0, 2, size=(30, 3))  # fractional (ix, iy, iz)
    points = extent[:, 0] + fracs * (extent[:, 1] - extent[:, 0]) / 2.0
    values, valid = trilinear_sample(fv, points)
    assert valid.all()
    for frac, got in zip(fracs, values):
        # Hand oracle: explicit 8-corner weighted sum.
        x0, y0, z0 = (min(int(f), 1) for f in frac)
        fx, fy, fz = frac[0] - x0, frac[1] - y0, frac[2] - z0
        expected = np.zeros(2)
        for dz, wz in ((0, 1 - fz), (1, fz)):
            for dy, wy in ((0, 1 - fy), (1, fy)):
                for dx, wx in ((0, 1 - fx), (1, fx)):
                    expected += wz * wy * wx * data[z0 + dz, y0 + dy, x0 + dx]
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_trilinear_outside_extent():
    points = np.array([[2.0, 0.5, 0.5], [0.5, -0.1, 0.5], [0.5, 0.5, 1.5], [1.0, 1.0, 1.0]])
    values, valid = trilinear_sample(volume_2x2x2(), points)
    assert valid.tolist() == [False, False, False, True]
    assert values[:, 0].tolist() == [0.0, 0.0, 0.0, 7.0]


# --- the one interpolation against the two it replaced ------------------------------


def reference_bilinear(fm, u, v):
    """Bilinear interpolation as a sum of four weighted corners."""
    data = fm.data
    h, w, _ = data.shape
    valid = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    uc = np.clip(u, 0.0, w - 1.0)
    vc = np.clip(v, 0.0, h - 1.0)
    u0 = np.minimum(np.floor(uc).astype(np.intp), w - 2 if w > 1 else 0)
    v0 = np.minimum(np.floor(vc).astype(np.intp), h - 2 if h > 1 else 0)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = (uc - u0)[:, None]
    fv = (vc - v0)[:, None]
    out = (
        data[v0, u0] * (1.0 - fu) * (1.0 - fv)
        + data[v0, u1] * fu * (1.0 - fv)
        + data[v1, u0] * (1.0 - fu) * fv
        + data[v1, u1] * fu * fv
    )
    out[~valid] = 0.0
    return out, valid


def reference_volume_fractional_coords(fv, xyz):
    """LiDAR-frame points as fractional (iz, iy, ix) cells, with a second
    formula for single-cell axes."""
    d, h, w, _ = fv.data.shape
    counts = np.array([w, h, d], dtype=np.float64)  # x, y, z order
    span = fv.extent[:, 1] - fv.extent[:, 0]
    denom = np.where(counts > 1, span, 1.0)
    steps = np.where(counts > 1, denom / np.maximum(counts - 1, 1), 1.0)
    rel = (xyz - fv.extent[:, 0]) / steps
    single = counts == 1
    if np.any(single):
        mid = (fv.extent[:, 0] + fv.extent[:, 1]) * 0.5
        rel[:, single] = (xyz[:, single] - mid[single]) / steps[single]
    return rel[:, ::-1]


def reference_trilinear(fv, xyz):
    """Trilinear interpolation as hand-unrolled nested lerps, x innermost."""
    d, h, w, _ = fv.data.shape
    frac = reference_volume_fractional_coords(fv, np.asarray(xyz, dtype=np.float64))
    iz, iy, ix = frac[:, 0], frac[:, 1], frac[:, 2]
    valid = (
        (ix >= 0.0) & (ix <= w - 1.0)
        & (iy >= 0.0) & (iy <= h - 1.0)
        & (iz >= 0.0) & (iz <= d - 1.0)
    )
    ixc = np.clip(ix, 0.0, w - 1.0)
    iyc = np.clip(iy, 0.0, h - 1.0)
    izc = np.clip(iz, 0.0, d - 1.0)
    x0 = np.minimum(np.floor(ixc).astype(np.intp), w - 2 if w > 1 else 0)
    y0 = np.minimum(np.floor(iyc).astype(np.intp), h - 2 if h > 1 else 0)
    z0 = np.minimum(np.floor(izc).astype(np.intp), d - 2 if d > 1 else 0)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    z1 = np.minimum(z0 + 1, d - 1)
    fx = (ixc - x0)[:, None]
    fy = (iyc - y0)[:, None]
    fz = (izc - z0)[:, None]
    g = fv.data
    c00 = g[z0, y0, x0] * (1 - fx) + g[z0, y0, x1] * fx
    c01 = g[z0, y1, x0] * (1 - fx) + g[z0, y1, x1] * fx
    c10 = g[z1, y0, x0] * (1 - fx) + g[z1, y0, x1] * fx
    c11 = g[z1, y1, x0] * (1 - fx) + g[z1, y1, x1] * fx
    c0 = c00 * (1 - fy) + c01 * fy
    c1 = c10 * (1 - fy) + c11 * fy
    out = c0 * (1 - fz) + c1 * fz
    out[~valid] = 0.0
    return out, valid


# Where a drawn point lies along one grid axis of n cells, in cell units.
_AXIS_PLACES = ("center", "inside", "first", "last", "below", "above")


def _axis_coords(rng, places: np.ndarray, n: int) -> np.ndarray:
    """Fractional cell coordinates along an n-cell axis, one per place."""
    return np.select(
        [places == "center", places == "inside", places == "first", places == "last",
         places == "below"],
        [rng.integers(0, n, size=places.shape).astype(float),
         rng.uniform(0.0, n - 1.0, size=places.shape), np.zeros(places.shape),
         np.full(places.shape, n - 1.0), -rng.uniform(1e-9, 2.0, size=places.shape)],
        n - 1.0 + rng.uniform(1e-9, 2.0, size=places.shape),
    )


@st.composite
def grid_cases(draw, axes: int):
    """A grid whose ``axes`` leading sizes are 1 to 4 cells (so 1-cell axes
    are common), its values in [-1, 1], and (M, axes) fractional cell
    coordinates on cell centers, inside cells, on the grid's first and last
    centers, and outside it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = [draw(st.integers(1, 4)) for _ in range(axes)]
    data = rng.uniform(-1.0, 1.0, size=(*sizes, draw(st.integers(1, 3))))
    m = draw(st.integers(1, 12))
    places = np.array(draw(st.lists(st.sampled_from(_AXIS_PLACES), min_size=m * axes,
                                    max_size=m * axes))).reshape(m, axes)
    frac = np.stack([_axis_coords(rng, places[:, k], n) for k, n in enumerate(sizes)], axis=1)
    return rng, data, frac


@seed(14)
@settings(max_examples=300, deadline=None)
@given(grid_cases(axes=2))
def test_bilinear_sample_equals_the_four_corner_sum(case):
    # Values lie in [-1, 1], so a few roundings of difference stay below 1e-15.
    _, data, frac = case
    fm = FeatureMap(data=data)
    v, u = frac[:, 0], frac[:, 1]
    values, valid = bilinear_sample(fm, u, v)
    want, want_valid = reference_bilinear(fm, u, v)
    np.testing.assert_array_equal(valid, want_valid)
    np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-15)


@seed(14)
@settings(max_examples=300, deadline=None)
@given(grid_cases(axes=3))
def test_trilinear_sample_equals_the_nested_lerps_bitwise(case):
    rng, data, frac = case
    d, h, w, _ = data.shape
    lo = rng.uniform(-20.0, 20.0, size=3)
    hi = lo + rng.uniform(0.5, 30.0, size=3)
    fv = FeatureVolume(data=data, extent=np.stack([lo, hi], axis=1))
    # Map the (iz, iy, ix) cells to LiDAR-frame points; a single cell sits mid-extent.
    counts = np.array([w, h, d])
    step = np.where(counts > 1, (hi - lo) / np.maximum(counts - 1, 1), 1.0)
    origin = np.where(counts > 1, lo, (lo + hi) / 2)
    xyz = origin + frac[:, ::-1] * step
    values, valid = trilinear_sample(fv, xyz)
    want, want_valid = reference_trilinear(fv, xyz)
    np.testing.assert_array_equal(valid, want_valid)
    assert values.tobytes() == want.tobytes()


def anchor_at(x, n=5, y_span=(5.0, 45.0), z=0.0):
    y = np.linspace(*y_span, n)
    return Anchor3D(x=np.full(n, float(x)), y=y, z=np.full(n, float(z)))


def test_sample_anchor_behind_camera():
    rig = unit_rig(ratio=8)
    y = np.linspace(-50.0, -10.0, 5)
    anchor = Anchor3D(x=np.zeros(5), y=y, z=np.zeros(5))
    fm = FeatureMap(data=np.ones((45, 60, 2)))
    af = sample_anchors([anchor], fm, rig)[0]
    assert not af.valid.any()
    np.testing.assert_array_equal(af.values, 0.0)


def test_sample_anchor_constant_map():
    rig = unit_rig(ratio=8)
    fm = FeatureMap(data=np.full((45, 60, 3), 2.5))
    af = sample_anchors([anchor_at(0.0)], fm, rig)[0]
    assert af.valid.all()
    np.testing.assert_array_equal(af.values, 2.5)
    assert af.flat.shape == (15,)


def test_sample_anchor_hits_rasterized_lane_peak():
    profile = make_profile("openlane")
    gts, rig = generate_scene(SceneSpec(n_lanes=1, seed=0), profile)
    lane = gts[0]
    fm = rasterize_features(gts, rig, (*rig.feature_size, 1), sigma=6.0)
    anchor = Anchor3D(x=lane.x, y=lane.y, z=lane.z)
    af = sample_anchors([anchor], fm, rig)[0]
    visible = lane.visible_mask
    assert np.all(af.values[visible, 0] >= 0.99)


def test_sample_anchor_far_from_lane_is_tiny():
    profile = make_profile("openlane")
    gts, rig = generate_scene(SceneSpec(n_lanes=1, seed=0), profile)
    fm = rasterize_features(gts, rig, (*rig.feature_size, 1), sigma=2.0)
    # A 5 m offset at y in [10, 20] is 12.5+ feature cells laterally, i.e.
    # beyond 5 sigma from every splat of the centered lane.
    lane = gts[0]
    off = anchor_at(lane.x[0] + 5.0, n=3, y_span=(10.0, 20.0))
    af = sample_anchors([off], fm, rig)[0]
    assert af.valid.all()
    assert np.all(af.values < 1e-5)


def test_sample_anchor_feature_size_mismatch():
    rig = unit_rig(ratio=8)
    fm = FeatureMap(data=np.zeros((44, 60, 1)))
    with pytest.raises(ShapeMismatch):
        sample_anchors([anchor_at(0.0)], fm, rig)


def test_sample_anchors_permutation_consistent(rng):
    rig = unit_rig(ratio=8)
    fm = FeatureMap(data=rng.normal(size=(45, 60, 4)))
    anchors = [anchor_at(x) for x in (-3.0, -1.0, 0.5, 2.0)]
    feats = sample_anchors(anchors, fm, rig)
    perm = [2, 0, 3, 1]
    feats_p = sample_anchors([anchors[i] for i in perm], fm, rig)
    for row, i in enumerate(perm):
        np.testing.assert_array_equal(feats_p[row].values, feats[i].values)
        np.testing.assert_array_equal(feats_p[row].valid, feats[i].valid)


def lidar_rig():
    rig = unit_rig(ratio=8)
    rig.T_gl = np.hstack([np.eye(3), np.zeros((3, 1))])
    return rig


def test_sample_anchor_lidar_constant_volume():
    fv = FeatureVolume(
        data=np.full((3, 4, 5, 2), 1.25),
        extent=np.array([[-10.0, 10.0], [0.0, 50.0], [-1.0, 2.0]]),
    )
    af = sample_anchor_lidar(anchor_at(0.0), fv, lidar_rig())
    assert af.valid.all()
    np.testing.assert_array_equal(af.values, 1.25)


def test_sample_anchor_lidar_outside_extent():
    fv = FeatureVolume(
        data=np.ones((2, 2, 2, 1)),
        extent=np.array([[-1.0, 1.0], [100.0, 101.0], [-1.0, 1.0]]),
    )
    af = sample_anchor_lidar(anchor_at(0.0), fv, lidar_rig())
    assert not af.valid.any()


def test_sample_anchor_lidar_single_hot_voxel():
    data = np.zeros((3, 5, 3, 1))
    data[1, 2, 1, 0] = 7.0
    extent = np.array([[-10.0, 10.0], [5.0, 45.0], [-1.0, 1.0]])
    fv = FeatureVolume(data=data, extent=extent)
    # Voxel (iz=1, iy=2, ix=1) sits at x=0, y=25, z=0.
    anchor = Anchor3D(x=np.zeros(5), y=np.array([5.0, 15.0, 25.0, 35.0, 45.0]), z=np.zeros(5))
    af = sample_anchor_lidar(anchor, fv, lidar_rig())
    np.testing.assert_allclose(af.values[2, 0], 7.0, atol=1e-12)
    assert np.count_nonzero(af.values[:, 0] > 6.0) == 1


def test_sample_anchor_lidar_requires_extrinsics():
    fv = volume_2x2x2()
    with pytest.raises(MissingLidarExtrinsics):
        sample_anchor_lidar(anchor_at(0.0), fv, unit_rig(ratio=8))


# Where each LiDAR-frame coordinate of a drawn point lies relative to its axis's extent.
_PLACES = ("inside", "min", "max", "below", "above")


@st.composite
def lidar_cases(draw):
    """A volume (any axis may be a single cell), a LiDAR rig and anchors whose
    points fall inside the extent, outside it and exactly on its boundary.

    Anchors have at least two points, as on every dataset profile: a one-row
    matrix product goes through another BLAS kernel than a many-row one and
    may round differently.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, h, w, c = (draw(st.integers(1, 4)) for _ in range(4))
    lo = rng.uniform(-20.0, 20.0, size=3)
    hi = lo + rng.uniform(0.5, 30.0, size=3)
    fv = FeatureVolume(data=rng.normal(size=(d, h, w, c)), extent=np.stack([lo, hi], axis=1))
    rig = unit_rig(ratio=8)
    if draw(st.booleans()):
        # Identity extrinsics keep boundary coordinates exact in the LiDAR frame.
        rig.T_gl = np.hstack([np.eye(3), np.zeros((3, 1))])
    else:
        rig.T_gl = np.hstack([random_rotation(rng), rng.normal(scale=3.0, size=(3, 1))])
    m, n = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    places = np.array(draw(st.lists(st.sampled_from(_PLACES), min_size=m * n * 3,
                                    max_size=m * n * 3))).reshape(m * n, 3)
    margin = rng.uniform(1e-9, 5.0, size=places.shape)
    lidar_pts = np.select(
        [places == "inside", places == "min", places == "max", places == "below"],
        [rng.uniform(lo, hi, size=places.shape), np.broadcast_to(lo, places.shape),
         np.broadcast_to(hi, places.shape), lo - margin],
        hi + margin,
    )
    rot, t = rig.T_gl[:, :3], rig.T_gl[:, 3]
    ground = (lidar_pts - t) @ rot  # inverse of the rigid LiDAR transform
    anchors = [Anchor3D(x=p[:, 0], y=p[:, 1], z=p[:, 2]) for p in np.split(ground, m)]
    return anchors, fv, rig


@settings(max_examples=150, deadline=None)
@given(lidar_cases())
def test_batched_lidar_sampling_equals_each_anchor_alone(case):
    anchors, fv, rig = case
    feats = sample_lidar(np.stack([a.points for a in anchors]), fv, rig)
    assert feats.valid.shape == (len(anchors), len(anchors[0].x))
    for a, f_values, f_valid in zip(anchors, feats.values, feats.valid):
        values, valid = trilinear_sample(fv, project_points_to_lidar(a.points, rig))
        assert np.array_equal(f_values, values) and np.array_equal(f_valid, valid)
        one = sample_anchor_lidar(a, fv, rig)
        assert np.array_equal(one.values, values) and np.array_equal(one.valid, valid)


def test_batched_lidar_sampling_of_no_anchors_is_empty():
    feats = sample_lidar(np.empty((0, 5, 3)), volume_2x2x2(), lidar_rig())
    assert feats.values.shape == (0, 5, 1) and feats.valid.shape == (0, 5)
    assert feats.flat.shape == (0, 5)


def test_batched_lidar_sampling_requires_extrinsics():
    points = np.stack([anchor_at(0.0).points, anchor_at(1.0).points])
    with pytest.raises(MissingLidarExtrinsics):
        sample_lidar(points, volume_2x2x2(), unit_rig(ratio=8))


def test_batched_camera_sampling_equals_each_anchor_alone(rng):
    rig = unit_rig(ratio=8)
    fm = FeatureMap(data=rng.normal(size=(45, 60, 3)))
    anchors = [anchor_at(x, z=z) for x, z in ((-3.0, 0.0), (0.5, 40.0), (60.0, -1.0))]
    feats = sample_camera(np.stack([a.points for a in anchors]), fm, rig)
    assert feats.values.shape == (3, 5, 3) and feats.flat.shape == (3, 15)
    assert feats.valid.any() and not feats.valid.all()
    for a, f_values, f_valid, listed in zip(anchors, feats.values, feats.valid,
                                            sample_anchors(anchors, fm, rig)):
        one = sample_camera(a.points, fm, rig)
        assert np.array_equal(one.values, f_values) and np.array_equal(one.valid, f_valid)
        assert np.array_equal(listed.values, f_values) and np.array_equal(listed.valid, f_valid)


def test_batched_camera_sampling_of_no_anchors_is_empty():
    feats = sample_camera(np.empty((0, 5, 3)), FeatureMap(data=np.ones((45, 60, 2))),
                          unit_rig(ratio=8))
    assert feats.values.shape == (0, 5, 2) and feats.valid.shape == (0, 5)
    assert feats.flat.shape == (0, 10)
    assert sample_anchors([], FeatureMap(data=np.ones((45, 60, 2))), unit_rig(ratio=8)) == []
    with pytest.raises(ShapeMismatch):  # a wrong grid is refused also for no anchors
        sample_anchors([], FeatureMap(data=np.ones((44, 60, 2))), unit_rig(ratio=8))


def test_fuse_layout():
    cam = AnchorFeature(values=np.array([[1.0], [2.0]]), valid=np.array([True, True]))
    lid = AnchorFeature(values=np.array([[3.0], [4.0]]), valid=np.array([False, True]))
    fused = fuse(cam, lid)
    np.testing.assert_array_equal(fused.flat, [1.0, 3.0, 2.0, 4.0])
    np.testing.assert_array_equal(fused.valid, [True, True])


def test_fuse_invalid_lidar_padding():
    cam = AnchorFeature(values=np.array([[1.0, 2.0]]), valid=np.array([True]))
    lid = AnchorFeature(values=np.zeros((1, 3)), valid=np.array([False]))
    fused = fuse(cam, lid)
    np.testing.assert_array_equal(fused.values, [[1.0, 2.0, 0.0, 0.0, 0.0]])
    assert fused.valid[0]


def test_fuse_index_arithmetic_oracle(rng):
    n, c1, c2 = 4, 3, 2
    cam = AnchorFeature(values=rng.normal(size=(n, c1)), valid=np.ones(n, bool))
    lid = AnchorFeature(values=rng.normal(size=(n, c2)), valid=np.zeros(n, bool))
    flat = fuse(cam, lid).flat
    for k in range(n):
        for ch in range(c1):
            assert flat[k * (c1 + c2) + ch] == cam.values[k, ch]
        for ch in range(c2):
            assert flat[k * (c1 + c2) + c1 + ch] == lid.values[k, ch]


def test_fuse_length_mismatch():
    cam = AnchorFeature(values=np.zeros((2, 1)), valid=np.ones(2, bool))
    lid = AnchorFeature(values=np.zeros((3, 1)), valid=np.ones(3, bool))
    with pytest.raises(LengthMismatch, match="^camera has 2 points, lidar has 3$"):
        fuse(cam, lid)
    batch = AnchorFeature(values=np.zeros((4, 2, 1)), valid=np.ones((4, 2), bool))
    with pytest.raises(LengthMismatch, match="^camera has 4x2 points, lidar has 2$"):
        fuse(batch, AnchorFeature(values=np.zeros((2, 1)), valid=np.ones(2, bool)))


def test_fuse_of_a_batch_is_the_fuse_of_each_anchor(rng):
    m, n, c1, c2 = 3, 4, 2, 5
    cam = AnchorFeature(values=rng.normal(size=(m, n, c1)), valid=rng.random((m, n)) < 0.5)
    lid = AnchorFeature(values=rng.normal(size=(m, n, c2)), valid=rng.random((m, n)) < 0.5)
    fused = fuse(cam, lid)
    assert fused.values.shape == (m, n, c1 + c2) and fused.flat.shape == (m, n * (c1 + c2))
    for i in range(m):
        one = fuse(AnchorFeature(cam.values[i], cam.valid[i]),
                   AnchorFeature(lid.values[i], lid.valid[i]))
        assert np.array_equal(fused.flat[i], one.flat)
        assert np.array_equal(fused.valid[i], one.valid)


def test_anchor_feature_mask_must_match_the_leading_axes():
    with pytest.raises(ShapeMismatch):
        AnchorFeature(values=np.zeros((3, 4, 2)), valid=np.ones((3, 2), bool))
    with pytest.raises(ShapeMismatch):
        AnchorFeature(values=np.zeros(4), valid=np.ones(4, bool))
