from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lane3d_kit.config import DatasetProfile, make_profile
from lane3d_kit.evaluation import EvalConfigOL, evaluate_openlane
from lane3d_kit.geometry import project_points_to_feature
from lane3d_kit.head import Proposal
from lane3d_kit.lanes import Lane3D
from lane3d_kit.losses import LossConfig, ew_loss
from lane3d_kit.synth import (
    NoiseSpec,
    SceneSpec,
    build_rig,
    generate_scene,
    perturb_predictions,
    rasterize_features,
    rasterize_volume,
)
from lane3d_kit.sampling import FeatureMap, FeatureVolume, trilinear_sample

from conftest import unit_rig


def test_two_straight_lanes():
    profile = make_profile("openlane")
    gts, rig = generate_scene(SceneSpec(n_lanes=2, spacing=3.5), profile)
    np.testing.assert_allclose(gts[0].x, -1.75, atol=1e-12)
    np.testing.assert_allclose(gts[1].x, 1.75, atol=1e-12)
    np.testing.assert_array_equal(gts[0].z, 0.0)
    assert all(g.visible_mask.all() for g in gts)
    value, _ = ew_loss(np.array([g.x for g in gts]), profile.y_samples, LossConfig())
    assert value == 0.0


def test_shared_linear_curvature_is_parallel():
    profile = make_profile("openlane")
    spec = SceneSpec(n_lanes=3, curvature=(1.0, 0.05))
    gts, _ = generate_scene(spec, profile)
    value, _ = ew_loss(np.array([g.x for g in gts]), profile.y_samples, LossConfig())
    assert value == pytest.approx(0.0, abs=1e-12)


def test_slope_polynomial_hand_value():
    profile = DatasetProfile("custom", np.linspace(0.0, 100.0, 21), 1)
    gts, _ = generate_scene(SceneSpec(n_lanes=1, slope=(0.0, 0.02)), profile)
    k50 = int(np.where(profile.y_samples == 50.0)[0][0])
    assert gts[0].z[k50] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("c", [1e-320, -1e-320, 1e-300])
def test_a_term_whose_power_overflows_is_finite_where_the_term_is(c):
    profile = DatasetProfile("custom", np.array([-103.0, -3.0, 3.0, 103.0]), 1)
    (lane,), _ = generate_scene(SceneSpec(n_lanes=1, curvature=(0.0,) * 199 + (c,)), profile)
    want = [float(Fraction(c) * Fraction(y) ** 199) for y in profile.y_samples]
    np.testing.assert_allclose(lane.x, want, rtol=1e-12)


def test_fork_mode_bends_one_lane():
    profile = make_profile("openlane")
    spec = SceneSpec(n_lanes=2, fork_lane=1, fork_coefficient=0.001)
    gts, _ = generate_scene(spec, profile)
    gaps = gts[1].x - gts[0].x
    assert gaps[-1] > gaps[0] + 1.0


def test_scene_determinism():
    profile = make_profile("openlane")
    spec = SceneSpec(n_lanes=3, curvature=(0.0, 0.01), slope=(0.0, 0.002), seed=42)
    a, rig_a = generate_scene(spec, profile)
    b, rig_b = generate_scene(spec, profile)
    for la, lb in zip(a, b):
        np.testing.assert_array_equal(la.x, lb.x)
        np.testing.assert_array_equal(la.z, lb.z)
        np.testing.assert_array_equal(la.visibility, lb.visibility)
    np.testing.assert_array_equal(rig_a.K, rig_b.K)
    np.testing.assert_array_equal(rig_a.T_gc, rig_b.T_gc)


def point_lane(xyz, visibility=1.0):
    x, y, z = xyz
    return Lane3D(x=[x], y=[y], z=[z], visibility=[visibility])


def test_rasterize_empty_scene_is_zero():
    rig = build_rig(SceneSpec())
    fm = rasterize_features([], rig, (*rig.feature_size, 2), sigma=4.0)
    np.testing.assert_array_equal(fm.data, 0.0)


# On unit_rig(8) the ground point (0, 37.5, 0) projects exactly onto the centre
# of feature cell (row 23, column 30), and (3, 37.5, 0) onto (23, 31).
ON_CELL = (0.0, 37.5, 0.0)
ONE_CELL_RIGHT = (3.0, 37.5, 0.0)


def test_feature_splat_is_one_at_its_cell_centre_in_channel_0():
    rig = unit_rig(8)
    fm = rasterize_features([point_lane(ON_CELL)], rig, (45, 60, 3), sigma=1.5, level=4)
    assert fm.level == 4 and fm.data.shape == (45, 60, 3)
    assert fm.data[23, 30, 0] == 1.0 and fm.data[..., 0].max() == 1.0
    np.testing.assert_array_equal(fm.data[..., 1:], 0.0)
    one_away = np.exp(-1.0 / (2.0 * 1.5 ** 2))
    for row, col in ((22, 30), (24, 30), (23, 29), (23, 31)):
        assert fm.data[row, col, 0] == one_away, (row, col)
    assert fm.data[22, 31, 0] == np.exp(-2.0 / (2.0 * 1.5 ** 2))


def test_overlapping_feature_splats_combine_by_max():
    rig = unit_rig(8)
    lanes = [point_lane(ON_CELL), point_lane(ONE_CELL_RIGHT)]
    fm = rasterize_features(lanes, rig, (45, 60, 1), sigma=2.0)
    one_away = np.exp(-1.0 / (2.0 * 2.0 ** 2))
    assert fm.data[23, 30, 0] == 1.0 and fm.data[23, 31, 0] == 1.0
    assert fm.data[23, 29, 0] == one_away and fm.data[23, 32, 0] == one_away
    assert fm.data.max() == 1.0


@pytest.mark.parametrize("lane", [
    point_lane(ON_CELL, visibility=0.0),
    point_lane((0.0, -37.5, 0.0)),
    point_lane((0.0, 0.0, 0.0)),
], ids=["invisible", "behind-camera", "on-camera-plane"])
def test_feature_splat_skips_invisible_and_behind_camera_points(lane):
    fm = rasterize_features([lane], unit_rig(8), (45, 60, 2), sigma=3.0)
    np.testing.assert_array_equal(fm.data, 0.0)


# Cell centres at x = -2..2, y = 0..3 and z = -1..1, one metre apart.
VOLUME_DIMS = (3, 4, 5, 2)
VOLUME_EXTENT = np.array([[-2.0, 2.0], [0.0, 3.0], [-1.0, 1.0]])


def test_volume_splat_peaks_at_its_cell_centre_in_channel_0():
    fv = rasterize_volume([point_lane((0.0, 1.0, 0.0))], VOLUME_DIMS, VOLUME_EXTENT)
    assert fv.data.shape == VOLUME_DIMS
    assert fv.data[1, 1, 2, 0] == 1.0 and fv.data[..., 0].max() == 1.0
    np.testing.assert_array_equal(fv.data[..., 1], 0.0)
    # One cell away along z, y and x, on either side.
    for index in ((0, 1, 2), (2, 1, 2), (1, 0, 2), (1, 2, 2), (1, 1, 1), (1, 1, 3)):
        assert fv.data[(*index, 0)] == np.exp(-0.5), index


def test_volume_ignores_invisible_points():
    fv = rasterize_volume([point_lane((0.0, 1.0, 0.0), visibility=0.0)], VOLUME_DIMS,
                          VOLUME_EXTENT)
    np.testing.assert_array_equal(fv.data, 0.0)


def test_volume_single_cell_axis_centre_is_mid_extent():
    extent = np.array([[-1.0, 3.0], [0.0, 10.0], [-2.0, 0.0]])
    fv = rasterize_volume([point_lane((1.0, 5.0, -1.0))], (1, 1, 1, 1), extent)
    assert fv.data[0, 0, 0, 0] == 1.0
    off = rasterize_volume([point_lane((1.5, 5.0, -1.0))], (1, 1, 1, 1), extent)
    assert off.data[0, 0, 0, 0] < 1.0


@seed(2601)
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.tuples(*[st.integers(1, 30)] * 3))
def test_the_renderer_and_the_sampler_place_the_volume_cells_alike(draw_seed, counts):
    # counts are the cells along z, y and x; every axis has one cell in some examples.
    rng = np.random.default_rng(draw_seed)
    lo = rng.uniform(-100.0, 100.0, size=3)
    extent = np.stack([lo, lo + rng.uniform(1e-3, 200.0, size=3)], axis=1)
    dims = (*counts, 1)
    grid = FeatureVolume(data=np.zeros(dims), extent=extent)
    cell = tuple(int(rng.integers(n)) for n in counts)
    point = np.array([grid.centres[k][cell[2 - k]] for k in range(3)])  # x, y, z
    fv = rasterize_volume([point_lane(point)], dims, extent)
    assert fv.data[(*cell, 0)] == 1.0 == fv.data.max()
    values, valid = trilinear_sample(fv, point[None])
    # The sampler maps a centre to its cell index within a few roundings of
    # the coordinates, measured in cells.
    tol = 4 * np.finfo(float).eps * np.max(np.abs(extent).max(axis=1) / grid.spacing)
    assert valid[0] and abs(values[0, 0] - 1.0) <= tol
    for k in range(3):
        if counts[2 - k] == 1:
            off = point.copy()
            off[k] += rng.choice([-1.0, 1.0]) * rng.uniform(1e-9, 1.0) * grid.spacing[k]
            assert not trilinear_sample(fv, off[None])[1][0], k


def test_perturb_zero_noise_is_oracle():
    profile = make_profile("openlane")
    gts, _ = generate_scene(SceneSpec(n_lanes=2), profile)
    props = perturb_predictions(gts, NoiseSpec(), seed=0, num_categories=profile.num_categories)
    assert len(props) == 2
    for p, g in zip(props, gts):
        np.testing.assert_array_equal(p.x, g.x)
        np.testing.assert_array_equal(p.z, g.z)
        np.testing.assert_array_equal(p.vis, g.visibility)
        assert p.score == 1.0
        assert p.category == g.category


def test_perturb_score_and_offsets():
    profile = make_profile("openlane")
    gts, _ = generate_scene(SceneSpec(n_lanes=1), profile)
    props = perturb_predictions(
        gts, NoiseSpec(lateral_offset=0.5, z_offset=-0.25, score=0.7), seed=0,
        num_categories=profile.num_categories,
    )
    np.testing.assert_allclose(props[0].x - gts[0].x, 0.5, atol=1e-15)
    np.testing.assert_allclose(props[0].z - gts[0].z, -0.25, atol=1e-15)
    assert props[0].score == pytest.approx(0.7)
    assert props[0].class_probs.sum() == pytest.approx(1.0)


def test_perturb_drop_all():
    profile = make_profile("openlane")
    gts, _ = generate_scene(SceneSpec(n_lanes=4), profile)
    props = perturb_predictions(gts, NoiseSpec(drop_rate=1.0), seed=3,
                                num_categories=profile.num_categories)
    assert props == []


def test_perturb_deterministic_in_seed():
    profile = make_profile("openlane")
    gts, _ = generate_scene(SceneSpec(n_lanes=6), profile)
    a = perturb_predictions(gts, NoiseSpec(drop_rate=0.5), seed=9,
                            num_categories=profile.num_categories)
    b = perturb_predictions(gts, NoiseSpec(drop_rate=0.5), seed=9,
                            num_categories=profile.num_categories)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.x, pb.x)


def random_spec(rng):
    return SceneSpec(
        n_lanes=int(rng.integers(1, 6)),
        spacing=float(rng.uniform(3.0, 4.5)),
        curvature=(float(rng.uniform(-2, 2)), float(rng.uniform(-0.05, 0.05)),
                   float(rng.uniform(-4e-4, 4e-4))),
        slope=(0.0, float(rng.uniform(-0.02, 0.02))),
        camera_pitch=float(rng.uniform(-0.03, 0.03)),
        seed=int(rng.integers(0, 2**32)),
    )


def test_self_consistency_oracle_loop(rng):
    profile = make_profile("openlane")
    cfg = EvalConfigOL(y_eval_samples=profile.y_samples)
    for _ in range(20):
        spec = random_spec(rng)
        gts, _ = generate_scene(spec, profile)
        props = perturb_predictions(gts, NoiseSpec(), seed=spec.seed,
                                    num_categories=profile.num_categories)
        lanes = [p.to_lane(profile.y_samples) for p in props]
        report = evaluate_openlane([(gts, lanes)], cfg)
        assert report.f1 == 100.0
        assert report.ap == 100.0
        assert report.category_accuracy == 100.0
        assert max(report.ex_near, report.ex_far, report.ez_near, report.ez_far) < 1e-9


# --- the per-point loop forms, kept as references ------------------------------------
#
# generate_scene, rasterize_features, rasterize_volume and perturb_predictions
# as they were written with one projection per lane, one full-grid bump per
# point and one random draw per lane.  The array forms must match them bit for
# bit.


def loop_polyval(coeffs, y):
    out = np.zeros_like(y)
    for power, c in enumerate(coeffs):
        out += c * y ** power
    return out


def loop_generate_scene(spec, profile, with_lidar=False):
    rig = build_rig(spec, with_lidar=with_lidar)
    y = profile.y_samples
    z = loop_polyval(spec.slope, y)
    center = loop_polyval(spec.curvature, y)
    h_i, w_i = rig.image_size
    lanes = []
    for i in range(spec.n_lanes):
        offset = (i - (spec.n_lanes - 1) / 2.0) * spec.spacing
        x = center + offset
        if spec.fork_lane is not None and i == spec.fork_lane:
            x = x + spec.fork_coefficient * (y - y[0]) ** 2
        pts = np.stack([x, y, z], axis=1)
        uv, _, in_front = project_points_to_feature(pts, rig)
        u_pix = uv[:, 0] / rig.scale_u
        v_pix = uv[:, 1] / rig.scale_v
        vis = (
            in_front
            & (u_pix >= 0.0) & (u_pix <= w_i - 1.0)
            & (v_pix >= 0.0) & (v_pix <= h_i - 1.0)
        )
        lanes.append(Lane3D(x=x, y=y.copy(), z=z.copy(), visibility=vis.astype(np.float64),
                            category=i % profile.num_categories))
    return lanes, rig


def loop_rasterize_features(gts, rig, dims, sigma, level=5):
    h, w, c = dims
    data = np.zeros((h, w, c), dtype=np.float64)
    cols = np.arange(w, dtype=np.float64)
    rows = np.arange(h, dtype=np.float64)
    for lane in gts:
        mask = lane.visible_mask
        if not np.any(mask):
            continue
        uv, _, in_front = project_points_to_feature(lane.points[mask], rig)
        for (u, v), ok in zip(uv, in_front):
            if not ok:
                continue
            bump = np.exp(
                -((cols[None, :] - u) ** 2 + (rows[:, None] - v) ** 2) / (2.0 * sigma ** 2)
            )
            np.maximum(data[:, :, 0], bump, out=data[:, :, 0])
    return FeatureMap(data=data, level=level)


def loop_rasterize_volume(gts, dims, extent):
    d, h, w, c = dims
    extent = np.asarray(extent, dtype=np.float64)
    data = np.zeros((d, h, w, c), dtype=np.float64)
    axes = []
    for count, (lo, hi) in zip((w, h, d), extent):
        axes.append(np.linspace(lo, hi, count) if count > 1 else np.array([(lo + hi) / 2.0]))
    xs, ys, zs = axes
    steps = [
        (hi - lo) / (count - 1) if count > 1 else (hi - lo)
        for count, (lo, hi) in zip((w, h, d), extent)
    ]
    for lane in gts:
        mask = lane.visible_mask
        for px, py, pz in lane.points[mask]:
            fx = (xs - px) / steps[0]
            fy = (ys - py) / steps[1]
            fz = (zs - pz) / steps[2]
            bump = np.exp(
                -(fz[:, None, None] ** 2 + fy[None, :, None] ** 2 + fx[None, None, :] ** 2)
                / 2.0
            )
            np.maximum(data[:, :, :, 0], bump, out=data[:, :, :, 0])
    return FeatureVolume(data=data, extent=extent)


def loop_perturb_predictions(gts, noise, seed, num_categories):
    rng = np.random.default_rng(seed)
    out = []
    for lane in gts:
        if rng.random() < noise.drop_rate:
            continue
        probs = np.zeros(num_categories + 1)
        probs[lane.category] = noise.score
        probs[num_categories] = 1.0 - noise.score
        out.append(Proposal(class_probs=probs, x=lane.x + noise.lateral_offset,
                            z=lane.z + noise.z_offset, vis=lane.visibility.copy()))
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenes(draw):
    """(spec, profile, with_lidar): forks at any lane, both profiles, varied rigs."""
    n_lanes = draw(st.integers(1, 6))
    scales = (3.0, 0.05, 5e-4, 3e-6)
    curvature = tuple(draw(floats(-s, s)) for s in scales[:draw(st.integers(1, 4))])
    slope = tuple(draw(floats(-s / 10, s / 10)) for s in scales[:draw(st.integers(1, 3))])
    fork = draw(st.none() | st.integers(0, n_lanes - 1))
    h_i, w_i = draw(st.sampled_from([(360, 480), (96, 128), (184, 248)]))
    spec = SceneSpec(
        n_lanes=n_lanes, spacing=draw(floats(0.5, 6.0)), curvature=curvature, slope=slope,
        camera_height=draw(floats(0.5, 3.0)), camera_pitch=draw(floats(-0.1, 0.1)),
        focal=draw(floats(40.0, 800.0)), image_size=(h_i, w_i),
        feature_stride=draw(st.sampled_from([4, 8])), fork_lane=fork,
        fork_coefficient=draw(floats(-5e-3, 5e-3)) if fork is not None else 0.0,
    )
    profile = make_profile(draw(st.sampled_from(["openlane", "once"])))
    return spec, profile, draw(st.booleans())


@seed(1901)
@settings(max_examples=150, deadline=None)
@given(scenes())
def test_generate_scene_matches_the_per_lane_loop_bitwise(scene):
    (gts, rig), (ref, ref_rig) = generate_scene(*scene), loop_generate_scene(*scene)
    assert len(gts) == len(ref)
    for lane, want in zip(gts, ref):
        for name in ("x", "y", "z", "visibility"):
            assert same_bits(getattr(lane, name), getattr(want, name)), name
        assert lane.category == want.category
    for name in ("K", "T_gc", "T_gl"):
        assert same_bits(getattr(rig, name), getattr(ref_rig, name)), name


@seed(1902)
@settings(max_examples=80, deadline=None)
@given(scenes(), floats(0.3, 10.0), st.integers(1, 3))
def test_rasterize_features_matches_the_per_point_loop_bitwise(scene, sigma, channels):
    gts, rig = generate_scene(*scene)
    dims = (*rig.feature_size, channels)
    got = rasterize_features(gts, rig, dims, sigma, level=3)
    want = loop_rasterize_features(gts, rig, dims, sigma, level=3)
    assert got.level == want.level and same_bits(got.data, want.data)


@seed(1903)
@settings(max_examples=80, deadline=None)
@given(scenes(), st.tuples(st.integers(1, 6), st.integers(1, 24), st.integers(1, 16),
                           st.integers(1, 2)))
def test_rasterize_volume_matches_the_per_point_loop_bitwise(scene, dims):
    gts, _ = generate_scene(*scene)
    extent = np.array([[-15.0, 15.0], [0.0, 105.0], [-2.0, 3.0]])
    got, want = rasterize_volume(gts, dims, extent), loop_rasterize_volume(gts, dims, extent)
    assert same_bits(got.data, want.data) and same_bits(got.extent, want.extent)


@seed(1904)
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), floats(0.0, 1.0))
def test_perturb_predictions_matches_the_per_lane_draws(draw_seed, n_lanes, drop_rate):
    profile = make_profile("openlane")
    gts, _ = generate_scene(SceneSpec(n_lanes=n_lanes), profile)
    noise = NoiseSpec(lateral_offset=0.3, z_offset=-0.1, score=0.8, drop_rate=drop_rate)
    got = perturb_predictions(gts, noise, draw_seed, profile.num_categories)
    want = loop_perturb_predictions(gts, noise, draw_seed, profile.num_categories)
    assert len(got) == len(want)
    for p, q in zip(got, want):
        for name in ("class_probs", "x", "z", "vis"):
            assert same_bits(getattr(p, name), getattr(q, name)), name
