import numpy as np
import pytest

from lane3d_kit.config import DatasetProfile, make_profile
from lane3d_kit.evaluation import EvalConfigOL, evaluate_openlane
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


def test_rasterize_empty_scene_is_zero():
    rig = build_rig(SceneSpec())
    fm = rasterize_features([], rig, (*rig.feature_size, 2), sigma=4.0)
    np.testing.assert_array_equal(fm.data, 0.0)


# Cell centres at x = -2..2, y = 0..3 and z = -1..1, one metre apart.
VOLUME_DIMS = (3, 4, 5, 2)
VOLUME_EXTENT = np.array([[-2.0, 2.0], [0.0, 3.0], [-1.0, 1.0]])


def point_lane(xyz, visibility=1.0):
    x, y, z = xyz
    return Lane3D(x=[x], y=[y], z=[z], visibility=[visibility])


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
