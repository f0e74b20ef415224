import numpy as np
import pytest

from lane3d_kit import head
from lane3d_kit.anchors import (
    Anchor3D,
    CoefficientHeadWeights,
    MetaRanges,
    PrototypeBank,
    generate_anchors,
    softmax_rows,
)
from lane3d_kit.config import make_profile
from lane3d_kit.errors import PipelineStageError, ShapeMismatch
from lane3d_kit.head import (
    HeadWeights,
    Proposal,
    StagePlan,
    predict,
    run_pipeline,
    self_attention,
)
from lane3d_kit.sampling import (
    FeatureMap,
    FeatureVolume,
    fuse,
    sample_anchor_lidar,
    sample_anchors,
)
from lane3d_kit.synth import SceneSpec, build_rig, generate_scene, rasterize_features


def anchors_at(xs, n=4):
    y = np.linspace(5.0, 35.0, n)
    return [Anchor3D(x=np.full(n, float(x)), y=y, z=np.zeros(n)) for x in xs]


def test_attention_zero_output_matrix_is_identity(rng):
    w = HeadWeights.random(rng, 6, 2, 2)
    w.w_o = np.zeros((6, 6))
    x = rng.normal(size=(4, 6))
    np.testing.assert_array_equal(self_attention(x, w), x)


def test_attention_single_row(rng):
    w = HeadWeights.random(rng, 5, 2, 1)
    x = rng.normal(size=(1, 5))
    expected = x + x @ w.w_v @ w.w_o
    np.testing.assert_allclose(self_attention(x, w), expected, atol=1e-12)


def test_attention_permutation_equivariance(rng):
    w = HeadWeights.random(rng, 8, 3, 2)
    x = rng.normal(size=(6, 8))
    y = self_attention(x, w)
    for _ in range(20):
        perm = rng.permutation(6)
        np.testing.assert_allclose(self_attention(x[perm], w), y[perm], atol=1e-12)


def test_attention_shape_mismatch(rng):
    w = HeadWeights.random(rng, 8, 3, 2)
    with pytest.raises(ShapeMismatch):
        self_attention(rng.normal(size=(4, 7)), w)


def zero_weights(c: int, s: int, n: int) -> HeadWeights:
    """All-zero head weights for C features, S categories and N points."""
    shapes = {"w_q": (c, c), "w_k": (c, c), "w_v": (c, c), "w_o": (c, c),
              "cls_w": (c, s + 1), "cls_b": (s + 1,), "reg_w": (c, 3 * n), "reg_b": (3 * n,)}
    return HeadWeights(**{name: np.zeros(shape) for name, shape in shapes.items()})


def test_predict_zero_network():
    n, s, c = 3, 4, 6
    w = zero_weights(c, s, n)
    anchors = anchors_at([-2.0, 1.0], n=n)
    feats = np.zeros((2, c))
    props = predict(feats, anchors, w)
    for p, a in zip(props, anchors):
        np.testing.assert_allclose(p.class_probs, 1.0 / (s + 1), atol=1e-12)
        np.testing.assert_array_equal(p.x, a.x)
        np.testing.assert_array_equal(p.z, a.z)
        np.testing.assert_allclose(p.vis, 0.5, atol=1e-15)


def test_predict_bias_only_offset():
    n, s, c = 3, 1, 4
    w = zero_weights(c, s, n)
    w.reg_b[:n] = 1.0  # x offsets
    anchors = anchors_at([0.5], n=n)
    props = predict(np.zeros((1, c)), anchors, w)
    np.testing.assert_allclose(props[0].x, anchors[0].x + 1.0, atol=1e-15)
    np.testing.assert_array_equal(props[0].z, anchors[0].z)


def test_predict_matches_hand_matmul_oracle(rng):
    m_a, n, c, s = 2, 3, 4, 2
    w = HeadWeights.random(rng, c, s, n, scale=0.5)
    x = rng.normal(size=(m_a, c))
    anchors = anchors_at([-1.0, 2.0], n=n)
    props = predict(x, anchors, w)

    # Hand oracle: every product written out with explicit loops.
    def hand_softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    q, k, v = x @ w.w_q, x @ w.w_k, x @ w.w_v
    scores = np.array([[q[i] @ k[j] for j in range(m_a)] for i in range(m_a)])
    attn = np.stack([hand_softmax(r / np.sqrt(c)) for r in scores])
    att_out = x + attn @ v @ w.w_o
    for j in range(m_a):
        probs = hand_softmax(att_out[j] @ w.cls_w + w.cls_b)
        reg = att_out[j] @ w.reg_w + w.reg_b
        np.testing.assert_allclose(props[j].class_probs, probs, atol=1e-9)
        np.testing.assert_allclose(props[j].x, anchors[j].x + reg[:n], atol=1e-9)
        np.testing.assert_allclose(props[j].z, anchors[j].z + reg[n:2 * n], atol=1e-9)
        np.testing.assert_allclose(props[j].vis, 1 / (1 + np.exp(-reg[2 * n:])), atol=1e-9)


def pipeline_fixture(rng, n_lanes=3, num_anchors=3):
    profile = make_profile("openlane")
    spec = SceneSpec(n_lanes=n_lanes, curvature=(0.0, 0.01), seed=5)
    gts, rig = generate_scene(spec, profile)
    h_f, w_f = rig.feature_size
    channels = 2
    features = {
        lvl: rasterize_features(gts, rig, (h_f, w_f, channels), 6.0, level=lvl)
        for lvl in (3, 4, 5)
    }
    bank = PrototypeBank.uniform(6, 5, 3)
    coeff = CoefficientHeadWeights.random(rng, w_f * channels, num_anchors, bank)
    heads = {
        f"stage{i}": HeadWeights.random(rng, profile.num_points * channels,
                                        profile.num_categories, profile.num_points)
        for i in range(1, 5)
    }
    return profile, gts, rig, features, bank, coeff, heads


def test_single_stage_plan_equals_one_predict(rng):
    profile, gts, rig, features, bank, coeff, heads = pipeline_fixture(rng)
    plan = StagePlan(stages=((5, "stage1"),))
    result = run_pipeline(features, None, rig, bank, coeff, heads, plan,
                          profile.y_samples, MetaRanges())
    assert len(result.trace) == 1
    assert len(result.proposals) == 3


def test_oracle_head_reaches_fixed_point(rng, monkeypatch):
    profile, gts, rig, features, bank, coeff, heads = pipeline_fixture(rng, 3, 3)

    def oracle(matrix, anchors, weights):
        out = []
        for j, a in enumerate(anchors):
            gt = gts[j % len(gts)]
            out.append(Proposal(
                class_probs=np.full(profile.num_categories + 1,
                                    1.0 / (profile.num_categories + 1)),
                x=gt.x.copy(), z=gt.z.copy(), vis=gt.visibility.copy(),
            ))
        return out

    monkeypatch.setattr(head, "predict", oracle)
    result = run_pipeline(features, None, rig, bank, coeff, heads, StagePlan(),
                          profile.y_samples, MetaRanges())
    for stage in result.trace[1:]:
        for j, a in enumerate(stage.anchors):
            gt = gts[j % len(gts)]
            np.testing.assert_allclose(a.x, gt.x, atol=1e-9)
            np.testing.assert_allclose(a.z, gt.z, atol=1e-9)


def test_zero_regression_weights_pass_anchors_through(rng):
    profile, gts, rig, features, bank, coeff, _ = pipeline_fixture(rng)
    heads = {
        f"stage{i}": zero_weights(profile.num_points * 2, profile.num_categories,
                                   profile.num_points)
        for i in range(1, 5)
    }
    result = run_pipeline(features, None, rig, bank, coeff, heads, StagePlan(),
                          profile.y_samples, MetaRanges())
    first = result.trace[0].anchors
    for stage in result.trace:
        for a, p in zip(first, stage.proposals):
            np.testing.assert_array_equal(p.x, a.x)
            np.testing.assert_array_equal(p.z, a.z)


def test_pipeline_deterministic(rng):
    profile, gts, rig, features, bank, coeff, heads = pipeline_fixture(rng)
    r1 = run_pipeline(features, None, rig, bank, coeff, heads, StagePlan(),
                      profile.y_samples, MetaRanges())
    r2 = run_pipeline(features, None, rig, bank, coeff, heads, StagePlan(),
                      profile.y_samples, MetaRanges())
    for s1, s2 in zip(r1.trace, r2.trace):
        for p1, p2 in zip(s1.proposals, s2.proposals):
            np.testing.assert_array_equal(p1.x, p2.x)
            np.testing.assert_array_equal(p1.z, p2.z)
            np.testing.assert_array_equal(p1.vis, p2.vis)
            np.testing.assert_array_equal(p1.class_probs, p2.class_probs)


def test_pipeline_error_carries_stage_index(rng):
    profile, gts, rig, features, bank, coeff, heads = pipeline_fixture(rng)
    features[4] = FeatureMap(data=np.zeros((10, 10, 2)), level=4)  # wrong grid
    with pytest.raises(PipelineStageError) as exc:
        run_pipeline(features, None, rig, bank, coeff, heads, StagePlan(),
                     profile.y_samples, MetaRanges())
    assert exc.value.stage == 2


def _embed(mat, n, c_cam, c_all, rows_also=True):
    cam_pos = np.array([k * c_all + i for k in range(n) for i in range(c_cam)])
    if mat.ndim == 1:
        return mat
    if rows_also and mat.shape[0] == n * c_cam and mat.shape[1] == n * c_cam:
        out = np.zeros((n * c_all, n * c_all))
        out[np.ix_(cam_pos, cam_pos)] = mat
        return out
    out = np.zeros((n * c_all, mat.shape[1]))
    out[cam_pos] = mat
    return out


def test_fusion_with_zero_lidar_matches_camera_only(rng):
    profile, gts, rig, features, bank, coeff, _ = pipeline_fixture(rng)
    rig.T_gl = np.hstack([np.eye(3), np.zeros((3, 1))])
    n = profile.num_points
    c_cam, c_lid = 2, 3
    c_all = c_cam + c_lid
    cam_w = {}
    fused_w = {}
    scale = ((n * c_all) / (n * c_cam)) ** 0.25
    for i in range(1, 5):
        w = HeadWeights.random(rng, n * c_cam, profile.num_categories, n)
        cam_w[f"stage{i}"] = w
        fused_w[f"stage{i}"] = HeadWeights(
            w_q=_embed(w.w_q * scale, n, c_cam, c_all),
            w_k=_embed(w.w_k * scale, n, c_cam, c_all),
            w_v=_embed(w.w_v, n, c_cam, c_all),
            w_o=_embed(w.w_o, n, c_cam, c_all),
            cls_w=_embed(w.cls_w, n, c_cam, c_all, rows_also=False),
            cls_b=w.cls_b,
            reg_w=_embed(w.reg_w, n, c_cam, c_all, rows_also=False),
            reg_b=w.reg_b,
        )
    # The residual stream differs (padded zeros), but those zero channels
    # only feed rows of the heads that we also zero, so outputs must agree.
    lidar = {
        lvl: FeatureVolume(
            data=np.zeros((3, 4, 3, c_lid)),
            extent=np.array([[-15.0, 15.0], [0.0, 105.0], [-2.0, 3.0]]),
        )
        for lvl in (3, 4, 5)
    }
    base = run_pipeline(features, None, rig, bank, coeff, cam_w, StagePlan(),
                        profile.y_samples, MetaRanges())
    fused = run_pipeline(features, lidar, rig, bank, coeff, fused_w, StagePlan(),
                         profile.y_samples, MetaRanges())
    for p1, p2 in zip(base.proposals, fused.proposals):
        np.testing.assert_allclose(p2.class_probs, p1.class_probs, atol=1e-12)
        np.testing.assert_allclose(p2.x, p1.x, atol=1e-12)
        np.testing.assert_allclose(p2.z, p1.z, atol=1e-12)
        np.testing.assert_allclose(p2.vis, p1.vis, atol=1e-12)


def test_fused_head_input_equals_the_per_anchor_fuse_layout(rng, monkeypatch):
    # The benchmark's fusion shape: 30 anchors of 20 points, 64 camera and
    # 8 LiDAR channels, four stages.
    profile = make_profile("openlane")
    y = profile.y_samples
    rig = build_rig(SceneSpec(), with_lidar=True)
    h_f, w_f = rig.feature_size
    c_cam, c_lid = 64, 8
    features = {lvl: FeatureMap(data=rng.normal(size=(h_f, w_f, c_cam)), level=lvl)
                for lvl in (3, 4, 5)}
    extent = np.array([[-15.0, 15.0], [0.0, 105.0], [-2.0, 3.0]])
    lidar = {lvl: FeatureVolume(data=rng.normal(size=(6, 24, 16, c_lid)), extent=extent)
             for lvl in (3, 4, 5)}
    bank = PrototypeBank.uniform()
    coeff = CoefficientHeadWeights.random(rng, w_f * c_cam, 30, bank, scale=3.0)
    plan = StagePlan(((5, "s"), (5, "s"), (4, "s"), (3, "s")))
    heads = {"s": HeadWeights.random(rng, 20 * (c_cam + c_lid), profile.num_categories, 20)}

    matrices = []

    def recording(matrix, anchors, weights):
        matrices.append(matrix)
        return predict(matrix, anchors, weights)

    result = run_pipeline(features, lidar, rig, bank, coeff, heads, plan, y, MetaRanges())
    monkeypatch.setattr(head, "predict", recording)
    run_pipeline(features, lidar, rig, bank, coeff, heads, plan, y, MetaRanges())

    anchors = generate_anchors(features[5], bank, coeff, MetaRanges(), y)
    for stage, (level, _) in enumerate(plan.stages):
        cam = sample_anchors(anchors, features[level], rig)
        feats = [fuse(f, sample_anchor_lidar(a, lidar[level], rig)) for f, a in zip(cam, anchors)]
        matrix = np.stack([f.flat for f in feats], axis=0)
        assert matrix.shape == (30, 20 * (c_cam + c_lid))
        assert np.array_equal(matrices[stage], matrix), stage
        proposals = predict(matrix, anchors, heads["s"])
        anchors = [p.to_anchor(y) for p in proposals]
    for got, want in zip(result.proposals, proposals, strict=True):
        for name in ("class_probs", "x", "z", "vis"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_proposal_invariants(rng):
    p = Proposal(class_probs=softmax_rows(rng.normal(size=(1, 5)))[0],
                 x=np.zeros(3), z=np.zeros(3), vis=np.full(3, 0.4))
    assert p.class_probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert p.score == p.class_probs[:-1].max()
    lane = p.to_lane(np.array([5.0, 10.0, 15.0]))
    assert lane.category == int(np.argmax(p.class_probs[:-1]))
    assert lane.score == p.score
