import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lane3d_kit import head
from lane3d_kit.anchors import (
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
    AnchorFeature,
    FeatureMap,
    FeatureVolume,
    fuse,
    sample_anchor_lidar,
    sample_anchors,
)
from lane3d_kit.synth import SceneSpec, build_rig, generate_scene, rasterize_features


def anchors_at(xs, n=4):
    y = np.linspace(5.0, 35.0, n)
    return np.stack([np.stack([np.full(n, float(x)), y, np.zeros(n)], axis=1) for x in xs])


def reference_predict(features, anchors, w: HeadWeights) -> list[Proposal]:
    """The head without the fold: the linear heads applied to x + A x W_v W_o."""
    x = np.asarray(features, dtype=np.float64)
    q, k, v = x @ w.w_q, x @ w.w_k, x @ w.w_v
    attended = x + softmax_rows(q @ k.T / np.sqrt(x.shape[1])) @ v @ w.w_o
    probs = softmax_rows(attended @ w.cls_w + w.cls_b)
    reg = attended @ w.reg_w + w.reg_b
    n = w.num_points
    vis = head._sigmoid(reg[:, 2 * n:])
    return [Proposal(class_probs=probs[j], x=a[:, 0] + reg[j, :n], z=a[:, 2] + reg[j, n:2 * n],
                     vis=vis[j])
            for j, a in enumerate(anchors)]


def linear_predict(x, anchors, w: HeadWeights) -> list[Proposal]:
    """The cls/reg heads applied to ``x`` itself, with no attention."""
    return reference_predict(x, anchors, dataclasses.replace(w, w_v=np.zeros_like(w.w_v)))


def assert_proposals_close(got, want, rel=1e-12):
    """Every field of every proposal within ``rel``·max(1, |v|) of ``want``'s."""
    for j, (g, r) in enumerate(zip(got, want, strict=True)):
        for name in ("class_probs", "x", "z", "vis", "score"):
            v = np.asarray(getattr(r, name))
            err = np.abs(np.asarray(getattr(g, name)) - v)
            assert np.all(err <= rel * np.maximum(1.0, np.abs(v))), (j, name, err.max())


def test_attention_zero_output_matrix_is_identity(rng):
    # With W_o = 0 attention adds nothing: predict is the linear heads on x.
    w = HeadWeights.random(rng, 6, 2, 2)
    w = dataclasses.replace(w, w_o=np.zeros((6, 6)))
    x = rng.normal(size=(4, 6))
    anchors = anchors_at([-1.0, 0.0, 1.0, 2.0], n=2)
    np.testing.assert_allclose(self_attention(x, w).sum(axis=1), 1.0, atol=1e-12)
    for got, want in zip(predict(x, anchors, w), linear_predict(x, anchors, w), strict=True):
        for name in ("class_probs", "x", "z", "vis"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_attention_single_row(rng):
    w = HeadWeights.random(rng, 5, 2, 1)
    x = rng.normal(size=(1, 5))
    np.testing.assert_array_equal(self_attention(x, w), [[1.0]])
    # One row attends only to itself: the heads read x + x W_v W_o.
    expected = x + x @ w.w_v @ w.w_o
    anchors = anchors_at([0.5], n=1)
    got = predict(x, anchors, w)
    want = linear_predict(expected, anchors, w)
    for name in ("class_probs", "x", "z", "vis"):
        np.testing.assert_allclose(getattr(got[0], name), getattr(want[0], name), atol=1e-12)


def test_attention_permutation_equivariance(rng):
    w = HeadWeights.random(rng, 8, 3, 2)
    x = rng.normal(size=(6, 8))
    anchors = anchors_at(range(6), n=2)
    a = self_attention(x, w)
    np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
    props = predict(x, anchors, w)
    for _ in range(20):
        perm = rng.permutation(6)
        # Permuting the rows maps A to P A Pᵀ, and the proposals with them.
        np.testing.assert_allclose(self_attention(x[perm], w), a[np.ix_(perm, perm)], atol=1e-12)
        permuted = predict(x[perm], [anchors[j] for j in perm], w)
        assert_proposals_close(permuted, [props[j] for j in perm])


def test_attention_shape_mismatch(rng):
    w = HeadWeights.random(rng, 8, 3, 2)
    with pytest.raises(ShapeMismatch):
        self_attention(rng.normal(size=(4, 7)), w)


def _head_input(rng, m, n, c_cam, c_lid):
    """(M, N·C) head input in the layout a stage builds: per point, the camera
    channels then (when ``c_lid``) the LiDAR ones; unseen points are zeros."""
    def feature(c):
        valid = rng.random((m, n)) < 0.8
        return AnchorFeature(values=rng.normal(size=(m, n, c)) * valid[..., None], valid=valid)

    cam = feature(c_cam)
    return (fuse(cam, feature(c_lid)) if c_lid else cam).flat


@seed(21)
@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 30), s=st.sampled_from([1, 3, 14]), n=st.sampled_from([1, 2, 5, 10, 20]),
       c_cam=st.integers(1, 4), c_lid=st.sampled_from([0, 2]), scale=st.sampled_from([0.02, 0.2]),
       draw=st.integers(0, 2**32 - 1))
@example(m=30, s=14, n=20, c_cam=64, c_lid=0, scale=0.02, draw=0)  # infer: C = 1280
@example(m=30, s=14, n=20, c_cam=64, c_lid=8, scale=0.02, draw=1)  # train_fusion: C = 1440
def test_folded_head_matches_the_unfolded_reference(m, s, n, c_cam, c_lid, scale, draw):
    rng = np.random.default_rng(draw)
    x = _head_input(rng, m, n, c_cam, c_lid)
    w = HeadWeights.random(rng, n * (c_cam + c_lid), s, n, scale=scale)
    y = np.linspace(5.0, 35.0, n)
    anchors = np.stack([np.stack([rng.normal(0.0, 3.0, n), y, rng.normal(0.0, 0.5, n)], axis=1)
                        for _ in range(m)])
    assert_proposals_close(predict(x, anchors, w), reference_predict(x, anchors, w))


@seed(24)
@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 30), n=st.sampled_from([1, 2, 5, 10, 20]), c=st.integers(1, 4),
       draw=st.integers(0, 2**32 - 1))
def test_predict_on_a_list_of_anchors_equals_predict_on_their_stack(m, n, c, draw):
    rng = np.random.default_rng(draw)
    x = _head_input(rng, m, n, c, 0)
    w = HeadWeights.random(rng, n * c, 3, n, scale=0.2)
    anchors = rng.normal(size=(m, n, 3)) * [3.0, 20.0, 0.5]
    listed = predict(x, [a.copy() for a in anchors], w)
    for got, want in zip(listed, predict(x, anchors, w), strict=True):
        for name in ("class_probs", "x", "z", "vis", "score"):
            got_bytes, want_bytes = (np.asarray(getattr(p, name)).tobytes() for p in (got, want))
            assert got_bytes == want_bytes, name


def test_predict_refuses_anchors_that_do_not_fit(rng):
    w = HeadWeights.random(rng, 4, 1, 2)
    x = rng.normal(size=(2, 4))
    with pytest.raises(ShapeMismatch, match=r"^features vs anchors: expected 3, got 2$"):
        predict(x, anchors_at([0.0, 1.0, 2.0], n=2), w)
    with pytest.raises(ShapeMismatch, match=r"^regression points: expected 3, got 2$"):
        predict(x, anchors_at([0.0, 1.0], n=3), w)
    with pytest.raises(ShapeMismatch, match=r"^anchor points: expected \(M, N, 3\), got \(2, 3\)$"):
        predict(x, anchors_at([0.0], n=2)[0], w)


def zero_weights(c: int, s: int, n: int, **given) -> HeadWeights:
    """Head weights for C features, S categories and N points: ``given``
    arrays by name, zeros for the rest."""
    shapes = {"w_q": (c, c), "w_k": (c, c), "w_v": (c, c), "w_o": (c, c),
              "cls_w": (c, s + 1), "cls_b": (s + 1,), "reg_w": (c, 3 * n), "reg_b": (3 * n,)}
    return HeadWeights(**{name: given.get(name, np.zeros(shape)) for name, shape in shapes.items()})


WEIGHT_ARRAYS = ("w_q", "w_k", "w_v", "w_o", "cls_w", "cls_b", "reg_w", "reg_b")


# Each row: head weights for C = 4, S = 1, N = 2 with one array of another
# rank, and the shape error that refuses it (never an IndexError).
@pytest.mark.parametrize("given, message", [
    ({"w_q": np.zeros(())}, "w_q: expected (0, 0), got ()"),
    ({"cls_w": np.zeros(4)}, "cls head: expected (4, S+1) / (S+1,), got ((4,), (2,))"),
    ({"reg_w": np.zeros(4)}, "reg head: expected (4, 3N), got (4,)"),
], ids=["w_q-scalar", "cls_w-vector", "reg_w-vector"])
def test_head_weights_refuse_an_array_of_another_rank(given, message):
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        zero_weights(4, 1, 2, **given)


def test_head_weights_are_immutable(rng):
    w = HeadWeights.random(rng, 6, 2, 2)
    for name in (*WEIGHT_ARRAYS, "fold"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(w, name, np.zeros_like(getattr(w, name)))
        with pytest.raises(ValueError, match="read-only"):
            getattr(w, name)[0] = 1.0
    # Arrays the caller keeps are copied, so writing into them leaves w as it was.
    given = {name: np.ones_like(getattr(w, name)) for name in WEIGHT_ARRAYS}
    built = HeadWeights(**given)
    fold = built.fold.copy()
    for array in given.values():
        array[...] = 7.0
    assert all(np.all(getattr(built, name) == 1.0) for name in WEIGHT_ARRAYS)
    np.testing.assert_array_equal(built.fold, fold)


def test_fold_is_the_value_head_folded_through_both_heads(rng):
    w = HeadWeights.random(rng, 7, 3, 2, scale=0.5)
    assert w.fold.shape == (7, 4 + 6) and w.fold_finite
    np.testing.assert_allclose(w.fold, w.w_v @ w.w_o @ np.hstack([w.cls_w, w.reg_w]),
                               rtol=1e-12, atol=1e-15)


def test_a_fold_that_overflows_is_refused_by_predict(rng):
    # Each weight is finite, but W_v W_o H overflows float64: building warns
    # nothing, and predict raises instead of emitting non-finite proposals.
    w = HeadWeights.random(rng, 4, 1, 1, scale=1e200)
    assert not w.fold_finite
    with pytest.raises(ValueError, match="overflows float64"):
        predict(rng.normal(size=(2, 4)), anchors_at([0.0, 1.0], n=1), w)


def test_predict_zero_network():
    n, s, c = 3, 4, 6
    w = zero_weights(c, s, n)
    anchors = anchors_at([-2.0, 1.0], n=n)
    feats = np.zeros((2, c))
    props = predict(feats, anchors, w)
    for p, a in zip(props, anchors):
        np.testing.assert_allclose(p.class_probs, 1.0 / (s + 1), atol=1e-12)
        np.testing.assert_array_equal(p.x, a[:, 0])
        np.testing.assert_array_equal(p.z, a[:, 2])
        np.testing.assert_allclose(p.vis, 0.5, atol=1e-15)


def test_predict_bias_only_offset():
    n, s, c = 3, 1, 4
    reg_b = np.zeros(3 * n)
    reg_b[:n] = 1.0  # x offsets
    w = zero_weights(c, s, n, reg_b=reg_b)
    anchors = anchors_at([0.5], n=n)
    props = predict(np.zeros((1, c)), anchors, w)
    np.testing.assert_allclose(props[0].x, anchors[0, :, 0] + 1.0, atol=1e-15)
    np.testing.assert_array_equal(props[0].z, anchors[0, :, 2])


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
        np.testing.assert_allclose(props[j].x, anchors[j, :, 0] + reg[:n], atol=1e-9)
        np.testing.assert_allclose(props[j].z, anchors[j, :, 2] + reg[n:2 * n], atol=1e-9)
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
            np.testing.assert_allclose(a[:, 0], gt.x, atol=1e-9)
            np.testing.assert_allclose(a[:, 2], gt.z, atol=1e-9)


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
            np.testing.assert_array_equal(p.x, a[:, 0])
            np.testing.assert_array_equal(p.z, a[:, 2])


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

    _, anchors = generate_anchors(features[5], bank, coeff, MetaRanges(), y)
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
