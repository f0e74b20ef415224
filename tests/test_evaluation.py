import numpy as np
import pytest

from lane3d_kit.evaluation import (
    EvalConfigONCE,
    EvalConfigOL,
    evaluate_once,
    evaluate_openlane,
    _cost_matrix,
    _match_resampled,
    _stack,
    _visible_polyline,
    format_report_table,
    rasterize_top_view,
    resample_lane,
    unilateral_chamfer,
)
from lane3d_kit.lanes import Lane3D

from test_losses import brute_force_min_cost

Y20 = np.linspace(3.0, 103.0, 20)


def lane(x_value, y=Y20, z_value=0.0, vis=1.0, category=0, score=None, x=None, z=None):
    y = np.asarray(y, dtype=float)
    return Lane3D(
        x=np.full_like(y, x_value) if x is None else np.asarray(x, dtype=float),
        y=y,
        z=np.full_like(y, z_value) if z is None else np.asarray(z, dtype=float),
        visibility=np.full_like(y, vis),
        category=category,
        score=score,
    )


def cfg_ol():
    return EvalConfigOL(y_eval_samples=Y20)


def stacked(resampled):
    return _stack(resampled, Y20.shape[0])


def pair_cost(g, p, cfg):
    """The matching cost of one (GT, prediction) pair, and its distances."""
    cost, d = _cost_matrix(stacked([resample_lane(g, Y20)]), stacked([resample_lane(p, Y20)]), cfg)
    assert cost.shape == (1, 1) and d.shape == (1, 1, Y20.shape[0])
    return cost[0, 0], d[0, 0]


def test_cost_matrix_identical():
    cost, d = pair_cost(lane(0.0), lane(0.0), cfg_ol())
    assert cost == 0.0
    np.testing.assert_array_equal(d, 0.0)


def test_cost_matrix_uniform_offset():
    cost, d = pair_cost(lane(0.0), lane(0.5), cfg_ol())
    np.testing.assert_allclose(d, 0.5, atol=1e-12)
    assert cost == pytest.approx(np.sqrt(10.0), abs=1e-12)


def test_cost_matrix_invisible_prediction_capped():
    cost, d = pair_cost(lane(0.0), lane(0.0, vis=0.0), cfg_ol())
    np.testing.assert_array_equal(d, 1.5)


def test_cost_matrix_equals_the_per_pair_formula(rng):
    # Every entry is the elementwise formula on that one pair, bit for bit.
    cfg = cfg_ol()
    for _ in range(10):
        lanes = []
        for _ in range(int(rng.integers(0, 5))):
            ln = lane(0.0, x=rng.normal(scale=2.0, size=20), z=rng.normal(scale=0.5, size=20))
            ln.visibility = (rng.random(20) < 0.7).astype(float)
            lanes.append(resample_lane(ln, Y20))
        gts, preds = lanes[: len(lanes) // 2], lanes[len(lanes) // 2:]
        cost, d = _cost_matrix(stacked(gts), stacked(preds), cfg)
        assert cost.shape == (len(gts), len(preds))
        assert d.shape == (len(gts), len(preds), 20)
        for i, g in enumerate(gts):
            for j, p in enumerate(preds):
                mutual = g.vis & p.vis
                want = np.full(20, cfg.tp_point_threshold)
                want[mutual] = np.sqrt(
                    (g.x[mutual] - p.x[mutual]) ** 2 + (g.z[mutual] - p.z[mutual]) ** 2
                )
                np.testing.assert_array_equal(d[i, j], want)
                assert cost[i, j] == np.sqrt(want.sum())


def resampled_costs(gts, preds, cfg):
    return _cost_matrix(stacked([resample_lane(g, Y20) for g in gts]),
                        stacked([resample_lane(p, Y20) for p in preds]), cfg)


def test_match_lanes_coincident():
    cost, d = resampled_costs([lane(0.0)], [lane(0.0, score=1.0)], cfg_ol())
    [(i, j)] = _match_resampled(cost)
    assert (i, j) == (0, 0)
    np.testing.assert_array_equal(d[i, j], 0.0)


def test_match_lanes_crossed_costs_vs_brute_force(rng):
    cfg = cfg_ol()
    for _ in range(20):
        gts = [lane(v) for v in rng.uniform(-8, 8, size=int(rng.integers(1, 5)))]
        preds = [lane(v, score=1.0) for v in rng.uniform(-8, 8, size=int(rng.integers(1, 5)))]
        cost, _ = resampled_costs(gts, preds, cfg)
        pairs = _match_resampled(cost)
        assert len(pairs) == min(len(gts), len(preds))
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
        total = sum(cost[i, j] for i, j in pairs)
        assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)


@pytest.mark.parametrize("close, tp", [(15, 0), (16, 1)])
def test_tp_needs_more_than_tp_fraction_of_points_close(close, tp):
    # 15 of 20 points is exactly tp_fraction = 0.75, which is not enough.
    x = np.where(np.arange(20) < close, 0.0, 2.0)
    report = evaluate_openlane([([lane(0.0)], [lane(0.0, x=x, score=1.0)])], cfg_ol())
    assert report.counts[0].tp == tp


def test_far_offset_matched_but_not_tp():
    report = evaluate_openlane([([lane(0.0)], [lane(2.0, score=1.0)])], cfg_ol())
    assert report.f1 == 0.0
    assert report.counts[0].tp == 0
    assert report.counts[0].fp == 1
    assert report.counts[0].fn == 1


def test_evaluate_oracle_is_perfect():
    gts = [lane(-1.75, category=3), lane(1.75, category=5)]
    preds = [lane(-1.75, category=3, score=1.0), lane(1.75, category=5, score=1.0)]
    report = evaluate_openlane([(gts, preds)], cfg_ol())
    assert report.f1 == 100.0
    assert report.ap == 100.0
    assert report.category_accuracy == 100.0
    assert report.ex_near == report.ex_far == report.ez_near == report.ez_far == 0.0


def test_evaluate_uniform_half_meter_offset():
    gts = [lane(0.0, category=2)]
    preds = [lane(0.5, category=2, score=1.0)]
    report = evaluate_openlane([(gts, preds)], cfg_ol())
    assert report.f1 == 100.0
    assert report.ex_near == pytest.approx(0.5, abs=1e-9)
    assert report.ex_far == pytest.approx(0.5, abs=1e-9)
    assert report.ez_near == 0.0 and report.ez_far == 0.0


def test_error_decomposition_property(rng):
    for delta in rng.uniform(0.05, 1.4, size=5):
        report = evaluate_openlane(
            [([lane(0.0)], [lane(delta, score=1.0)])], cfg_ol()
        )
        assert report.ex_near == pytest.approx(delta, abs=1e-9)
        assert report.ex_far == pytest.approx(delta, abs=1e-9)


def test_spurious_low_score_prediction_keeps_max_f1():
    gts = [lane(0.0, category=0)]
    good = lane(0.0, category=0, score=0.9)
    spurious = lane(5.0, category=0, score=0.8)
    base = evaluate_openlane([(gts, [good])], cfg_ol())
    with_junk = evaluate_openlane([(gts, [good, spurious])], cfg_ol())
    assert base.f1 == with_junk.f1 == 100.0
    assert with_junk.ap == 100.0
    by_threshold = {c.threshold: c for c in with_junk.counts}
    assert by_threshold[0.9].precision == 1.0 and by_threshold[0.9].recall == 1.0
    assert by_threshold[0.8].precision == 0.5 and by_threshold[0.8].recall == 1.0


def test_counts_consistency():
    gts = [lane(0.0), lane(3.5)]
    preds = [lane(0.1, score=0.9), lane(9.0, score=0.6)]
    report = evaluate_openlane([(gts, preds)], cfg_ol())
    for c in report.counts:
        p = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
        r = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        assert abs(c.precision - p) < 1e-9
        assert abs(c.recall - r) < 1e-9
        assert abs(c.f1 - f1) < 1e-9


def test_empty_gt_frames_flagged_and_skipped():
    frames = [
        ([], []),                          # skipped entirely
        ([], [lane(0.0, score=1.0)]),      # counted: prediction is an FP
        ([lane(0.0)], [lane(0.0, score=1.0)]),
    ]
    report = evaluate_openlane(frames, cfg_ol())
    assert report.empty_gt_frames == [0, 1]
    best = [c for c in report.counts if c.threshold == report.best_threshold][0]
    assert best.tp == 1 and best.fp == 1 and best.fn == 0


def test_partially_visible_oracle_still_perfect():
    vis = np.ones(20)
    vis[:8] = 0.0  # only 60% of the lane is observable
    gt = lane(0.0)
    gt.visibility = vis
    pred = lane(0.0, score=1.0)
    pred.visibility = vis.copy()
    report = evaluate_openlane([([gt], [pred])], cfg_ol())
    assert report.f1 == 100.0
    assert report.ex_near == 0.0


def test_format_report_table_shape():
    report = evaluate_openlane([([lane(0.0)], [lane(0.0, score=1.0)])], cfg_ol())
    table = format_report_table(report)
    lines = table.splitlines()
    assert len(lines) == 2 and "F1" in lines[0] and "CAcc" in lines[0]


# --- ONCE protocol ----------------------------------------------------------

Y_ONCE = np.linspace(0.0, 50.0, 26)


def test_once_identical_lanes():
    gts = [lane(0.0, y=Y_ONCE), lane(3.5, y=Y_ONCE)]
    preds = [lane(0.0, y=Y_ONCE, score=1.0), lane(3.5, y=Y_ONCE, score=1.0)]
    report = evaluate_once([(gts, preds)], EvalConfigONCE())
    assert report.f1 == 100.0
    assert report.cd_error == 0.0


def test_once_small_shift_is_tp():
    cfg = EvalConfigONCE()
    gts = [lane(0.0, y=Y_ONCE)]
    preds = [lane(0.2, y=Y_ONCE, score=1.0)]
    report = evaluate_once([(gts, preds)], cfg)
    assert report.tp == 1 and report.fp == 0 and report.fn == 0
    assert report.cd_error == pytest.approx(0.2, abs=cfg.grid_cell / 2)


def test_once_shift_beyond_tau_is_fp():
    # Under defaults the 0.4 m shift fails; with a wide-enough stroke the
    # pair passes the IoU gate and fails specifically on the CD threshold.
    gts = [lane(0.0, y=Y_ONCE)]
    preds = [lane(0.4, y=Y_ONCE, score=1.0)]
    report = evaluate_once([(gts, preds)], EvalConfigONCE())
    assert report.tp == 0 and report.fp == 1 and report.fn == 1
    wide = EvalConfigONCE(lane_width=0.5)
    cd = unilateral_chamfer(_visible_polyline(preds[0]), _visible_polyline(gts[0]))
    assert cd == pytest.approx(0.4, abs=1e-9)
    report = evaluate_once([(gts, preds)], wide)
    assert report.tp == 0 and report.fp == 1 and report.fn == 1


def test_once_iou_gate_behavior():
    cfg = EvalConfigONCE()
    a = rasterize_top_view(np.stack([np.zeros(26), Y_ONCE], axis=1), cfg)
    b = rasterize_top_view(np.stack([np.full(26, 0.2), Y_ONCE], axis=1), cfg)
    iou = len(a & b) / len(a | b)
    assert iou >= cfg.iou_threshold


def test_once_equal_cost_swap_invariance():
    # Two predictions symmetric about two GT lanes: swapping their order
    # must not change the total matched distance.
    gts = [lane(0.0, y=Y_ONCE), lane(1.0, y=Y_ONCE)]
    p1 = lane(0.25, y=Y_ONCE, score=1.0)
    p2 = lane(0.75, y=Y_ONCE, score=1.0)
    r12 = evaluate_once([(gts, [p1, p2])], EvalConfigONCE(lane_width=1.0))
    r21 = evaluate_once([(gts, [p2, p1])], EvalConfigONCE(lane_width=1.0))
    assert r12.tp == r21.tp
    assert r12.cd_error == pytest.approx(r21.cd_error, abs=1e-12)


# --- non-finite input ---------------------------------------------------------


@pytest.mark.parametrize("evaluate, cfg", [(evaluate_openlane, cfg_ol()),
                                           (evaluate_once, EvalConfigONCE())])
@pytest.mark.parametrize(
    "where, field, message",
    [
        ("gt", "x", "frame 1: ground-truth lane 1: non-finite x"),
        ("gt", "visibility", "frame 1: ground-truth lane 1: non-finite visibility"),
        ("pred", "z", "frame 1: predicted lane 1: non-finite z"),
        ("pred", "score", "frame 1: predicted lane 1: non-finite score"),
    ],
)
def test_non_finite_lane_values_are_located(evaluate, cfg, where, field, message):
    bad = lane(1.0, score=0.5)
    if field == "score":
        bad.score = float("inf")
    else:
        getattr(bad, field)[3] = np.nan
    gts = [lane(0.0), lane(1.0)]
    preds = [lane(0.0, score=0.5), lane(1.0, score=0.5)]
    (gts if where == "gt" else preds)[1] = bad
    frames = [([lane(0.0)], [lane(0.0, score=1.0)]), (gts, preds)]
    with pytest.raises(ValueError, match=message):
        evaluate(frames, cfg)


@pytest.mark.parametrize("where, x, message", [
    ("gt", np.full(20, 1e100),
     "frame 1: ground-truth lane 2: top-view polyline has non-finite or out-of-range coordinates"),
    ("pred", 1e12 * np.arange(20),
     "frame 1: predicted lane 2: top-view stroke needs 380000000000001 samples, "
     "more than 1048576"),
], ids=["gt-out-of-range", "pred-too-long"])
def test_once_names_a_lane_it_cannot_rasterize(where, x, message):
    # Lane 0 has no visible point, so the bad lane is the second one rasterized;
    # the error names its index in the frame.
    gts = [lane(0.0, vis=0.0), lane(0.0), lane(1.0)]
    preds = [lane(0.0, vis=0.0, score=0.5), lane(0.0, score=0.5), lane(1.0, score=0.5)]
    (gts if where == "gt" else preds)[2] = lane(0.0, x=x, score=0.5)
    frames = [([lane(0.0)], [lane(0.0, score=1.0)]), (gts, preds)]
    with pytest.raises(ValueError) as exc:
        evaluate_once(frames, EvalConfigONCE())
    assert str(exc.value) == message
