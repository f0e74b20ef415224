"""The linear-time metric code against slow references kept here.

* A golden corpus under ``data/golden`` whose reports were recorded with the
  per-threshold sweep and the set-loop rasterizer; the reports must come
  out byte for byte the same.
* Hypothesis properties: the step-function OpenLane counts equal a
  brute-force loop over every threshold, ``rasterize_top_view`` equals
  the plain set loop, and both reports ignore the order of predictions.
* A guard on the number of assignment solves of the OpenLane sweep.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from lane3d_kit import evaluation
from lane3d_kit.evaluation import (
    EvalConfigOL,
    EvalConfigONCE,
    evaluate_once,
    evaluate_openlane,
    rasterize_top_view,
    resample_lane,
)
from lane3d_kit.jsonable import to_json
from lane3d_kit.lanes import Lane3D
from lane3d_kit.laneio import read_lane_file

GOLDEN = Path(__file__).parent / "data" / "golden"
Y20 = np.linspace(3.0, 103.0, 20)


def golden_pairs(protocol):
    gt = read_lane_file(GOLDEN / f"{protocol}_gt.json")
    pred = {f.id: f.lanes for f in read_lane_file(GOLDEN / f"{protocol}_pred.json")}
    return [(f.lanes, pred.get(f.id, [])) for f in gt]


@pytest.mark.parametrize(
    "protocol, evaluate, cfg",
    [("openlane", evaluate_openlane, EvalConfigOL()), ("once", evaluate_once, EvalConfigONCE())],
)
def test_reports_match_golden_fixture(protocol, evaluate, cfg):
    # The corpus has empty-GT frames, scores tied within and across frames,
    # partially visible, all-invisible and single-point lanes.
    report = evaluate(golden_pairs(protocol), cfg)
    text = json.dumps(to_json(report), indent=1) + "\n"
    assert text == (GOLDEN / f"{protocol}_report.json").read_text()


# --- OpenLane: step functions against a sweep over every threshold ----------


def brute_force_counts(frames, cfg):
    """(threshold, tp, fp, fn) per corpus score, matching every frame anew
    at every threshold with the per-pair cost formula."""
    y = cfg.y_eval_samples
    prepared = []
    for gts, preds in frames:
        g = [r for r in (resample_lane(lane, y) for lane in gts) if r.vis.any()]
        p = [r for r in (resample_lane(lane, y) for lane in preds) if r.vis.any()]
        if g or p:
            prepared.append((g, p))
    thresholds = sorted({p.score for _, ps in prepared for p in ps}, reverse=True) or [1.0]
    rows = []
    for t in thresholds:
        tp = fp = fn = 0
        for g, ps in prepared:
            kept = [p for p in ps if p.score >= t]
            hits = 0
            if g and kept:
                cost = np.empty((len(g), len(kept)))
                dist = {}
                for i, a in enumerate(g):
                    for j, b in enumerate(kept):
                        mutual = a.vis & b.vis
                        d = np.full(y.shape[0], cfg.tp_point_threshold)
                        d[mutual] = np.sqrt(
                            (a.x[mutual] - b.x[mutual]) ** 2 + (a.z[mutual] - b.z[mutual]) ** 2
                        )
                        cost[i, j], dist[i, j] = np.sqrt(d.sum()), d
                for i, j in zip(*linear_sum_assignment(cost)):
                    close = np.count_nonzero(dist[i, j] < cfg.tp_point_threshold)
                    hits += close / np.count_nonzero(g[i].vis) > cfg.tp_fraction
            tp += hits
            fp += len(kept) - hits
            fn += len(g) - hits
        rows.append((t, tp, fp, fn))
    return rows


def _lane(draw, score=None):
    x = draw(st.floats(-6.0, 6.0)) + np.array(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=20, max_size=20))
    )
    lo = draw(st.integers(0, 19))
    hi = draw(st.integers(lo, 19))
    vis = np.zeros(20)
    vis[lo:hi + 1] = 1.0
    return Lane3D(x=x, y=Y20, z=0.1 * x, visibility=vis, score=score)


@st.composite
def corpora(draw):
    scores = st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.0, 1.0))
    frames = []
    for _ in range(draw(st.integers(1, 4))):
        gts = [_lane(draw) for _ in range(draw(st.integers(0, 3)))]
        preds = [_lane(draw, draw(scores)) for _ in range(draw(st.integers(0, 4)))]
        frames.append((gts, preds))
    return frames


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_step_function_counts_equal_the_per_threshold_loop(frames):
    cfg = EvalConfigOL(y_eval_samples=Y20)
    report = evaluate_openlane(frames, cfg)
    got = [(c.threshold, c.tp, c.fp, c.fn) for c in report.counts]
    assert got == brute_force_counts(frames, cfg)


@st.composite
def corpora_with_hits(draw):
    """corpora() with up to two scored predictions near each GT lane added,
    so that frames have matches, rival candidates and tied scores."""
    near = st.lists(st.tuples(st.floats(-0.3, 0.3), st.sampled_from([0.25, 0.5, 0.75])),
                    max_size=2)
    frames = []
    for gts, preds in draw(corpora()):
        hits = [Lane3D(x=g.x + dx, y=g.y, z=g.z, visibility=g.visibility, score=score)
                for g in gts for dx, score in draw(near)]
        frames.append((gts, preds + hits))
    return frames


@pytest.mark.parametrize("evaluate, cfg", [
    (evaluate_openlane, EvalConfigOL(y_eval_samples=Y20)),
    (evaluate_once, EvalConfigONCE()),
])
@settings(max_examples=60, deadline=None)
@given(frames=corpora_with_hits(), data=st.data())
def test_reports_ignore_the_order_of_predictions(evaluate, cfg, frames, data):
    shuffled = [(gts, data.draw(st.permutations(preds))) for gts, preds in frames]
    assert to_json(evaluate(shuffled, cfg)) == to_json(evaluate(frames, cfg))


def test_assignment_solves_are_linear_in_predictions(monkeypatch):
    calls = []
    solve = evaluation.solve_assignment

    def counting(cost):
        calls.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(evaluation, "solve_assignment", counting)
    frames = golden_pairs("openlane")
    report = evaluate_openlane(frames, EvalConfigOL())
    bound = sum(len(preds) + 1 for _, preds in frames) + len(frames)
    assert 0 < len(calls) <= bound
    # The per-threshold sweep needed one solve per frame per threshold.
    assert len(calls) < len(report.counts) * len(frames)


# --- ONCE: the rasterizer against the set loop --------------------------------


def set_loop_raster(poly, cfg):
    """Cells whose center is within lane_width of a sample, the samples at
    most grid_cell / 2 apart along each segment, one test at a time."""
    cells = set()
    if poly.shape[0] == 0:
        return cells
    cell = cfg.grid_cell
    reach = int(np.ceil(cfg.lane_width / cell))
    offsets = [(di, dj) for di in range(-reach, reach + 1) for dj in range(-reach, reach + 1)]
    samples = [poly[0]]
    for a, b in zip(poly[:-1], poly[1:]):
        seg = b - a
        steps = max(1, int(np.ceil(float(np.hypot(*seg)) / (cell * 0.5))))
        for s in range(1, steps + 1):
            samples.append(a + seg * (s / steps))
    for px, py in samples:
        ci, cj = round(px / cell), round(py / cell)
        for di, dj in offsets:
            ix, iy = ci + di, cj + dj
            if (ix * cell - px) ** 2 + (iy * cell - py) ** 2 <= cfg.lane_width ** 2:
                cells.add((ix, iy))
    return cells


# Grid-aligned coordinates put disk tests exactly on the edge.
coordinate = st.one_of(st.floats(-4.0, 4.0), st.integers(-80, 80).map(lambda k: k * 0.05))


@settings(max_examples=80, deadline=None)
@given(
    points=st.lists(st.tuples(coordinate, coordinate), min_size=0, max_size=5),
    lane_width=st.sampled_from([0.3, 0.05, 0.15, 0.5]),
    grid_cell=st.sampled_from([0.1, 0.2, 0.25]),
)
def test_rasterize_equals_the_set_loop(points, lane_width, grid_cell):
    cfg = EvalConfigONCE(lane_width=lane_width, grid_cell=grid_cell)
    poly = np.array(points, dtype=np.float64).reshape(-1, 2)
    assert rasterize_top_view(poly, cfg) == set_loop_raster(poly, cfg)


@pytest.mark.parametrize("lane_width", [0.42500000000000004, 0.37500000000000006])
def test_rasterize_edge_follows_the_scalar_square(lane_width):
    # Here some cell's (dx ** 2 + dy ** 2) and (dx * dx + dy * dy) fall on
    # opposite sides of lane_width ** 2; found by search, since random
    # polylines almost never land within an ulp of the edge.
    cfg = EvalConfigONCE(lane_width=lane_width)
    poly = np.array([[-3 * 0.025, -0.1]])
    assert rasterize_top_view(poly, cfg) == set_loop_raster(poly, cfg)


def test_rasterize_blocks_agree_with_one_pass(monkeypatch):
    # A long lane crosses several sample blocks; the cells must not depend
    # on where the blocks are cut.
    cfg = EvalConfigONCE()
    y = np.linspace(0.0, 80.0, 41)
    poly = np.stack([2.0 * np.sin(y / 15.0), y], axis=1)
    whole = rasterize_top_view(poly, cfg)
    monkeypatch.setattr(evaluation, "_RASTER_BLOCK", 49 * 7)
    assert rasterize_top_view(poly, cfg) == whole == set_loop_raster(poly, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
def test_rasterize_rejects_unrepresentable_coordinates(bad):
    with pytest.raises(ValueError, match="non-finite or out-of-range"):
        rasterize_top_view(np.array([[0.0, 0.0], [bad, 1.0]]), EvalConfigONCE())


def test_a_stroke_takes_at_most_2_to_the_20_samples():
    spacing = 1024.0  # a power of two, so every step count below is exact
    longest = np.array([[0.0, 0.0], [0.0, 3.0 * spacing], [0.0, (2.0 ** 20 - 1) * spacing]])
    assert evaluation._stroke_samples(longest, spacing).shape == (2 ** 20, 2)
    longest[2, 1] += spacing
    with pytest.raises(ValueError, match="^top-view stroke needs 1048577 samples, more than 1048576$"):
        evaluation._stroke_samples(longest, spacing)


def test_chamfer_only_for_pairs_past_the_iou_gate(monkeypatch):
    calls = []
    chamfer = evaluation.unilateral_chamfer

    def counting(pred, gt):
        calls.append(1)
        return chamfer(pred, gt)

    monkeypatch.setattr(evaluation, "unilateral_chamfer", counting)
    y = np.linspace(0.0, 50.0, 26)
    gts = [Lane3D(x=np.full(26, v), y=y, z=np.zeros(26), visibility=np.ones(26))
           for v in (0.0, 3.5)]
    preds = [Lane3D(x=np.full(26, v), y=y, z=np.zeros(26), visibility=np.ones(26), score=1.0)
             for v in (0.1, 7.0, -6.0)]
    report = evaluate_once([(gts, preds)], EvalConfigONCE())
    assert report.tp == 1 and report.fp == 2 and report.fn == 1
    assert len(calls) == 1
