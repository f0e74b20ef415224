"""Benchmark metric protocols.

Two protocols are implemented:

* OpenLane/ApolloSim style: lanes are resampled onto a fixed y grid,
  predictions and ground truth are paired by minimum total cost, a pair is
  a true positive when enough of its mutually visible points lie within
  the point threshold, and F1/AP plus near/far x/z errors are reported
  over score thresholds.
* ONCE style: lanes are rasterized on a top-view grid, pairs are gated by
  IoU, matched by unilateral Chamfer distance, and a true positive needs
  that distance below the CD threshold.

Frames evaluate independently; corpus metrics aggregate raw TP/FP/FN
counts rather than per-frame averages.

Only :func:`evaluate_openlane` and :func:`evaluate_once` read lane objects,
each frame's lanes once.  OpenLane works below them on each frame side's
lanes with a visible eval sample, resampled and stacked as (L, N) rows in
one :class:`ResampledLane`; ONCE works on each lane's (K, 2) top-view
polyline of visible points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lanes import Lane3D
from .losses import solve_assignment


@dataclass
class EvalConfigOL:
    """OpenLane-style protocol constants.

    ``near_range`` is half-open [lo, hi); ``far_range`` is closed [lo, hi].
    """

    tp_point_threshold: float = 1.5
    tp_fraction: float = 0.75
    near_range: tuple[float, float] = (0.0, 40.0)
    far_range: tuple[float, float] = (40.0, 100.0)
    y_eval_samples: np.ndarray = field(default_factory=lambda: np.linspace(3.0, 103.0, 20))

    def __post_init__(self):
        self.y_eval_samples = np.asarray(self.y_eval_samples, dtype=np.float64)
        if not 0.0 < self.tp_fraction <= 1.0:
            raise ValueError("tp_fraction must be in (0, 1]")
        if self.tp_point_threshold <= 0:
            raise ValueError("tp_point_threshold must be positive")


@dataclass
class EvalConfigONCE:
    """ONCE-style protocol constants.

    Lanes are drawn on the top view as a stroke of radius ``lane_width``:
    the polyline is sampled at most ``grid_cell / 2`` apart and every grid
    cell whose center lies within ``lane_width`` of a sample is filled.
    With the narrower reading (width, not radius) a sub-threshold lateral
    shift could never pass the IoU gate, contradicting the protocol's own
    expected behavior.
    """

    iou_threshold: float = 0.3
    tau_cd: float = 0.3
    lane_width: float = 0.3
    grid_cell: float = 0.1

    def __post_init__(self):
        for name in ("iou_threshold", "tau_cd", "lane_width", "grid_cell"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _rates(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """(precision, recall, F1) as fractions; 0.0 where undefined."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass
class ThresholdCounts:
    """TP/FP/FN and derived rates at one score threshold."""

    threshold: float
    tp: int
    fp: int
    fn: int
    precision: float = field(init=False)
    recall: float = field(init=False)
    f1: float = field(init=False)

    def __post_init__(self):
        self.precision, self.recall, self.f1 = _rates(self.tp, self.fp, self.fn)


@dataclass
class EvalReport:
    """OpenLane-style corpus report; headline figures are percents."""

    f1: float
    ap: float
    category_accuracy: float
    ex_near: float
    ex_far: float
    ez_near: float
    ez_far: float
    best_threshold: float
    counts: list[ThresholdCounts]
    empty_gt_frames: list[int]


@dataclass
class ResampledLane:
    """Lanes interpolated onto the shared evaluation y grid: one lane, or a
    frame side's lanes stacked as rows.  ``x``, ``z`` and boolean ``vis`` are
    (..., N); ``category`` and ``score`` (NaN where absent in a stack) are
    (...)."""

    x: np.ndarray
    z: np.ndarray
    vis: np.ndarray
    category: int | np.ndarray
    score: float | None | np.ndarray


def resample_lane(lane: Lane3D, y_eval: np.ndarray) -> ResampledLane:
    """Linearly interpolate a lane onto the evaluation grid.

    Samples outside the lane's own y extent are invisible; within it,
    visibility is interpolated and thresholded at 0.5.
    """
    y_eval = np.asarray(y_eval, dtype=np.float64)
    within = (y_eval >= lane.y[0]) & (y_eval <= lane.y[-1])
    x = np.interp(y_eval, lane.y, lane.x)
    z = np.interp(y_eval, lane.y, lane.z)
    vis = np.interp(y_eval, lane.y, lane.visibility)
    return ResampledLane(
        x=x, z=z, vis=within & (vis >= 0.5), category=lane.category, score=lane.score
    )


def _cost_matrix(
    gt: ResampledLane, pred: ResampledLane, cfg: EvalConfigOL
) -> tuple[np.ndarray, np.ndarray]:
    """(G, P) matching costs and (G, P, N) per-point distances of all pairs.

    Points where either lane is invisible get the capped distance (the TP
    point threshold) so partially overlapping lanes are penalized but stay
    matchable; a pair's cost is the square root of its distance sum.
    """
    dist = np.sqrt((gt.x[:, None] - pred.x[None]) ** 2 + (gt.z[:, None] - pred.z[None]) ** 2)
    d = np.where(gt.vis[:, None] & pred.vis[None], dist, cfg.tp_point_threshold)
    return np.sqrt(d.sum(axis=2)), d


def _match_resampled(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost (row, column) pairs of a :func:`_cost_matrix`
    result or a column subset of one."""
    if cost.size == 0:
        return []
    return solve_assignment(cost)


def _check_finite(frame: int, gts: list[Lane3D], preds: list[Lane3D]) -> None:
    """Raise ValueError naming the first lane of the frame with a NaN or inf."""
    lanes = [*gts, *preds]
    values = [a for ln in lanes for a in (ln.x, ln.y, ln.z, ln.visibility)]
    values.append(np.array([ln.score for ln in lanes if ln.score is not None], dtype=np.float64))
    if np.isfinite(np.concatenate(values)).all():
        return
    for kind, lanes in (("ground-truth", gts), ("predicted", preds)):
        for j, lane in enumerate(lanes):
            for name in ("x", "y", "z", "visibility"):
                if not np.isfinite(getattr(lane, name)).all():
                    raise ValueError(f"frame {frame}: {kind} lane {j}: non-finite {name}")
            if lane.score is not None and not math.isfinite(lane.score):
                raise ValueError(f"frame {frame}: {kind} lane {j}: non-finite score")


def _stack(rs: list[ResampledLane], n: int) -> ResampledLane:
    """Resampled lanes stacked as (L, N) rows; ``vis`` is boolean also for L = 0."""
    x, z, vis = (np.array([getattr(r, k) for r in rs]).reshape(-1, n) for k in ("x", "z", "vis"))
    return ResampledLane(x, z, vis.astype(bool), np.array([r.category for r in rs], np.int64),
                         np.array([r.score for r in rs], np.float64))


def _prepare_frame(frame, gts, preds, cfg) -> tuple[ResampledLane, ResampledLane]:
    """The frame's GT and predicted lanes with a visible eval sample, each
    resampled once and stacked as (L, N) rows."""
    _check_finite(frame, gts, preds)
    if any(p.score is None for p in preds):
        raise ValueError("predictions must carry scores for evaluation")
    y = cfg.y_eval_samples
    gt, pred = ([r for r in (resample_lane(lane, y) for lane in lanes) if r.vis.any()]
                for lanes in (gts, preds))
    return _stack(gt, y.shape[0]), _stack(pred, y.shape[0])


@dataclass
class _FrameSteps:
    """One frame's (tp, fp, fn) as a step function of the score threshold.

    Row k of ``counts`` keeps the predictions scoring at least the k-th
    highest of ``levels`` (row 0 keeps none); ``hits[k]`` holds that row's
    true-positive pairs as (2, T) (GT row, prediction row) indices.
    """

    levels: np.ndarray  # the frame's distinct prediction scores, ascending
    counts: np.ndarray  # (len(levels) + 1, 3) int64
    hits: list[np.ndarray]

    def rows(self, thresholds):
        """Row in effect at each threshold: the number of levels >= it."""
        return self.levels.shape[0] - np.searchsorted(self.levels, thresholds, side="left")


def _frame_steps(gt: ResampledLane, pred: ResampledLane, cfg: EvalConfigOL) -> _FrameSteps:
    cost, d = _cost_matrix(gt, pred, cfg)
    # A pair, if matched, is a true positive when more than tp_fraction of
    # the GT-visible points are close: a perfect prediction of a partially
    # visible lane must still count as a hit.
    close = np.count_nonzero(d < cfg.tp_point_threshold, axis=2)
    hit = close / np.count_nonzero(gt.vis, axis=1)[:, None] > cfg.tp_fraction
    g = gt.x.shape[0]
    levels = np.unique(pred.score)
    counts = [(0, 0, g)]
    hits = [np.empty((2, 0), dtype=np.intp)]
    for level in levels[::-1]:
        keep = np.flatnonzero(pred.score >= level)
        tp_pairs = [(gi, keep[pi]) for gi, pi in _match_resampled(cost[:, keep])
                    if hit[gi, keep[pi]]]
        tp = len(tp_pairs)
        counts.append((tp, keep.shape[0] - tp, g - tp))
        hits.append(np.array(tp_pairs, dtype=np.intp).reshape(-1, 2).T)
    return _FrameSteps(levels, np.array(counts, dtype=np.int64), hits)


def _average_precision(counts: list[ThresholdCounts]) -> float:
    """Area under the precision envelope: at each distinct recall, the best
    precision reached at that recall or above."""
    envelope = {}
    best = 0.0
    for r, p in sorted(((c.recall, c.precision) for c in counts), reverse=True):
        best = max(best, p)
        envelope[r] = best
    ap = 0.0
    prev = 0.0
    for r in sorted(envelope):
        ap += (r - prev) * envelope[r]
        prev = r
    return ap


def evaluate_openlane(frames, cfg: EvalConfigOL) -> EvalReport:
    """Evaluate a corpus of (gt lanes, predicted lanes) frames.

    Reported F1 is the maximum over score thresholds; category accuracy
    and the near/far coordinate errors are taken at that operating point,
    pooling mutually visible points across all true-positive pairs.
    Frames with neither usable ground truth nor predictions are skipped
    and flagged in the report.

    The thresholds are the corpus's distinct prediction scores.  A frame's
    kept set changes only at the frame's own scores, so each frame is
    matched once per distinct score of its own, on one cost matrix, and
    its (tp, fp, fn) become a step function of the threshold.  The corpus
    counts at every threshold are the sums of the frames' steps, looked up
    with ``searchsorted``: a sweep of sum over frames of P_f matchings
    instead of frames x thresholds.
    """
    steps = []
    empty_frames = []
    for idx, (gts, preds) in enumerate(frames):
        gt, pred = _prepare_frame(idx, gts, preds, cfg)
        if not gt.x.shape[0]:
            empty_frames.append(idx)
            if not pred.x.shape[0]:
                continue
        steps.append((gt, pred, _frame_steps(gt, pred, cfg)))

    scores = np.concatenate([np.empty(0), *(pred.score for _, pred, _ in steps)])
    thresholds = np.unique(scores)[::-1].tolist() or [1.0]
    at = np.array(thresholds, dtype=np.float64)
    total = np.zeros((len(thresholds), 3), dtype=np.int64)
    for _, _, fs in steps:
        total += fs.counts[fs.rows(at)]
    counts = [ThresholdCounts(t, *row) for t, row in zip(thresholds, total.tolist())]

    # The best F1, at the lowest threshold among ties.
    best = max(counts, key=lambda c: (c.f1, -c.threshold))

    y = cfg.y_eval_samples
    near = (y >= cfg.near_range[0]) & (y < cfg.near_range[1])
    far = (y >= cfg.far_range[0]) & (y <= cfg.far_range[1])
    # The rows of every TP pair at the best threshold, in frame order, then
    # hit order.
    ex, ez, mutual = ([np.empty((0, y.shape[0]), dtype)] for dtype in (float, float, bool))
    cat_hits = 0
    for gt, pred, fs in steps:
        gi, pj = fs.hits[fs.rows(best.threshold)]
        cat_hits += np.count_nonzero(gt.category[gi] == pred.category[pj])
        ex.append(np.abs(gt.x[gi] - pred.x[pj]))
        ez.append(np.abs(gt.z[gi] - pred.z[pj]))
        mutual.append(gt.vis[gi] & pred.vis[pj])
    ex, ez, mutual = (np.concatenate(parts) for parts in (ex, ez, mutual))

    def mean(err, span):
        values = err[mutual & span]
        return float(np.mean(values)) if values.size else 0.0

    return EvalReport(
        f1=100.0 * best.f1,
        ap=100.0 * _average_precision(counts),
        category_accuracy=100.0 * cat_hits / best.tp if best.tp else 0.0,
        ex_near=mean(ex, near),
        ex_far=mean(ex, far),
        ez_near=mean(ez, near),
        ez_far=mean(ez, far),
        counts=counts,
        best_threshold=best.threshold,
        empty_gt_frames=empty_frames,
    )


# --- ONCE-style protocol ---------------------------------------------------


def _visible_polyline(lane: Lane3D) -> np.ndarray:
    """(K, 2) top-view (x, y) points of the lane's visible samples."""
    mask = lane.visible_mask
    return np.stack([lane.x[mask], lane.y[mask]], axis=1)


# Samples one stroke may take: 52 km of lane at the default 0.1 m cell, where
# a real lane takes a few thousand.
_MAX_STROKE_SAMPLES = 1 << 20


def _stroke_samples(poly: np.ndarray, spacing: float) -> np.ndarray:
    """The first vertex, then every segment cut into the fewest equal steps
    no longer than ``spacing``; (S, 2) step ends in polyline order.  Raises
    ValueError, before allocating them, when S would exceed 2**20."""
    a = poly[:-1]
    seg = poly[1:] - a
    steps = np.maximum(1.0, np.ceil(np.hypot(seg[:, 0], seg[:, 1]) / spacing))
    if not 1.0 + steps.sum() <= _MAX_STROKE_SAMPLES:
        raise ValueError(f"top-view stroke needs {1.0 + steps.sum():.0f} samples, "
                         f"more than {_MAX_STROKE_SAMPLES}")
    steps = steps.astype(np.int64)
    which = np.repeat(np.arange(seg.shape[0]), steps)
    s = np.arange(1, which.shape[0] + 1) - np.repeat(np.cumsum(steps) - steps, steps)
    return np.concatenate([poly[:1], a[which] + seg[which] * (s / steps[which])[:, None]])


# Sample-cell tests per block of the rasterizer, which bounds its
# temporaries to a few MB whatever the lane length or stroke radius.
_RASTER_BLOCK = 1 << 16
# Cell indices are exact in float64 (and int64) below this magnitude.
_MAX_CELL_INDEX = 2.0 ** 52


def rasterize_top_view(poly: np.ndarray, cfg: EvalConfigONCE) -> set:
    """Top-view (ix, iy) grid cells of the lane stroke.

    The polyline is sampled at most ``grid_cell / 2`` apart; cell (ix, iy),
    centered at (ix, iy) * ``grid_cell``, is filled when its center lies
    within ``lane_width`` of a sample.  Raises ValueError for NaN, inf,
    coordinates beyond the int64 grid, or a stroke of more than 2**20
    samples.
    """
    cells: set = set()
    if poly.shape[0] == 0:
        return cells
    cell = cfg.grid_cell
    if not np.all(np.abs(poly) < _MAX_CELL_INDEX * cell):
        raise ValueError("top-view polyline has non-finite or out-of-range coordinates")
    reach = int(np.ceil(cfg.lane_width / cell))
    r2 = cfg.lane_width ** 2
    offsets = np.arange(-reach, reach + 1, dtype=np.float64)
    di = np.repeat(offsets, offsets.shape[0])
    dj = np.tile(offsets, offsets.shape[0])
    samples = _stroke_samples(poly, cell * 0.5)
    per_block = max(1, _RASTER_BLOCK // di.shape[0])
    for start in range(0, samples.shape[0], per_block):
        px, py = samples[start:start + per_block, :1], samples[start:start + per_block, 1:]
        # Whole-number cell indices, held as floats (exact below 2**52).
        ix = np.rint(px / cell) + di
        iy = np.rint(py / cell) + dj
        dx = ix * cell - px
        dy = iy * cell - py
        d2 = dx * dx + dy * dy
        inside = d2 <= r2
        # The disk test is defined by v ** 2 on scalars, which calls the C
        # library's pow; that may differ from v * v in the last bit, so the
        # rare tests that close to the edge are settled the scalar way.
        for k in np.flatnonzero(np.abs(d2 - r2) <= 1e-12 * r2):
            inside.flat[k] = dx.flat[k] ** 2 + dy.flat[k] ** 2 <= r2
        ix, iy = ix[inside].astype(np.int64), iy[inside].astype(np.int64)
        if ix.size == 0:
            continue
        # Samples lie at most half a cell apart, so those of one block span
        # at most per_block / 2 cells and its occupancy grid stays small.
        x0, y0 = ix.min(), iy.min()
        grid = np.zeros((ix.max() - x0 + 1, iy.max() - y0 + 1), dtype=bool)
        grid[ix - x0, iy - y0] = True
        gx, gy = np.nonzero(grid)
        cells.update(zip((gx + x0).tolist(), (gy + y0).tolist()))
    return cells


def unilateral_chamfer(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean top-view distance from the points of a prediction's visible
    polyline to the ground-truth polyline; both are non-empty (K, 2)."""
    if gt.shape[0] == 1:
        dist = np.hypot(pred[:, 0] - gt[0, 0], pred[:, 1] - gt[0, 1])
    else:
        a = gt[:-1]
        seg = gt[1:] - a
        seg_len2 = np.maximum((seg ** 2).sum(axis=1), 1e-300)
        rel = pred[:, None, :] - a[None, :, :]
        t = np.clip((rel * seg[None, :, :]).sum(axis=2) / seg_len2[None, :], 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * seg[None, :, :]
        dist = np.sqrt(((pred[:, None, :] - proj) ** 2).sum(axis=2)).min(axis=1)
    return float(dist.mean())


@dataclass
class OnceReport:
    """ONCE-style corpus report; rates are percents, cd_error in meters."""

    f1: float
    precision: float
    recall: float
    cd_error: float
    tp: int
    fp: int
    fn: int


_NON_CANDIDATE = 1e9


def _lane_cells(frame: int, kind: str, polys: dict, cfg: EvalConfigONCE) -> list[set]:
    """The top-view cells of each of the frame's lane ``polys`` (by index in
    the frame); a lane that cannot be rasterized is a ValueError naming it."""
    cells = []
    for j, poly in polys.items():
        try:
            cells.append(rasterize_top_view(poly, cfg))
        except ValueError as e:
            raise ValueError(f"frame {frame}: {kind} lane {j}: {e}") from e
    return cells


def evaluate_once(frames, cfg: EvalConfigONCE) -> OnceReport:
    """Evaluate frames under the top-view IoU + Chamfer-distance protocol.

    Chamfer distances are computed only for pairs that pass the IoU gate;
    the others cannot be matched.
    """
    tp = fp = fn = 0
    cd_hits: list[float] = []
    for idx, (gts, preds) in enumerate(frames):
        _check_finite(idx, gts, preds)
        # A lane is visible when its polyline is non-empty; j is its index in the frame.
        gts, preds = ({j: poly for j, poly in enumerate(map(_visible_polyline, lanes))
                       if poly.shape[0]} for lanes in (gts, preds))
        if not gts and not preds:
            continue
        if not gts or not preds:
            fn += len(gts)
            fp += len(preds)
            continue
        gt_cells, pred_cells = (_lane_cells(idx, kind, polys, cfg) for kind, polys in
                                (("ground-truth", gts), ("predicted", preds)))
        gts, preds = list(gts.values()), list(preds.values())
        cost = np.full((len(gts), len(preds)), _NON_CANDIDATE)
        candidate = np.zeros((len(gts), len(preds)), dtype=bool)
        for i, g in enumerate(gts):
            for j, p in enumerate(preds):
                inter = len(gt_cells[i] & pred_cells[j])
                union = len(gt_cells[i]) + len(pred_cells[j]) - inter
                if union and inter / union >= cfg.iou_threshold:
                    candidate[i, j] = True
                    cost[i, j] = unilateral_chamfer(p, g)
        matched = 0
        for i, j in solve_assignment(cost):
            if candidate[i, j] and cost[i, j] < cfg.tau_cd:
                matched += 1
                cd_hits.append(float(cost[i, j]))
        tp += matched
        fn += len(gts) - matched
        fp += len(preds) - matched

    precision, recall, f1 = _rates(tp, fp, fn)
    return OnceReport(
        f1=100.0 * f1,
        precision=100.0 * precision,
        recall=100.0 * recall,
        cd_error=float(np.mean(cd_hits)) if cd_hits else 0.0,
        tp=tp,
        fp=fp,
        fn=fn,
    )


def format_report_table(report: EvalReport) -> str:
    """Plain-text single-row table with the usual benchmark column layout."""
    header = f"{'F1':>7} {'CAcc':>7} {'Ex/N':>7} {'Ex/F':>7} {'Ez/N':>7} {'Ez/F':>7} {'AP':>7}"
    row = (
        f"{report.f1:7.2f} {report.category_accuracy:7.2f} "
        f"{report.ex_near:7.3f} {report.ex_far:7.3f} "
        f"{report.ez_near:7.3f} {report.ez_far:7.3f} {report.ap:7.2f}"
    )
    return header + "\n" + row
