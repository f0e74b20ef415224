"""Score a prediction lane file against a ground-truth lane file.

Both functions take the file paths, so every input error is a
:class:`FileFormatError` at its file and JSON pointer.  The policy:

- A prediction frame is scored against the ground-truth frame with its id;
  an id in no ground-truth frame is an error at ``/frames/<k>/id``.  A
  protocol scores each ground-truth frame ``tag_filter`` keeps against its
  prediction frame, or against none when no prediction frame has its id.
- Ground-truth lanes with no visible point are left out.
- The losses need every lane of both files on the profile's y-grid with a
  ``category`` in 0..S-1, ``class_probs`` of S+1 values in [0, 1] summing
  to 1 on every predicted lane, and at least one lane in every prediction
  frame.  These rules are checked here, the probabilities' range with
  laneio's :func:`~lane3d_kit.laneio.check_range`; what every reader needs
  (finite coordinates below ``COORD_LIMIT`` in magnitude, a ``visibility``
  in [0, 1]) is checked by :mod:`lane3d_kit.laneio`.
- OpenLane needs a ``score`` on every predicted lane of a kept frame; ONCE
  reads no scores.  A lane a protocol cannot score is a
  :class:`~lane3d_kit.errors.FrameLaneError` naming the frame by its index
  in the ground-truth file.

``read_lane_file``, ``assign``, ``total_loss`` and the two ``evaluate_*``
functions are looked up as module globals at each call, so a tracer can
wrap them here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DatasetProfile, RunConfig
from .errors import FileFormatError, FrameLaneError
from .evaluation import EvalReport, OnceReport, evaluate_once, evaluate_openlane
from .head import Proposal
from .lanes import Lane3D
from .laneio import OUTSIDE_UNIT, check_range, outside_unit, read_lane_file
from .losses import Assignment, LossBreakdown, assign, total_loss


def _read_paired(gt_path, pred_path):
    """The ground-truth frames, and each prediction frame as (k, frame, GT index)."""
    gt_frames, pred_frames = read_lane_file(gt_path), read_lane_file(pred_path)
    gt_index = {f.id: g for g, f in enumerate(gt_frames)}
    for k, pf in enumerate(pred_frames):
        if pf.id not in gt_index:
            raise FileFormatError(pred_path, f"/frames/{k}/id", "no matching ground-truth frame")
    return gt_frames, [(k, pf, gt_index[pf.id]) for k, pf in enumerate(pred_frames)]


def _check_lane(lane: Lane3D, profile: DatasetProfile, path, where: str) -> None:
    """Reject a lane the losses cannot score on ``profile``: off its y-grid, a
    category outside 0..S-1, or ``class_probs`` that are not S+1 values in
    [0, 1] summing to 1."""
    y, s = profile.y_samples, profile.num_categories
    if lane.y.shape != y.shape or not np.allclose(lane.y, y, atol=1e-9):
        raise FileFormatError(path, where, "lane is not on the profile y-grid")
    if not 0 <= lane.category < s:
        raise FileFormatError(path, f"{where}/category",
                              f"expected a category in 0..{s - 1}, got {lane.category}")
    if lane.class_probs is None:
        return
    if lane.class_probs.shape != (s + 1,):
        raise FileFormatError(path, f"{where}/class_probs",
                              f"expected S+1 = {s + 1} values, got shape {lane.class_probs.shape}")
    check_range([lane.class_probs], outside_unit, path, lambda _: f"{where}/class_probs",
                OUTSIDE_UNIT)
    total = float(lane.class_probs.sum())
    if abs(total - 1.0) > 1e-6:
        raise FileFormatError(path, f"{where}/class_probs",
                              f"expected probabilities summing to 1, got a sum of {total}")


def _proposal_from_lane(lane: Lane3D, profile: DatasetProfile, path, where: str) -> Proposal:
    _check_lane(lane, profile, path, where)
    if lane.class_probs is None:
        raise FileFormatError(path, where, "lane lacks class_probs; run forward to produce them")
    return Proposal(lane.class_probs, lane.x, lane.z, lane.visibility, lane.score)


def score_losses(cfg: RunConfig, gt_path, pred_path) -> list[tuple[str, LossBreakdown, Assignment]]:
    """(id, losses, assignment) of each prediction frame, in file order."""
    gt_frames, paired = _read_paired(gt_path, pred_path)
    scored = []
    for k, pf, g in paired:
        for i, lane in enumerate(gt_frames[g].lanes):
            _check_lane(lane, cfg.profile, gt_path, f"/frames/{g}/lanes/{i}")
        gts = [lane for lane in gt_frames[g].lanes if lane.visibility.sum() > 0]
        props = [_proposal_from_lane(lane, cfg.profile, pred_path, f"/frames/{k}/lanes/{i}")
                 for i, lane in enumerate(pf.lanes)]
        if not props:
            raise FileFormatError(pred_path, f"/frames/{k}/lanes", "no lane to assign")
        assignment = assign(gts, props, cfg.loss)
        breakdown, _ = total_loss(gts, props, assignment, cfg.loss, cfg.profile.y_samples)
        scored.append((pf.id, breakdown, assignment))
    return scored


@dataclass
class ProtocolScore:
    """A protocol's report on the kept ground-truth frames: their indices in
    the file, their ids, and their (GT lanes, predicted lanes)."""

    frames: list[int]
    ids: list[str]
    pairs: list[tuple[list[Lane3D], list[Lane3D]]]
    report: EvalReport | OnceReport


def score_protocol(cfg: RunConfig, protocol: str, gt_path, pred_path,
                   tag_filter: str | None = None) -> ProtocolScore:
    """Run ``protocol`` ("openlane" or "once") on the frames ``tag_filter`` keeps."""
    gt_frames, paired = _read_paired(gt_path, pred_path)
    frames = [g for g, gf in enumerate(gt_frames) if not tag_filter or tag_filter in gf.tags]
    preds = [[] for _ in gt_frames]
    for k, pf, g in paired:
        preds[g] = pf.lanes
        for j, lane in enumerate(pf.lanes):
            if protocol == "openlane" and lane.score is None and g in frames:
                raise FileFormatError(pred_path, f"/frames/{k}/lanes/{j}/score",
                                      "openlane needs a score on every predicted lane")
    pairs = [(gt_frames[g].lanes, preds[g]) for g in frames]
    try:
        if protocol == "openlane":
            report = evaluate_openlane(pairs, cfg.eval_openlane)
        else:
            report = evaluate_once(pairs, cfg.eval_once)
    except FrameLaneError as e:
        raise FrameLaneError(frames[e.frame], e.kind, e.lane, e.detail) from e
    return ProtocolScore(frames, [gt_frames[g].id for g in frames], pairs, report)
