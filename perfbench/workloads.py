"""The three benchmark workloads: inputs made from a seed, the timed
operation, and a traced twin of that operation built from public pieces.

* ``infer``: camera-only forward over a rotating set of distinct frames.
* ``train_fusion``: camera+LiDAR forward, then ``assign`` and
  ``total_loss`` with gradients, one step per frame.
* ``score_corpus``: offline scoring of stored lane files: losses, the
  OpenLane threshold sweep and the ONCE protocol, with no forward.

Every input is a pure function of (seed, sizes).  Only the shapes of the
inputs are fixed; geometry, noise and scores change with the seed, while
the mix of lane counts, empty frames and forks stays the same, so that two
seeds cost about the same.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from lane3d_kit.anchors import (
    CoefficientHeadWeights,
    MetaRanges,
    PrototypeBank,
    combine_metas,
    materialize,
    pool_and_weigh,
)
from lane3d_kit.config import make_profile
from lane3d_kit import evaluation as evaluation_module
from lane3d_kit import head as head_module
from lane3d_kit.evaluation import (
    EvalConfigOL,
    EvalConfigONCE,
    evaluate_once,
    evaluate_openlane,
    rasterize_top_view,
    resample_lane,
)
from lane3d_kit.head import HeadWeights, Proposal, StagePlan, predict, run_pipeline
from lane3d_kit.lanes import Lane3D
from lane3d_kit.laneio import Frame, read_lane_file, write_lane_file
from lane3d_kit.losses import LossConfig, assign, ew_pair_loss, total_loss
from lane3d_kit.sampling import fuse, sample_anchor_lidar, sample_anchors
from lane3d_kit.synth import (
    SceneSpec,
    generate_scene,
    rasterize_features,
    rasterize_volume,
)

from harness import Tracer

DEFAULT_SEED = 0
LEVELS = (3, 4, 5)
SIGMA = 6.0
LIDAR_DIMS = (6, 24, 16)
LIDAR_EXTENT = np.array([[-15.0, 15.0], [0.0, 105.0], [-2.0, 3.0]])
# Peaky enough mixing logits that anchors spread over the meta ranges, so
# some anchor points leave the feature grid as they do after training.
COEFF_SCALE = 3.0
Y_OL = make_profile("openlane").y_samples
EVAL_OL = EvalConfigOL(y_eval_samples=Y_OL)
EVAL_ONCE = EvalConfigONCE()


@dataclass(frozen=True)
class Sizes:
    frames: int = 12           # distinct frames rotated by infer and train_fusion
    anchors: int = 30
    channels: int = 64         # camera channels C; N*C = 20*64 = 1280
    lidar_channels: int = 8    # fused C = 72
    stages: int = 4
    proposals: int = 30        # stored proposals per frame in score_corpus
    bundles: int = 6           # distinct stored corpora rotated by score_corpus
    loss_frames: int = 20
    openlane_frames: int = 3
    once_frames: int = 1


FULL = Sizes()
TINY = Sizes(frames=2, anchors=6, channels=4, lidar_channels=2, stages=2, proposals=6,
             bundles=1, loss_frames=3, openlane_frames=2, once_frames=1)


# --- model and frames -----------------------------------------------------------


@dataclass
class Model:
    profile: object
    ranges: MetaRanges
    plan: StagePlan
    bank: PrototypeBank
    coeff: CoefficientHeadWeights
    heads: dict
    loss_cfg: LossConfig

    @property
    def y(self) -> np.ndarray:
        return self.profile.y_samples


def build_model(seed: int, sizes: Sizes, fusion: bool) -> Model:
    rng = np.random.default_rng([seed, int(fusion), 101])
    profile = make_profile("openlane")
    plan = StagePlan(StagePlan().stages[:sizes.stages])
    bank = PrototypeBank.uniform()
    w_f = SceneSpec().image_size[1] // SceneSpec().feature_stride
    coeff = CoefficientHeadWeights.random(rng, w_f * sizes.channels, sizes.anchors, bank,
                                          scale=COEFF_SCALE)
    c = sizes.channels + (sizes.lidar_channels if fusion else 0)
    heads = {}
    for _, wid in plan.stages:
        heads[wid] = HeadWeights.random(rng, profile.num_points * c, profile.num_categories,
                                        profile.num_points)
    return Model(profile, MetaRanges(), plan, bank, coeff, heads, LossConfig())


@dataclass
class Scene:
    gts: list
    rig: object
    maps: dict
    vols: dict | None


def _scene_spec(rng, i: int, n_lanes: int, fork: bool) -> SceneSpec:
    return SceneSpec(
        n_lanes=n_lanes,
        spacing=rng.uniform(3.2, 3.8),
        curvature=(rng.normal(0.0, 0.5), rng.normal(0.0, 0.01), rng.normal(0.0, 2e-4)),
        slope=(0.0, rng.normal(0.0, 0.01), rng.normal(0.0, 5e-5)),
        camera_pitch=rng.uniform(-0.02, 0.06),
        seed=i,
        fork_lane=0 if fork else None,
        fork_coefficient=rng.uniform(2e-3, 5e-3) if fork else 0.0,
    )


def _visible_gts(gts: list) -> list:
    # The loss rejects a GT lane with no visible point, so inputs leave it out.
    return [g for g in gts if g.num_visible() > 0]


def build_scenes(seed: int, sizes: Sizes, profile, fusion: bool) -> list[Scene]:
    """Distinct frames: 2..6 lanes, varied curvature, slope and camera pitch;
    with fusion every other frame carries a fork."""
    rng = np.random.default_rng([seed, int(fusion), 202])
    scenes = []
    for i in range(sizes.frames):
        spec = _scene_spec(rng, i, 2 + i % 5, fork=fusion and i % 2 == 1)
        gts, rig = generate_scene(spec, profile, with_lidar=fusion)
        h_f, w_f = rig.feature_size
        maps = {lvl: rasterize_features(gts, rig, (h_f, w_f, sizes.channels), SIGMA, level=lvl)
                for lvl in LEVELS}
        vols = None
        if fusion:
            vol = rasterize_volume(gts, (*LIDAR_DIMS, sizes.lidar_channels), LIDAR_EXTENT)
            vols = {lvl: vol for lvl in LEVELS}
        scenes.append(Scene(_visible_gts(gts), rig, maps, vols))
    return scenes


# --- forward, untraced and traced ------------------------------------------------


def forward(model: Model, scene: Scene):
    return run_pipeline(scene.maps, scene.vols, scene.rig, model.bank, model.coeff,
                        model.heads, model.plan, model.y, model.ranges)


def traced_forward(tr: Tracer, model: Model, scene: Scene, keep: list):
    """The ``run_pipeline`` stage loop rebuilt from its public pieces.

    Run it inside ``tr.around(WRAPPED)`` so that the self-attention call
    ``predict`` makes gets its own span; ``head.cls_reg`` is the rest of
    the predict span.  Each stage's (camera, LiDAR) samples are appended to
    ``keep`` for :func:`count_sampling`.
    """
    y = model.y
    coeffs = tr.call("anchors.pool_and_weigh", pool_and_weigh, scene.maps[5], model.coeff)
    metas = tr.call("anchors.combine_metas", combine_metas, model.bank, coeffs, model.ranges)
    with tr.span("anchors.materialize"):
        anchors = [materialize(m, y) for m in metas]
    proposals = []
    for level, wid in model.plan.stages:
        feats = tr.call("sampling.sample_anchors", sample_anchors, anchors, scene.maps[level],
                        scene.rig)
        lidar = None
        if scene.vols is not None:
            with tr.span("sampling.sample_anchor_lidar"):
                lidar = [sample_anchor_lidar(a, scene.vols[level], scene.rig) for a in anchors]
        keep.append((feats, lidar))
        if lidar is not None:
            with tr.span("sampling.fuse"):
                feats = [fuse(f, g) for f, g in zip(feats, lidar)]
        matrix = np.stack([f.flat for f in feats], axis=0)
        proposals = tr.call("head.predict", predict, matrix, anchors, model.heads[wid])
        with tr.span("head.reseed"):
            anchors = [p.to_anchor(y) for p in proposals]
    return proposals


# Sub-layers the program calls from inside a layer, timed where the caller
# looks them up (see Tracer.around): a second call beside the program's own
# would run on warm caches and at another count than the program's.
# evaluate_openlane matches each frame at each score threshold with the core
# of match_lanes, ``_match_resampled``, which calls solve_assignment; that is
# the one module-private name here, and a program without it reports 0 calls.
WRAPPED = (
    (head_module, "self_attention", "head.self_attention"),
    (evaluation_module, "resample_lane", "evaluation.resample_lane"),
    (evaluation_module, "_match_resampled", "evaluation.match_lanes"),
    (evaluation_module, "solve_assignment", "losses.solve_assignment"),
    (evaluation_module, "rasterize_top_view", "evaluation.rasterize_top_view"),
    (evaluation_module, "unilateral_chamfer", "evaluation.unilateral_chamfer"),
)


def attention_cost(m: int, d: int) -> tuple[int, int]:
    """Flops and bytes of one ``self_attention`` call, computed from shapes.

    Flops: four (M, D) x (D, D) products, q k^T and attn v (2 flops per
    multiply-add), plus the scale, softmax and residual elementwise work.
    Bytes: float64 operands read and results written by each of those steps.
    """
    flops = 8 * m * d * d + 4 * m * m * d + 5 * m * m + m * d
    words = 4 * d * d + 15 * m * d + 8 * m * m
    return flops, 8 * words


def _ew_counts(positives: list, y: np.ndarray, tau: float) -> tuple[int, int]:
    """(ordered pairs, pairs the fork gate exempts) among positive proposals."""
    pairs = exempt = 0
    for j, a in enumerate(positives):
        for k, b in enumerate(positives):
            if j != k:
                delta_w, _, _ = ew_pair_loss(a.x, b.x, y, math.inf)
                pairs += 1
                exempt += delta_w >= tau
    return pairs, int(exempt)


def new_counts() -> dict:
    """Exact counts gathered over one pass of a traced run's distinct inputs."""
    return {"points": 0, "valid": 0, "lidar_valid": 0, "cost_evals": 0, "ew_pairs": 0,
            "ew_pairs_exempt": 0, "thresholds": 0, "cells": [], "iou_pairs": 0, "iou_pass": 0}


# The count_* functions run after a traced op has returned, outside its time.


def count_sampling(counts: dict, keep: list) -> None:
    for feats, lidar in keep:
        counts["points"] += sum(f.valid.shape[0] for f in feats)
        counts["valid"] += sum(int(f.valid.sum()) for f in feats)
        counts["lidar_valid"] += sum(int(g.valid.sum()) for g in lidar or ())


def count_loss(counts: dict, gts: list, props: list, a, cfg: LossConfig, y) -> None:
    counts["cost_evals"] += len(gts) * len(props)
    pairs, exempt = _ew_counts([props[j] for j in a.positives], y, cfg.tau)
    counts["ew_pairs"] += pairs
    counts["ew_pairs_exempt"] += exempt


# --- score_corpus inputs -----------------------------------------------------------


def _class_probs(rng, num_categories: int, category: int, score: float) -> np.ndarray:
    """Distribution whose maximum lane-class probability is ``score``."""
    others = min(0.5 * score, 0.5 * (1.0 - score))
    probs = np.zeros(num_categories + 1)
    rest = [c for c in range(num_categories) if c != category]
    if not rest:
        others = 0.0
    else:
        probs[rest] = rng.dirichlet(np.ones(len(rest))) * others
    probs[category] = score
    probs[num_categories] = 1.0 - score - others
    return probs


def _perturbed(rng, gt: Lane3D, offset: float, score: float, num_categories: int) -> Proposal:
    n = gt.x.shape[0]
    return Proposal(
        class_probs=_class_probs(rng, num_categories, gt.category, score),
        x=gt.x + offset + rng.normal(0.0, 0.05, n),
        z=gt.z + rng.normal(0.0, 0.05, n),
        vis=np.clip(gt.visibility + rng.normal(0.0, 0.1, n), 0.0, 1.0),
    )


def _distractor(rng, y: np.ndarray, score: float, num_categories: int) -> Proposal:
    x = rng.uniform(-12.0, 12.0) + rng.normal(0.0, 0.03) * y
    return Proposal(
        class_probs=_class_probs(rng, num_categories, int(rng.integers(num_categories)), score),
        x=x,
        z=np.full(y.shape, rng.normal(0.0, 0.1)),
        vis=np.ones(y.shape),
    )


def _stored_frame(rng, i: int, profile, n_gt: int, fork: bool, n_props: int,
                  offsets: tuple) -> tuple[Frame, Frame]:
    """GT frame and a prediction frame: perturbed GT with the given lateral
    offsets (None drops that lane), then low-score distractors."""
    spec = _scene_spec(rng, i, max(n_gt, 1), fork)
    gts, rig = generate_scene(spec, profile)
    gts = _visible_gts(gts) if n_gt else []
    s = profile.num_categories
    props = []
    for k, gt in enumerate(gts):
        offset = offsets[k % len(offsets)]
        if offset is not None and len(props) < n_props:
            props.append(_perturbed(rng, gt, offset * rng.choice((-1.0, 1.0)),
                                    rng.uniform(0.5, 0.95), s))
    while len(props) < n_props:
        props.append(_distractor(rng, profile.y_samples, rng.uniform(0.05, 0.4), s))
    y = profile.y_samples
    return (Frame(id=str(i), camera=rig, lanes=gts),
            Frame(id=str(i), camera=rig, lanes=[p.to_lane(y) for p in props]))


@dataclass
class Bundle:
    """One stored corpus per protocol plus what the checks expect of it."""

    path: Path
    frames: tuple       # stored frames in the (loss, openlane, once) corpora
    loss_gt_counts: list
    ol_usable_gt: int
    ol_usable_scores: list
    once_visible_gt: int
    once_visible_preds: int


FILES = ("loss_gt", "loss_pred", "openlane_gt", "openlane_pred", "once_gt", "once_pred")


def build_bundles(seed: int, sizes: Sizes, workdir: Path) -> list[Bundle]:
    ol = make_profile("openlane")
    once = make_profile("once")
    rng = np.random.default_rng([seed, 303])
    bundles = []
    for b in range(sizes.bundles):
        path = workdir / f"bundle{b}"
        path.mkdir(parents=True, exist_ok=True)
        loss = [_stored_frame(rng, i, ol, 2 + i % 5, i % 2 == 1, sizes.proposals,
                              (0.1, 0.3, 0.2)) for i in range(sizes.loss_frames)]
        # Every third OpenLane frame has empty GT; offsets give TP, TP and FN+FP.
        openlane = [_stored_frame(rng, i, ol, (0, 3, 6)[i % 3], False, sizes.proposals,
                                  (0.3, 0.9, 2.5)) for i in range(sizes.openlane_frames)]
        # ONCE offsets give TP, FN+FP (0.6 m fails the IoU gate) and FN
        # (dropped); one distractor per frame adds an FP.
        once_frames = [_stored_frame(rng, i, once, 3, False, 3, (0.1, 0.6, None))
                       for i in range(sizes.once_frames)]
        for name, frames in (("loss", loss), ("openlane", openlane), ("once", once_frames)):
            write_lane_file(path / f"{name}_gt.json", [g for g, _ in frames])
            write_lane_file(path / f"{name}_pred.json", [p for _, p in frames])
        def usable(lanes):
            return [l for l in lanes if np.any(resample_lane(l, EVAL_OL.y_eval_samples).vis)]

        scores = sorted(l.score for _, p in openlane for l in usable(p.lanes))
        bundles.append(Bundle(
            path=path,
            frames=(len(loss), len(openlane), len(once_frames)),
            loss_gt_counts=[len(g.lanes) for g, _ in loss],
            ol_usable_gt=sum(len(usable(g.lanes)) for g, _ in openlane),
            ol_usable_scores=scores,
            once_visible_gt=sum(l.num_visible() > 0 for g, _ in once_frames for l in g.lanes),
            once_visible_preds=sum(l.num_visible() > 0 for _, p in once_frames for l in p.lanes),
        ))
    return bundles


def _proposal(lane: Lane3D) -> Proposal:
    return Proposal(class_probs=lane.class_probs, x=lane.x, z=lane.z, vis=lane.visibility,
                    score=lane.score)


def _pairs(gt_frames, pred_frames) -> list:
    by_id = {f.id: f for f in pred_frames}
    return [(g.lanes, by_id[g.id].lanes if g.id in by_id else []) for g in gt_frames]


@dataclass
class ScoreOutput:
    losses: list        # LossBreakdown per loss frame
    positives: list     # assigned proposal count per loss frame
    openlane: object    # EvalReport
    once: object        # OnceReport
    phase_s: tuple | None  # seconds in (loss, openlane, once); None when traced


def score(bundle: Bundle, loss_cfg: LossConfig, clock) -> ScoreOutput:
    """Score one stored corpus under the three protocols, reading lane files
    as the ``loss`` and ``evaluate`` commands do."""
    t0 = clock()
    gt = {f.id: f for f in read_lane_file(bundle.path / "loss_gt.json")}
    losses, positives = [], []
    for pf in read_lane_file(bundle.path / "loss_pred.json"):
        gts = gt[pf.id].lanes
        props = [_proposal(lane) for lane in pf.lanes]
        a = assign(gts, props, loss_cfg)
        breakdown, _ = total_loss(gts, props, a, loss_cfg, Y_OL)
        losses.append(breakdown)
        positives.append(len(a.positives))
    t1 = clock()
    ol = evaluate_openlane(_pairs(read_lane_file(bundle.path / "openlane_gt.json"),
                                  read_lane_file(bundle.path / "openlane_pred.json")), EVAL_OL)
    t2 = clock()
    once = evaluate_once(_pairs(read_lane_file(bundle.path / "once_gt.json"),
                                read_lane_file(bundle.path / "once_pred.json")), EVAL_ONCE)
    t3 = clock()
    return ScoreOutput(losses, positives, ol, once, (t1 - t0, t2 - t1, t3 - t2))


def _polyline(lane: Lane3D) -> np.ndarray:
    mask = lane.visible_mask
    return np.stack([lane.x[mask], lane.y[mask]], axis=1)


def traced_score(tr: Tracer, bundle: Bundle, loss_cfg: LossConfig, keep: list):
    """:func:`score` with a span per layer call; each loss frame's
    (GT, proposals, assignment) is appended to ``keep`` for counting."""
    def read(name):
        return tr.call("laneio.read_lane_file", read_lane_file, bundle.path / f"{name}.json")

    gt = {f.id: f for f in read("loss_gt")}
    losses, positives = [], []
    for pf in read("loss_pred"):
        gts = gt[pf.id].lanes
        props = [_proposal(lane) for lane in pf.lanes]
        a = tr.call("losses.assign", assign, gts, props, loss_cfg)
        breakdown, _ = tr.call("losses.total_loss", total_loss, gts, props, a, loss_cfg, Y_OL)
        losses.append(breakdown)
        positives.append(len(a.positives))
        keep.append((gts, props, a))
    ol = tr.call("evaluation.evaluate_openlane", evaluate_openlane,
                 _pairs(read("openlane_gt"), read("openlane_pred")), EVAL_OL)
    once = tr.call("evaluation.evaluate_once", evaluate_once,
                   _pairs(read("once_gt"), read("once_pred")), EVAL_ONCE)
    return ScoreOutput(losses, positives, ol, once, None)


def count_score(counts: dict, bundle: Bundle, out: ScoreOutput, keep: list,
                loss_cfg: LossConfig) -> None:
    for gts, props, a in keep:
        count_loss(counts, gts, props, a, loss_cfg, Y_OL)
    counts["thresholds"] += len(out.openlane.counts)
    # The cells evaluate_once rasterizes, and the IoU gate it applies.
    for gts, preds in _pairs(read_lane_file(bundle.path / "once_gt.json"),
                             read_lane_file(bundle.path / "once_pred.json")):
        gts = [g for g in gts if g.num_visible() > 0]
        preds = [p for p in preds if p.num_visible() > 0]
        if not gts or not preds:
            continue
        gt_cells = [rasterize_top_view(_polyline(g), EVAL_ONCE) for g in gts]
        pred_cells = [rasterize_top_view(_polyline(p), EVAL_ONCE) for p in preds]
        counts["cells"].extend(len(c) for c in gt_cells + pred_cells)
        for a in gt_cells:
            for b in pred_cells:
                union = len(a | b)
                counts["iou_pairs"] += 1
                counts["iou_pass"] += bool(union) and len(a & b) / union >= EVAL_ONCE.iou_threshold


@dataclass
class StepOutput:
    proposals: list
    assignment: object
    breakdown: object
    grads: object


def train_step(model: Model, scene: Scene) -> StepOutput:
    props = forward(model, scene).proposals
    a = assign(scene.gts, props, model.loss_cfg)
    breakdown, grads = total_loss(scene.gts, props, a, model.loss_cfg, model.y)
    return StepOutput(props, a, breakdown, grads)


def traced_train_step(tr: Tracer, model: Model, scene: Scene, keep: list) -> StepOutput:
    props = traced_forward(tr, model, scene, keep)
    a = tr.call("losses.assign", assign, scene.gts, props, model.loss_cfg)
    breakdown, grads = tr.call("losses.total_loss", total_loss, scene.gts, props, a,
                               model.loss_cfg, model.y)
    return StepOutput(props, a, breakdown, grads)


def sizes_report(sizes: Sizes) -> dict:
    d = asdict(sizes)
    d["points_per_lane"] = make_profile("openlane").num_points
    d["nc_infer"] = d["points_per_lane"] * sizes.channels
    d["nc_train_fusion"] = d["points_per_lane"] * (sizes.channels + sizes.lidar_channels)
    return d


def input_digest(model, items: list) -> str:
    """Hash of every generated input: weights, scenes or stored lane files."""
    h = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())

    if isinstance(model, Model):
        add(model.bank.xs, model.bank.phi, model.bank.theta, model.coeff.a_xs, model.coeff.b_xs)
        for w in model.heads.values():
            add(w.w_q, w.w_k, w.w_v, w.w_o, w.cls_w, w.reg_w)
    for item in items:
        if isinstance(item, Scene):
            add(item.rig.K, item.rig.T_gc, *(m.data for m in item.maps.values()))
            add(*(v.data for v in (item.vols or {}).values()))
            for g in item.gts:
                add(g.x, g.y, g.z, g.visibility)
        else:
            for name in FILES:
                h.update((item.path / f"{name}.json").read_bytes())
    return h.hexdigest()
