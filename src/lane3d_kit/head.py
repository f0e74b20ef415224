"""Prediction head and the multi-stage iterative refinement loop.

The head runs single-head scaled dot-product self-attention (with a
residual connection, no normalization layers) over the per-anchor feature
matrix, then applies a softmax classification head and a linear regression
head producing x/z offsets and visibility logits.  Each refinement stage
re-seeds its anchors from the previous stage's proposals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchors import (
    Anchor3D,
    CoefficientHeadWeights,
    MetaRanges,
    PrototypeBank,
    generate_anchors,
    softmax_rows,
)
from .errors import PipelineStageError, ShapeMismatch
from .geometry import CameraRig
from .jsonable import to_json
from .lanes import Lane3D
from .sampling import FeatureMap, FeatureVolume, sample_anchors, sample_anchors_lidar


@dataclass
class Proposal:
    """One refined lane hypothesis.

    ``class_probs`` has S lane categories followed by the non-lane class at
    the last index; ``score`` is the maximum lane-class probability.
    """

    class_probs: np.ndarray
    x: np.ndarray
    z: np.ndarray
    vis: np.ndarray
    score: float | None = None

    def __post_init__(self):
        self.class_probs = np.asarray(self.class_probs, dtype=np.float64)
        self.x = np.asarray(self.x, dtype=np.float64)
        self.z = np.asarray(self.z, dtype=np.float64)
        self.vis = np.asarray(self.vis, dtype=np.float64)
        if not (self.x.shape == self.z.shape == self.vis.shape):
            raise ShapeMismatch("proposal arrays", self.x.shape, (self.z.shape, self.vis.shape))
        if self.score is None:
            self.score = float(self.class_probs[:-1].max()) if self.class_probs.shape[0] > 1 else float(self.class_probs[0])

    @property
    def category(self) -> int:
        """Most likely lane category (ignoring the non-lane slot)."""
        return int(np.argmax(self.class_probs[:-1])) if self.class_probs.shape[0] > 1 else 0

    def to_lane(self, y_samples: np.ndarray) -> Lane3D:
        return Lane3D(
            x=self.x.copy(),
            y=np.asarray(y_samples, dtype=np.float64).copy(),
            z=self.z.copy(),
            visibility=self.vis.copy(),
            category=self.category,
            score=self.score,
            class_probs=self.class_probs.copy(),
        )

    def to_anchor(self, y_samples: np.ndarray) -> Anchor3D:
        return Anchor3D(x=self.x.copy(), y=np.asarray(y_samples, dtype=np.float64).copy(),
                        z=self.z.copy(), metas=None)


@dataclass
class HeadWeights:
    """Attention, classification, and regression parameters for one stage.

    ``w_q/w_k/w_v/w_o`` are (C, C); ``cls_w`` is (C, S+1) with bias (S+1,);
    ``reg_w`` is (C, 3N) with bias (3N,), laid out as x offsets, z offsets,
    then visibility logits.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    cls_w: np.ndarray
    cls_b: np.ndarray
    reg_w: np.ndarray
    reg_b: np.ndarray

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v", "w_o", "cls_w", "cls_b", "reg_w", "reg_b"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            setattr(self, name, arr)
        c = self.w_q.shape[0]
        for name in ("w_q", "w_k", "w_v", "w_o"):
            if getattr(self, name).shape != (c, c):
                raise ShapeMismatch(name, (c, c), getattr(self, name).shape)
        if self.cls_w.shape[0] != c or self.cls_b.shape != (self.cls_w.shape[1],):
            raise ShapeMismatch("cls head", f"({c}, S+1) / (S+1,)",
                                (self.cls_w.shape, self.cls_b.shape))
        if self.reg_w.shape[0] != c or self.reg_w.shape[1] % 3 != 0:
            raise ShapeMismatch("reg head", f"({c}, 3N)", self.reg_w.shape)
        if self.reg_b.shape != (self.reg_w.shape[1],):
            raise ShapeMismatch("reg bias", (self.reg_w.shape[1],), self.reg_b.shape)

    @property
    def feature_len(self) -> int:
        return self.w_q.shape[0]

    @property
    def num_points(self) -> int:
        return self.reg_w.shape[1] // 3

    @classmethod
    def random(cls, rng: np.random.Generator, feature_len: int, num_classes: int,
               num_points: int, scale: float = 0.02) -> "HeadWeights":
        c = feature_len

        def mat(*shape):
            return rng.normal(0.0, scale, size=shape)

        return cls(
            w_q=mat(c, c), w_k=mat(c, c), w_v=mat(c, c), w_o=mat(c, c),
            cls_w=mat(c, num_classes + 1), cls_b=mat(num_classes + 1),
            reg_w=mat(c, 3 * num_points), reg_b=mat(3 * num_points),
        )


@dataclass
class StagePlan:
    """Ordered refinement schedule: (pyramid level, head-weights id) pairs."""

    stages: tuple[tuple[int, str], ...] = (
        (5, "stage1"), (5, "stage2"), (4, "stage3"), (3, "stage4"),
    )

    def __post_init__(self):
        for level, _ in self.stages:
            if level not in (3, 4, 5):
                raise ValueError(f"pyramid level must be 3, 4 or 5, got {level}")
        if not self.stages:
            raise ValueError("stage plan is empty")


def self_attention(x: np.ndarray, w: HeadWeights) -> np.ndarray:
    """Single-head scaled dot-product attention with a residual connection."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.feature_len:
        raise ShapeMismatch("attention input", ("M", w.feature_len), x.shape)
    q = x @ w.w_q
    k = x @ w.w_k
    v = x @ w.w_v
    attn = softmax_rows(q @ k.T / math.sqrt(x.shape[1]))
    return x + attn @ v @ w.w_o


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def predict(features: np.ndarray, anchors: list[Anchor3D], w: HeadWeights) -> list[Proposal]:
    """Run the head on per-anchor features and build proposals.

    ``features`` is the (M, C) matrix whose rows are the anchors' flattened
    :class:`~lane3d_kit.sampling.AnchorFeature` values, aligned with ``anchors``.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.shape[0] != len(anchors):
        raise ShapeMismatch("features vs anchors", len(anchors), x.shape[0])
    if x.shape[1] != w.feature_len:
        raise ShapeMismatch("per-anchor feature length", w.feature_len, x.shape[1])
    n = w.num_points
    if n != len(anchors[0]):
        raise ShapeMismatch("regression points", len(anchors[0]), n)

    attended = self_attention(x, w)
    probs = softmax_rows(attended @ w.cls_w + w.cls_b)
    reg = attended @ w.reg_w + w.reg_b
    dx, dz, vis_logits = reg[:, :n], reg[:, n:2 * n], reg[:, 2 * n:]
    vis = _sigmoid(vis_logits)
    return [
        Proposal(
            class_probs=probs[j],
            x=anchors[j].x + dx[j],
            z=anchors[j].z + dz[j],
            vis=vis[j],
        )
        for j in range(len(anchors))
    ]


@dataclass
class StageTrace:
    """Everything one refinement stage consumed and produced."""

    stage: int
    level: int
    anchors: list[Anchor3D]
    proposals: list[Proposal]

    def to_json_dict(self) -> dict:
        return {
            "stage": self.stage,
            "level": self.level,
            "anchors": [a.points.tolist() for a in self.anchors],
            "proposals": to_json(self.proposals),
        }


@dataclass
class PipelineResult:
    proposals: list[Proposal]
    trace: list[StageTrace]


def run_pipeline(
    features: dict[int, FeatureMap],
    lidar: dict[int, FeatureVolume] | None,
    rig: CameraRig,
    bank: PrototypeBank,
    coeff_weights: CoefficientHeadWeights,
    head_weights: dict[str, HeadWeights],
    plan: StagePlan,
    y_samples: np.ndarray,
    ranges: MetaRanges,
) -> PipelineResult:
    """Run all refinement stages and return final proposals plus the trace.

    Initial anchors come from adaptive generation on the level-5 feature;
    afterwards each stage samples features for its anchors, predicts, and
    hands its proposals to the next stage as anchors.  Each stage makes one
    sampling pass per modality (camera, and LiDAR when volumes are
    supplied) over all anchors, and builds the (M, N*C) head input with the
    camera channels first at every point, the layout of
    :func:`~lane3d_kit.sampling.fuse`'s ``flat``.
    """
    y_samples = np.asarray(y_samples, dtype=np.float64)
    for level, wid in plan.stages:
        if level not in features:
            raise ShapeMismatch("feature levels", f"level {level} present", sorted(features))
        if lidar is not None and level not in lidar:
            raise ShapeMismatch("lidar levels", f"level {level} present", sorted(lidar))
        if wid not in head_weights:
            raise KeyError(f"stage plan references unknown head weights id {wid!r}")

    anchors = generate_anchors(features[5], bank, coeff_weights, ranges, y_samples)
    trace: list[StageTrace] = []
    proposals: list[Proposal] = []
    for idx, (level, wid) in enumerate(plan.stages):
        try:
            values = np.stack([f.values for f in sample_anchors(anchors, features[level], rig)])
            if lidar is not None:
                lidar_values = np.stack(
                    [f.values for f in sample_anchors_lidar(anchors, lidar[level], rig)]
                )
                values = np.concatenate([values, lidar_values], axis=2)
            matrix = values.reshape(len(anchors), -1)
            proposals = predict(matrix, anchors, head_weights[wid])
        except Exception as e:
            raise PipelineStageError(idx, e) from e
        trace.append(StageTrace(stage=idx, level=level, anchors=anchors, proposals=proposals))
        anchors = [p.to_anchor(y_samples) for p in proposals]
    return PipelineResult(proposals=proposals, trace=trace)
