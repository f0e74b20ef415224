"""Prediction head and the multi-stage iterative refinement loop.

The head runs single-head scaled dot-product self-attention (with a
residual connection, no normalization layers) over the per-anchor feature
matrix, then applies a softmax classification head and a linear regression
head producing x/z offsets and visibility logits.  Each refinement stage
re-seeds its anchors from the previous stage's proposals.

The attended features feed nothing but the two linear heads, so the value
and output projections are folded into them: with ``A`` the attention map
and ``H = [cls_w | reg_w]``,

    (x + A x W_v W_o) H = x H + A (x G),    G = W_v W_o H,

and ``G`` is (C, S+1+3N), built once per :class:`HeadWeights`.  A stage then
runs two (M, C)·(C, C) products (the queries and keys) instead of four.
``W_q W_kᵀ`` is not folded: that fold is (C, C), as large as the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .anchors import (
    CoefficientHeadWeights,
    MetaRanges,
    PrototypeBank,
    generate_anchors,
    softmax_rows,
)
from .errors import PipelineStageError, ShapeMismatch
from .geometry import CameraRig
from .lanes import Lane3D
from .sampling import FeatureMap, FeatureVolume, fuse, sample_camera, sample_lidar


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

    def to_anchor(self, y_samples: np.ndarray) -> np.ndarray:
        """The proposal's (N, 3) points at ``y_samples``: a next-stage anchor."""
        return np.stack([self.x, np.asarray(y_samples, dtype=np.float64), self.z], axis=1)


def _frozen(value) -> np.ndarray:
    """``value`` as a read-only float64 array that no caller can write through.

    A view of other memory, or the caller's own writable array, is copied; a
    fresh conversion or an owned read-only float64 array is taken as it is.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.base is not None or (arr is value and arr.flags.writeable):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class HeadWeights:
    """Attention, classification, and regression parameters for one stage.

    ``w_q/w_k/w_v/w_o`` are (C, C); ``cls_w`` is (C, S+1) with bias (S+1,);
    ``reg_w`` is (C, 3N) with bias (3N,), laid out as x offsets, z offsets,
    then visibility logits.

    ``fold`` is derived, not a parameter: the folded value head
    ``G = W_v W_o [cls_w | reg_w]``, (C, S+1+3N), computed once at
    construction (see the module docstring).  It is never stored in a
    weights file.  Weights whose fold overflows float64 can be built (the
    file writer reports such weights) but ``fold_finite`` is then false and
    :func:`predict` refuses them.  The weights are immutable: rebinding a
    field or writing into any of the arrays raises, so the fold cannot go
    stale.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    cls_w: np.ndarray
    cls_b: np.ndarray
    reg_w: np.ndarray
    reg_b: np.ndarray
    fold: np.ndarray = field(init=False, repr=False)
    fold_finite: bool = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v", "w_o", "cls_w", "cls_b", "reg_w", "reg_b"):
            arr = _frozen(getattr(self, name))
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)
        c = self.w_q.shape[0] if self.w_q.ndim else 0
        for name in ("w_q", "w_k", "w_v", "w_o"):
            if getattr(self, name).shape != (c, c):
                raise ShapeMismatch(name, (c, c), getattr(self, name).shape)
        if (self.cls_w.ndim != 2 or self.cls_w.shape[0] != c
                or self.cls_b.shape != self.cls_w.shape[1:]):
            raise ShapeMismatch("cls head", f"({c}, S+1) / (S+1,)",
                                (self.cls_w.shape, self.cls_b.shape))
        if self.reg_w.ndim != 2 or self.reg_w.shape[0] != c or self.reg_w.shape[1] % 3 != 0:
            raise ShapeMismatch("reg head", f"({c}, 3N)", self.reg_w.shape)
        if self.reg_b.shape != (self.reg_w.shape[1],):
            raise ShapeMismatch("reg bias", (self.reg_w.shape[1],), self.reg_b.shape)
        # Gᵀ = (Hᵀ W_oᵀ) W_vᵀ is the cheapest order of the three products.
        heads_t = np.concatenate([self.cls_w.T, self.reg_w.T])
        with np.errstate(over="ignore", invalid="ignore"):
            fold = ((heads_t @ self.w_o.T) @ self.w_v.T).T
        fold.flags.writeable = False
        object.__setattr__(self, "fold", fold)
        object.__setattr__(self, "fold_finite", bool(np.isfinite(fold).all()))

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
            m = rng.normal(0.0, scale, size=shape)
            m.flags.writeable = False  # no other reference: taken without a copy
            return m

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
    """The (M, M) single-head attention map ``softmax((x W_q)(x W_k)ᵀ / √C)``.

    Its rows sum to 1.  The values and the residual are applied by
    :func:`predict` through the folded value head ``w.fold``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.feature_len:
        raise ShapeMismatch("attention input", ("M", w.feature_len), x.shape)
    q = x @ w.w_q
    k = x @ w.w_k
    return softmax_rows(q @ k.T / math.sqrt(x.shape[1]))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def predict(features: np.ndarray, anchors: np.ndarray, w: HeadWeights) -> list[Proposal]:
    """Run the head on per-anchor features and build proposals.

    ``features`` is the (M, C) matrix whose rows are the anchors' flattened
    :class:`~lane3d_kit.sampling.AnchorFeature` values (a batch's ``flat``),
    aligned with ``anchors``, the (M, N, 3) anchor points (a list of (N, 3)
    arrays is stacked into the same array).  A proposal's x is its anchor's
    x plus the regressed dx, and likewise z.  With ``A = self_attention(x, w)``
    the heads are

        logits = x cls_w + A (x G_cls) + cls_b,   reg = x reg_w + A (x G_reg) + reg_b,

    where ``G = [G_cls | G_reg]`` is ``w.fold``: the same numbers as the
    linear heads applied to ``x + A x W_v W_o``, summed in another order.
    """
    x = np.asarray(features, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.ndim != 3 or anchors.shape[2] != 3:
        raise ShapeMismatch("anchor points", "(M, N, 3)", anchors.shape)
    if x.shape[0] != len(anchors):
        raise ShapeMismatch("features vs anchors", len(anchors), x.shape[0])
    if x.shape[1] != w.feature_len:
        raise ShapeMismatch("per-anchor feature length", w.feature_len, x.shape[1])
    n = w.num_points
    if n != anchors.shape[1]:
        raise ShapeMismatch("regression points", anchors.shape[1], n)
    if not w.fold_finite:
        raise ValueError("the folded value head W_v W_o [cls_w | reg_w] overflows float64")

    attended = self_attention(x, w) @ (x @ w.fold)
    s1 = w.cls_b.shape[0]
    probs = softmax_rows(x @ w.cls_w + attended[:, :s1] + w.cls_b)
    reg = x @ w.reg_w + attended[:, s1:] + w.reg_b
    dx, dz, vis_logits = reg[:, :n], reg[:, n:2 * n], reg[:, 2 * n:]
    vis = _sigmoid(vis_logits)
    xs, zs = anchors[:, :, 0] + dx, anchors[:, :, 2] + dz
    return [Proposal(class_probs=probs[j], x=xs[j], z=zs[j], vis=vis[j])
            for j in range(len(anchors))]


@dataclass
class StageTrace:
    """Everything one refinement stage consumed and produced.

    ``anchors`` is the stage's (M, N, 3) anchor points, the array it sampled
    and regressed from; ``proposals`` is the list form kept for per-lane
    callers.
    """

    stage: int
    level: int
    anchors: np.ndarray
    proposals: list[Proposal]


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
    hands its proposals to the next stage as anchors.  A stage's anchors are
    one (M, N, 3) array of points: it samples them with ``sample_camera``
    (and ``sample_lidar`` when volumes are supplied), joins the two with
    ``fuse`` and hands the batch's (M, N*C) ``flat`` and the points to
    ``predict``; all four are looked up as module globals at each stage.
    The next stage's anchors are the proposals' points, stacked once.
    """
    y_samples = np.asarray(y_samples, dtype=np.float64)
    for level, wid in plan.stages:
        if level not in features:
            raise ShapeMismatch("feature levels", f"level {level} present", sorted(features))
        if lidar is not None and level not in lidar:
            raise ShapeMismatch("lidar levels", f"level {level} present", sorted(lidar))
        if wid not in head_weights:
            raise KeyError(f"stage plan references unknown head weights id {wid!r}")

    _, anchors = generate_anchors(features[5], bank, coeff_weights, ranges, y_samples)
    trace: list[StageTrace] = []
    proposals: list[Proposal] = []
    for idx, (level, wid) in enumerate(plan.stages):
        try:
            feats = sample_camera(anchors, features[level], rig)
            if lidar is not None:
                feats = fuse(feats, sample_lidar(anchors, lidar[level], rig))
            proposals = predict(feats.flat, anchors, head_weights[wid])
        except Exception as e:
            raise PipelineStageError(idx, e) from e
        trace.append(StageTrace(stage=idx, level=level, anchors=anchors, proposals=proposals))
        anchors = np.stack([p.to_anchor(y_samples) for p in proposals])
    return PipelineResult(proposals=proposals, trace=trace)
