"""Anchor metas, prototype banks, and sample-adaptive anchor generation.

An anchor is a straight ray in the ground frame determined by three metas:
the starting x on the lateral axis, the in-plane angle ``phi`` versus the
forward axis, and the vertical angle ``theta`` versus the forward axis.
Metas are produced by mixing learned prototype vectors with
image-conditioned softmax coefficients, then mapped into configured ranges.

The chain is array math from end to end (PAAG, prototype-based adaptive
anchor generation): :func:`pool_and_weigh` gives the three (M, M_meta)
softmax matrices, :func:`combine_metas` one (M, 3) array of metas whose
columns are ``META_NAMES``, and :func:`materialize` the anchors themselves,
the (M, N, 3) array of their (x, y, z) points at the profile's y-samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatch
from .laneio import COORD_LIMIT

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .sampling import FeatureMap

# The columns of a metas array: xs in meters, phi and theta in radians.
META_NAMES = ("xs", "phi", "theta")

# libm's tangent, element by element.  np.tan's vectorized kernel differs from
# it in the last bit for some angles, which would move every anchor file.
_tan = np.frompyfunc(math.tan, 1, 1)


@dataclass
class MetaRanges:
    """Inclusive intervals the generated metas are mapped into.

    Defaults: xs in [-12, 12] m, phi in [-60, 60] deg, theta in [-5, 5] deg.
    Each range must be non-empty with a width float64 can hold.  The xs
    range must lie strictly inside (-1e150, 1e150), the coordinates a lane
    file holds (``laneio.COORD_LIMIT``), and the angle ranges strictly
    inside (-pi/2, pi/2), where :func:`materialize` can take a tangent.
    """

    xs_min: float = -12.0
    xs_max: float = 12.0
    phi_min: float = -math.pi / 3
    phi_max: float = math.pi / 3
    theta_min: float = -math.radians(5.0)
    theta_max: float = math.radians(5.0)

    def __post_init__(self):
        for lo, hi, name, bound, inside in (
            (self.xs_min, self.xs_max, "xs", COORD_LIMIT, "(-1e150, 1e150)"),
            (self.phi_min, self.phi_max, "phi", math.pi / 2, "(-pi/2, pi/2)"),
            (self.theta_min, self.theta_max, "theta", math.pi / 2, "(-pi/2, pi/2)"),
        ):
            if not lo < hi:
                raise ValueError(f"{name} range [{lo}, {hi}] is empty")
            if not math.isfinite(hi - lo):
                raise ValueError(f"{name} range [{lo}, {hi}] is wider than float64 can hold")
            if not -bound < lo < hi < bound:
                raise ValueError(f"{name} range [{lo}, {hi}] is not inside {inside}")


@dataclass
class PrototypeBank:
    """Learned prototype vectors per meta, nominally min-max scaled to [-1, 1].

    Each is a non-empty vector q: an anchor's raw meta is its row of
    coefficients times q, so the coefficient head has one column per entry.
    """

    xs: np.ndarray
    phi: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        for name in META_NAMES:
            q = np.asarray(getattr(self, name), dtype=np.float64)
            if q.ndim != 1 or q.shape[0] == 0:
                raise ShapeMismatch(f"{name} prototypes", "a non-empty vector", q.shape)
            setattr(self, name, q)

    @classmethod
    def uniform(cls, m_xs: int = 30, m_phi: int = 15, m_theta: int = 5) -> "PrototypeBank":
        """Evenly spaced prototypes over [-1, 1], the untrained initialization."""
        return cls(
            xs=np.linspace(-1.0, 1.0, m_xs),
            phi=np.linspace(-1.0, 1.0, m_phi),
            theta=np.linspace(-1.0, 1.0, m_theta),
        )


@dataclass
class CoefficientHeadWeights:
    """Linear layers mapping the pooled image feature to mixing logits.

    Each weight tensor has shape (L, M_a, M_meta) where L is the flattened
    pooled-feature length (W_F * C_F); biases are (M_a, M_meta).  The three
    heads give the same number M_a >= 1 of anchors.  L and each M_meta are
    checked where the feature map and the prototype bank are known.
    """

    a_xs: np.ndarray
    b_xs: np.ndarray
    a_phi: np.ndarray
    b_phi: np.ndarray
    a_theta: np.ndarray
    b_theta: np.ndarray

    def __post_init__(self):
        for name in META_NAMES:
            a = np.asarray(getattr(self, f"a_{name}"), dtype=np.float64)
            b = np.asarray(getattr(self, f"b_{name}"), dtype=np.float64)
            if a.ndim != 3:
                raise ShapeMismatch(f"{name} weight", "(L, M_a, M)", a.shape)
            if b.shape != a.shape[1:]:
                raise ShapeMismatch(f"{name} bias", a.shape[1:], b.shape)
            setattr(self, f"a_{name}", a)
            setattr(self, f"b_{name}", b)
        rows = sorted({getattr(self, f"a_{name}").shape[1] for name in META_NAMES})
        if len(rows) != 1:
            raise ShapeMismatch("coefficient row counts", "equal", rows)
        if rows[0] < 1:
            raise ShapeMismatch("anchor count", "at least 1", rows[0])

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        pooled_len: int,
        num_anchors: int,
        bank: PrototypeBank,
        scale: float = 0.05,
    ) -> "CoefficientHeadWeights":
        def pair(m):
            return (
                rng.normal(0.0, scale, size=(pooled_len, num_anchors, m)),
                rng.normal(0.0, scale, size=(num_anchors, m)),
            )

        a_xs, b_xs = pair(bank.xs.shape[0])
        a_phi, b_phi = pair(bank.phi.shape[0])
        a_theta, b_theta = pair(bank.theta.shape[0])
        return cls(a_xs, b_xs, a_phi, b_phi, a_theta, b_theta)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction so large logits cannot overflow."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def combine_metas(
    bank: PrototypeBank,
    coeffs: tuple[np.ndarray, np.ndarray, np.ndarray],
    ranges: MetaRanges,
) -> np.ndarray:
    """Mix prototypes into the (M, 3) anchor metas and map them into their ranges.

    ``coeffs`` are the (M, M_meta) coefficient matrices of ``META_NAMES``, in
    that order, as :func:`pool_and_weigh` returns them.  Column k of the result
    is meta k of every anchor: the coefficient-weighted sum ``w @ q`` of the
    prototype vector, truncated to [-1, 1] and then affinely mapped onto
    [lo, hi], so every meta stays inside its range.
    """
    columns = []
    for name, w in zip(META_NAMES, coeffs):
        q = getattr(bank, name)
        if w.shape[1] != q.shape[0]:
            raise ShapeMismatch(f"{name} coefficients", q.shape[0], w.shape[1])
        lo, hi = getattr(ranges, f"{name}_min"), getattr(ranges, f"{name}_max")
        clipped = np.clip(w @ q, -1.0, 1.0)
        # The affine map can round one ulp past an end; the outer clip undoes that.
        columns.append(np.clip((clipped + 1.0) * 0.5 * (hi - lo) + lo, lo, hi))
    return np.stack(columns, axis=1)


def pool_and_weigh(feature: "FeatureMap", weights: CoefficientHeadWeights) -> tuple:
    """Pool an image feature into the (M, M_meta) mixing coefficients of
    ``META_NAMES``, in that order.

    The feature is averaged over its height dimension and flattened
    width-major then channel; each linear head then yields one logit matrix
    whose rows the softmax normalizes.
    """
    pooled = feature.data.mean(axis=0).reshape(-1)
    if pooled.shape[0] != weights.a_xs.shape[0]:
        raise ShapeMismatch("pooled feature length", weights.a_xs.shape[0], pooled.shape[0])
    return tuple(softmax_rows(np.tensordot(pooled, getattr(weights, f"a_{name}"), axes=1)
                              + getattr(weights, f"b_{name}")) for name in META_NAMES)


def materialize(metas: np.ndarray, y_samples: np.ndarray) -> np.ndarray:
    """Turn (..., 3) metas into their rays' (..., N, 3) points (x, y, z) at
    the given y-samples: one (3,) row gives one (N, 3) anchor, the (M, 3)
    metas the (M, N, 3) anchors.

    x grows by tan(phi) per meter forward, z by tan(theta); both angles
    must stay clear of +-90 degrees.  :class:`MetaRanges` already keeps
    generated metas there; this check covers metas built by hand.
    """
    metas = np.asarray(metas, dtype=np.float64)
    xs, phi, theta = metas[..., 0:1], metas[..., 1:2], metas[..., 2:3]
    bad = ~((np.abs(phi) < math.pi / 2) & (np.abs(theta) < math.pi / 2))
    if bad.any():
        row = metas[bad[..., 0]][0].tolist()
        raise ValueError(f"anchor angles out of (-pi/2, pi/2): {dict(zip(META_NAMES, row))}")
    y = np.asarray(y_samples, dtype=np.float64)
    x = xs + y * _tan(phi).astype(np.float64)
    return np.stack([x, np.broadcast_to(y, x.shape), y * _tan(theta).astype(np.float64)], axis=-1)


def generate_anchors(
    feature: "FeatureMap",
    bank: PrototypeBank,
    weights: CoefficientHeadWeights,
    ranges: MetaRanges,
    y_samples: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Full adaptive generation: pool, mix, and materialize all anchors.

    Returns the (M, 3) metas and the anchors' (M, N, 3) points, row j
    materialized from meta row j.
    """
    metas = combine_metas(bank, pool_and_weigh(feature, weights), ranges)
    return metas, materialize(metas, y_samples)
