"""Anchor metas, prototype banks, and sample-adaptive anchor generation.

An anchor is a straight ray in the ground frame determined by three metas:
the starting x on the lateral axis, the in-plane angle ``phi`` versus the
forward axis, and the vertical angle ``theta`` versus the forward axis.
Metas are produced by mixing learned prototype vectors with
image-conditioned softmax coefficients, then mapped into configured ranges.
:func:`materialize` turns a meta triple into the anchor itself, the (N, 3)
array of its (x, y, z) points at the profile's y-samples; a stage's M
anchors are one (M, N, 3) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatch

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .sampling import FeatureMap

ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class AnchorMetas:
    """The (xs, phi, theta) triple determining one anchor ray.

    xs in meters, angles in radians.
    """

    xs: float
    phi: float
    theta: float


@dataclass
class MetaRanges:
    """Inclusive intervals the generated metas are mapped into.

    Defaults: xs in [-12, 12] m, phi in [-60, 60] deg, theta in [-5, 5] deg.
    Each range must be non-empty with a width float64 can hold, and the
    angle ranges must lie strictly inside (-pi/2, pi/2), where
    :func:`materialize` can take a tangent.
    """

    xs_min: float = -12.0
    xs_max: float = 12.0
    phi_min: float = -math.pi / 3
    phi_max: float = math.pi / 3
    theta_min: float = -math.radians(5.0)
    theta_max: float = math.radians(5.0)

    def __post_init__(self):
        for lo, hi, name, bound in (
            (self.xs_min, self.xs_max, "xs", math.inf),
            (self.phi_min, self.phi_max, "phi", math.pi / 2),
            (self.theta_min, self.theta_max, "theta", math.pi / 2),
        ):
            if not lo < hi:
                raise ValueError(f"{name} range [{lo}, {hi}] is empty")
            if not math.isfinite(hi - lo):
                raise ValueError(f"{name} range [{lo}, {hi}] is wider than float64 can hold")
            if not -bound < lo < hi < bound:
                raise ValueError(f"{name} range [{lo}, {hi}] is not inside (-pi/2, pi/2)")


@dataclass
class PrototypeBank:
    """Learned prototype vectors per meta, nominally min-max scaled to [-1, 1]."""

    xs: np.ndarray
    phi: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.phi = np.asarray(self.phi, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)

    @classmethod
    def uniform(cls, m_xs: int = 30, m_phi: int = 15, m_theta: int = 5) -> "PrototypeBank":
        """Evenly spaced prototypes over [-1, 1], the untrained initialization."""
        return cls(
            xs=np.linspace(-1.0, 1.0, m_xs),
            phi=np.linspace(-1.0, 1.0, m_phi),
            theta=np.linspace(-1.0, 1.0, m_theta),
        )


@dataclass
class CoefficientMatrices:
    """Per-anchor mixing coefficients, one row-normalized matrix per meta."""

    xs: np.ndarray
    phi: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.phi = np.asarray(self.phi, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        rows = {m.shape[0] for m in (self.xs, self.phi, self.theta)}
        if len(rows) != 1:
            raise ShapeMismatch("coefficient row counts", "equal", sorted(rows))
        for name, m in (("xs", self.xs), ("phi", self.phi), ("theta", self.theta)):
            if np.any(m < 0.0):
                raise ValueError(f"{name} coefficients contain negative entries")
            if not np.allclose(m.sum(axis=1), 1.0, atol=ROW_SUM_TOL):
                raise ValueError(f"{name} coefficient rows do not sum to 1")


@dataclass
class CoefficientHeadWeights:
    """Linear layers mapping the pooled image feature to mixing logits.

    Each weight tensor has shape (L, M_a, M_meta) where L is the flattened
    pooled-feature length (W_F * C_F); biases are (M_a, M_meta).
    """

    a_xs: np.ndarray
    b_xs: np.ndarray
    a_phi: np.ndarray
    b_phi: np.ndarray
    a_theta: np.ndarray
    b_theta: np.ndarray

    def __post_init__(self):
        for name in ("a_xs", "b_xs", "a_phi", "b_phi", "a_theta", "b_theta"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        for a, b, name in (
            (self.a_xs, self.b_xs, "xs"),
            (self.a_phi, self.b_phi, "phi"),
            (self.a_theta, self.b_theta, "theta"),
        ):
            if a.ndim != 3:
                raise ShapeMismatch(f"{name} weight", "(L, M_a, M)", a.shape)
            if b.shape != a.shape[1:]:
                raise ShapeMismatch(f"{name} bias", a.shape[1:], b.shape)

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
    coeffs: CoefficientMatrices,
    ranges: MetaRanges,
) -> list[AnchorMetas]:
    """Mix prototypes into anchor metas and map them into their ranges.

    For each anchor the raw meta is the coefficient-weighted sum of the
    prototype vector, truncated to [-1, 1] and then affinely mapped onto
    [lo, hi], so every meta stays inside its range.
    """
    if coeffs.xs.shape[1] != bank.xs.shape[0]:
        raise ShapeMismatch("xs coefficients", bank.xs.shape[0], coeffs.xs.shape[1])
    if coeffs.phi.shape[1] != bank.phi.shape[0]:
        raise ShapeMismatch("phi coefficients", bank.phi.shape[0], coeffs.phi.shape[1])
    if coeffs.theta.shape[1] != bank.theta.shape[0]:
        raise ShapeMismatch("theta coefficients", bank.theta.shape[0], coeffs.theta.shape[1])

    def mix(q, w, lo, hi):
        raw = w @ q
        clipped = np.clip(raw, -1.0, 1.0)
        # The affine map can round one ulp past an end; the outer clip undoes that.
        return np.clip((clipped + 1.0) * 0.5 * (hi - lo) + lo, lo, hi)

    xs = mix(bank.xs, coeffs.xs, ranges.xs_min, ranges.xs_max)
    phi = mix(bank.phi, coeffs.phi, ranges.phi_min, ranges.phi_max)
    theta = mix(bank.theta, coeffs.theta, ranges.theta_min, ranges.theta_max)
    return [AnchorMetas(float(a), float(b), float(c)) for a, b, c in zip(xs, phi, theta)]


def pool_and_weigh(feature: "FeatureMap", weights: CoefficientHeadWeights) -> CoefficientMatrices:
    """Pool an image feature and produce row-normalized mixing coefficients.

    The feature is averaged over its height dimension and flattened
    width-major then channel; each linear head then yields one logit matrix
    which is normalized per row.
    """
    pooled = feature.data.mean(axis=0).reshape(-1)
    if pooled.shape[0] != weights.a_xs.shape[0]:
        raise ShapeMismatch("pooled feature length", weights.a_xs.shape[0], pooled.shape[0])

    def head(a, b):
        return softmax_rows(np.tensordot(pooled, a, axes=1) + b)

    return CoefficientMatrices(
        xs=head(weights.a_xs, weights.b_xs),
        phi=head(weights.a_phi, weights.b_phi),
        theta=head(weights.a_theta, weights.b_theta),
    )


def materialize(metas: AnchorMetas, y_samples: np.ndarray) -> np.ndarray:
    """Turn a meta triple into the ray's (N, 3) points (x, y, z) at the
    given y-samples.

    x grows by tan(phi) per meter forward, z by tan(theta); both angles
    must stay clear of +-90 degrees.  :class:`MetaRanges` already keeps
    generated metas there; this check covers metas built by hand.
    """
    if not (abs(metas.phi) < math.pi / 2 and abs(metas.theta) < math.pi / 2):
        raise ValueError(f"anchor angles out of (-pi/2, pi/2): {metas}")
    y = np.asarray(y_samples, dtype=np.float64)
    return np.stack([metas.xs + y * math.tan(metas.phi), y, y * math.tan(metas.theta)], axis=1)


def generate_anchors(
    feature: "FeatureMap",
    bank: PrototypeBank,
    weights: CoefficientHeadWeights,
    ranges: MetaRanges,
    y_samples: np.ndarray,
) -> tuple[list[AnchorMetas], np.ndarray]:
    """Full adaptive generation: pool, mix, and materialize all anchors.

    Returns the M metas and the anchors' (M, N, 3) points, row j
    materialized from meta j.
    """
    coeffs = pool_and_weigh(feature, weights)
    metas = combine_metas(bank, coeffs, ranges)
    y = np.asarray(y_samples, dtype=np.float64)
    return metas, (np.stack([materialize(m, y) for m in metas]) if metas
                   else np.empty((0, y.shape[0], 3)))
