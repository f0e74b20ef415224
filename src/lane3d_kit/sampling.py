"""Dense feature containers and the interpolation used to read them.

Grids are center-aligned: a sample exactly on an integer cell coordinate
returns that cell's stored value.  Samples outside the grid (or behind the
camera) return zeros and are flagged invalid so they stay inert downstream.

Each refinement stage makes one sampling pass per modality:
:func:`sample_anchors` projects and bilinearly samples every anchor's
points in one call, and :func:`sample_anchors_lidar` transforms and
trilinearly samples them in one call; both then slice the result per anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .anchors import Anchor3D
from .errors import LengthMismatch, ShapeMismatch
from .geometry import CameraRig, project_points_to_feature, project_points_to_lidar


@dataclass
class FeatureMap:
    """A dense 2D feature grid of shape (H_F, W_F, C_F) at pyramid level 3-5."""

    data: np.ndarray
    level: int = 5

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ShapeMismatch("feature map", "(H, W, C)", self.data.shape)
        if self.level not in (3, 4, 5):
            raise ValueError(f"pyramid level must be 3, 4 or 5, got {self.level}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature map contains non-finite values")


@dataclass
class FeatureVolume:
    """A dense 3D grid of shape (D, H, W, C) covering a ground-frame box.

    Axis mapping: D indexes z (up), H indexes y (forward), W indexes x
    (right).  ``extent`` is a (3, 2) array of per-axis (min, max) in x, y, z
    order, giving the positions of the first and last cell centers.
    """

    data: np.ndarray
    extent: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.extent = np.asarray(self.extent, dtype=np.float64)
        if self.data.ndim != 4:
            raise ShapeMismatch("feature volume", "(D, H, W, C)", self.data.shape)
        if self.extent.shape != (3, 2):
            raise ShapeMismatch("volume extent", "(3, 2)", self.extent.shape)
        if not np.all(self.extent[:, 0] < self.extent[:, 1]):
            raise ValueError(f"volume extent min must be < max per axis: {self.extent}")


@dataclass
class AnchorFeature:
    """Per-point feature vectors for one anchor plus a validity mask.

    ``values`` is (N, C); invalid points hold exact zeros.  ``flat`` gives
    the channel-concatenated layout in point order, which is the per-anchor
    feature the prediction head consumes.
    """

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.values.ndim != 2 or self.valid.shape != (self.values.shape[0],):
            raise ShapeMismatch(
                "anchor feature", f"(N, C) with (N,) mask", (self.values.shape, self.valid.shape)
            )

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


def bilinear_sample(
    fm: FeatureMap, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear interpolation of a feature map at (M,) fractional (u, v) points.

    Returns (values (M, C), valid (M,)); points outside the grid are zeroed
    and flagged invalid.
    """
    data = fm.data
    h, w, _ = data.shape
    valid = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    uc = np.clip(u, 0.0, w - 1.0)
    vc = np.clip(v, 0.0, h - 1.0)
    u0 = np.minimum(np.floor(uc).astype(np.intp), w - 2 if w > 1 else 0)
    v0 = np.minimum(np.floor(vc).astype(np.intp), h - 2 if h > 1 else 0)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = (uc - u0)[:, None]
    fv = (vc - v0)[:, None]
    out = (
        data[v0, u0] * (1.0 - fu) * (1.0 - fv)
        + data[v0, u1] * fu * (1.0 - fv)
        + data[v1, u0] * (1.0 - fu) * fv
        + data[v1, u1] * fu * fv
    )
    out[~valid] = 0.0
    return out, valid


def _volume_fractional_coords(fv: FeatureVolume, xyz: np.ndarray) -> np.ndarray:
    """Map ground/LiDAR-frame points to fractional (iz, iy, ix) cell coords."""
    d, h, w, _ = fv.data.shape
    counts = np.array([w, h, d], dtype=np.float64)  # x, y, z order
    span = fv.extent[:, 1] - fv.extent[:, 0]
    # With a single cell along an axis the center sits mid-extent.
    denom = np.where(counts > 1, span, 1.0)
    steps = np.where(counts > 1, denom / np.maximum(counts - 1, 1), 1.0)
    rel = (xyz - fv.extent[:, 0]) / steps
    single = counts == 1
    if np.any(single):
        mid = (fv.extent[:, 0] + fv.extent[:, 1]) * 0.5
        rel[:, single] = (xyz[:, single] - mid[single]) / steps[single]
    return rel[:, ::-1]  # -> (iz, iy, ix)


def trilinear_sample(fv: FeatureVolume, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear interpolation of a feature volume at (M, 3) LiDAR-frame points.

    Returns (values (M, C), valid (M,)); points outside the extent are
    zeroed and flagged invalid.
    """
    d, h, w, _ = fv.data.shape
    frac = _volume_fractional_coords(fv, np.asarray(xyz, dtype=np.float64))
    iz, iy, ix = frac[:, 0], frac[:, 1], frac[:, 2]
    valid = (
        (ix >= 0.0) & (ix <= w - 1.0)
        & (iy >= 0.0) & (iy <= h - 1.0)
        & (iz >= 0.0) & (iz <= d - 1.0)
    )
    ixc = np.clip(ix, 0.0, w - 1.0)
    iyc = np.clip(iy, 0.0, h - 1.0)
    izc = np.clip(iz, 0.0, d - 1.0)
    x0 = np.minimum(np.floor(ixc).astype(np.intp), w - 2 if w > 1 else 0)
    y0 = np.minimum(np.floor(iyc).astype(np.intp), h - 2 if h > 1 else 0)
    z0 = np.minimum(np.floor(izc).astype(np.intp), d - 2 if d > 1 else 0)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    z1 = np.minimum(z0 + 1, d - 1)
    fx = (ixc - x0)[:, None]
    fy = (iyc - y0)[:, None]
    fz = (izc - z0)[:, None]
    g = fv.data
    c00 = g[z0, y0, x0] * (1 - fx) + g[z0, y0, x1] * fx
    c01 = g[z0, y1, x0] * (1 - fx) + g[z0, y1, x1] * fx
    c10 = g[z1, y0, x0] * (1 - fx) + g[z1, y0, x1] * fx
    c11 = g[z1, y1, x0] * (1 - fx) + g[z1, y1, x1] * fx
    c0 = c00 * (1 - fy) + c01 * fy
    c1 = c10 * (1 - fy) + c11 * fy
    out = c0 * (1 - fz) + c1 * fz
    out[~valid] = 0.0
    return out, valid


def _per_anchor(values: np.ndarray, valid: np.ndarray, n: int) -> list[AnchorFeature]:
    """Slice the samples of consecutive n-point anchors into one feature each."""
    return [
        AnchorFeature(values=values[i:i + n], valid=valid[i:i + n])
        for i in range(0, valid.shape[0], n)
    ]


def sample_anchors(anchors: list[Anchor3D], fm: FeatureMap, rig: CameraRig) -> list[AnchorFeature]:
    """Project every anchor's points into the feature grid and sample them.

    One projection pass covers all anchors.  Behind-camera and out-of-grid
    points contribute zeros with a False mask.
    """
    if rig.feature_size != fm.data.shape[:2]:
        raise ShapeMismatch("feature grid", rig.feature_size, fm.data.shape[:2])
    if not anchors:
        return []
    n = len(anchors[0])
    pts = np.concatenate([a.points for a in anchors], axis=0)
    uv, _, in_front = project_points_to_feature(pts, rig)
    values, in_grid = bilinear_sample(fm, uv[:, 0], uv[:, 1])
    valid = in_front & in_grid
    values[~valid] = 0.0
    return _per_anchor(values, valid, n)


def sample_anchors_lidar(
    anchors: list[Anchor3D], fv: FeatureVolume, rig: CameraRig
) -> list[AnchorFeature]:
    """Transform every anchor's points into the LiDAR frame and sample the voxel grid.

    One transform and one trilinear pass cover all anchors.  Points outside
    the volume's extent contribute zeros with a False mask.
    """
    if not anchors:
        return []
    n = len(anchors[0])
    pts = project_points_to_lidar(np.concatenate([a.points for a in anchors], axis=0), rig)
    values, valid = trilinear_sample(fv, pts)
    return _per_anchor(values, valid, n)


def sample_anchor_lidar(anchor: Anchor3D, fv: FeatureVolume, rig: CameraRig) -> AnchorFeature:
    """:func:`sample_anchors_lidar` of one anchor."""
    return sample_anchors_lidar([anchor], fv, rig)[0]


def fuse(camera_feat: AnchorFeature, lidar_feat: AnchorFeature) -> AnchorFeature:
    """Concatenate camera and LiDAR channels per point (camera first).

    A point is valid if either modality saw it.
    """
    if camera_feat.values.shape[0] != lidar_feat.values.shape[0]:
        raise LengthMismatch(
            f"camera has {camera_feat.values.shape[0]} points, "
            f"lidar has {lidar_feat.values.shape[0]}"
        )
    return AnchorFeature(
        values=np.concatenate([camera_feat.values, lidar_feat.values], axis=1),
        valid=camera_feat.valid | lidar_feat.valid,
    )
