"""Dense feature containers and the interpolation used to read them.

Grids are center-aligned: a sample exactly on an integer cell coordinate
returns that cell's stored value.  Samples outside the grid (or behind the
camera) return zeros and are flagged invalid so they stay inert downstream;
so does a point with a non-finite coordinate, or one whose projection
overflows.  The projections run with numpy's overflow and invalid-value
warnings off, since every such result is flagged.  One multilinear
interpolation, :func:`_interpolate`, reads both kinds of grid;
:func:`bilinear_sample` and :func:`trilinear_sample` only map their points
to fractional cell coordinates.

An anchor is the (N, 3) array of its points, and each refinement stage
samples its anchors as one (M, N, 3) array, one pass per modality:
:func:`sample_camera` projects and bilinearly samples them,
:func:`sample_lidar` transforms and trilinearly samples them, and
:func:`fuse` joins the two batches into the head input.  For per-anchor
callers, :func:`sample_anchors` samples a list of (N, 3) anchors and returns
views of the batch's rows, and ``sample_anchor_lidar`` is another name of
:func:`sample_lidar`, which samples one anchor as well as a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    order, giving the positions of the first and last cell centers.  Along
    an axis with a single cell, that cell's center sits mid-extent.
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
    """Per-point feature vectors plus a validity mask, for one anchor or a
    batch of anchors.

    ``values`` is (..., N, C) and ``valid`` (..., N); invalid points hold
    exact zeros.  ``flat`` is (..., N*C): each anchor's channels concatenated
    in point order, the per-anchor row the prediction head consumes.
    """

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.values.ndim < 2 or self.valid.shape != self.values.shape[:-1]:
            raise ShapeMismatch("anchor feature", "(..., N, C) with (..., N) mask",
                                (self.values.shape, self.valid.shape))

    @property
    def flat(self) -> np.ndarray:
        *lead, n, c = self.values.shape
        return self.values.reshape(*lead, n * c)


def _interpolate(grid: np.ndarray, frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear interpolation over ``grid``'s leading d axes at (M, d)
    fractional cell coordinates.

    Returns (values (M, C), valid (M,)); a point outside the grid along any
    axis, or with a non-finite coordinate, is zeroed and flagged invalid.
    Invalid rows are read at cell 0, so no NaN or infinity reaches the floor.
    The lerps nest with the last axis innermost.
    """
    d = frac.shape[1]
    size = np.array(grid.shape[:d])
    valid = np.all((frac >= 0.0) & (frac <= size - 1.0), axis=1)
    frac = np.clip(np.where(valid[:, None], frac, 0.0), 0.0, size - 1.0)
    lo = np.minimum(np.floor(frac).astype(np.intp), np.maximum(size - 2, 0))
    corners = (lo, np.minimum(lo + 1, size - 1))
    t = frac - lo

    def lerp(axis: int, index: tuple) -> np.ndarray:
        if axis == d:
            return grid[index]
        a, b = (lerp(axis + 1, (*index, c[:, axis])) for c in corners)
        f = t[:, axis, None]
        return a * (1 - f) + b * f

    out = lerp(0, ())
    out[~valid] = 0.0
    return out, valid


def bilinear_sample(
    fm: FeatureMap, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear interpolation of a feature map at (M,) fractional (u, v)
    points; the result is :func:`_interpolate`'s."""
    return _interpolate(fm.data, np.stack([v, u], axis=1))


def trilinear_sample(fv: FeatureVolume, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear interpolation of a feature volume at (M, 3) LiDAR-frame
    points; the result is :func:`_interpolate`'s."""
    counts = np.array(fv.data.shape[2::-1])  # cells along x, y, z
    lo, hi = fv.extent[:, 0], fv.extent[:, 1]
    origin = np.where(counts > 1, lo, (lo + hi) * 0.5)
    step = np.where(counts > 1, (hi - lo) / np.maximum(counts - 1, 1), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is off the grid
        rel = (np.asarray(xyz, dtype=np.float64) - origin) / step
    return _interpolate(fv.data, rel[:, ::-1])  # -> (iz, iy, ix)


def sample_camera(points: np.ndarray, fm: FeatureMap, rig: CameraRig) -> AnchorFeature:
    """Project (..., N, 3) ground-frame anchor points into the feature grid
    and sample it bilinearly.

    One projection and one interpolation pass cover the batch.
    Behind-camera and out-of-grid points contribute zeros with a False mask.
    """
    if rig.feature_size != fm.data.shape[:2]:
        raise ShapeMismatch("feature grid", rig.feature_size, fm.data.shape[:2])
    points = np.asarray(points, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is flagged below
        uv, _, in_front = project_points_to_feature(points.reshape(-1, 3), rig)
    values, in_grid = bilinear_sample(fm, uv[:, 0], uv[:, 1])
    valid = in_front & in_grid
    values[~valid] = 0.0
    lead = points.shape[:-1]
    return AnchorFeature(values=values.reshape(*lead, values.shape[-1]), valid=valid.reshape(lead))


def sample_lidar(points: np.ndarray, fv: FeatureVolume, rig: CameraRig) -> AnchorFeature:
    """Transform (..., N, 3) ground-frame anchor points into the LiDAR frame
    and sample the voxel grid trilinearly.

    One transform and one interpolation pass cover the batch.  Points
    outside the volume's extent contribute zeros with a False mask.
    """
    points = np.asarray(points, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is off the grid
        xyz = project_points_to_lidar(points.reshape(-1, 3), rig)
    values, valid = trilinear_sample(fv, xyz)
    lead = points.shape[:-1]
    return AnchorFeature(values=values.reshape(*lead, values.shape[-1]), valid=valid.reshape(lead))


def sample_anchors(anchors: list[np.ndarray], fm: FeatureMap,
                   rig: CameraRig) -> list[AnchorFeature]:
    """:func:`sample_camera` of the stacked (N, 3) anchors, as one (N, C)
    feature per anchor: views of the batch's rows, kept for per-anchor callers."""
    points = np.stack(anchors) if len(anchors) else np.empty((0, 0, 3))
    batch = sample_camera(points, fm, rig)
    return [AnchorFeature(values=v, valid=m) for v, m in zip(batch.values, batch.valid)]


sample_anchor_lidar = sample_lidar


def fuse(camera_feat: AnchorFeature, lidar_feat: AnchorFeature) -> AnchorFeature:
    """Concatenate camera and LiDAR channels per point (camera first), for
    one anchor or a batch; this is the fused layout the head reads.

    A point is valid if either modality saw it.
    """
    if camera_feat.valid.shape != lidar_feat.valid.shape:
        cam, lid = ("x".join(map(str, f.valid.shape)) for f in (camera_feat, lidar_feat))
        raise LengthMismatch(f"camera has {cam} points, lidar has {lid}")
    return AnchorFeature(
        values=np.concatenate([camera_feat.values, lidar_feat.values], axis=-1),
        valid=camera_feat.valid | lidar_feat.valid,
    )
