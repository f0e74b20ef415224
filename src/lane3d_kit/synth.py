"""Synthetic scenes: ground-truth lanes, rigs, rasterized features, and
perturbed predictions.

This is the desk-scale stand-in for trained models and real datasets.
Scenes are built from a shared centerline polynomial so that lanes are
laterally offset copies of each other: with constant or linear curvature
their pairwise widths are exactly constant, which pins the equal-width
loss ground truth at zero.  A fork can be injected to exercise the
threshold-exemption path.  Everything is a pure function of (spec, seed).

A scene is built as (L, N) lane rows with one projection for all its
points; the rasterizers splat all visible points of a lane in one
broadcast and fold the bumps in by maximum, which is exact and does not
depend on the order of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DatasetProfile, check_positive
from .geometry import CameraRig, project_points_to_feature
from .head import Proposal
from .lanes import Lane3D
from .sampling import FeatureMap, FeatureVolume


@dataclass
class SceneSpec:
    """Parameters of one synthetic road scene.

    ``curvature`` and ``slope`` are polynomial coefficients in ascending
    order for x(y) and z(y).  ``fork_lane``/``fork_coefficient`` bend one
    lane's curvature to create a non-parallel pair; ``fork_lane`` is None or
    a lane index in 0..n_lanes-1.  ``spacing`` and ``focal`` are positive,
    and the scene's rig must be valid, its projection ``K @ T_gc`` finite.
    """

    n_lanes: int = 2
    spacing: float = 3.5
    curvature: tuple[float, ...] = (0.0,)
    slope: tuple[float, ...] = (0.0,)
    camera_height: float = 1.5
    camera_pitch: float = 0.0
    seed: int = 0
    # Wide enough that the default two-lane scene is fully in frustum from
    # the first y-sample onward.
    focal: float = 330.0
    image_size: tuple[int, int] = (360, 480)
    feature_stride: int = 8
    fork_lane: int | None = None
    fork_coefficient: float = 0.0

    def __post_init__(self):
        check_positive(n_lanes=self.n_lanes, feature_stride=self.feature_stride)
        check_positive(**{f"image_size[{i}] // feature_stride": s // self.feature_stride
                          for i, s in enumerate(self.image_size)})
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.focal <= 0:
            raise ValueError(f"focal must be positive, got {self.focal}")
        if self.fork_lane is not None and not 0 <= self.fork_lane < self.n_lanes:
            raise ValueError(f"fork_lane must be in 0..{self.n_lanes - 1}, got {self.fork_lane}")
        build_rig(self)


@dataclass
class NoiseSpec:
    """Deterministic perturbation applied when faking predictions; a JSON
    object may omit any key."""

    optional_keys = True
    lateral_offset: float = 0.0
    z_offset: float = 0.0
    score: float = 1.0
    drop_rate: float = 0.0

    def __post_init__(self):
        for name in ("score", "drop_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")


def build_rig(spec: SceneSpec, with_lidar: bool = False) -> CameraRig:
    """Camera rig for a scene: height above the origin, optional down-pitch.

    The base ground-to-camera rotation maps x right, y forward, z up onto
    the camera's x right, y down, z forward; pitch rotates about the
    camera x-axis (positive tilts the view down).
    """
    h_i, w_i = spec.image_size
    base = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    a = spec.camera_pitch
    pitch = np.array(
        [[1.0, 0.0, 0.0], [0.0, math.cos(a), -math.sin(a)], [0.0, math.sin(a), math.cos(a)]]
    )
    rot = pitch @ base
    center = np.array([0.0, 0.0, spec.camera_height])
    t = -rot @ center
    k = np.array(
        [[spec.focal, 0.0, w_i / 2.0], [0.0, spec.focal, h_i / 2.0], [0.0, 0.0, 1.0]]
    )
    t_gl = np.hstack([np.eye(3), np.zeros((3, 1))]) if with_lidar else None
    return CameraRig(
        K=k,
        T_gc=np.hstack([rot, t[:, None]]),
        T_gl=t_gl,
        image_size=(h_i, w_i),
        feature_size=(h_i // spec.feature_stride, w_i // spec.feature_stride),
    )


def _polyval(coeffs: tuple, y: np.ndarray) -> np.ndarray:
    """The polynomial with ascending ``coeffs`` at ``y``, term by term.

    Where ``y ** power`` overflows, the term is formed from logarithms, so a
    tiny coefficient gives the finite term it should; every other term is
    ``c * y ** power``, bit for bit.
    """
    out = np.zeros_like(y)
    for power, c in enumerate(coeffs):
        if c:  # a zero term adds nothing, and 0 * y**power is NaN once y**power overflows
            y_power = y ** power
            term = c * y_power
            over = np.isinf(y_power)
            if over.any():
                yo = y[over]
                term[over] = (math.copysign(1.0, c) * np.sign(yo) ** power
                              * np.exp(math.log(abs(c)) + power * np.log(np.abs(yo))))
            out += term
    return out


def generate_scene(
    spec: SceneSpec, profile: DatasetProfile, with_lidar: bool = False
) -> tuple[list[Lane3D], CameraRig]:
    """Build ground-truth lanes and the rig for a scene.

    Lanes share the curvature and slope polynomials and sit ``spacing``
    apart, centered on the ego axis.  The (L, N) x rows are the centre
    polynomial plus a column of offsets, the fork bends its one row, and all
    L·N points are projected at once.  Point visibility is the frustum test
    against the rig's image; whether a projected point is also bilinearly
    samplable is the feature grid's concern.
    """
    rig = build_rig(spec, with_lidar=with_lidar)
    y = profile.y_samples
    n = spec.n_lanes
    h_i, w_i = rig.image_size
    # A spec may overflow a coordinate or the projection (inf, or NaN from
    # 0 * inf); the lane-file writer refuses such a lane at its pointer.
    with np.errstate(over="ignore", invalid="ignore"):
        z = _polyval(spec.slope, y)
        x = _polyval(spec.curvature, y) + (np.arange(n)[:, None] - (n - 1) / 2.0) * spec.spacing
        if spec.fork_lane is not None:
            x[spec.fork_lane] += spec.fork_coefficient * (y - y[0]) ** 2
        pts = np.stack(np.broadcast_arrays(x, y, z), axis=-1).reshape(-1, 3)
        uv, _, in_front = project_points_to_feature(pts, rig)
        u_pix, v_pix = uv[:, 0] / rig.scale_u, uv[:, 1] / rig.scale_v
    vis = (
        in_front
        & (u_pix >= 0.0) & (u_pix <= w_i - 1.0)
        & (v_pix >= 0.0) & (v_pix <= h_i - 1.0)
    ).reshape(n, -1).astype(np.float64)
    return [Lane3D(x=x[i], y=y.copy(), z=z.copy(), visibility=vis[i],
                   category=i % profile.num_categories) for i in range(n)], rig


def rasterize_features(
    gts: list[Lane3D], rig: CameraRig, dims: tuple[int, int, int], sigma: float, level: int = 5
) -> FeatureMap:
    """Splat Gaussian bumps (peak 1.0, width sigma in cells) at the
    projected visible lane points into channel 0 of a feature map.

    Bumps combine by maximum, so the peak stays exactly 1 where lanes
    overlap and the order of points does not matter; remaining channels are
    zero.  Each lane is one projection and one broadcast, so a temporary
    holds K (H, W) grids for the lane's K visible points.
    """
    h, w, c = dims
    data = np.zeros((h, w, c), dtype=np.float64)
    cols = np.arange(w, dtype=np.float64)
    rows = np.arange(h, dtype=np.float64)
    for lane in gts:
        uv, _, in_front = project_points_to_feature(lane.points[lane.visible_mask], rig)
        u, v = uv[in_front].T[:, :, None, None]  # (K, 1, 1) columns
        # A quotient that overflows gives exp(-inf) = 0, its limit.
        with np.errstate(over="ignore"):
            bumps = np.exp(-((cols - u) ** 2 + (rows[:, None] - v) ** 2) / (2.0 * sigma ** 2))
        np.maximum(data[:, :, 0], bumps.max(axis=0, initial=0.0), out=data[:, :, 0])
    return FeatureMap(data=data, level=level)


def rasterize_volume(
    gts: list[Lane3D],
    dims: tuple[int, int, int, int],
    extent: np.ndarray,
) -> FeatureVolume:
    """Voxel-grid analogue of :func:`rasterize_features` for fusion tests.

    Visible lane points splat Gaussian bumps, of one cell's standard
    deviation, into channel 0 of the volume; the extent gives first/last
    cell-center positions per axis (x, y, z).  Each lane is one broadcast,
    so a temporary holds K (D, H, W) grids for the lane's K visible points.
    """
    d, h, w, c = dims
    extent = np.asarray(extent, dtype=np.float64)
    data = np.zeros((d, h, w, c), dtype=np.float64)
    axes = []
    for count, (lo, hi) in zip((w, h, d), extent):
        axes.append(np.linspace(lo, hi, count) if count > 1 else np.array([(lo + hi) / 2.0]))
    xs, ys, zs = axes
    steps = [
        (hi - lo) / (count - 1) if count > 1 else (hi - lo)
        for count, (lo, hi) in zip((w, h, d), extent)
    ]
    for lane in gts:
        px, py, pz = lane.points[lane.visible_mask].T[:, :, None]  # (K, 1) columns
        fx = (xs - px) / steps[0]
        fy = (ys - py) / steps[1]
        fz = (zs - pz) / steps[2]
        sq = fz[:, :, None, None] ** 2 + fy[:, None, :, None] ** 2 + fx[:, None, None, :] ** 2
        np.maximum(data[..., 0], np.exp(-sq / 2.0).max(axis=0, initial=0.0), out=data[..., 0])
    return FeatureVolume(data=data, extent=extent)


def perturb_predictions(
    gts: list[Lane3D], noise: NoiseSpec, seed: int, num_categories: int
) -> list[Proposal]:
    """Copy ground truth into proposals with deterministic offsets.

    The class distribution puts ``noise.score`` on the GT category and the
    remainder on the non-lane slot, so the proposal's score equals the
    requested value; lanes are dropped independently at ``drop_rate``.
    """
    dropped = np.random.default_rng(seed).random(len(gts)) < noise.drop_rate
    out = []
    for lane, drop in zip(gts, dropped):
        if drop:
            continue
        probs = np.zeros(num_categories + 1)
        probs[lane.category] = noise.score
        probs[num_categories] = 1.0 - noise.score
        out.append(
            Proposal(
                class_probs=probs,
                x=lane.x + noise.lateral_offset,
                z=lane.z + noise.z_offset,
                vis=lane.visibility.copy(),
            )
        )
    return out
