"""Coordinate systems, rigid transforms, and pinhole projection.

Conventions used throughout the package:

* Ground frame: origin on the road surface directly below the camera
  center, x right, y forward, z up, units in meters.
* Camera frame: right-handed, x right, y down, z forward (optical axis).
* Feature grid: u indexes width (columns), v indexes height (rows), cell
  centers sit at integer coordinates.

All matrices are row-major float64; projection feeds metric code that is
tested at 1e-9, so nothing here ever drops to 32-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRig, MissingLidarExtrinsics

#: Depth below which a point counts as being on/behind the camera plane.
MIN_DEPTH = 1e-6

_ORTHO_TOL = 1e-6
_EYE = np.eye(3)
# np.allclose(R @ R.T, _EYE, atol=_ORTHO_TOL) with its default rtol of 1e-5,
# spelled out because allclose costs most of a rig's construction.  Any NaN
# or infinity in R fails the comparison, as it fails allclose.  An infinity
# makes R @ R.T form 0 * inf, so the check runs with numpy's invalid-value
# warning off.
_ORTHO_BOUND = _ORTHO_TOL + 1e-5 * _EYE


@dataclass(kw_only=True)
class CameraRig:
    """Calibrated camera (and optional LiDAR) rig.

    ``K`` is the 3x3 pinhole intrinsics matrix in pixels, ``T_gc`` the 3x4
    ground-to-camera transform (rotation | translation), ``T_gl`` the
    optional 3x4 ground-to-LiDAR transform.  ``image_size`` and
    ``feature_size`` are (height, width) pairs; the feature grid must tile
    the image exactly (the usual ratio is 1/8).  Every value is finite, and
    so is every entry of the projection ``K @ T_gc``.  A JSON object may omit
    ``T_gl``, for no LiDAR.
    """

    optional_keys = ("T_gl",)
    K: np.ndarray
    T_gc: np.ndarray
    T_gl: np.ndarray | None = None
    image_size: tuple[int, int]
    feature_size: tuple[int, int]
    _P: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=np.float64)
        self.T_gc = np.asarray(self.T_gc, dtype=np.float64)
        if self.T_gl is not None:
            self.T_gl = np.asarray(self.T_gl, dtype=np.float64)
            if self.T_gl.shape != (3, 4):
                raise InvalidRig(f"T_gl must be 3x4, got {self.T_gl.shape}")
        if self.K.shape != (3, 3):
            raise InvalidRig(f"K must be 3x3, got {self.K.shape}")
        if self.T_gc.shape != (3, 4):
            raise InvalidRig(f"T_gc must be 3x4, got {self.T_gc.shape}")
        if self.K[2, 2] != 1.0 or any(self.K[i, j] != 0.0 for i, j in ((1, 0), (2, 0), (2, 1))):
            raise InvalidRig("K is not in upper-triangular pinhole form")
        R = self.T_gc[:, :3]
        with np.errstate(invalid="ignore", over="ignore"):
            orthonormal = (np.abs(R @ R.T - _EYE) <= _ORTHO_BOUND).all()
            self._P = self.K @ self.T_gc  # an overflow is refused below, by name
        if not orthonormal:
            raise InvalidRig("rotation block of T_gc is not orthonormal")
        for name, value in (("K", self.K), ("T_gc", self.T_gc), ("T_gl", self.T_gl),
                            ("K @ T_gc", self._P)):
            if value is not None and not np.isfinite(value).all():
                raise InvalidRig(f"{name} holds a non-finite value")
        hi, wi = self.image_size
        hf, wf = self.feature_size
        if min(hi, wi, hf, wf) < 1:
            raise InvalidRig(
                f"image size {self.image_size} and feature size {self.feature_size} "
                "must be positive"
            )
        if hi % hf != 0 or wi % wf != 0:
            raise InvalidRig(
                f"feature size {self.feature_size} does not divide image size {self.image_size}"
            )

    @property
    def scale_u(self) -> float:
        """Image-to-feature scale along width (W_F / W_I)."""
        return self.feature_size[1] / self.image_size[1]

    @property
    def scale_v(self) -> float:
        """Image-to-feature scale along height (H_F / H_I)."""
        return self.feature_size[0] / self.image_size[0]


def project_points_to_feature(
    xyz: np.ndarray, rig: CameraRig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project (N, 3) ground points into feature-grid coordinates.

    Applies the pinhole projection K @ T_gc to the homogeneous points and
    scales the pixel results down to the feature grid.  Returns (uv (N, 2),
    depth (N,), in_front (N,)); points at or behind the camera plane
    (depth <= MIN_DEPTH) get in_front=False and uv left at 0, and the
    caller decides whether that makes a sample invalid.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    hom = xyz @ rig._P[:, :3].T + rig._P[:, 3]
    depth = hom[:, 2]
    in_front = depth > MIN_DEPTH
    safe = np.where(in_front, depth, 1.0)
    uv = np.zeros((xyz.shape[0], 2), dtype=np.float64)
    uv[:, 0] = np.where(in_front, rig.scale_u * hom[:, 0] / safe, 0.0)
    uv[:, 1] = np.where(in_front, rig.scale_v * hom[:, 1] / safe, 0.0)
    return uv, depth, in_front


def project_points_to_lidar(xyz: np.ndarray, rig: CameraRig) -> np.ndarray:
    """Transform (N, 3) ground points into the LiDAR frame via T_gl."""
    if rig.T_gl is None:
        raise MissingLidarExtrinsics("rig has no ground-to-LiDAR transform")
    xyz = np.asarray(xyz, dtype=np.float64)
    return xyz @ rig.T_gl[:, :3].T + rig.T_gl[:, 3]
