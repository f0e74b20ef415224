"""The 3D lane container shared by losses, evaluation, and the generators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch


@dataclass
class Lane3D:
    """An ordered 3D polyline sampled at fixed, strictly increasing y values.

    ``visibility`` holds per-point flags (0/1 or fractional confidence;
    anything >= 0.5 counts as visible where a hard decision is needed).
    ``score`` is present on predictions, absent on ground truth.
    ``class_probs`` is an optional full distribution carried by proposal
    files so losses can be recomputed from disk.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    visibility: np.ndarray
    category: int = 0
    score: float | None = None
    class_probs: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.z = np.asarray(self.z, dtype=np.float64)
        self.visibility = np.asarray(self.visibility, dtype=np.float64)
        n = self.y.shape[0]
        if not (self.x.shape[0] == self.z.shape[0] == self.visibility.shape[0] == n):
            raise LengthMismatch(
                f"lane arrays disagree: x={self.x.shape[0]} y={n} "
                f"z={self.z.shape[0]} vis={self.visibility.shape[0]}"
            )
        if n >= 2 and not (self.y[1:] > self.y[:-1]).all():
            raise ValueError("lane y-samples must be strictly increasing")
        if self.class_probs is not None:
            self.class_probs = np.asarray(self.class_probs, dtype=np.float64)

    @property
    def points(self) -> np.ndarray:
        """(N, 3) array of xyz coordinates."""
        return np.stack([self.x, self.y, self.z], axis=1)

    @property
    def visible_mask(self) -> np.ndarray:
        return self.visibility >= 0.5

    def num_visible(self) -> int:
        return int(np.count_nonzero(self.visible_mask))
