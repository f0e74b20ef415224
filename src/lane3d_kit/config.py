"""Dataset profiles and the run configuration document.

A profile fixes the shared y-sample grid, the point count N, and the
number of lane categories S.  ``RunConfig`` bundles everything a CLI run
needs and round-trips through JSON with every default spelled out
(:mod:`lane3d_kit.jsonable`).  A config document must spell out every
field of every section; an unknown key, a missing field or a value of the
wrong type or length is rejected as a :class:`FileFormatError` at its
JSON pointer, e.g. ``/loss/tau`` or ``/plan/0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .anchors import MetaRanges
from .evaluation import EvalConfigONCE, EvalConfigOL
from .head import StagePlan
from .losses import LossConfig


@dataclass
class DatasetProfile:
    """y-sample layout and category count for one dataset family."""

    name: str
    y_samples: np.ndarray
    num_categories: int

    def __post_init__(self):
        self.y_samples = np.asarray(self.y_samples, dtype=np.float64)
        if self.y_samples.ndim != 1 or self.y_samples.shape[0] < 2:
            raise ValueError("profile needs at least two y-samples")
        if not np.all(np.diff(self.y_samples) > 0):
            raise ValueError("profile y-samples must be strictly increasing")
        if self.num_categories < 1:
            raise ValueError("profile needs at least one lane category")

    @property
    def num_points(self) -> int:
        return self.y_samples.shape[0]


def make_profile(name: str) -> DatasetProfile:
    """Built-in profiles: 20 points over [3, 103] m for openlane/apollosim
    ranges, 10 points over [3, 48] m for once ranges."""
    if name == "openlane":
        return DatasetProfile("openlane", np.linspace(3.0, 103.0, 20), 14)
    if name == "apollosim":
        return DatasetProfile("apollosim", np.linspace(3.0, 103.0, 20), 1)
    if name == "once":
        return DatasetProfile("once", np.linspace(3.0, 48.0, 10), 1)
    raise ValueError(f"unknown profile {name!r} (expected openlane, apollosim, or once)")


def check_positive(**sizes: int) -> None:
    """Raise ``ValueError`` naming the first of ``sizes`` that is below 1."""
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class RunConfig:
    """Everything a run needs, JSON-serializable with explicit defaults.

    Counts, the stride and the feature grid it gives must be at least 1;
    ``lidar_channels`` only when ``fusion`` is on.
    """

    profile: DatasetProfile = field(default_factory=lambda: make_profile("openlane"))
    meta_ranges: MetaRanges = field(default_factory=MetaRanges)
    loss: LossConfig = field(default_factory=LossConfig)
    eval_openlane: EvalConfigOL | None = None
    eval_once: EvalConfigONCE = field(default_factory=EvalConfigONCE)
    plan: StagePlan = field(default_factory=StagePlan)
    fusion: bool = False
    num_anchors: int = 30
    feature_channels: int = 64
    lidar_channels: int = 8
    num_prototypes: tuple[int, int, int] = (30, 15, 5)
    image_size: tuple[int, int] = (360, 480)
    feature_stride: int = 8

    def __post_init__(self):
        check_positive(
            num_anchors=self.num_anchors,
            feature_channels=self.feature_channels,
            feature_stride=self.feature_stride,
            **{f"num_prototypes[{i}]": m for i, m in enumerate(self.num_prototypes)},
        )
        check_positive(**{f"image_size[{i}] // feature_stride": s
                          for i, s in enumerate(self.feature_size)})
        if self.fusion:
            check_positive(lidar_channels=self.lidar_channels)
        if self.eval_openlane is None:
            self.eval_openlane = EvalConfigOL(y_eval_samples=self.profile.y_samples.copy())

    @property
    def feature_size(self) -> tuple[int, int]:
        return (
            self.image_size[0] // self.feature_stride,
            self.image_size[1] // self.feature_stride,
        )

    @classmethod
    def default(cls, profile_name: str = "openlane") -> "RunConfig":
        return cls(profile=make_profile(profile_name))
