"""Dataset profiles and the run configuration document.

A profile fixes the shared y-sample grid, the point count N, and the
number of lane categories S.  ``RunConfig`` bundles everything a CLI run
needs and round-trips through JSON with every default spelled out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .anchors import MetaRanges
from .errors import FileFormatError
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

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "y_samples": self.y_samples.tolist(),
            "num_categories": self.num_categories,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DatasetProfile":
        return cls(
            name=str(d["name"]),
            y_samples=np.array(d["y_samples"], dtype=np.float64),
            num_categories=int(d["num_categories"]),
        )


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


_CONFIG = "<run config>"

# Object sections: each is parsed by, and may only hold the fields of, its dataclass.
_SECTIONS = {
    "profile": DatasetProfile,
    "meta_ranges": MetaRanges,
    "loss": LossConfig,
    "eval_openlane": EvalConfigOL,
    "eval_once": EvalConfigONCE,
}


def _check_object(doc, cls, where: str) -> None:
    """Reject a non-object ``doc`` or a key that is not a field of ``cls``."""
    if not isinstance(doc, dict):
        raise FileFormatError(_CONFIG, where or "/", "expected an object")
    names = {f.name for f in fields(cls) if f.init}
    for key in doc:
        if key not in names:
            raise FileFormatError(_CONFIG, f"{where}/{key}", "unknown field")


@dataclass
class RunConfig:
    """Everything a run needs, JSON-serializable with explicit defaults."""

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
        if self.eval_openlane is None:
            self.eval_openlane = EvalConfigOL(y_eval_samples=self.profile.y_samples.copy())
        self.num_prototypes = tuple(int(m) for m in self.num_prototypes)
        self.image_size = (int(self.image_size[0]), int(self.image_size[1]))

    @property
    def feature_size(self) -> tuple[int, int]:
        return (
            self.image_size[0] // self.feature_stride,
            self.image_size[1] // self.feature_stride,
        )

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile.to_json_dict(),
            "meta_ranges": self.meta_ranges.to_json_dict(),
            "loss": self.loss.to_json_dict(),
            "eval_openlane": self.eval_openlane.to_json_dict(),
            "eval_once": self.eval_once.to_json_dict(),
            "plan": self.plan.to_json_list(),
            "fusion": self.fusion,
            "num_anchors": self.num_anchors,
            "feature_channels": self.feature_channels,
            "lidar_channels": self.lidar_channels,
            "num_prototypes": list(self.num_prototypes),
            "image_size": list(self.image_size),
            "feature_stride": self.feature_stride,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        """Parse a config document that spells out every field.  Unknown,
        missing and malformed fields raise :class:`FileFormatError` at
        their JSON pointer, keeping the underlying message."""
        _check_object(d, cls, "")
        parsers = {
            **{name: kind.from_json_dict for name, kind in _SECTIONS.items()},
            "plan": StagePlan.from_json_list,
            "fusion": bool,
            "num_anchors": int,
            "feature_channels": int,
            "lidar_channels": int,
            "num_prototypes": tuple,
            "image_size": tuple,
            "feature_stride": int,
        }
        kwargs = {}
        for name, parse in parsers.items():
            where = f"/{name}"
            if name not in d:
                raise FileFormatError(_CONFIG, where, "missing field")
            if name in _SECTIONS:
                _check_object(d[name], _SECTIONS[name], where)
            try:
                kwargs[name] = parse(d[name])
            except KeyError as e:
                raise FileFormatError(_CONFIG, f"{where}/{e.args[0]}", "missing field") from e
            except (TypeError, ValueError) as e:
                raise FileFormatError(_CONFIG, where, str(e)) from e
        return cls(**kwargs)

    @classmethod
    def default(cls, profile_name: str = "openlane") -> "RunConfig":
        return cls(profile=make_profile(profile_name))
