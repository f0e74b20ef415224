"""lane3d-kit: deterministic numerics for 3D lane detection heads.

Anchor generation from learned prototypes, camera/LiDAR projection and
feature sampling, matching and losses with analytic gradients, iterative
refinement, and the standard 3D-lane evaluation protocols, all runnable at
desk scale on synthetic scenes.
"""

from . import (
    anchors,
    config,
    errors,
    evaluation,
    geometry,
    gradcheck,
    head,
    jsonable,
    lanes,
    laneio,
    losses,
    sampling,
    scoring,
    synth,
    tensorio,
)
from .config import DatasetProfile, RunConfig, make_profile
from .geometry import CameraRig
from .lanes import Lane3D

__version__ = "0.1.0"

__all__ = [
    "CameraRig",
    "DatasetProfile",
    "Lane3D",
    "RunConfig",
    "__version__",
    "anchors",
    "config",
    "errors",
    "evaluation",
    "geometry",
    "gradcheck",
    "head",
    "jsonable",
    "laneio",
    "lanes",
    "losses",
    "make_profile",
    "sampling",
    "scoring",
    "synth",
    "tensorio",
]
