"""Lane JSON files: frames with a rig, lanes, and optional tags.

Document shape::

    {"frames": [{"id": "...", "camera": {...} | null,
                 "lanes": [{"category": 2, "score": 0.9,
                            "points": [[x, y, z], ...],
                            "visibility": [1, 1, 0, ...],
                            "class_probs": [...]}],   # proposals only
                 "tags": ["curve"]}]}

``score`` is absent on ground truth; ``class_probs`` is written by the
forward command so losses can be recomputed from disk.  The camera is a
:class:`CameraRig` decoded by :mod:`lane3d_kit.jsonable`: every field is
required except ``T_gl`` (an absent ``T_gl`` means no LiDAR), unknown keys
are rejected, and an invalid rig is reported at ``.../camera``.  Every
validation error carries a JSON-pointer-style location; NaN and infinite
numbers are rejected at the element that holds them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .geometry import CameraRig
from .jsonable import from_json, read_json, to_json
from .lanes import Lane3D


@dataclass
class Frame:
    id: str
    camera: CameraRig | None
    lanes: list[Lane3D]
    tags: tuple[str, ...] = ()


def _lane_to_dict(lane: Lane3D) -> dict:
    d = {
        "category": int(lane.category),
        "points": lane.points.tolist(),
        "visibility": lane.visibility.tolist(),
    }
    if lane.score is not None:
        d["score"] = float(lane.score)
    if lane.class_probs is not None:
        d["class_probs"] = lane.class_probs.tolist()
    return d


def _check_finite(values: np.ndarray, path, ptr: str) -> None:
    if not np.isfinite(values).all():
        where = np.argwhere(~np.isfinite(values))[0]
        raise FileFormatError(path, "/".join([ptr, *map(str, where)]), "non-finite value")


def _lane_from_dict(d: dict, path, ptr: str) -> Lane3D:
    for key in ("category", "points", "visibility"):
        if key not in d:
            raise FileFormatError(path, f"{ptr}/{key}", "missing field")
    points = np.asarray(d["points"], dtype=np.float64)
    vis = np.asarray(d["visibility"], dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise FileFormatError(path, f"{ptr}/points", "expected an array of [x, y, z] triples")
    if vis.shape != points.shape[:1]:
        raise FileFormatError(
            path, f"{ptr}/visibility", f"shape {vis.shape} does not match {points.shape[0]} points"
        )
    _check_finite(points, path, f"{ptr}/points")
    _check_finite(vis, path, f"{ptr}/visibility")
    if points.shape[0] >= 2 and not np.all(np.diff(points[:, 1]) > 0):
        raise FileFormatError(path, f"{ptr}/points", "y must be strictly increasing")
    score = None if d.get("score") is None else float(d["score"])
    if score is not None and not math.isfinite(score):
        raise FileFormatError(path, f"{ptr}/score", "non-finite value")
    probs = d.get("class_probs")
    if probs is not None:
        probs = np.asarray(probs, dtype=np.float64)
        _check_finite(probs, path, f"{ptr}/class_probs")
    return Lane3D(
        x=points[:, 0],
        y=points[:, 1],
        z=points[:, 2],
        visibility=vis,
        category=int(d["category"]),
        score=score,
        class_probs=probs,
    )


def write_lane_file(path, frames: list[Frame]) -> None:
    doc = {
        "frames": [
            {
                "id": f.id,
                "camera": to_json(f.camera),
                "lanes": [_lane_to_dict(lane) for lane in f.lanes],
                **({"tags": list(f.tags)} if f.tags else {}),
            }
            for f in frames
        ]
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_lane_file(path) -> list[Frame]:
    doc = read_json(path)
    if not isinstance(doc, dict) or "frames" not in doc:
        raise FileFormatError(path, "/frames", "missing field")
    frames = []
    for i, fd in enumerate(doc["frames"]):
        ptr = f"/frames/{i}"
        if "id" not in fd or "lanes" not in fd:
            raise FileFormatError(path, ptr, "frame needs id and lanes")
        cam = fd.get("camera")
        if isinstance(cam, dict):
            cam = {"T_gl": None, **cam}
        rig = from_json(CameraRig | None, cam, path, f"{ptr}/camera")
        lanes = [
            _lane_from_dict(ld, path, f"{ptr}/lanes/{j}") for j, ld in enumerate(fd["lanes"])
        ]
        frames.append(
            Frame(id=str(fd["id"]), camera=rig, lanes=lanes, tags=tuple(fd.get("tags", ())))
        )
    return frames
