"""Lane JSON files: frames with a rig, lanes, and optional tags.

Document shape::

    {"frames": [{"id": "...", "camera": {...} | null,
                 "lanes": [{"category": 2, "score": 0.9,
                            "points": [[x, y, z], ...],
                            "visibility": [1, 1, 0, ...],
                            "class_probs": [...]}],   # proposals only
                 "tags": ["curve"]}]}

``score`` is absent on ground truth; ``class_probs`` is written by the
forward command so losses can be recomputed from disk.

Every frame and lane is decoded by :mod:`lane3d_kit.jsonable` from its
declaration, so one policy holds at every level:

- Required keys: ``frames``; in a frame ``id``, ``camera`` (``null`` for
  no rig) and ``lanes``; in a lane ``category``, ``points`` and
  ``visibility``; in a camera every :class:`CameraRig` field but ``T_gl``.
- Four keys are optional: a frame's ``tags`` (default none), a lane's
  ``score`` and ``class_probs`` (default absent), and a camera's ``T_gl``
  (absent means no LiDAR).
- Unknown keys are rejected, in the document, a frame, a lane and a camera.
- Frame ids are strings, unique within a file: a repeated id is reported
  at the later frame's ``/frames/<i>/id``.
- Numbers are strict: ``category`` rejects strings (``"3"``),
  ``true``/``false`` and non-integral numbers, and ``score`` rejects
  strings and ``true``/``false``.  NaN and infinite numbers, and strings
  inside arrays (``["1.0", 5.0, 0.0]``), are rejected at the element that
  holds them.

Beyond that, ``points`` must be (K, 3) with strictly increasing y and
``visibility`` must hold K values.  One table of (field, test, message) rows
holds the ranges, for reading and writing alike: every coordinate's
magnitude is below 1e150 (``COORD_LIMIT``), so every squared distance
between two points and every per-lane sum of them stays finite (ONCE's
stroke and the equal-width gradient's cubed distance have limits of their
own), and every visibility is in [0, 1].  An invalid rig is reported at
``.../camera``; :class:`CameraRig` itself refuses non-finite values.  Every
error is a :class:`FileFormatError` at the JSON pointer of the value that
caused it.  ``write_lane_file`` refuses a lane's non-finite number, a value
outside the table and a repeated frame id the same way, in the file it
would write, before it writes any byte, so no command writes a lane file
that no command reads.

This module checks what every reader of a lane file needs.  What only the
losses need (the profile's y-grid, a ``category`` in 0..S-1 and
``class_probs`` of S+1 probabilities) is checked by
:mod:`lane3d_kit.scoring`, with :func:`check_range` for the probabilities.

Memory grows with a file's numbers, not with one Python object per number.
``write_lane_file`` makes every check first, then encodes and writes one
frame at a time, so it holds one frame's lists and text; its bytes are
``dumps`` of the whole document plus a newline.  ``read_lane_file`` parses
with an object hook that turns a lane's ``points``, ``visibility`` and
``class_probs`` into float64 arrays as soon as that lane is parsed
(:func:`lane3d_kit.jsonable.try_array`), so each point's list lives no
longer than its lane.  A list that does not convert cleanly (a string, a
``null``, a ragged row) stays as parsed and is decoded, and its error
located, as any other array is.  Each array field's finiteness
(:func:`lane3d_kit.jsonable.decode_arrays`) and range are then checked once
for the whole file.

Reading is dominated by parsing.  ``read_lane_file`` pauses Python's cyclic
garbage collector from the parse until the parsed document is dropped:
``json.loads`` builds one short-lived list per point, and the collector
would scan them again and again.  This is safe because neither the document
nor the decoded frames hold reference cycles, so reference counting frees
all of it and no collection is put off.  The collector's prior state is
restored on return and on error; one that was off stays off.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import jsonable
from .errors import FileFormatError
from .geometry import CameraRig
from .jsonable import _dumps, decode_arrays, from_json, to_json, try_array
from .lanes import Lane3D

COORD_LIMIT = 1e150


@dataclass
class Frame:
    id: str
    camera: CameraRig | None
    lanes: list[Lane3D]
    tags: tuple[str, ...] = ()


def outside_unit(v: np.ndarray) -> np.ndarray:
    """Where ``v`` lies outside [0, 1]."""
    return (v < 0.0) | (v > 1.0)


OUTSIDE_UNIT = "expected a value in [0, 1], got {}"

# The range of each lane array field beyond finiteness, as (field, test for a
# bad element, message); the reader and the writer both check these rows.
_RULES = (("points", lambda v: np.abs(v) >= COORD_LIMIT,
           "expected a magnitude below 1e150, got {}"),
          ("visibility", outside_unit, OUTSIDE_UNIT))


def write_lane_file(path, frames: list[Frame]) -> None:
    """Write ``frames`` to the lane file ``path``, one frame at a time.

    A value that :func:`read_lane_file` rejects is refused first, at its
    pointer in ``path``, and then ``path`` is not opened: a lane's non-finite
    number, a value outside the ranges of ``_RULES``, or a repeated frame id.
    The bytes written are ``dumps`` of the whole document plus a newline.
    """
    numbers = []  # (pointer, array) of every lane's number fields, in document order
    lanes = []  # (pointer, category, number fields) of every lane
    for i, f in enumerate(frames):
        for j, lane in enumerate(f.lanes):
            fields = {"points": lane.points, "visibility": lane.visibility,
                      "score": lane.score, "class_probs": lane.class_probs}
            fields = {key: np.asarray(value, dtype=np.float64)
                      for key, value in fields.items() if value is not None}
            where = f"/frames/{i}/lanes/{j}"
            numbers += [(f"{where}/{key}", value) for key, value in fields.items()]
            lanes.append((where, lane.category, fields))
    check_range([a for _, a in numbers], lambda v: ~np.isfinite(v), path,
                lambda k: numbers[k][0], "non-finite value")
    for key, bad, message in _RULES:
        check_range([fields[key] for _, _, fields in lanes], bad, path,
                    lambda k: f"{lanes[k][0]}/{key}", message)
    _check_unique_ids([f.id for f in frames], path)
    rows = iter(lanes)
    with open(path, "w") as out:
        # The text of {"frames": [...]} as dumps indents it, each frame at its depth.
        out.write('{\n "frames": [')
        for i, f in enumerate(frames):
            doc = {
                "id": f.id,
                "camera": to_json(f.camera),
                "lanes": [{"category": int(category),
                           **{key: a.tolist() for key, a in fields.items()}}
                          for _, category, fields in itertools.islice(rows, len(f.lanes))],
                **({"tags": list(f.tags)} if f.tags else {}),
            }
            out.write(("," if i else "") + "\n  " + _dumps(doc, "\n  "))
        out.write("\n ]\n}\n" if frames else "]\n}\n")


@dataclass
class _LaneDoc:
    category: int
    points: Any  # the array fields are built while parsing, checked for the whole file at once
    visibility: Any
    score: float | None
    class_probs: Any


@dataclass
class _FrameDoc:
    id: str
    camera: CameraRig | None
    lanes: list[_LaneDoc]
    tags: tuple[str, ...]


def _with_optional_keys(fd):
    """Frame object ``fd`` with its absent optional keys set to their defaults."""
    if not isinstance(fd, dict):
        return fd
    fd = {"tags": [], **fd}
    if isinstance(fd.get("camera"), dict):
        fd["camera"] = {"T_gl": None, **fd["camera"]}
    if isinstance(fd.get("lanes"), list):
        fd["lanes"] = [{"score": None, "class_probs": None, **ld} if isinstance(ld, dict) else ld
                       for ld in fd["lanes"]]
    return fd


def _lane(ld: _LaneDoc, points, vis, probs, path, ptr: str) -> Lane3D:
    if points.ndim != 2 or points.shape[1] != 3:
        raise FileFormatError(path, f"{ptr}/points", "expected an array of [x, y, z] triples")
    if vis.shape != points.shape[:1]:
        raise FileFormatError(
            path, f"{ptr}/visibility", f"shape {vis.shape} does not match {points.shape[0]} points"
        )
    try:
        return Lane3D(x=points[:, 0], y=points[:, 1], z=points[:, 2], visibility=vis,
                      category=ld.category, score=ld.score, class_probs=probs)
    except ValueError as e:  # y not strictly increasing
        raise FileFormatError(path, f"{ptr}/points", str(e)) from e


def check_range(arrays: list[np.ndarray], bad, path, where, message: str) -> None:
    """Reject, at its pointer below ``where(k)``, the first element of ``arrays``
    for which ``bad`` holds; one test covers the whole file, and the element is
    only looked for once that test fails."""
    if not arrays or not bad(np.concatenate([a.ravel() for a in arrays])).any():
        return
    k = next(k for k, a in enumerate(arrays) if bad(a).any())
    first = tuple(np.argwhere(bad(arrays[k]))[0])
    raise FileFormatError(path, "/".join([where(k), *map(str, first)]),
                          message.format(float(arrays[k][first])))


def _check_unique_ids(ids: list[str], path) -> None:
    """Reject a frame id that repeats, at the later frame's ``/frames/<i>/id``."""
    first = {}
    for i, frame_id in enumerate(ids):
        if first.setdefault(frame_id, i) != i:
            raise FileFormatError(path, f"/frames/{i}/id",
                                  f"frame id {frame_id!r} repeats /frames/{first[frame_id]}/id")


def _lane_arrays(obj: dict) -> dict:
    """``json.loads`` object hook: a lane's array fields as float64 arrays,
    built by :func:`lane3d_kit.jsonable.try_array` as soon as the lane is parsed."""
    for key in ("points", "visibility", "class_probs"):
        if key in obj:
            obj[key] = try_array(obj[key])
    return obj


def read_json(path):
    """Parse the lane file ``path``, building its lanes' arrays as it goes."""
    return jsonable.read_json(path, object_hook=_lane_arrays)


def read_lane_file(path) -> list[Frame]:
    enabled = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        return _decode(read_json(path), path)
    finally:
        if enabled:
            gc.enable()


def _decode(doc, path) -> list[Frame]:
    if not isinstance(doc, dict):
        raise FileFormatError(path, "/", "expected an object")
    for key in doc:
        if key != "frames":
            raise FileFormatError(path, f"/{key}", "unknown field")
    if "frames" not in doc:
        raise FileFormatError(path, "/frames", "missing field")
    frames = doc["frames"]
    if isinstance(frames, list):
        frames = [_with_optional_keys(fd) for fd in frames]
    docs = from_json(list[_FrameDoc], frames, path, "/frames")
    lanes = [ld for fd in docs for ld in fd.lanes]
    ptrs = [f"/frames/{i}/lanes/{j}" for i, fd in enumerate(docs) for j in range(len(fd.lanes))]

    def column(name: str, ks) -> list[np.ndarray]:
        """Field ``name`` of the lanes numbered ``ks``, decoded in one pass."""
        return decode_arrays([getattr(lanes[k], name) for k in ks], path,
                             lambda n: f"{ptrs[ks[n]]}/{name}")

    every = range(len(lanes))
    ranged = {}
    for name, bad, message in _RULES:
        ranged[name] = column(name, every)
        check_range(ranged[name], bad, path, lambda k: f"{ptrs[k]}/{name}", message)
    points, vis = ranged["points"], ranged["visibility"]
    with_probs = [k for k in every if lanes[k].class_probs is not None]
    probs = dict(zip(with_probs, column("class_probs", with_probs)))
    _check_unique_ids([fd.id for fd in docs], path)
    built = (_lane(ld, points[k], vis[k], probs.get(k), path, ptrs[k])
             for k, ld in enumerate(lanes))
    return [Frame(id=fd.id, camera=fd.camera, tags=fd.tags,
                  lanes=list(itertools.islice(built, len(fd.lanes))))
            for fd in docs]
