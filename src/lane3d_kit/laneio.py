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
- Four keys are optional, each declared so on its record
  (``optional_keys``) and given its default by the codec: a frame's
  ``tags`` (default none), a lane's ``score`` and ``class_probs`` (default
  absent), and a camera's ``T_gl`` (absent means no LiDAR).
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
caused it.  The values are checked by one function for the reader and the
writer, in one order: the scores, then for each field of the table its
finiteness and then its range, then the class probabilities' finiteness,
then the frame ids.  ``write_lane_file`` runs it on the frames it is given
before it writes any byte, so it refuses, at the same pointer and with the
same message, the value that the reader rejects first, and no command
writes a lane file that no command reads.

This module checks what every reader of a lane file needs.  What only the
losses need (the profile's y-grid, a ``category`` in 0..S-1 and
``class_probs`` of S+1 probabilities) is checked by
:mod:`lane3d_kit.scoring`, with :func:`check_range` for the probabilities.

Memory grows with a file's numbers, not with one Python object per number.
``write_lane_file`` makes every check first, then encodes and writes one
frame at a time, so it holds each lane's arrays (the frames' own, but for
the stacked points) and one frame's lists and text; its bytes are ``dumps``
of the whole document plus a newline.  ``read_lane_file`` parses with an
object hook that turns a lane's ``points``, ``visibility`` and
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

    The values are checked first by the reader's own check, so a file that
    :func:`read_lane_file` would reject is refused at the pointer the reader
    would name, and then ``path`` is not opened: a lane's non-finite number,
    a value outside the ranges of ``_RULES``, or a repeated frame id.  The
    bytes written are ``dumps`` of the whole document plus a newline.
    """
    columns = zip(*_check_values(frames, path))
    with open(path, "w") as out:
        # The text of {"frames": [...]} as dumps indents it, each frame at its depth.
        out.write('{\n "frames": [')
        for i, f in enumerate(frames):
            doc = {
                "id": f.id,
                "camera": to_json(f.camera),
                "lanes": [_lane_doc(lane, *next(columns)) for lane in f.lanes],
                **({"tags": list(f.tags)} if f.tags else {}),
            }
            out.write(("," if i else "") + "\n  " + _dumps(doc, "\n  "))
        out.write("\n ]\n}\n" if frames else "]\n}\n")


def _lane_doc(lane: Lane3D, points, vis, probs) -> dict:
    """The object of ``lane`` in a lane file, its arrays as checked."""
    return {"category": int(lane.category), "points": points.tolist(), "visibility": vis.tolist(),
            **({} if lane.score is None else {"score": float(lane.score)}),
            **({} if probs is None else {"class_probs": probs.tolist()})}


@dataclass
class _LaneDoc:
    optional_keys = ("score", "class_probs")
    category: int
    points: Any  # the array fields are built while parsing, checked for the whole file at once
    visibility: Any
    score: float | None = None
    class_probs: Any = None


@dataclass
class _FrameDoc:
    optional_keys = ("tags",)
    id: str
    camera: CameraRig | None
    lanes: list[_LaneDoc]
    tags: tuple[str, ...] = ()


def _lane(ld: _LaneDoc, points, vis, probs, path, i: int, j: int) -> Lane3D:
    if points.ndim != 2 or points.shape[1] != 3:
        raise FileFormatError(path, f"/frames/{i}/lanes/{j}/points",
                              "expected an array of [x, y, z] triples")
    if vis.shape != points.shape[:1]:
        raise FileFormatError(path, f"/frames/{i}/lanes/{j}/visibility",
                              f"shape {vis.shape} does not match {points.shape[0]} points")
    try:
        return Lane3D(x=points[:, 0], y=points[:, 1], z=points[:, 2], visibility=vis,
                      category=ld.category, score=ld.score, class_probs=probs)
    except ValueError as e:  # y not strictly increasing
        raise FileFormatError(path, f"/frames/{i}/lanes/{j}/points", str(e)) from e


def _check_values(frames, path) -> tuple[list, list, list]:
    """Check every lane value of ``frames`` (:class:`Frame` objects or the
    reader's documents) and return each lane's points, visibility and class
    probabilities (None where it has none) as float64 arrays.

    The value refused is the first in this order, each step testing the whole
    file at once and then looking in document order: a non-finite score; per
    field of ``_RULES`` a non-finite number, then a value out of its range; a
    non-finite class probability; a repeated frame id.  Only its pointer is built.
    """
    lanes = [lane for f in frames for lane in f.lanes]

    def at(k: int, name: str) -> str:  # lane k counts lanes across frames
        for i, f in enumerate(frames):
            if k < len(f.lanes):
                return f"/frames/{i}/lanes/{k}/{name}"
            k -= len(f.lanes)

    def column(name: str, ks) -> list[np.ndarray]:
        """Field ``name`` of the lanes numbered ``ks``, decoded in one pass."""
        return decode_arrays([getattr(lanes[k], name) for k in ks], path,
                             lambda n: at(ks[n], name))

    every = range(len(lanes))
    scored = [k for k in every if lanes[k].score is not None]
    finite = np.isfinite(np.array([lanes[k].score for k in scored], dtype=np.float64))
    if not finite.all():
        raise FileFormatError(path, at(scored[np.argmin(finite)], "score"), "non-finite value")
    ranged = {}
    for name, bad, message in _RULES:
        ranged[name] = column(name, every)
        check_range(ranged[name], bad, path, lambda k: at(k, name), message)
    with_probs = [k for k in every if lanes[k].class_probs is not None]
    probs = dict(zip(with_probs, column("class_probs", with_probs)))
    _check_unique_ids([f.id for f in frames], path)
    return ranged["points"], ranged["visibility"], [probs.get(k) for k in every]


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
    docs = from_json(list[_FrameDoc], doc["frames"], path, "/frames")
    columns = zip(*_check_values(docs, path))
    return [Frame(id=fd.id, camera=fd.camera, tags=fd.tags,
                  lanes=[_lane(ld, *next(columns), path, i, j) for j, ld in enumerate(fd.lanes)])
            for i, fd in enumerate(docs)]
