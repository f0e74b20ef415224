"""One JSON codec for the package's dataclasses.

``to_json`` encodes a dataclass as an object of its fields in declaration
order, skipping fields whose names start with ``_``; a dataclass with a
single field encodes as that field's value.  Arrays and tuples encode as
lists.

``from_json`` decodes by the field annotations: nested dataclasses the
same way, ``X | None`` accepts ``null``, tuples and lists decode each item
(a fixed-length tuple also checks its length), ``np.ndarray`` becomes a
float64 array, ``bool`` accepts only ``true``/``false``, and ``int``,
``float`` and ``str`` go through their constructors.  Floats and arrays
must be finite.  Every field that ``__init__`` takes must be present and
no other key may be; derived fields (``init=False``) are written but never
read.  Every failure becomes a :class:`FileFormatError` at the JSON pointer
of the value that caused it; an error raised while constructing a
dataclass (``ValueError``, ``TypeError`` or a lane3d-kit error such as
``InvalidRig``) is located at that dataclass's object.  ``read_json``
parses a JSON file and locates a syntax error at its character offset.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from pathlib import Path

import numpy as np

from .errors import FileFormatError, Lane3DKitError


def read_json(path):
    """Parse a JSON file; invalid JSON raises FileFormatError at its offset."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise FileFormatError(path, f"offset {e.pos}", f"invalid JSON: {e.msg}") from e


def to_json(obj):
    """Encode a dataclass (or a value inside one) as plain JSON data."""
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj) if not f.name.startswith("_")]
        if len(names) == 1:
            return to_json(getattr(obj, names[0]))
        return {name: to_json(getattr(obj, name)) for name in names}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    return obj


def from_json(cls, doc, source, where: str = ""):
    """Decode ``doc`` as ``cls`` (a dataclass or a field annotation).

    ``source`` names the document in errors and ``where`` is the JSON
    pointer of ``doc`` within it.
    """
    if dataclasses.is_dataclass(cls):
        kwargs = _decode_fields(cls, doc, source, where)
        try:
            return cls(**kwargs)
        except (ValueError, TypeError, Lane3DKitError) as e:
            raise FileFormatError(source, where or "/", str(e)) from e
    try:
        return _decode(cls, doc, source, where)
    except (ValueError, TypeError) as e:
        raise FileFormatError(source, where or "/", str(e)) from e


def _decode_fields(cls, doc, source, where: str) -> dict:
    hints = _init_hints(cls)
    if len(hints) == 1:
        ((name, hint),) = hints.items()
        return {name: from_json(hint, doc, source, where)}
    if not isinstance(doc, dict):
        raise FileFormatError(source, where or "/", "expected an object")
    for key in doc:
        if key not in hints:
            raise FileFormatError(source, f"{where}/{key}", "unknown field")
    for name in hints:
        if name not in doc:
            raise FileFormatError(source, f"{where}/{name}", "missing field")
    return {name: from_json(hint, doc[name], source, f"{where}/{name}")
            for name, hint in hints.items()}


def _decode(cls, doc, source, where: str):
    """Decode a non-dataclass value; a ValueError/TypeError is located at ``where``."""
    if cls is np.ndarray:
        value = np.asarray(doc, dtype=np.float64)
        if not np.isfinite(value).all():
            first = np.argwhere(~np.isfinite(value))[0]
            raise FileFormatError(source, "/".join([where, *map(str, first)]) or "/",
                                  "non-finite value")
        return value
    if cls is bool:
        if not isinstance(doc, bool):
            raise TypeError(f"expected true or false, got {_kind(doc)}")
        return doc
    if cls in (int, float, str):
        value = cls(doc)
        if cls is float and not math.isfinite(value):
            raise ValueError("non-finite value")
        return value
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin in (typing.Union, types.UnionType):
        if doc is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return from_json(inner, doc, source, where)
    if origin not in (tuple, list):
        raise NotImplementedError(f"from_json cannot decode {cls!r}")
    if not isinstance(doc, list):
        raise TypeError(f"expected an array, got {_kind(doc)}: not iterable")
    if origin is list or args[-1] is Ellipsis:
        args = (args[0],) * len(doc)
    elif len(doc) != len(args):
        few = "not enough" if len(doc) < len(args) else "too many"
        raise ValueError(f"{few} values (expected {len(args)}, got {len(doc)})")
    items = enumerate(zip(args, doc))
    return origin(from_json(a, v, source, f"{where}/{i}") for i, (a, v) in items)


@functools.cache
def _init_hints(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}


def _kind(doc) -> str:
    kinds = {dict: "an object", list: "an array", str: "a string", bool: "true/false"}
    return "null" if doc is None else kinds.get(type(doc), "a number")
