"""One JSON codec for the package's dataclasses.

``to_json`` encodes a dataclass as an object of its fields in declaration
order, skipping fields whose names start with ``_``; a dataclass with a
single field encodes as that field's value.  Arrays and tuples encode as
lists.

``from_json`` decodes by the field annotations: nested dataclasses the
same way, ``X | None`` accepts ``null``, tuples and lists decode each item
(a fixed-length tuple also checks its length), ``np.ndarray`` becomes a
float64 array, ``bool`` accepts only ``true``/``false``, ``str`` only
strings, ``int`` rejects strings, booleans, non-integral numbers and
float literals of magnitude 2**53 or more (``1e200``), ``float`` rejects
strings and booleans, and ``int`` and ``float`` then go through their
constructors.  ``typing.Any`` keeps the parsed value for the
caller to decode (``decode_arrays`` checks many arrays in one pass).
Floats and arrays must be finite.  One rule converts an array, while a
file parses (``try_array``) and when it is decoded: a list converts when
numpy reads it as booleans or numbers, and a list that does not is only
looked at again to report where and why (a string element at its pointer,
a ``null`` as a non-finite value, a ragged row at the array).

Every field that ``__init__`` takes must be present and no other key may
be, except that a dataclass may declare keys a document may omit in a
class variable ``optional_keys``: a tuple of field names, or ``True`` for
every key.  An omitted key takes the field's default from the dataclass
itself.  The declaration is the record's alone: a record that declares
none (a :class:`~lane3d_kit.config.RunConfig` and its sections) needs
every key.  Derived fields (``init=False``) are written but never read.
Every failure becomes a :class:`FileFormatError` at the JSON pointer of
the value that caused it; an error raised while constructing a dataclass
(``ValueError``, ``TypeError`` or a lane3d-kit error such as
``InvalidRig``) is located at that dataclass's object.  The decoder of
each annotation is built once and reused.

``read_json`` reads a file as UTF-8 (RFC 8259), whatever the locale, and
parses it: a byte that is not UTF-8 is reported at its byte offset, a
syntax error at its character offset, and an integer literal too long for
``int`` at its JSON pointer.

``dumps`` is the one text encoder: every JSON file and every JSON print of
the package goes through it, and its text is ``json.dumps(obj, indent=1)``'s.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import sys
import types
import typing
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import FileFormatError, Lane3DKitError


def read_json(path, object_hook=None):
    """Parse the UTF-8 JSON file ``path``; a byte that is not UTF-8 raises
    FileFormatError at its byte offset, invalid JSON at its character offset,
    and an integer literal too long for ``int`` at its pointer.

    ``object_hook`` is ``json.loads``'s.  It must not raise: any ``ValueError``
    other than a syntax error is taken for the integer limit.
    """
    try:
        # read_text decodes all the file's bytes in one call, so e.start is a file offset.
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FileFormatError(path, f"byte {e.start}", f"invalid UTF-8: {e.reason}") from e
    try:
        return json.loads(text, object_hook=object_hook)
    except json.JSONDecodeError as e:
        raise FileFormatError(path, f"offset {e.pos}", f"invalid JSON: {e.msg}") from e
    except ValueError as e:
        # The one other error: an integer literal longer than int() converts.  Parse
        # again with e standing for each such literal (int() does not count the sign).
        limit = sys.get_int_max_str_digits()
        doc = json.loads(text, parse_int=lambda s: e if len(s.lstrip("-")) > limit else int(s))
        raise FileFormatError(path, _pointer("", _first(doc, lambda v: v is e)),
                              f"integer literal exceeds the limit of {limit} digits") from e


def dumps(obj) -> str:
    """``json.dumps(obj, indent=1)``, the one text encoder the package writes
    JSON with, built for documents that are mostly lists of floats.

    CPython's C encoder does not indent, so ``json.dumps`` with ``indent``
    encodes item by item in Python.  Here a list of floats is joined in one
    pass of ``float.__repr__``, and a list of equal-length rows of floats is
    filled into one row template.  Every other value, and a list holding a
    NaN or an infinity, goes to ``json.dumps``.
    """
    return _dumps(obj, "\n")


def _dumps(obj, nl: str) -> str:
    """``obj`` encoded as by ``dumps`` at the depth where a line starts with ``nl``."""
    inner = nl + " "
    if isinstance(obj, (list, tuple)) and obj:
        items = _float_items(obj, inner)
        if items is None:
            items = ("," + inner).join([_dumps(v, inner) for v in obj])
    elif isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        items = ("," + inner).join([f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                                    for k, v in obj.items()])
        return "{" + inner + items + nl + "}"
    elif isinstance(obj, (list, tuple, dict)):
        # Only indentation puts a newline in json.dumps's text (strings escape theirs).
        return json.dumps(obj, indent=1).replace("\n", nl)
    else:
        return json.dumps(obj)  # a scalar: indent changes nothing, so the C encoder runs
    return "[" + inner + items + nl + "]"


def _float_items(obj, inner: str) -> str | None:
    """The items of the non-empty list ``obj`` encoded at ``inner``, when ``obj``
    holds finite floats or equal-length non-empty rows of them; else None."""
    first = obj[0]
    try:
        if isinstance(first, (list, tuple)):
            width = len(first)
            rows = set(map(type, obj)) <= {list, tuple} and set(map(len, obj)) == {width}
            if not (width and rows):
                return None
            cell = "," + inner + " "
            row = "[" + inner + " " + cell.join(["%s"] * width) + inner + "]"
            values = map(float.__repr__, itertools.chain.from_iterable(obj))
            text = ("," + inner).join([row] * len(obj)) % tuple(values)
        else:
            text = ("," + inner).join(map(float.__repr__, obj))
    except TypeError:  # float.__repr__ of something that is not a float
        return None
    # A finite float's repr has no letter n; "nan", "inf" and "-inf" do.
    return None if "n" in text else text


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
    return _decoder(cls)(doc, source, where)


@functools.cache
def _decoder(cls):
    """The function ``(doc, source, where) -> value`` that decodes ``cls``,
    built once per annotation."""
    if dataclasses.is_dataclass(cls):
        return _object_decoder(cls)
    if cls is np.ndarray:
        return _decode_array
    if cls is typing.Any:
        return lambda doc, source, where: doc
    if cls in _SCALARS:
        return _located(_SCALARS[cls])
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [_decoder(a) for a in args if a is not type(None)]
        return lambda doc, source, where: None if doc is None else inner(doc, source, where)
    if origin not in (tuple, list):
        raise NotImplementedError(f"from_json cannot decode {cls!r}")
    return _sequence_decoder(origin, args)


def _object_decoder(cls):
    hints = typing.get_type_hints(cls)
    fields = {f.name: _decoder(hints[f.name]) for f in dataclasses.fields(cls) if f.init}
    optional = getattr(cls, "optional_keys", ())
    optional = fields if optional is True else optional

    def decode(doc, source, where):
        if len(fields) == 1:
            ((name, field),) = fields.items()
            kwargs = {name: field(doc, source, where)}
        else:
            kwargs = _decode_fields(fields, optional, doc, source, where)
        try:
            return cls(**kwargs)
        except (ValueError, TypeError, Lane3DKitError) as e:
            raise FileFormatError(source, where or "/", str(e)) from e

    return decode


def _decode_fields(fields: dict, optional, doc, source, where: str) -> dict:
    if not isinstance(doc, dict):
        raise FileFormatError(source, where or "/", "expected an object")
    if doc.keys() != fields.keys():
        for key in doc:
            if key not in fields:
                raise FileFormatError(source, f"{where}/{key}", "unknown field")
        for name in fields:
            if name not in doc and name not in optional:
                raise FileFormatError(source, f"{where}/{name}", "missing field")
        fields = {name: field for name, field in fields.items() if name in doc}
    return {name: field(doc[name], source, f"{where}/{name}") for name, field in fields.items()}


def _sequence_decoder(origin, args):
    variadic = origin is list or args[-1] is Ellipsis
    items = [_decoder(a) for a in (args[:1] if variadic else args)]

    def decode(doc, source, where):
        if not isinstance(doc, list):
            raise FileFormatError(source, where or "/",
                                  f"expected an array, got {_kind(doc)}: not iterable")
        decoders = items * len(doc) if variadic else items
        if len(doc) != len(decoders):
            few = "not enough" if len(doc) < len(decoders) else "too many"
            raise FileFormatError(source, where or "/",
                                  f"{few} values (expected {len(decoders)}, got {len(doc)})")
        return origin([item(v, source, f"{where}/{i}")
                       for i, (item, v) in enumerate(zip(decoders, doc))])

    return decode


def try_array(doc):
    """``doc`` as a float64 array when numpy reads it as booleans or numbers
    (a list of them, or of equal rows of them); else ``doc`` itself.  This is
    the one conversion of an array; finiteness is left to the decoder.

    A list holding a string, a ``null`` or an object, a ragged row, or an
    integer beyond 64 bits stays as parsed, for the decoder to convert or to
    report at its pointer.  It never raises, so it can run inside a
    ``json.loads`` object hook.
    """
    try:
        value = np.asarray(doc)
    except (ValueError, TypeError, OverflowError):
        return doc
    return value.astype(np.float64, copy=False) if value.dtype.kind in "biuf" else doc


def decode_arrays(docs: list, source, where) -> list[np.ndarray]:
    """``[from_json(np.ndarray, doc, source, where(i)) for i, doc in enumerate(docs)]``
    with one finiteness check for all of ``docs`` when each is a float64 array
    already, as :func:`try_array` builds them while a file parses.

    Otherwise, or when that check fails, each doc is decoded alone, which
    reports the first error at its pointer.
    """
    if all(type(doc) is np.ndarray and doc.dtype == np.float64 for doc in docs) and (
            not docs or np.isfinite(np.concatenate([doc.ravel() for doc in docs])).all()):
        return docs
    return [_decode_array(doc, source, where(i)) for i, doc in enumerate(docs)]


def _decode_array(doc, source, where: str) -> np.ndarray:
    """The one array check: ``doc`` as a finite float64 array, converted by
    :func:`try_array`.

    A doc that does not convert is looked at again only to tell where and
    why: a ragged row fails its untyped conversion again, a string element is
    reported at its pointer, and anything else (a ``null``, an integer beyond
    64 bits) is converted as float64, ``null`` becoming NaN.
    """
    value = try_array(doc)
    if type(value) is not np.ndarray:
        try:
            np.asarray(doc)
            string = _first(doc, lambda v: isinstance(v, str))
            if string is not None:
                raise FileFormatError(source, _pointer(where, string),
                                      "expected a number, got a string")
            value = np.asarray(doc, dtype=np.float64)
        except (ValueError, TypeError, OverflowError) as e:
            raise FileFormatError(source, where or "/", str(e)) from e
    finite = np.isfinite(value)
    if not finite.all():
        first = np.argwhere(~finite)[0]
        raise FileFormatError(source, _pointer(where, first), "non-finite value")
    return value


def _first(doc, hit, index: tuple = ()) -> tuple | None:
    """The index path of the first value in nested lists and objects ``doc``
    for which ``hit`` holds, or None."""
    if hit(doc):
        return index
    if isinstance(doc, (dict, list)):
        for key, item in doc.items() if isinstance(doc, dict) else enumerate(doc):
            found = _first(item, hit, (*index, key))
            if found is not None:
                return found
    return None


def _pointer(where: str, index: tuple) -> str:
    """The JSON pointer of item ``index`` below ``where``."""
    return "/".join([where, *map(str, index)]) or "/"


def _located(convert):
    """A decoder that reports convert's ValueError, TypeError or OverflowError at ``where``."""
    def decode(doc, source, where):
        try:
            return convert(doc)
        except (ValueError, TypeError, OverflowError) as e:
            raise FileFormatError(source, where or "/", str(e)) from e

    return decode


def _bool(doc) -> bool:
    if not isinstance(doc, bool):
        raise TypeError(f"expected true or false, got {_kind(doc)}")
    return doc


def _str(doc) -> str:
    if not isinstance(doc, str):
        raise TypeError(f"expected a string, got {_kind(doc)}")
    return doc


def _int(doc) -> int:
    # Floats from 2**53 up no longer tell neighbouring integers apart.
    if isinstance(doc, (bool, str)) or isinstance(doc, float) and not (
            doc.is_integer() and abs(doc) < 2.0 ** 53):
        raise ValueError(f"expected an integer, got {json.dumps(doc)}")
    return int(doc)


def _float(doc) -> float:
    if isinstance(doc, (bool, str)):
        raise ValueError(f"expected a number, got {json.dumps(doc)}")
    value = float(doc)
    if not math.isfinite(value):
        raise ValueError("non-finite value")
    return value


_SCALARS = {bool: _bool, int: _int, float: _float, str: _str}


def _kind(doc) -> str:
    kinds = {dict: "an object", list: "an array", str: "a string", bool: "true/false"}
    return "null" if doc is None else kinds.get(type(doc), "a number")
