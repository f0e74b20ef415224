"""Binary tensor container.

Each tensor record is: magic ``A3TN`` (4 bytes), version u8 = 1, ndim u8,
two zero pad bytes, ndim little-endian u64 dims, then the row-major
little-endian float32 payload.  A file holds a sequence of named records,
each prefixed by a little-endian u16 name length and the UTF-8 name.
Names must be unique within a file.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FileFormatError

MAGIC = b"A3TN"
VERSION = 1


def _tensor_bytes(name: str, array: np.ndarray) -> bytes:
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(array, dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"tensor {name!r}: element {bad[0]} is not finite as float32")
    header = MAGIC + struct.pack("<BB2x", VERSION, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return header + dims + arr.tobytes()


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors; values are stored as float32.

    A value that is NaN or infinite as float32, also one that overflows the
    cast, raises ``ValueError`` naming the tensor, and no file is written.
    """
    chunks = []
    for name, array in tensors.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        chunks.append(struct.pack("<H", len(encoded)) + encoded + _tensor_bytes(name, array))
    Path(path).write_bytes(b"".join(chunks))


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read a named-tensor file back into float32 arrays.

    Malformed input, including a NaN or infinite element, reports the byte
    offset of the offending field.
    """
    blob = Path(path).read_bytes()
    out: dict[str, np.ndarray] = {}
    pos = 0
    total = len(blob)

    def need(count, what):
        if pos + count > total:
            raise FileFormatError(path, f"byte {pos}", f"truncated {what}")

    while pos < total:
        need(2, "name length")
        (name_len,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        need(name_len, "tensor name")
        try:
            name = blob[pos:pos + name_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FileFormatError(path, f"byte {pos}", "tensor name is not UTF-8") from e
        pos += name_len
        if name in out:
            raise FileFormatError(path, f"byte {pos}", f"duplicate tensor name {name!r}")
        need(8, "tensor header")
        if blob[pos:pos + 4] != MAGIC:
            raise FileFormatError(path, f"byte {pos}", "bad magic (expected A3TN)")
        version, ndim = struct.unpack_from("<BB", blob, pos + 4)
        if version != VERSION:
            raise FileFormatError(path, f"byte {pos + 4}", f"unsupported version {version}")
        if blob[pos + 6:pos + 8] != b"\x00\x00":
            raise FileFormatError(path, f"byte {pos + 6}", "nonzero padding")
        pos += 8
        need(8 * ndim, "dims")
        dims = struct.unpack_from(f"<{ndim}Q", blob, pos) if ndim else ()
        pos += 8 * ndim
        count = 1
        for d in dims:
            count *= d
        need(4 * count, f"payload of {name!r}")
        data = np.frombuffer(blob, dtype="<f4", count=count, offset=pos).reshape(dims)
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            raise FileFormatError(path, f"byte {pos + 4 * bad[0]}", f"non-finite value in {name!r}")
        pos += 4 * count
        out[name] = data.copy()
    return out
