import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane3d_kit.errors import FileFormatError
from lane3d_kit.tensorio import MAGIC, read_tensors, write_tensors


def test_round_trip_is_byte_exact(tmp_path, rng):
    path = tmp_path / "t.a3t"
    tensors = {
        "a": rng.normal(size=(3, 4)).astype(np.float32),
        "b.nested/name": rng.normal(size=(2, 2, 2)).astype(np.float32),
        "vec": np.array([1.5, -2.25, 1e-7], dtype=np.float32),
    }
    write_tensors(path, tensors)
    back = read_tensors(path)
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        np.testing.assert_array_equal(back[name], arr)
        assert back[name].dtype == np.float32
    # Writing the read-back values again reproduces identical bytes.
    path2 = tmp_path / "t2.a3t"
    write_tensors(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_float64_inputs_stored_as_f32(tmp_path):
    path = tmp_path / "t.a3t"
    write_tensors(path, {"x": np.array([[1.0, 2.0]], dtype=np.float64)})
    back = read_tensors(path)
    assert back["x"].dtype == np.float32
    np.testing.assert_array_equal(back["x"], np.array([[1.0, 2.0]], dtype=np.float32))


def test_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "t.a3t"
    write_tensors(path, {"x": np.ones((4, 4), dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FileFormatError) as exc:
        read_tensors(path)
    assert "byte" in str(exc.value)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.a3t"
    name = b"x"
    body = struct.pack("<H", len(name)) + name + b"BAD!" + bytes(4)
    path.write_bytes(body)
    with pytest.raises(FileFormatError) as exc:
        read_tensors(path)
    assert "magic" in str(exc.value)


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "t.a3t"
    write_tensors(path, {"x": np.zeros(2, dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob + blob)
    with pytest.raises(FileFormatError) as exc:
        read_tensors(path)
    assert "duplicate" in str(exc.value)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "t.a3t"
    name = b"x"
    record = MAGIC + struct.pack("<BB2x", 9, 1) + struct.pack("<Q", 0)
    path.write_bytes(struct.pack("<H", len(name)) + name + record)
    with pytest.raises(FileFormatError) as exc:
        read_tensors(path)
    assert "version" in str(exc.value)


def test_unicode_names(tmp_path):
    path = tmp_path / "t.a3t"
    write_tensors(path, {"тензор": np.zeros(1, dtype=np.float32)})
    assert "тензор" in read_tensors(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e200])
def test_writer_refuses_a_value_not_finite_as_float32(tmp_path, value):
    path = tmp_path / "t.a3t"
    second = np.zeros((2, 3))
    second[1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"tensor 'F5': element 5 is not finite as float32"):
            write_tensors(path, {"ok": np.ones(4), "F5": second})
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_element_reports_its_byte_and_tensor(tmp_path, bad):
    path = tmp_path / "t.a3t"
    write_tensors(path, {"ok": np.ones(4, dtype=np.float32), "F5": np.zeros((2, 3))})
    # First record: 2 + 2 (name) + 8 (header) + 8 (one dim) + 16 (payload) = 36 bytes.
    # Second record: 2 + 2 (name) + 8 + 16 (two dims) = 28 bytes before its payload,
    # and the bad element, written over the file since the writer refuses it, is
    # the sixth float of it.
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, 36 + 28 + 4 * 5, bad)
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError) as exc:
        read_tensors(path)
    assert exc.value.location == f"byte {36 + 28 + 4 * 5}"
    assert "non-finite" in exc.value.message and "'F5'" in exc.value.message
    assert not np.isfinite(struct.unpack_from("<f", path.read_bytes(), 36 + 28 + 4 * 5)[0])



TWO_TENSORS = {"F5": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(2, np.float32)}


@pytest.fixture(scope="module")
def blob(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("blob") / "t.a3t"
    write_tensors(path, TWO_TENSORS)
    return path.read_bytes()


@pytest.fixture(scope="module")
def read_damaged(tmp_path_factory):
    """read_tensors of some bytes, or None when it raised FileFormatError."""
    path = tmp_path_factory.mktemp("damaged") / "t.a3t"

    def read(data: bytes):
        path.write_bytes(data)
        try:
            return read_tensors(path)
        except FileFormatError:
            return None

    return read


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_truncated_file_raises_only_file_format_error(blob, read_damaged, data):
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    back = read_damaged(blob[:cut])
    # A cut at a record boundary leaves a shorter valid file.
    if back is not None:
        assert list(back) == list(TWO_TENSORS)[:len(back)]
        for name, arr in back.items():
            np.testing.assert_array_equal(arr, TWO_TENSORS[name])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), byte=st.integers(0, 255))
def test_overwritten_byte_raises_only_file_format_error(blob, read_damaged, data, byte):
    pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
    back = read_damaged(blob[:pos] + bytes([byte]) + blob[pos + 1:])
    if back is not None:
        assert all(np.isfinite(arr).all() for arr in back.values())
