import functools
import gc
import itertools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from lane3d_kit.errors import FileFormatError, InvalidRig
from lane3d_kit.geometry import CameraRig
from lane3d_kit import jsonable, laneio
from lane3d_kit.jsonable import decode_arrays, dumps, from_json, to_json
from lane3d_kit.lanes import Lane3D
from lane3d_kit.laneio import Frame, read_lane_file, write_lane_file

from conftest import unit_rig
from test_jsonable import _outcome, array_items


def sample_lane(score=None, probs=None):
    return Lane3D(
        x=np.array([0.5, 0.25, -0.125]),
        y=np.array([5.0, 10.0, 15.0]),
        z=np.array([0.0, 0.125, 0.25]),
        visibility=np.array([1.0, 1.0, 0.0]),
        category=3,
        score=score,
        class_probs=None if probs is None else np.asarray(probs, dtype=float),
    )


def test_round_trip_values(tmp_path):
    path = tmp_path / "lanes.json"
    frames = [
        Frame(id="0", camera=unit_rig(8), lanes=[sample_lane()], tags=("curve",)),
        Frame(id="1", camera=None, lanes=[sample_lane(score=0.875, probs=[0.875, 0.125])]),
    ]
    write_lane_file(path, frames)
    back = read_lane_file(path)
    assert [f.id for f in back] == ["0", "1"]
    assert back[0].tags == ("curve",)
    np.testing.assert_array_equal(back[0].camera.K, frames[0].camera.K)
    assert back[1].camera is None
    lane = back[1].lanes[0]
    np.testing.assert_array_equal(lane.x, frames[1].lanes[0].x)
    np.testing.assert_array_equal(lane.y, frames[1].lanes[0].y)
    np.testing.assert_array_equal(lane.visibility, frames[1].lanes[0].visibility)
    assert lane.score == 0.875
    np.testing.assert_array_equal(lane.class_probs, [0.875, 0.125])
    assert back[0].lanes[0].score is None
    assert back[0].lanes[0].class_probs is None


def test_write_then_read_is_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    frames = [Frame(id="0", camera=unit_rig(8), lanes=[sample_lane(score=0.5)])]
    write_lane_file(a, frames)
    write_lane_file(b, read_lane_file(a))
    assert a.read_bytes() == b.read_bytes()


def test_invalid_json_reports_offset(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"frames": [')
    with pytest.raises(FileFormatError) as exc:
        read_lane_file(path)
    assert "offset" in str(exc.value)


def test_missing_field_reports_pointer(tmp_path):
    path = tmp_path / "lanes.json"
    doc = {"frames": [{"id": "0", "camera": None,
                       "lanes": [{"category": 1, "points": [[0, 1, 0]]}]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError) as exc:
        read_lane_file(path)
    assert "/frames/0/lanes/0/visibility" in str(exc.value)


def test_visibility_length_mismatch(tmp_path):
    path = tmp_path / "lanes.json"
    doc = {"frames": [{"id": "0", "camera": None,
                       "lanes": [{"category": 1, "points": [[0, 1, 0], [0, 2, 0]],
                                  "visibility": [1.0]}]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError) as exc:
        read_lane_file(path)
    assert "visibility" in str(exc.value)


def test_non_monotone_y_rejected(tmp_path):
    path = tmp_path / "lanes.json"
    doc = {"frames": [{"id": "0", "camera": None,
                       "lanes": [{"category": 0,
                                  "points": [[0, 5, 0], [0, 4, 0]],
                                  "visibility": [1, 1]}]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError) as exc:
        read_lane_file(path)
    assert "increasing" in str(exc.value)


def pointer_table_doc() -> dict:
    """Two frames: the first with two 3-point lanes, the second with lanes of
    2, 4 and 3 points, so every lane starts at another offset of the file."""
    def lane(n, start):
        return {"category": 0, "score": 0.5, "class_probs": [0.5, 0.5],
                "points": [[0, start + k, 0] for k in range(n)], "visibility": [1] * n}

    return {"frames": [
        {"id": "0", "camera": None, "lanes": [lane(3, 5), lane(3, 5)]},
        {"id": "1", "camera": None, "lanes": [lane(2, 5), lane(4, 3), lane(3, 8)]},
    ]}


def pointer_table_doc_with(field, index, pointer, bad) -> dict:
    """:func:`pointer_table_doc` with item ``index`` of ``field`` of the lane
    at ``pointer`` set to ``bad``."""
    doc = pointer_table_doc()
    frame, lane = (int(part) for part in pointer.split("/")[2:5:2])
    lane = doc["frames"][frame]["lanes"][lane]
    if index:
        target = lane[field]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = bad
    else:
        lane[field] = bad
    return doc


@pytest.mark.parametrize(
    "field, index, pointer",
    [
        ("points", (1, 0), "/frames/0/lanes/1/points/1/0"),
        ("points", (2, 1), "/frames/0/lanes/1/points/2/1"),
        ("visibility", (0,), "/frames/0/lanes/1/visibility/0"),
        ("score", (), "/frames/0/lanes/1/score"),
        ("class_probs", (1,), "/frames/0/lanes/1/class_probs/1"),
        ("points", (2, 2), "/frames/1/lanes/2/points/2/2"),
        ("visibility", (3,), "/frames/1/lanes/1/visibility/3"),
    ],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_value_reports_its_pointer(tmp_path, field, index, pointer, bad):
    path = tmp_path / "lanes.json"
    # json.dumps writes the NaN / Infinity literals.
    path.write_text(json.dumps(pointer_table_doc_with(field, index, pointer, bad)))
    with pytest.raises(FileFormatError) as exc:
        read_lane_file(path)
    assert exc.value.location == pointer
    assert "non-finite" in str(exc.value)


@pytest.mark.parametrize("field, index, pointer, bad, message", [
    ("points", (1, 0), "/frames/0/lanes/1/points/1/0", 1e150,
     "expected a magnitude below 1e150, got 1e+150"),
    ("points", (2, 2), "/frames/1/lanes/2/points/2/2", -1.7e308,
     "expected a magnitude below 1e150, got -1.7e+308"),
    ("visibility", (0,), "/frames/0/lanes/1/visibility/0", 7,
     "expected a value in [0, 1], got 7.0"),
    ("visibility", (3,), "/frames/1/lanes/1/visibility/3", -0.5,
     "expected a value in [0, 1], got -0.5"),
    ("visibility", (1,), "/frames/1/lanes/0/visibility/1", 1 + 1e-15,
     "expected a value in [0, 1], got 1.000000000000001"),
])
def test_value_out_of_range_reports_its_pointer(tmp_path, field, index, pointer, bad, message):
    path = tmp_path / "lanes.json"
    path.write_text(json.dumps(pointer_table_doc_with(field, index, pointer, bad)))
    with pytest.raises(FileFormatError) as exc:
        read_lane_file(path)
    assert (exc.value.location, exc.value.message) == (pointer, message)


def frames_of(doc) -> list[Frame]:
    """The frames of lane file document ``doc``, built in memory, not read."""
    def lane(ld):
        x, y, z = np.array(ld["points"], dtype=float).T
        return Lane3D(x=x, y=y, z=z, visibility=ld["visibility"], category=ld["category"],
                      score=ld.get("score"), class_probs=ld.get("class_probs"))

    return [Frame(id=fd["id"], camera=fd["camera"] and CameraRig(**fd["camera"]),
                  lanes=[lane(ld) for ld in fd["lanes"]])
            for fd in doc["frames"]]


def set_at(doc, pointer: str, value) -> None:
    """Set the value at JSON pointer ``pointer`` of ``doc`` to ``value``."""
    *path, last = (int(key) if key.isdigit() else key for key in pointer.split("/")[1:])
    functools.reduce(operator.getitem, path, doc)[last] = value


def rig_table_doc_with(pointer, bad) -> dict:
    """:func:`pointer_table_doc` with a rig on its second frame and the value at
    JSON pointer ``pointer`` set to ``bad``."""
    doc = pointer_table_doc()
    doc["frames"][1]["camera"] = to_json(unit_rig())
    set_at(doc, pointer, bad)
    return doc


@pytest.mark.parametrize("pointer, bad", [
    ("/frames/0/lanes/1/points/1/0", float("nan")),
    ("/frames/1/lanes/2/points/2/2", float("-inf")),
    ("/frames/1/lanes/1/visibility/3", float("inf")),
    ("/frames/0/lanes/1/score", float("nan")),
    ("/frames/0/lanes/1/class_probs/1", float("inf")),
    ("/frames/0/lanes/1/points/1/0", 1e150),
    ("/frames/1/lanes/2/points/2/2", -1.7e308),
    ("/frames/0/lanes/1/visibility/0", 7.0),
    ("/frames/1/lanes/0/visibility/1", -0.5),
    ("/frames/1/id", "0"),
])
def test_writer_refuses_what_the_reader_rejects(tmp_path, pointer, bad):
    doc = rig_table_doc_with(pointer, bad)
    read = tmp_path / "read.json"
    read.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError) as rejected:
        read_lane_file(read)
    written = tmp_path / "written.json"
    with pytest.raises(FileFormatError) as refused:
        write_lane_file(written, frames_of(doc))
    assert (refused.value.path, refused.value.location, refused.value.message) == (
        str(written), pointer, rejected.value.message)
    assert rejected.value.location == pointer
    assert not written.exists()


@pytest.mark.parametrize("pointer, bad", [
    ("/frames/1/camera/K/0/0", float("inf")),
    ("/frames/1/camera/T_gc/2/3", float("nan")),
])
def test_non_finite_rig_value_is_read_at_its_element(tmp_path, pointer, bad):
    # A rig in memory cannot hold one (test_rig_refuses_a_non_finite_value).
    path = tmp_path / "lanes.json"
    path.write_text(json.dumps(rig_table_doc_with(pointer, bad)))
    with pytest.raises(FileFormatError) as rejected:
        read_lane_file(path)
    assert (rejected.value.location, rejected.value.message) == (pointer, "non-finite value")


RIGS = [None, to_json(unit_rig()), {**to_json(unit_rig()), "T_gl": unit_rig().T_gc.tolist()}]


@st.composite
def lane_file_docs(draw) -> dict:
    """A lane file document that reads, of at most 3 frames x 3 lanes x 6
    points; a frame's rig is none, a camera, or a camera with a LiDAR."""
    coord, unit = st.floats(-100.0, 100.0), st.floats(0.0, 1.0)
    frames = []
    for i in range(draw(st.integers(1, 3))):
        lanes = []
        for _ in range(draw(st.integers(0, 3))):
            n, y0 = draw(st.integers(1, 6)), draw(st.integers(-10, 10))
            lane = {"category": draw(st.integers(0, 5)),
                    "points": [[draw(coord), y0 + k, draw(coord)] for k in range(n)],
                    "visibility": draw(st.lists(unit, min_size=n, max_size=n))}
            if draw(st.booleans()):
                lane["score"] = draw(unit)
            if draw(st.booleans()):
                lane["class_probs"] = draw(st.lists(unit, min_size=1, max_size=4))
            lanes.append(lane)
        camera = draw(st.sampled_from(RIGS))
        frames.append({"id": str(i), "camera": camera, "lanes": lanes})
    return {"frames": frames}


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def rejected_values(doc) -> dict[str, list[tuple[str, st.SearchStrategy]]]:
    """By field, (JSON pointer, values the reader rejects there) of every value
    in ``doc`` that can be set to one alone.  A ``y`` is left out: a bad one
    breaks the order that ``Lane3D`` checks before any writer runs."""
    too_large = st.floats(1e150, 1.7e308) | st.floats(-1.7e308, -1e150)
    outside_unit = st.floats(1.0, 1e300, exclude_min=True) | st.floats(-1e300, -5e-324)
    targets = {}
    for i, fd in enumerate(doc["frames"]):
        if i:
            targets.setdefault("id", []).append(
                (f"/frames/{i}/id", st.sampled_from([str(p) for p in range(i)])))
        for j, ld in enumerate(fd["lanes"]):
            where = f"/frames/{i}/lanes/{j}"
            for k in range(len(ld["points"])):
                targets.setdefault("points", []).extend(
                    (f"{where}/points/{k}/{c}", NON_FINITE | too_large) for c in (0, 2))
                targets.setdefault("visibility", []).append(
                    (f"{where}/visibility/{k}", NON_FINITE | outside_unit))
            if "score" in ld:
                targets.setdefault("score", []).append((f"{where}/score", NON_FINITE))
            for k in range(len(ld.get("class_probs", []))):
                targets.setdefault("class_probs", []).append(
                    (f"{where}/class_probs/{k}", NON_FINITE))
        for name in ("K", "T_gc", "T_gl"):
            if fd["camera"] and fd["camera"][name]:
                rows = fd["camera"][name]
                targets.setdefault("rig", []).extend(
                    (f"/frames/{i}/camera/{name}/{r}/{c}", NON_FINITE)
                    for r in range(len(rows)) for c in range(len(rows[0])))
    return targets


@seed(1717)
@settings(max_examples=100, deadline=None)
@given(lane_file_docs(), st.data())
def test_writer_refuses_each_value_the_reader_rejects(tmp_path_factory, doc, data):
    work = tmp_path_factory.mktemp("parity")
    write_lane_file(work / "valid.json", frames_of(doc))
    assert json.loads((work / "valid.json").read_text()) == doc
    targets = rejected_values(doc)
    assume(targets)
    kind = data.draw(st.sampled_from(sorted(targets)))
    pointer, strategy = data.draw(st.sampled_from(targets[kind]))
    doc = json.loads(json.dumps(doc))
    set_at(doc, pointer, data.draw(strategy))
    (work / "read.json").write_text(json.dumps(doc))
    with pytest.raises(FileFormatError) as rejected:
        read_lane_file(work / "read.json")
    assert rejected.value.location == pointer
    if kind == "rig":
        # An inf in the rotation block makes the rotation check's R @ R.T warn.
        with np.errstate(invalid="ignore"), pytest.raises(InvalidRig):
            frames_of(doc)
        return
    written = work / "written.json"
    with pytest.raises(FileFormatError) as refused:
        write_lane_file(written, frames_of(doc))
    assert (refused.value.path, refused.value.location, refused.value.message) == (
        str(written), pointer, rejected.value.message)
    assert not written.exists()


@seed(2323)
@settings(max_examples=150, deadline=None)
@given(lane_file_docs(), st.data())
def test_writer_refuses_first_the_value_the_reader_rejects_first(tmp_path_factory, doc, data):
    # A rig in memory holds no refused value (test_rig_refuses_a_non_finite_value).
    targets = [t for kind, ts in rejected_values(doc).items() if kind != "rig" for t in ts]
    assume(len(targets) >= 2)
    doc = json.loads(json.dumps(doc))
    for pointer, strategy in data.draw(st.lists(st.sampled_from(targets), min_size=2,
                                                max_size=3, unique_by=lambda t: t[0])):
        set_at(doc, pointer, data.draw(strategy))
    work = tmp_path_factory.mktemp("first")
    (work / "read.json").write_text(json.dumps(doc))
    with pytest.raises(FileFormatError) as rejected:
        read_lane_file(work / "read.json")
    with pytest.raises(FileFormatError) as refused:
        write_lane_file(work / "written.json", frames_of(doc))
    assert (refused.value.location, refused.value.message) == (
        rejected.value.location, rejected.value.message)


def test_writer_writes_values_at_the_edges_of_their_ranges(tmp_path):
    doc = pointer_table_doc()
    lane = doc["frames"][1]["lanes"][1]
    below = float(np.nextafter(laneio.COORD_LIMIT, 0.0))
    lane["points"][0][0], lane["points"][3][2] = below, -below
    lane["visibility"] = [0.0, 1.0, 0.0, 1.0]
    path = tmp_path / "lanes.json"
    write_lane_file(path, frames_of(doc))
    assert json.loads(path.read_text()) == doc


def test_values_at_the_edges_of_their_ranges_are_read(tmp_path):
    path = tmp_path / "lanes.json"
    doc = pointer_table_doc()
    below = float(np.nextafter(laneio.COORD_LIMIT, 0.0))
    lane = doc["frames"][1]["lanes"][1]
    lane["points"][0][0], lane["points"][3][2] = below, -below
    lane["visibility"] = [0, 1, 0.0, 1.0]
    path.write_text(json.dumps(doc))
    read = read_lane_file(path)[1].lanes[1]
    assert (read.x[0], read.z[3]) == (below, -below)
    np.testing.assert_array_equal(read.visibility, [0, 1, 0, 1])


def test_lanes_of_different_lengths_keep_their_own_points(tmp_path):
    path = tmp_path / "lanes.json"
    doc = pointer_table_doc()
    doc["frames"][1]["lanes"][1]["class_probs"] = None
    doc["frames"][1]["lanes"][2]["visibility"] = [1, 0.5, 0]
    path.write_text(json.dumps(doc))
    frames = read_lane_file(path)
    for frame, fd in zip(frames, doc["frames"], strict=True):
        for lane, ld in zip(frame.lanes, fd["lanes"], strict=True):
            np.testing.assert_array_equal(lane.points, ld["points"])
            np.testing.assert_array_equal(lane.visibility, ld["visibility"])
            if ld["class_probs"] is None:
                assert lane.class_probs is None
            else:
                np.testing.assert_array_equal(lane.class_probs, ld["class_probs"])


def test_non_monotone_y_in_a_later_lane_reports_that_lane(tmp_path):
    path = tmp_path / "lanes.json"
    doc = pointer_table_doc()
    doc["frames"][1]["lanes"][2]["points"][2][1] = 9.0  # equals the point before it
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError) as exc:
        read_lane_file(path)
    assert exc.value.location == "/frames/1/lanes/2/points"
    assert "increasing" in exc.value.message


def _frame_with_camera(camera) -> dict:
    lane = {"category": 0, "points": [[0, 5, 0], [0, 6, 0]], "visibility": [1, 1]}
    return {"frames": [{"id": "0", "camera": camera, "lanes": [lane]}]}


def test_camera_without_t_gl_has_no_lidar(tmp_path):
    path = tmp_path / "lanes.json"
    camera = {"K": unit_rig(8).K.tolist(), "T_gc": unit_rig(8).T_gc.tolist(),
              "image_size": [360, 480], "feature_size": [45, 60]}
    path.write_text(json.dumps(_frame_with_camera(camera)))
    rig = read_lane_file(path)[0].camera
    assert rig.T_gl is None and rig.feature_size == (45, 60)
    np.testing.assert_array_equal(rig.K, unit_rig(8).K)


@pytest.mark.parametrize("edit, pointer, message", [
    (lambda c: c.update(focal=100.0), "/frames/0/camera/focal", "unknown field"),
    (lambda c: c.pop("K"), "/frames/0/camera/K", "missing field"),
    (lambda c: c.update(image_size=[360]), "/frames/0/camera/image_size", "not enough values"),
    (lambda c: c["T_gc"][1].__setitem__(3, None), "/frames/0/camera/T_gc/1/3", "non-finite"),
    (lambda c: c["K"][2].__setitem__(2, 2.0), "/frames/0/camera", "pinhole"),
    (lambda c: c["T_gc"][1].__setitem__(3, 1e307), "/frames/0/camera",
     "K @ T_gc holds a non-finite value"),
    (lambda c: c.update(T_gl=[[1.0]]), "/frames/0/camera", "T_gl must be 3x4"),
    (lambda c: c["K"][0].__setitem__(2, "240.0"), "/frames/0/camera/K/0/2",
     "expected a number, got a string"),
])
def test_bad_camera_reports_its_pointer(tmp_path, edit, pointer, message):
    path = tmp_path / "lanes.json"
    camera = json.loads(json.dumps(to_json(unit_rig(8))))
    edit(camera)
    path.write_text(json.dumps(_frame_with_camera(camera)))
    with pytest.raises(FileFormatError) as exc:
        read_lane_file(path)
    assert exc.value.location == pointer and message in exc.value.message


def test_camera_that_is_not_an_object_reports_its_pointer(tmp_path):
    path = tmp_path / "lanes.json"
    path.write_text(json.dumps(_frame_with_camera([1, 2])))
    with pytest.raises(FileFormatError) as exc:
        read_lane_file(path)
    assert (exc.value.location, exc.value.message) == ("/frames/0/camera", "expected an object")


@pytest.mark.parametrize("vis", [1, [[1, 1]]])
def test_visibility_that_is_not_a_vector_reports_its_pointer(tmp_path, vis):
    path = tmp_path / "lanes.json"
    doc = {"frames": [{"id": "0", "camera": None,
                       "lanes": [{"category": 1, "points": [[0, 1, 0], [0, 2, 0]],
                                  "visibility": vis}]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError) as exc:
        read_lane_file(path)
    assert exc.value.location == "/frames/0/lanes/0/visibility"


def one_lane_doc(**lane_edits) -> dict:
    lane = {"category": 1, "points": [[0, 5, 0], [0, 6, 0]], "visibility": [1, 1],
            **lane_edits}
    return {"frames": [{"id": "0", "camera": None, "lanes": [lane]}]}


@pytest.mark.parametrize("doc, pointer, message", [
    ({"frames": [3]}, "/frames/0", "expected an object"),
    ({"frames": 3}, "/frames", "expected an array"),
    ({"frames": [], "version": 2}, "/version", "unknown field"),
    ([], "/", "expected an object"),
    ({"frame": []}, "/frame", "unknown field"),
    ({}, "/frames", "missing field"),
    ({"frames": [{"id": "0", "camera": None, "lanes": [], "tags": "curve"}]},
     "/frames/0/tags", "expected an array"),
    ({"frames": [{"id": "0", "camera": None, "lane": []}]}, "/frames/0/lane", "unknown field"),
    ({"frames": [{"id": "0", "camera": None, "lanes": 1}]}, "/frames/0/lanes", "expected an array"),
    ({"frames": [{"id": "0", "lanes": []}]}, "/frames/0/camera", "missing field"),
    (one_lane_doc(scroe=0.5), "/frames/0/lanes/0/scroe", "unknown field"),
    (one_lane_doc(category=2.5), "/frames/0/lanes/0/category", "expected an integer"),
    (one_lane_doc(category=True), "/frames/0/lanes/0/category", "expected an integer"),
    (one_lane_doc(points=[[0, 6, 0], [0, 5, 0]]), "/frames/0/lanes/0/points", "increasing"),
    (one_lane_doc(points=[[0, 5], [0, 6]]), "/frames/0/lanes/0/points", "[x, y, z] triples"),
    ({"frames": [{"id": None, "camera": None, "lanes": []}]}, "/frames/0/id",
     "expected a string, got null"),
    ({"frames": [{"id": 3, "camera": None, "lanes": []}]}, "/frames/0/id",
     "expected a string, got a number"),
    ({"frames": [{"id": "0", "camera": None, "lanes": [], "tags": [1]}]}, "/frames/0/tags/0",
     "expected a string, got a number"),
    ({"frames": [{"id": "0", "camera": None, "lanes": []}] * 2}, "/frames/1/id",
     "frame id '0' repeats /frames/0/id"),
    (one_lane_doc(points=[["1.0", 5, 0], [0, 6, 0]]), "/frames/0/lanes/0/points/0/0",
     "expected a number, got a string"),
    (one_lane_doc(visibility=[1, "1"]), "/frames/0/lanes/0/visibility/1",
     "expected a number, got a string"),
    (one_lane_doc(class_probs=[0.5, None, "0.5"]), "/frames/0/lanes/0/class_probs/2",
     "expected a number, got a string"),
    (one_lane_doc(score=int("1" + "0" * 400)), "/frames/0/lanes/0/score",
     "too large to convert to float"),
    (one_lane_doc(points=[[0, 5, int("1" + "0" * 400)], [0, 6, 0]]), "/frames/0/lanes/0/points",
     "too large to convert to float"),
    (one_lane_doc(category="3"), "/frames/0/lanes/0/category", 'expected an integer, got "3"'),
    (one_lane_doc(category=" 4 "), "/frames/0/lanes/0/category",
     'expected an integer, got " 4 "'),
    (one_lane_doc(score="0.9"), "/frames/0/lanes/0/score", 'expected a number, got "0.9"'),
    (one_lane_doc(score=True), "/frames/0/lanes/0/score", "expected a number, got true"),
    ({"frames": [{"id": "0", "camera": {**to_json(unit_rig()), "image_size": ["360", 480]},
                  "lanes": []}]},
     "/frames/0/camera/image_size/0", 'expected an integer, got "360"'),
    (one_lane_doc(points=[[0, 5, 0], [0, 6]]), "/frames/0/lanes/0/points", "inhomogeneous shape"),
    (one_lane_doc(points=[[0, 5, 0], 6]), "/frames/0/lanes/0/points", "inhomogeneous shape"),
    (one_lane_doc(visibility=[[1], [1, 1]]), "/frames/0/lanes/0/visibility",
     "inhomogeneous shape"),
])
def test_malformed_document_reports_its_pointer(tmp_path, doc, pointer, message):
    path = tmp_path / "lanes.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError) as exc:
        read_lane_file(path)
    assert exc.value.location == pointer and message in exc.value.message


def test_optional_keys_take_their_defaults(tmp_path):
    path = tmp_path / "lanes.json"
    path.write_text(json.dumps(one_lane_doc(category=2.0)))
    (frame,) = read_lane_file(path)
    lane = frame.lanes[0]
    assert frame.tags == () and (lane.score, lane.class_probs) == (None, None)
    assert lane.category == 2 and type(lane.category) is int


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("doc, error", [
    (pointer_table_doc(), None),
    (one_lane_doc(visibility=[1, None]), "/frames/0/lanes/0/visibility/1"),
], ids=["valid", "invalid"])
def test_read_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled, doc, error):
    path = tmp_path / "lanes.json"
    path.write_text(json.dumps(doc))
    parsed_with = []

    def read_json(p):
        parsed_with.append(gc.isenabled())
        return jsonable.read_json(p)

    monkeypatch.setattr(laneio, "read_json", read_json)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            read_lane_file(path)
        else:
            with pytest.raises(FileFormatError) as exc:
                read_lane_file(path)
            assert exc.value.location == error
        assert (parsed_with, gc.isenabled()) == ([False], enabled)
    finally:
        (gc.enable if was else gc.disable)()


# --- streaming and memory -------------------------------------------------------


def whole_document_text(frames: list[Frame]) -> str:
    """The lane file text as the writer built it before it streamed frames:
    the whole document in memory, then one ``dumps``."""
    def lane_doc(lane):
        fields = {"points": lane.points, "visibility": lane.visibility,
                  "score": lane.score, "class_probs": lane.class_probs}
        return {"category": int(lane.category),
                **{key: np.asarray(value, dtype=np.float64).tolist()
                   for key, value in fields.items() if value is not None}}

    return dumps({"frames": [{"id": f.id, "camera": to_json(f.camera),
                              "lanes": [lane_doc(lane) for lane in f.lanes],
                              **({"tags": list(f.tags)} if f.tags else {})}
                             for f in frames]}) + "\n"


# Text the encoder must escape: non-ASCII, a line separator, a quote, a backslash, a newline.
ESCAPED = ["\u00e9", "\u2028", "\U0001f600", '"\\\n']
LIDAR_RIG = CameraRig(**{**to_json(unit_rig()), "T_gl": unit_rig().T_gc})


@st.composite
def writable_frames(draw) -> list[Frame]:
    """Up to 3 frames of up to 3 lanes: ids and tags with non-ASCII text, no
    rig or a camera with or without a LiDAR, and lanes with and without
    ``score`` and ``class_probs``."""
    text = st.text(max_size=4) | st.sampled_from(ESCAPED)
    coord, unit = st.floats(-1e149, 1e149), st.floats(0.0, 1.0)
    frames = []
    for frame_id in draw(st.lists(text, max_size=3, unique=True)):
        lanes = []
        for _ in range(draw(st.integers(0, 3))):
            n = draw(st.integers(1, 5))
            lanes.append(Lane3D(
                x=draw(st.lists(coord, min_size=n, max_size=n)),
                y=draw(st.floats(-1e3, 1e3)) + np.arange(n),
                z=draw(st.lists(coord, min_size=n, max_size=n)),
                visibility=draw(st.lists(unit, min_size=n, max_size=n)),
                category=draw(st.integers(0, 20)), score=draw(st.none() | unit),
                class_probs=draw(st.none() | st.lists(unit, min_size=1, max_size=4))))
        camera = draw(st.sampled_from([None, unit_rig(), LIDAR_RIG]))
        frames.append(Frame(id=frame_id, camera=camera, lanes=lanes,
                            tags=tuple(draw(st.lists(text, max_size=2)))))
    return frames


@seed(22)
@settings(max_examples=150, deadline=None)
@given(writable_frames())
@example([])
@example([Frame(id="\u00e9\U0001f600", camera=None, lanes=[], tags=("\u2028",))])
def test_streamed_file_is_the_whole_document_encoding(tmp_path_factory, frames):
    path = tmp_path_factory.mktemp("stream") / "lanes.json"
    write_lane_file(path, frames)
    assert path.read_bytes() == whole_document_text(frames).encode("ascii")


def reference_decode_arrays(docs: list, source, where) -> list[np.ndarray]:
    """The column decode as it was before lane arrays were built while parsing:
    every doc chained along its first axis and converted at once, or, when
    that fails, each doc decoded alone."""
    if all(type(doc) is list and doc for doc in docs):
        ends = list(itertools.accumulate(map(len, docs)))
        try:
            value = from_json(np.ndarray, list(itertools.chain.from_iterable(docs)), source, "")
        except FileFormatError:
            pass
        else:
            return [value[start:end] for start, end in zip([0, *ends], ends)]
    return [from_json(np.ndarray, doc, source, where(i)) for i, doc in enumerate(docs)]


ARRAY_FIELDS = {"points": 3, "visibility": None, "class_probs": None}


@st.composite
def lane_array_documents(draw) -> dict:
    """A lane file whose lanes' array fields are built from ``array_items``:
    mostly clean, now and then holding a string, a ``null``, an object, a
    non-finite or a large number, a ragged row or a scalar."""
    def field(width):
        clean = draw(st.booleans())
        item = st.floats(-1e3, 1e3) if clean else array_items
        row = item if width is None else st.lists(item, min_size=width, max_size=width)
        if not clean:
            row = row | st.lists(item, max_size=4)
        doc = draw(st.lists(row, max_size=4))
        return doc if clean or draw(st.booleans()) else draw(st.sampled_from([5, None, [[]]]))

    return {"frames": [{"id": str(i), "camera": None,
                        "lanes": [{"category": 0, **{name: field(width)
                                                     for name, width in ARRAY_FIELDS.items()}}
                                  for _ in range(n)]}
                       for i, n in enumerate(draw(st.lists(st.integers(0, 3), min_size=1,
                                                           max_size=3)))]}


def _one_lane(**fields) -> dict:
    return {"frames": [{"id": "0", "camera": None,
                        "lanes": [{"category": 0, "points": [[0, 5, 0]], "visibility": [1],
                                   "class_probs": [1], **fields}]}]}


@seed(2222)
@settings(max_examples=300, deadline=None)
@given(lane_array_documents())
@example(_one_lane(points=[[0, 5, 0], [0, 6]]))
@example(_one_lane(points=[[0, 5, 0], 6]))
@example(_one_lane(visibility=[[1], [1, 1]]))
@example(_one_lane(points=[[2**63, 5, -1]], visibility=[2**64], class_probs=[-2**63 - 1]))
@example(_one_lane(points=[[0, 5, int("1" + "0" * 400)]]))
@example(_one_lane(visibility=[True, 0], class_probs=[[["1.0"]]]))
def test_arrays_built_while_parsing_decode_as_the_column_decode_did(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("arrays") / "lanes.json"
    path.write_text(json.dumps(doc))
    parsed, plain = laneio.read_json(path), json.loads(path.read_text())
    for name in ARRAY_FIELDS:
        def where(k):
            return f"/lanes/{k}/{name}"

        def column(doc):
            return [lane[name] for frame in doc["frames"] for lane in frame["lanes"]]

        assert _outcome(lambda: decode_arrays(column(parsed), path, where)) == _outcome(
            lambda: reference_decode_arrays(column(plain), path, where))


def corpus_frames() -> list[Frame]:
    """20 frames of 30 proposals with 20 points and 15 class probabilities
    each: 600 lanes, as a stored prediction corpus holds them."""
    rng = np.random.default_rng(22)
    y = np.linspace(3.0, 103.0, 20)
    return [Frame(id=str(i), camera=unit_rig(), lanes=[
        Lane3D(x=rng.normal(scale=5.0, size=20), y=y, z=rng.normal(scale=0.5, size=20),
               visibility=(rng.random(20) < 0.8).astype(float), category=int(rng.integers(14)),
               score=float(rng.random()), class_probs=rng.dirichlet(np.ones(15)))
        for _ in range(30)]) for i in range(20)]


def traced_peak(run) -> int:
    """The peak of Python allocations made while ``run()`` runs, its result held."""
    tracemalloc.start()
    try:
        result = run()  # noqa: F841 - held so that the peak counts what it returns
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_holds_one_frame_not_the_file(tmp_path):
    frames = corpus_frames()
    path = tmp_path / "lanes.json"
    write_lane_file(path, frames)
    peak = traced_peak(lambda: write_lane_file(path, frames))
    assert peak <= 0.8 * path.stat().st_size


def test_reader_holds_arrays_not_one_list_per_point(tmp_path):
    path = tmp_path / "lanes.json"
    write_lane_file(path, corpus_frames())
    read_lane_file(path)
    peak = traced_peak(lambda: read_lane_file(path))
    assert peak <= 2.3 * path.stat().st_size


@pytest.mark.parametrize("pointer, bad", [
    ("/frames/0/lanes/1/points/1/0", float("nan")),
    ("/frames/1/lanes/1/visibility/3", 7.0),
    ("/frames/0/lanes/1/class_probs/1", float("inf")),
    ("/frames/1/id", "0"),
])
def test_a_refused_write_leaves_the_file_there_as_it_was(tmp_path, pointer, bad):
    path = tmp_path / "lanes.json"
    write_lane_file(path, frames_of(pointer_table_doc()))
    before = path.read_bytes()
    with pytest.raises(FileFormatError) as refused:
        write_lane_file(path, frames_of(rig_table_doc_with(pointer, bad)))
    assert refused.value.location == pointer
    assert path.read_bytes() == before
