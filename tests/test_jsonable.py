import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lane3d_kit.anchors import MetaRanges
from lane3d_kit.config import DatasetProfile, RunConfig
from lane3d_kit.errors import FileFormatError
from lane3d_kit.evaluation import EvalConfigOL, EvalConfigONCE, ThresholdCounts
from lane3d_kit.geometry import CameraRig
from lane3d_kit.gradcheck import GradCheckResult
from lane3d_kit.head import StagePlan
from lane3d_kit.jsonable import decode_arrays, dumps, from_json, to_json
from lane3d_kit.lanes import Lane3D
from lane3d_kit.laneio import Frame, read_lane_file, write_lane_file
from lane3d_kit.losses import LossConfig

from conftest import random_rig, unit_rig

GOLDEN = Path(__file__).parent / "data" / "golden"


def decode_error(cls, doc) -> FileFormatError:
    with pytest.raises(FileFormatError) as exc:
        from_json(cls, doc, "<doc>")
    return exc.value


# --- encoding ----------------------------------------------------------------


@pytest.mark.parametrize("profile", ["openlane", "once", "apollosim"])
def test_default_config_matches_golden(profile):
    text = json.dumps(to_json(RunConfig.default(profile)), indent=1) + "\n"
    assert text == (GOLDEN / f"config_{profile}.json").read_text()


def test_derived_fields_are_written():
    assert to_json(ThresholdCounts(0.5, 3, 1, 1)) == {
        "threshold": 0.5, "tp": 3, "fp": 1, "fn": 1,
        "precision": 0.75, "recall": 0.75, "f1": 0.75,
    }
    assert to_json(GradCheckResult(trials=2, max_rel_error=1.0, tolerance=1e-5)) == {
        "trials": 2, "max_rel_error": 1.0, "tolerance": 1e-5, "passed": False,
    }


def test_single_field_dataclass_is_its_value():
    plan = StagePlan(((5, "a"), (3, "b")))
    assert to_json(plan) == [[5, "a"], [3, "b"]]
    assert from_json(StagePlan, [[5, "a"], [3, "b"]], "<doc>") == plan


# Scalars the encoder must spell as json.dumps does, edge cases drawn often.
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200), st.floats(),
    st.text(), st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, float("nan"), float("inf"),
                                float("-inf"), 10**30, "\u00e9\u2028\U0001f600", '"\\\n\t\x00']),
)
# Lists that take the encoder's float paths, or only just miss them.
near_float = st.floats() | st.sampled_from([0, 1, True, None, "1.0", [], [1.0]])
float_rows = st.integers(0, 4).flatmap(
    lambda width: st.lists(st.lists(st.floats(), min_size=width, max_size=width)
                           | st.lists(near_float, min_size=width, max_size=width)
                           | st.tuples(*[st.floats()] * width), max_size=5))
json_values = st.recursive(
    json_scalars | st.lists(st.floats()) | st.lists(near_float) | float_rows,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4) | st.integers(-9, 9), inner, max_size=4)),
    max_leaves=24,
)


@seed(1689)
@settings(max_examples=400, deadline=None)
@given(json_values)
@example([[], {}, [[]], [{}], {"a": []}, {"b": {"c": []}}])
@example([-0.0, 5e-324, 1e16, 1.5])
@example([[1.0, 2.0], [3.0, float("nan")]])
@example([[1.0, 2.0], [3.0]])
@example([[1.0, 2.0], [3.0, 4]])
@example({"\u00e9\n": ["x\"y", True, None, 2**100], 1: float("-inf")})
def test_dumps_is_json_dumps_with_indent_1(value):
    assert dumps(value) == json.dumps(value, indent=1)


# --- decoding ----------------------------------------------------------------


def test_bool_accepts_only_true_and_false():
    assert from_json(bool, True, "<doc>") is True
    for doc in ("false", 0, 1, None):
        err = decode_error(bool, doc)
        assert err.location == "/" and "expected true or false" in err.message


def test_str_accepts_only_strings():
    assert from_json(str, "3", "<doc>") == "3"
    for doc, kind in ((None, "null"), (3, "a number"), (True, "true/false"), (["a"], "an array")):
        err = decode_error(str, doc)
        assert (err.location, err.message) == ("/", f"expected a string, got {kind}")
    assert decode_error(tuple[str, ...], ["a", 1]).location == "/1"


def test_optional_accepts_null():
    assert from_json(int | None, None, "<doc>") is None
    assert from_json(int | None, 4, "<doc>") == 4
    assert decode_error(int, None).location == "/"


@pytest.mark.parametrize("doc, message", [
    ([1], "not enough values (expected 2, got 1)"),
    ([1, 2, 3], "too many values (expected 2, got 3)"),
    (5, "expected an array, got a number: not iterable"),
    ("ab", "expected an array, got a string: not iterable"),
])
def test_fixed_tuple_checks_its_length(doc, message):
    err = decode_error(tuple[int, int], doc)
    assert (err.location, err.message) == ("/", message)


def test_items_are_decoded_and_located():
    assert from_json(tuple[int, ...], [1, 2.0], "<doc>") == (1, 2)
    err = decode_error(tuple[int, ...], [1, "x"])
    assert (err.location, err.message) == ("/1", 'expected an integer, got "x"')


def test_integral_numbers_are_ints_and_every_number_is_a_float():
    for cls, doc, want in ((int, 2.0, 2), (int, -3, -3), (int, 3.0, 3), (int, 1e1, 10),
                           (int, 2.0**53 - 1, 2**53 - 1), (int, 2**70, 2**70),
                           (float, 1, 1.0), (float, 2**70, 2.0**70)):
        value = from_json(cls, doc, "<doc>")
        assert (value, type(value)) == (want, cls)


@pytest.mark.parametrize("doc, text", [
    (1e200, "1e+200"), (-1e200, "-1e+200"), (2.0**53, "9007199254740992.0"),
])
def test_int_rejects_a_float_too_large_to_tell_integers_apart(doc, text):
    err = decode_error(tuple[int, ...], [1, doc])
    assert (err.location, err.message) == ("/1", f"expected an integer, got {text}")


def test_array_is_float64_and_finite():
    value = from_json(np.ndarray, [[1, 2], [3, 4]], "<doc>")
    assert value.dtype == np.float64 and value.shape == (2, 2)
    for bad in (float("nan"), float("inf"), None):
        err = decode_error(np.ndarray, [[1, 2], [3, bad]])
        assert (err.location, err.message) == ("/1/1", "non-finite value")
    assert decode_error(np.ndarray, [[1, 2], [3]]).location == "/"


@pytest.mark.parametrize("doc, pointer", [
    (["1.0", 2.0], "/0"),
    ([[1, 2], [3, "4"]], "/1/1"),
    ([[None, 2], ["x", 4]], "/1/0"),
    ("5", "/"),
])
def test_array_rejects_strings(doc, pointer):
    err = decode_error(np.ndarray, doc)
    assert (err.location, err.message) == (pointer, "expected a number, got a string")


def test_array_bools_and_integers_become_floats():
    value = from_json(np.ndarray, [[True, 2], [3, 2**63]], "<doc>")
    assert value.dtype == np.float64
    assert value.tolist() == [[1.0, 2.0], [3.0, float(2**63)]]


# Array items: finite numbers of every JSON kind, and now and then a value the codec rejects.
array_items = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**70, 2**70), st.booleans(),
    st.sampled_from([float("nan"), float("-inf"), None, "1.0", "x", [1.0], {}]),
)


@st.composite
def array_docs(draw):
    """Docs as they appear in lane files: mostly lists of rows of one width,
    sometimes other shapes, scalars or nulls."""
    width = draw(st.sampled_from([None, 1, 3]))
    clean = draw(st.booleans())
    item = st.floats(-1e3, 1e3) if clean else array_items
    row = item if width is None else st.lists(item, min_size=width, max_size=width)
    docs = draw(st.lists(st.lists(row, max_size=4), max_size=5))
    if not clean and draw(st.booleans()) and docs:
        docs[draw(st.integers(0, len(docs) - 1))] = draw(st.sampled_from([[], 5, None, [[1.0]]]))
    return docs


def _outcome(decode):
    try:
        return [(a.dtype.str, a.shape, a.tobytes()) for a in decode()]
    except FileFormatError as e:
        return (e.location, e.message)


@settings(max_examples=300, deadline=None)
@given(array_docs())
def test_decode_arrays_is_decoding_each_alone(docs):
    def where(i):
        return f"/lanes/{i}/points"

    chained = _outcome(lambda: decode_arrays(docs, "<doc>", where))
    alone = _outcome(lambda: [from_json(np.ndarray, d, "<doc>", where(i))
                              for i, d in enumerate(docs)])
    assert chained == alone


def test_float_must_be_finite():
    assert decode_error(float, float("nan")).message == "non-finite value"
    assert decode_error(float, float("inf")).message == "non-finite value"


def test_object_fields_are_all_required_and_known():
    doc = to_json(LossConfig())
    assert from_json(LossConfig, doc, "<doc>") == LossConfig()
    err = decode_error(LossConfig, {**doc, "lamda_ew": 0.1})
    assert (err.location, err.message) == ("/lamda_ew", "unknown field")
    del doc["tau"]
    err = decode_error(LossConfig, doc)
    assert (err.location, err.message) == ("/tau", "missing field")
    assert decode_error(LossConfig, [1.0]).message == "expected an object"


def test_construction_errors_are_located_at_their_object():
    doc = to_json(RunConfig.default("once"))
    doc["loss"]["tau"] = -1.0
    err = decode_error(RunConfig, doc)
    assert (err.location, err.message) == ("/loss", "tau must be > 0")
    rig = to_json(unit_rig())
    rig["K"][2][2] = 2.0
    err = decode_error(CameraRig, rig)
    assert err.location == "/" and "pinhole" in err.message


def test_derived_fields_are_not_read():
    doc = to_json(ThresholdCounts(0.5, 3, 1, 1))
    assert decode_error(ThresholdCounts, doc).location == "/precision"
    back = from_json(ThresholdCounts, {k: doc[k] for k in ("threshold", "tp", "fp", "fn")}, "x")
    assert back == ThresholdCounts(0.5, 3, 1, 1)


def test_unsupported_annotation_is_a_programming_error():
    @dataclass
    class Bag:
        items: dict
        count: int

    with pytest.raises(NotImplementedError):
        from_json(Bag, {"items": {}, "count": 1}, "<doc>")


# --- round trips ----------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
nonneg = st.floats(min_value=0.0, max_value=1e6)


@st.composite
def ranges(draw):
    lo = draw(finite)
    return lo, draw(st.floats(min_value=lo, max_value=2e6).filter(lambda hi: hi > lo))


@st.composite
def angle_ranges(draw):
    """Two distinct angles strictly inside (-pi/2, pi/2), in order: the meta
    ranges ``materialize`` can take the tangent of."""
    angle = st.floats(min_value=-math.pi / 2, max_value=math.pi / 2,
                      exclude_min=True, exclude_max=True)
    return tuple(sorted(draw(st.lists(angle, min_size=2, max_size=2, unique=True))))


@st.composite
def increasing(draw, min_size=2, max_size=8):
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=50.0),
                          min_size=min_size - 1, max_size=max_size - 1))
    return np.cumsum([draw(finite), *steps])


@st.composite
def run_configs(draw):
    xs_lo, xs_hi = draw(ranges())
    (phi_lo, phi_hi), (th_lo, th_hi) = draw(angle_ranges()), draw(angle_ranges())
    stride = draw(st.integers(1, 16))
    return RunConfig(
        profile=DatasetProfile(draw(st.text(max_size=8)), draw(increasing()),
                               draw(st.integers(1, 20))),
        meta_ranges=MetaRanges(xs_lo, xs_hi, phi_lo, phi_hi, th_lo, th_hi),
        loss=LossConfig(*(draw(nonneg) for _ in range(5)), tau=draw(positive)),
        eval_openlane=EvalConfigOL(
            tp_point_threshold=draw(positive),
            tp_fraction=draw(st.floats(min_value=1e-3, max_value=1.0)),
            near_range=draw(ranges()), far_range=draw(ranges()),
            y_eval_samples=draw(increasing()),
        ),
        eval_once=EvalConfigONCE(*(draw(positive) for _ in range(4))),
        plan=StagePlan(tuple(draw(st.lists(
            st.tuples(st.sampled_from((3, 4, 5)), st.text(max_size=6)), min_size=1, max_size=5,
        )))),
        fusion=draw(st.booleans()),
        num_anchors=draw(st.integers(1, 100)),
        feature_channels=draw(st.integers(1, 128)),
        lidar_channels=draw(st.integers(1, 16)),
        num_prototypes=tuple(draw(st.integers(1, 40)) for _ in range(3)),
        # At least one feature cell per axis.
        image_size=(draw(st.integers(max(8, stride), 1000)),
                    draw(st.integers(max(8, stride), 1000))),
        feature_stride=stride,
    )


@settings(max_examples=150, deadline=None)
@given(run_configs())
def test_run_config_round_trips_through_json(cfg):
    text = json.dumps(to_json(cfg))
    back = from_json(RunConfig, json.loads(text), "<config>")
    assert json.dumps(to_json(back)) == text
    assert isinstance(back.fusion, bool) and back.plan == cfg.plan
    np.testing.assert_array_equal(back.profile.y_samples, cfg.profile.y_samples)


@st.composite
def lane_frames(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = []
    for i in range(draw(st.integers(1, 3))):
        lanes = []
        for _ in range(draw(st.integers(0, 3))):
            n = draw(st.integers(1, 6))
            probs = rng.dirichlet(np.ones(3)) if draw(st.booleans()) else None
            lanes.append(Lane3D(
                x=rng.normal(size=n), y=np.cumsum(rng.uniform(0.5, 5.0, size=n)),
                z=rng.normal(size=n), visibility=rng.uniform(size=n).round(),
                category=int(rng.integers(0, 3)),
                score=None if probs is None else float(probs[:-1].max()), class_probs=probs,
            ))
        camera = draw(st.sampled_from(("none", "rig", "lidar")))
        rig = None if camera == "none" else random_rig(rng, with_lidar=camera == "lidar")
        tags = tuple(draw(st.lists(st.text(max_size=5), max_size=2)))
        frames.append(Frame(id=str(i), camera=rig, lanes=lanes, tags=tags))
    return frames


@settings(max_examples=60, deadline=None)
@given(lane_frames())
def test_lane_file_with_rigs_round_trips(tmp_path_factory, frames):
    work = tmp_path_factory.mktemp("lanes")
    write_lane_file(work / "a.json", frames)
    back = read_lane_file(work / "a.json")
    write_lane_file(work / "b.json", back)
    assert (work / "a.json").read_bytes() == (work / "b.json").read_bytes()
    for f, b in zip(frames, back, strict=True):
        assert (b.id, b.tags) == (f.id, f.tags)
        assert (b.camera is None) == (f.camera is None)
        if f.camera is not None:
            for name in ("K", "T_gc"):
                np.testing.assert_array_equal(getattr(b.camera, name), getattr(f.camera, name))
            assert (b.camera.T_gl is None) == (f.camera.T_gl is None)
            assert (b.camera.image_size, b.camera.feature_size) == (
                f.camera.image_size, f.camera.feature_size)
        for lane, orig in zip(b.lanes, f.lanes, strict=True):
            for name in ("x", "y", "z", "visibility"):
                assert_bitwise_equal(getattr(lane, name), getattr(orig, name))
            assert (lane.class_probs is None) == (orig.class_probs is None)
            if orig.class_probs is not None:
                assert_bitwise_equal(lane.class_probs, orig.class_probs)
            assert (lane.category, lane.score) == (orig.category, orig.score)


def assert_bitwise_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
