import contextlib
import functools
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lane3d_kit import cli
from lane3d_kit.anchors import CoefficientHeadWeights, PrototypeBank
from lane3d_kit.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main
from lane3d_kit.config import RunConfig, make_profile
from lane3d_kit.gradcheck import GradCheckResult
from lane3d_kit.head import HeadWeights, StagePlan
from lane3d_kit.jsonable import to_json
from lane3d_kit.laneio import read_lane_file
from lane3d_kit.tensorio import read_tensors, write_tensors

from conftest import unit_rig
from test_laneio import one_lane_doc

GOLDEN = Path(__file__).parent / "data" / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


# The table ``evaluate --protocol openlane`` prints after the report on the golden pair.
OPENLANE_TABLE = ("     F1    CAcc    Ex/N    Ex/F    Ez/N    Ez/F      AP\n"
                  "  60.19   90.32   0.288   0.250   0.068   0.046   43.75\n")


def test_evaluate_openlane_writes_the_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "evaluate", "--protocol", "openlane",
                         "--gt", GOLDEN / "openlane_gt.json",
                         "--pred", GOLDEN / "openlane_pred.json", "--out", out_path)
    assert code == EXIT_OK and err == ""
    # The library's openlane_report.json with the empty frames named by id.
    want = (GOLDEN / "openlane_cli_report.json").read_text()
    assert out_path.read_text() == want
    assert out == want + OPENLANE_TABLE


def test_evaluate_once_writes_the_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "evaluate", "--protocol", "once",
                         "--gt", GOLDEN / "once_gt.json",
                         "--pred", GOLDEN / "once_pred.json", "--out", out_path)
    assert code == EXIT_OK and err == ""
    assert out_path.read_text() == (GOLDEN / "once_report.json").read_text()
    assert out == out_path.read_text()


@pytest.mark.parametrize("protocol", ["openlane", "once"])
def test_evaluate_rejects_a_nan_lane_with_its_location(capsys, tmp_path, protocol):
    doc = json.loads((GOLDEN / f"{protocol}_pred.json").read_text())
    doc["frames"][3]["lanes"][1]["points"][0][0] = float("nan")
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(doc))
    code, out, err = run(capsys, "evaluate", "--protocol", protocol,
                         "--gt", GOLDEN / f"{protocol}_gt.json", "--pred", pred)
    assert code == EXIT_INPUT and out == ""
    assert "/frames/3/lanes/1/points/0/0" in err and "non-finite" in err
    assert "Traceback" not in err


# --- the whole chain on a tiny scene ---------------------------------------------

CHAIN = GOLDEN / "chain"
CHAIN_FILES = ("scene/gt.json", "scene/features.a3t", "anchors.json", "preds.json", "trace.json",
               "loss.json", "grad_check.json")

# Three lanes on the ONCE profile (10 points) in a 96x128 image with LiDAR
# volumes, so one forward pass runs bilinear and trilinear sampling and fuse.
CHAIN_SPEC = {
    "profile": "once", "n_lanes": 3, "curvature": [0.0, 0.01], "slope": [0.0, 0.004],
    "focal": 90.0, "image_size": [96, 128], "feature_stride": 8, "seed": 3,
    "feature_channels": 2, "lidar": True, "lidar_channels": 2,
}


def chain_config() -> dict:
    cfg = RunConfig(
        profile=make_profile("once"), plan=StagePlan(((5, "s1"), (4, "s2"), (3, "s1"))),
        fusion=True, num_anchors=6, feature_channels=2, lidar_channels=2,
        num_prototypes=(6, 5, 3), image_size=(96, 128), feature_stride=8,
    )
    return to_json(cfg)


def call(*argv) -> tuple[int, str, str]:
    """Run one CLI command in-process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def chain_steps(work: Path) -> dict[str, tuple]:
    """The command lines of the chain in ``work``, by command, in run order:
    gen-scene -> gen-weights -> anchors -> forward --trace -> loss -> grad-check."""
    (work / "spec.json").write_text(json.dumps(CHAIN_SPEC))
    config = work / "config.json"
    config.write_text(json.dumps(chain_config()))
    scene, weights = work / "scene", work / "weights.a3t"
    return {
        "gen-scene": ("gen-scene", "--spec", work / "spec.json", "--out", scene),
        "gen-weights": ("gen-weights", "--config", config, "--seed", 1, "--out", weights),
        "anchors": ("anchors", "--config", config, "--features", scene / "features.a3t",
                    "--weights", weights, "--out", work / "anchors.json"),
        "forward": ("forward", "--config", config, "--scene", scene, "--weights", weights,
                    "--out", work / "preds.json", "--trace", work / "trace.json"),
        "loss": ("loss", "--config", config, "--gt", scene / "gt.json",
                 "--pred", work / "preds.json"),
        "grad-check": ("grad-check", "--config", config, "--trials", 5, "--seed", 0),
    }


def run_chain(work: Path) -> dict[str, tuple[int, str, str]]:
    """The chain run in ``work``; loss and grad-check write their stdout to files."""
    results = {name: call(*argv) for name, argv in chain_steps(work).items()}
    (work / "loss.json").write_text(results["loss"][1])
    (work / "grad_check.json").write_text(results["grad-check"][1])
    return results


def test_chain_outputs_match_golden(tmp_path):
    results = run_chain(tmp_path)
    for name, (code, _, err) in results.items():
        assert code == EXIT_OK, (name, err)
        assert err == "", name
    for name in CHAIN_FILES:
        assert (tmp_path / name).read_bytes() == (CHAIN / name).read_bytes(), name


# Runs CLI commands in order in a fresh interpreter in which importing scipy
# fails, and prints per command one JSON line [exit code, stdout, stderr], then
# the scipy modules loaded by the end (none, unless something got around the block).
_NO_SCIPY_PROBE = """
import contextlib, io, json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} is blocked")

sys.meta_path.insert(0, BlockScipy())
from lane3d_kit.cli import main
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def test_every_command_runs_without_scipy(tmp_path):
    steps = chain_steps(tmp_path)
    for protocol in ("openlane", "once"):
        steps[f"evaluate-{protocol}"] = (
            "evaluate", "--protocol", protocol, "--gt", GOLDEN / f"{protocol}_gt.json",
            "--pred", GOLDEN / f"{protocol}_pred.json", "--out", tmp_path / f"{protocol}.json")
    argvs = [[str(a) for a in argv] for argv in steps.values()]
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    *lines, loaded = [json.loads(line) for line in done.stdout.splitlines()]
    results = dict(zip(steps, lines, strict=True))
    for name, (code, _, err) in results.items():
        assert (code, err) == (EXIT_OK, ""), name
    assert loaded == []
    (tmp_path / "loss.json").write_text(results["loss"][1])
    (tmp_path / "grad_check.json").write_text(results["grad-check"][1])
    for name in CHAIN_FILES:
        assert (tmp_path / name).read_bytes() == (CHAIN / name).read_bytes(), name
    openlane = (GOLDEN / "openlane_cli_report.json").read_text()
    assert (tmp_path / "openlane.json").read_text() == openlane
    assert results["evaluate-openlane"][1] == openlane + OPENLANE_TABLE
    once = (GOLDEN / "once_report.json").read_text()
    assert (tmp_path / "once.json").read_text() == results["evaluate-once"][1] == once


def _bad_config(tmp_path, edit) -> Path:
    doc = chain_config()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("edit, pointer, message", [
    (lambda d: d["loss"].update(lamda_ew=0.1), "/loss/lamda_ew", "unknown field"),
    (lambda d: d.update(fusoin=True), "/fusoin", "unknown field"),
    (lambda d: d.update(literal_meta_scale=False), "/literal_meta_scale", "unknown field"),
    (lambda d: d["profile"].update(num_points=10), "/profile/num_points", "unknown field"),
    (lambda d: d.update(loss=3), "/loss", "expected an object"),
    (lambda d: d.update(eval_once=[0.3]), "/eval_once", "expected an object"),
    (lambda d: d.pop("plan"), "/plan", "missing field"),
    (lambda d: d["eval_openlane"].pop("tp_fraction"), "/eval_openlane/tp_fraction",
     "missing field"),
    (lambda d: d["loss"].update(tau=-1.0), "/loss", "tau must be > 0"),
    (lambda d: d["meta_ranges"].update(xs_min=None), "/meta_ranges/xs_min", "float()"),
    (lambda d: d.update(num_prototypes=5), "/num_prototypes", "not iterable"),
    (lambda d: d.update(plan=[[5]]), "/plan/0", "not enough values"),
    pytest.param(lambda d: d.update(num_anchors="thirty"), "/num_anchors",
                 'expected an integer, got "thirty"', id="/num_anchors-a word, not a number"),
    (lambda d: d.update(num_anchors="30"), "/num_anchors", 'expected an integer, got "30"'),
    (lambda d: d["loss"].update(tau="0.1"), "/loss/tau", 'expected a number, got "0.1"'),
    (lambda d: d["loss"].update(tau=True), "/loss/tau", "expected a number, got true"),
    (lambda d: d.update(num_anchors=30.9), "/num_anchors", "expected an integer, got 30.9"),
    (lambda d: d.update(feature_stride=True), "/feature_stride", "expected an integer, got true"),
    (lambda d: d.update(fusion="false"), "/fusion", "expected true or false"),
    (lambda d: d.update(image_size=[96]), "/image_size", "not enough values"),
    (lambda d: d.update(image_size=[96, 128, 3]), "/image_size", "too many values"),
    (lambda d: d.update(num_prototypes=[5]), "/num_prototypes", "not enough values"),
    (lambda d: d["meta_ranges"].pop("theta_max"), "/meta_ranges/theta_max", "missing field"),
    (lambda d: d["loss"].pop("lambda_ew"), "/loss/lambda_ew", "missing field"),
    (lambda d: d["eval_once"].pop("grid_cell"), "/eval_once/grid_cell", "missing field"),
    (lambda d: d.update(feature_stride=0), "/", "feature_stride must be >= 1, got 0"),
    (lambda d: d.update(num_anchors=0), "/", "num_anchors must be >= 1, got 0"),
    (lambda d: d.update(num_anchors=-2), "/", "num_anchors must be >= 1, got -2"),
    (lambda d: d.update(feature_channels=0), "/", "feature_channels must be >= 1, got 0"),
    (lambda d: d.update(lidar_channels=0), "/", "lidar_channels must be >= 1, got 0"),
    (lambda d: d.update(num_prototypes=[6, 0, 3]), "/", "num_prototypes[1] must be >= 1, got 0"),
    (lambda d: d.update(feature_stride=200), "/",
     "image_size[0] // feature_stride must be >= 1, got 0"),
    (lambda d: d["profile"]["y_samples"].__setitem__(3, str(d["profile"]["y_samples"][3])),
     "/profile/y_samples/3", "expected a number, got a string"),
])
def test_bad_config_exits_2_with_its_pointer(tmp_path, edit, pointer, message):
    config = _bad_config(tmp_path, edit)
    code, out, err = call("grad-check", "--config", config, "--trials", 1)
    assert code == EXIT_INPUT and out == ""
    assert f"{config}: at {pointer}: " in err and message in err
    assert "Traceback" not in err


def test_lidar_channels_are_free_without_fusion(tmp_path):
    config = _bad_config(tmp_path, lambda d: d.update(fusion=False, lidar_channels=0))
    code, _, err = call("gen-weights", "--config", config, "--out", tmp_path / "w.a3t")
    assert (code, err) == (EXIT_OK, "")


def test_config_that_is_not_an_object_exits_2(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text("[]")
    code, _, err = call("gen-weights", "--config", config, "--out", tmp_path / "w.a3t")
    assert code == EXIT_INPUT and f"{config}: at /: expected an object" in err


def _with_feature_size(doc, feature_size):
    """``doc`` with a camera whose feature grid is ``feature_size``."""
    doc["frames"][0]["camera"] = {**to_json(unit_rig()), "feature_size": feature_size}
    return doc


@pytest.mark.parametrize("doc, pointer, message", [
    ({"frames": [3]}, "/frames/0", "expected an object"),
    ({"frames": 3}, "/frames", "expected an array"),
    (one_lane_doc(scroe=0.5), "/frames/0/lanes/0/scroe", "unknown field"),
    ({"frames": [{"id": "0", "camera": None, "lanes": [], "tags": "curve"}]},
     "/frames/0/tags", "expected an array"),
    ({"frames": [], "frame": []}, "/frame", "unknown field"),
    (one_lane_doc(category=2.5), "/frames/0/lanes/0/category", "expected an integer"),
    (_with_feature_size(one_lane_doc(), [0, 60]), "/frames/0/camera",
     "feature size (0, 60) must be positive"),
])
def test_bad_lane_file_exits_2_with_its_pointer(tmp_path, doc, pointer, message):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(doc))
    code, out, err = call("evaluate", "--protocol", "openlane",
                          "--gt", GOLDEN / "openlane_gt.json", "--pred", pred)
    assert code == EXIT_INPUT and out == ""
    assert f"{pred}: at {pointer}: " in err and message in err
    assert "Traceback" not in err


def test_loss_leaves_out_gt_lanes_with_no_visible_point(tmp_path):
    spec, config = tmp_path / "spec.json", tmp_path / "config.json"
    spec.write_text(json.dumps(CHAIN_SPEC))
    config.write_text(json.dumps(chain_config()))
    assert call("gen-scene", "--spec", spec, "--out", tmp_path / "scene")[0] == EXIT_OK
    gt = json.loads((tmp_path / "scene" / "gt.json").read_text())
    lanes = gt["frames"][0]["lanes"]
    lanes.insert(1, {**lanes[0], "visibility": [0] * len(lanes[0]["visibility"])})
    (tmp_path / "gt.json").write_text(json.dumps(gt))
    code, out, err = call("loss", "--config", config, "--gt", tmp_path / "gt.json",
                          "--pred", CHAIN / "preds.json")
    assert (code, err) == (EXIT_OK, "")
    assert out == (CHAIN / "loss.json").read_text()


def _edited(path: Path, out: Path, edit) -> Path:
    """A copy of lane file ``path`` at ``out`` with ``edit`` applied to its document."""
    doc = json.loads(path.read_text())
    edit(doc)
    out.write_text(json.dumps(doc))
    return out


def _repeat_frame(doc, i):
    doc["frames"].append(doc["frames"][i])


@pytest.mark.parametrize("which", ["gt", "pred"])
def test_evaluate_rejects_a_repeated_frame_id(tmp_path, which):
    files = {"gt": GOLDEN / "openlane_gt.json", "pred": GOLDEN / "openlane_pred.json"}
    files[which] = _edited(files[which], tmp_path / f"{which}.json", lambda d: _repeat_frame(d, 1))
    code, out, err = call("evaluate", "--protocol", "openlane",
                          "--gt", files["gt"], "--pred", files["pred"])
    assert code == EXIT_INPUT and out == ""
    assert f"{files[which]}: at /frames/16/id: frame id '1' repeats /frames/1/id" in err


@pytest.mark.parametrize("protocol", ["openlane", "once"])
def test_evaluate_rejects_a_visibility_outside_the_unit_interval(tmp_path, protocol):
    gt = _edited(GOLDEN / f"{protocol}_gt.json", tmp_path / "gt.json",
                 lambda d: d["frames"][2]["lanes"][0].update(
                     visibility=[7] * len(d["frames"][2]["lanes"][0]["visibility"])))
    code, out, err = call("evaluate", "--protocol", protocol, "--gt", gt,
                          "--pred", GOLDEN / f"{protocol}_pred.json")
    assert code == EXIT_INPUT and out == ""
    assert f"{gt}: at /frames/2/lanes/0/visibility/0: expected a value in [0, 1], got 7.0" in err


def _shift_x(doc, offset):
    for lane in doc["frames"][0]["lanes"]:
        for point in lane["points"]:
            point[0] += offset


def test_coordinates_whose_squares_overflow_exit_2_at_their_pointer(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"noise": {"lateral_offset": 0.0}}))
    scene = tmp_path / "scene"
    assert call("gen-scene", "--spec", spec, "--out", scene)[0] == EXIT_OK
    pred = _edited(scene / "preds.json", scene / "preds.json", lambda d: _shift_x(d, 1.7e308))
    files = ("--gt", scene / "gt.json", "--pred", pred)
    for argv in (("evaluate", "--protocol", "openlane", *files), ("loss", *files)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = call(*argv)
        assert code == EXIT_INPUT and out == "" and caught == [], argv
        assert "RuntimeWarning" not in err
        assert (f"{scene / 'preds.json'}: at /frames/0/lanes/0/points/0/0: "
                "expected a magnitude below 1e150, got 1.7e+308") in err


def test_loss_of_a_coordinate_whose_cube_overflows_prints_no_warning(tmp_path):
    # 1e149 is inside laneio's bound, but the equal-width gradient cubes a distance.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_lanes": 3, "noise": {"lateral_offset": 0.2}}))
    scene = tmp_path / "scene"
    assert call("gen-scene", "--spec", spec, "--out", scene)[0] == EXIT_OK
    pred = _edited(scene / "preds.json", scene / "preds.json",
                   lambda d: d["frames"][0]["lanes"][1]["points"][5].__setitem__(0, 1e149))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = call("loss", "--gt", scene / "gt.json", "--pred", pred)
    assert (code, err, caught) == (EXIT_OK, "", [])
    losses = json.loads(out)
    values = [v for row in (*losses["frames"], losses["sum"]) for k, v in row.items() if k != "id"]
    assert values and np.isfinite(values).all()


def _stretch_lane(doc, frame_id="2"):
    """Lane 0 of frame ``frame_id`` with x_k = 1e12 k: 2.5e13 m long, with
    every coordinate far below laneio's bound."""
    frame = next(f for f in doc["frames"] if f["id"] == frame_id)
    for k, point in enumerate(frame["lanes"][0]["points"]):
        point[0] = 1e12 * k


def test_once_rejects_a_lane_too_long_to_rasterize(tmp_path):
    pred = _edited(GOLDEN / "once_pred.json", tmp_path / "pred.json", _stretch_lane)
    code, out, err = call("evaluate", "--protocol", "once",
                          "--gt", GOLDEN / "once_gt.json", "--pred", pred)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == ("error: frame 2: predicted lane 0: top-view stroke needs "
                   "500000000000001 samples, more than 1048576\n")


def test_once_names_the_gt_file_frame_under_a_tag_filter(tmp_path):
    def tag_frames_2_and_3(doc):
        for frame in doc["frames"][2:4]:
            frame["tags"] = ["x"]

    gt = _edited(GOLDEN / "once_gt.json", tmp_path / "gt.json", tag_frames_2_and_3)
    pred = _edited(GOLDEN / "once_pred.json", tmp_path / "pred.json",
                   lambda d: _stretch_lane(d, "3"))
    code, out, err = call("evaluate", "--protocol", "once", "--gt", gt, "--pred", pred,
                          "--tag-filter", "x")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == ("error: frame 3: predicted lane 0: top-view stroke needs "
                   "500000000000001 samples, more than 1048576\n")


@pytest.mark.parametrize("offset", [1.7e308, 1e200])
def test_gen_scene_writes_no_lane_file_that_readers_reject(tmp_path, offset):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"noise": {"lateral_offset": offset}}))
    scene = tmp_path / "scene"
    code, out, err = call("gen-scene", "--spec", spec, "--out", scene)
    assert code == EXIT_INPUT and out == ""
    assert (f"{scene / 'preds.json'}: at /frames/0/lanes/0/points/0/0: "
            f"expected a magnitude below 1e150, got {offset!r}") in err
    assert not (scene / "preds.json").exists()


def _loss_inputs(tmp_path) -> tuple[Path, Path]:
    """Config and GT of the golden chain, whose predictions are ``CHAIN/preds.json``."""
    spec, config = tmp_path / "spec.json", tmp_path / "config.json"
    spec.write_text(json.dumps(CHAIN_SPEC))
    config.write_text(json.dumps(chain_config()))
    assert call("gen-scene", "--spec", spec, "--out", tmp_path / "scene")[0] == EXIT_OK
    return config, tmp_path / "scene" / "gt.json"


def _drop_class_probs(doc):
    del doc["frames"][0]["lanes"][0]["class_probs"]


def _rename_frame(doc):
    doc["frames"][0]["id"] = "7"


def _off_grid(doc):
    doc["frames"][0]["lanes"][2]["points"][0][1] -= 0.5


def _name_frame(doc):
    doc["frames"][0]["id"] = "north"


def _drop_last_point(doc):
    # 9 points on the 10-point profile
    lane = doc["frames"][0]["lanes"][1]
    del lane["points"][-1], lane["visibility"][-1]


def _prepend_a_probability(doc):
    for lane in doc["frames"][0]["lanes"]:
        lane["class_probs"].insert(0, 0.0)


def _no_probabilities(doc):
    doc["frames"][0]["lanes"][1]["class_probs"] = []


def test_evaluate_rejects_a_string_coordinate(tmp_path):
    # ["1.0", 8.263, 0.0]: a string that parses as a number is still not one.
    pred = _edited(GOLDEN / "openlane_pred.json", tmp_path / "pred.json",
                   lambda d: d["frames"][1]["lanes"][0]["points"][1].__setitem__(0, "1.0"))
    code, out, err = call("evaluate", "--protocol", "openlane",
                          "--gt", GOLDEN / "openlane_gt.json", "--pred", pred)
    assert code == EXIT_INPUT and out == ""
    assert f"{pred}: at /frames/1/lanes/0/points/1/0: expected a number, got a string" in err


def test_evaluate_rejects_a_prediction_frame_with_no_gt_frame(tmp_path):
    pred = _edited(GOLDEN / "openlane_pred.json", tmp_path / "pred.json",
                   lambda d: d["frames"][1].update(id="99"))
    code, out, err = call("evaluate", "--protocol", "openlane",
                          "--gt", GOLDEN / "openlane_gt.json", "--pred", pred)
    assert code == EXIT_INPUT and out == ""
    assert f"{pred}: at /frames/1/id: no matching ground-truth frame" in err


def _drop_scores(doc):
    for frame in doc["frames"]:
        for lane in frame["lanes"]:
            del lane["score"]


def test_openlane_needs_a_score_on_every_predicted_lane(tmp_path):
    pred = _edited(GOLDEN / "openlane_pred.json", tmp_path / "pred.json",
                   lambda d: d["frames"][3]["lanes"][1].pop("score"))
    code, out, err = call("evaluate", "--protocol", "openlane",
                          "--gt", GOLDEN / "openlane_gt.json", "--pred", pred)
    assert code == EXIT_INPUT and out == ""
    assert f"{pred}: at /frames/3/lanes/1/score: " in err


def test_once_reads_no_scores(tmp_path):
    pred = _edited(GOLDEN / "once_pred.json", tmp_path / "pred.json", _drop_scores)
    code, out, err = call("evaluate", "--protocol", "once",
                          "--gt", GOLDEN / "once_gt.json", "--pred", pred)
    assert (code, err) == (EXIT_OK, "")
    assert out == (GOLDEN / "once_report.json").read_text()


def test_evaluate_tag_filter_still_skips_the_predictions_of_filtered_frames(tmp_path):
    gt = _edited(GOLDEN / "openlane_gt.json", tmp_path / "gt.json",
                 lambda d: d["frames"][2].update(tags=["curve"]))
    report = tmp_path / "report.json"
    code, _, err = call("evaluate", "--protocol", "openlane", "--tag-filter", "curve",
                        "--gt", gt, "--pred", GOLDEN / "openlane_pred.json", "--out", report)
    assert (code, err) == (EXIT_OK, "")
    counts = json.loads(report.read_text())["counts"][0]
    assert counts["tp"] + counts["fn"] == 5  # the GT lanes of frame "2" only


@pytest.mark.parametrize("tag_filter, kept", [
    (None, [str(i) for i in range(16)]),
    ("curve", ["3", "5"]),
])
def test_evaluate_plot_draws_each_kept_frame(tmp_path, tag_filter, kept):
    gt = _edited(GOLDEN / "openlane_gt.json", tmp_path / "gt.json",
                 lambda d: [d["frames"][i].update(tags=["curve"]) for i in (3, 5)])
    plot = tmp_path / "plot"
    code, _, err = call("evaluate", "--protocol", "openlane", "--gt", gt,
                        "--pred", GOLDEN / "openlane_pred.json", "--plot", plot,
                        *(["--tag-filter", tag_filter] if tag_filter else []))
    assert (code, err) == (EXIT_OK, "")
    assert sorted(p.name for p in plot.iterdir()) == sorted(f"frame_{i}.svg" for i in kept)
    gt_lanes = {f["id"]: f["lanes"] for f in json.loads(gt.read_text())["frames"]}
    pred_lanes = {f["id"]: f["lanes"]
                  for f in json.loads((GOLDEN / "openlane_pred.json").read_text())["frames"]}
    for fid in kept:
        svg = (plot / f"frame_{fid}.svg").read_text()
        assert svg.count("<polyline ") == len(gt_lanes[fid]) + len(pred_lanes[fid])
        assert svg.count('fill="none" stroke="green"/>') == len(gt_lanes[fid])
        assert svg.count('stroke="red" stroke-dasharray="4"/>') == len(pred_lanes[fid])


def _plot_with_frame_id(tmp_path, fid) -> tuple[int, str, Path, Path]:
    """``evaluate --plot`` with frame 2 of both golden OpenLane files renamed to ``fid``."""
    gt, pred = (_edited(GOLDEN / f"openlane_{name}.json", tmp_path / f"{name}.json",
                        lambda d: d["frames"][2].update(id=fid)) for name in ("gt", "pred"))
    plot = tmp_path / "plot"
    code, out, err = call("evaluate", "--protocol", "openlane", "--gt", gt, "--pred", pred,
                          "--plot", plot)
    assert out == "" and "Traceback" not in err
    return code, err, gt, plot


@pytest.mark.parametrize("fid", ["a/b", "a\0b", "\ud800"])
def test_a_plot_id_that_cannot_name_a_file_exits_2_before_any_plot(tmp_path, fid):
    code, err, gt, plot = _plot_with_frame_id(tmp_path, fid)
    assert code == EXIT_INPUT and f"{gt}: at /frames/2/id: " in err
    assert not plot.exists()


def test_plots_written_before_any_error_are_removed(tmp_path, monkeypatch):
    write_svg = cli._write_svg

    def third_fails(path, gts, preds):
        if path.name == "frame_2.svg":
            raise ValueError("cannot draw frame 2")
        write_svg(path, gts, preds)

    monkeypatch.setattr(cli, "_write_svg", third_fails)
    code, err, _, plot = _plot_with_frame_id(tmp_path, "2")
    assert (code, err) == (EXIT_INPUT, "error: cannot draw frame 2\n")
    assert list(plot.glob("frame_*.svg")) == []


def test_a_plot_id_too_long_for_the_file_system_exits_2(tmp_path):
    code, err, _, plot = _plot_with_frame_id(tmp_path, "x" * 300)
    assert code == EXIT_INPUT and "File name too long" in err
    assert str(plot / f"frame_{'x' * 300}.svg") in err
    # Frames 0 and 1 were plotted before frame 2 failed; their files are removed.
    assert list(plot.glob("frame_*.svg")) == []


def test_evaluate_out_to_a_directory_exits_2(tmp_path):
    code, out, err = call("evaluate", "--protocol", "once", "--gt", GOLDEN / "once_gt.json",
                          "--pred", GOLDEN / "once_pred.json", "--out", tmp_path)
    assert code == EXIT_INPUT and out == "" and "Traceback" not in err
    assert "Is a directory" in err and str(tmp_path) in err


def test_forward_out_to_a_directory_exits_2(tmp_path):
    config, scene, weights = _chain_scene(tmp_path)
    out = tmp_path / "preds"
    out.mkdir()
    code, stdout, err = call("forward", "--config", config, "--scene", scene,
                             "--weights", weights, "--out", out)
    assert code == EXIT_INPUT and stdout == "" and "Traceback" not in err
    assert "Is a directory" in err and str(out) in err


@pytest.mark.parametrize("which, edit, pointer, message", [
    ("gt", lambda d: _repeat_frame(d, 0), "/frames/1/id", "frame id 'north' repeats /frames/0/id"),
    ("pred", lambda d: _repeat_frame(d, 0), "/frames/1/id",
     "frame id 'north' repeats /frames/0/id"),
    ("pred", _drop_class_probs, "/frames/0/lanes/0", "lane lacks class_probs"),
    ("pred", _rename_frame, "/frames/0/id", "no matching ground-truth frame"),
    ("gt", _off_grid, "/frames/0/lanes/2", "lane is not on the profile y-grid"),
    ("pred", _drop_last_point, "/frames/0/lanes/1", "lane is not on the profile y-grid"),
    ("pred", _prepend_a_probability, "/frames/0/lanes/0/class_probs",
     "expected S+1 = 2 values, got shape (3,)"),
    ("pred", _no_probabilities, "/frames/0/lanes/1/class_probs",
     "expected S+1 = 2 values, got shape (0,)"),
    ("gt", lambda d: d["frames"][0]["lanes"][0].update(category=-1),
     "/frames/0/lanes/0/category", "expected a category in 0..0, got -1"),
    ("gt", lambda d: d["frames"][0]["lanes"][1].update(category=1),
     "/frames/0/lanes/1/category", "expected a category in 0..0, got 1"),
    ("gt", lambda d: d["frames"][0]["lanes"][2].update(category=2),
     "/frames/0/lanes/2/category", "expected a category in 0..0, got 2"),
    ("pred", lambda d: d["frames"][0].update(lanes=[]), "/frames/0/lanes", "no lane to assign"),
    ("gt", lambda d: d["frames"][0]["lanes"][0].update(visibility=[7] * 10),
     "/frames/0/lanes/0/visibility/0", "expected a value in [0, 1], got 7.0"),
    ("gt", lambda d: d["frames"][0]["lanes"][1].update(visibility=[1, -1] + [0] * 8),
     "/frames/0/lanes/1/visibility/1", "expected a value in [0, 1], got -1.0"),
    ("pred", lambda d: d["frames"][0]["lanes"][2]["visibility"].__setitem__(3, 1.5),
     "/frames/0/lanes/2/visibility/3", "expected a value in [0, 1], got 1.5"),
    ("pred", lambda d: d["frames"][0]["lanes"][0].update(class_probs=[1.5, -0.5]),
     "/frames/0/lanes/0/class_probs/0", "expected a value in [0, 1], got 1.5"),
    ("pred", lambda d: d["frames"][0]["lanes"][1].update(class_probs=[1.2, -0.2]),
     "/frames/0/lanes/1/class_probs/0", "expected a value in [0, 1], got 1.2"),
    ("pred", lambda d: d["frames"][0]["lanes"][1].update(class_probs=[0.5, 0.6]),
     "/frames/0/lanes/1/class_probs", "expected probabilities summing to 1, got a sum of 1.1"),
    ("pred", lambda d: d["frames"][0]["lanes"][2].update(class_probs=[0.5, 0.5 - 2e-6]),
     "/frames/0/lanes/2/class_probs", "expected probabilities summing to 1"),
])
def test_loss_errors_name_the_file_and_frame_index(tmp_path, which, edit, pointer, message):
    config, gt = _loss_inputs(tmp_path)
    # A frame id that is not its index, so each pointer must use the index.
    files = {"gt": _edited(gt, tmp_path / "gt.json", _name_frame),
             "pred": _edited(CHAIN / "preds.json", tmp_path / "pred.json", _name_frame)}
    _edited(files[which], files[which], edit)
    code, out, err = call("loss", "--config", config, "--gt", files["gt"], "--pred", files["pred"])
    assert code == EXIT_INPUT and out == ""
    assert f"{files[which]}: at {pointer}: {message}" in err


def test_forward_names_the_scene_file_of_a_frame_without_a_rig(tmp_path):
    config, gt = _loss_inputs(tmp_path)
    _edited(gt, gt, lambda d: d["frames"][0].update(id="north", camera=None))
    weights = tmp_path / "weights.a3t"
    assert call("gen-weights", "--config", config, "--out", weights)[0] == EXIT_OK
    code, _, err = call("forward", "--config", config, "--scene", gt.parent,
                        "--weights", weights, "--out", tmp_path / "preds.json")
    assert code == EXIT_INPUT and f"{gt}: at /frames/0/camera: frame has no rig" in err


@pytest.mark.parametrize("plan, pointer", [
    ([[5, "s9"]], "/plan/0"),
    ([[5, "s1"], [4, "s9"]], "/plan/1"),
])
def test_forward_names_a_plan_head_id_missing_from_the_weights(tmp_path, plan, pointer):
    config, scene, weights = _chain_scene(tmp_path)
    config = _bad_config(tmp_path, lambda d: d.update(plan=plan))
    out = tmp_path / "out.json"
    code, stdout, err = call("forward", "--config", config, "--scene", scene,
                             "--weights", weights, "--out", out)
    assert code == EXIT_INPUT and stdout == "" and not out.exists()
    assert f"{config}: at {pointer}: head weights id 's9' is not in {weights}" in err


def _chain_config_for(variant: str) -> dict:
    """The chain config on another profile, or with its LiDAR channels off."""
    if variant == "camera-only":
        return {**chain_config(), "fusion": False}
    return {**chain_config(), "profile": to_json(make_profile(variant))}


# Each row: the config the weights are built for, the config forward runs with
# on the chain scene, the head tensor that does not fit, and why.
@pytest.mark.parametrize("weights_profile, profile, name, message", [
    ("openlane", "apollosim", "cls_w", "expected S+1 = 2 columns, got 15"),
    ("openlane", "once", "cls_w", "expected S+1 = 2 columns, got 15"),
    ("once", "apollosim", "reg_w", "expected 3N = 60 columns, got 30"),
    ("once", "camera-only", "w_q", "expected N·C = 20 rows, got 40"),
    ("camera-only", "once", "w_q", "expected N·C = 40 rows, got 20"),
])
def test_forward_names_a_head_built_for_another_profile(tmp_path, weights_profile, profile,
                                                        name, message):
    _, scene, _ = _chain_scene(tmp_path)
    configs = {}
    for p in {weights_profile, profile}:
        configs[p] = tmp_path / f"config_{p}.json"
        configs[p].write_text(json.dumps(_chain_config_for(p)))
    weights = tmp_path / "other.a3t"
    assert call("gen-weights", "--config", configs[weights_profile],
                "--out", weights)[0] == EXIT_OK
    out = tmp_path / "out.json"
    code, stdout, err = call("forward", "--config", configs[profile], "--scene", scene,
                             "--weights", weights, "--out", out)
    assert code == EXIT_INPUT and stdout == "" and not out.exists()
    assert f"{weights}: at head.s1.{name}: {message}" in err


def test_anchors_and_forward_name_a_coefficient_head_built_for_other_features(tmp_path):
    # The chain scene has 2 camera channels on a 16-cell-wide F5 map.
    config, scene, _ = _chain_scene(tmp_path)
    weights = tmp_path / "wide.a3t"
    wide = _bad_config(tmp_path, lambda d: d.update(feature_channels=4))
    assert call("gen-weights", "--config", wide, "--out", weights)[0] == EXIT_OK
    results = _anchors_and_forward(config, scene, weights, tmp_path)
    for command, (code, stdout, err) in results.items():
        assert (code, stdout) == (EXIT_INPUT, ""), command
        assert f"{weights}: at coeff.a_xs: expected W_F·C = 32 rows, got 64" in err, command
    assert not (tmp_path / "anchors.json").exists() and not (tmp_path / "preds.json").exists()


def test_weights_file_holds_exactly_the_constructor_fields(tmp_path):
    _, _, weights = _chain_scene(tmp_path)
    parts = {"proto": PrototypeBank, "coeff": CoefficientHeadWeights,
             **{f"head.{wid}": HeadWeights for wid in ("s1", "s2")}}
    want = {f"{prefix}.{name}" for prefix, cls in parts.items()
            for name in inspect.signature(cls).parameters}
    assert set(read_tensors(weights)) == want


@pytest.mark.parametrize("ranges, message", [
    ({"phi_min": 1.58, "phi_max": 1.6}, "phi range [1.58, 1.6] is not inside (-pi/2, pi/2)"),
    ({"phi_min": -3.0, "phi_max": 3.0}, "phi range [-3.0, 3.0] is not inside (-pi/2, pi/2)"),
    ({"xs_min": -1e308, "xs_max": 1e308},
     "xs range [-1e+308, 1e+308] is wider than float64 can hold"),
    ({"xs_min": -1.0, "xs_max": 1e150}, "xs range [-1.0, 1e+150] is not inside (-1e150, 1e150)"),
], ids=["phi-past-90-deg", "phi-past-90-deg-unused", "xs-width-overflows",
        "xs-past-the-lane-file-limit"])
def test_a_meta_range_anchors_cannot_honour_exits_2_at_the_config(tmp_path, ranges, message):
    _, scene, weights = _chain_scene(tmp_path)
    config = _bad_config(tmp_path, lambda d: d["meta_ranges"].update(ranges))
    for command, result in _anchors_and_forward(config, scene, weights, tmp_path).items():
        assert result == (EXIT_INPUT, "", f"error: {config}: at /meta_ranges: {message}\n"), command
    assert not (tmp_path / "anchors.json").exists() and not (tmp_path / "preds.json").exists()


def test_anchors_off_every_grid_give_a_located_error_and_no_warning(tmp_path):
    # xs of about 1e307 m would give lanes no lane file holds: the config is
    # refused.  Just inside the limit every projection lands off the grid,
    # every sample is zero, and the proposals are written.
    _, scene, weights = _chain_scene(tmp_path)
    for bound, want in ((8e307, EXIT_INPUT), (9.9e149, EXIT_OK)):
        config = _bad_config(tmp_path, lambda d: d["meta_ranges"].update(xs_min=-bound,
                                                                          xs_max=bound))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = _anchors_and_forward(config, scene, weights, tmp_path)
        for command, (code, _, err) in results.items():
            assert code == want, (command, err)
            assert err == ("" if want == EXIT_OK else
                           f"error: {config}: at /meta_ranges: xs range [-{bound}, {bound}] "
                           "is not inside (-1e150, 1e150)\n"), command
    assert read_lane_file(tmp_path / "preds.json")[0].lanes


def test_a_lidar_transform_that_overflows_leaves_its_points_unseen(tmp_path):
    config, scene, weights = _chain_scene(tmp_path)
    gt = scene / "gt.json"
    _edited(gt, gt,
            lambda d: d["frames"][0]["camera"]["T_gl"].__setitem__(0, [1e308, 1e308, 0, 0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _anchors_and_forward(config, scene, weights, tmp_path)["forward"]
    assert (code, err) == (EXIT_OK, "")


# --- which tensors a frame reads -----------------------------------------------------


def _chain_scene(tmp_path) -> tuple[Path, Path, Path]:
    """Config, scene directory and weights of the golden chain."""
    config, gt = _loss_inputs(tmp_path)
    weights = tmp_path / "weights.a3t"
    assert call("gen-weights", "--config", config, "--seed", 1, "--out", weights)[0] == EXIT_OK
    return config, gt.parent, weights


def _anchors_and_forward(config, scene: Path, weights, out: Path) -> dict:
    """Run ``anchors`` and ``forward`` on ``scene`` into ``out``; their (code, stdout, stderr)."""
    return {
        "anchors": call("anchors", "--config", config, "--features", scene / "features.a3t",
                        "--weights", weights, "--out", out / "anchors.json"),
        "forward": call("forward", "--config", config, "--scene", scene, "--weights", weights,
                        "--out", out / "preds.json"),
    }


def _outputs_are_golden(out: Path) -> bool:
    return all((out / name).read_bytes() == (CHAIN / name).read_bytes()
               for name in ("anchors.json", "preds.json"))


def _shifted(tensors: dict) -> dict:
    """Every tensor plus one: valid input that changes every output."""
    return {name: t + 1.0 for name, t in tensors.items()}


def test_a_frames_own_tensors_win_over_the_shared_ones(tmp_path):
    config, scene, weights = _chain_scene(tmp_path)
    features = scene / "features.a3t"
    tensors = read_tensors(features)
    write_tensors(features, {**{f"0/{name}": t for name, t in tensors.items()},
                             **_shifted(tensors)})
    results = _anchors_and_forward(config, scene, weights, tmp_path)
    assert all(code == EXIT_OK for code, _, _ in results.values()), results
    assert _outputs_are_golden(tmp_path)
    # The shared tensors alone change the outputs, so they were not read above.
    write_tensors(features, _shifted(tensors))
    _anchors_and_forward(config, scene, weights, tmp_path)
    assert not _outputs_are_golden(tmp_path)


def test_a_volume_without_its_extent_is_not_the_frames_own(tmp_path):
    # 0/L<l> without 0/L<l>.extent: data and extent both come from the shared pair.
    config, scene, weights = _chain_scene(tmp_path)
    features = scene / "features.a3t"
    tensors = read_tensors(features)
    own = {f"0/L{level}": tensors[f"L{level}"] + 1.0 for level in (3, 4, 5)}
    write_tensors(features, {**tensors, **own})
    results = _anchors_and_forward(config, scene, weights, tmp_path)
    assert all(code == EXIT_OK for code, _, _ in results.values()), results
    assert _outputs_are_golden(tmp_path)


@pytest.mark.parametrize("command, level, plan", [
    ("anchors", 5, None), ("forward", 5, None), ("forward", 4, None), ("forward", 3, None),
    ("forward", 5, [[4, "s2"]]),  # the anchors read level 5 whatever the stages read
])
def test_a_missing_feature_level_exits_2_at_its_name(tmp_path, command, level, plan):
    config, scene, weights = _chain_scene(tmp_path)
    if plan:
        config = _bad_config(tmp_path, lambda d: d.update(plan=plan))
    features = scene / "features.a3t"
    tensors = read_tensors(features)
    del tensors[f"F{level}"]
    write_tensors(features, tensors)
    code, out, err = _anchors_and_forward(config, scene, weights, tmp_path)[command]
    assert code == EXIT_INPUT and out == ""
    assert f"{features}: at F{level}: " in err


@pytest.mark.parametrize("dropped, pointer", [
    (("L3", "L3.extent", "L4", "L4.extent", "L5", "L5.extent"), "L5"),
    (("L5.extent",), "L5"),
    (("L4.extent",), "L4"),
])
def test_fusion_without_a_volume_exits_2_at_its_name(tmp_path, dropped, pointer):
    config, scene, weights = _chain_scene(tmp_path)
    features = scene / "features.a3t"
    tensors = read_tensors(features)
    write_tensors(features, {k: t for k, t in tensors.items() if k not in dropped})
    code, out, err = _anchors_and_forward(config, scene, weights, tmp_path)["forward"]
    assert code == EXIT_INPUT and out == ""
    assert f"{features}: at {pointer}: " in err


def test_levels_no_stage_reads_may_be_missing(tmp_path):
    config, scene, weights = _chain_scene(tmp_path)
    config = _bad_config(tmp_path, lambda d: d.update(plan=[[5, "s1"]]))
    features = scene / "features.a3t"
    tensors = read_tensors(features)
    write_tensors(features, {k: t for k, t in tensors.items() if k[1] == "5"})
    code, _, err = _anchors_and_forward(config, scene, weights, tmp_path)["forward"]
    assert (code, err) == (EXIT_OK, "")


def test_weights_file_names_a_missing_tensor(tmp_path):
    config, weights = tmp_path / "config.json", tmp_path / "weights.a3t"
    config.write_text(json.dumps(chain_config()))
    assert call("gen-weights", "--config", config, "--out", weights)[0] == EXIT_OK
    tensors = read_tensors(weights)
    del tensors["head.s2.cls_b"]
    write_tensors(weights, tensors)
    code, _, err = call("anchors", "--config", config, "--features", weights,
                        "--weights", weights, "--out", tmp_path / "anchors.json")
    assert code == EXIT_INPUT and f"{weights}: at head.s2.cls_b: missing tensor" in err


def _with(tensors: dict):
    """An edit of a weights file's tensors that sets each name of ``tensors``
    to its function of the file's tensors."""
    def edit(t):
        t.update({name: value(t) for name, value in tensors.items()})
    return edit


# Each row: an edit of the chain weights file (6 anchors, prototypes (6, 5, 3),
# N·C = 40) that a record refuses, the tensor or record the error names, and why.
@pytest.mark.parametrize("edit, pointer, message", [
    (_with({"proto.xs": lambda t: t["proto.xs"][:, None]}),
     "proto", "xs prototypes: expected a non-empty vector, got (6, 1)"),
    (_with({"proto.xs": lambda t: t["proto.xs"][:0],
            "coeff.a_xs": lambda t: t["coeff.a_xs"][..., :0],
            "coeff.b_xs": lambda t: t["coeff.b_xs"][:, :0]}),
     "proto", "xs prototypes: expected a non-empty vector, got (0,)"),
    (_with({"head.s1.w_k": lambda t: t["head.s1.w_k"][:-1]}),
     "head.s1", "w_k: expected (40, 40), got (39, 40)"),
    (_with({"head.s1.w_q": lambda t: t["head.s1.w_q"][0]}),
     "head.s1", "w_q: expected (40, 40), got (40,)"),
    (_with({"head.s2.cls_w": lambda t: np.zeros(40)}),
     "head.s2", "cls head: expected (40, S+1) / (S+1,), got ((40,), (2,))"),
    (_with({"coeff.b_xs": lambda t: t["coeff.b_xs"][:-1]}),
     "coeff", "xs bias: expected (6, 6), got (5, 6)"),
    (_with({"coeff.a_phi": lambda t: t["coeff.a_phi"][:, :-1],
            "coeff.b_phi": lambda t: t["coeff.b_phi"][:-1]}),
     "coeff", "coefficient row counts: expected equal, got [5, 6]"),
    (_with({f"coeff.{ab}_{meta}": (lambda t, n=f"coeff.{ab}_{meta}": t[n][..., :0, :])
            for ab in "ab" for meta in ("xs", "phi", "theta")}),
     "coeff", "anchor count: expected at least 1, got 0"),
    (_with({"proto.xs": lambda t: t["proto.xs"][:-1]}),
     "coeff.a_xs", "expected len(proto.xs) = 5 columns, got 6"),
    (_with({"proto.theta": lambda t: np.zeros(4)}),
     "coeff.a_theta", "expected len(proto.theta) = 4 columns, got 3"),
    (_with({"coeff.a_phi": lambda t: t["coeff.a_phi"][:-1]}),
     "coeff.a_phi", "expected W_F·C = 32 rows, got 31"),
], ids=["prototype-matrix", "prototype-empty", "w_k-one-row-short", "w_q-vector", "cls_w-vector",
        "xs-bias-one-row-short", "phi-one-anchor-short", "no-anchors", "xs-one-prototype-short",
        "theta-one-prototype-more", "phi-one-pooled-row-short"])
def test_a_weights_file_the_records_refuse_exits_2_at_its_tensor(tmp_path, edit, pointer,
                                                                 message):
    config, scene, weights = _chain_scene(tmp_path)
    tensors = read_tensors(weights)
    edit(tensors)
    write_tensors(weights, tensors)
    for command, result in _anchors_and_forward(config, scene, weights, tmp_path).items():
        assert result == (EXIT_INPUT, "", f"error: {weights}: at {pointer}: {message}\n"), command
    assert not (tmp_path / "anchors.json").exists() and not (tmp_path / "preds.json").exists()


@pytest.fixture(scope="module")
def chain_inputs(tmp_path_factory) -> tuple[Path, Path, Path]:
    """Config, scene directory and weights of the golden chain, made once."""
    return _chain_scene(tmp_path_factory.mktemp("chain"))


WEIGHT_TENSORS = [f"{prefix}.{name}" for prefix, cls in (
    ("proto", PrototypeBank), ("coeff", CoefficientHeadWeights),
    ("head.s1", HeadWeights), ("head.s2", HeadWeights),
) for name in inspect.signature(cls).parameters]


def _drop_last_index(t, axis):
    return np.delete(t, -1, axis=axis % t.ndim)


def _empty_axis(t, axis):
    return np.take(t, [], axis=axis % t.ndim)


def _add_leading_axis(t, axis):
    return t[None]


def _take_first(t, axis):
    return t[0]


shape_edits = st.builds(functools.partial,
                        st.sampled_from([_drop_last_index, _empty_axis, _add_leading_axis,
                                         _take_first]),
                        axis=st.integers(0, 2))


@seed(2525)
@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(WEIGHT_TENSORS), edit=shape_edits)
@example(name="proto.xs", edit=lambda t: t[:, None])
def test_a_weights_tensor_of_another_shape_exits_0_or_2_at_the_weights_file(chain_inputs,
                                                                             name, edit):
    config, scene, chain_weights = chain_inputs
    tensors = read_tensors(chain_weights)
    with tempfile.TemporaryDirectory() as work:
        weights = Path(work) / "weights.a3t"
        write_tensors(weights, {**tensors, name: edit(tensors[name])})
        for command, (code, _, err) in _anchors_and_forward(config, scene, weights,
                                                            Path(work)).items():
            assert code in (EXIT_OK, EXIT_INPUT), (command, err)
            if code == EXIT_INPUT:
                assert err.startswith(f"error: {weights}: at "), (command, err)
                assert "Traceback" not in err, (command, err)
            else:
                assert err == "", command


FEATURE_TENSORS = ["F3", "F4", "F5", *(f"L{level}{suffix}" for level in (3, 4, 5)
                                       for suffix in ("", ".extent"))]


def _extent_with_an_empty_x_range(t):
    return np.array([[-15.0, -15.0], [0.0, 105.0], [-2.0, 3.0]])


# Each @example is a case that the feature containers refused without naming
# the features file or its tensor, or that reached a stage or numpy first.
@seed(2626)
@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(FEATURE_TENSORS), edit=shape_edits)
@example(name="L4.extent", edit=_extent_with_an_empty_x_range)
@example(name="L4.extent", edit=functools.partial(_drop_last_index, axis=0))
@example(name="F5", edit=functools.partial(_take_first, axis=0))
@example(name="F4", edit=functools.partial(_add_leading_axis, axis=0))
@example(name="L3", edit=functools.partial(_take_first, axis=0))
@example(name="F3", edit=functools.partial(_drop_last_index, axis=0))
@example(name="L5", edit=functools.partial(_empty_axis, axis=0))
@example(name="F5", edit=functools.partial(_empty_axis, axis=0))
def test_a_features_tensor_of_another_shape_exits_0_or_2_at_its_tensor(chain_inputs, name,
                                                                        edit):
    config, chain_scene, weights = chain_inputs
    tensors = read_tensors(chain_scene / "features.a3t")
    with tempfile.TemporaryDirectory() as work:
        scene = Path(work) / "scene"
        scene.mkdir()
        (scene / "gt.json").write_bytes((chain_scene / "gt.json").read_bytes())
        features = scene / "features.a3t"
        write_tensors(features, {**tensors, name: edit(tensors[name])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = _anchors_and_forward(config, scene, weights, Path(work))
        # A map the coefficient head or a planned head does not fit is refused
        # at the weights file's tensor, as before.
        misfit = re.compile(rf"error: {re.escape(str(weights))}: at "
                            r"(coeff\.a_\w+|head\.\w+\.w_q): ")
        for command, (code, _, err) in results.items():
            assert code in (EXIT_OK, EXIT_INPUT), (command, err)
            if code == EXIT_INPUT:
                assert (err.startswith(f"error: {features}: at {name}: ")
                        or misfit.match(err)), (command, err)
                assert "Traceback" not in err, (command, err)
            else:
                assert err == "", command


def test_failing_grad_check_exits_3(capsys, monkeypatch):
    def failing(trials, seed, loss_cfg):
        return GradCheckResult(trials=trials, max_rel_error=0.5, tolerance=1e-5)

    monkeypatch.setattr(cli, "run_grad_check", failing)
    code, out, err = run(capsys, "grad-check", "--trials", 2)
    assert code == EXIT_VERIFY and err == ""
    assert json.loads(out) == {
        "trials": 2, "max_rel_error": 0.5, "tolerance": 1e-5, "passed": False,
    }
    assert '"passed": false' in out


@pytest.mark.parametrize("trials", [0, -3])
def test_grad_check_without_a_trial_exits_2(trials):
    code, out, err = call("grad-check", "--trials", trials)
    assert (code, out) == (EXIT_INPUT, "")
    assert f"trials must be >= 1, got {trials}" in err


def test_weights_that_overflow_float32_exit_2_and_write_no_file(tmp_path):
    weights = tmp_path / "w.a3t"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = call("gen-weights", "--scale", 1e200, "--out", weights)
    assert (code, out) == (EXIT_INPUT, "")
    assert "tensor 'coeff.a_xs': element 0 is not finite as float32" in err
    assert not weights.exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-1", "-5e-324"])
def test_gen_weights_with_a_scale_that_is_not_finite_and_at_least_0_exits_2(tmp_path, scale):
    weights = tmp_path / "w.a3t"
    code, out, err = call("gen-weights", f"--scale={scale}", "--out", weights)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: scale must be finite and >= 0, got {float(scale)}\n"
    assert not weights.exists()


def test_gen_weights_with_scale_0_draws_zero_weights(tmp_path):
    weights = tmp_path / "w.a3t"
    code, out, err = call("gen-weights", "--scale", 0, "--out", weights)
    assert (code, err) == (EXIT_OK, "")
    assert not read_tensors(weights)["coeff.a_xs"].any()


# --- gen-scene specs ---------------------------------------------------------------


def test_gen_scene_fills_omitted_keys_with_defaults(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_lanes": 3, "noise": {"lateral_offset": 0.25}}))
    code, out, err = call("gen-scene", "--spec", spec, "--out", tmp_path / "scene")
    assert (code, err) == (EXIT_OK, "") and "3 lanes" in out
    gt = json.loads((tmp_path / "scene" / "gt.json").read_text())["frames"][0]
    preds = json.loads((tmp_path / "scene" / "preds.json").read_text())["frames"][0]
    assert gt["camera"]["T_gl"] is None
    assert [len(f["lanes"]) for f in (gt, preds)] == [3, 3]
    for g, p in zip(gt["lanes"], preds["lanes"]):
        x_gt, x_pred = (np.array(lane["points"])[:, 0] for lane in (g, p))
        np.testing.assert_allclose(x_pred - x_gt, 0.25, atol=1e-12)
        assert p["score"] == 1.0


@pytest.mark.parametrize("spec, pointer, message", [
    ({"noise": {"lateral_offest": 0.5}}, "/noise/lateral_offest", "unknown field"),
    ({"noise": 0.5}, "/noise", "expected an object"),
    ({"lidar": "false"}, "/lidar", "expected true or false"),
    ({"curvatuer": [0.0]}, "/curvatuer", "unknown field"),
    ({"n_lanes": "two"}, "/n_lanes", 'expected an integer, got "two"'),
    ({"image_size": [96]}, "/image_size", "not enough values"),
    ({"slope": [0.0, "up"]}, "/slope/1", 'expected a number, got "up"'),
    ({"sigma": None}, "/sigma", "float()"),
    ({"n_lanes": 0}, "/", "n_lanes must be >= 1"),
    ([3], "/", "expected an object"),
    ({"feature_stride": 0}, "/", "feature_stride must be >= 1, got 0"),
    ({"feature_channels": 0}, "/", "feature_channels must be >= 1, got 0"),
    ({"image_size": [360, 0]}, "/", "image_size[1] // feature_stride must be >= 1, got 0"),
    ({"lidar": True, "lidar_channels": -1}, "/", "lidar_channels must be >= 1, got -1"),
    ({"noise": {"score": 1.5}}, "/noise", "score must be in [0, 1], got 1.5"),
    ({"noise": {"score": -0.2}}, "/noise", "score must be in [0, 1], got -0.2"),
    ({"noise": {"drop_rate": 1.01}}, "/noise", "drop_rate must be in [0, 1], got 1.01"),
    ({"noise": {"drop_rate": -0.5}}, "/noise", "drop_rate must be in [0, 1], got -0.5"),
    ({"n_lanes": 2, "fork_lane": 7}, "/", "fork_lane must be in 0..1, got 7"),
    ({"fork_lane": -1}, "/", "fork_lane must be in 0..1, got -1"),
    ({"focal": 0}, "/", "focal must be positive, got 0.0"),
    ({"focal": -330}, "/", "focal must be positive, got -330.0"),
    ({"sigma": 1e200}, "/", "sigma must be positive with 2 * sigma**2 finite and above 0, "
                            "got 1e+200"),
    ({"sigma": 0}, "/", "sigma must be positive with 2 * sigma**2 finite and above 0, got 0.0"),
    ({"sigma": 1e-200}, "/", "sigma must be positive with 2 * sigma**2 finite and above 0, "
                             "got 1e-200"),
    ({"sigma": -1}, "/", "sigma must be positive with 2 * sigma**2 finite and above 0, got -1.0"),
    ({"camera_height": 1e308}, "/", "K @ T_gc holds a non-finite value"),
    ({"fork_lane": 1e200}, "/fork_lane", "expected an integer, got 1e+200"),
])
def test_bad_scene_spec_exits_2_with_its_pointer(tmp_path, spec, pointer, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = call("gen-scene", "--spec", path, "--out", tmp_path / "scene")
    assert code == EXIT_INPUT and out == ""
    assert f"{path}: at {pointer}: " in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("spec", [
    {"spacing": 1e308, "n_lanes": 3},
    {"fork_lane": 0, "fork_coefficient": 1e308},
], ids=["spacing", "fork_coefficient"])
def test_gen_scene_refuses_an_overflowing_lane_without_a_warning(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    scene = tmp_path / "scene"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = call("gen-scene", "--spec", path, "--out", scene)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"error: {scene / 'gt.json'}: at /frames/0/lanes/0/points/"), err
    assert not (scene / "gt.json").exists()


@pytest.mark.parametrize("spec", [
    {"sigma": 1e-160, "feature_channels": 2},
    {"focal": 1e308, "n_lanes": 3},
    {"curvature": [0.0] * 200},
    {"curvature": [0.0] * 199 + [1e-320]},
], ids=["sigma", "focal", "200-term-polynomial", "tiny-200th-term"])
def test_gen_scene_at_an_extreme_value_writes_finite_maps_without_a_warning(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = call("gen-scene", "--spec", path, "--out", tmp_path / "scene")
    assert (code, err) == (EXIT_OK, "")
    for name, data in read_tensors(tmp_path / "scene" / "features.a3t").items():
        assert np.isfinite(data).all(), name


@pytest.mark.parametrize("command", [
    ["evaluate", "--protocol", "once"],
    ["loss"],
])
def test_a_rig_whose_projection_overflows_exits_2_at_its_camera(tmp_path, command):
    spec = tmp_path / "spec.json"
    spec.write_text("{}")
    assert call("gen-scene", "--spec", spec, "--out", tmp_path / "scene")[0] == EXIT_OK
    gt = _edited(tmp_path / "scene" / "gt.json", tmp_path / "gt.json",
                 lambda d: d["frames"][0]["camera"]["T_gc"][1].__setitem__(3, 1e307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = call(*command, "--gt", gt, "--pred", gt)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: {gt}: at /frames/0/camera: K @ T_gc holds a non-finite value\n"


# --- the gen-scene input boundary ---------------------------------------------------

BOUNDARY_VALUES = (0, -1, 1e-320, 1e-160, 1e200, 1e307, 1e308, -1e308)
BOUNDARY_KEYS = ("spacing", "camera_height", "camera_pitch", "focal", "fork_lane",
                 "fork_coefficient", "sigma", "curvature", "slope", "noise.lateral_offset",
                 "noise.z_offset")


@st.composite
def boundary_specs(draw):
    """A small valid gen-scene spec with one key set to a boundary value."""
    n_lanes = draw(st.integers(1, 6))
    spec = {"profile": draw(st.sampled_from(["openlane", "once"])), "n_lanes": n_lanes,
            "curvature": [0.0, draw(st.floats(-0.02, 0.02))],
            "slope": [0.0, draw(st.floats(-0.01, 0.01))],
            "feature_channels": draw(st.integers(1, 4)), "lidar": draw(st.booleans()),
            "lidar_channels": draw(st.integers(1, 4))}
    if draw(st.booleans()):
        spec.update(fork_lane=draw(st.integers(0, n_lanes - 1)), fork_coefficient=0.002)
    if draw(st.booleans()):
        spec["noise"] = {"lateral_offset": 0.1, "z_offset": -0.05}
    key, value = draw(st.sampled_from(BOUNDARY_KEYS)), draw(st.sampled_from(BOUNDARY_VALUES))
    if key in ("curvature", "slope"):
        spec[key] = spec[key] + [0.0]
        spec[key][draw(st.integers(0, 2))] = value
    elif key.startswith("noise."):
        spec.setdefault("noise", {})[key.removeprefix("noise.")] = value
    else:
        spec[key] = value
    return spec


@seed(1919)
@settings(max_examples=100, deadline=None)
@given(boundary_specs())
@example({"curvature": [0.0] * 200})
def test_gen_scene_writes_readable_files_or_exits_2_at_a_pointer(spec):
    with tempfile.TemporaryDirectory() as work:
        path, scene = Path(work) / "spec.json", Path(work) / "scene"
        path.write_text(json.dumps(spec))
        code, out, err = call("gen-scene", "--spec", path, "--out", scene)
        assert code in (EXIT_OK, EXIT_INPUT), err
        if code == EXIT_INPUT:
            named = "|".join(re.escape(str(p)) for p in (path, scene / "gt.json",
                                                         scene / "preds.json"))
            assert re.fullmatch(rf"error: ({named}): at /\S*: .+\n", err), err
        else:
            assert err == ""
            read_lane_file(scene / "gt.json")
            read_tensors(scene / "features.a3t")
            if "noise" in spec:
                read_lane_file(scene / "preds.json")


# --- integer literals too long to convert -----------------------------------------

# How each command reads a JSON file: (its document, the command line reading ``path``).
JSON_INPUTS = {
    "pred": (lambda: json.loads((GOLDEN / "openlane_pred.json").read_text()),
             lambda path: ["evaluate", "--protocol", "openlane",
                           "--gt", GOLDEN / "openlane_gt.json", "--pred", path]),
    "config": (chain_config, lambda path: ["grad-check", "--trials", 1, "--config", path]),
    "spec": (lambda: dict(CHAIN_SPEC),
             lambda path: ["gen-scene", "--spec", path, "--out", path.parent / "scene"]),
}


@pytest.mark.parametrize("kind, edit, pointer", [
    ("pred", lambda d: d["frames"][1]["lanes"][0].update(score="HUGE"), "/frames/1/lanes/0/score"),
    ("pred", lambda d: d["frames"][2]["lanes"][3]["points"][4].__setitem__(2, "HUGE"),
     "/frames/2/lanes/3/points/4/2"),
    ("config", lambda d: d.update(num_anchors="HUGE"), "/num_anchors"),
    ("config", lambda d: d["meta_ranges"].update(xs_min="-HUGE"), "/meta_ranges/xs_min"),
    ("spec", lambda d: d.update(seed="HUGE"), "/seed"),
    ("spec", lambda d: d.update(slope=[0.0, "HUGE"]), "/slope/1"),
])
def test_an_overlong_integer_exits_2_at_its_pointer(tmp_path, kind, edit, pointer):
    document, argv = JSON_INPUTS[kind]
    doc = document()
    edit(doc)
    path = tmp_path / f"{kind}.json"
    # "HUGE" becomes an integer literal of 5000 digits, past int()'s 4300-digit limit.
    path.write_text(re.sub('"(-?)HUGE"', r"\g<1>" + "7" * 5000, json.dumps(doc)))
    code, out, err = call(*argv(path))
    assert code == EXIT_INPUT and out == ""
    assert f"{path}: at {pointer}: integer literal exceeds the limit of 4300 digits" in err


@pytest.mark.parametrize("kind", sorted(JSON_INPUTS))
def test_a_byte_that_is_not_utf8_exits_2_at_its_offset(tmp_path, kind):
    document, argv = JSON_INPUTS[kind]
    path = tmp_path / f"{kind}.json"
    text = json.dumps(document()).encode()
    path.write_bytes(b'{"caf\xe9": 0, ' + text[1:])
    code, out, err = call(*argv(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: {path}: at byte 5: invalid UTF-8: invalid continuation byte\n"
    path.write_bytes(b"\xef\xbb\xbf" + text)  # a BOM is valid UTF-8 but not JSON
    code, out, err = call(*argv(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert f"{path}: at offset 0: invalid JSON: Unexpected UTF-8 BOM" in err
