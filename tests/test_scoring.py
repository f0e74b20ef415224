import json

import pytest

from lane3d_kit import scoring
from lane3d_kit.config import RunConfig
from lane3d_kit.errors import FileFormatError
from lane3d_kit.evaluation import EvalReport, OnceReport
from lane3d_kit.jsonable import from_json, read_json, to_json
from lane3d_kit.losses import LossBreakdown

from test_cli import CHAIN, GOLDEN, _edited, _loss_inputs


def test_losses_of_the_golden_chain_are_the_ones_loss_prints(tmp_path):
    config, gt = _loss_inputs(tmp_path)
    cfg = from_json(RunConfig, read_json(config), config)
    scored = scoring.score_losses(cfg, gt, CHAIN / "preds.json")
    want = json.loads((CHAIN / "loss.json").read_text())
    assert [fid for fid, _, _ in scored] == ["0"]
    (_, breakdown, assignment), = scored
    assert isinstance(breakdown, LossBreakdown)
    assert to_json(breakdown) == {k: v for k, v in want["frames"][0].items() if k != "id"}
    assert to_json(breakdown) == want["sum"]
    # Every one of the scene's three GT lanes takes one proposal.
    assert len(assignment.positives) == 3
    assert sorted(assignment.sigma) == [0, 1, 2]


def test_openlane_report_is_the_one_evaluate_writes():
    cfg = RunConfig.default()
    scored = scoring.score_protocol(cfg, "openlane", GOLDEN / "openlane_gt.json",
                                    GOLDEN / "openlane_pred.json")
    assert isinstance(scored.report, EvalReport)
    assert scored.frames == list(range(16))
    assert scored.ids == [str(g) for g in range(16)]
    assert len(scored.pairs) == 16
    assert to_json(scored.report) == json.loads((GOLDEN / "openlane_report.json").read_text())
    cli_report = json.loads((GOLDEN / "openlane_cli_report.json").read_text())
    assert [scored.ids[i] for i in scored.report.empty_gt_frames] == cli_report["empty_gt_frames"]


def test_once_report_is_the_one_evaluate_writes():
    scored = scoring.score_protocol(RunConfig.default(), "once", GOLDEN / "once_gt.json",
                                    GOLDEN / "once_pred.json")
    assert isinstance(scored.report, OnceReport)
    assert to_json(scored.report) == json.loads((GOLDEN / "once_report.json").read_text())


def test_tag_filter_keeps_tagged_frames_and_a_frame_without_predictions_gets_none(tmp_path):
    gt = _edited(GOLDEN / "openlane_gt.json", tmp_path / "gt.json",
                 lambda d: [d["frames"][i].update(tags=["curve"]) for i in (3, 5)])
    pred = _edited(GOLDEN / "openlane_pred.json", tmp_path / "pred.json",
                   lambda d: d["frames"].pop(5))
    scored = scoring.score_protocol(RunConfig.default(), "openlane", gt, pred, "curve")
    assert (scored.frames, scored.ids) == ([3, 5], ["3", "5"])
    gt_lanes, pred_lanes = scored.pairs[1]
    assert len(gt_lanes) > 0 and pred_lanes == []


def test_a_missing_score_is_located_in_a_kept_frame_only(tmp_path):
    gt = _edited(GOLDEN / "openlane_gt.json", tmp_path / "gt.json",
                 lambda d: d["frames"][3].update(tags=["curve"]))
    pred = _edited(GOLDEN / "openlane_pred.json", tmp_path / "pred.json",
                   lambda d: [d["frames"][k]["lanes"][0].pop("score") for k in (2, 3)])
    with pytest.raises(FileFormatError) as e:
        scoring.score_protocol(RunConfig.default(), "openlane", gt, pred)
    assert (e.value.path, e.value.location) == (str(pred), "/frames/2/lanes/0/score")
    # Frame "2" is filtered out, so only frame "3" is read for scores.
    with pytest.raises(FileFormatError) as e:
        scoring.score_protocol(RunConfig.default(), "openlane", gt, pred, "curve")
    assert e.value.location == "/frames/3/lanes/0/score"


@pytest.mark.parametrize("name", ["read_lane_file", "evaluate_once"])
def test_library_calls_are_looked_up_at_call_time(monkeypatch, name):
    calls = []
    real = getattr(scoring, name)

    def spy(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(scoring, name, spy)
    scoring.score_protocol(RunConfig.default(), "once", GOLDEN / "once_gt.json",
                           GOLDEN / "once_pred.json")
    assert calls == [name] * (2 if name == "read_lane_file" else 1)
