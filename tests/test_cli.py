import json
from pathlib import Path

import pytest

from lane3d_kit.cli import EXIT_INPUT, EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_bench_reports_throughput(capsys):
    code, out, _ = run(capsys, "bench", "--frames", 1, "--seed", 0)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"frames", "seconds", "fps"}
    assert doc["frames"] == 1 and doc["fps"] > 0


@pytest.mark.parametrize("frames", ["0", "-3", "two"])
def test_bench_rejects_frames_that_are_not_positive(capsys, frames):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--frames", frames])
    assert exc.value.code == EXIT_INPUT
    assert "--frames" in capsys.readouterr().err


def test_evaluate_openlane_writes_the_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "evaluate", "--protocol", "openlane",
                         "--gt", GOLDEN / "openlane_gt.json",
                         "--pred", GOLDEN / "openlane_pred.json", "--out", out_path)
    assert code == EXIT_OK and err == ""
    want = json.loads((GOLDEN / "openlane_report.json").read_text())
    # The command names empty frames by id rather than by position.
    want["empty_gt_frames"] = [str(i) for i in want["empty_gt_frames"]]
    assert json.loads(out_path.read_text()) == want
    table = out.splitlines()[-2:]
    assert table[0].split() == ["F1", "CAcc", "Ex/N", "Ex/F", "Ez/N", "Ez/F", "AP"]
    assert float(table[1].split()[0]) == pytest.approx(want["f1"], abs=0.005)


def test_evaluate_once_writes_the_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "evaluate", "--protocol", "once",
                         "--gt", GOLDEN / "once_gt.json",
                         "--pred", GOLDEN / "once_pred.json", "--out", out_path)
    assert code == EXIT_OK and err == ""
    assert out_path.read_text() == (GOLDEN / "once_report.json").read_text()
    assert json.loads(out) == json.loads(out_path.read_text())


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
