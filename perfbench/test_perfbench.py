"""Tests of the benchmark itself: deterministic inputs, the printed metric
names, the output checks, and a tiny end-to-end run of every workload."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
import workloads as w  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", suite.WORKLOADS)
def test_seed_fixes_the_inputs(name, tmp_path):
    wl = suite.make_workload(name, w.TINY)
    digest = [w.input_digest(*wl.setup(seed, tmp_path / str(k)))
              for k, seed in enumerate((5, 5, 6))]
    assert digest[0] == digest[1]
    assert digest[0] != digest[2]


def _run(capsys, *args) -> dict:
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", suite.WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(name, capsys):
    start = time.perf_counter()
    for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(capsys, "--workload", name, "--seed", "3", "--seconds", "0.2",
                      "--trace", str(trace), "--size", "tiny")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in BENCHMARK[declared]} == {
            k: v["unit"] for k, v in result["metrics"].items()}
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert time.perf_counter() - start < 60


def test_benchmark_json_lists_the_workloads():
    assert [x["name"] for x in BENCHMARK["workloads"]] == list(suite.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "infer",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def infer_default():
    wl = suite.make_workload("infer", w.FULL)
    model, scenes = wl.setup(w.DEFAULT_SEED, None)
    return wl, model, scenes[0], checks.load_reference("infer")[0]


def _failures(wl, ctx, item, out, reference) -> int:
    checker = suite.Checker(wl, ctx, [item], None if reference is None else [reference])
    checker(out, 0)
    return checker.failed


def test_infer_output_matches_reference(infer_default):
    wl, model, scene, reference = infer_default
    assert _failures(wl, model, scene, wl.op(model, scene), reference) == 0


def test_nan_proposal_counts_as_failed(infer_default):
    wl, model, scene, reference = infer_default
    out = wl.op(model, scene)
    out[4].x[7] = np.nan
    assert checks.check_proposals(out, w.FULL.anchors)
    assert _failures(wl, model, scene, out, reference) == 1


def test_moved_lane_counts_as_failed(infer_default):
    wl, model, scene, reference = infer_default
    out = wl.op(model, scene)
    out[4].x += 0.01
    assert checks.check_proposals(out, w.FULL.anchors) == []
    assert _failures(wl, model, scene, out, reference) == 1


def test_miscounted_evaluation_counts_as_failed(tmp_path):
    wl = suite.make_workload("score_corpus", w.TINY)
    loss_cfg, bundles = wl.setup(4, tmp_path)
    out = wl.op(loss_cfg, bundles[0])
    assert _failures(wl, loss_cfg, bundles[0], out, None) == 0
    out.once.fn += 1
    assert _failures(wl, loss_cfg, bundles[0], out, None) == 1


def test_moved_prediction_file_counts_as_failed(tmp_path):
    wl = suite.make_workload("score_corpus", w.FULL)
    loss_cfg, bundles = wl.setup(w.DEFAULT_SEED, tmp_path)
    reference = checks.load_reference("score_corpus")[0]
    pred = bundles[0].path / "openlane_pred.json"
    doc = json.loads(pred.read_text())
    lane = doc["frames"][1]["lanes"][0]
    lane["points"] = [[x + 2.0, y, z] for x, y, z in lane["points"]]
    pred.write_text(json.dumps(doc))
    out = wl.op(loss_cfg, bundles[0])
    assert _failures(wl, loss_cfg, bundles[0], out, reference) == 1


def test_traced_run_times_the_programs_own_sub_layer_calls(capsys):
    before = [getattr(module, attr) for module, attr, _ in w.WRAPPED]
    result = _run(capsys, "--workload", "score_corpus", "--seed", "3", "--seconds", "0.2",
                  "--trace", "1", "--size", "tiny")
    assert [getattr(module, attr) for module, attr, _ in w.WRAPPED] == before
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("losses.solve_assignment", "evaluation.match_lanes", "evaluation.resample_lane",
                 "evaluation.rasterize_top_view", "evaluation.unilateral_chamfer"):
        assert m[f"{name}.samples"] > 0
    # The sweep matches every frame at every threshold, not once per frame.
    assert m["evaluation.match_lanes.samples"] >= m["evaluation.openlane.thresholds"]
