"""How each workload runs: set-up, the timed closed loop, the traced twin, the
output checks and the metrics each run reports."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import checks
import harness
import workloads as w

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("infer", "train_fusion", "score_corpus")
SETUP_REPEATS = 3


class Workload:
    """How one workload sets up, runs, traces and checks an operation."""

    warmup = 2

    def __init__(self, sizes):
        self.sizes = sizes

    def frames(self, item) -> int:
        return 1


class Infer(Workload):
    fusion = False

    def setup(self, seed, workdir):
        model = w.build_model(seed, self.sizes, self.fusion)
        return model, w.build_scenes(seed, self.sizes, model.profile, self.fusion)

    def op(self, model, item):
        return w.forward(model, item).proposals

    def traced(self, tr, model, item, keep):
        return w.traced_forward(tr, model, item, keep)

    def count(self, counts, model, item, out, keep):
        w.count_sampling(counts, keep)

    def check(self, model, item, out):
        return checks.check_proposals(out, self.sizes.anchors)

    def fingerprint(self, out):
        return checks.proposal_fingerprint(out)

    def same(self, a, b) -> bool:
        return len(a) == len(b) and all(
            np.array_equal(getattr(p, f), getattr(q, f))
            for p, q in zip(a, b) for f in ("x", "z", "vis", "class_probs"))


class TrainFusion(Infer):
    fusion = True

    def op(self, model, item):
        return w.train_step(model, item)

    def traced(self, tr, model, item, keep):
        return w.traced_train_step(tr, model, item, keep)

    def count(self, counts, model, item, out, keep):
        w.count_sampling(counts, keep)
        w.count_loss(counts, item.gts, out.proposals, out.assignment, model.loss_cfg, model.y)

    def check(self, model, item, out):
        return checks.check_step(out, len(item.gts), self.sizes.anchors)

    def fingerprint(self, out):
        return checks.step_fingerprint(out)

    def same(self, a, b) -> bool:
        return super().same(a.proposals, b.proposals) and a.breakdown == b.breakdown


class ScoreCorpus(Workload):
    warmup = 1

    def setup(self, seed, workdir):
        return w.LossConfig(), w.build_bundles(seed, self.sizes, workdir)

    def op(self, loss_cfg, item):
        return w.score(item, loss_cfg, time.perf_counter)

    def traced(self, tr, loss_cfg, item, keep):
        return w.traced_score(tr, item, loss_cfg, keep)

    def count(self, counts, loss_cfg, item, out, keep):
        w.count_score(counts, item, out, keep, loss_cfg)

    def frames(self, item) -> int:
        return sum(item.frames)

    def check(self, loss_cfg, item, out):
        return checks.check_score(out, item, w.EVAL_ONCE.tau_cd)

    def fingerprint(self, out):
        return checks.score_fingerprint(out)

    def same(self, a, b) -> bool:
        return self.fingerprint(a) == self.fingerprint(b)


def make_workload(name: str, sizes) -> Workload:
    return {"infer": Infer, "train_fusion": TrainFusion, "score_corpus": ScoreCorpus}[name](sizes)


TIMED_LAYERS = (
    "anchors.pool_and_weigh", "anchors.combine_metas", "anchors.materialize",
    "sampling.sample_anchors", "sampling.sample_anchor_lidar", "sampling.fuse",
    "head.self_attention", "head.cls_reg", "head.reseed",
    "losses.assign", "losses.total_loss", "losses.solve_assignment",
    "laneio.read_lane_file", "evaluation.resample_lane", "evaluation.match_lanes",
    "evaluation.evaluate_openlane", "evaluation.rasterize_top_view",
    "evaluation.unilateral_chamfer", "evaluation.evaluate_once",
)


class Checker:
    """Counts operations whose output fails a check; keeps the first output
    of each distinct input so a traced run can be compared with it."""

    def __init__(self, wl, ctx, items, reference):
        self.wl, self.ctx, self.items, self.reference = wl, ctx, items, reference
        self.attempted = self.failed = 0
        self.first: dict = {}
        self.problems: list[str] = []
        self.phase_s = [0.0, 0.0, 0.0]
        self.phase_frames = [0, 0, 0]

    def __call__(self, out, i):
        problems = self.wl.check(self.ctx, self.items[i], out)
        if self.reference is not None:
            problems += checks.compare(self.wl.fingerprint(out), self.reference[i])
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"input {i}: {'; '.join(problems)}")
        self.first.setdefault(i, out)
        if getattr(out, "phase_s", None) is not None:
            for k in range(3):
                self.phase_s[k] += out.phase_s[k]
                self.phase_frames[k] += self.items[i].frames[k]


def _ms(values) -> list[float]:
    return [1000.0 * v for v in values]


def layer_metrics(tr, counts, untraced_times, checker, wl) -> dict:
    samples = {name: _ms(tr.durations(name)) for name in TIMED_LAYERS}
    samples["head.cls_reg"] = _ms(tr.self_times("head.predict"))
    out = {}
    for name in TIMED_LAYERS:
        v = samples[name]
        out[f"{name}.ms_p50"] = (harness.percentile(v, 50), "ms")
        out[f"{name}.ms_p90"] = (harness.percentile(v, 90), "ms")
        out[f"{name}.samples"] = (len(v), "count")
    flops = bytes_ = 0
    if samples["head.self_attention"]:
        n_c = w.sizes_report(wl.sizes)["nc_train_fusion" if wl.fusion else "nc_infer"]
        flops, bytes_ = w.attention_cost(wl.sizes.anchors, n_c)
    points = counts["points"]
    out.update({
        "sampling.valid_frac": (counts["valid"] / points if points else 0.0, "ratio"),
        "sampling.lidar_valid_frac": (counts["lidar_valid"] / points if points else 0.0, "ratio"),
        "head.self_attention.flops": (flops, "flop"),
        "head.self_attention.bytes": (bytes_, "byte"),
        "losses.assign.cost_evals": (counts["cost_evals"], "count"),
        "losses.ew_pairs": (counts["ew_pairs"], "count"),
        "losses.ew_pairs_exempt": (counts["ew_pairs_exempt"], "count"),
        "evaluation.openlane.thresholds": (counts["thresholds"], "count"),
        "evaluation.rasterize_top_view.cells_p50": (harness.percentile(counts["cells"], 50), "count"),
        "evaluation.once.iou_gate_pass_frac": (
            counts["iou_pass"] / counts["iou_pairs"] if counts["iou_pairs"] else 0.0, "ratio"),
    })
    for k, phase in enumerate(("loss", "openlane", "once")):
        s = checker.phase_s[k]
        out[f"score.{phase}_frames_per_s"] = (checker.phase_frames[k] / s if s else 0.0, "1/s")
    traced = tr.durations("op")
    out["trace.coverage_frac"] = (tr.coverage(), "ratio")
    out["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced_times) - 1.0,
                                  "ratio")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, sizes):
    """One benchmark run: (result object, problems found, spans if traced,
    unbounded end-to-end figures that are not in the result)."""
    wl = make_workload(name, sizes)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        setup_s, (ctx, items), digests = harness.timed_setups(
            lambda: wl.setup(seed, workdir), SETUP_REPEATS, lambda built: w.input_digest(*built))
        reference = None
        if seed == w.DEFAULT_SEED and sizes == w.FULL:
            reference = checks.load_reference(name)
        checker = Checker(wl, ctx, items, reference)
        problems = [] if len(digests) == 1 else ["set-up is not deterministic"]

        untraced = seconds / 2 if trace else seconds
        times, index = harness.run_closed_loop(
            lambda it: wl.op(ctx, it), items, untraced, wl.warmup, checker,
            min_ops=len(items) if trace else 1)
        frames = [wl.frames(items[i]) for i in index]
        per_frame = [t / f for t, f in zip(times, frames)]
        # Throughput and median latency follow the share of a run the host
        # spends in its fast speed state (see layer_map.json), so they are
        # reported but not bounded.
        ungated = {
            "frames_per_s": (sum(frames) / sum(times), "1/s"),
            "frame_ms_p50": (1000.0 * harness.percentile(per_frame, 50), "ms"),
        }
        metrics = {
            "frame_ms_p90": (1000.0 * harness.percentile(per_frame, 90), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        }
        spans = []
        if trace:
            tr = harness.Tracer()
            counts = w.new_counts()
            state = {"op": 0, "keep": []}

            def traced_op(item):
                k = state["op"]
                state["op"] += 1
                state["keep"] = []
                with tr.begin_op(k):
                    return wl.traced(tr, ctx, item, state["keep"])

            def traced_check(out, i):
                checker(out, i)
                # Exact counts and the comparison with the program's output
                # cover one pass over the distinct inputs.
                if state["op"] <= len(items):
                    wl.count(counts, ctx, items[i], out, state["keep"])
                    if not wl.same(out, checker.first[i]):
                        problems.append(f"traced output of input {i} differs from the program's")

            with tr.around(w.WRAPPED):
                harness.run_closed_loop(traced_op, items, seconds / 2, 0, traced_check,
                                        min_ops=len(items))
            metrics = layer_metrics(tr, counts, times, checker, wl)
            metrics.update({f"e2e.{k}": v for k, v in ungated.items()})
            ungated = {}
            spans = tr.spans
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    problems += checker.problems
    result = {
        "correct": not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, problems, spans, ungated


def record_reference() -> None:
    """Write the default seed's fingerprints at full size to reference.json."""
    ref = {}
    for name in WORKLOADS:
        wl = make_workload(name, w.FULL)
        workdir = WORK / f"reference-{name}"
        try:
            ctx, items = wl.setup(w.DEFAULT_SEED, workdir)
            ref[name] = []
            for item in items:
                out = wl.op(ctx, item)
                problems = wl.check(ctx, item, out)
                if problems:
                    raise SystemExit(f"error: {name} output fails its checks: {problems}")
                ref[name].append(wl.fingerprint(out))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    checks.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE}")
