"""Command-line surface binding all modules together.

Subcommands: gen-scene, gen-weights, anchors, forward, loss, evaluate,
grad-check.  Exit codes: 0 success, 2 input error, 3 invariant/verification
failure.  ``loss`` and ``evaluate`` score their files through
:mod:`lane3d_kit.scoring`, which states how frames are paired and lanes
checked.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .anchors import CoefficientHeadWeights, PrototypeBank, generate_anchors
from .config import RunConfig, check_positive, make_profile
from .errors import FileFormatError, Lane3DKitError
from .evaluation import EvalReport, format_report_table
from .gradcheck import run_grad_check
from .head import HeadWeights, run_pipeline
from .jsonable import dumps, from_json, read_json, to_json
from .laneio import Frame, read_lane_file, write_lane_file
from .sampling import FeatureMap, FeatureVolume
from .scoring import score_losses, score_protocol
from .synth import (
    NoiseSpec,
    SceneSpec,
    generate_scene,
    perturb_predictions,
    rasterize_features,
    rasterize_volume,
)
from .tensorio import read_tensors, write_tensors

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3

_LEVELS = (3, 4, 5)
_DEFAULT_SIGMA = 6.0
_DEFAULT_LIDAR_DIMS = (6, 24, 16)


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig.default()
    return from_json(RunConfig, read_json(path), path)


def _print_json(obj) -> None:
    print(dumps(obj))


# --- weights file ------------------------------------------------------------


def save_weights_file(
    path,
    bank: PrototypeBank,
    coeff: CoefficientHeadWeights,
    heads: dict[str, HeadWeights],
) -> None:
    """Store each weights field as the tensor ``<prefix>.<field>``."""
    parts = {"proto": bank, "coeff": coeff, **{f"head.{wid}": w for wid, w in heads.items()}}
    write_tensors(path, {f"{prefix}.{f.name}": getattr(obj, f.name)
                         for prefix, obj in parts.items() for f in fields(obj)})


def load_weights_file(path):
    raw = read_tensors(path)

    def take(prefix, cls):
        kwargs = {}
        for f in fields(cls):
            name = f"{prefix}.{f.name}"
            if name not in raw:
                raise FileFormatError(path, name, "missing tensor")
            kwargs[f.name] = raw[name]
        return cls(**kwargs)

    bank = take("proto", PrototypeBank)
    coeff = take("coeff", CoefficientHeadWeights)
    head_ids = sorted({name.split(".")[1] for name in raw if name.startswith("head.")})
    return bank, coeff, {wid: take(f"head.{wid}", HeadWeights) for wid in head_ids}


def make_random_weights(cfg: RunConfig, seed: int, scale: float):
    rng = np.random.default_rng(seed)
    m_xs, m_phi, m_theta = cfg.num_prototypes
    bank = PrototypeBank.uniform(m_xs, m_phi, m_theta)
    h_f, w_f = cfg.feature_size
    coeff = CoefficientHeadWeights.random(
        rng, w_f * cfg.feature_channels, cfg.num_anchors, bank, scale=scale
    )
    channels = cfg.feature_channels + (cfg.lidar_channels if cfg.fusion else 0)
    feature_len = cfg.profile.num_points * channels
    heads = {}
    for _, wid in cfg.plan.stages:
        if wid not in heads:
            heads[wid] = HeadWeights.random(
                rng, feature_len, cfg.profile.num_categories, cfg.profile.num_points,
                scale=scale,
            )
    return bank, coeff, heads


# --- scene files --------------------------------------------------------------


def _frame_tensors(tensors: dict, path, frame_id: str, *names: str) -> list[np.ndarray]:
    """Tensors ``names`` of frame ``frame_id``, all under one prefix.

    The frame's own ``<id>/<name>`` tensors win when the frame has every one
    of them; otherwise the shared ``<name>`` ones are used.  Names missing
    under both prefixes are an input error at the first name.
    """
    for prefix in (f"{frame_id}/", ""):
        if all(prefix + name in tensors for name in names):
            return [np.asarray(tensors[prefix + name], dtype=np.float64) for name in names]
    raise FileFormatError(path, names[0], "missing tensor")


@dataclass
class _GenSceneSpec(SceneSpec):
    """A gen-scene spec: the scene plus how to render it; every key may be omitted."""

    profile: str = "openlane"
    sigma: float = _DEFAULT_SIGMA
    feature_channels: int = 64
    lidar: bool = False
    lidar_channels: int = 8
    noise: NoiseSpec | None = None

    def __post_init__(self):
        super().__post_init__()
        check_positive(feature_channels=self.feature_channels)
        if self.lidar:
            check_positive(lidar_channels=self.lidar_channels)


def cmd_gen_scene(args) -> int:
    doc = read_json(args.spec)
    if not isinstance(doc, dict):
        raise FileFormatError(args.spec, "/", "expected an object")
    doc = {**to_json(_GenSceneSpec()), **doc}
    if isinstance(doc["noise"], dict):
        doc["noise"] = {**to_json(NoiseSpec()), **doc["noise"]}
    spec = from_json(_GenSceneSpec, doc, args.spec)
    profile = make_profile(spec.profile)

    gts, rig = generate_scene(spec, profile, with_lidar=spec.lidar)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_lane_file(out / "gt.json", [Frame(id="0", camera=rig, lanes=gts)])

    fm = rasterize_features(gts, rig, (*rig.feature_size, spec.feature_channels), spec.sigma)
    tensors = {f"F{level}": fm.data for level in _LEVELS}
    if spec.lidar:
        extent = np.array([[-15.0, 15.0], [0.0, 105.0], [-2.0, 3.0]])
        dims = (*_DEFAULT_LIDAR_DIMS, spec.lidar_channels)
        vol = rasterize_volume(gts, dims, extent)
        for level in _LEVELS:
            tensors[f"L{level}"] = vol.data
            tensors[f"L{level}.extent"] = vol.extent
    write_tensors(out / "features.a3t", tensors)
    if spec.noise is not None:
        props = perturb_predictions(gts, spec.noise, spec.seed, profile.num_categories)
        lanes = [p.to_lane(profile.y_samples) for p in props]
        write_lane_file(out / "preds.json", [Frame(id="0", camera=rig, lanes=lanes)])
    print(f"wrote scene with {len(gts)} lanes to {out}")
    return EXIT_OK


def cmd_gen_weights(args) -> int:
    cfg = _load_config(args.config)
    bank, coeff, heads = make_random_weights(cfg, args.seed, scale=args.scale)
    save_weights_file(args.out, bank, coeff, heads)
    print(f"wrote {len(heads)} head(s) to {args.out}")
    return EXIT_OK


def cmd_anchors(args) -> int:
    cfg = _load_config(args.config)
    bank, coeff_w, _ = load_weights_file(args.weights)
    (f5,) = _frame_tensors(read_tensors(args.features), args.features, "0", "F5")
    anchors = generate_anchors(FeatureMap(f5, level=5), bank, coeff_w, cfg.meta_ranges,
                               cfg.profile.y_samples)
    doc = {"metas": to_json([a.metas for a in anchors]),
           "anchors": [a.points.tolist() for a in anchors]}
    Path(args.out).write_text(dumps(doc) + "\n")
    print(f"wrote {len(anchors)} anchors to {args.out}")
    return EXIT_OK


def _forward_frame(cfg: RunConfig, scene: Path, i: int, frame: Frame, tensors: dict, weights):
    """Run the pipeline on frame ``i`` of ``scene``'s ``gt.json``."""
    rig = frame.camera
    if rig is None:
        raise FileFormatError(scene / "gt.json", f"/frames/{i}/camera", "frame has no rig")

    def lookup(*names):
        return _frame_tensors(tensors, scene / "features.a3t", frame.id, *names)

    # The anchors are generated from level 5; each stage reads its own level.
    levels = [level for level, _ in cfg.plan.stages]
    maps = {level: FeatureMap(*lookup(f"F{level}"), level=level) for level in (5, *levels)}
    vols = ({level: FeatureVolume(*lookup(f"L{level}", f"L{level}.extent")) for level in levels}
            if cfg.fusion else None)
    bank, coeff_w, heads = weights
    return run_pipeline(
        maps, vols, rig, bank, coeff_w, heads, cfg.plan,
        cfg.profile.y_samples, cfg.meta_ranges,
    )


def cmd_forward(args) -> int:
    cfg = _load_config(args.config)
    scene = Path(args.scene)
    frames = read_lane_file(scene / "gt.json")
    tensors = read_tensors(scene / "features.a3t")
    weights = load_weights_file(args.weights)
    columns = {"cls_w": ("S+1", cfg.profile.num_categories + 1),
               "reg_w": ("3N", 3 * cfg.profile.num_points)}
    for i, (_, wid) in enumerate(cfg.plan.stages):
        if wid not in weights[2]:
            raise FileFormatError(args.config or "default config", f"/plan/{i}",
                                  f"head weights id {wid!r} is not in {args.weights}")
        for name, (label, want) in columns.items():
            got = getattr(weights[2][wid], name).shape[1]
            if got != want:
                raise FileFormatError(args.weights, f"head.{wid}.{name}",
                                      f"expected {label} = {want} columns, got {got}")

    out_frames = []
    traces = []
    for i, frame in enumerate(frames):
        result = _forward_frame(cfg, scene, i, frame, tensors, weights)
        lanes = [p.to_lane(cfg.profile.y_samples) for p in result.proposals]
        out_frames.append(Frame(id=frame.id, camera=frame.camera, lanes=lanes, tags=frame.tags))
        if args.trace:
            traces.append({"frame": frame.id, "stages": to_json(result.trace)})
    write_lane_file(args.out, out_frames)
    if args.trace:
        Path(args.trace).write_text(dumps(traces) + "\n")
    print(f"wrote proposals for {len(out_frames)} frame(s) to {args.out}")
    return EXIT_OK


def cmd_loss(args) -> int:
    cfg = _load_config(args.config)
    per_frame = [{"id": fid, **to_json(breakdown)}
                 for fid, breakdown, _ in score_losses(cfg, args.gt, args.pred)]
    sums = {key: sum((f[key] for f in per_frame), 0.0) for key in ("cls", "reg", "ew", "total")}
    _print_json({"frames": per_frame, "sum": sums})
    return EXIT_OK


def _write_svg(path, gts, preds) -> None:
    # Top view: x right, y up, 5 px per meter over x in [-20, 20], y in [0, 110].
    def pts(lane):
        return " ".join(
            f"{(x + 20) * 5:.1f},{(110 - y) * 5:.1f}" for x, y in zip(lane.x, lane.y)
        )

    rows = ['<svg xmlns="http://www.w3.org/2000/svg" width="200" height="550">']
    for lane in gts:
        rows.append(f'<polyline points="{pts(lane)}" fill="none" stroke="green"/>')
    for lane in preds:
        rows.append(
            f'<polyline points="{pts(lane)}" fill="none" stroke="red" stroke-dasharray="4"/>'
        )
    rows.append("</svg>")
    Path(path).write_text("\n".join(rows) + "\n")


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    scored = score_protocol(cfg, args.protocol, args.gt, args.pred, args.tag_filter)
    report = scored.report
    doc = to_json(report)
    if isinstance(report, EvalReport):
        doc["empty_gt_frames"] = [scored.ids[i] for i in report.empty_gt_frames]
    if args.plot:
        for g, fid in zip(scored.frames, scored.ids):
            if "/" in fid or "\0" in fid:
                raise FileFormatError(args.gt, f"/frames/{g}/id",
                                      "a frame id with '/' or NUL cannot name a plot file")
        plot_dir = Path(args.plot)
        plot_dir.mkdir(parents=True, exist_ok=True)
        written = []
        try:
            for (gts, preds), fid in zip(scored.pairs, scored.ids):
                path = plot_dir / f"frame_{fid}.svg"
                _write_svg(path, gts, preds)
                written.append(path)
        except OSError:
            for path in written:  # leave no partial set of plots behind
                path.unlink(missing_ok=True)
            raise
    if args.out:
        Path(args.out).write_text(dumps(doc) + "\n")
    _print_json(doc)
    if isinstance(report, EvalReport):
        print(format_report_table(report))
    return EXIT_OK


def cmd_grad_check(args) -> int:
    cfg = _load_config(args.config)
    result = run_grad_check(args.trials, args.seed, cfg.loss)
    _print_json(to_json(result))
    return EXIT_OK if result.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lane3d-kit",
        description="3D lane anchors, losses, and evaluation at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="generate a synthetic scene directory")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("gen-weights", help="generate a random seeded weights file")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_weights)

    p = sub.add_parser("anchors", help="emit adaptive anchors for a feature file")
    p.add_argument("--config", default=None)
    p.add_argument("--features", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("forward", help="run the refinement pipeline on a scene")
    p.add_argument("--config", default=None)
    p.add_argument("--scene", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("loss", help="compute losses for predictions against GT")
    p.add_argument("--config", default=None)
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("evaluate", help="run a metric protocol over lane files")
    p.add_argument("--protocol", choices=("openlane", "once"), required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--tag-filter", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grad-check", help="verify analytic gradients numerically")
    p.add_argument("--config", default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, Lane3DKitError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
