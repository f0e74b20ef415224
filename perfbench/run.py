"""Layer-by-layer benchmark of lane3d-kit.

Run from the repository root:

    python3 perfbench/run.py --workload infer --seed 0 --seconds 20 --trace 0

One closed-loop caller runs one workload in this process: the next
operation starts only when the previous one has returned.  OpenBLAS is
pinned to one thread.  With ``--trace 0`` the run measures the end-to-end
metrics, and prints throughput and median latency beside them; with ``--trace 1`` it spends half its time untraced and half
running a traced twin of the same operation, and reports the per-layer
metrics listed in ``BENCHMARK.json`` (workloads that never reach a layer
report 0 for it).  Every output is checked; the last line of stdout is the
result object, the line before it the provenance.  ``layer_map.json``
says which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import os

# Must precede the first NumPy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def _import_program():
    """Import lane3d_kit from this checkout's ``src``, or explain why not."""
    if not (SRC / "lane3d_kit" / "__init__.py").is_file():
        raise SystemExit(f"error: no lane3d_kit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import lane3d_kit

    if Path(lane3d_kit.__file__).resolve().parent != (SRC / "lane3d_kit").resolve():
        raise SystemExit(f"error: imported lane3d_kit from {lane3d_kit.__file__}, not {SRC}")


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="infer, train_fusion or score_corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input for smoke tests")
    p.add_argument("--record-reference", action="store_true",
                   help="write reference.json from the default seed and exit")
    return p


def main(argv=None) -> int:
    p = parser()
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    _import_program()
    import harness
    import suite
    import workloads as w

    if not args.record_reference and args.workload not in suite.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(suite.WORKLOADS)}")
    if args.record_reference:
        suite.record_reference()
        return 0
    sizes = w.FULL if args.size == "full" else w.TINY
    result, problems, spans, ungated = suite.run(args.workload, args.seed, args.seconds,
                                                 bool(args.trace), sizes)
    prov = harness.provenance(ROOT, args.seed, w.sizes_report(sizes))
    failed_frac = result["failed"] / result["attempted"]
    shown = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
    for key, (value, unit) in {**shown, **ungated}.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed_frac:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"provenance": prov, "result": result, "spans": spans}) + "\n")
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"provenance": prov, "failed_frac": failed_frac}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
