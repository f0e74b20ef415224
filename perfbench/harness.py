"""Timing, tracing and provenance shared by every workload.

Nothing here knows about lanes: workloads hand in callables and get back
timings, spans and summary statistics.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

# Span kinds: an op is one unit a user waits for; layer spans partition an
# op's work.
OP, LAYER = "op", "layer"


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


class Tracer:
    """In-memory span recorder; spans are written out only at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, kind: str = LAYER):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "kind": kind, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Time one call into a public function from outside."""
        with self.span(name):
            return fn(*args, **kwargs)

    def begin_op(self, index: int):
        self.op = index
        return self.span("op", OP)

    def durations(self, name: str) -> list[float]:
        """Seconds per span of ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, name: str) -> list[float]:
        """Seconds per span of ``name``, less the time of its child spans."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [s["end"] - s["start"] - child.get(s["id"], 0.0)
                for s in self.spans if s["name"] == name]

    def coverage(self) -> float:
        """Time in layer spans directly under an op over op time."""
        ops = sum(self.durations("op"))
        layers = sum(s["end"] - s["start"] for s in self.spans if s["kind"] == LAYER
                     and s["parent"] is not None and self.spans[s["parent"]]["kind"] == OP)
        return layers / ops if ops > 0 else 0.0

    @contextmanager
    def around(self, targets):
        """Give every call the program makes to ``module.attr`` its own span.

        ``targets`` holds (module, attr, span name).  The module global is
        replaced by a timing wrapper, so calls from inside the program are
        the ones timed, and restored on exit.  A missing attr is skipped.
        """
        saved = []

        def timed(fn, name):
            def call(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return call

        try:
            for module, attr, name in targets:
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, timed(fn, name))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def run_closed_loop(op, inputs: list, seconds: float, warmup: int, after, min_ops: int = 1):
    """Run ``op`` over the inputs in rotation, one call at a time.

    ``warmup`` calls run first and are not timed.  Timed calls continue
    until ``seconds`` have passed and at least ``min_ops`` calls were made;
    ``after(output, input index)`` runs outside the timed interval of each.
    Returns (seconds per timed call, input index per timed call).
    """
    n = len(inputs)
    for i in range(warmup):
        op(inputs[i % n])
    times, index = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        out = op(inputs[i % n])
        times.append(time.perf_counter() - t0)
        index.append(i % n)
        after(out, i % n)
        i += 1
    return times, index


def timed_setups(build, repeats: int, digest):
    """Call ``build`` ``repeats`` times.

    Returns (median seconds, the last result, the set of result digests);
    earlier results are dropped so that only one set of inputs is alive.
    """
    times, digests, result = [], set(), None
    for _ in range(repeats):
        result = None
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
        digests.add(digest(result))
    return statistics.median(times), result, digests


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the library NumPy loaded."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, seed: int, sizes: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "sizes": sizes,
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root / "src"),
        "argv": sys.argv[1:],
    }
