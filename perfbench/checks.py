"""Output checks behind ``failed``.

Every operation's output is checked against invariants that hold for any
seed.  For the default seed at full size it is also compared with the
fingerprints recorded in ``reference.json``.  Each check returns a list of
problems; an operation fails when the list is not empty.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
# Float reassociation moves these sums by ~1e-15 of their scale; a lane
# moved by a centimetre moves them by ~1e-5 of it.
REL_TOL = 1e-9
PROB_SUM_TOL = 1e-9


def _project(values) -> list[float]:
    """Two numbers that summarise an array: a fixed-weight projection and
    its absolute sum."""
    a = np.asarray(values, dtype=np.float64).ravel()
    w = np.cos(0.7 * np.arange(a.size) + 0.3)
    return [float(a @ w), float(np.abs(a).sum())]


def _stack(props, field: str) -> np.ndarray:
    return np.array([getattr(p, field) for p in props], dtype=np.float64)


def proposal_fingerprint(props: list) -> list[float]:
    return [x for f in ("x", "z", "vis", "class_probs", "score") for x in _project(_stack(props, f))]


def check_proposals(props: list, num_anchors: int) -> list[str]:
    if len(props) != num_anchors:
        return [f"{len(props)} proposals, expected {num_anchors}"]
    problems = []
    for f in ("x", "z", "vis", "class_probs", "score"):
        if not np.all(np.isfinite(_stack(props, f))):
            problems.append(f"non-finite {f}")
    probs = _stack(props, "class_probs")
    if np.any(probs < 0.0) or np.any(np.abs(probs.sum(axis=1) - 1.0) > PROB_SUM_TOL):
        problems.append("class_probs rows are not distributions")
    vis = _stack(props, "vis")
    if np.any(vis < 0.0) or np.any(vis > 1.0):
        problems.append("visibility outside [0, 1]")
    return problems


def step_fingerprint(step) -> list[float]:
    b, g = step.breakdown, step.grads
    return (proposal_fingerprint(step.proposals) + [b.cls, b.reg, b.ew, b.total]
            + _project(g.d_x) + _project(g.d_z) + _project(g.d_vis)
            + _project(step.assignment.positives))


def check_step(step, num_gt: int, num_anchors: int) -> list[str]:
    problems = check_proposals(step.proposals, num_anchors)
    b = step.breakdown
    values = [b.cls, b.reg, b.ew, b.total]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        problems.append(f"loss breakdown not finite and non-negative: {values}")
    for name in ("d_x", "d_z", "d_vis"):
        if not np.all(np.isfinite(getattr(step.grads, name))):
            problems.append(f"non-finite gradient {name}")
    pos = step.assignment.positives
    if len(pos) != num_gt or len(set(pos)) != len(pos):
        problems.append(f"assignment has {len(pos)} positives for {num_gt} GT lanes")
    return problems


def score_fingerprint(out) -> list[float]:
    sums = [sum(getattr(b, f) for b in out.losses) for f in ("cls", "reg", "ew", "total")]
    ol, once = out.openlane, out.once
    best = next(c for c in ol.counts if c.threshold == ol.best_threshold)
    return (sums + _project([b.total for b in out.losses])
            + [ol.f1, ol.ap, ol.category_accuracy, ol.ex_near, ol.ex_far, ol.ez_near,
               ol.ez_far, ol.best_threshold, best.tp, best.fp, best.fn, len(ol.counts)]
            + [once.f1, once.precision, once.recall, once.cd_error, once.tp, once.fp, once.fn])


def check_score(out, bundle, tau_cd: float) -> list[str]:
    problems = []
    if any(not math.isfinite(b.total) or b.total < 0.0 for b in out.losses):
        problems.append("loss not finite and non-negative")
    if out.positives != bundle.loss_gt_counts:
        problems.append("loss assignment does not cover every GT lane")
    ol = out.openlane
    head = [ol.f1, ol.ap, ol.category_accuracy, ol.ex_near, ol.ex_far, ol.ez_near, ol.ez_far]
    if not all(math.isfinite(v) for v in head) or not 0.0 <= ol.f1 <= 100.0:
        problems.append(f"openlane headline figures invalid: {head}")
    scores = np.array(bundle.ol_usable_scores)
    if len(ol.counts) != len(set(bundle.ol_usable_scores)):
        problems.append(f"openlane swept {len(ol.counts)} thresholds")
    for c in ol.counts:
        if c.tp + c.fn != bundle.ol_usable_gt:
            problems.append(f"openlane TP+FN={c.tp + c.fn} at {c.threshold}, "
                            f"GT lanes={bundle.ol_usable_gt}")
            break
        if c.tp + c.fp != int(np.count_nonzero(scores >= c.threshold)):
            problems.append(f"openlane TP+FP does not match kept predictions at {c.threshold}")
            break
    once = out.once
    if once.tp + once.fn != bundle.once_visible_gt:
        problems.append(f"ONCE TP+FN={once.tp + once.fn}, GT lanes={bundle.once_visible_gt}")
    if once.tp + once.fp != bundle.once_visible_preds:
        problems.append(f"ONCE TP+FP={once.tp + once.fp}, predictions={bundle.once_visible_preds}")
    if not math.isfinite(once.cd_error) or (once.tp and not 0.0 <= once.cd_error < tau_cd):
        problems.append(f"ONCE cd_error {once.cd_error} invalid")
    return problems


def compare(fingerprint: list[float], reference: list[float]) -> list[str]:
    if len(fingerprint) != len(reference):
        return [f"fingerprint has {len(fingerprint)} values, reference {len(reference)}"]
    tol = REL_TOL * (1.0 + sum(abs(r) for r in reference))
    bad = [i for i, (a, b) in enumerate(zip(fingerprint, reference)) if not abs(a - b) <= tol]
    return [f"differs from reference at {bad}"] if bad else []


def load_reference(workload: str) -> list | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)
