"""Finite-difference verification of the analytic loss gradients.

Random small instances are drawn away from the kinks of the |.| terms and
the fork-exemption gate, then every coordinate of every proposal is
perturbed centrally and compared against the analytic gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .head import Proposal
from .lanes import Lane3D
from .losses import Assignment, LossConfig, ew_loss, ew_pair_widths, regression_loss

KINK_MARGIN = 1e-3
FD_STEP = 1e-6
TOLERANCE = 1e-5


@dataclass
class GradCheckResult:
    trials: int
    max_rel_error: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.max_rel_error < self.tolerance


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def _central_difference(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.shape[0]):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * h)
    return grad


def _instance_clear_of_kinks(gts, props, y, tau):
    """Whether every |.| argument and the fork gate are KINK_MARGIN clear of their kinks."""
    x = np.array([p.x for p in props])
    gvis = np.array([gt.visibility for gt in gts])
    near_x = np.abs(x - np.array([gt.x for gt in gts])) < KINK_MARGIN
    near_z = np.abs(np.array([p.z for p in props]) - np.array([gt.z for gt in gts])) < KINK_MARGIN
    near_vis = np.abs(np.array([p.vis for p in props]) - gvis) < KINK_MARGIN
    if np.any(((near_x | near_z) & (gvis > 0)) | near_vis):
        return False
    *_, gap, dev, delta_w = ew_pair_widths(x[:, None], x[None, :], y)
    off = ~np.eye(len(props), dtype=bool)  # row j against column jp, j != jp
    return not (np.any(np.abs(gap[off]) < KINK_MARGIN) or np.any(np.abs(dev[off]) < KINK_MARGIN)
                or np.any(np.abs(delta_w[off] - tau) < KINK_MARGIN))


def _draw_instance(rng: np.random.Generator, tau: float):
    """A near-parallel lane bundle with jitter, regenerated until every
    |.| argument and the gate are at least KINK_MARGIN from zero."""
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        y = 2.0 + np.cumsum(rng.uniform(1.0, 3.0, size=n))
        base = rng.uniform(-0.3, 0.3) * y + rng.uniform(-2, 2)
        offsets = np.cumsum(rng.uniform(2.0, 4.0, size=m))
        gts, props = [], []
        for j in range(m):
            gx = base + offsets[j]
            gz = rng.uniform(-0.5, 0.5) + rng.uniform(-0.01, 0.01) * y
            gvis = (rng.random(n) < 0.8).astype(np.float64)
            jitter = rng.uniform(0.005, 0.03, size=n) * rng.choice([-1.0, 1.0], size=n)
            jitter_z = rng.uniform(0.005, 0.03, size=n) * rng.choice([-1.0, 1.0], size=n)
            gts.append(Lane3D(x=gx, y=y, z=gz, visibility=gvis, category=0))
            props.append(
                Proposal(
                    class_probs=np.array([0.7, 0.3]),
                    x=gx + jitter,
                    z=gz + jitter_z,
                    vis=rng.uniform(0.1, 0.9, size=n),
                )
            )
        if _instance_clear_of_kinks(gts, props, y, tau):
            return gts, props, y
    raise RuntimeError("could not draw a kink-free instance")


def run_grad_check(trials: int, seed: int, cfg: LossConfig | None = None) -> GradCheckResult:
    """Check ew_loss and regression_loss gradients on random instances."""
    cfg = cfg or LossConfig()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        gts, props, y = _draw_instance(rng, cfg.tau)
        m = len(props)
        assignment = Assignment(
            sigma={i: i for i in range(m)},
            positives=list(range(m)),
            labels=np.zeros(m, dtype=np.intp),
        )

        _, reg_grad = regression_loss(gts, props, assignment)
        reg_value = lambda: regression_loss(gts, props, assignment)[0]
        for p, analytic_rows in (
            ("x", reg_grad.d_x),
            ("z", reg_grad.d_z),
            ("vis", reg_grad.d_vis),
        ):
            for j, prop in enumerate(props):
                arr = getattr(prop, p)
                numeric = _central_difference(reg_value, arr)
                worst = max(worst, _rel_error(analytic_rows[j], numeric))

        _, ew_grads = ew_loss(props, y, cfg)
        ew_value = lambda: ew_loss(props, y, cfg)[0]
        for j, prop in enumerate(props):
            numeric = _central_difference(ew_value, prop.x)
            worst = max(worst, _rel_error(ew_grads[j], numeric))
    return GradCheckResult(trials=trials, max_rel_error=worst, tolerance=TOLERANCE)


__all__ = [
    "FD_STEP",
    "GradCheckResult",
    "KINK_MARGIN",
    "TOLERANCE",
    "run_grad_check",
]
