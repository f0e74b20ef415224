"""Finite-difference verification of the analytic loss gradients.

Random small instances are drawn as rows, the (3, M, N) x, z and visibility
of M matched GT lanes and of their proposals, away from the kinks of the |.|
terms and the fork-exemption gate.  Then every proposal coordinate is
perturbed centrally and compared against the analytic gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import check_positive
from .losses import LossConfig, ew_loss, ew_pair_widths, regression_loss

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


def _central_difference(f, x: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.shape[0]):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        hi = f()
        flat[i] = orig - FD_STEP
        lo = f()
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * FD_STEP)
    return grad


def _instance_clear_of_kinks(gt: np.ndarray, pred: np.ndarray, y: np.ndarray, tau: float):
    """Whether every |.| argument and the fork gate are KINK_MARGIN clear of their kinks."""
    near = np.abs(pred - gt) < KINK_MARGIN
    if np.any(near[:2] & (gt[2] > 0)) or np.any(near[2]):
        return False
    *_, gap, dev, delta_w = ew_pair_widths(pred[0][:, None], pred[0][None, :], y)
    off = ~np.eye(pred.shape[1], dtype=bool)  # row j against column jp, j != jp
    return not (np.any(np.abs(gap[off]) < KINK_MARGIN) or np.any(np.abs(dev[off]) < KINK_MARGIN)
                or np.any(np.abs(delta_w[off] - tau) < KINK_MARGIN))


def _draw_instance(rng: np.random.Generator, tau: float):
    """A near-parallel lane bundle with jitter, regenerated until every
    |.| argument and the gate are at least KINK_MARGIN from zero.  Returns
    the GT and proposal rows, proposal j matched to GT lane j, and the y grid."""
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        y = 2.0 + np.cumsum(rng.uniform(1.0, 3.0, size=n))
        base = rng.uniform(-0.3, 0.3) * y + rng.uniform(-2, 2)
        offsets = np.cumsum(rng.uniform(2.0, 4.0, size=m))
        gt, pred = np.empty((2, 3, m, n))
        for j in range(m):
            gt[0, j] = base + offsets[j]
            gt[1, j] = rng.uniform(-0.5, 0.5) + rng.uniform(-0.01, 0.01) * y
            gt[2, j] = rng.random(n) < 0.8
            pred[:2, j] = gt[:2, j] + [
                rng.uniform(0.005, 0.03, size=n) * rng.choice([-1.0, 1.0], size=n)
                for _ in range(2)
            ]
            pred[2, j] = rng.uniform(0.1, 0.9, size=n)
        if _instance_clear_of_kinks(gt, pred, y, tau):
            return gt, pred, y
    raise RuntimeError("could not draw a kink-free instance")


def run_grad_check(trials: int, seed: int, cfg: LossConfig | None = None) -> GradCheckResult:
    """Check ew_loss and regression_loss gradients on random instances."""
    check_positive(trials=trials)
    cfg = cfg or LossConfig()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        gt, pred, y = _draw_instance(rng, cfg.tau)
        _, analytic = regression_loss(gt, pred)
        numeric = _central_difference(lambda: regression_loss(gt, pred)[0], pred)
        worst = max(worst, _rel_error(analytic, numeric))

        x = pred[0]
        _, analytic = ew_loss(x, y, cfg)
        numeric = _central_difference(lambda: ew_loss(x, y, cfg)[0], x)
        worst = max(worst, _rel_error(analytic, numeric))
    return GradCheckResult(trials=trials, max_rel_error=worst, tolerance=TOLERANCE)


__all__ = [
    "FD_STEP",
    "GradCheckResult",
    "KINK_MARGIN",
    "TOLERANCE",
    "run_grad_check",
]
