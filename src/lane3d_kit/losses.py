"""Matching, training losses, and their analytic gradients.

Ground-truth lanes are paired one-to-one with proposals by minimizing a
combined classification/geometry cost over injective assignments.  The
losses are the negative-log classification term over all proposals, a
visibility-masked L1 regression term over the assigned pairs, and an
equal-width regularizer that penalizes variation in pairwise lane widths
while exempting forks via a threshold gate.

Gradients are exposed with respect to proposal coordinates (x, z, vis) so
they can be verified against finite differences; at kinks of |.| terms the
subgradient 0 is used.

Only :func:`assign` and :func:`total_loss` read lane objects: each stacks
the fields it needs into (L, N) rows, one array per field, and the costs and
losses work on those arrays.  :func:`total_loss` gathers the K matched pairs
into (3, K, N) x, z and visibility rows, and the equal-width functions
broadcast over leading axes.  Totals add the per-pair values in pair order,
as a loop would.

:func:`solve_assignment`, which the losses and both metrics match with, is
a pure-Python port of the rectangular shortest-augmenting-path algorithm
(Crouse, "On implementing 2D rectangular assignment algorithms", IEEE TAES
2016) as SciPy's ``linear_sum_assignment`` runs it, so no command loads
``scipy.optimize`` (about 49 MB and 0.35 s for calls of microseconds).  It
keeps SciPy's choices where several assignments cost the same: columns are
scanned from the last down, a scanned column leaves the list by swap-remove,
and of the columns at the lowest path cost it takes the last free one in
scan order, else the first.  ``tests/test_losses.py``
(``test_solve_assignment_returns_scipys_pairs``) checks that it returns
SciPy's pairs and error messages on drawn matrices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AllInvisible, DegenerateSegment, LengthMismatch, ProbabilityUnderflow
from .head import Proposal
from .lanes import Lane3D

_PROB_FLOOR = 1e-30


@dataclass
class LossConfig:
    """Cost and loss coefficients plus the fork-exemption threshold (meters)."""

    beta_cls: float = 1.0
    beta_dis: float = 3.0
    lambda_cls: float = 1.0
    lambda_reg: float = 1.0
    lambda_ew: float = 0.1
    tau: float = 0.1

    def __post_init__(self):
        for name in ("beta_cls", "beta_dis", "lambda_cls", "lambda_reg", "lambda_ew"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")


@dataclass
class Assignment:
    """Result of one-to-one matching.

    ``sigma`` maps ground-truth index to proposal index; ``positives`` lists
    the assigned proposal indices in ground-truth order; ``labels`` gives
    every proposal its class index, with unassigned proposals labeled with
    the last (non-lane) class.
    """

    sigma: dict[int, int]
    positives: list[int]
    labels: np.ndarray


def solve_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost injective row-to-column assignment (rectangular).

    Returns the (row, column) pairs sorted by row: every row of a wide or
    square matrix, every column of a tall one.  Raises ``ValueError`` for a
    NaN or -inf entry, or when some row can reach no finite column.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    if not cost.min() > -math.inf:  # NaN propagates through min
        raise ValueError("matrix contains invalid numeric entries")
    # Rows are matched one by one, so the shorter side is made the rows.
    transpose = cost.shape[1] < cost.shape[0]
    c = (cost.T if transpose else cost).tolist()
    nr, nc = len(c), len(c[0])
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # Dijkstra over reduced costs from row ``cur`` to the nearest free column.
        short = [math.inf] * nc
        remaining = list(range(nc - 1, -1, -1))  # reversed: a constant matrix gives the identity
        rows_seen, cols_seen = [], []
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            rows_seen.append(i)
            row, ui = c[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = short[j]
                if r < s:
                    path[j] = i
                    short[j] = s = r
                # On a tie, prefer a free column: it ends the path.
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            last = remaining.pop()
            if index < len(remaining):
                remaining[index] = last
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - short[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        return sorted((row, col) for col, row in enumerate(col4row))
    return list(enumerate(col4row))


def _stack(lanes: list, *names: str) -> list[np.ndarray]:
    """Each named field of every lane, stacked into one array per name."""
    return [np.array([getattr(lane, name) for lane in lanes]) for name in names]


def _pair_costs(gt: list[np.ndarray], cats: np.ndarray, pred: list[np.ndarray],
                probs: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """(G, P) matching costs between GT lanes with x, z and visibility rows
    ``gt`` and categories ``cats`` and proposals with x and z rows ``pred``
    and class probabilities ``probs`` (P, S + 1): ``beta_dis`` times the
    visibility-weighted mean pointwise (x, z) distance, minus ``beta_cls``
    times the proposal's probability of the lane's class.  Low when a
    proposal is near the lane and confident in its class."""
    (gx, gz, vis), (px, pz) = gt, pred
    total = vis.sum(axis=1)
    if np.any(total <= 0):
        raise AllInvisible("ground-truth lane has no visible points")
    d = np.sqrt((gx[:, None] - px) ** 2 + (gz[:, None] - pz) ** 2)
    dist = (vis[:, None] * d).sum(axis=2) / total[:, None]
    return -cfg.beta_cls * probs[:, cats].T + cfg.beta_dis * dist


def assign(gts: list[Lane3D], props: list[Proposal], cfg: LossConfig) -> Assignment:
    """Optimally match every ground-truth lane to a distinct proposal."""
    if not props:
        raise LengthMismatch("assignment needs at least one proposal")
    probs, *pred = _stack(props, "class_probs", "x", "z")
    labels = np.full(len(props), probs.shape[1] - 1, dtype=np.intp)
    if not gts:
        return Assignment(sigma={}, positives=[], labels=labels)
    cats, *gt = _stack(gts, "category", "x", "z", "visibility")
    sigma = dict(solve_assignment(_pair_costs(gt, cats, pred, probs, cfg)))
    positives = [sigma[i] for i in sorted(sigma)]
    for i, j in sigma.items():
        labels[j] = cats[i]
    return Assignment(sigma=sigma, positives=positives, labels=labels)


def classification_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Negative log-likelihood of each proposal's label.

    ``probs`` is (P, S + 1) and ``labels`` (P,).  Probabilities below 1e-30
    are clamped and reported through a :class:`ProbabilityUnderflow` warning
    rather than producing inf.
    """
    picked = probs[np.arange(len(probs)), labels]
    low = picked < _PROB_FLOOR
    if np.any(low):
        warnings.warn(
            f"{int(low.sum())} assigned-class probabilities below {_PROB_FLOOR} were clamped",
            ProbabilityUnderflow,
            stacklevel=2,
        )
        picked = np.maximum(picked, _PROB_FLOOR)
    return float(-np.log(picked).sum())


@dataclass
class GradBundle:
    """Gradients with respect to every proposal's coordinates, (M, N) each."""

    d_x: np.ndarray
    d_z: np.ndarray
    d_vis: np.ndarray


def _loop_sum(values: np.ndarray) -> float:
    """``values`` added one at a time in order (``np.sum`` adds pairwise)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def regression_loss(gt: np.ndarray, pred: np.ndarray) -> tuple[float, np.ndarray]:
    """Visibility-masked L1 loss over matched pairs plus its gradient.

    ``gt`` and ``pred`` are the (3, K, N) rows of the K pairs.  Invisible GT
    points contribute nothing to the coordinate terms; the visibility term
    always compares the full vectors.  Returns the loss and its (3, K, N)
    gradient with respect to ``pred``.
    """
    weight = np.array([gt[2], gt[2], np.ones_like(gt[2])])
    err = pred - gt
    terms = np.abs(weight * err).sum(axis=2)
    return _loop_sum(terms[0] + terms[1] + terms[2]), weight * np.sign(err)


def ew_pair_widths(x_ref: np.ndarray, x_other: np.ndarray, y: np.ndarray) -> tuple:
    """Widths from ``x_ref`` measured along the normals of ``x_other``.

    At each point the x-gap is scaled by the cosine of the other lane's
    local heading, taken from its forward segment (the last point reuses
    the final segment).  Returns per point (segment index, its y step, its
    other-lane x step, its squared length, cosine, gap, width minus the
    mean width), then the mean absolute deviation of the widths.

    ``x_ref`` and ``x_other`` are (..., N) and broadcast over the leading
    axes, one pair per leading index, on the shared (N,) grid ``y``.  Per-point
    results but the (N,) segment index and y step have the broadcast shape,
    and the deviation the leading shape (a NumPy scalar for one 1-D pair).
    """
    x_ref = np.asarray(x_ref, dtype=np.float64)
    x_other = np.asarray(x_other, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    dy = np.diff(y)
    if np.any(dy == 0.0):
        raise DegenerateSegment("repeated y-sample makes a lane direction undefined")
    seg = np.minimum(np.arange(n), n - 2)  # forward segment; last point reuses it
    dxo = np.diff(x_other, axis=-1)[..., seg]
    hyp2 = dy[seg] ** 2 + dxo ** 2
    cos = dy[seg] / np.sqrt(hyp2)
    gap = x_other - x_ref
    widths = np.abs(cos * gap)
    dev = widths - widths.mean(axis=-1, keepdims=True)
    return seg, dy[seg], dxo, hyp2, cos, gap, dev, np.abs(dev).mean(axis=-1)


def ew_pair_loss(
    x_ref: np.ndarray, x_other: np.ndarray, y: np.ndarray, tau: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Equal-width loss for ordered lane pairs and its x-gradients.

    The loss is the mean absolute deviation of the :func:`ew_pair_widths`,
    gated to zero at or above ``tau`` so forks are exempt.

    Returns (loss, grad wrt x_ref, grad wrt x_other): a ``float`` and two
    (N,) arrays for one pair of (N,) lanes.  (..., N) inputs broadcast as in
    :func:`ew_pair_widths`, giving the loss the leading shape and each
    gradient the broadcast shape, every row equal to its one-pair call.
    """
    _, dy, dxo, hyp2, cos, gap, dev, delta_w = ew_pair_widths(x_ref, x_other, y)
    n = gap.shape[-1]
    active = delta_w < tau

    sign_dev = np.sign(dev)
    # d delta_w / d widths[k]; the mean subtraction couples all points.
    d_w = np.where(active[..., None],
                   (sign_dev - sign_dev.mean(axis=-1, keepdims=True)) / n, 0.0)
    # Through the gap (cos > 0 always, so sign(width term) == sign(gap)).
    d_gap = d_w * cos * np.sign(gap)
    g_ref, g_other = 0.0 - d_gap, 0.0 + d_gap  # new arrays, +0.0 where d_gap is ±0
    # Through the cosine, which depends on the other lane's segment slope;
    # segment k joins points k and k + 1 and also serves the last point.
    # hyp2 ** 1.5, a distance cubed, overflows for coordinates far inside
    # laneio's bound; the factor is then 0, its limit, and no warning shows.
    with np.errstate(over="ignore"):
        d_dxo = d_w * np.abs(gap) * (-dy * dxo / hyp2 ** 1.5)
    g_other[..., 1:] += d_dxo[..., :-1]
    g_other[..., -1] += d_dxo[..., -1]
    g_other[..., :-1] -= d_dxo[..., :-1]
    g_other[..., -2] -= d_dxo[..., -1]
    loss = np.where(active, delta_w, 0.0)
    return (float(loss) if loss.ndim == 0 else loss), g_ref, g_other


def ew_loss(x: np.ndarray, y: np.ndarray, cfg: LossConfig) -> tuple[float, np.ndarray]:
    """Equal-width loss averaged over all ordered pairs of the (M, N) rows ``x``.

    Returns (loss, gradient wrt ``x``, shaped (M, N)).  Fewer than two rows
    give a zero loss by definition.
    """
    m = len(x)
    if m < 2:
        return 0.0, np.zeros((m, len(y)))
    pair, g_ref, g_other = ew_pair_loss(x[:, None], x[None, :], y, cfg.tau)
    off = ~np.eye(m, dtype=bool)  # row j against column jp, j != jp
    g_ref[~off] = g_other[~off] = 0.0
    norm = 1.0 / (m * (m - 1))
    return _loop_sum(pair[off]) * norm, (g_ref.sum(axis=1) + g_other.sum(axis=0)) * norm


@dataclass
class LossBreakdown:
    cls: float
    reg: float
    ew: float
    total: float


def total_loss(
    gts: list[Lane3D],
    props: list[Proposal],
    assignment: Assignment,
    cfg: LossConfig,
    y: np.ndarray,
) -> tuple[LossBreakdown, GradBundle]:
    """Coefficient-weighted sum of the three losses with merged gradients.

    ``y`` is the (N,) grid that every lane is sampled on.
    """
    y = np.asarray(y, dtype=np.float64)
    (probs,) = _stack(props, "class_probs")
    cols = assignment.positives
    rows = (3, len(cols), len(y))  # also when no pair is matched
    pred = np.reshape(_stack([props[j] for j in cols], "x", "z", "vis"), rows)
    matched = [gts[i] for i in sorted(assignment.sigma)]
    gt = np.reshape(_stack(matched, "x", "z", "visibility"), rows)
    l_cls = classification_loss(probs, assignment.labels)
    l_reg, reg_grads = regression_loss(gt, pred)
    l_ew, ew_grads = ew_loss(pred[0], y, cfg)

    grads = np.zeros((3, len(props), len(y)))
    # The assignment is injective, so these indexed adds never collide.
    grads[:, cols] += reg_grads
    grads *= cfg.lambda_reg
    grads[0, cols] += cfg.lambda_ew * ew_grads

    total = cfg.lambda_cls * l_cls + cfg.lambda_reg * l_reg + cfg.lambda_ew * l_ew
    return LossBreakdown(cls=l_cls, reg=l_reg, ew=l_ew, total=total), GradBundle(*grads)
