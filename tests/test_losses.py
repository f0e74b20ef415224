import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from lane3d_kit import losses
from lane3d_kit.errors import AllInvisible, DegenerateSegment, ProbabilityUnderflow
from lane3d_kit.head import Proposal
from lane3d_kit.lanes import Lane3D
from lane3d_kit.losses import (
    Assignment,
    LossConfig,
    assign,
    classification_loss,
    ew_loss,
    ew_pair_loss,
    ew_pair_widths,
    regression_loss,
    solve_assignment,
    total_loss,
)

Y3 = np.array([10.0, 20.0, 30.0])


def lane(x, y=None, z=None, vis=None, category=0):
    x = np.asarray(x, dtype=float)
    y = Y3[: len(x)] if y is None else np.asarray(y, dtype=float)
    return Lane3D(
        x=x,
        y=y,
        z=np.zeros_like(x) if z is None else np.asarray(z, dtype=float),
        visibility=np.ones_like(x) if vis is None else np.asarray(vis, dtype=float),
        category=category,
    )


def prop(x, z=None, vis=None, probs=(0.8, 0.2)):
    x = np.asarray(x, dtype=float)
    return Proposal(
        class_probs=np.asarray(probs, dtype=float),
        x=x,
        z=np.zeros_like(x) if z is None else np.asarray(z, dtype=float),
        vis=np.ones_like(x) if vis is None else np.asarray(vis, dtype=float),
    )


def brute_force_min_cost(cost):
    n, m = cost.shape
    best = math.inf
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            best = min(best, sum(cost[i, j] for i, j in enumerate(perm)))
    else:
        for perm in itertools.permutations(range(n), m):
            best = min(best, sum(cost[i, j] for j, i in enumerate(perm)))
    return best


def reference_cost(gt, p, cfg):
    """Per-pair matching cost, the reference for assign's broadcast matrix:
    beta_dis times the visibility-weighted mean pointwise (x, z) distance,
    minus beta_cls times the proposal's probability of the lane's class."""
    vis = gt.visibility
    total = vis.sum()
    if total <= 0:
        raise AllInvisible("ground-truth lane has no visible points")
    d = np.sqrt((gt.x - p.x) ** 2 + (gt.z - p.z) ** 2)
    distance = float((vis * d).sum() / total)
    return float(-cfg.beta_cls * p.class_probs[gt.category] + cfg.beta_dis * distance)


def assign_costs(gts, props, cfg):
    """The (G, P) cost matrix that assign hands to solve_assignment."""
    with mock.patch.object(losses, "solve_assignment", wraps=losses.solve_assignment) as solve:
        assign(gts, props, cfg)
    return solve.call_args.args[0]


# With these coefficients a cost is the matching distance itself.
DIST = LossConfig(beta_cls=0.0, beta_dis=1.0)


def test_matching_distance_coincident():
    assert assign_costs([lane([0, 1, 2])], [prop([0, 1, 2])], DIST)[0, 0] == 0.0


def test_matching_distance_pythagoras():
    gt = lane([0.0, 0.0, 0.0])
    p = prop([0.3, 0.3, 0.3], z=[0.4, 0.4, 0.4])
    assert assign_costs([gt], [p], DIST)[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_matching_distance_single_visible_point():
    gt = lane([0.0, 0.0, 0.0], vis=[0, 1, 0])
    p = prop([5.0, 1.2, -7.0])
    assert assign_costs([gt], [p], DIST)[0, 0] == pytest.approx(1.2, abs=1e-12)


def test_matching_distance_all_invisible():
    gts = [lane([0, 0, 0]), lane([0, 0, 0], vis=[0, 0, 0])]
    with pytest.raises(AllInvisible):
        assign(gts, [prop([0, 0, 0])], LossConfig())


def test_matching_cost_values():
    gt = lane([0, 0, 0], category=0)
    # D = 0.5 from the 3-4-5 case
    props = [prop([0, 0, 0], probs=(0.8, 0.2)),
             prop([0.3, 0.3, 0.3], z=[0.4, 0.4, 0.4], probs=(0.8, 0.2))]
    cost = assign_costs([gt], props, LossConfig())
    np.testing.assert_allclose(cost, [[-0.8, 0.7]], rtol=0, atol=1e-12)
    cost0 = assign_costs([gt], props, LossConfig(beta_cls=0.0))
    np.testing.assert_allclose(cost0, [[0.0, 1.5]], rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(g=st.integers(1, 5), p=st.integers(1, 6), n=st.integers(1, 12), s=st.integers(1, 4),
       beta_cls=st.floats(0.0, 10.0), beta_dis=st.floats(0.0, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_assign_costs_equal_per_pair_reference_bitwise(g, p, n, s, beta_cls, beta_dis, seed):
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.uniform(0.5, 5.0, n))
    scale = rng.uniform(0.1, 50.0)
    # Hard and fractional visibilities; with few points a GT lane may be
    # wholly invisible, which assign must reject like the reference.
    vis = rng.choice([0.0, 0.3, 1.0], size=(g, n))
    gts = [Lane3D(x=rng.normal(0, scale, n), y=y, z=rng.normal(0, 1, n), visibility=vis[i],
                  category=int(rng.integers(s))) for i in range(g)]
    props = [Proposal(class_probs=rng.dirichlet(np.ones(s + 1)), x=rng.normal(0, scale, n),
                      z=rng.normal(0, 1, n), vis=rng.uniform(0, 1, n)) for _ in range(p)]
    cfg = LossConfig(beta_cls=beta_cls, beta_dis=beta_dis)
    if not vis.any(axis=1).all():
        with pytest.raises(AllInvisible):
            assign(gts, props, cfg)
        return
    want = np.array([[reference_cost(gt, pr, cfg) for pr in props] for gt in gts])
    got = assign_costs(gts, props, cfg)
    assert got.dtype == np.float64 and got.shape == (g, p)
    assert got.tobytes() == want.tobytes()


def test_assign_diagonal():
    gts = [lane([0, 0, 0], category=0), lane([3, 3, 3], category=0)]
    props = [prop([0.1, 0.1, 0.1]), prop([3.1, 3.1, 3.1])]
    a = assign(gts, props, LossConfig())
    assert a.sigma == {0: 0, 1: 1}
    assert a.positives == [0, 1]
    assert a.labels.tolist() == [0, 0]


def test_assign_single_gt_takes_argmin():
    gts = [lane([0, 0, 0])]
    props = [prop([4, 4, 4]), prop([0.5, 0.5, 0.5]), prop([2, 2, 2])]
    a = assign(gts, props, LossConfig())
    assert a.sigma == {0: 1}
    assert a.labels.tolist() == [1, 0, 1]  # non-lane class is 1 for S=1


def test_solve_assignment_matches_brute_force(rng):
    for _ in range(60):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.normal(size=(n, m))
        pairs = solve_assignment(cost)
        total = sum(cost[i, j] for i, j in pairs)
        assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)


@st.composite
def lsap_costs(draw) -> np.ndarray:
    """A 0-7 x 0-34 cost matrix, wide or tall, of one of the kinds that the
    matchers meet or that SciPy's solver treats specially."""
    n, m = draw(st.integers(0, 7)), draw(st.integers(0, 34))
    if draw(st.booleans()):
        n, m = m, n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "ties", "once", "inf", "invalid"]))
    if kind == "normal":
        return rng.normal(size=(n, m))
    if kind == "once":  # the ONCE metric's non-candidate fill, with a few candidates
        cost = np.full((n, m), 1e9)
        pick = rng.random((n, m)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
        cost[pick] = rng.uniform(0.0, 2.0, int(pick.sum()))
        return cost
    cost = rng.integers(0, 3, size=(n, m)).astype(np.float64)  # many equal costs
    if kind == "inf":  # forbidden pairs, sometimes too many to match every row
        cost[rng.random((n, m)) < draw(st.sampled_from([0.2, 0.6]))] = np.inf
    elif kind == "invalid" and cost.size:
        cost.flat[rng.integers(cost.size, size=draw(st.integers(1, 3)))] = draw(
            st.sampled_from([np.nan, -np.inf]))
    return cost


def scipy_pairs(cost: np.ndarray) -> list[tuple[int, int]]:
    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


def pairs_or_error(solve, cost: np.ndarray) -> list[tuple[int, int]] | str:
    try:
        return solve(cost)
    except ValueError as e:
        return str(e)


@seed(2016)
@settings(max_examples=400, deadline=None)
@given(cost=lsap_costs())
@example(cost=np.array([[1.0, np.nan], [0.0, 2.0]]))
@example(cost=np.array([[0.0], [-np.inf]]))
@example(cost=np.array([[np.inf, np.inf, np.inf], [0.0, 1.0, 2.0]]))
@example(cost=np.zeros((3, 0)))
# Summing in another order than minval + cost - u - v picks other pairs here.
@example(cost=np.array([[0.4, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, 1.0]]))
# Removing a scanned column by shifting the rest, not swap-remove, picks (1, 0).
@example(cost=np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))
def test_solve_assignment_returns_scipys_pairs(cost):
    """The pure-Python solver picks SciPy's pairs, ties included, and
    raises SciPy's errors with SciPy's messages."""
    want = pairs_or_error(scipy_pairs, cost)
    got = pairs_or_error(solve_assignment, cost)
    assert got == want
    if isinstance(want, str):
        assert want in ("matrix contains invalid numeric entries", "cost matrix is infeasible")
        bad = np.isnan(cost) | (cost == -np.inf)
        assert (want == "matrix contains invalid numeric entries") == bool(bad.any())


def test_assign_total_matches_brute_force_on_lanes(rng):
    cfg = LossConfig()
    for _ in range(20):
        n_gt = int(rng.integers(1, 5))
        n_p = int(rng.integers(n_gt, 7))
        gts = [lane(rng.uniform(-5, 5, 3), category=int(rng.integers(0, 2)),
                    ) for _ in range(n_gt)]
        props = [prop(rng.uniform(-5, 5, 3), probs=(0.5, 0.3, 0.2)) for _ in range(n_p)]
        cost = np.array([[reference_cost(g, p, cfg) for p in props] for g in gts])
        a = assign(gts, props, cfg)
        total = sum(cost[i, j] for i, j in a.sigma.items())
        assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)


def rows(lanes):
    """The losses' (3, L, N) rows of GT lanes or proposals: x, z and visibility."""
    return np.array([[q.x for q in lanes], [q.z for q in lanes],
                     [q.visibility if isinstance(q, Lane3D) else q.vis for q in lanes]])


def test_classification_loss_perfect():
    assert classification_loss(np.array([[1.0, 0.0]]), np.array([0])) == 0.0


def test_classification_loss_hand_values():
    p1 = np.array([[math.exp(-1.0), 1.0 - math.exp(-1.0)]])
    assert classification_loss(p1, np.array([0])) == pytest.approx(1.0, abs=1e-12)
    pair = np.array([[0.5, 0.5], [0.5, 0.5]])
    expected = 2.0 * math.log(2.0)
    assert classification_loss(pair, np.array([0, 0])) == pytest.approx(expected, abs=1e-12)


def test_classification_loss_underflow_warns():
    with pytest.warns(ProbabilityUnderflow):
        value = classification_loss(np.array([[0.0, 1.0]]), np.array([0]))
    assert value == pytest.approx(-math.log(1e-30))


def test_regression_loss_zero_when_coincident():
    gt = rows([lane([1, 2, 3], z=[0.1, 0.2, 0.3], vis=[1, 1, 0])])
    pred = rows([prop([1, 2, 3], z=[0.1, 0.2, 0.3], vis=[1, 1, 0])])
    value, grad = regression_loss(gt, pred)
    assert value == 0.0
    np.testing.assert_array_equal(grad[0], 0.0)


def test_regression_loss_hand_l1():
    y2 = np.array([10.0, 20.0])
    gt = rows([lane([0.0, 0.0], y=y2)])
    pred = rows([prop([0.1, -0.2], z=[0.0, 0.0])])
    value, grad = regression_loss(gt, pred)
    assert value == pytest.approx(0.3, abs=1e-12)
    np.testing.assert_array_equal(grad[0, 0], [1.0, -1.0])


def test_regression_loss_invisible_points_masked():
    gt = rows([lane([0.0, 0.0, 0.0], vis=[0, 0, 0])])
    pred = rows([prop([100.0, -50.0, 3.0], vis=[0.25, 0.5, 0.75])])
    value, grad = regression_loss(gt, pred)
    assert value == pytest.approx(0.25 + 0.5 + 0.75, abs=1e-12)
    np.testing.assert_array_equal(grad[0], 0.0)
    np.testing.assert_array_equal(grad[2, 0], [1.0, 1.0, 1.0])


def test_ew_pair_parallel_lanes_zero():
    loss, g_ref, g_other = ew_pair_loss(np.zeros(3), np.full(3, 3.0), Y3, tau=0.1)
    assert loss == 0.0
    np.testing.assert_array_equal(g_ref, 0.0)


def test_ew_pair_hand_case():
    # Reference lane varies; widths use the straight lane's headings, so
    # every cosine is exactly 1 and the widths are |gaps| = [3, 3, 3.09].
    loss, g_ref, g_other = ew_pair_loss(
        x_ref=np.array([3.0, 3.0, 3.09]), x_other=np.zeros(3), y=Y3, tau=0.1
    )
    assert loss == pytest.approx(0.04, abs=1e-12)


def test_ew_pair_fork_excluded():
    loss, g_ref, g_other = ew_pair_loss(
        x_ref=np.array([3.0, 3.0, 3.9]), x_other=np.zeros(3), y=Y3, tau=0.1
    )
    assert loss == 0.0
    np.testing.assert_array_equal(g_ref, 0.0)
    np.testing.assert_array_equal(g_other, 0.0)


def test_ew_pair_degenerate_segment():
    with pytest.raises(DegenerateSegment):
        ew_pair_loss(np.zeros(3), np.ones(3), np.array([1.0, 1.0, 2.0]), tau=0.1)


def test_ew_loss_needs_two_positives():
    value, grads = ew_loss(np.zeros((1, 3)), Y3, LossConfig())
    assert value == 0.0 and grads.shape == (1, 3)


def test_ew_loss_zero_on_parallel_any_n(rng):
    cfg = LossConfig()
    for n in (2, 3, 7, 12):
        y = np.sort(rng.uniform(1, 100, n))
        base = rng.uniform(-0.2, 0.2) * y
        x = np.array([base + off for off in (0.0, 3.5, 7.0)])
        value, grads = ew_loss(x, y, cfg)
        assert value == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(shift=st.floats(-50, 50))
def test_ew_translation_invariance(shift):
    rng = np.random.default_rng(7)
    y = np.sort(rng.uniform(1, 60, 5))
    xs = [rng.uniform(-5, 5, 5) for _ in range(3)]
    cfg = LossConfig()
    a, _ = ew_loss(np.array(xs), y, cfg)
    b, _ = ew_loss(np.array(xs) + shift, y, cfg)
    assert a == pytest.approx(b, abs=1e-12)


def test_total_loss_weighted_sum_identity(rng):
    cfg = LossConfig()
    gts = [lane(rng.uniform(-5, 5, 3), category=0) for _ in range(2)]
    props = [prop(g.x + rng.uniform(-0.5, 0.5, 3), probs=(0.6, 0.4)) for g in gts]
    a = assign(gts, props, cfg)
    breakdown, grads = total_loss(gts, props, a, cfg, Y3)
    expected = cfg.lambda_cls * breakdown.cls + cfg.lambda_reg * breakdown.reg \
        + cfg.lambda_ew * breakdown.ew
    assert breakdown.total == pytest.approx(expected, abs=1e-12)
    lam0 = LossConfig(lambda_ew=0.0)
    b0, _ = total_loss(gts, props, a, lam0, Y3)
    assert b0.total == pytest.approx(breakdown.cls + breakdown.reg, abs=1e-12)


def test_total_loss_hand_composition():
    # cls = 1 (two proposals at e^-0.5), reg = 0.3, ew pair value 0.04
    # -> 1*1 + 1*0.3 + 0.1*0.04 = 1.304
    c = math.exp(-0.5)
    ew_value = ew_pair_loss(np.array([3.0, 3.0, 3.09]), np.zeros(3), Y3, 0.1)[0]
    total = 1.0 * 1.0 + 1.0 * 0.3 + 0.1 * ew_value
    assert total == pytest.approx(1.304, abs=1e-12)
    assert -2.0 * math.log(c) == pytest.approx(1.0, abs=1e-12)


def test_total_loss_perfect_predictions_parallel():
    gts = [lane([0, 0, 0], category=0), lane([3.5, 3.5, 3.5], category=0)]
    props = [prop(g.x.copy(), probs=(1.0, 0.0)) for g in gts]
    cfg = LossConfig()
    a = assign(gts, props, cfg)
    breakdown, grads = total_loss(gts, props, a, cfg, Y3)
    assert breakdown.cls == 0.0
    assert breakdown.reg == 0.0
    assert breakdown.ew == 0.0
    assert breakdown.total == 0.0
    np.testing.assert_array_equal(grads.d_x, 0.0)


def local_fd(f, arr, h=1e-6):
    """Test-local central differences, independent of the gradcheck module."""
    g = np.zeros_like(arr)
    for i in range(arr.size):
        old = arr.flat[i]
        arr.flat[i] = old + h
        hi = f()
        arr.flat[i] = old - h
        lo = f()
        arr.flat[i] = old
        g.flat[i] = (hi - lo) / (2 * h)
    return g


def test_ew_gradient_matches_fd():
    y = np.array([5.0, 15.0, 25.0, 40.0])
    x = np.array([
        [0.01, -0.02, 0.015, -0.01],
        [3.5, 3.52, 3.49, 3.51],
        [7.03, 6.98, 7.01, 7.04],
    ])
    cfg = LossConfig()
    value, grads = ew_loss(x, y, cfg)
    assert value > 0.0  # instance must exercise the active branch
    for j in range(len(x)):
        fd = local_fd(lambda: ew_loss(x, y, cfg)[0], x[j])
        np.testing.assert_allclose(grads[j], fd, rtol=1e-5, atol=1e-8)


def test_regression_gradient_matches_fd():
    y = np.array([5.0, 15.0, 25.0])
    gt = rows([lane([0.0, 1.0, 2.0], y=y, z=[0.1, 0.0, -0.1], vis=[1, 0, 1])])
    pred = rows([prop([0.3, 1.4, 1.8], z=[0.15, 0.2, -0.4], vis=[0.3, 0.6, 0.8])])
    value, grad = regression_loss(gt, pred)
    for f in range(3):  # x, z, visibility
        fd = local_fd(lambda: regression_loss(gt, pred)[0], pred[f, 0])
        np.testing.assert_allclose(grad[f, 0], fd, rtol=1e-5, atol=1e-8)


# --- per-pair references for the broadcast losses ------------------------------------


def reference_regression_loss(gts, props, assignment):
    """Per-pair regression loss, the reference for regression_loss's gathered rows."""
    n = props[0].x.shape[0] if props else 0
    d_x, d_z, d_vis = (np.zeros((len(props), n)) for _ in range(3))
    loss = 0.0
    for i in sorted(assignment.sigma):
        j = assignment.sigma[i]
        gt, p = gts[i], props[j]
        vis = gt.visibility
        ex, ez, ev = p.x - gt.x, p.z - gt.z, p.vis - gt.visibility
        loss += float(np.abs(vis * ex).sum() + np.abs(vis * ez).sum() + np.abs(ev).sum())
        d_x[j] += vis * np.sign(ex)
        d_z[j] += vis * np.sign(ez)
        d_vis[j] += np.sign(ev)
    return loss, (d_x, d_z, d_vis)


def reference_ew_pair_loss(x_ref, x_other, y, tau):
    """One-pair equal-width loss with its segment-slope gradient scattered
    by np.add.at, the reference for ew_pair_loss's slice adds."""
    seg, dy, dxo, hyp2, cos, gap, dev, delta_w = ew_pair_widths(x_ref, x_other, y)
    n = gap.shape[0]
    g_ref, g_other = np.zeros(n), np.zeros(n)
    if delta_w >= tau:
        return 0.0, g_ref, g_other
    sign_dev = np.sign(dev)
    d_w = (sign_dev - sign_dev.mean()) / n
    d_gap = d_w * cos * np.sign(gap)
    g_other += d_gap
    g_ref -= d_gap
    d_dxo = d_w * np.abs(gap) * (-dy * dxo / hyp2 ** 1.5)
    np.add.at(g_other, seg + 1, d_dxo)
    np.add.at(g_other, seg, -d_dxo)
    return float(delta_w), g_ref, g_other


def reference_ew_loss(positives, y, cfg):
    """Equal-width loss by a loop over ordered pairs, the reference for
    ew_loss's one broadcast call.  A lane's gradient adds its pairs as the
    reference lane, then its pairs as the other lane, each in pair order."""
    m = len(positives)
    grads = np.zeros((m, y.shape[0]))
    if m < 2:
        return 0.0, grads
    total = 0.0
    norm = 1.0 / (m * (m - 1))
    as_other = np.zeros_like(grads)
    for j in range(m):
        for jp in range(m):
            if jp == j:
                continue
            pair, g_ref, g_other = reference_ew_pair_loss(
                positives[j].x, positives[jp].x, y, cfg.tau)
            total += pair
            grads[j] += g_ref
            as_other[jp] += g_other
    return total * norm, (grads + as_other) * norm


def reference_classification_loss(props, labels):
    """Per-proposal pick of its label's probability, the reference for
    classification_loss's gather."""
    picked = np.array([max(q.class_probs[c], 1e-30) for q, c in zip(props, labels)])
    return float(-np.log(picked).sum())


def same_float(a, b) -> bool:
    return type(a) is type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes()


def random_instance(g, p, n, seed):
    """Near-parallel GT lanes and proposals with jitter, so the widths vary a
    little or a lot, and a random injective matching of them."""
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.uniform(0.5, 5.0, n))
    slope, jitter = rng.uniform(-0.3, 0.3), rng.choice([1e-3, 0.05, 1.0])
    offsets = np.cumsum(rng.uniform(1.0, 4.0, max(g, p)))
    vis = rng.choice([0.0, 0.3, 1.0], size=(g, n))
    vis[rng.random(g) < 0.3] = 0.0  # some GT lanes wholly invisible
    gts = [Lane3D(x=slope * y + offsets[i] + rng.normal(0, jitter, n), y=y,
                  z=rng.normal(0, 1, n), visibility=vis[i], category=0) for i in range(g)]
    props = [Proposal(class_probs=rng.dirichlet([1.0, 1.0]),
                      x=slope * y + offsets[j] + rng.normal(0, jitter, n),
                      z=rng.normal(0, 1, n), vis=rng.uniform(0, 1, n)) for j in range(p)]
    # With p < g some GT lanes stay unmatched.
    k = min(g, p)
    rows_ = np.sort(rng.permutation(g)[:k])
    sigma = dict(zip(rows_.tolist(), rng.permutation(p)[:k].tolist()))
    positives = [sigma[i] for i in sorted(sigma)]
    labels = np.ones(p, dtype=np.intp)
    labels[positives] = 0
    return y, gts, props, Assignment(sigma=sigma, positives=positives, labels=labels)


def tau_among(x, y, quantile):
    """A fork threshold at, among or (``quantile`` None) above the deviations
    of the ordered pairs of rows ``x``, so that the gate exempts all, some or
    none of the pairs."""
    deltas = [ew_pair_widths(x[j], x[k], y)[-1] for j in range(len(x))
              for k in range(len(x)) if j != k]
    if not deltas:
        return 0.1
    if quantile is None:
        return 2.0 * max(deltas)
    return max(float(np.quantile(deltas, quantile)), 1e-9)


# Up to 12 matched pairs: np.sum adds 8 or more values pairwise, so only
# then does a total that is not added in pair order show.
INSTANCES = dict(g=st.integers(0, 12), p=st.integers(1, 12), n=st.integers(2, 10),
                 tau_quantile=st.sampled_from([0.0, 0.3, 0.5, 1.0, None]),
                 seed=st.integers(0, 2**32 - 1))
# Instances of 8 and 10 pairs whose regression total np.sum rounds differently.
MANY_PAIRS = [dict(g=10, p=12, n=6, tau_quantile=0.5, seed=0),
              dict(g=8, p=8, n=10, tau_quantile=None, seed=0)]


@settings(max_examples=200, deadline=None)
@given(**INSTANCES)
@example(**MANY_PAIRS[0])
@example(**MANY_PAIRS[1])
def test_broadcast_losses_equal_their_per_pair_references(g, p, n, tau_quantile, seed):
    y, gts, props, a = random_instance(g, p, n, seed)
    k = len(a.positives)

    gt = rows([gts[i] for i in sorted(a.sigma)]).reshape(3, k, n)
    value, grad = regression_loss(gt, rows(props)[:, a.positives])
    want, want_grads = reference_regression_loss(gts, props, a)
    assert same_float(value, want)
    assert grad.shape == (3, k, n)
    scattered = np.zeros((3, p, n))
    scattered[:, a.positives] = grad
    for got_rows, want_rows in zip(scattered, want_grads):
        np.testing.assert_array_equal(got_rows, want_rows)

    pos = [props[j] for j in a.positives]
    x = rows(props)[0, a.positives]
    tau = tau_among(x, y, tau_quantile)
    cfg = LossConfig(tau=tau)
    value, grads = ew_loss(x, y, cfg)
    want, want_grads = reference_ew_loss(pos, y, cfg)
    assert same_float(value, want)
    assert grads.shape == want_grads.shape == (len(pos), n)
    np.testing.assert_array_equal(grads, want_grads)

    pair, g_ref, g_other = ew_pair_loss(x[:, None], x[None, :], y, tau)
    assert pair.shape == (len(pos),) * 2 and g_ref.shape == g_other.shape == (*pair.shape, n)
    for j, k in itertools.product(range(len(pos)), repeat=2):
        one = ew_pair_loss(x[j], x[k], y, tau)
        ref = reference_ew_pair_loss(x[j], x[k], y, tau)
        assert same_float(one[0], ref[0])
        np.testing.assert_array_equal(one[1], ref[1])
        np.testing.assert_array_equal(one[2], ref[2])
        assert same_float(float(pair[j, k]), one[0])
        np.testing.assert_array_equal(g_ref[j, k], one[1])
        np.testing.assert_array_equal(g_other[j, k], one[2])


@settings(max_examples=200, deadline=None)
@given(**INSTANCES, lambdas=st.tuples(*[st.floats(0.0, 10.0)] * 3))
@example(**MANY_PAIRS[0], lambdas=(1.0, 1.0, 1.0))
@example(**MANY_PAIRS[1], lambdas=(0.5, 2.0, 1.0))
def test_total_loss_equals_its_references_composed_bitwise(g, p, n, tau_quantile, seed,
                                                           lambdas):
    y, gts, props, a = random_instance(g, p, n, seed)
    pos = [props[j] for j in a.positives]
    lambda_cls, lambda_reg, lambda_ew = lambdas
    cfg = LossConfig(lambda_cls=lambda_cls, lambda_reg=lambda_reg, lambda_ew=lambda_ew,
                     tau=tau_among(rows(props)[0, a.positives], y, tau_quantile))
    breakdown, grads = total_loss(gts, props, a, cfg, y)

    cls = reference_classification_loss(props, a.labels)
    reg, (d_x, d_z, d_vis) = reference_regression_loss(gts, props, a)
    ew, ew_grads = reference_ew_loss(pos, y, cfg)
    total = lambda_cls * cls + lambda_reg * reg + lambda_ew * ew
    for got, want in zip((breakdown.cls, breakdown.reg, breakdown.ew, breakdown.total),
                         (cls, reg, ew, total)):
        assert same_float(got, want)
    d_x, d_z, d_vis = lambda_reg * d_x, lambda_reg * d_z, lambda_reg * d_vis
    d_x[a.positives] += lambda_ew * ew_grads
    for got, want in zip((grads.d_x, grads.d_z, grads.d_vis), (d_x, d_z, d_vis)):
        assert got.shape == want.shape == (p, n) and got.tobytes() == want.tobytes()
