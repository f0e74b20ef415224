import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane3d_kit.anchors import (
    META_NAMES,
    CoefficientHeadWeights,
    MetaRanges,
    PrototypeBank,
    combine_metas,
    materialize,
    pool_and_weigh,
    softmax_rows,
)
from lane3d_kit.errors import ShapeMismatch
from lane3d_kit.sampling import FeatureMap


def bank_with(xs, phi=None, theta=None):
    return PrototypeBank(
        xs=np.asarray(xs, dtype=float),
        phi=np.asarray(phi if phi is not None else [0.0], dtype=float),
        theta=np.asarray(theta if theta is not None else [0.0], dtype=float),
    )


def coeffs_with(xs_rows, m_phi=1, m_theta=1):
    """The (xs, phi, theta) coefficient matrices: ``xs_rows`` and uniform rows."""
    xs_rows = np.asarray(xs_rows, dtype=float)
    m_a = xs_rows.shape[0]
    return xs_rows, np.full((m_a, m_phi), 1.0 / m_phi), np.full((m_a, m_theta), 1.0 / m_theta)


def meta(xs, phi, theta):
    return np.array([xs, phi, theta])


def test_softmax_uniform_and_saturated():
    out = softmax_rows(np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    np.testing.assert_allclose(out[1], [1.0, 0.0, 0.0], atol=1e-12)


def test_softmax_hand_value():
    out = softmax_rows(np.array([[1.0, 2.0]]))
    e = math.e
    np.testing.assert_allclose(out[0], [1 / (1 + e), e / (1 + e)], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    logits=st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    shift=st.floats(-1000, 1000),
)
def test_softmax_shift_invariance(logits, shift):
    row = np.array([logits])
    np.testing.assert_allclose(softmax_rows(row), softmax_rows(row + shift), atol=1e-12)


def test_combine_symmetric_prototypes_give_midpoint():
    bank = bank_with([-1.0, 0.0, 1.0])
    coeffs = coeffs_with(np.full((1, 3), 1.0 / 3.0))
    ranges = MetaRanges(xs_min=-10.0, xs_max=10.0)
    metas = combine_metas(bank, coeffs, ranges)
    assert metas.shape == (1, 3) and metas[0, 0] == 0.0


def test_combine_one_hot_hits_range_endpoint():
    bank = bank_with([1.0, -1.0])
    coeffs = coeffs_with(np.array([[1.0, 0.0], [0.0, 1.0]]))
    ranges = MetaRanges(xs_min=-10.0, xs_max=10.0)
    assert combine_metas(bank, coeffs, ranges)[:, 0].tolist() == [10.0, -10.0]


def test_combine_hand_case():
    # raw = 0.5*0.5 - 0.5*0.25 + 2.0*0.25 = 0.625 -> 0.8125 * 24 - 12 = 7.5
    bank = bank_with([0.5, -0.5, 2.0])
    coeffs = coeffs_with(np.array([[0.5, 0.25, 0.25]]))
    ranges = MetaRanges(xs_min=-12.0, xs_max=12.0)
    assert combine_metas(bank, coeffs, ranges)[0, 0] == pytest.approx(7.5, abs=1e-12)


def test_range_containment_property(rng):
    ranges = MetaRanges()
    for _ in range(1000):
        m_a = int(rng.integers(1, 6))
        bank = PrototypeBank(
            xs=rng.uniform(-1, 1, rng.integers(2, 8)),
            phi=rng.uniform(-1, 1, rng.integers(2, 8)),
            theta=rng.uniform(-1, 1, rng.integers(2, 8)),
        )
        coeffs = tuple(softmax_rows(rng.normal(size=(m_a, getattr(bank, name).shape[0])))
                       for name in META_NAMES)
        metas = combine_metas(bank, coeffs, ranges)
        assert metas.shape == (m_a, 3)
        for k, name in enumerate(META_NAMES):
            lo, hi = getattr(ranges, f"{name}_min"), getattr(ranges, f"{name}_max")
            assert np.all((lo < metas[:, k]) & (metas[:, k] < hi))


def test_convexity_within_prototype_extremes(rng):
    # With all prototypes inside [-1, 1] the clip is inactive, so each meta
    # is a convex combination bounded by the per-prototype mapped values.
    ranges = MetaRanges(xs_min=-12.0, xs_max=12.0)
    for _ in range(100):
        bank = bank_with(rng.uniform(-1, 1, 5))
        coeffs = coeffs_with(softmax_rows(rng.normal(size=(1, 5))))
        xs = combine_metas(bank, coeffs, ranges)[0, 0]
        mapped = (bank.xs + 1.0) * 0.5 * 24.0 - 12.0
        assert mapped.min() - 1e-12 <= xs <= mapped.max() + 1e-12


def test_pool_and_weigh_zero_weights_uniform():
    fm = FeatureMap(data=np.zeros((2, 2, 1)))
    w = CoefficientHeadWeights(
        a_xs=np.zeros((2, 3, 4)), b_xs=np.zeros((3, 4)),
        a_phi=np.zeros((2, 3, 2)), b_phi=np.zeros((3, 2)),
        a_theta=np.zeros((2, 3, 2)), b_theta=np.zeros((3, 2)),
    )
    xs, phi, theta = pool_and_weigh(fm, w)
    np.testing.assert_allclose(xs, 0.25)
    np.testing.assert_allclose(phi, 0.5)
    assert xs.shape == (3, 4) and phi.shape == theta.shape == (3, 2)


def test_pool_and_weigh_constant_feature_hand_dot(rng):
    c = 1.7
    fm = FeatureMap(data=np.full((2, 2, 1), c))
    a = rng.normal(size=(2, 1, 3))
    b = rng.normal(size=(1, 3))
    w = CoefficientHeadWeights(
        a_xs=a, b_xs=b,
        a_phi=np.zeros((2, 1, 1)), b_phi=np.zeros((1, 1)),
        a_theta=np.zeros((2, 1, 1)), b_theta=np.zeros((1, 1)),
    )
    logits = c * a.sum(axis=0) + b
    np.testing.assert_allclose(pool_and_weigh(fm, w)[0], softmax_rows(logits), atol=1e-12)


def test_pool_averages_height():
    data = np.zeros((2, 3, 1))
    data[0, :, 0] = 1.0
    data[1, :, 0] = 3.0
    fm = FeatureMap(data=data)
    np.testing.assert_array_equal(fm.data.mean(axis=0).reshape(-1), [2.0, 2.0, 2.0])


def test_pool_and_weigh_shape_mismatch():
    fm = FeatureMap(data=np.zeros((2, 3, 1)))
    w = CoefficientHeadWeights(
        a_xs=np.zeros((2, 1, 1)), b_xs=np.zeros((1, 1)),
        a_phi=np.zeros((2, 1, 1)), b_phi=np.zeros((1, 1)),
        a_theta=np.zeros((2, 1, 1)), b_theta=np.zeros((1, 1)),
    )
    with pytest.raises(ShapeMismatch):
        pool_and_weigh(fm, w)


def test_materialize_tan45():
    a = materialize(meta(2.0, math.radians(45.0), 0.0), np.array([10.0]))
    np.testing.assert_allclose(a[0], [12.0, 10.0, 0.0], atol=1e-12)


def test_materialize_straight_ray():
    y = np.linspace(3, 103, 20)
    a = materialize(meta(-3.0, 0.0, 0.0), y)
    assert a.shape == (20, 3)
    np.testing.assert_array_equal(a[:, 0], np.full(20, -3.0))
    np.testing.assert_array_equal(a[:, 2], np.zeros(20))
    np.testing.assert_array_equal(a[:, 1], y)


def test_materialize_hand_tangent():
    a = materialize(meta(0.0, 0.0, math.atan(0.02)), np.array([50.0]))
    assert a[0, 2] == pytest.approx(1.0, abs=1e-12)


def test_materialized_anchors_are_straight(rng):
    y = np.sort(rng.uniform(3, 100, 15))
    for _ in range(50):
        a = materialize(meta(rng.uniform(-12, 12), rng.uniform(-1.0, 1.0),
                             rng.uniform(-0.1, 0.1)), y)
        slopes = np.diff(a[:, 0]) / np.diff(a[:, 1])
        assert np.ptp(slopes) < 1e-12


@pytest.mark.parametrize("bounds, message", [
    ({"xs_min": 1.0, "xs_max": 1.0}, "xs range [1.0, 1.0] is empty"),
    ({"theta_min": math.nan, "theta_max": 0.0}, "theta range [nan, 0.0] is empty"),
    ({"xs_min": -1e308, "xs_max": 1e308},
     "xs range [-1e+308, 1e+308] is wider than float64 can hold"),
    ({"xs_min": -math.inf, "xs_max": 0.0}, "xs range [-inf, 0.0] is wider than float64 can hold"),
    ({"xs_min": -8e307, "xs_max": 8e307},
     "xs range [-8e+307, 8e+307] is not inside (-1e150, 1e150)"),
    ({"xs_min": -1e150, "xs_max": 0.0}, "xs range [-1e+150, 0.0] is not inside (-1e150, 1e150)"),
    ({"phi_min": -math.pi / 2, "phi_max": 0.0},
     "phi range [-1.5707963267948966, 0.0] is not inside (-pi/2, pi/2)"),
    ({"theta_min": 0.0, "theta_max": 1.6}, "theta range [0.0, 1.6] is not inside (-pi/2, pi/2)"),
], ids=["empty", "nan", "xs-width-overflows", "xs-infinite", "xs-past-the-lane-file-limit",
        "xs-at-the-lane-file-limit", "phi-at-90-deg", "theta-past-90-deg"])
def test_meta_ranges_refuse_what_materialize_cannot_honour(bounds, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MetaRanges(**bounds)


def test_every_meta_of_the_widest_angle_ranges_materializes():
    # (1 + 1) / 2 * (hi - lo) + lo rounds one ulp past this hi, onto pi/2.
    edge, lo = math.nextafter(math.pi / 2, 0.0), -1.0698005404080533
    ranges = MetaRanges(phi_min=lo, phi_max=edge, theta_min=-edge, theta_max=edge)
    bank = bank_with([0.0], phi=[1.0, -1.0], theta=[1.0, -1.0])
    metas = combine_metas(bank, (np.ones((2, 1)), np.eye(2), np.eye(2)), ranges)
    assert metas[:, 1:].tolist() == [[edge, edge], [lo, -edge]]
    assert np.isfinite(materialize(metas, np.array([1.0, 2.0]))).all()


def test_materialize_rejects_right_angle():
    with pytest.raises(ValueError):
        materialize(meta(0.0, math.pi / 2, 0.0), np.array([1.0]))


def reference_anchor(row, y):
    """One anchor by the one-row formula: libm's tangent of each angle."""
    xs, phi, theta = row
    return np.stack([xs + y * math.tan(phi), y, y * math.tan(theta)], axis=1)


def test_materialize_of_many_metas_is_each_rows_anchor_bitwise(rng):
    y = np.sort(rng.uniform(3, 103, 20))
    for _ in range(300):
        m = int(rng.integers(0, 8))
        metas = np.stack([rng.uniform(-12, 12, m), rng.uniform(-1.5, 1.5, m),
                          rng.uniform(-1.5, 1.5, m)], axis=1)
        points = materialize(metas, y)
        assert points.shape == (m, 20, 3)
        rows = [materialize(row, y) for row in metas]
        reference = [reference_anchor(row, y) for row in metas.tolist()]
        for stacked in (rows, reference):
            want = np.stack(stacked) if m else np.empty((0, 20, 3))
            assert points.tobytes() == want.tobytes()
        assert materialize(metas[None], y).tobytes() == points.tobytes()


def test_coefficient_heads_must_agree_on_the_anchor_count():
    with pytest.raises(ShapeMismatch,
                       match=re.escape("coefficient row counts: expected equal, got [5, 6]")):
        CoefficientHeadWeights(
            a_xs=np.zeros((2, 6, 3)), b_xs=np.zeros((6, 3)),
            a_phi=np.zeros((2, 5, 2)), b_phi=np.zeros((5, 2)),
            a_theta=np.zeros((2, 6, 2)), b_theta=np.zeros((6, 2)),
        )


@pytest.mark.parametrize("xs, shape", [
    (np.zeros((6, 1)), (6, 1)), (np.zeros((1, 6)), (1, 6)), (np.zeros(0), (0,)), (0.5, ()),
], ids=["column", "row", "empty", "scalar"])
def test_prototype_bank_holds_non_empty_vectors(xs, shape):
    with pytest.raises(ShapeMismatch,
                       match=re.escape(f"xs prototypes: expected a non-empty vector, got {shape}")):
        bank_with(xs)


def test_coefficient_heads_give_at_least_one_anchor():
    with pytest.raises(ShapeMismatch, match=re.escape("anchor count: expected at least 1, got 0")):
        CoefficientHeadWeights(
            a_xs=np.zeros((2, 0, 3)), b_xs=np.zeros((0, 3)),
            a_phi=np.zeros((2, 0, 2)), b_phi=np.zeros((0, 2)),
            a_theta=np.zeros((2, 0, 2)), b_theta=np.zeros((0, 2)),
        )
