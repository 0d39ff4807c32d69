import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liegroup_maps.core import ChartDomainError, hat3
from liegroup_maps.oracle import (
    fd_directional,
    resolvent_cay,
    series_dexp,
    series_dexp_inv,
    series_exp,
)
from liegroup_maps.se3 import se3_dexp, se3_dexp_inv, se3_exp
from liegroup_maps.so3 import (
    sigma,
    so3_cay,
    so3_cay_inv,
    so3_dcay,
    so3_dcay_inv,
    so3_ddcay,
    so3_ddcay_inv,
    so3_ddexp,
    so3_ddexp_inv,
    so3_dexp,
    so3_dexp_inv,
    so3_exp,
    so3_log,
)

RNG = np.random.default_rng(42)

TWO_PI = 2.0 * math.pi


def _dexp_raw_trig(x):
    """so3_dexp from raw trigonometry: shares nothing with the guarded
    kernels (no series, no cancellation control), so it is only accurate
    away from small angles; an independent cross-check route."""
    phi = float(np.linalg.norm(x))
    if phi < 1e-8:
        return np.eye(3) + 0.5 * hat3(x)
    hx = hat3(x)
    return (np.eye(3)
            + ((1.0 - math.cos(phi)) / phi**2) * hx
            + ((phi - math.sin(phi)) / phi**3) * (hx @ hx))


def _dcay_inv_via_rotation(g):
    """so3_dcay_inv as (I + R^T)/(2 s), an independent route through the
    assembled rotation matrix."""
    return (np.eye(3) + so3_cay(g).T) / (2.0 * sigma(g))


def random_rotvec(max_angle=math.pi, min_angle=0.0):
    direction = RNG.standard_normal(3)
    direction /= np.linalg.norm(direction)
    return RNG.uniform(min_angle, max_angle) * direction


# ---------------------------------------------------------------------------
# Exponential chart
# ---------------------------------------------------------------------------


def test_exp_matches_series_oracle():
    for _ in range(200):
        x = random_rotvec()
        assert_allclose(so3_exp(x), series_exp(hat3(x)), atol=1e-13)


def test_exp_special_values():
    assert_allclose(so3_exp(np.zeros(3)), np.eye(3))
    quarter = so3_exp([0.0, 0.0, math.pi / 2.0])
    assert_allclose(quarter, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)


def test_exp_is_rotation_far_beyond_pi():
    for angle in (3.5, 5.0, TWO_PI - 0.2, 7.5):
        x = angle * np.array([1.0, 0.0, 0.0])
        r = so3_exp(x)
        assert_allclose(r.T @ r, np.eye(3), atol=1e-14)


def test_log_roundtrip():
    for _ in range(300):
        x = random_rotvec(max_angle=math.pi - 1e-9)
        assert_allclose(so3_log(so3_exp(x)), x, atol=5e-10)


def test_log_near_pi_roundtrip():
    for _ in range(100):
        x = random_rotvec(min_angle=math.pi - 1e-4, max_angle=math.pi - 1e-12)
        got = so3_log(so3_exp(x))
        assert_allclose(got, x, atol=1e-6)
        # the angle itself is recovered much more accurately than the axis split
        assert_allclose(np.linalg.norm(got), np.linalg.norm(x), rtol=1e-10)


def test_log_at_exactly_pi():
    axis = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    x = math.pi * axis
    got = so3_log(so3_exp(x))
    # sign of the axis is a convention at pi; compare up to sign
    if got @ x < 0:
        got = -got
    assert_allclose(got, x, atol=1e-7)


def test_log_identity_and_small():
    assert_allclose(so3_log(np.eye(3)), np.zeros(3))
    x = np.array([1e-9, -2e-9, 1e-9])
    assert_allclose(so3_log(so3_exp(x)), x, atol=1e-18)


def test_log_rejects_non_rotation():
    with pytest.raises(ValueError):
        so3_log(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        so3_log(1.5 * np.eye(3))


def test_dexp_matches_series_oracle():
    for _ in range(200):
        x = random_rotvec()
        assert_allclose(so3_dexp(x), series_dexp(hat3(x)), atol=1e-12)


def test_dexp_matches_raw_trig_route():
    for _ in range(100):
        x = random_rotvec(min_angle=0.3)
        assert_allclose(so3_dexp(x), _dexp_raw_trig(x), atol=1e-13)


def test_dexp_inv_is_matrix_inverse():
    for _ in range(200):
        x = random_rotvec(max_angle=TWO_PI - 0.1)
        prod = so3_dexp(x) @ so3_dexp_inv(x)
        assert_allclose(prod, np.eye(3), atol=1e-11)


def test_dexp_inv_matches_bernoulli_series():
    for _ in range(100):
        x = random_rotvec(max_angle=1.0)
        assert_allclose(so3_dexp_inv(x), series_dexp_inv(hat3(x)), atol=1e-13)


def test_dexp_inv_domain_error():
    with pytest.raises(ChartDomainError, match="dexp-inverse domain exceeded"):
        so3_dexp_inv([0.0, 0.0, TWO_PI])
    with pytest.raises(ChartDomainError):
        so3_ddexp_inv([0.0, 0.0, TWO_PI + 0.5], np.ones(3))


@pytest.mark.parametrize("rotvec", [[math.nan, 0.0, 0.0], [1e200, 0.0, 0.0]])
def test_non_finite_angle_raises_domain_error(rotvec):
    # a NaN reaches |x|**2 as NaN and 1e200 overflows it to inf; |x|**2 is
    # summed on floats, so no NumPy RuntimeWarning (an error under pytest)
    # comes before the domain error, in the rotation and the screw maps alike
    direction = [0.1, -0.2, 0.3]
    screw = rotvec + [0.5, -0.2, 0.1]
    calls = [(so3_exp, rotvec), (so3_dexp, rotvec), (so3_dexp_inv, rotvec),
             (so3_ddexp, rotvec, direction), (so3_ddexp_inv, rotvec, direction),
             (se3_exp, screw), (se3_dexp, screw), (se3_dexp_inv, screw)]
    for op, *args in calls:
        with pytest.raises(ChartDomainError, match=r"\|x\|\*\*2 overflows"):
            op(*args)


def test_dexp_transpose_parity():
    # the differential at -x is the transpose of the differential at x
    for _ in range(50):
        x = random_rotvec(max_angle=TWO_PI - 0.3)
        assert_allclose(so3_dexp(-x), so3_dexp(x).T, atol=1e-14)
        assert_allclose(so3_dexp_inv(-x), so3_dexp_inv(x).T, atol=1e-14)


def test_rotation_lemma_routes_agree():
    # the frame-transport lemma on the rotation group: four differential-only
    # routes to the rotation matrix
    for _ in range(100):
        x = random_rotvec(max_angle=TWO_PI - 0.2)
        d, d_inv_neg, hx = so3_dexp(x), so3_dexp_inv(-x), hat3(x)
        routes = {
            "dexpinv_neg_then_dexp": d_inv_neg @ d,
            "dexp_then_dexpinv_neg": d @ d_inv_neg,
            "identity_plus_hat_dexp": np.eye(3) + hx @ d,
            "identity_plus_dexp_hat": np.eye(3) + d @ hx,
        }
        for name, value in routes.items():
            assert_allclose(value, so3_exp(x), atol=1e-10, err_msg=name)


def test_ddexp_matches_finite_difference():
    for _ in range(100):
        x = random_rotvec(max_angle=2.5)
        u = RNG.standard_normal(3)
        fd = fd_directional(so3_dexp, x, u)
        assert_allclose(so3_ddexp(x, u), fd, atol=1e-6)


def test_ddexp_inv_matches_finite_difference():
    for _ in range(100):
        x = random_rotvec(max_angle=2.5)
        u = RNG.standard_normal(3)
        fd = fd_directional(so3_dexp_inv, x, u)
        assert_allclose(so3_ddexp_inv(x, u), fd, atol=1e-6)


def test_ddexp_at_zero():
    u = np.array([0.4, -1.0, 0.7])
    assert_allclose(so3_ddexp(np.zeros(3), u), 0.5 * hat3(u), atol=1e-16)
    assert_allclose(so3_ddexp_inv(np.zeros(3), u), -0.5 * hat3(u), atol=1e-16)


def test_ddexp_linear_in_direction():
    x = random_rotvec()
    u1, u2 = RNG.standard_normal(3), RNG.standard_normal(3)
    lhs = so3_ddexp(x, 2.0 * u1 - 3.0 * u2)
    rhs = 2.0 * so3_ddexp(x, u1) - 3.0 * so3_ddexp(x, u2)
    assert_allclose(lhs, rhs, atol=1e-13)


def test_ddexp_product_rule_zero():
    # derivative of dexp @ dexp_inv == 0
    for _ in range(50):
        x = random_rotvec(max_angle=2.5)
        u = RNG.standard_normal(3)
        residual = (so3_ddexp(x, u) @ so3_dexp_inv(x)
                    + so3_dexp(x) @ so3_ddexp_inv(x, u))
        assert_allclose(residual, np.zeros((3, 3)), atol=1e-12)


# ---------------------------------------------------------------------------
# Cayley chart
# ---------------------------------------------------------------------------


def test_cay_matches_resolvent():
    for _ in range(200):
        g = RNG.standard_normal(3) * RNG.uniform(0.1, 3.0)
        assert_allclose(so3_cay(g), resolvent_cay(hat3(g)), atol=1e-13)


def test_cay_of_zero():
    assert_allclose(so3_cay(np.zeros(3)), np.eye(3))


def test_cay_exp_bridge():
    # cay(tan(angle/2) * axis) == exp(angle * axis)
    for _ in range(100):
        axis = RNG.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = RNG.uniform(1e-6, math.pi - 0.1)
        g = math.tan(0.5 * angle) * axis
        assert_allclose(so3_cay(g), so3_exp(angle * axis), atol=1e-11)


def test_cay_inv_roundtrip():
    for _ in range(200):
        g = RNG.standard_normal(3) * RNG.uniform(0.05, 4.0)
        assert_allclose(so3_cay_inv(so3_cay(g)), g, rtol=1e-10, atol=1e-12)


def test_cay_inv_rejects_half_turn():
    r = so3_exp([0.0, 0.0, math.pi])
    with pytest.raises(ChartDomainError, match="Cayley chart boundary"):
        so3_cay_inv(r)


def test_dcay_unhalved_at_zero():
    assert_allclose(so3_dcay(np.zeros(3)), 2.0 * np.eye(3))
    assert_allclose(so3_dcay_inv(np.zeros(3)), 0.5 * np.eye(3))


def test_dcay_inverse_pair():
    for _ in range(100):
        g = RNG.standard_normal(3) * RNG.uniform(0.1, 3.0)
        assert_allclose(so3_dcay(g) @ so3_dcay_inv(g), np.eye(3), atol=1e-13)
        assert_allclose(so3_dcay_inv(g) @ so3_dcay(g), np.eye(3), atol=1e-13)


def test_dcay_inv_matches_rotation_route():
    for _ in range(100):
        g = RNG.standard_normal(3) * RNG.uniform(0.0, 3.0)
        assert_allclose(so3_dcay_inv(g), _dcay_inv_via_rotation(g), atol=1e-13)


def test_dcay_transpose_parity():
    for _ in range(50):
        g = RNG.standard_normal(3)
        assert_allclose(so3_dcay(-g), so3_dcay(g).T, atol=1e-14)


def test_dcay_matches_finite_difference_of_cay():
    # dcay is right-trivialized: d/dt cay(g + t w) |_0 = hat(dcay(g) w) cay(g)
    for _ in range(50):
        g = RNG.standard_normal(3) * RNG.uniform(0.1, 2.0)
        w = RNG.standard_normal(3)
        fd = fd_directional(so3_cay, g, w)
        body = hat3(so3_dcay(g) @ w) @ so3_cay(g)
        assert_allclose(fd, body, atol=1e-8)


def test_ddcay_matches_finite_difference():
    for _ in range(100):
        g = RNG.standard_normal(3) * RNG.uniform(0.0, 2.0)
        w = RNG.standard_normal(3)
        assert_allclose(so3_ddcay(g, w), fd_directional(so3_dcay, g, w),
                        atol=1e-6)


def test_ddcay_inv_matches_finite_difference():
    for _ in range(100):
        g = RNG.standard_normal(3) * RNG.uniform(0.0, 2.0)
        w = RNG.standard_normal(3)
        assert_allclose(so3_ddcay_inv(g, w), fd_directional(so3_dcay_inv, g, w),
                        atol=1e-6)


def test_ddcay_product_rule_zero():
    for _ in range(50):
        g = RNG.standard_normal(3) * RNG.uniform(0.0, 2.0)
        w = RNG.standard_normal(3)
        residual = (so3_ddcay(g, w) @ so3_dcay_inv(g)
                    + so3_dcay(g) @ so3_ddcay_inv(g, w))
        assert_allclose(residual, np.zeros((3, 3)), atol=1e-13)


@pytest.mark.parametrize("gibbs", [[math.nan, 0.0, 0.0], [1e200, 0.0, 0.0],
                                   [1e200, 1e200, 0.0]])
def test_cayley_rejects_non_finite_gibbs_square(gibbs):
    # a NaN reaches |g|**2 as NaN and 1e200 overflows it to inf; without the
    # check so3_cay returns NaN or non-finite entries and so3_dcay_inv
    # divides by a zero sigma
    for op in (sigma, so3_cay, so3_dcay, so3_dcay_inv):
        with pytest.raises(ChartDomainError, match=r"\|g\|\*\*2"):
            op(gibbs)


@pytest.mark.parametrize("gibbs", [[math.nan, 0.0, 0.0], [1e200, 0.0, 0.0]])
def test_ddcay_inv_rejects_non_finite_gibbs_square(gibbs):
    # so3_ddcay_inv needs no sigma, yet takes the same chart check
    with pytest.raises(ChartDomainError, match=r"\|g\|\*\*2"):
        so3_ddcay_inv(gibbs, [1.0, 0.0, 0.0])


def test_sigma_values():
    assert sigma(np.zeros(3)) == 2.0
    assert_allclose(sigma(np.array([1.0, 0.0, 0.0])), 1.0)
