import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liegroup_maps.core import Ad6, ChartDomainError, ad6, hat3, hat6
from liegroup_maps.oracle import (
    SeriesConfig,
    fd_directional,
    resolvent_cay,
    series_dexp,
    series_dexp_inv,
    series_exp,
)
from liegroup_maps.se3 import (
    _screw_lemma_routes,
    adjoint_cay,
    adjoint_cay_A_forms,
    adjoint_vs_se3_cay_mismatch,
    se3_cay,
    se3_cay_inv,
    se3_dcay,
    se3_dcay_inv,
    se3_ddcay,
    se3_ddcay_inv,
    se3_ddcay_inv_tangent,
    se3_ddexp,
    se3_ddexp_inv,
    se3_ddexp_inv_tangent,
    se3_dexp,
    se3_dexp_adform,
    se3_dexp_inv,
    se3_dexp_inv_adform,
    se3_exp,
    se3_log,
)

RNG = np.random.default_rng(42)

TWO_PI = 2.0 * math.pi


def random_screw(max_angle=math.pi, lin_scale=1.5, min_angle=0.0):
    axis = RNG.standard_normal(3)
    axis /= np.linalg.norm(axis)
    x = RNG.uniform(min_angle, max_angle) * axis
    y = RNG.standard_normal(3) * lin_scale
    return np.concatenate([x, y])


# ---------------------------------------------------------------------------
# Exponential chart
# ---------------------------------------------------------------------------


def test_exp_matches_series_oracle():
    for _ in range(200):
        s = random_screw()
        assert_allclose(se3_exp(s), series_exp(hat6(s)), atol=1e-12)


def test_exp_pure_translation():
    s = np.array([0.0, 0.0, 0.0, 1.0, -2.0, 0.5])
    want = np.eye(4)
    want[:3, 3] = [1.0, -2.0, 0.5]
    assert_allclose(se3_exp(s), want)


def test_log_roundtrip():
    for _ in range(200):
        s = random_screw(max_angle=math.pi - 1e-6)
        assert_allclose(se3_log(se3_exp(s)), s, atol=5e-9)


def test_log_of_identity():
    assert_allclose(se3_log(np.eye(4)), np.zeros(6))


def test_dexp_matches_series_in_adjoint():
    for _ in range(200):
        s = random_screw()
        assert_allclose(se3_dexp(s), series_dexp(ad6(s)), atol=1e-11)


def test_dexp_block_equals_adform():
    for _ in range(300):
        s = random_screw(max_angle=TWO_PI - 0.1)
        assert_allclose(se3_dexp(s), se3_dexp_adform(s), atol=1e-10)


def test_dexp_inv_block_equals_adform():
    for _ in range(300):
        s = random_screw(max_angle=TWO_PI - 0.1)
        assert_allclose(se3_dexp_inv(s), se3_dexp_inv_adform(s), atol=1e-10)


def test_dexp_inv_is_matrix_inverse():
    for _ in range(200):
        s = random_screw(max_angle=TWO_PI - 0.1)
        assert_allclose(se3_dexp(s) @ se3_dexp_inv(s), np.eye(6), atol=1e-10)


def test_dexp_inv_matches_bernoulli_series():
    for _ in range(100):
        s = random_screw(max_angle=0.35)
        lin = s[3:]
        s[3:] = 0.7 * lin / np.linalg.norm(lin)  # keep ad6 inside series cap
        assert_allclose(se3_dexp_inv(s), series_dexp_inv(ad6(s)), atol=1e-13)


def test_non_finite_angle_raises_domain_error():
    bad = [math.nan, 0.0, 0.0, 1.0, 0.0, 0.0]
    for op in (se3_exp, se3_dexp, se3_dexp_inv):
        with pytest.raises(ChartDomainError, match="must be finite"):
            op(bad)


def test_cayley_rejects_non_finite_gibbs_square():
    bad = [math.nan, 0.0, 0.0, 1.0, 0.0, 0.0]
    for op in (se3_cay, se3_dcay, se3_dcay_inv, adjoint_cay):
        with pytest.raises(ChartDomainError, match=r"\|g\|\*\*2"):
            op(bad)


def test_dexp_inv_domain_error():
    bad = np.array([0.0, 0.0, TWO_PI, 1.0, 0.0, 0.0])
    with pytest.raises(ChartDomainError, match="dexp-inverse domain exceeded"):
        se3_dexp_inv(bad)
    with pytest.raises(ChartDomainError):
        se3_dexp_inv_adform(bad)
    with pytest.raises(ChartDomainError):
        se3_ddexp_inv(bad, np.ones(6))


def test_screw_lemma_routes_agree():
    for _ in range(100):
        s = random_screw(max_angle=TWO_PI - 0.2)
        routes = _screw_lemma_routes(s)
        base = routes["Ad_of_exp"]
        for name, value in routes.items():
            assert_allclose(value, base, atol=1e-10, err_msg=name)


def test_adjoint_of_exp_equals_exp_of_adjoint():
    config = SeriesConfig(max_terms=60)
    for _ in range(100):
        s = random_screw(max_angle=math.pi)
        lhs = Ad6(se3_exp(s))
        rhs = series_exp(ad6(s), config)
        assert_allclose(lhs, rhs, atol=1e-11)


def test_ddexp_matches_finite_difference():
    for _ in range(100):
        s = random_screw(max_angle=2.5)
        u = RNG.standard_normal(6)
        assert_allclose(se3_ddexp(s, u), fd_directional(se3_dexp, s, u),
                        atol=1e-6)


def test_ddexp_inv_matches_finite_difference():
    for _ in range(100):
        s = random_screw(max_angle=2.5)
        u = RNG.standard_normal(6)
        assert_allclose(se3_ddexp_inv(s, u), fd_directional(se3_dexp_inv, s, u),
                        atol=1e-6)


def test_ddexp_at_zero_screw():
    u = RNG.standard_normal(6)
    got = se3_ddexp(np.zeros(6), u)
    want = np.zeros((6, 6))
    want[:3, :3] = 0.5 * hat3(u[:3])
    want[3:, 3:] = 0.5 * hat3(u[:3])
    want[3:, :3] = 0.5 * hat3(u[3:])
    assert_allclose(got, want, atol=1e-16)
    assert_allclose(se3_ddexp_inv(np.zeros(6), u), -want, atol=1e-16)


def test_ddexp_linear_in_direction():
    s = random_screw()
    u1, u2 = RNG.standard_normal(6), RNG.standard_normal(6)
    lhs = se3_ddexp(s, 1.5 * u1 + 0.5 * u2)
    rhs = 1.5 * se3_ddexp(s, u1) + 0.5 * se3_ddexp(s, u2)
    assert_allclose(lhs, rhs, atol=1e-13)
    lhs_inv = se3_ddexp_inv(s, 1.5 * u1 + 0.5 * u2)
    rhs_inv = 1.5 * se3_ddexp_inv(s, u1) + 0.5 * se3_ddexp_inv(s, u2)
    assert_allclose(lhs_inv, rhs_inv, atol=1e-13)


def test_ddexp_product_rule_zero():
    for _ in range(50):
        s = random_screw(max_angle=2.5)
        u = RNG.standard_normal(6)
        residual = (se3_ddexp(s, u) @ se3_dexp_inv(s)
                    + se3_dexp(s) @ se3_ddexp_inv(s, u))
        assert_allclose(residual, np.zeros((6, 6)), atol=1e-11)


def test_ddexp_inv_tangent_columns():
    # one-pass assembly agrees with stacking per-basis directional derivatives
    for _ in range(50):
        s = random_screw(max_angle=TWO_PI - 0.2)
        v = RNG.standard_normal(6)
        got = se3_ddexp_inv_tangent(s, v)
        want = np.column_stack([se3_ddexp_inv(s, e) @ v for e in np.eye(6)])
        assert_allclose(got, want, atol=1e-13)


def test_ddcay_inv_tangent_columns():
    for _ in range(50):
        s = random_screw(max_angle=3.0)
        v = RNG.standard_normal(6)
        got = se3_ddcay_inv_tangent(s, v)
        want = np.column_stack([se3_ddcay_inv(s, e) @ v for e in np.eye(6)])
        assert_allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("assembly, dmap_inv", [
    (se3_ddexp_inv_tangent, se3_dexp_inv),
    (se3_ddcay_inv_tangent, se3_dcay_inv),
], ids=["exp", "cay"])
def test_inv_tangent_matches_finite_difference(assembly, dmap_inv):
    # a route apart from se3_dd*_inv: column j is the central difference of
    # x -> dmap_inv(x) @ v along the j-th basis vector
    rng = np.random.default_rng(11)
    for _ in range(50):
        axis = rng.standard_normal(3)
        s = np.concatenate([rng.uniform(0.0, 2.5) * axis / np.linalg.norm(axis),
                            rng.standard_normal(3)])
        v = rng.standard_normal(6)
        want = np.column_stack([
            fd_directional(lambda x: dmap_inv(x) @ v, s, e) for e in np.eye(6)
        ])
        assert_allclose(assembly(s, v), want, atol=1e-6)


# ---------------------------------------------------------------------------
# Cayley chart
# ---------------------------------------------------------------------------


def test_cay_matches_resolvent():
    for _ in range(200):
        s = random_screw(max_angle=3.0)
        assert_allclose(se3_cay(s), resolvent_cay(hat6(s)), atol=1e-12)


def test_cay_pure_translation_doubles():
    s = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
    pose = se3_cay(s)
    assert_allclose(pose[:3, :3], np.eye(3))
    assert_allclose(pose[:3, 3], [2.0, 4.0, 6.0])


def test_cay_inv_roundtrip():
    for _ in range(200):
        s = random_screw(max_angle=3.5)
        assert_allclose(se3_cay_inv(se3_cay(s)), s, rtol=1e-10, atol=1e-11)


def test_cay_inv_rejects_half_turn():
    pose = se3_exp(np.array([math.pi, 0.0, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ChartDomainError):
        se3_cay_inv(pose)


def test_dcay_value_at_zero():
    assert_allclose(se3_dcay(np.zeros(6)), 2.0 * np.eye(6))
    assert_allclose(se3_dcay_inv(np.zeros(6)), 0.5 * np.eye(6))


def test_dcay_inverse_pair():
    for _ in range(100):
        s = random_screw(max_angle=3.0)
        assert_allclose(se3_dcay(s) @ se3_dcay_inv(s), np.eye(6), atol=1e-13)
        assert_allclose(se3_dcay_inv(s) @ se3_dcay(s), np.eye(6), atol=1e-13)


def test_dcay_is_right_trivialized_differential():
    # d/dt cay(X + t U) |_0 == hat6(dcay(X) U) @ cay(X)
    for _ in range(50):
        s = random_screw(max_angle=2.0)
        u = RNG.standard_normal(6)
        fd = fd_directional(se3_cay, s, u)
        body = hat6(se3_dcay(s) @ u) @ se3_cay(s)
        assert_allclose(fd, body, atol=1e-7)


def test_ddcay_matches_finite_difference():
    for _ in range(100):
        s = random_screw(max_angle=2.0)
        u = RNG.standard_normal(6)
        assert_allclose(se3_ddcay(s, u), fd_directional(se3_dcay, s, u),
                        atol=1e-6)


def test_ddcay_inv_matches_finite_difference():
    for _ in range(100):
        s = random_screw(max_angle=2.0)
        u = RNG.standard_normal(6)
        assert_allclose(se3_ddcay_inv(s, u), fd_directional(se3_dcay_inv, s, u),
                        atol=1e-6)


def test_ddcay_at_zero_screw():
    u = RNG.standard_normal(6)
    got = se3_ddcay(np.zeros(6), u)
    want = np.zeros((6, 6))
    want[:3, :3] = 2.0 * hat3(u[:3])
    want[3:, 3:] = 2.0 * hat3(u[:3])
    want[3:, :3] = 2.0 * hat3(u[3:])
    assert_allclose(got, want, atol=1e-16)
    got_inv = se3_ddcay_inv(np.zeros(6), u)
    assert_allclose(got_inv, -0.25 * want, atol=1e-16)


def test_ddcay_product_rule_zero():
    for _ in range(50):
        s = random_screw(max_angle=2.0)
        u = RNG.standard_normal(6)
        residual = (se3_ddcay(s, u) @ se3_dcay_inv(s)
                    + se3_dcay(s) @ se3_ddcay_inv(s, u))
        assert_allclose(residual, np.zeros((6, 6)), atol=1e-12)


# ---------------------------------------------------------------------------
# Cayley adjoint transport and the translation mismatch
# ---------------------------------------------------------------------------


def test_adjoint_cay_is_resolvent_of_adjoint():
    for _ in range(100):
        s = random_screw(max_angle=3.0)
        assert_allclose(adjoint_cay(s), resolvent_cay(ad6(s)), atol=1e-12)


def test_adjoint_cay_A_forms_pairwise():
    for _ in range(100):
        s = random_screw(max_angle=3.0)
        forms = list(adjoint_cay_A_forms(s).items())
        for i in range(len(forms)):
            for j in range(i + 1, len(forms)):
                assert_allclose(
                    forms[i][1], forms[j][1], atol=1e-12,
                    err_msg=f"{forms[i][0]} vs {forms[j][0]}",
                )


def test_adjoint_cay_pure_translation():
    s = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 2.0])
    got = adjoint_cay(s)
    want = np.eye(6)
    want[3:, :3] = 2.0 * hat3(s[3:])
    assert_allclose(got, want)


def test_mismatch_closed_form_is_exact():
    for _ in range(100):
        s = random_screw(max_angle=3.0)
        m = adjoint_vs_se3_cay_mismatch(s)
        assert_allclose(m.group_route - m.adjoint_route, m.predicted_gap,
                        atol=1e-13)


def test_mismatch_vanishes_for_orthogonal_blocks():
    # rotation and translation orthogonal: both routes coincide
    s = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    m = adjoint_vs_se3_cay_mismatch(s)
    assert_allclose(m.adjoint_route, m.group_route, atol=1e-15)
    assert_allclose(m.adjoint_route, [1.0, 1.0, 0.0])
    assert_allclose(m.predicted_gap, np.zeros(3), atol=1e-16)


def test_mismatch_is_large_for_pitched_screw():
    s = np.array([0.3, -0.4, 0.5, 1.0, 2.0, 0.7])
    m = adjoint_vs_se3_cay_mismatch(s)
    gap = m.group_route - m.adjoint_route
    assert_allclose(gap, [-0.06, 0.08, -0.10], atol=1e-15)
    assert np.all(np.abs(gap) > 1e-2)
