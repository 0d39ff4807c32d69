import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import liegroup_maps
from liegroup_maps import se3 as se3_module
from liegroup_maps import so3 as so3_module
from liegroup_maps.core import Ad6, ChartDomainError, ad6, hat3, hat6
from liegroup_maps.oracle import (
    SeriesConfig,
    adjoint_cay_A_forms,
    adjoint_vs_se3_cay_mismatch,
    fd_directional,
    resolvent_cay,
    series_dexp,
    series_dexp_inv,
    series_exp,
)
from liegroup_maps.se3 import (
    adjoint_cay,
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
from liegroup_maps.scalars import (
    DEXPINV_DOMAIN_LIMIT,
    SERIES_WINDOW,
    SMALL_ANGLE_THRESHOLD,
)
from liegroup_maps.so3 import (
    so3_cay,
    so3_dcay,
    so3_dcay_inv,
    so3_ddcay,
    so3_ddcay_inv,
    so3_ddexp,
    so3_ddexp_inv,
    so3_dexp,
    so3_dexp_inv,
    so3_exp,
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


def test_log_rejects_nan_rotation_block():
    # a ValueError, not the RuntimeWarning of a determinant of NaNs
    pose = np.eye(4)
    pose[:3, :3] = math.nan
    with pytest.raises(ValueError, match="proper rotation"):
        se3_log(pose)


@pytest.mark.parametrize("inverse", [se3_log, se3_cay_inv])
def test_inverse_maps_check_the_bottom_row(inverse):
    # the transpose moves the translation into the bottom row; the rotation
    # block alone would give the screw of the bare rotation
    pose = se3_exp(np.array([0.3, -0.2, 0.5, 1.0, 2.0, -0.7]))
    for bad in (pose.T, np.full((4, 4), math.nan)):
        with pytest.raises(ValueError, match="bottom row of pose"):
            inverse(bad)


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


@pytest.mark.parametrize("gibbs", [[math.nan, 0.0, 0.0], [1e200, 0.0, 0.0]])
def test_cayley_derivatives_reject_non_finite_gibbs_square(gibbs):
    # neither needs sigma; the tangent sits on the implicit-midpoint path
    bad = gibbs + [1.0, 0.0, 0.0]
    for op in (se3_ddcay_inv, se3_ddcay_inv_tangent):
        with pytest.raises(ChartDomainError, match=r"\|g\|\*\*2"):
            op(bad, np.ones(6))


_DIRECTIONAL = (se3_ddexp, se3_ddexp_inv, se3_ddcay, se3_ddcay_inv,
                se3_ddexp_inv_tangent, se3_ddcay_inv_tangent)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("op", [
    se3_exp, se3_cay, se3_log, se3_cay_inv, se3_dexp, se3_dexp_inv, se3_dcay,
    se3_dcay_inv, se3_dexp_adform, se3_dexp_inv_adform, adjoint_cay,
    adjoint_cay_A_forms, adjoint_vs_se3_cay_mismatch, *_DIRECTIONAL])
def test_non_finite_translation_raises_domain_error(op, bad):
    # a pose for the inverses, a screw for the maps, and for the directional
    # maps the bad translation in the screw and then in the direction; the
    # rotation parts are finite
    screw = np.array([0.3, -0.2, 0.1, 0.5, bad, -0.4])
    good = np.array([0.2, 0.1, -0.3, 0.4, 0.6, -0.1])
    if op in (se3_log, se3_cay_inv):
        pose = np.eye(4)
        pose[1, 3] = bad
        calls = [(pose,)]
    elif op in _DIRECTIONAL:
        calls = [(screw, good), (good, screw)]
    else:
        calls = [(screw,)]
    for args in calls:
        with pytest.raises(ChartDomainError,
                           match="translation must be finite"):
            op(*args)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("op", [so3_ddexp, so3_ddexp_inv, so3_ddcay,
                                so3_ddcay_inv, *_DIRECTIONAL])
def test_non_finite_angular_direction_raises_domain_error(op, bad):
    # the whole direction is checked, its angular part too, and the error
    # names the argument
    if op.__name__.startswith("so3"):
        name = "direction"
        args = ([0.3, 0.1, 0.2], [bad, 0.0, 0.0])
    else:
        name = "twist" if op.__name__.endswith("tangent") else "dscrew"
        args = ([0.3, 0.1, 0.2, 0.5, -0.4, 0.2],
                [bad, 0.0, 0.0, 0.1, 0.2, 0.3])
    with pytest.raises(ChartDomainError, match=f"{name} must be finite"):
        op(*args)


@pytest.mark.parametrize("op", [se3_cay, se3_dcay, se3_dcay_inv, adjoint_cay,
                                se3_ddcay, se3_ddcay_inv,
                                se3_ddcay_inv_tangent])
def test_cayley_screw_maps_check_the_chart_once(monkeypatch, op):
    # one _sigma per call, and no second parse through a public so3 map
    checks, parses = [], []
    real_sigma, real_as_vec = so3_module._sigma, so3_module._as_vec

    def counting_sigma(g):
        checks.append(g)
        return real_sigma(g)

    def counting_as_vec(*args):
        parses.append(args)
        return real_as_vec(*args)

    for module in (so3_module, se3_module):
        monkeypatch.setattr(module, "_sigma", counting_sigma)
    monkeypatch.setattr(so3_module, "_as_vec", counting_as_vec)
    args = [np.array([0.3, -0.2, 0.1, 0.5, 0.4, -0.4])]
    if op in _DIRECTIONAL:
        args.append(np.array([0.2, 0.1, -0.3, 0.4, 0.6, -0.1]))
    op(*args)
    assert len(checks) == 1
    assert parses == []


@pytest.mark.parametrize("op", [se3_exp, se3_cay])
def test_huge_finite_translation_passes(op):
    # entries are checked one by one: a sum of these would overflow
    y = np.array([1e300, 1e300, 1e300])
    pose = op(np.concatenate([np.zeros(3), y]))
    assert np.all(np.isfinite(pose))
    for inv in (se3_log, se3_cay_inv):
        assert np.all(np.isfinite(inv(pose)[3:]))


def test_dexp_inv_domain_error():
    bad = np.array([0.0, 0.0, TWO_PI, 1.0, 0.0, 0.0])
    with pytest.raises(ChartDomainError, match="dexp-inverse domain exceeded"):
        se3_dexp_inv(bad)
    with pytest.raises(ChartDomainError):
        se3_dexp_inv_adform(bad)
    with pytest.raises(ChartDomainError):
        se3_ddexp_inv(bad, np.ones(6))


def test_screw_lemma_routes_agree():
    # the frame-transport lemma: four routes to the adjoint of the exponential
    for _ in range(100):
        s = random_screw(max_angle=TWO_PI - 0.2)
        d, d_inv_neg, ad = se3_dexp(s), se3_dexp_inv(-s), ad6(s)
        routes = {
            "dexpinv_neg_then_dexp": d_inv_neg @ d,
            "dexp_then_dexpinv_neg": d @ d_inv_neg,
            "identity_plus_ad_dexp": np.eye(6) + ad @ d,
            "identity_plus_dexp_ad": np.eye(6) + d @ ad,
        }
        for name, value in routes.items():
            assert_allclose(value, Ad6(se3_exp(s)), atol=1e-10, err_msg=name)


def test_closed_form_modules_hold_no_certification_helpers():
    # hat3 and Ad6 serve only the certification routes in oracle and the
    # verify table; the closed forms are built from float rows.  ad6 stays
    # in se3 for the adjoint-polynomial maps, which are under test.
    for module in (so3_module, se3_module):
        for name in ("hat3", "Ad6"):
            assert not hasattr(module, name), (module.__name__, name)


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


@pytest.mark.parametrize("op, args", [
    (so3_ddexp_inv, ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])),
    (so3_ddexp, ([0.0, 0.0, 1e-3], [0.1, 0.4, -0.3])),
    (se3_ddexp_inv, (np.zeros(6), [1.0, 2.0, 3.0, 0.2, -0.5, 0.6])),
    (se3_dexp_inv, ([0.0, 0.0, 0.0, 1.0, 2.0, 3.0],)),
    (se3_dexp, ([0.0, 0.0, 3.0, 1.0, 2.0, -0.7],)),
])
def test_hat_polynomial_derivative_has_no_negative_zeros(op, args):
    # the diagonals vanish where x is zero or on an axis; they must come
    # out as +0.0, so the CLI never prints -0.0 for an exact zero
    out = op(*args)
    zeros = out[out == 0.0]
    assert zeros.size and not np.signbit(zeros).any()


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


# Rotation angles over the whole chart: zero, tiny, both sides of the
# series/closed seam and of the quotient kernels' series window, a half turn
# and just short of the inverse maps' 2*pi limit
_CHART_ANGLES = [0.0, 1e-8, SMALL_ANGLE_THRESHOLD * (1.0 - 1e-9),
                 SMALL_ANGLE_THRESHOLD * (1.0 + 1e-9),
                 SERIES_WINDOW * (1.0 - 1e-9), SERIES_WINDOW * (1.0 + 1e-9),
                 math.pi, DEXPINV_DOMAIN_LIMIT * (1.0 - 1e-12)]
_UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 0.1).map(
    lambda v: [vi / math.hypot(*v) for vi in v])
_VEC3 = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)
_TL, _BR, _BL = np.s_[:3, :3], np.s_[3:, 3:], np.s_[3:, :3]
# (rotation map, its direction: none, the screw's translation y or the
# screw direction's angular part u, screw map, block); a Cayley parameter is
# the Gibbs vector tan(angle/2) * axis.  The Cayley bottom-right blocks,
# I + R and (I - hat(x))/2, are no rotation map.
_BLOCK_PAIRS = [
    (so3_exp, None, se3_exp, _TL),
    (so3_dexp, None, se3_dexp, _TL),
    (so3_dexp, None, se3_dexp, _BR),
    (so3_dexp_inv, None, se3_dexp_inv, _TL),
    (so3_dexp_inv, None, se3_dexp_inv, _BR),
    (so3_ddexp, "y", se3_dexp, _BL),
    (so3_ddexp_inv, "y", se3_dexp_inv, _BL),
    (so3_ddexp, "u", se3_ddexp, _TL),
    (so3_ddexp, "u", se3_ddexp, _BR),
    (so3_ddexp_inv, "u", se3_ddexp_inv, _TL),
    (so3_ddexp_inv, "u", se3_ddexp_inv, _BR),
    (so3_cay, None, se3_cay, _TL),
    (so3_dcay, None, se3_dcay, _TL),
    (so3_dcay_inv, None, se3_dcay_inv, _TL),
    (so3_ddcay, "u", se3_ddcay, _TL),
    (so3_ddcay_inv, "u", se3_ddcay_inv, _TL),
    (so3_cay, None, adjoint_cay, _TL),
    (so3_cay, None, adjoint_cay, _BR),
]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(angle=st.one_of(st.sampled_from(_CHART_ANGLES),
                       st.floats(0.0, DEXPINV_DOMAIN_LIMIT * (1.0 - 1e-12))),
       axis=_UNIT, y=_VEC3, u=_VEC3, v=_VEC3)
def test_so3_maps_are_se3_blocks_bit_for_bit(angle, axis, y, u, v):
    # one implementation per rotation formula: each screw-map block is the
    # rotation map itself, to the last bit, on both charts
    for so3_map, along, se3_map, block in _BLOCK_PAIRS:
        cayley = "cay" in so3_map.__name__
        scale = math.tan(0.5 * angle) if cayley else angle
        x = [scale * ai for ai in axis]
        rot = so3_map(x) if along is None else so3_map(
            x, y if along == "y" else u)
        screw = se3_map(x + y, u + v) if along == "u" else se3_map(x + y)
        assert screw[block].tobytes() == rot.tobytes(), (
            so3_map.__name__, se3_map.__name__, block)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(angle=st.one_of(st.sampled_from(_CHART_ANGLES),
                       st.floats(0.0, DEXPINV_DOMAIN_LIMIT * (1.0 - 1e-12))),
       axis=_UNIT, y=_VEC3, u=_VEC3, v=_VEC3)
def test_ddexp_lower_block_identities(angle, axis, y, u, v):
    # the lower block of se3_ddexp/se3_ddexp_inv is D_v P(x) + D_u D_y P(x),
    # P the rotation differential or its inverse; exact identities, so the
    # only tolerance is roundoff relative to the block
    x = [angle * ai for ai in axis]
    zero = [0.0, 0.0, 0.0]
    for se3_map, so3_map in ((se3_ddexp, so3_ddexp),
                             (se3_ddexp_inv, so3_ddexp_inv)):
        # along (0, v): only D_v P(x) is left, the rotation derivative
        want = np.zeros((6, 6))
        want[_BL] = so3_map(x, v)
        got = se3_map(x + y, zero + v)
        assert_allclose(got, want, rtol=0.0,
                        atol=1e-14 * np.abs(want).max(), err_msg=str(se3_map))
        # D_u D_y P(x) is symmetric in u and y
        uy = se3_map(x + y, u + zero)[_BL]
        yu = se3_map(x + u, y + zero)[_BL]
        assert_allclose(uy, yu, rtol=0.0, atol=1e-14 * np.abs(yu).max(),
                        err_msg=str(se3_map))


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


@pytest.mark.parametrize("module", [so3_module, se3_module])
def test_public_maps_are_package_attributes(module):
    missing = [name for name in module.__all__
               if not hasattr(liegroup_maps, name)]
    assert not missing, f"{module.__name__} names missing from the package"
