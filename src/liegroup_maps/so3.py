"""Closed-form coordinate maps on the rotation group.

Two charts are provided: the exponential map parametrized by the rotation
vector x (angle times unit axis), and the Cayley map parametrized by the
Gibbs vector g = tan(angle/2) * axis.  For each chart the package supplies
the map, its inverse, the right-trivialized differential, the inverse
differential, and the directional derivatives of both — all as short matrix
polynomials with scalar coefficients from :mod:`liegroup_maps.scalars`.

A note on scaling: this package uses the unhalved Cayley differential, i.e.
``so3_dcay(0) == 2*I``.  The differential maps Gibbs-vector velocities to
body angular velocities without the factor-of-two compensation some
conventions fold in; its inverse is correspondingly ``so3_dcay_inv(0) ==
I/2``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (ChartDomainError, _as_vec, _dot, _finite, _mat3, hat3,
                   is_rotation, vee3)
from .scalars import (
    _dexp_lin_rate,
    _dexp_quad,
    _dexp_quad_rate,
    _dexpinv_quad,
    _dexpinv_quad_rate,
    _inv_sinc,
    _sinc,
    _sinc_sq_half,
    ensure_dexp_inv_domain,
)

__all__ = [
    "so3_exp",
    "so3_log",
    "so3_dexp",
    "so3_dexp_inv",
    "so3_ddexp",
    "so3_ddexp_inv",
    "sigma",
    "so3_cay",
    "so3_cay_inv",
    "so3_dcay",
    "so3_dcay_inv",
    "so3_ddcay",
    "so3_ddcay_inv",
]

_EYE3 = np.eye(3)

# Above this angle the rotation axis is recovered from the symmetric part of
# the rotation matrix instead of the (vanishing) antisymmetric part.
_LOG_NEAR_PI = math.pi - 1e-3
# A Cayley chart inverse needs 1 + trace(R) well away from zero (angle pi).
_CAY_TRACE_GUARD = 1e-6


# ---------------------------------------------------------------------------
# Exponential chart
# ---------------------------------------------------------------------------


def _angle(x) -> float:
    """|x| of a rotation vector given as floats, the one place the exponential
    chart takes the angle; ChartDomainError if |x|**2 is not finite."""
    phi_sq = _dot(x, x)
    if not math.isfinite(phi_sq):
        raise ChartDomainError(
            f"rotation angle must be finite, got |x|**2 = {phi_sq}: a "
            f"component is not finite or |x|**2 overflows")
    return math.sqrt(phi_sq)


def _rotvec(rotvec):
    """A rotation vector as floats, and its angle."""
    x = _as_vec(rotvec, 3, "rotvec").tolist()
    return x, _angle(x)


def _direction(direction) -> list:
    """A direction 3-vector as floats, every entry checked finite."""
    u = _as_vec(direction, 3, "direction").tolist()
    _finite(u, "direction")
    return u


def _hat_poly_rows(x, lin: float, quad: float) -> list:
    """Rows of I + lin*hat(x) + quad*hat(x)**2 on floats, hat(x)**2 being
    x x^T - |x|**2 I with the x_i**2 that cancels left out of its diagonal."""
    a, b, c = x
    aa, bb, cc = a * a, b * b, c * c
    ab, ac, bc = a * b, a * c, b * c
    return [[1.0 - quad * (bb + cc), quad * ab - lin * c, quad * ac + lin * b],
            [quad * ab + lin * c, 1.0 - quad * (aa + cc), quad * bc - lin * a],
            [quad * ac - lin * b, quad * bc + lin * a, 1.0 - quad * (aa + bb)]]


def _hat_poly_deriv_rows(x, y, lin: float, quad: float, quad_rate: float,
                         lin_rate: float | None = None) -> list:
    """Rows of the derivative of :func:`_hat_poly_rows` along y on floats,
    lin*hat(y) + quad*(x y^T + y x^T - 2 (x.y) I) + (x.y)*(lin_rate*hat(x)
    + quad_rate*hat(x)**2), the rates being (1/phi) d/dphi of lin and quad."""
    a, b, c = x
    u, v, w = y
    au, bv, cw = a * u, b * v, c * w
    x_y = au + bv + cw
    p, q, r = lin * u, lin * v, lin * w     # the skew part, hat((p, q, r))
    if lin_rate is not None:    # None: a constant lin, no hat(x) term at all
        lin_rate *= x_y
        p, q, r = p + lin_rate * a, q + lin_rate * b, r + lin_rate * c
    rate = quad_rate * x_y
    s01 = quad * (a * v + b * u) + rate * (a * b)
    s02 = quad * (a * w + c * u) + rate * (a * c)
    s12 = quad * (b * w + c * v) + rate * (b * c)
    d = 2.0 * quad      # 0.0 - (...): a +0.0 diagonal at x = 0
    return [[0.0 - (d * (bv + cw) + rate * (b * b + c * c)), s01 - r, s02 + q],
            [s01 + r, 0.0 - (d * (au + cw) + rate * (a * a + c * c)), s12 - p],
            [s02 - q, s12 + p, 0.0 - (d * (au + bv) + rate * (a * a + b * b))]]


def _hat_poly_deriv2_rows(x, y, u, v, lin, quad, lin_rate, quad_rate,
                          lin_rate2, quad_rate2) -> list:
    """Rows of D_v P(x) + D_u D_y P(x) on floats, P(x) the polynomial of
    :func:`_hat_poly_rows`, the rates as in :func:`_hat_poly_deriv_rows` and
    rate2 the (1/phi) d/dphi of rate; its symmetric products are the dyads
    of hat(a) hat(b) + hat(b) hat(a) = a b^T + b a^T - 2 (a.b) I."""
    x_y, x_u = _dot(x, y), _dot(x, u)
    mixed = _dot(x, v) + _dot(y, u)
    x_yu = x_y * x_u
    sq = quad_rate * mixed + quad_rate2 * x_yu      # times hat(x)**2
    skew = [lin * vi + lin_rate * (mixed * xi + x_u * yi + x_y * ui)
            + lin_rate2 * x_yu * xi for xi, yi, ui, vi in zip(x, y, u, v)]
    p = [quad * vi + quad_rate * (x_u * yi + x_y * ui) + 0.5 * sq * xi
         for xi, yi, ui, vi in zip(x, y, u, v)]
    qu = [quad * ui for ui in u]
    diag = -2.0 * (quad * mixed + 2.0 * quad_rate * x_yu) - sq * _dot(x, x)
    return _mat3(skew, diag, (x, p), (p, x), (qu, y), (y, qu))


def so3_exp(rotvec) -> np.ndarray:
    """Rotation matrix of a rotation vector.

    R = I + a*hat(x) + (b/2)*hat(x)**2 with a = sinc(phi), b the squared
    half-angle sinc, phi = |x|.
    """
    x, phi = _rotvec(rotvec)
    return np.array(_hat_poly_rows(x, _sinc(phi), 0.5 * _sinc_sq_half(phi)))


def so3_log(rot) -> np.ndarray:
    """Rotation vector of a rotation matrix; inverse of :func:`so3_exp`.

    Returns the unique rotation vector with |x| <= pi (at exactly pi the
    sign of the axis is fixed canonically).  The input must be orthonormal
    with determinant +1 to within 1e-9.
    """
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3) or not is_rotation(rot):
        raise ValueError("so3_log requires a proper rotation matrix")
    w = np.array([rot[2, 1] - rot[1, 2],
                  rot[0, 2] - rot[2, 0],
                  rot[1, 0] - rot[0, 1]]) * 0.5       # sin(phi) * axis
    cos_phi = 0.5 * (np.trace(rot) - 1.0)
    sin_phi = float(np.linalg.norm(w))
    phi = math.atan2(sin_phi, cos_phi)
    if phi < _LOG_NEAR_PI:
        return _inv_sinc(phi) * w
    # Near pi the antisymmetric part vanishes; the axis direction comes from
    # the dominant column of the symmetric part, the sign from w if any of
    # it survives, else canonically.
    sym = 0.5 * (rot + rot.T) - cos_phi * _EYE3       # (1 - cos phi) n n^T
    k = int(np.argmax(np.diag(sym)))
    axis = sym[:, k]
    axis = axis / np.linalg.norm(axis)
    if sin_phi > 1e-12:
        if axis @ w < 0.0:
            axis = -axis
    else:
        for component in axis:
            if component != 0.0:
                if component < 0.0:
                    axis = -axis
                break
    return phi * axis


def so3_dexp(rotvec) -> np.ndarray:
    """Right-trivialized differential of :func:`so3_exp`.

    D = I + (b/2)*hat(x) + d*hat(x)**2; maps rotation-vector velocities to
    body angular velocities.
    """
    x, phi = _rotvec(rotvec)
    return np.array(_hat_poly_rows(x, 0.5 * _sinc_sq_half(phi),
                                   _dexp_quad(phi)))


def so3_dexp_inv(rotvec) -> np.ndarray:
    """Inverse of :func:`so3_dexp`; requires |x| < 2*pi.

    D^{-1} = I - hat(x)/2 + c*hat(x)**2 with c the quadratic inverse
    coefficient (limit 1/12).
    """
    x, phi = _rotvec(rotvec)
    ensure_dexp_inv_domain(phi)
    return np.array(_hat_poly_rows(x, -0.5, _dexpinv_quad(phi)))


def so3_ddexp(rotvec, direction) -> np.ndarray:
    """Directional derivative of :func:`so3_dexp` at ``rotvec`` along
    ``direction``; smooth through x = 0."""
    x, phi = _rotvec(rotvec)
    u = _direction(direction)
    return np.array(_hat_poly_deriv_rows(
        x, u, 0.5 * _sinc_sq_half(phi), _dexp_quad(phi), _dexp_quad_rate(phi),
        _dexp_lin_rate(phi)))


def so3_ddexp_inv(rotvec, direction) -> np.ndarray:
    """Directional derivative of :func:`so3_dexp_inv`; requires |x| < 2*pi."""
    x, phi = _rotvec(rotvec)
    u = _direction(direction)
    ensure_dexp_inv_domain(phi)
    return np.array(_hat_poly_deriv_rows(x, u, -0.5, _dexpinv_quad(phi),
                                         _dexpinv_quad_rate(phi)))


def _rotation_lemma_routes(rotvec) -> dict[str, np.ndarray]:
    """The rotation matrix by four differential-only routes.

    On the rotation group the differential at -x is the transpose of the
    differential at x, which turns the adjoint of the exponential into four
    equivalent matrix identities; all must reproduce :func:`so3_exp`.
    """
    x = _as_vec(rotvec, 3, "rotvec")
    d = so3_dexp(x)
    d_inv_neg = so3_dexp_inv(-x)
    hx = hat3(x)
    return {
        "exp": so3_exp(x),
        "dexpinv_neg_then_dexp": d_inv_neg @ d,
        "dexp_then_dexpinv_neg": d @ d_inv_neg,
        "identity_plus_hat_dexp": _EYE3 + hx @ d,
        "identity_plus_dexp_hat": _EYE3 + d @ hx,
    }


# ---------------------------------------------------------------------------
# Cayley chart
# ---------------------------------------------------------------------------


def _sigma(g) -> float:
    """:func:`sigma` of a Gibbs vector given as floats; also the chart check
    of the maps that need no sigma."""
    g_sq = _dot(g, g)
    if not math.isfinite(g_sq):
        raise ChartDomainError(
            f"Cayley chart needs a finite |g|**2, got {g_sq}: a component "
            f"is not finite or |g|**2 overflows")
    return 2.0 / (1.0 + g_sq)


def sigma(gibbs) -> float:
    """Cayley scaling factor 2/(1 + |g|**2); :class:`ChartDomainError` if
    |g|**2 is not finite (a non-finite component, or an overflow)."""
    return _sigma(_as_vec(gibbs, 3, "gibbs").tolist())


def _cay_rows(g, s: float, diag: float = 1.0) -> list:
    """Rows of diag*I + s*(hat(g) + g g^T - |g|**2 I) on floats; the
    diagonal diag - s*(g_j**2 + g_k**2) rounds once (diag - s*|g|**2 +
    s*g_i**2 rounds twice and lets a rotation drift off orthogonality)."""
    a, b, c = g
    aa, bb, cc = a * a, b * b, c * c
    ab, ac, bc = a * b, a * c, b * c
    return [[diag - s * (bb + cc), s * (ab - c), s * (ac + b)],
            [s * (ab + c), diag - s * (aa + cc), s * (bc - a)],
            [s * (ac - b), s * (bc + a), diag - s * (aa + bb)]]


def _dcay_inv_rows(g) -> list:
    """Rows of (I + g g^T - hat(g))/2 = (1/s) I + (hat(g)**2 - hat(g))/2 on
    floats, so the diagonal is the exact (1 + g_i**2)/2."""
    a, b, c = g
    return [[0.5 * (1.0 + a * a), 0.5 * (a * b + c), 0.5 * (a * c - b)],
            [0.5 * (a * b - c), 0.5 * (1.0 + b * b), 0.5 * (b * c + a)],
            [0.5 * (a * c + b), 0.5 * (b * c - a), 0.5 * (1.0 + c * c)]]


def _ddcay_rows(g, w, s: float, *dyads) -> list:
    """Rows of s*hat(w) - s**2 (g.w) (I + hat(g)), the derivative of
    s*(I + hat(g)) along w, plus the (b, c) ``dyads`` b c^T, on floats."""
    t = s * s * _dot(g, w)      # 0.0 - t: a +0.0 diagonal where g.w is 0
    return _mat3([s * wi - t * gi for gi, wi in zip(g, w)], 0.0 - t, *dyads)


def _ddcay_inv_rows(g, w) -> list:
    """Rows of (w g^T + g w^T - hat(w))/2, the derivative of
    :func:`_dcay_inv_rows` along w, on floats."""
    half_w = [0.5 * wi for wi in w]
    return _mat3([-hi for hi in half_w], 0.0, (half_w, g), (g, half_w))


def so3_cay(gibbs) -> np.ndarray:
    """Rotation matrix of a Gibbs vector g = tan(angle/2) * axis.

    R = I + s*(hat(g) + hat(g)**2) with s = 2/(1 + |g|**2); rational, no
    trigonometry, covers every rotation except angle pi.
    """
    g = _as_vec(gibbs, 3, "gibbs").tolist()
    return np.array(_cay_rows(g, _sigma(g)))


def so3_cay_inv(rot) -> np.ndarray:
    """Gibbs vector of a rotation matrix; inverse of :func:`so3_cay`.

    g = vee(R - R^T)/(1 + trace(R)); undefined at rotation angle pi where
    1 + trace(R) = 0, raising :class:`ChartDomainError`.
    """
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3) or not is_rotation(rot):
        raise ValueError("so3_cay_inv requires a proper rotation matrix")
    denom = 1.0 + float(np.trace(rot))
    if abs(denom) < _CAY_TRACE_GUARD:
        raise ChartDomainError(
            "Cayley chart boundary: rotation angle at pi (1 + trace == 0)"
        )
    return vee3(rot - rot.T) / denom


def so3_dcay(gibbs) -> np.ndarray:
    """Right-trivialized differential of :func:`so3_cay` (unhalved scaling).

    dcay = s*(I + hat(g)); equals 2*I at g = 0.
    """
    g = _as_vec(gibbs, 3, "gibbs").tolist()
    sig = _sigma(g)
    return np.array(_mat3([sig * gi for gi in g], sig))


def so3_dcay_inv(gibbs) -> np.ndarray:
    """Inverse of :func:`so3_dcay`.

    (1/s)*I + (hat(g)**2 - hat(g))/2; equals I/2 at g = 0.
    """
    g = _as_vec(gibbs, 3, "gibbs").tolist()
    _sigma(g)       # the chart check
    return np.array(_dcay_inv_rows(g))


def so3_ddcay(gibbs, direction) -> np.ndarray:
    """Directional derivative of :func:`so3_dcay` along ``direction``."""
    g = _as_vec(gibbs, 3, "gibbs").tolist()
    s = _sigma(g)
    return np.array(_ddcay_rows(g, _direction(direction), s))


def so3_ddcay_inv(gibbs, direction) -> np.ndarray:
    """Directional derivative of :func:`so3_dcay_inv` along ``direction``."""
    g = _as_vec(gibbs, 3, "gibbs").tolist()
    _sigma(g)       # the chart check
    return np.array(_ddcay_inv_rows(g, _direction(direction)))
