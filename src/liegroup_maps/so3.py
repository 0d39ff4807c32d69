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

from .core import ChartDomainError, _as_vec, hat3, is_rotation, vee3
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


def so3_exp(rotvec) -> np.ndarray:
    """Rotation matrix of a rotation vector.

    R = I + a*hat(x) + (b/2)*hat(x)**2 with a = sinc(phi), b the squared
    half-angle sinc, phi = |x|.
    """
    x = _as_vec(rotvec, 3, "rotvec")
    phi = math.sqrt(float(x @ x))
    hx = hat3(x)
    return _EYE3 + _sinc(phi) * hx + 0.5 * _sinc_sq_half(phi) * (hx @ hx)


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
    x = _as_vec(rotvec, 3, "rotvec")
    phi = math.sqrt(float(x @ x))
    hx = hat3(x)
    return _EYE3 + 0.5 * _sinc_sq_half(phi) * hx + _dexp_quad(phi) * (hx @ hx)


def so3_dexp_inv(rotvec) -> np.ndarray:
    """Inverse of :func:`so3_dexp`; requires |x| < 2*pi.

    D^{-1} = I - hat(x)/2 + c*hat(x)**2 with c the quadratic inverse
    coefficient (limit 1/12).
    """
    x = _as_vec(rotvec, 3, "rotvec")
    phi = math.sqrt(float(x @ x))
    ensure_dexp_inv_domain(phi)
    hx = hat3(x)
    return _EYE3 - 0.5 * hx + _dexpinv_quad(phi) * (hx @ hx)


def so3_ddexp(rotvec, direction) -> np.ndarray:
    """Directional derivative of :func:`so3_dexp` at ``rotvec`` along
    ``direction``; smooth through x = 0."""
    x = _as_vec(rotvec, 3, "rotvec")
    u = _as_vec(direction, 3, "direction")
    phi = math.sqrt(float(x @ x))
    hx, hu = hat3(x), hat3(u)
    x_dot_u = float(x @ u)
    return (0.5 * _sinc_sq_half(phi) * hu
            + _dexp_quad(phi) * (hx @ hu + hu @ hx)
            + x_dot_u * (_dexp_lin_rate(phi) * hx
                         + _dexp_quad_rate(phi) * (hx @ hx)))


def so3_ddexp_inv(rotvec, direction) -> np.ndarray:
    """Directional derivative of :func:`so3_dexp_inv`; requires |x| < 2*pi."""
    x = _as_vec(rotvec, 3, "rotvec")
    u = _as_vec(direction, 3, "direction")
    phi = math.sqrt(float(x @ x))
    ensure_dexp_inv_domain(phi)
    hx, hu = hat3(x), hat3(u)
    x_dot_u = float(x @ u)
    return (-0.5 * hu
            + _dexpinv_quad(phi) * (hx @ hu + hu @ hx)
            + _dexpinv_quad_rate(phi) * x_dot_u * (hx @ hx))


def _dexp_raw_trig(rotvec) -> np.ndarray:
    """Alternative evaluation of :func:`so3_dexp` from raw trigonometry.

    Deliberately shares nothing with the guarded kernels (no series, no
    cancellation control), so it is only accurate away from small angles.
    Used as an independent cross-check route.
    """
    x = _as_vec(rotvec, 3, "rotvec")
    phi = float(np.linalg.norm(x))
    if phi < 1e-8:
        return np.eye(3) + 0.5 * hat3(x)
    hx = hat3(x)
    return (np.eye(3)
            + ((1.0 - math.cos(phi)) / phi**2) * hx
            + ((phi - math.sin(phi)) / phi**3) * (hx @ hx))


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


def sigma(gibbs) -> float:
    """Cayley scaling factor 2/(1 + |g|**2); :class:`ChartDomainError` if
    |g|**2 is not finite (a non-finite component, or an overflow)."""
    g = _as_vec(gibbs, 3, "gibbs")
    g_sq = float(g @ g)
    if not math.isfinite(g_sq):
        raise ChartDomainError(
            f"Cayley chart needs a finite |g|**2, got {g_sq}: a component "
            f"is not finite or |g|**2 overflows")
    return 2.0 / (1.0 + g_sq)


def so3_cay(gibbs) -> np.ndarray:
    """Rotation matrix of a Gibbs vector g = tan(angle/2) * axis.

    R = I + s*(hat(g) + hat(g)**2) with s = 2/(1 + |g|**2); rational, no
    trigonometry, covers every rotation except angle pi.
    """
    g = _as_vec(gibbs, 3, "gibbs")
    hg = hat3(g)
    return _EYE3 + sigma(g) * (hg + hg @ hg)


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
    g = _as_vec(gibbs, 3, "gibbs")
    return sigma(g) * (_EYE3 + hat3(g))


def so3_dcay_inv(gibbs) -> np.ndarray:
    """Inverse of :func:`so3_dcay`.

    (1/s)*I + (hat(g)**2 - hat(g))/2; equals I/2 at g = 0.
    """
    g = _as_vec(gibbs, 3, "gibbs")
    hg = hat3(g)
    return (1.0 / sigma(g)) * _EYE3 + 0.5 * (hg @ hg - hg)


def _dcay_inv_via_rotation(gibbs) -> np.ndarray:
    """Alternative evaluation of :func:`so3_dcay_inv` as (I + R^T)/(2 s).

    Independent route through the assembled rotation matrix, used for
    cross-checking the matrix-polynomial form.
    """
    g = _as_vec(gibbs, 3, "gibbs")
    return (_EYE3 + so3_cay(g).T) / (2.0 * sigma(g))


def so3_ddcay(gibbs, direction) -> np.ndarray:
    """Directional derivative of :func:`so3_dcay` along ``direction``."""
    g = _as_vec(gibbs, 3, "gibbs")
    w = _as_vec(direction, 3, "direction")
    s = sigma(g)
    return s * hat3(w) - s * s * float(g @ w) * (_EYE3 + hat3(g))


def so3_ddcay_inv(gibbs, direction) -> np.ndarray:
    """Directional derivative of :func:`so3_dcay_inv` along ``direction``."""
    g = _as_vec(gibbs, 3, "gibbs")
    w = _as_vec(direction, 3, "direction")
    hg, hw = hat3(g), hat3(w)
    return float(g @ w) * _EYE3 + 0.5 * (hg @ hw + hw @ hg - hw)
