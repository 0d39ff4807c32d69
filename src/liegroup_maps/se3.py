"""Closed-form coordinate maps on the rigid-motion group.

Screws are 6-vectors with the angular block first: X = (x, y) where x drives
the rotation and y the translation.

The exponential-chart differentials come in two algebraically identical
shapes: a polynomial in the 6x6 adjoint operator, and the cheaper default 2x2
block form, built from the float rows of the :mod:`liegroup_maps.so3` maps:
the rotation differential on the diagonal and its derivative along the
translation below it (and the rotation block of ``se3_exp``).  The adjoint
forms and ``se3_ddexp_inv_tangent`` have implementations of their own.

The Cayley chart uses the unhalved scaling throughout (see
:mod:`liegroup_maps.so3`): ``se3_dcay(0)`` is ``2*I`` on the rotation and
translation diagonals.  A consequence worth knowing: the rigid-motion Cayley
map and the adjoint-style Cayley transport disagree in their translation
columns by exactly ``s*(x.y)*x`` — they coincide only where the screw's
rotation and translation parts are orthogonal.

This module holds only closed forms.  The routes that certify them, this
mismatch included, are in :mod:`liegroup_maps.oracle` and ``verify``.
"""

from __future__ import annotations

import numpy as np

from .core import _as_pose, _as_vec, _cross, _dot, _finite, _mat3, ad6
from .scalars import (
    _adform_quad,
    _adform_quart,
    _dexp_lin_rate,
    _dexp_lin_rate2,
    _dexp_quad,
    _dexp_quad_rate,
    _dexp_quad_rate2,
    _dexpinv_quad,
    _dexpinv_quad_rate,
    _dexpinv_quad_rate2,
    _sinc,
    _sinc_sq_half,
    ensure_dexp_inv_domain,
)
from .so3 import (_angle, _cay_rows, _dcay_inv_rows, _ddcay_inv_rows,
                  _ddcay_rows, _hat_poly_deriv2_rows, _hat_poly_deriv_rows,
                  _hat_poly_rows, _sigma, so3_cay_inv, so3_dexp_inv, so3_log)

__all__ = [
    "se3_exp",
    "se3_log",
    "se3_dexp",
    "se3_dexp_inv",
    "se3_dexp_adform",
    "se3_dexp_inv_adform",
    "se3_ddexp",
    "se3_ddexp_inv",
    "se3_ddexp_inv_tangent",
    "se3_ddcay_inv_tangent",
    "se3_cay",
    "se3_cay_inv",
    "se3_dcay",
    "se3_dcay_inv",
    "se3_ddcay",
    "se3_ddcay_inv",
    "adjoint_cay",
]

_EYE3 = np.eye(3)
_EYE6 = np.eye(6)


def _blocks66(tl, bl, br) -> np.ndarray:
    """[[tl, 0], [bl, br]] from the row lists of three 3x3 blocks."""
    (t0, t1, t2), (l0, l1, l2), (r0, r1, r2) = tl, bl, br
    return np.fromiter([*t0, 0.0, 0.0, 0.0, *t1, 0.0, 0.0, 0.0,
                        *t2, 0.0, 0.0, 0.0, *l0, *r0, *l1, *r1, *l2, *r2],
                       float, 36).reshape(6, 6)


def _split(vec, chart=None, name: str = "screw"):
    """(x, y, chart(x)) of a 6-vector's angular and translation parts as
    floats; x gets the chart's check, or without a chart (a direction or a
    twist) a finite check, and that runs before the translation's."""
    a, b, c, u, v, w = _as_vec(vec, 6, name).tolist()
    x, y = [a, b, c], [u, v, w]
    checked = chart(x) if chart else _finite(x, f"angular part of {name}")
    _finite(y, "translation")
    return x, y, checked


# ---------------------------------------------------------------------------
# Exponential chart
# ---------------------------------------------------------------------------


def se3_exp(screw) -> np.ndarray:
    """Pose of a screw: rotation from the angular block, translation through
    the rotation differential applied to the linear block."""
    return _exp_pose(*_split(screw, _angle))


def _exp_pose(x, y, phi: float) -> np.ndarray:
    """:func:`se3_exp` of the floats that :func:`_split` gives."""
    half_beta, delta = 0.5 * _sinc_sq_half(phi), _dexp_quad(phi)
    r0, r1, r2 = _hat_poly_rows(x, _sinc(phi), half_beta)
    # translation dexp(x) y = y + (beta/2) x × y + delta x × (x × y)
    a, b, c = x
    u, v, w = y
    p0, p1, p2 = b * w - c * v, c * u - a * w, a * v - b * u
    q0, q1, q2 = b * p2 - c * p1, c * p0 - a * p2, a * p1 - b * p0
    return np.fromiter([*r0, u + half_beta * p0 + delta * q0,
                        *r1, v + half_beta * p1 + delta * q1,
                        *r2, w + half_beta * p2 + delta * q2,
                        0.0, 0.0, 0.0, 1.0], float, 16).reshape(4, 4)


def se3_log(pose) -> np.ndarray:
    """Screw of a pose; inverse of :func:`se3_exp` with |x| <= pi."""
    pose = _as_pose(pose)
    x = so3_log(pose[:3, :3])
    _finite(pose[:3, 3].tolist(), "translation")
    y = so3_dexp_inv(x) @ pose[:3, 3]
    return np.concatenate([x, y])


def se3_dexp(screw) -> np.ndarray:
    """Right-trivialized differential of :func:`se3_exp` (block form).

    Diagonal blocks are the rotation differential; the lower-left block is
    its directional derivative along the translation part of the screw.
    """
    x, y, phi = _split(screw, _angle)
    lin, quad = 0.5 * _sinc_sq_half(phi), _dexp_quad(phi)
    d = _hat_poly_rows(x, lin, quad)
    low = _hat_poly_deriv_rows(x, y, lin, quad, _dexp_quad_rate(phi),
                               _dexp_lin_rate(phi))
    return _blocks66(d, low, d)


def se3_dexp_inv(screw) -> np.ndarray:
    """Inverse differential of :func:`se3_exp` (block form); |x| < 2*pi."""
    return _blocks66(*_dexp_inv_blocks(*_split(screw, _angle)))


def _dexp_inv_blocks(x, y, phi: float) -> tuple:
    """Rows of the diagonal, lower-left and diagonal blocks of
    :func:`se3_dexp_inv` from the floats that :func:`_split` gives."""
    ensure_dexp_inv_domain(phi)
    quad = _dexpinv_quad(phi)
    d = _hat_poly_rows(x, -0.5, quad)
    return d, _hat_poly_deriv_rows(x, y, -0.5, quad,
                                   _dexpinv_quad_rate(phi)), d


def se3_dexp_adform(screw) -> np.ndarray:
    """:func:`se3_dexp` as a quartic polynomial in the screw adjoint."""
    x, y, phi = _split(screw, _angle)
    alpha = _sinc(phi)
    beta = _sinc_sq_half(phi)
    delta = _dexp_quad(phi)
    f1 = beta - 0.5 * alpha
    f2 = 0.5 * (5.0 * delta - 0.5 * beta)
    f3 = -0.5 * _dexp_lin_rate(phi)
    f4 = -0.5 * _dexp_quad_rate(phi)
    ad = ad6(x + y)
    ad2 = ad @ ad
    return _EYE6 + f1 * ad + f2 * ad2 + f3 * (ad2 @ ad) + f4 * (ad2 @ ad2)


def se3_dexp_inv_adform(screw) -> np.ndarray:
    """:func:`se3_dexp_inv` as a quartic polynomial in the screw adjoint
    (the cubic term vanishes identically); |x| < 2*pi."""
    x, y, phi = _split(screw, _angle)
    ensure_dexp_inv_domain(phi)
    ad = ad6(x + y)
    ad2 = ad @ ad
    return (_EYE6 - 0.5 * ad + _adform_quad(phi) * ad2
            + _adform_quart(phi) * (ad2 @ ad2))


def se3_ddexp(screw, dscrew) -> np.ndarray:
    """Directional derivative of :func:`se3_dexp` at ``screw`` along
    ``dscrew``; smooth through X = 0."""
    x, y, phi = _split(screw, _angle)
    u, v, _ = _split(dscrew, name="dscrew")
    lin, quad = 0.5 * _sinc_sq_half(phi), _dexp_quad(phi)
    lin_rate, quad_rate = _dexp_lin_rate(phi), _dexp_quad_rate(phi)
    diag = _hat_poly_deriv_rows(x, u, lin, quad, quad_rate, lin_rate)
    low = _hat_poly_deriv2_rows(x, y, u, v, lin, quad, lin_rate, quad_rate,
                                _dexp_lin_rate2(phi), _dexp_quad_rate2(phi))
    return _blocks66(diag, low, diag)


def se3_ddexp_inv(screw, dscrew) -> np.ndarray:
    """Directional derivative of :func:`se3_dexp_inv`; |x| < 2*pi."""
    x, y, phi = _split(screw, _angle)
    u, v, _ = _split(dscrew, name="dscrew")
    ensure_dexp_inv_domain(phi)
    quad, quad_rate = _dexpinv_quad(phi), _dexpinv_quad_rate(phi)
    diag = _hat_poly_deriv_rows(x, u, -0.5, quad, quad_rate)
    # the linear coefficient -1/2 is constant: both of its rates are 0
    low = _hat_poly_deriv2_rows(x, y, u, v, -0.5, quad, 0.0, quad_rate, 0.0,
                                _dexpinv_quad_rate2(phi))
    return _blocks66(diag, low, diag)


def se3_ddexp_inv_tangent(screw, twist) -> np.ndarray:
    """Matrix whose j-th column is ``se3_ddexp_inv(screw, basis_j) @ twist``.

    One-pass assembly of the curvature block an implicit integrator needs
    when differentiating ``se3_dexp_inv(X) @ V`` in X; |x| < 2*pi.
    """
    x, y, phi = _split(screw, _angle)
    wa, wl, _ = _split(twist, name="twist")
    ensure_dexp_inv_domain(phi)
    # component form on floats, from hat(a) hat(b) = b a^T - (a.b) I
    phi_sq = _dot(x, x)
    quad = _dexpinv_quad(phi)
    rate = _dexpinv_quad_rate(phi)
    rate2 = _dexpinv_quad_rate2(phi)
    x_y, x_wa, y_wa = _dot(x, y), _dot(x, wa), _dot(y, wa)

    def hx2(w):     # hat(x)^2 w
        x_w = _dot(x, w)
        return [x_w * xi - phi_sq * wi for xi, wi in zip(x, w)]

    def pull(w):    # rate * hat(x)^2 w - quad * w
        return [rate * hi - quad * wi for hi, wi in zip(hx2(w), w)]

    def spin(w):    # w/2 - quad * (x × w)
        return [0.5 * wi - quad * ci for wi, ci in zip(w, _cross(x, w))]

    # over the angular basis u, the columns of
    # [-hat(u)/2 + quad (hat(x) hat(u) + hat(u) hat(x)) + rate (x.u) hat(x)^2] w
    # are hat(spin(w)) + quad (x.w) I + pull(w) x^T; ``low`` adds the terms in y
    diag = _mat3(spin(wa), quad * x_wa, (pull(wa), x))
    low_x = [rate * (x_wa * yi + y_wa * xi - 3.0 * x_y * wi)
             + x_y * rate2 * hi + pi
             for xi, yi, wi, hi, pi in zip(x, y, wa, hx2(wa), pull(wl))]
    low_skew = [si - quad * ci - rate * x_y * di for si, ci, di in
                zip(spin(wl), _cross(y, wa), _cross(x, wa))]
    low = _mat3(low_skew, quad * (_dot(x, wl) + y_wa) + rate * x_y * x_wa,
                (pull(wa), y), (low_x, x))
    return _blocks66(diag, low, diag)


def se3_ddcay_inv_tangent(screw, twist) -> np.ndarray:
    """Matrix whose j-th column is ``se3_ddcay_inv(screw, basis_j) @ twist``."""
    x, y, _ = _split(screw, _sigma)     # the tangent needs no sigma
    wa, wl, _ = _split(twist, name="twist")
    # component form on floats, from hat(x) hat(wa) = wa x^T - (x.wa) I:
    # tl = wa x^T + (hat(wa) - hat(x × wa) - hat(x) hat(wa)) / 2,
    # low = hat(wl - y × wa) / 2 and br = (hat(wa) - hat(x) hat(wa)) / 2
    half_wa = [0.5 * wi for wi in wa]
    half_x_wa = 0.5 * _dot(x, wa)
    tl = _mat3([hi - 0.5 * pi for hi, pi in zip(half_wa, _cross(x, wa))],
               half_x_wa, (half_wa, x))
    low = _mat3([0.5 * (li - ci) for li, ci in zip(wl, _cross(y, wa))], 0.0)
    br = _mat3(half_wa, half_x_wa, ([-hi for hi in half_wa], x))
    return _blocks66(tl, low, br)


# ---------------------------------------------------------------------------
# Cayley chart
# ---------------------------------------------------------------------------


def se3_cay(screw) -> np.ndarray:
    """Pose of a screw under the rigid-motion Cayley map.

    Rotation block from the Gibbs vector x; translation (I + R) @ y.
    Identical to the 4x4 resolvent (I - hat(X))^{-1} (I + hat(X)).
    """
    return _cay_pose(*_split(screw, _sigma))


def _cay_pose(x, y, sig: float) -> np.ndarray:
    """:func:`se3_cay` of the floats that :func:`_split` gives."""
    (r0, r1, r2), (u, v, w) = _cay_rows(x, sig), y
    return np.fromiter([*r0, u + _dot(r0, y), *r1, v + _dot(r1, y),
                        *r2, w + _dot(r2, y), 0.0, 0.0, 0.0, 1.0],
                       float, 16).reshape(4, 4)


def se3_cay_inv(pose) -> np.ndarray:
    """Screw of a pose under the Cayley chart; rotation angle pi excluded."""
    pose = _as_pose(pose)
    rot = pose[:3, :3]
    x = so3_cay_inv(rot)
    _finite(pose[:3, 3].tolist(), "translation")
    y = np.linalg.solve(_EYE3 + rot, pose[:3, 3])
    return np.concatenate([x, y])


def se3_dcay(screw) -> np.ndarray:
    """Right-trivialized differential of :func:`se3_cay` (unhalved).

    The rotation diagonal is s*(I + hat(x)); the translation diagonal is
    I + R; the value at X = 0 is 2*I.
    """
    x, y, sig = _split(screw, _sigma)
    sx = [sig * xi for xi in x]
    # hat(y) s (I + hat(x)) = s (hat(y) + x y^T - (x.y) I); I + R has the
    # exact diagonal 2 - s (x_j^2 + x_k^2)
    return _blocks66(_mat3(sx, sig),
                     _mat3([sig * yi for yi in y], -sig * _dot(x, y), (sx, y)),
                     _cay_rows(x, sig, 2.0))


def se3_dcay_inv(screw) -> np.ndarray:
    """Inverse of :func:`se3_dcay`; value I/2 at X = 0.  Defined for every
    screw (the Cayley differential never degenerates)."""
    return _blocks66(*_dcay_inv_blocks(*_split(screw, _sigma)))


def _dcay_inv_blocks(x, y, _sig: float) -> tuple:
    """Rows of the three blocks of :func:`se3_dcay_inv` from the floats
    that :func:`_split` gives; the map needs no sigma."""
    half_y = [0.5 * yi for yi in y]
    # (hat(x) - I) hat(y) / 2 = (y x^T - (x.y) I - hat(y)) / 2
    return (_dcay_inv_rows(x),
            _mat3([-hi for hi in half_y], -0.5 * _dot(x, y), (half_y, x)),
            _mat3([-0.5 * xi for xi in x], 0.5))


def se3_ddcay(screw, dscrew) -> np.ndarray:
    """Directional derivative of :func:`se3_dcay` along ``dscrew``."""
    x, y, sig = _split(screw, _sigma)
    u, v, _ = _split(dscrew, name="dscrew")
    t = sig * sig * _dot(x, u)      # -D_u sigma
    su = [sig * ui for ui in u]
    p = [sig * vi - t * yi for vi, yi in zip(v, y)]
    # hat(v) dcay(x) + hat(y) ddcay(x, u) by hat(a) hat(b) = b a^T - (a.b) I
    bl = _mat3(p, t * _dot(x, y) - sig * (_dot(x, v) + _dot(y, u)),
               (x, p), (su, y))
    # D_u(I + R) = ddcay(x, u) + D_u(s x x^T), as I + R = dcay(x) + s x x^T
    br = _ddcay_rows(x, u, sig, (su, x),
                     (x, [si - t * xi for si, xi in zip(su, x)]))
    return _blocks66(_ddcay_rows(x, u, sig), bl, br)


def se3_ddcay_inv(screw, dscrew) -> np.ndarray:
    """Directional derivative of :func:`se3_dcay_inv` along ``dscrew``."""
    x, y, _ = _split(screw, _sigma)     # the map needs no sigma
    u, v, _ = _split(dscrew, name="dscrew")
    half_v = [0.5 * vi for vi in v]
    # (hat(x) hat(v) + hat(u) hat(y) - hat(v))/2 by the rule of se3_ddcay
    bl = _mat3([-hi for hi in half_v], -0.5 * (_dot(x, v) + _dot(y, u)),
               (half_v, x), ([0.5 * yi for yi in y], u))
    return _blocks66(_ddcay_inv_rows(x, u), bl,
                     _mat3([-0.5 * ui for ui in u], 0.0))


# ---------------------------------------------------------------------------
# Cayley adjoint transport
# ---------------------------------------------------------------------------


def adjoint_cay(screw) -> np.ndarray:
    """Cayley transform of the screw adjoint: block rotation diagonals with
    lower-left coupling (I + R) hat(y) (I + R) / 2.

    For a pure translation this reduces to unit diagonals with coupling
    2*hat(y).  Note this is NOT the frame transport of :func:`se3_cay`:
    see :func:`liegroup_maps.oracle.adjoint_vs_se3_cay_mismatch`.
    """
    x, y, sig = _split(screw, _sigma)
    rot = _cay_rows(x, sig)
    # the coupling is hat(w) R with w = dcay(x) y: column j is w × R e_j
    w = [sig * (yi + ci) for yi, ci in zip(y, _cross(x, y))]
    cols = [_cross(w, col) for col in zip(*rot)]
    return _blocks66(rot, list(zip(*cols)), rot)
