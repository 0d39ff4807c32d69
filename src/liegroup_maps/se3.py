"""Closed-form coordinate maps on the rigid-motion group.

Screws are 6-vectors with the angular block first: X = (x, y) where x drives
the rotation and y the translation.

The exponential-chart differentials come in two algebraically identical
shapes: a 2x2 block form whose off-diagonal block is the directional
derivative of the rotation differential along the translation part, and a
polynomial in the 6x6 adjoint operator.  Both are implemented and
cross-checked; the block form is the cheaper default.

The Cayley chart uses the unhalved scaling throughout (see
:mod:`liegroup_maps.so3`): ``se3_dcay(0)`` is ``2*I`` on the rotation and
translation diagonals.  A consequence worth knowing: the rigid-motion Cayley
map and the adjoint-style Cayley transport disagree in their translation
columns by exactly ``s*(x.y)*x`` — they coincide only where the screw's
rotation and translation parts are orthogonal.
:func:`adjoint_vs_se3_cay_mismatch` exposes both routes and the closed-form
gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Ad6, _as_vec, _cross, _dot, ad6, hat3, make_pose
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
from .so3 import (
    sigma,
    so3_cay,
    so3_cay_inv,
    so3_dcay,
    so3_ddcay,
    so3_ddexp,
    so3_ddexp_inv,
    so3_dexp,
    so3_dexp_inv,
    so3_log,
)

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
    "adjoint_cay_A_forms",
    "CayleyTranslationMismatch",
    "adjoint_vs_se3_cay_mismatch",
]

_EYE3 = np.eye(3)
_EYE6 = np.eye(6)


def _mat3(skew, diag: float, *dyads) -> list:
    """Rows of hat(skew) + diag * I + the outer products b c^T of the
    (b, c) ``dyads``, on float sequences."""
    a, b, c = skew
    rows = [[diag, -c, b], [c, diag, -a], [-b, a, diag]]
    for left, right in dyads:
        for row, li in zip(rows, left):
            for j, rj in enumerate(right):
                row[j] += li * rj
    return rows


def _blocks66(tl, bl, br) -> np.ndarray:
    out = np.zeros((6, 6))
    out[:3, :3] = tl
    out[3:, :3] = bl
    out[3:, 3:] = br
    return out


# ---------------------------------------------------------------------------
# Exponential chart
# ---------------------------------------------------------------------------


def se3_exp(screw) -> np.ndarray:
    """Pose of a screw: rotation from the angular block, translation through
    the rotation differential applied to the linear block."""
    a, b, c, u, v, w = _as_vec(screw, 6, "screw").tolist()
    # component form on floats, hat(x)^2 = x x^T - phi^2 I: this sits on
    # integrator hot paths, where NumPy's per-call overhead dominated
    aa, bb, cc = a * a, b * b, c * c
    ab, ac, bc = a * b, a * c, b * c
    phi = math.sqrt(aa + bb + cc)
    alpha = _sinc(phi)
    half_beta = 0.5 * _sinc_sq_half(phi)
    delta = _dexp_quad(phi)
    # x × y and x × (x × y)
    p0, p1, p2 = b * w - c * v, c * u - a * w, a * v - b * u
    q0, q1, q2 = b * p2 - c * p1, c * p0 - a * p2, a * p1 - b * p0
    return np.array((
        (1.0 - half_beta * (bb + cc), half_beta * ab - alpha * c,
         half_beta * ac + alpha * b, u + half_beta * p0 + delta * q0),
        (half_beta * ab + alpha * c, 1.0 - half_beta * (aa + cc),
         half_beta * bc - alpha * a, v + half_beta * p1 + delta * q1),
        (half_beta * ac - alpha * b, half_beta * bc + alpha * a,
         1.0 - half_beta * (aa + bb), w + half_beta * p2 + delta * q2),
        (0.0, 0.0, 0.0, 1.0),
    ))


def se3_log(pose) -> np.ndarray:
    """Screw of a pose; inverse of :func:`se3_exp` with |x| <= pi."""
    pose = np.asarray(pose, dtype=float)
    if pose.shape != (4, 4):
        raise ValueError(f"pose must be 4x4, got shape {pose.shape}")
    x = so3_log(pose[:3, :3])
    y = so3_dexp_inv(x) @ pose[:3, 3]
    return np.concatenate([x, y])


def se3_dexp(screw) -> np.ndarray:
    """Right-trivialized differential of :func:`se3_exp` (block form).

    Diagonal blocks are the rotation differential; the lower-left block is
    its directional derivative along the translation part of the screw.
    """
    s = _as_vec(screw, 6, "screw")
    x, y = s[:3], s[3:]
    d = so3_dexp(x)
    return _blocks66(d, so3_ddexp(x, y), d)


def se3_dexp_inv(screw) -> np.ndarray:
    """Inverse differential of :func:`se3_exp` (block form); |x| < 2*pi."""
    a, b, c, u, v, w = _as_vec(screw, 6, "screw").tolist()
    # component form as in se3_exp, with
    # hat(x) hat(y) + hat(y) hat(x) = x y^T + y x^T - 2 (x.y) I
    aa, bb, cc = a * a, b * b, c * c
    ab, ac, bc = a * b, a * c, b * c
    au, bv, cw = a * u, b * v, c * w
    phi = math.sqrt(aa + bb + cc)
    ensure_dexp_inv_domain(phi)
    quad = _dexpinv_quad(phi)
    # (x.y) times the radial rate of quad
    rate = _dexpinv_quad_rate(phi) * (au + bv + cw)
    d0 = (1.0 - quad * (bb + cc), quad * ab + 0.5 * c, quad * ac - 0.5 * b)
    d1 = (quad * ab - 0.5 * c, 1.0 - quad * (aa + cc), quad * bc + 0.5 * a)
    d2 = (quad * ac + 0.5 * b, quad * bc - 0.5 * a, 1.0 - quad * (aa + bb))
    s01, s02, s12 = a * v + b * u, a * w + c * u, b * w + c * v
    low0 = (-2.0 * quad * (bv + cw) - rate * (bb + cc),
            quad * s01 + rate * ab + 0.5 * w,
            quad * s02 + rate * ac - 0.5 * v)
    low1 = (quad * s01 + rate * ab - 0.5 * w,
            -2.0 * quad * (au + cw) - rate * (aa + cc),
            quad * s12 + rate * bc + 0.5 * u)
    low2 = (quad * s02 + rate * ac + 0.5 * v,
            quad * s12 + rate * bc - 0.5 * u,
            -2.0 * quad * (au + bv) - rate * (aa + bb))
    zero = (0.0, 0.0, 0.0)
    return np.array((d0 + zero, d1 + zero, d2 + zero,
                     low0 + d0, low1 + d1, low2 + d2))


def se3_dexp_adform(screw) -> np.ndarray:
    """:func:`se3_dexp` as a quartic polynomial in the screw adjoint."""
    s = _as_vec(screw, 6, "screw")
    phi = float(np.linalg.norm(s[:3]))
    alpha = _sinc(phi)
    beta = _sinc_sq_half(phi)
    delta = _dexp_quad(phi)
    f1 = beta - 0.5 * alpha
    f2 = 0.5 * (5.0 * delta - 0.5 * beta)
    f3 = -0.5 * _dexp_lin_rate(phi)
    f4 = -0.5 * _dexp_quad_rate(phi)
    ad = ad6(s)
    ad2 = ad @ ad
    return _EYE6 + f1 * ad + f2 * ad2 + f3 * (ad2 @ ad) + f4 * (ad2 @ ad2)


def se3_dexp_inv_adform(screw) -> np.ndarray:
    """:func:`se3_dexp_inv` as a quartic polynomial in the screw adjoint
    (the cubic term vanishes identically); |x| < 2*pi."""
    s = _as_vec(screw, 6, "screw")
    phi = float(np.linalg.norm(s[:3]))
    ensure_dexp_inv_domain(phi)
    ad = ad6(s)
    ad2 = ad @ ad
    return (_EYE6 - 0.5 * ad + _adform_quad(phi) * ad2
            + _adform_quart(phi) * (ad2 @ ad2))


def se3_ddexp(screw, dscrew) -> np.ndarray:
    """Directional derivative of :func:`se3_dexp` at ``screw`` along
    ``dscrew``; smooth through X = 0."""
    s = _as_vec(screw, 6, "screw")
    ds = _as_vec(dscrew, 6, "dscrew")
    x, y = s[:3], s[3:]
    u, v = ds[:3], ds[3:]
    phi = float(np.linalg.norm(x))
    hx, hy, hu, hv = hat3(x), hat3(y), hat3(u), hat3(v)
    hx2 = hx @ hx
    x_y, x_u = float(x @ y), float(x @ u)
    mixed = float(y @ u) + float(x @ v)
    half_beta = 0.5 * _sinc_sq_half(phi)
    delta = _dexp_quad(phi)
    lin_rate = _dexp_lin_rate(phi)
    quad_rate = _dexp_quad_rate(phi)
    lin_rate2 = _dexp_lin_rate2(phi)
    quad_rate2 = _dexp_quad_rate2(phi)
    diag = so3_ddexp(x, u)
    low = (half_beta * hv
           + delta * (hx @ hv + hv @ hx + hu @ hy + hy @ hu)
           + lin_rate * (x_y * hu + mixed * hx)
           + quad_rate * (mixed * hx2 + x_y * (hx @ hu + hu @ hx))
           + x_u * (lin_rate * hy
                    + quad_rate * (hx @ hy + hy @ hx)
                    + x_y * (lin_rate2 * hx + quad_rate2 * hx2)))
    return _blocks66(diag, low, diag)


def se3_ddexp_inv(screw, dscrew) -> np.ndarray:
    """Directional derivative of :func:`se3_dexp_inv`; |x| < 2*pi."""
    s = _as_vec(screw, 6, "screw")
    ds = _as_vec(dscrew, 6, "dscrew")
    x, y = s[:3], s[3:]
    u, v = ds[:3], ds[3:]
    phi = math.sqrt(float(x @ x))
    ensure_dexp_inv_domain(phi)
    hx, hy, hu, hv = hat3(x), hat3(y), hat3(u), hat3(v)
    hx2 = hx @ hx
    x_y, x_u = float(x @ y), float(x @ u)
    mixed = float(x @ v) + float(y @ u)
    inv_quad = _dexpinv_quad(phi)
    inv_quad_rate = _dexpinv_quad_rate(phi)
    inv_quad_rate2 = _dexpinv_quad_rate2(phi)
    diag = so3_ddexp_inv(x, u)
    low = (-0.5 * hv
           + inv_quad * (hx @ hv + hv @ hx + hu @ hy + hy @ hu)
           + inv_quad_rate * (mixed * hx2 + x_y * (hx @ hu + hu @ hx))
           + x_u * (inv_quad_rate * (hx @ hy + hy @ hx)
                    + x_y * inv_quad_rate2 * hx2))
    return _blocks66(diag, low, diag)


def se3_ddexp_inv_tangent(screw, twist) -> np.ndarray:
    """Matrix whose j-th column is ``se3_ddexp_inv(screw, basis_j) @ twist``.

    One-pass assembly of the curvature block an implicit integrator needs
    when differentiating ``se3_dexp_inv(X) @ V`` in X; |x| < 2*pi.
    """
    s = _as_vec(screw, 6, "screw").tolist()
    v6 = _as_vec(twist, 6, "twist").tolist()
    x, y, wa, wl = s[:3], s[3:], v6[:3], v6[3:]
    # component form on floats, from hat(a) hat(b) = b a^T - (a.b) I
    phi_sq = _dot(x, x)
    phi = math.sqrt(phi_sq)
    ensure_dexp_inv_domain(phi)
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
    s = _as_vec(screw, 6, "screw")
    v6 = _as_vec(twist, 6, "twist")
    x, y = s[:3], s[3:]
    wa, wl = v6[:3], v6[3:]
    hx, hy = hat3(x), hat3(y)
    hwa = hat3(wa)
    tl = (np.outer(wa, x)
          + 0.5 * (hwa - hat3(hx @ wa) - hx @ hwa))
    low = 0.5 * (hat3(wl) - hat3(hy @ wa))
    br = 0.5 * (hwa - hx @ hwa)
    return _blocks66(tl, low, br)


# ---------------------------------------------------------------------------
# Cayley chart
# ---------------------------------------------------------------------------


def se3_cay(screw) -> np.ndarray:
    """Pose of a screw under the rigid-motion Cayley map.

    Rotation block from the Gibbs vector x; translation (I + R) @ y.
    Identical to the 4x4 resolvent (I - hat(X))^{-1} (I + hat(X)).
    """
    s = _as_vec(screw, 6, "screw")
    x, y = s[:3], s[3:]
    rot = so3_cay(x)
    return make_pose(rot, (_EYE3 + rot) @ y)


def se3_cay_inv(pose) -> np.ndarray:
    """Screw of a pose under the Cayley chart; rotation angle pi excluded."""
    pose = np.asarray(pose, dtype=float)
    if pose.shape != (4, 4):
        raise ValueError(f"pose must be 4x4, got shape {pose.shape}")
    rot = pose[:3, :3]
    x = so3_cay_inv(rot)
    y = np.linalg.solve(_EYE3 + rot, pose[:3, 3])
    return np.concatenate([x, y])


def se3_dcay(screw) -> np.ndarray:
    """Right-trivialized differential of :func:`se3_cay` (unhalved).

    The rotation diagonal is s*(I + hat(x)); the translation diagonal is
    I + R; the value at X = 0 is 2*I.
    """
    s = _as_vec(screw, 6, "screw")
    x, y = s[:3], s[3:]
    sig = sigma(x)
    hx, hy = hat3(x), hat3(y)
    tl = sig * (_EYE3 + hx)
    return _blocks66(tl, hy @ tl, 2.0 * _EYE3 + sig * (hx + hx @ hx))


def se3_dcay_inv(screw) -> np.ndarray:
    """Inverse of :func:`se3_dcay`; value I/2 at X = 0.  Defined for every
    screw (the Cayley differential never degenerates)."""
    s = _as_vec(screw, 6, "screw")
    x, y = s[:3], s[3:]
    sig = sigma(x)
    hx, hy = hat3(x), hat3(y)
    tl = 0.5 * ((2.0 / sig) * _EYE3 + hx @ hx - hx)
    bl = 0.5 * ((hx - _EYE3) @ hy)
    br = 0.5 * (_EYE3 - hx)
    return _blocks66(tl, bl, br)


def se3_ddcay(screw, dscrew) -> np.ndarray:
    """Directional derivative of :func:`se3_dcay` along ``dscrew``."""
    s = _as_vec(screw, 6, "screw")
    ds = _as_vec(dscrew, 6, "dscrew")
    x, y = s[:3], s[3:]
    u, v = ds[:3], ds[3:]
    sig = sigma(x)
    sig_sq = sig * sig
    x_u = float(x @ u)
    hx, hy, hu, hv = hat3(x), hat3(y), hat3(u), hat3(v)
    tl = so3_ddcay(x, u)
    bl = (sig * (hv + hv @ hx + hy @ hu)
          - sig_sq * x_u * (hy + hy @ hx))
    br = (sig * (hu + hx @ hu + hu @ hx)
          - sig_sq * x_u * (hx + hx @ hx))
    return _blocks66(tl, bl, br)


def se3_ddcay_inv(screw, dscrew) -> np.ndarray:
    """Directional derivative of :func:`se3_dcay_inv` along ``dscrew``."""
    s = _as_vec(screw, 6, "screw")
    ds = _as_vec(dscrew, 6, "dscrew")
    x, y = s[:3], s[3:]
    u, v = ds[:3], ds[3:]
    x_u = float(x @ u)
    hx, hy, hu, hv = hat3(x), hat3(y), hat3(u), hat3(v)
    tl = 0.5 * (2.0 * x_u * _EYE3 + hu @ hx + hx @ hu - hu)
    bl = 0.5 * (hx @ hv + hu @ hy - hv)
    br = -0.5 * hu
    return _blocks66(tl, bl, br)


# ---------------------------------------------------------------------------
# Cayley adjoint transport and the translation mismatch
# ---------------------------------------------------------------------------


def adjoint_cay(screw) -> np.ndarray:
    """Cayley transform of the screw adjoint: block rotation diagonals with
    lower-left coupling (I + R) hat(y) (I + R) / 2.

    For a pure translation this reduces to unit diagonals with coupling
    2*hat(y).  Note this is NOT the frame transport of :func:`se3_cay`:
    see :func:`adjoint_vs_se3_cay_mismatch`.
    """
    s = _as_vec(screw, 6, "screw")
    x, y = s[:3], s[3:]
    rot = so3_cay(x)
    one_plus = _EYE3 + rot
    coupling = 0.5 * one_plus @ hat3(y) @ one_plus
    return _blocks66(rot, coupling, rot)


def adjoint_cay_A_forms(screw) -> dict[str, np.ndarray]:
    """The lower-left coupling block of :func:`adjoint_cay` by five
    algebraically equivalent routes (for cross-certification):

    1. half-sandwich by (I + R),
    2. resolvent sandwich 2 (I - hat(x))^{-1} hat(y) (I - hat(x))^{-1},
    3. mixed resolvent (I - hat(x))^{-1} hat(y) (I + R),
    4. hat of the transported translation velocity times R,
    5. split form hat(y) dcay(x) + s hat(x) hat(y) R.
    """
    s = _as_vec(screw, 6, "screw")
    x, y = s[:3], s[3:]
    rot = so3_cay(x)
    hx, hy = hat3(x), hat3(y)
    one_plus = _EYE3 + rot
    resolvent = _EYE3 - hx
    half_sandwich = 0.5 * one_plus @ hy @ one_plus
    inner = np.linalg.solve(resolvent, hy)
    resolvent_sandwich = 2.0 * np.linalg.solve(resolvent.T, inner.T).T
    mixed = np.linalg.solve(resolvent, hy @ one_plus)
    transported_hat = hat3(so3_dcay(x) @ y) @ rot
    split = hy @ so3_dcay(x) + sigma(x) * hx @ hy @ rot
    return {
        "half_sandwich": half_sandwich,
        "resolvent_sandwich": resolvent_sandwich,
        "mixed_resolvent": mixed,
        "transported_hat": transported_hat,
        "split": split,
    }


@dataclass(frozen=True)
class CayleyTranslationMismatch:
    """Both translation columns a screw can produce under the Cayley maps.

    ``adjoint_route`` transports the linear block with the rotation Cayley
    differential (dcay(x) @ y); ``group_route`` is the translation of the
    rigid-motion Cayley pose ((I + R) @ y).  ``predicted_gap`` is the closed
    form of group minus adjoint: s * (x . y) * x — zero exactly when the
    screw's blocks are orthogonal, in particular for pure rotations and pure
    translations, and nonzero for any screw with pitch.
    """

    adjoint_route: np.ndarray
    group_route: np.ndarray
    predicted_gap: np.ndarray


def adjoint_vs_se3_cay_mismatch(screw) -> CayleyTranslationMismatch:
    """Evaluate both Cayley translation routes and their closed-form gap."""
    s = _as_vec(screw, 6, "screw")
    x, y = s[:3], s[3:]
    adjoint_route = so3_dcay(x) @ y
    group_route = (_EYE3 + so3_cay(x)) @ y
    predicted_gap = sigma(x) * float(x @ y) * x
    return CayleyTranslationMismatch(adjoint_route, group_route, predicted_gap)


def _screw_lemma_routes(screw) -> dict[str, np.ndarray]:
    """The frame transport of the screw exponential by five routes.

    The adjoint of the exponential equals four different combinations of the
    differential and its inverse at +/-X (all polynomials in the screw
    adjoint, hence commuting); every entry must match ``Ad_of_exp``.
    """
    s = _as_vec(screw, 6, "screw")
    d = se3_dexp(s)
    d_inv_neg = se3_dexp_inv(-s)
    ad = ad6(s)
    return {
        "Ad_of_exp": Ad6(se3_exp(s)),
        "dexpinv_neg_then_dexp": d_inv_neg @ d,
        "dexp_then_dexpinv_neg": d @ d_inv_neg,
        "identity_plus_ad_dexp": _EYE6 + ad @ d,
        "identity_plus_dexp_ad": _EYE6 + d @ ad,
    }
