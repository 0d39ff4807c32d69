"""Scalar trigonometric coefficients for the rotation and screw maps.

Every closed-form map in this package reduces to a handful of even scalar
functions of the rotation angle phi = |x|.  The primary bundle is

* ``alpha``    = sin(phi)/phi
* ``beta``     = (sin(phi/2)/(phi/2))**2
* ``gamma``    = alpha/beta = (phi/2)*cot(phi/2)
* ``delta``    = (1 - alpha)/phi**2
* ``inv_beta`` = 1/beta

plus a catalog of derived quotients (radial rates of the above) that appear
in the differentials and directional derivatives.  All of them have removable
singularities at phi = 0 and severe subtractive cancellation in their naive
closed forms at small and moderate angles, so each kernel is evaluated on two
branches:

* an even 30-term Taylor polynomial in s = phi**2 below a switch point,
  whose coefficients are derived at import from exact rationals and rounded
  once to double precision, and
* a cancellation-free trigonometric expression above it.

Two different switch points are in play.  The four primary ratios (alpha,
beta, gamma, inv_beta) are benign and switch at the official small-angle
seam ``SMALL_ANGLE_THRESHOLD``; :func:`force_branch` can pin them to either
branch so the seam agreement can be certified.  The derived quotients lose
up to ~phi**-4 digits to cancellation in any trigonometric rearrangement, so
they keep the series much longer — up to ``SERIES_WINDOW`` — purely as an
accuracy measure.  That window is not a seam and deliberately ignores
:func:`force_branch`.

``gamma`` and ``inv_beta`` (and everything derived from them) have genuine
poles at phi = 2*pi: the inverse differential of the rotation exponential
does not exist there.  :func:`ensure_dexp_inv_domain` raises
:class:`~liegroup_maps.core.ChartDomainError` at or beyond
``DEXPINV_DOMAIN_LIMIT``; alpha, beta and delta are defined at any angle.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from .core import ChartDomainError

__all__ = [
    "SMALL_ANGLE_THRESHOLD",
    "SERIES_WINDOW",
    "DEXPINV_DOMAIN_LIMIT",
    "force_branch",
    "ensure_dexp_inv_domain",
]

# Official seam between the series and closed-form branches of the primary
# ratios alpha, beta, gamma, inv_beta.
SMALL_ANGLE_THRESHOLD = 1e-2

# The derived quotient kernels stay on their series this far out: their
# trigonometric forms lose ~phi**-4 digits to cancellation, which at the
# window edge leaves ~1e-14 relative error, while the 30-term series in
# s = phi**2 is still converged to below 1e-16 there.
SERIES_WINDOW = 3.0

# The inverse differential of the rotation exponential exists only for
# rotation angles strictly below 2*pi; stop a hair early so the pole is
# never touched.
DEXPINV_DOMAIN_LIMIT = 2.0 * math.pi - 1e-6

# phi/sin(phi) has poles at every multiple of pi, so its series (radius pi)
# must stop well short of the first one.  Its closed form is cancellation
# free, so the window can be small.
_INV_SINC_SERIES_WINDOW = 0.5

_DOMAIN_MESSAGE = (
    "dexp-inverse domain exceeded: requires rotation angle < 2*pi, got {phi!r}"
)


def ensure_dexp_inv_domain(phi: float) -> None:
    """Raise ChartDomainError if phi is outside [0, 2*pi) for inverse maps."""
    if phi >= DEXPINV_DOMAIN_LIMIT:
        raise ChartDomainError(_DOMAIN_MESSAGE.format(phi=float(phi)))


# ---------------------------------------------------------------------------
# Even Taylor coefficients in s = phi**2, derived at import from exact
# rationals.  Each table is an integer multiple of a shifted run of one of
# four base series, held as (numerator, denominator) integer pairs; every
# coefficient is one int/int true division, which Python rounds correctly,
# so each double is its exact rational rounded once.
# ---------------------------------------------------------------------------

_TERMS = 30


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n] with tan(x) = sum_k T_k x**(2k-1)/(2k-1)!.

    Integer-only recurrence of Brent & Harvey, "Fast computation of
    Bernoulli, Tangent and Secant numbers", arXiv:1108.0286.
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _base_series(n: int):
    """The first n coefficients of sin(phi)/phi, beta, gamma and phi/sin(phi).

    The coefficients of gamma, (-1)**k B_2k/(2k)!, and of phi/sin(phi),
    (-1)**(k+1) (4**k - 2) B_2k/(2k)!, are written in tangent numbers
    through B_2k = (-1)**(k-1) 2k T_k / (4**k (4**k - 1)).
    """
    fact = math.factorial
    tangent = _tangent_numbers(n - 1)
    sinc = [((-1) ** k, fact(2 * k + 1)) for k in range(n)]
    beta = [(2 * (-1) ** k, fact(2 * k + 2)) for k in range(n)]
    dens = [4**k * (4**k - 1) * fact(2 * k - 1) for k in range(1, n)]
    gamma = [(1, 1)] + [(-tangent[k], d) for k, d in enumerate(dens, 1)]
    inv_sinc = [(1, 1)] + [((4**k - 2) * tangent[k], d)
                           for k, d in enumerate(dens, 1)]
    return sinc, beta, gamma, inv_sinc


# The deepest table reads three terms past _TERMS.
_SINC, _BETA, _GAMMA, _INV_SINC = _base_series(_TERMS + 3)


def _series(base, shift: int = 0, scale=lambda k: 1) -> tuple[float, ...]:
    """Coefficients scale(k) * base[k + shift] for k < _TERMS."""
    return tuple(scale(k) * num / den
                 for k, (num, den) in enumerate(base[shift:shift + _TERMS]))


# Two identities give every derived table its integer scale:
# * a radial rate (1/phi) d/dphi is 2 d/ds, mapping coefficients c[k] of a
#   series to 2 (k+1) c[k+1];
# * 1/beta = gamma - 2 s dgamma/ds, so inv_beta has coefficients (1-2k) g[k].

# sin(phi)/phi
_SINC_SERIES = _series(_SINC)

# (sin(phi/2)/(phi/2))**2
_SINC_SQ_HALF_SERIES = _series(_BETA)

# (phi/2)*cot(phi/2)   (poles at 2*pi: series radius 2*pi)
_COT_HALF_SCALED_SERIES = _series(_GAMMA)

# ((phi/2)/sin(phi/2))**2   (poles at 2*pi)
_INV_SINC_SQ_HALF_SERIES = _series(_GAMMA, 0, lambda k: 1 - 2 * k)

# (1 - alpha)/phi**2: quadratic coefficient of the exponential differential
_DEXP_QUAD_SERIES = _series(_SINC, 1, lambda k: -1)

# (alpha - beta)/phi**2: radial rate of beta/2, limit -1/12
_DEXP_LIN_RATE_SERIES = _series(_BETA, 1, lambda k: k + 1)

# (beta/2 - 3*delta)/phi**2: radial rate of delta, limit -1/60
_DEXP_QUAD_RATE_SERIES = _series(_SINC, 2, lambda k: -2 * (k + 1))

# (1 - gamma)/phi**2: quadratic coefficient of the inverse differential,
# limit 1/12  (poles at 2*pi)
_DEXPINV_QUAD_SERIES = _series(_GAMMA, 1, lambda k: -1)

# (inv_beta + gamma - 2)/phi**4: radial rate of the previous kernel,
# limit 1/360  (poles at 2*pi)
_DEXPINV_QUAD_RATE_SERIES = _series(_GAMMA, 2, lambda k: -2 * (k + 1))

# (phi**2*cos(phi) - 5*phi*sin(phi) + 16*sin(phi/2)**2)/phi**6: second radial
# rate of beta/2, limit 1/90
_DEXP_LIN_RATE2_SERIES = _series(_BETA, 2, lambda k: 2 * (k + 1) * (k + 2))

# (phi**2*sin(phi) + 7*phi*cos(phi) - 15*sin(phi) + 8*phi)/phi**7: second
# radial rate of delta, limit 1/630
_DEXP_QUAD_RATE2_SERIES = _series(_SINC, 3, lambda k: -4 * (k + 1) * (k + 2))

# ((gamma*c_quad - 1/4 - 2*c_lin_rate/beta**2)/phi**2 - 4*c_quad_rate)/phi**2
# with c_quad = (1 - gamma)/phi**2, c_lin_rate = (alpha - beta)/phi**2 and
# c_quad_rate = (inv_beta + gamma - 2)/phi**4: second radial rate of the
# inverse-differential quadratic coefficient, limit 1/3780  (poles at 2*pi)
_DEXPINV_QUAD_RATE2_SERIES = _series(_GAMMA, 3,
                                     lambda k: -4 * (k + 1) * (k + 2))

# (2 - (1 + 3*alpha)/(2*beta))/phi**2: squared-adjoint coefficient of the
# inverse screw differential, limit +1/12  (poles at 2*pi)
_ADFORM_QUAD_SERIES = _series(_GAMMA, 1, lambda k: k - 1)

# (1 - (1 + alpha)/(2*beta))/phi**4: fourth-power-adjoint coefficient of the
# inverse screw differential, limit -1/720  (poles at 2*pi)
_ADFORM_QUART_SERIES = _series(_GAMMA, 2, lambda k: k + 1)

# phi/sin(phi)  (poles at pi: series radius pi, keep the window small)
_INV_SINC_SERIES = _series(_INV_SINC)


def _poly_even(coeffs, phi: float) -> float:
    """Evaluate an even polynomial sum_k coeffs[k] * phi**(2k) by Horner."""
    s = phi * phi
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


# ---------------------------------------------------------------------------
# Branch selection
# ---------------------------------------------------------------------------

_FORCED_BRANCH: str | None = None


@contextmanager
def force_branch(branch: str):
    """Pin the primary ratios (alpha, beta, gamma, inv_beta) to one branch.

    ``branch`` is ``'series'`` or ``'closed'``.  This is a certification aid
    for exercising both sides of the small-angle seam on the same input; the
    forced series branch is only accurate for angles well below 1 radian.
    The derived quotient kernels are unaffected: their wide series window is
    a cancellation guard, not a seam.
    """
    global _FORCED_BRANCH
    if branch not in ("series", "closed"):
        raise ValueError(f"branch must be 'series' or 'closed', got {branch!r}")
    previous = _FORCED_BRANCH
    _FORCED_BRANCH = branch
    try:
        yield
    finally:
        _FORCED_BRANCH = previous


def _seam_use_series(phi: float) -> bool:
    if _FORCED_BRANCH == "series":
        return True
    if _FORCED_BRANCH == "closed":
        # The closed forms are 0/0 at exactly zero; the limit is exact there.
        return phi == 0.0
    return phi < SMALL_ANGLE_THRESHOLD


# ---------------------------------------------------------------------------
# Primary ratio kernels (official seam, force_branch aware)
# ---------------------------------------------------------------------------


def _sinc(phi: float) -> float:
    """sin(phi)/phi."""
    if _seam_use_series(phi):
        return _poly_even(_SINC_SERIES, phi)
    return math.sin(phi) / phi


def _sinc_sq_half(phi: float) -> float:
    """(sin(phi/2)/(phi/2))**2."""
    if _seam_use_series(phi):
        return _poly_even(_SINC_SQ_HALF_SERIES, phi)
    half = 0.5 * phi
    t = math.sin(half) / half
    return t * t


def _cot_half_scaled(phi: float) -> float:
    """(phi/2)*cot(phi/2); poles at multiples of 2*pi."""
    if _seam_use_series(phi):
        return _poly_even(_COT_HALF_SCALED_SERIES, phi)
    half = 0.5 * phi
    return half * math.cos(half) / math.sin(half)


def _inv_sinc_sq_half(phi: float) -> float:
    """((phi/2)/sin(phi/2))**2; poles at multiples of 2*pi."""
    if _seam_use_series(phi):
        return _poly_even(_INV_SINC_SQ_HALF_SERIES, phi)
    half = 0.5 * phi
    t = half / math.sin(half)
    return t * t


# ---------------------------------------------------------------------------
# Derived quotient kernels (cancellation guarded: series below SERIES_WINDOW)
# ---------------------------------------------------------------------------


def _dexp_quad(phi: float) -> float:
    """(1 - sinc)/phi**2, limit 1/6; quadratic coefficient of the rotation
    exponential differential."""
    if phi < SERIES_WINDOW:
        return _poly_even(_DEXP_QUAD_SERIES, phi)
    return (phi - math.sin(phi)) / phi**3


def _dexp_lin_rate(phi: float) -> float:
    """Radial rate of beta/2, limit -1/12."""
    if phi < SERIES_WINDOW:
        return _poly_even(_DEXP_LIN_RATE_SERIES, phi)
    s_half = math.sin(0.5 * phi)
    return (phi * math.sin(phi) - 4.0 * s_half * s_half) / phi**4


def _dexp_quad_rate(phi: float) -> float:
    """Radial rate of the quadratic coefficient, limit -1/60."""
    if phi < SERIES_WINDOW:
        return _poly_even(_DEXP_QUAD_RATE_SERIES, phi)
    return (3.0 * math.sin(phi) - phi * math.cos(phi) - 2.0 * phi) / phi**5


def _dexpinv_quad(phi: float) -> float:
    """(1 - gamma)/phi**2, limit 1/12; quadratic coefficient of the inverse
    rotation differential.  Poles at 2*pi."""
    if phi < SERIES_WINDOW:
        return _poly_even(_DEXPINV_QUAD_SERIES, phi)
    half = 0.5 * phi
    gamma = half * math.cos(half) / math.sin(half)
    return (1.0 - gamma) / (phi * phi)


def _dexpinv_quad_rate(phi: float) -> float:
    """Radial rate of the inverse-differential quadratic coefficient,
    limit 1/360.  Poles at 2*pi."""
    if phi < SERIES_WINDOW:
        return _poly_even(_DEXPINV_QUAD_RATE_SERIES, phi)
    half = 0.5 * phi
    s = math.sin(half)
    gamma = half * math.cos(half) / s
    inv_beta = (half / s) ** 2
    return (inv_beta + gamma - 2.0) / phi**4


def _dexp_lin_rate2(phi: float) -> float:
    """Second radial rate of beta/2, limit 1/90."""
    if phi < SERIES_WINDOW:
        return _poly_even(_DEXP_LIN_RATE2_SERIES, phi)
    s_half = math.sin(0.5 * phi)
    num = (phi * phi * math.cos(phi) - 5.0 * phi * math.sin(phi)
           + 16.0 * s_half * s_half)
    return num / phi**6


def _dexp_quad_rate2(phi: float) -> float:
    """Second radial rate of the quadratic coefficient, limit 1/630."""
    if phi < SERIES_WINDOW:
        return _poly_even(_DEXP_QUAD_RATE2_SERIES, phi)
    num = (phi * phi * math.sin(phi) + 7.0 * phi * math.cos(phi)
           - 15.0 * math.sin(phi) + 8.0 * phi)
    return num / phi**7


def _dexpinv_quad_rate2(phi: float) -> float:
    """Second radial rate of the inverse-differential quadratic coefficient,
    limit 1/3780.  Poles at 2*pi."""
    if phi < SERIES_WINDOW:
        return _poly_even(_DEXPINV_QUAD_RATE2_SERIES, phi)
    phi_sq = phi * phi
    half = 0.5 * phi
    s = math.sin(half)
    gamma = half * math.cos(half) / s
    beta = (s / half) ** 2
    c_quad = (1.0 - gamma) / phi_sq
    c_lin_rate = _dexp_lin_rate(phi)
    c_quad_rate = (1.0 / beta + gamma - 2.0) / (phi_sq * phi_sq)
    return ((gamma * c_quad - 0.25 - 2.0 * c_lin_rate / (beta * beta))
            / (phi_sq * phi_sq) - 4.0 * c_quad_rate / phi_sq)


def _adform_quad(phi: float) -> float:
    """Squared-adjoint coefficient of the inverse screw differential,
    limit +1/12.  Poles at 2*pi."""
    if phi < SERIES_WINDOW:
        return _poly_even(_ADFORM_QUAD_SERIES, phi)
    alpha = math.sin(phi) / phi
    half = 0.5 * phi
    t = math.sin(half) / half
    beta = t * t
    return (2.0 - (1.0 + 3.0 * alpha) / (2.0 * beta)) / (phi * phi)


def _adform_quart(phi: float) -> float:
    """Fourth-power-adjoint coefficient of the inverse screw differential,
    limit -1/720.  Poles at 2*pi."""
    if phi < SERIES_WINDOW:
        return _poly_even(_ADFORM_QUART_SERIES, phi)
    alpha = math.sin(phi) / phi
    half = 0.5 * phi
    t = math.sin(half) / half
    beta = t * t
    return (1.0 - (1.0 + alpha) / (2.0 * beta)) / phi**4


def _inv_sinc(phi: float) -> float:
    """phi/sin(phi); poles at multiples of pi."""
    if phi < _INV_SINC_SERIES_WINDOW:
        return _poly_even(_INV_SINC_SERIES, phi)
    return phi / math.sin(phi)
