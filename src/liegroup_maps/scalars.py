"""Scalar trigonometric coefficients for the rotation and screw maps.

Every closed-form map in this package reduces to a handful of even scalar
functions of the rotation angle phi = |x|.  The primary bundle is
``alpha`` = sin(phi)/phi and ``beta`` = (sin(phi/2)/(phi/2))**2; the other
kernels are radial rates and quotients of these, most of them through
``gamma`` = alpha/beta = (phi/2)*cot(phi/2).  All have removable
singularities at phi = 0 and lose digits to cancellation in their naive
closed forms, so each kernel is one row -- a series table, a closed form
and a window -- and one branch rule, :func:`_kernel`, evaluates every row:

* an even 30-term Taylor polynomial in s = phi**2 below the window, whose
  coefficients are derived at import from exact rationals and rounded once
  to double precision; below ``_HEAD_EDGE`` Horner runs only on a head of
  the table that returns the same double, and
* a cancellation-free trigonometric expression above it.

alpha and beta switch at the official small-angle seam
``SMALL_ANGLE_THRESHOLD``; :func:`force_branch` can pin them to either
branch so the seam agreement can be certified.  The derived quotients lose
up to ~phi**-4 digits in any trigonometric rearrangement, so they keep the
series up to ``SERIES_WINDOW``, purely as an accuracy measure; that window
is not a seam and ignores :func:`force_branch`.  A non-finite angle (NaN,
or the overflowed norm of a huge vector) fails every window test and
raises :class:`~liegroup_maps.core.ChartDomainError` on the closed branch.

The kernels built on ``gamma`` have poles at phi = 2*pi, where the inverse
differential of the rotation exponential does not exist:
:func:`ensure_dexp_inv_domain` raises ChartDomainError at or beyond
``DEXPINV_DOMAIN_LIMIT``.  alpha, beta and their rates are defined at any
finite angle.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from contextvars import ContextVar

from .core import ChartDomainError

__all__ = [
    "SMALL_ANGLE_THRESHOLD",
    "SERIES_WINDOW",
    "DEXPINV_DOMAIN_LIMIT",
    "force_branch",
    "ensure_dexp_inv_domain",
]

# Official seam between the series and closed-form branches of alpha and
# beta.
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
# Branch selection
# ---------------------------------------------------------------------------

# a context variable, so each thread (and each asyncio task) has its own
_FORCED_BRANCH: ContextVar[str | None] = ContextVar("forced_branch",
                                                    default=None)


@contextmanager
def force_branch(branch: str):
    """Pin the primary ratios alpha and beta to one branch.

    ``branch`` is ``'series'`` or ``'closed'``.  This is a certification aid
    for exercising both sides of the small-angle seam on the same input; the
    forced series branch is only accurate for angles well below 1 radian.
    The derived quotient kernels are unaffected: their wide series window is
    a cancellation guard, not a seam.  The pin holds in the current context
    only, so other threads keep their own branch.
    """
    if branch not in ("series", "closed"):
        raise ValueError(f"branch must be 'series' or 'closed', got {branch!r}")
    token = _FORCED_BRANCH.set(branch)
    try:
        yield
    finally:
        _FORCED_BRANCH.reset(token)


def _seam_use_series(phi: float) -> bool:
    forced = _FORCED_BRANCH.get()
    if forced == "series":
        return phi < math.inf
    if forced == "closed":
        # The closed forms are 0/0 at exactly zero; the limit is exact there.
        return phi == 0.0
    return phi < SMALL_ANGLE_THRESHOLD


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


def _poly_even(coeffs, phi: float) -> float:
    """Evaluate an even polynomial sum_k coeffs[k] * phi**(2k) by Horner."""
    s = phi * phi
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


# The series head covers the angles of one integrator stage: RK4 at h = 1e-3
# on the heavy tops of the benchmark ensembles stays below it.
_HEAD_EDGE = 1e-2


def _head(series) -> tuple:
    """The shortest head of ``series`` whose dropped tail at ``_HEAD_EDGE``
    is below 2**-100 |series[0]|, 2**47 times below the last bit of the sum."""
    s, bound = _HEAD_EDGE * _HEAD_EDGE, math.ldexp(abs(series[0]), -100)
    n, tail = len(series), 0.0
    while n > 1 and tail + abs(series[n - 1]) * s ** (n - 1) < bound:
        n -= 1
        tail += abs(series[n]) * s ** n
    return series[:n]


def _kernel(series, window=SERIES_WINDOW):
    """Decorate a closed form into a kernel row; the one branch rule.

    Horner on ``series`` below ``window`` (the force_branch-aware seam if
    None), on the head of :func:`_head` below ``_HEAD_EDGE``, the closed
    form above the window, ChartDomainError for a non-finite angle.
    """
    head = _head(series)

    def row(closed):
        @functools.wraps(closed)
        def kernel(phi: float) -> float:
            if (phi < window) if window is not None else _seam_use_series(phi):
                return _poly_even(head if phi < _HEAD_EDGE else series, phi)
            if phi < math.inf:
                return closed(phi)
            raise ChartDomainError(
                f"rotation angle must be finite, got {float(phi)!r}")

        return kernel

    return row


# ---------------------------------------------------------------------------
# Kernel rows: a series table, a closed form and a window each.  Two
# identities give every derived table its integer scale:
# * a radial rate (1/phi) d/dphi is 2 d/ds, mapping coefficients c[k] of a
#   series to 2 (k+1) c[k+1];
# * 1/beta = gamma - 2 s dgamma/ds.
# ---------------------------------------------------------------------------

_SINC_SERIES = _series(_SINC)
_SINC_SQ_HALF_SERIES = _series(_BETA)
_DEXP_QUAD_SERIES = _series(_SINC, 1, lambda k: -1)
_DEXP_LIN_RATE_SERIES = _series(_BETA, 1, lambda k: k + 1)
_DEXP_QUAD_RATE_SERIES = _series(_SINC, 2, lambda k: -2 * (k + 1))
_DEXPINV_QUAD_SERIES = _series(_GAMMA, 1, lambda k: -1)
_DEXPINV_QUAD_RATE_SERIES = _series(_GAMMA, 2, lambda k: -2 * (k + 1))
_DEXP_LIN_RATE2_SERIES = _series(_BETA, 2, lambda k: 2 * (k + 1) * (k + 2))
_DEXP_QUAD_RATE2_SERIES = _series(_SINC, 3, lambda k: -4 * (k + 1) * (k + 2))
_DEXPINV_QUAD_RATE2_SERIES = _series(_GAMMA, 3,
                                     lambda k: -4 * (k + 1) * (k + 2))
_ADFORM_QUAD_SERIES = _series(_GAMMA, 1, lambda k: k - 1)
_ADFORM_QUART_SERIES = _series(_GAMMA, 2, lambda k: k + 1)
_INV_SINC_SERIES = _series(_INV_SINC)


def _beta(phi: float) -> float:
    half = 0.5 * phi
    t = math.sin(half) / half
    return t * t


def _gamma(phi: float) -> float:
    half = 0.5 * phi
    return half * math.cos(half) / math.sin(half)


# sin(phi)/phi: alpha
@_kernel(_SINC_SERIES, window=None)
def _sinc(phi):
    return math.sin(phi) / phi


# (sin(phi/2)/(phi/2))**2: beta
@_kernel(_SINC_SQ_HALF_SERIES, window=None)
def _sinc_sq_half(phi):
    return _beta(phi)


# (1 - alpha)/phi**2: quadratic coefficient of the exponential differential,
# limit 1/6
@_kernel(_DEXP_QUAD_SERIES)
def _dexp_quad(phi):
    return (phi - math.sin(phi)) / phi**3


# (alpha - beta)/phi**2: radial rate of beta/2, limit -1/12
@_kernel(_DEXP_LIN_RATE_SERIES)
def _dexp_lin_rate(phi):
    s_half = math.sin(0.5 * phi)
    return (phi * math.sin(phi) - 4.0 * s_half * s_half) / phi**4


# (beta/2 - 3*delta)/phi**2 with delta = (1 - alpha)/phi**2: radial rate of
# delta, limit -1/60
@_kernel(_DEXP_QUAD_RATE_SERIES)
def _dexp_quad_rate(phi):
    return (3.0 * math.sin(phi) - phi * math.cos(phi) - 2.0 * phi) / phi**5


# (1 - gamma)/phi**2: quadratic coefficient of the inverse differential,
# limit 1/12  (poles at 2*pi)
@_kernel(_DEXPINV_QUAD_SERIES)
def _dexpinv_quad(phi):
    return (1.0 - _gamma(phi)) / (phi * phi)


# (1/beta + gamma - 2)/phi**4: radial rate of the previous kernel,
# limit 1/360  (poles at 2*pi)
@_kernel(_DEXPINV_QUAD_RATE_SERIES)
def _dexpinv_quad_rate(phi):
    half = 0.5 * phi
    return ((half / math.sin(half)) ** 2 + _gamma(phi) - 2.0) / phi**4


# (phi**2*cos(phi) - 5*phi*sin(phi) + 16*sin(phi/2)**2)/phi**6: second radial
# rate of beta/2, limit 1/90
@_kernel(_DEXP_LIN_RATE2_SERIES)
def _dexp_lin_rate2(phi):
    s_half = math.sin(0.5 * phi)
    num = (phi * phi * math.cos(phi) - 5.0 * phi * math.sin(phi)
           + 16.0 * s_half * s_half)
    return num / phi**6


# (phi**2*sin(phi) + 7*phi*cos(phi) - 15*sin(phi) + 8*phi)/phi**7: second
# radial rate of delta, limit 1/630
@_kernel(_DEXP_QUAD_RATE2_SERIES)
def _dexp_quad_rate2(phi):
    num = (phi * phi * math.sin(phi) + 7.0 * phi * math.cos(phi)
           - 15.0 * math.sin(phi) + 8.0 * phi)
    return num / phi**7


# ((gamma*c_quad - 1/4 - 2*c_lin_rate/beta**2)/phi**2 - 4*c_quad_rate)/phi**2
# with c_quad = (1 - gamma)/phi**2, c_lin_rate = (alpha - beta)/phi**2 and
# c_quad_rate = (1/beta + gamma - 2)/phi**4: second radial rate of the
# inverse-differential quadratic coefficient, limit 1/3780  (poles at 2*pi)
@_kernel(_DEXPINV_QUAD_RATE2_SERIES)
def _dexpinv_quad_rate2(phi):
    phi_sq = phi * phi
    half = 0.5 * phi
    gamma = _gamma(phi)
    beta = (math.sin(half) / half) ** 2
    c_quad = (1.0 - gamma) / phi_sq
    c_lin_rate = _dexp_lin_rate(phi)
    c_quad_rate = (1.0 / beta + gamma - 2.0) / (phi_sq * phi_sq)
    return ((gamma * c_quad - 0.25 - 2.0 * c_lin_rate / (beta * beta))
            / (phi_sq * phi_sq) - 4.0 * c_quad_rate / phi_sq)


# (2 - (1 + 3*alpha)/(2*beta))/phi**2: squared-adjoint coefficient of the
# inverse screw differential, limit +1/12  (poles at 2*pi)
@_kernel(_ADFORM_QUAD_SERIES)
def _adform_quad(phi):
    alpha = math.sin(phi) / phi
    return (2.0 - (1.0 + 3.0 * alpha) / (2.0 * _beta(phi))) / (phi * phi)


# (1 - (1 + alpha)/(2*beta))/phi**4: fourth-power-adjoint coefficient of the
# inverse screw differential, limit -1/720  (poles at 2*pi)
@_kernel(_ADFORM_QUART_SERIES)
def _adform_quart(phi):
    alpha = math.sin(phi) / phi
    return (1.0 - (1.0 + alpha) / (2.0 * _beta(phi))) / phi**4


# phi/sin(phi)  (poles at pi: series radius pi, keep the window small)
@_kernel(_INV_SINC_SERIES, window=_INV_SINC_SERIES_WINDOW)
def _inv_sinc(phi):
    return phi / math.sin(phi)
