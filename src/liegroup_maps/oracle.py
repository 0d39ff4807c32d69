"""Independent reference routes used to certify the closed-form maps.

The series, finite-difference and resolvent oracles share no code with the
closed-form implementations: the series oracles are plain truncated matrix
Taylor sums, the inverse-differential oracle uses the Bernoulli coefficients
of z/(exp(z) - 1) from their own integer recurrence, the directional
derivative oracle is a central finite difference, and the Cayley oracle is a
linear solve.  Tests compare every production formula against at least one
of these routes.  The identity routes at the end, by contrast, recombine the
rotation Cayley maps into quantities that must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import hat3
from .se3 import _split
from .so3 import _sigma, sigma, so3_cay, so3_dcay

__all__ = [
    "SeriesConfig",
    "series_exp",
    "series_dexp",
    "series_dexp_inv",
    "fd_directional",
    "resolvent_cay",
    "adjoint_cay_A_forms",
    "CayleyTranslationMismatch",
    "adjoint_vs_se3_cay_mismatch",
]


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for the matrix series oracles."""

    max_terms: int = 40


_DEFAULT_CONFIG = SeriesConfig()
# A Taylor sum stops once its increment falls below this, relative to the sum.
_TAIL_TOL = 1e-17
# Beyond this condition number of I - m the Cayley resolvent is refused.
_RESOLVENT_COND_LIMIT = 1e12
_EYE3 = np.eye(3)


def _inv_tangent_series(n_terms: int) -> tuple:
    """Coefficients b_k = B_k / k! of z/(exp(z) - 1) = sum b_k z**k, each
    the correctly rounded double of the exact rational.

    With S = n_terms!, every I_m = S * B_m (m < n_terms) is an integer: the
    denominator of B_m is square-free with prime factors at most m + 1
    (von Staudt-Clausen).  The recurrence sum_{j<=m} C(m+1, j) B_j = 0 then
    gives each I_m by exact integer division, and each b_k is one int/int
    division.  b_1 = -1/2 follows from the recurrence, so there is no
    sign-convention ambiguity; odd coefficients beyond b_1 vanish and are
    not summed.
    """
    scale = math.factorial(n_terms)
    scaled = [scale]
    for m in range(1, n_terms):
        if m > 1 and m % 2:
            scaled.append(0)
            continue
        total = sum(math.comb(m + 1, j) * scaled[j] for j in range(m)
                    if scaled[j])
        scaled.append(-total // (m + 1))
    return tuple(num / (scale * math.factorial(k))
                 for k, num in enumerate(scaled))


_INV_TANGENT_SERIES = _inv_tangent_series(39)

# The z/(exp(z)-1) series has convergence radius 2*pi; with the table above
# the truncation tail stays below ~1e-19 for matrix norms up to 2.
_INV_TANGENT_NORM_CAP = 2.0


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _taylor_sum(m, shift: int, config: SeriesConfig, what: str) -> np.ndarray:
    """sum_k m**k / (k + shift)! for shift 0 or 1, summed until the
    Frobenius norm of the increment drops below ``_TAIL_TOL`` relative to
    the sum.  If that takes more than ``config.max_terms`` terms, a
    ValueError naming ``what`` is raised rather than returning a silently
    truncated result."""
    m = _as_square(m)
    acc = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, config.max_terms + 1):
        term = term @ m / (k + shift)
        acc = acc + term
        if np.linalg.norm(term) <= _TAIL_TOL * max(1.0, np.linalg.norm(acc)):
            return acc
    raise ValueError(f"{what} series did not converge in {config.max_terms} "
                     f"terms")


def series_exp(m, config: SeriesConfig = _DEFAULT_CONFIG) -> np.ndarray:
    """Matrix exponential as a plain truncated Taylor sum."""
    return _taylor_sum(m, 0, config, "matrix exponential")


def series_dexp(m, config: SeriesConfig = _DEFAULT_CONFIG) -> np.ndarray:
    """Right-trivialized differential of the exponential as the truncated
    series sum_k m**k / (k+1)!."""
    return _taylor_sum(m, 1, config, "exponential-differential")


def series_dexp_inv(m, config: SeriesConfig = _DEFAULT_CONFIG) -> np.ndarray:
    """Inverse of the exponential differential via the z/(exp(z)-1) series.

    Only valid for small matrices: the series radius is 2*pi and the
    coefficient table is truncated, so the Frobenius norm is capped at 2.
    """
    m = _as_square(m)
    norm = np.linalg.norm(m)
    if norm > _INV_TANGENT_NORM_CAP:
        raise ValueError(
            f"matrix norm {norm:.3f} too large for the inverse-differential "
            f"series oracle (cap {_INV_TANGENT_NORM_CAP})"
        )
    n_terms = min(config.max_terms + 1, len(_INV_TANGENT_SERIES))
    acc = np.eye(m.shape[0])
    power = np.eye(m.shape[0])
    for k in range(1, n_terms):
        power = power @ m
        b = _INV_TANGENT_SERIES[k]
        if b:
            acc = acc + b * power
    return acc


def fd_directional(
    f: Callable[[np.ndarray], np.ndarray],
    point,
    direction,
    h: float = 1e-5,
) -> np.ndarray:
    """Central finite difference of f at ``point`` along ``direction``."""
    point = np.asarray(point, dtype=float)
    direction = np.asarray(direction, dtype=float)
    fp = np.asarray(f(point + h * direction), dtype=float)
    fm = np.asarray(f(point - h * direction), dtype=float)
    return (fp - fm) / (2.0 * h)


def resolvent_cay(m) -> np.ndarray:
    """Cayley transform (I - m)^{-1} (I + m) via linear solves.

    Both resolvent orderings are computed and must agree to 1e-12; they are
    algebraically identical, so a discrepancy (or a condition number of
    I - m beyond 1e12) indicates the input is too close to the chart
    boundary.
    """
    m = _as_square(m)
    eye = np.eye(m.shape[0])
    if np.linalg.cond(eye - m) > _RESOLVENT_COND_LIMIT:
        raise ValueError("Cayley resolvent is ill-conditioned: chart boundary")
    left = np.linalg.solve(eye - m, eye + m)
    right = np.linalg.solve((eye - m).T, (eye + m).T).T
    gap = np.abs(left - right).max()
    if gap > 1e-12 * max(1.0, np.abs(left).max()):
        raise ValueError(
            f"Cayley resolvent orderings disagree by {gap:.3e}"
        )
    return left


# ---------------------------------------------------------------------------
# Cayley identity routes
# ---------------------------------------------------------------------------


def adjoint_cay_A_forms(screw) -> dict[str, np.ndarray]:
    """The lower-left coupling block of :func:`liegroup_maps.se3.adjoint_cay`
    by five algebraically equivalent routes (for cross-certification):

    1. half-sandwich by (I + R),
    2. resolvent sandwich 2 (I - hat(x))^{-1} hat(y) (I - hat(x))^{-1},
    3. mixed resolvent (I - hat(x))^{-1} hat(y) (I + R),
    4. hat of the transported translation velocity times R,
    5. split form hat(y) dcay(x) + s hat(x) hat(y) R.
    """
    x, y, _ = _split(screw, _sigma)     # the chart and translation checks
    x, y = np.array(x), np.array(y)
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
    x, y, _ = _split(screw, _sigma)     # the chart and translation checks
    x, y = np.array(x), np.array(y)
    adjoint_route = so3_dcay(x) @ y
    group_route = (_EYE3 + so3_cay(x)) @ y
    predicted_gap = sigma(x) * float(x @ y) * x
    return CayleyTranslationMismatch(adjoint_route, group_route, predicted_gap)
