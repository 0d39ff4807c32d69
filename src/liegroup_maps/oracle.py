"""Independent reference routes used to certify the closed-form maps.

Nothing here shares code with the closed-form implementations: the series
oracles are plain truncated matrix Taylor sums, the inverse-differential
oracle uses the Bernoulli coefficients of z/(exp(z) - 1) from their own
integer recurrence, the directional derivative oracle is a central finite
difference, and the Cayley oracle is a linear solve.  Tests compare every
production formula against at least one of these routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SeriesConfig",
    "series_exp",
    "series_dexp",
    "series_dexp_inv",
    "fd_directional",
    "resolvent_cay",
]


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for the matrix series oracles."""

    max_terms: int = 40
    tail_tol: float = 1e-17


_DEFAULT_CONFIG = SeriesConfig()


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


def series_exp(m, config: SeriesConfig = _DEFAULT_CONFIG) -> np.ndarray:
    """Matrix exponential as a plain truncated Taylor sum.

    Terms are added until the Frobenius norm of the increment drops below
    ``config.tail_tol`` (relative to the accumulated sum); if that does not
    happen within ``config.max_terms`` terms a ValueError is raised rather
    than returning a silently truncated result.
    """
    m = _as_square(m)
    acc = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, config.max_terms + 1):
        term = term @ m / k
        acc = acc + term
        if np.linalg.norm(term) <= config.tail_tol * max(1.0, np.linalg.norm(acc)):
            return acc
    raise ValueError(
        f"matrix exponential series did not converge in {config.max_terms} terms"
    )


def series_dexp(m, config: SeriesConfig = _DEFAULT_CONFIG) -> np.ndarray:
    """Right-trivialized differential of the exponential as the truncated
    series sum_k m**k / (k+1)!."""
    m = _as_square(m)
    acc = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, config.max_terms + 1):
        term = term @ m / (k + 1)
        acc = acc + term
        if np.linalg.norm(term) <= config.tail_tol * max(1.0, np.linalg.norm(acc)):
            return acc
    raise ValueError(
        f"exponential-differential series did not converge in "
        f"{config.max_terms} terms"
    )


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


def resolvent_cay(m, cond_limit: float = 1e12) -> np.ndarray:
    """Cayley transform (I - m)^{-1} (I + m) via linear solves.

    Both resolvent orderings are computed and must agree to 1e-12; they are
    algebraically identical, so a discrepancy (or a condition number beyond
    ``cond_limit``) indicates the input is too close to the chart boundary.
    """
    m = _as_square(m)
    eye = np.eye(m.shape[0])
    if np.linalg.cond(eye - m) > cond_limit:
        raise ValueError("Cayley resolvent is ill-conditioned: chart boundary")
    left = np.linalg.solve(eye - m, eye + m)
    right = np.linalg.solve((eye - m).T, (eye + m).T).T
    gap = np.abs(left - right).max()
    if gap > 1e-12 * max(1.0, np.abs(left).max()):
        raise ValueError(
            f"Cayley resolvent orderings disagree by {gap:.3e}"
        )
    return left
