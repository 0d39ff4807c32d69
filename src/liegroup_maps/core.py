"""Fixed-size operators for rigid-body kinematics.

Conventions used throughout the package:

* Rotations are 3x3 orthonormal matrices with determinant +1.
* Poses are 4x4 homogeneous matrices ``[[R, r], [0, 1]]``.
* Screws and twists are 6-vectors with the ANGULAR block first:
  ``X = (x, y)`` where ``x`` is the rotational part and ``y`` the
  translational part.
* ``hat`` maps vectors to matrix representations of the Lie algebra,
  ``vee`` is its inverse.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ChartDomainError",
    "hat3",
    "vee3",
    "hat6",
    "vee6",
    "ad6",
    "Ad6",
    "pose_inverse",
    "is_rotation",
]

# A matrix handed to vee3 may carry roundoff; reject only if its symmetric
# part is grossly nonzero, otherwise project onto the antisymmetric part.
_SKEW_TOL = 1e-6
# Bottom row of a 4x4 algebra element must vanish to this tolerance.
_BOTTOM_ROW_TOL = 1e-9
_ORTHONORMALITY_TOL = 1e-9


class ChartDomainError(ValueError):
    """An input left the valid parameter domain of a coordinate map."""


def _as_vec(v, n: int, name: str) -> np.ndarray:
    out = np.asarray(v, dtype=float)
    if out.shape != (n,):
        raise ValueError(f"{name} must be a {n}-vector, got shape {out.shape}")
    return out


def _as_mat(m, n: int, name: str) -> np.ndarray:
    out = np.asarray(m, dtype=float)
    if out.shape != (n, n):
        raise ValueError(f"{name} must be a {n}x{n} matrix, got shape {out.shape}")
    return out


def _as_pose(m, name: str = "pose", corner: float = 1.0) -> np.ndarray:
    """A 4x4 float array with bottom row (0, 0, 0, corner) to within 1e-9;
    ValueError otherwise, for a NaN entry too."""
    m = _as_mat(m, 4, name)
    dev = float(np.abs(m[3] - (0.0, 0.0, 0.0, corner)).max())
    if not dev <= _BOTTOM_ROW_TOL:
        raise ValueError(f"bottom row of {name} must be "
                         f"(0, 0, 0, {corner:g}), max deviation {dev:.3e}")
    return m


def _finite(values, name: str) -> None:
    """ChartDomainError naming ``name`` unless every entry of the float
    sequence ``values`` is finite; entry by entry, so no sum can overflow."""
    if not all(map(math.isfinite, values)):
        raise ChartDomainError(f"{name} must be finite, got {list(values)!r}")


def _dot(a, b) -> float:
    """Dot product of two 3-sequences, on floats."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> list:
    """Cross product of two 3-sequences, on floats: np.cross carries heavy
    broadcasting overhead for single 3-vectors."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _mat3(skew, diag: float, *dyads) -> list:
    """Rows of hat(skew) + diag * I + the outer products b c^T of the
    (b, c) ``dyads``, on float sequences."""
    a, b, c = skew
    rows = [[diag, -c, b], [c, diag, -a], [-b, a, diag]]
    for left, (r0, r1, r2) in dyads:
        for row, li in zip(rows, left):
            row[0] += li * r0
            row[1] += li * r1
            row[2] += li * r2
    return rows


def hat3(v) -> np.ndarray:
    """Skew-symmetric 3x3 matrix of a 3-vector: hat3(v) @ w == cross(v, w)."""
    v = _as_vec(v, 3, "v")
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def vee3(m) -> np.ndarray:
    """Extract the 3-vector of a skew-symmetric matrix (inverse of hat3).

    The symmetric part must vanish to within 1e-6 (roundoff-level asymmetry
    is tolerated and projected away); otherwise a ValueError is raised.
    """
    m = _as_mat(m, 3, "m")
    sym = 0.5 * (m + m.T)
    if np.abs(sym).max() > _SKEW_TOL:
        raise ValueError(
            f"not skew: symmetric part has max entry {np.abs(sym).max():.3e}"
        )
    a = 0.5 * (m - m.T)
    return np.array([a[2, 1], a[0, 2], a[1, 0]])


def hat6(screw) -> np.ndarray:
    """4x4 matrix form of a screw: [[hat3(x), y], [0, 0]], angular block first."""
    screw = _as_vec(screw, 6, "screw")
    out = np.zeros((4, 4))
    out[:3, :3] = hat3(screw[:3])
    out[:3, 3] = screw[3:]
    return out


def vee6(m) -> np.ndarray:
    """Extract the screw 6-vector of a 4x4 algebra element (inverse of hat6).

    The bottom row must vanish to within 1e-9.
    """
    m = _as_pose(m, "m", 0.0)
    out = np.empty(6)
    out[:3] = vee3(m[:3, :3])
    out[3:] = m[:3, 3]
    return out


def ad6(screw) -> np.ndarray:
    """6x6 adjoint operator of a screw: [[hat(x), 0], [hat(y), hat(x)]].

    Satisfies ad6(X) @ Z == bracket of the screws X and Z.
    """
    screw = _as_vec(screw, 6, "screw")
    hx = hat3(screw[:3])
    out = np.zeros((6, 6))
    out[:3, :3] = hx
    out[3:, 3:] = hx
    out[3:, :3] = hat3(screw[3:])
    return out


def Ad6(pose) -> np.ndarray:
    """6x6 frame-transformation matrix of a pose: [[R, 0], [hat(r)R, R]].

    Maps body-frame twists to the spatial frame; a group homomorphism.
    """
    pose = _as_mat(pose, 4, "pose")
    rot = pose[:3, :3]
    out = np.zeros((6, 6))
    out[:3, :3] = rot
    out[3:, 3:] = rot
    out[3:, :3] = hat3(pose[:3, 3]) @ rot
    return out


def _as_rigid_pose(m, name: str = "pose") -> np.ndarray:
    """``m`` as a 4x4 float array with the bottom row of :func:`_as_pose`,
    finite entries and a rotation block; ValueError otherwise."""
    m = _as_pose(m, name)
    if not (np.isfinite(m).all() and is_rotation(m[:3, :3])):
        raise ValueError(f"{name} must be finite and rigid")
    return m


def pose_inverse(pose) -> np.ndarray:
    """Group inverse of a rigid pose: [[R^T, -R^T r], [0, 1]].  ValueError
    unless ``pose`` is a finite rigid pose (:func:`_as_rigid_pose`)."""
    pose = _as_rigid_pose(pose)
    rot_t = pose[:3, :3].T
    out = np.eye(4)
    out[:3, :3] = rot_t
    out[:3, 3] = -rot_t @ pose[:3, 3]
    return out


def is_rotation(rot, tol: float = _ORTHONORMALITY_TOL) -> bool:
    """True if rot is orthonormal within tol and has positive determinant;
    False for a matrix with a NaN entry."""
    rot = _as_mat(rot, 3, "rot")
    if not np.abs(rot.T @ rot - np.eye(3)).max() <= tol:
        return False
    return float(np.linalg.det(rot)) > 0.0
