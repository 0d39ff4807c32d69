"""Time and arclength integration on the rigid-motion group.

Each step solves the kinematic reconstruction equation in a local chart:
algebra coordinates ``X`` start at zero, evolve by ``Xdot = dmap_inv(-X) V``
for body-frame twist fields (``Xdot = dmap_inv(X) V`` for spatial ones), and
the step closes with ``C <- C @ map(X_h)`` (body) or ``C <- map(X_h) @ C``
(spatial).  The pose is always a product of exact group elements, so
orthonormality is preserved to rounding regardless of step size.

Every stepper reaches the chart through points, ``cmap.at(X)``, which
chart-check ``X`` once, give ``map(X)`` and apply ``dmap_inv(-X)`` or
``dmap_inv(X)`` to a twist on floats by the rows of the ``se3`` maps.

Three steppers are provided: a classical RK4 run through the chart, a
piecewise rule that freezes the field at the step midpoint (beams use it in
arclength), and an implicit midpoint rule whose Newton iteration assembles
the tangent matrix by the chain rule: the analytic directional derivative of
``dmap_inv``, the chart differential ``dmap`` at the half increment, and the
field's own Jacobian (central differences stand in for fields without one).
Runs extrapolate Newton's start and carry the inverse matrix between steps.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (ChartDomainError, _as_rigid_pose, _as_vec, _cross, _dot,
                   _finite, _mat3, pose_inverse)
from .oracle import fd_directional
from .se3 import (_blocks66, _cay_pose, _dcay_inv_blocks, _dexp_inv_blocks,
                  _exp_pose, se3_dcay, se3_ddcay_inv_tangent,
                  se3_ddexp_inv_tangent, se3_dexp, se3_exp)
from .so3 import _angle, _sigma

__all__ = [
    "DEFAULT_CONSTANT_TWIST",
    "MAX_STEPS",
    "ConvergenceResult",
    "CoordinateMap",
    "IntegrationError",
    "NewtonConvergenceError",
    "Problem",
    "Trajectory",
    "TwistField",
    "beam_reconstruct",
    "cayley_map",
    "convergence_study",
    "coordinate_map",
    "exponential_map",
    "final_pose_deviation",
    "helix_strain",
    "integrate",
    "make_constant_twist_problem",
    "make_heavy_top_problem",
    "make_problem",
    "varying_strain",
]

_FRAMES = ("body", "spatial")
_ZERO3 = (0.0, 0.0, 0.0)

DEFAULT_CONSTANT_TWIST = np.array([0.3, -0.2, 0.4, 1.0, 0.5, -0.3])
# Largest step count a run accepts: a run keeps every pose, so a huge t_end/h
# would exhaust memory (the largest run in tests and benchmarks is 16 000).
MAX_STEPS = 10_000_000


class NewtonConvergenceError(RuntimeError):
    """Implicit step failed to converge; carries the last residual norm."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class IntegrationError(RuntimeError):
    """A step failed mid-run; carries the trajectory up to the failure."""

    def __init__(self, message: str, partial: "Trajectory"):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# Charts, fields, trajectories
# ---------------------------------------------------------------------------


def _floats(values, n: int, name: str) -> list:
    """``values`` as a list of ``n`` floats: a list of that length is taken
    as it is, anything else goes through ``_as_vec``, whose ValueError
    names ``name`` and both lengths."""
    if type(values) is list and len(values) == n:
        return values
    return _as_vec(values, n, name).tolist()


class ChartPoint:
    """A point of a chart, made by :meth:`CoordinateMap.at`: the chart check
    and the finite-translation check run once; at the origin the composition
    is skipped and the operator rows are built with the point."""

    __slots__ = ("_cmap", "_x", "_y", "_k", "_origin_rows")

    def __init__(self, cmap: "CoordinateMap", floats: list):
        self._cmap, self._x, self._y = cmap, floats[:3], floats[3:]
        self._k = cmap.check(self._x)
        _finite(self._y, "translation")
        self._origin_rows = (None if any(floats) else
                             cmap.dmap_inv_rows(self._x, self._y, self._k))

    def pose(self) -> np.ndarray:
        """The local pose ``map(coords)``."""
        return self._cmap.local_pose(self._x, self._y, self._k)

    def compose(self, pose: np.ndarray, frame: str) -> np.ndarray:
        """``pose`` moved through the local pose in ``frame``."""
        return pose if self._origin_rows else _compose(frame, pose,
                                                       self.pose())

    def _signed(self, frame: str) -> tuple:
        """The coordinates the operators of ``frame`` are taken at, as
        ``(x, y)``: negated for a body frame."""
        if frame == "body":
            return [-v for v in self._x], [-v for v in self._y]
        return self._x, self._y

    def _rows(self, frame: str) -> tuple:
        if self._origin_rows:
            return self._origin_rows
        return self._cmap.dmap_inv_rows(*self._signed(frame), self._k)

    def dmap_inv(self, twist, frame: str) -> list:
        """The coordinate rate of a twist in ``frame`` as floats, with no
        6x6 array: ``dmap_inv(-coords) @ twist`` for a body frame,
        ``dmap_inv(coords) @ twist`` for a spatial one."""
        a, b, c, u, v, w = _floats(twist, 6, "twist")
        top, low, diag = self._rows(frame)
        # summed in the pairing of NumPy's 6x6 product through OpenBLAS
        # dgemv, so a twist without translation gets the array product's bits
        return [(p * a + r * c) + q * b for p, q, r in top] + [
            ((p * a + r * c) + (q * b + l * u)) + (m * v + n * w)
            for (p, q, r), (l, m, n) in zip(low, diag)]

    def dmap_inv_matrix(self, frame: str) -> np.ndarray:
        """The operator of :meth:`dmap_inv` as a 6x6 array."""
        return _blocks66(*self._rows(frame))

    def dmap_matrix(self, frame: str) -> np.ndarray:
        """The chart differential at the coordinates of ``frame``:
        ``dmap(-coords)`` for a body frame, ``dmap(coords)`` for a spatial
        one."""
        x, y = self._signed(frame)
        return self._cmap.dmap(x + y)

    def dmap_inv_derivative(self, twist, frame: str) -> np.ndarray:
        """The derivative of :meth:`dmap_inv` of a fixed twist with respect
        to the coordinates: ``-ddmap_inv_tangent(-coords, twist)`` for a
        body frame, ``ddmap_inv_tangent(coords, twist)`` for a spatial one."""
        x, y = self._signed(frame)
        tangent = self._cmap.ddmap_inv_tangent(x + y, twist)
        return -tangent if frame == "body" else tangent


@dataclass(frozen=True)
class CoordinateMap:
    """A local chart: one point entry, :meth:`at` (``origin`` is the point
    at zero), plus the operators the Newton matrix needs.

    Points run the code of the public maps: the chart check ``check`` and
    the row functions ``local_pose`` and ``dmap_inv_rows``.  ``dmap`` is
    the right-trivialized differential of the value map (``map(x + d) ~
    exp(hat(dmap(x) @ d)) @ map(x)``); its inverse maps a body/spatial twist
    to the coordinate rate and is I at zero (I/2 on the Cayley chart, whose
    differential at zero is 2I).  ``ddmap_inv_tangent(x, v)`` assembles the
    directional derivatives of that inverse at x along all six basis
    directions, contracted with a fixed twist, in one pass (the curvature
    block of implicit tangent matrices).
    """

    kind: str
    check: Callable[[list], float]
    local_pose: Callable[..., np.ndarray]
    dmap_inv_rows: Callable[..., tuple]
    dmap: Callable[[np.ndarray], np.ndarray]
    ddmap_inv_tangent: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def at(self, coords) -> ChartPoint:
        """The chart point at a 6-vector of coordinates; a list of 6 floats,
        as the steppers build it, is taken as it is (:func:`_floats`)."""
        return ChartPoint(self, _floats(coords, 6, "coords"))

    @functools.cached_property
    def origin(self) -> ChartPoint:
        return self.at([0.0] * 6)


def exponential_map() -> CoordinateMap:
    return CoordinateMap("exponential", _angle, _exp_pose, _dexp_inv_blocks,
                         se3_dexp, se3_ddexp_inv_tangent)


def cayley_map() -> CoordinateMap:
    return CoordinateMap("cayley", _sigma, _cay_pose, _dcay_inv_blocks,
                         se3_dcay, se3_ddcay_inv_tangent)


def coordinate_map(kind) -> CoordinateMap:
    """Build a chart from a name; accepts 'exp'/'exponential', 'cay'/'cayley'."""
    if isinstance(kind, CoordinateMap):
        return kind
    if kind in ("exp", "exponential"):
        return exponential_map()
    if kind in ("cay", "cayley"):
        return cayley_map()
    raise ValueError(
        f"unknown coordinate map {kind!r}; expected 'exponential' or 'cayley'"
    )


@dataclass(frozen=True)
class TwistField:
    """Twist along a motion, with optional auxiliary ODE state.

    ``aux0`` is 1-D; any other shape raises ValueError.  ``rate(t, pose,
    aux)`` receives ``aux`` as a list of ``n = aux0.size`` floats and
    returns ``(twist, aux_rate)``: ``twist`` has 6 entries in the frame
    named by ``frame`` and ``aux_rate`` has ``n``.  Lists of floats
    pass to the steppers as they are; arrays and other sequences are
    accepted and converted, and a wrong length raises ValueError.  Fields
    without auxiliary state return an empty rate.

    ``jacobian(t, pose, aux)``, optional, returns the ``(6+n, 6+n)``
    derivative of the stacked ``(twist, aux_rate)`` with respect to
    ``(xi, aux)``, where ``xi`` perturbs the pose in the field's frame:
    ``pose @ exp(hat(xi))`` for a body field, ``exp(hat(xi)) @ pose`` for a
    spatial one.  The implicit midpoint rule builds its Newton matrix from
    it, and raises ValueError naming it when its shape is not
    ``(6+n, 6+n)``; without it, central differences of ``rate`` stand in.
    """

    frame: str
    rate: Callable[[float, np.ndarray, list], tuple]
    aux0: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(0))
    jacobian: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        if self.frame not in _FRAMES:
            raise ValueError(
                f"unknown twist frame {self.frame!r}; expected one of {_FRAMES}"
            )
        aux0 = np.asarray(self.aux0, dtype=float)
        if aux0.ndim != 1:
            raise ValueError(f"aux0 must be 1-D, got shape {aux0.shape}")
        object.__setattr__(self, "aux0", aux0)


@dataclass(frozen=True)
class Problem:
    """A named initial-value problem for the integrate() driver."""

    name: str
    field: TwistField
    initial_pose: np.ndarray
    invariants: Mapping[str, Callable[[np.ndarray, list], float]] = (
        dataclass_field(default_factory=dict)
    )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled motion with per-sample invariant records.

    ``newton_iterations`` holds one count per step: the Newton updates of an
    implicit-midpoint step, 0 when its warm start (:func:`_midpoint`)
    already meets the tolerance, and 0 for explicit and piecewise steps.
    """

    times: np.ndarray
    poses: np.ndarray
    aux: np.ndarray
    step: float
    map_kind: str
    method: str
    problem: str
    invariant_names: tuple
    invariant_values: np.ndarray
    orth_drift: np.ndarray
    newton_iterations: np.ndarray

    @property
    def final_pose(self) -> np.ndarray:
        return self.poses[-1]

    def invariant_drift(self, name: str) -> np.ndarray:
        """Absolute deviation of a named invariant from its initial value."""
        column = self.invariant_names.index(name)
        values = self.invariant_values[:, column]
        return np.abs(values - values[0])


# ---------------------------------------------------------------------------
# Steppers
# ---------------------------------------------------------------------------


def _compose(frame: str, pose: np.ndarray, local: np.ndarray) -> np.ndarray:
    return pose @ local if frame == "body" else local @ pose


def _require_finite_positive(what: str, *values) -> None:
    for value in values:
        if not 0.0 < value < math.inf:     # false for NaN as well
            raise ValueError(f"{what} must be finite and positive")


def _step_count(h: float, t_end: float) -> int:
    """round(t_end / h) for a finite, positive h and t_end; a ratio above
    :data:`MAX_STEPS`, an overflowing one included, raises ValueError."""
    ratio = t_end / h
    if ratio > MAX_STEPS:
        raise ValueError(f"step count t_end/h overflows the limit of "
                         f"{MAX_STEPS} steps: t_end={t_end!r}, h={h!r}")
    return round(ratio)


def _rk4(cmap: CoordinateMap, field: TwistField, h: float, *_):
    """Classical RK4 run through the chart; takes no Newton settings.

    The chart coordinates restart at zero each step; auxiliary state is
    co-integrated with the same tableau.  Each stage is one chart point,
    and the stage states, rates and sums are float lists.  A step raises
    ChartDomainError if an internal stage leaves the chart.
    """
    frame, n, half, sixth = field.frame, field.aux0.size, 0.5 * h, h / 6.0

    def advance(pose: np.ndarray, t: float, aux: list) -> tuple:

        def rate(tau, point, z):
            twist, aux_rate = field.rate(tau, point.compose(pose, frame), z)
            return (point.dmap_inv(twist, frame),
                    _floats(aux_rate, n, "aux rate"))

        def stage(tau, scale, kx, kz):
            return rate(tau, cmap.at([scale * k for k in kx]),
                        [z + scale * k for z, k in zip(aux, kz)])

        k1x, k1z = rate(t, cmap.origin, aux)
        k2x, k2z = stage(t + half, half, k1x, k1z)
        k3x, k3z = stage(t + half, half, k2x, k2z)
        k4x, k4z = stage(t + h, h, k3x, k3z)

        coords = [sixth * (a + 2.0 * b + 2.0 * c + d)
                  for a, b, c, d in zip(k1x, k2x, k3x, k4x)]
        aux_next = [z + sixth * (a + 2.0 * b + 2.0 * c + d)
                    for z, a, b, c, d in zip(aux, k1z, k2z, k3z, k4z)]
        return cmap.at(coords).compose(pose, frame), aux_next, 0

    return advance


def _midpoint_residual(cmap: CoordinateMap, field: TwistField,
                       pose: np.ndarray, t: float, h: float, aux: list,
                       state: list):
    """Residual of the implicit-midpoint equations, the point at the full
    increment and a closure that assembles the Newton matrix there.

    ``state`` is a float list that stacks the chart increment (first six
    entries) with the end-of-step auxiliary state.  The residual is a float
    list too; the field gets the midpoint auxiliary state as floats.  The
    closure raises ValueError when the field's Jacobian is not
    ``(6+n, 6+n)``.
    """
    frame, size = field.frame, len(state)
    coords, z_end = state[:6], state[6:]
    t_mid = t + 0.5 * h
    aux_mid = [0.5 * (a + z) for a, z in zip(aux, z_end)]
    half = cmap.at([0.5 * c for c in coords])
    mid_pose = half.compose(pose, frame)
    twist, aux_rate = field.rate(t_mid, mid_pose, aux_mid)
    point = cmap.at(coords)
    rate = point.dmap_inv(twist, frame)
    aux_rate = _floats(aux_rate, len(z_end), "aux rate")
    residual = [c - h * r for c, r in zip(coords, rate)] + [
        (z - a) - h * r for z, a, r in zip(z_end, aux, aux_rate)]

    def jacobian() -> np.ndarray:
        if field.jacobian is None:
            field_jac = _field_jacobian_fd(field, t_mid, mid_pose, aux_mid)
        else:
            field_jac = np.asarray(field.jacobian(t_mid, mid_pose, aux_mid),
                                   dtype=float)
            if field_jac.shape != (size, size):
                raise ValueError(
                    f"TwistField.jacobian must return shape ({size}, {size}),"
                    f" (6+n, 6+n) for n = {size - 6} aux entries; got "
                    f"{field_jac.shape}")
        # chain rule: a chart step d moves the midpoint pose by
        # half.dmap_matrix(frame) @ d / 2 in the field's frame and an
        # end-state step moves the midpoint aux by half of it, so the matrix
        # is I - h [[dmap_inv, 0], [0, I]] field_jac [[dmap/2, 0], [0, I/2]]
        # - h d(dmap_inv twist)/d coords, built on one fresh array
        out = (-0.5 * h) * field_jac
        out[:, :6] = out[:, :6] @ half.dmap_matrix(frame)
        out[:6] = point.dmap_inv_matrix(frame) @ out[:6]
        out[:6, :6] -= h * point.dmap_inv_derivative(twist, frame)
        out.flat[::size + 1] += 1.0
        return out

    return residual, point, jacobian


def _field_jacobian_fd(field: TwistField, t: float, pose: np.ndarray,
                       aux: list) -> np.ndarray:
    """Stand-in for ``TwistField.jacobian``: central differences
    (:func:`~liegroup_maps.oracle.fd_directional`) of the stacked
    ``(twist, aux_rate)``, the pose moved by ``se3_exp(xi)`` in the field's
    frame and the auxiliary state by its step."""

    def stacked(step: np.ndarray) -> np.ndarray:
        moved = _compose(field.frame, pose, se3_exp(step[:6]))
        return np.concatenate(field.rate(
            t, moved, [a + s for a, s in zip(aux, step[6:].tolist())]))

    basis = np.eye(6 + len(aux))
    return np.column_stack([fd_directional(stacked, np.zeros(len(basis)), e)
                            for e in basis])


def _midpoint_start(history: list, aux: list) -> list:
    """Newton's start for the next implicit-midpoint step from the stacked
    float states (increment, end-of-step aux) of the last one to three
    steps, newest last: ``3 (s_n - s_{n-1}) + s_{n-2}``, the linear
    extrapolation after two steps, and after one the increment with the aux
    state moved on from ``aux``, where the step started, by its change."""
    newest = history[-1]
    previous = history[-2] if len(history) > 1 else newest[:6] + aux
    if len(history) < 3:
        return [a + (a - b) for a, b in zip(newest, previous)]
    return [3.0 * (a - b) + c for a, b, c in zip(newest, previous,
                                                 history[-3])]


def _midpoint(cmap: CoordinateMap, field: TwistField, h: float,
              newton_tol: float, max_iters: int):
    """Implicit midpoint rule, solving the chart equation by Newton.

    The midpoint pose is reached through half the chart increment; the
    chart operator is evaluated at the full increment.  The first step
    starts cold, from a zero increment and the current auxiliary state;
    later ones start from an extrapolation of the previous steps' solutions
    (:func:`_midpoint_start`).  A start that meets ``newton_tol`` takes no
    update.  A step's first update reuses the inverse Newton matrix of the
    previous step's last update (a stale one can cost an extra update);
    every other update inverts the matrix assembled at its iterate.  Raises
    ValueError unless ``max_iters`` is an int >= 0 and ``newton_tol`` is
    finite and positive; a step raises NewtonConvergenceError as soon as
    the residual is non-finite, or when it fails to drop below
    ``newton_tol`` within ``max_iters`` updates.  The Newton state is one
    float list.
    """
    if not (isinstance(max_iters, (int, np.integer)) and max_iters >= 0):
        raise ValueError("the Newton iteration limit must be an int >= 0")
    _require_finite_positive("Newton tolerance", newton_tol)
    start = inverse = None
    history = []

    def advance(pose: np.ndarray, t: float, aux: list) -> tuple:
        nonlocal start, inverse, history
        state = [0.0] * 6 + aux if start is None else start
        for iteration in range(max_iters + 1):
            residual, point, jacobian = _midpoint_residual(
                cmap, field, pose, t, h, aux, state)
            res_norm = _max_abs(residual)
            if not math.isfinite(res_norm):
                raise NewtonConvergenceError(
                    f"implicit midpoint Newton iteration hit a non-finite "
                    f"residual ({res_norm}) after {iteration} updates",
                    res_norm)
            if res_norm < newton_tol:
                break
            if iteration == max_iters:
                raise NewtonConvergenceError(
                    f"implicit midpoint Newton iteration did not reach "
                    f"{newton_tol:g} in {max_iters} updates "
                    f"(last residual {res_norm:.3e})", res_norm)
            if iteration or inverse is None:
                inverse = np.linalg.inv(jacobian())
            state = [s - d for s, d in zip(state,
                                           (inverse @ residual).tolist())]
        history = history[-2:] + [state]
        start = _midpoint_start(history, aux)
        return point.compose(pose, field.frame), state[6:], iteration

    return advance


def _piecewise(cmap: CoordinateMap, field: TwistField, h: float, *_):
    """The field frozen at the step midpoint: the increment is
    ``h * dmap_inv(0) @ twist(t + h/2)``, consistent for every chart
    convention, and the auxiliary state moves by ``h * aux_rate``.  The
    field sees the pose and auxiliary state at the start of the step."""
    frame, n = field.frame, field.aux0.size

    def advance(pose: np.ndarray, t: float, aux: list) -> tuple:
        twist, aux_rate = field.rate(t + 0.5 * h, pose, aux)
        coords = [h * r for r in cmap.origin.dmap_inv(twist, frame)]
        return (cmap.at(coords).compose(pose, frame),
                [z + h * r for z, r in zip(aux, _floats(aux_rate, n,
                                                          "aux rate"))], 0)

    return advance


# stepper(cmap, field, h, newton_tol, max_iters) -> advance(pose, t, aux),
# which returns (pose, aux, Newton updates); aux travels as a float list
_STEPPERS = {"mk_rk4": _rk4, "implicit_midpoint": _midpoint,
             "piecewise": _piecewise}
_METHODS = tuple(_STEPPERS)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _max_abs(values: list) -> float:
    """Largest |v| of a float list, NaN if any entry is NaN: the builtin
    max skips a NaN unless it comes first, and np.max costs microseconds."""
    top = max(map(abs, values))
    return math.nan if math.isnan(sum(values)) else top


def _orth_drift(pose: np.ndarray) -> float:
    """max |R^T R - I| from the six distinct entries of the Gram matrix."""
    c0, c1, c2 = pose[:3, :3].T.tolist()
    return _max_abs([_dot(c0, c0) - 1.0, _dot(c1, c1) - 1.0,
                     _dot(c2, c2) - 1.0, _dot(c0, c1), _dot(c0, c2),
                     _dot(c1, c2)])


def integrate(problem: Problem, method: str = "mk_rk4",
              map_kind="exponential", h: float = 1e-3, t_end: float = 1.0,
              newton_tol: float = 1e-12,
              max_newton_iters: int = 20) -> Trajectory:
    """Uniformly step a problem from t=0 to t_end, recording invariant drift.

    The run takes ``n = max(1, round(t_end / h))`` steps of ``t_end / n``, so
    it always ends at ``t_end``; ``Trajectory.step`` is the step taken, and
    a ratio ``t_end / h`` above :data:`MAX_STEPS` raises ValueError, as does
    an initial pose that is not a finite, rigid 4x4 pose.  The method's
    stepper (:data:`_STEPPERS`) is built once per run and carries its state
    between steps; the Newton settings serve the implicit midpoint only
    (:func:`_midpoint`).  The auxiliary state travels as a float list, which
    the invariants get too; ``Trajectory.aux`` is built from those lists at
    the end.  A failed step (chart domain violation or Newton breakdown)
    raises IntegrationError carrying the trajectory so far.
    """
    if method not in _STEPPERS:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{_METHODS}")
    _require_finite_positive("step size and end time", h, t_end)
    pose = _as_rigid_pose(problem.initial_pose, "initial pose")
    cmap = coordinate_map(map_kind)
    field = problem.field
    n_steps = max(1, _step_count(h, t_end))
    h = t_end / n_steps
    advance = _STEPPERS[method](cmap, field, h, newton_tol, max_newton_iters)

    names = tuple(problem.invariants)
    times, poses, auxes, orth, values, iterations = [], [], [], [], [], []

    def record(t, pose, aux):
        times.append(t)
        poses.append(pose)
        auxes.append(aux)
        orth.append(_orth_drift(pose))
        values.append([problem.invariants[name](pose, aux) for name in names])

    def build() -> Trajectory:
        return Trajectory(
            times=np.array(times),
            poses=np.array(poses),
            aux=np.array(auxes),
            step=h,
            map_kind=cmap.kind,
            method=method,
            problem=problem.name,
            invariant_names=names,
            invariant_values=np.array(values).reshape(len(times), len(names)),
            orth_drift=np.array(orth),
            newton_iterations=np.array(iterations, dtype=int),
        )

    aux = field.aux0.tolist()
    record(0.0, pose, aux)
    for k in range(n_steps):
        t = k * h
        try:
            pose, aux, updates = advance(pose, t, aux)
        except (ChartDomainError, NewtonConvergenceError) as err:
            raise IntegrationError(
                f"step {k + 1} of {n_steps} (t={t:.6g}) failed: {err}",
                build(),
            ) from err
        iterations.append(updates)
        record(t_end if k + 1 == n_steps else (k + 1) * h, pose, aux)
    return build()


# ---------------------------------------------------------------------------
# Benchmark problems
# ---------------------------------------------------------------------------


def make_constant_twist_problem(twist=None, frame: str = "body",
                                initial_pose=None) -> Problem:
    """Rigid motion under a constant twist; the flow is an exact screw.
    Raises ValueError unless ``twist`` holds six finite entries; ``rate``
    returns the list it builds here."""
    twist = np.asarray(DEFAULT_CONSTANT_TWIST if twist is None else twist,
                       dtype=float)
    if twist.shape != (6,) or not all(map(math.isfinite, twist.tolist())):
        raise ValueError(f"twist must be six finite entries, got "
                         f"{twist.tolist()!r}")
    rates = (twist.tolist(), [])
    pose0 = np.eye(4) if initial_pose is None else np.asarray(initial_pose,
                                                             dtype=float)

    def rate(t, pose, aux):
        return rates

    def jacobian(t, pose, aux):
        return np.zeros((6, 6))

    return Problem("constant_twist", TwistField(frame, rate, jacobian=jacobian),
                   pose0)


def make_heavy_top_problem(inertia=(2.0, 2.0, 1.0), mgl: float = 1.0,
                           chi=(0.0, 0.0, 1.0),
                           momentum0=(0.1, 0.1, 1.0),
                           initial_pose=None) -> Problem:
    """Heavy top: body angular momentum co-integrated with the attitude.

    The body twist is (inertia^-1 pi, 0); the momentum rate combines the
    gyroscopic term with the gravity torque about the centre-of-mass axis
    ``chi``.  Conserved quantities exposed as invariants: total energy and
    the momentum component about the spatial vertical.  Raises ValueError
    unless ``inertia`` holds three finite positive moments, ``chi`` three
    finite entries, ``mgl`` is finite and ``momentum0`` has three entries
    (NaN entries allowed: a run then fails at its first step).
    """
    inertia = np.asarray(inertia, dtype=float)
    if inertia.shape != (3,) or not all(0.0 < i < math.inf
                                        for i in inertia.tolist()):
        raise ValueError("inertia must be three positive principal moments")
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (3,) or not all(map(math.isfinite, chi.tolist())):
        raise ValueError("chi must be three finite entries")
    if not math.isfinite(mgl):
        raise ValueError(f"mgl must be finite, got {mgl!r}")
    momentum0 = np.asarray(momentum0, dtype=float)
    if momentum0.shape != (3,):
        raise ValueError(f"momentum0 must have three entries, got shape "
                         f"{momentum0.shape}")
    pose0 = np.eye(4) if initial_pose is None else np.asarray(initial_pose,
                                                              dtype=float)

    chi_list = chi.tolist()
    i0, i1, i2 = inertia.tolist()
    # the Jacobian's rows of the twist (omega = inertia^-1 momentum) and zeros
    top_rows = ([[0.0] * 6 + row for row in np.diag(1.0 / inertia).tolist()]
                + [[0.0] * 9] * 3)

    # R^T e3, the spatial vertical in the body frame, is the third row of R;
    # rate, Jacobian and invariants take the momentum as floats and the rate
    # returns lists: on 3-vectors NumPy's per-call overhead outweighs the
    # arithmetic
    def rate(t, pose, momentum):
        m0, m1, m2 = momentum
        omega = [m0 / i0, m1 / i1, m2 / i2]
        gravity = _cross(pose[2, :3].tolist(), chi_list)
        torque = [g + mgl * c for g, c in zip(_cross(momentum, omega),
                                              gravity)]
        return omega + [0.0, 0.0, 0.0], torque

    def jacobian(t, pose, momentum):
        # rows (twist, torque), columns (body rotation, body translation,
        # momentum); the vertical moves as d(R^T e3) = hat(R^T e3) @ d_rot, so
        # the gravity block is -mgl hat(chi) hat(v) = -mgl (v chi^T - (chi.v) I)
        # and the momentum block is hat(momentum) inertia^-1 - hat(omega)
        m0, m1, m2 = momentum
        w0, w1, w2 = m0 / i0, m1 / i1, m2 / i2
        v = pose[2, :3].tolist()
        gravity = _mat3(_ZERO3, mgl * _dot(chi_list, v),
                        ([-mgl * vi for vi in v], chi_list))
        spin = [[0.0, w2 - m2 / i1, m1 / i2 - w1],
                [m2 / i0 - w2, 0.0, w0 - m0 / i2],
                [w1 - m1 / i0, m0 / i1 - w0, 0.0]]
        return np.array(top_rows + [g + [0.0, 0.0, 0.0] + s
                                    for g, s in zip(gravity, spin)])

    def energy(pose, momentum):
        m0, m1, m2 = momentum
        return (0.5 * _dot(momentum, (m0 / i0, m1 / i1, m2 / i2))
                + mgl * _dot(pose[2, :3].tolist(), chi_list))

    def vertical_momentum(pose, momentum):
        return _dot(momentum, pose[2, :3].tolist())

    field = TwistField("body", rate, aux0=momentum0, jacobian=jacobian)
    invariants = {"energy": energy, "vertical_momentum": vertical_momentum}
    return Problem("heavy_top", field, pose0, invariants)


def make_problem(name: str, **overrides) -> Problem:
    """Build a benchmark problem by name (constant_twist or heavy_top)."""
    if name == "constant_twist":
        return make_constant_twist_problem(**overrides)
    if name == "heavy_top":
        return make_heavy_top_problem(**overrides)
    raise ValueError(
        f"unknown problem {name!r}; expected 'constant_twist' or 'heavy_top'"
    )


# ---------------------------------------------------------------------------
# Beam reconstruction in arclength
# ---------------------------------------------------------------------------


def helix_strain(curvature: float = 0.5):
    """Constant strain: unit stretch along the first axis plus fixed twist."""
    base = np.array([0.0, 0.0, curvature, 1.0, 0.0, 0.0])

    def strain(s):
        return base

    return strain


def varying_strain(length: float, base_curvature: float = 0.5,
                   wobble: float = 0.3):
    """Smoothly varying curvature profile with unit stretch."""

    def strain(s):
        curvature = base_curvature + wobble * math.sin(2.0 * math.pi * s
                                                       / length)
        return np.array([0.0, 0.0, curvature, 1.0, 0.0, 0.0])

    return strain


def _beam_problem(strain, name: str) -> Problem:
    """A beam as an arclength problem: the body field is the strain, as
    floats."""

    def rate(s, pose, aux):
        return _floats(strain(s), 6, "strain"), []

    return Problem(name, TwistField("body", rate), np.eye(4))


def beam_reconstruct(strain, length: float, segments: int,
                     map_kind="exponential") -> Trajectory:
    """Reconstruct a beam centreline from a body strain profile: the
    piecewise rule over arclength ``length``.  For constant strain the
    exponential chart is exact with a single segment."""
    if operator.index(segments) < 1:   # TypeError for a non-integer count
        raise ValueError("need at least one segment")
    if length <= 0.0:
        raise ValueError("length must be positive")
    return integrate(_beam_problem(strain, "beam"), "piecewise",
                     map_kind, length / segments, length)


# ---------------------------------------------------------------------------
# Convergence measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceResult:
    """Errors against a fine-step reference and the observed orders."""

    method: str
    step_sizes: tuple
    errors: tuple
    pairwise_orders: tuple
    slope: float


def final_pose_deviation(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Left-invariant pose error: max-abs entry of ref^-1 @ candidate - I."""
    return float(np.max(np.abs(pose_inverse(reference) @ candidate
                               - np.eye(4))))


def convergence_study(problem: Problem, methods: Sequence[str], map_kind,
                      h_list: Sequence[float], t_end: float) -> dict:
    """Measure observed order for each method against a shared reference.

    The reference trajectory is one mk_rk4 run with the exponential chart at
    min(h_list)/8; its truncation error is far below every candidate's.
    Errors use the left-invariant final-pose deviation; the slope is the
    least-squares fit of log error vs log h.  Raises ValueError unless the
    step sizes are at least three, distinct, and divide ``t_end``.
    """
    h_list = sorted(h_list, reverse=True)
    if len(h_list) < 3:
        raise ValueError("need at least three step sizes")
    if len(set(h_list)) < len(h_list):
        raise ValueError(f"step sizes must be distinct, got {h_list!r}")
    reference_h = min(h_list) / 8.0
    _require_finite_positive("step sizes and end time", t_end, reference_h,
                             *h_list)
    for h in [*h_list, reference_h]:
        if abs(_step_count(h, t_end) * h - t_end) > 1e-9 * max(1.0, t_end):
            raise ValueError(
                f"step size {h!r} does not divide t_end={t_end!r}; all runs "
                "must stop at the same final time"
            )
    reference = integrate(problem, "mk_rk4", "exponential", reference_h, t_end)
    target = reference.final_pose

    results = {}
    for method in methods:
        errors = []
        for h in h_list:
            trajectory = integrate(problem, method, map_kind, h, t_end)
            errors.append(final_pose_deviation(target, trajectory.final_pose))
        logs_h = np.log(h_list)
        logs_e = np.log(errors)
        pairwise = tuple(
            float((logs_e[i] - logs_e[i + 1]) / (logs_h[i] - logs_h[i + 1]))
            for i in range(len(h_list) - 1)
        )
        slope = float(np.polyfit(logs_h, logs_e, 1)[0])
        results[method] = ConvergenceResult(method, tuple(h_list),
                                            tuple(errors), pairwise, slope)
    return results
