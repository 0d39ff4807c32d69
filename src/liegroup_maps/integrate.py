"""Time and arclength integration on the rigid-motion group.

Each step solves the kinematic reconstruction equation in a local chart:
algebra coordinates ``X`` start at zero, evolve by ``Xdot = dmap_inv(-X) V``
for body-frame twist fields (``Xdot = dmap_inv(X) V`` for spatial ones), and
the step closes with ``C <- C @ map(X_h)`` (body) or ``C <- map(X_h) @ C``
(spatial).  The pose is always a product of exact group elements, so
orthonormality is preserved to rounding regardless of step size.

Three steppers are provided: a classical RK4 run through the chart, a
piecewise rule that freezes the field at the step midpoint (beams use it in
arclength), and an implicit midpoint rule whose Newton iteration assembles
the tangent matrix by the chain rule: the analytic directional derivative of
``dmap_inv``, the chart differential ``dmap`` at the half increment, and the
field's own Jacobian (forward differences stand in for fields without one).
Runs extrapolate Newton's start and carry the inverse matrix between steps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import ChartDomainError, _cross, _dot, _mat3, pose_inverse
from .se3 import (
    se3_cay,
    se3_dcay,
    se3_dcay_inv,
    se3_ddcay_inv_tangent,
    se3_ddexp_inv_tangent,
    se3_dexp,
    se3_dexp_inv,
    se3_exp,
)

_FRAMES = ("body", "spatial")
_ZERO3 = (0.0, 0.0, 0.0)
_FD_STEP = 1e-7     # forward-difference step of the field Jacobian fallback

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


@dataclass(frozen=True)
class CoordinateMap:
    """A local chart: value map plus the operators its steppers need.

    ``dmap`` is the right-trivialized differential of ``value``
    (``value(x + d) ~ exp(hat(dmap(x) @ d)) @ value(x)``); ``dmap_inv`` is
    its inverse and maps a body/spatial twist to the coordinate rate; its value
    at zero is the identity for the exponential chart and half the identity
    for the Cayley chart (whose differential at zero is twice the identity).
    ``ddmap_inv_tangent(x, v)`` assembles the directional derivatives of
    ``dmap_inv`` at x along all six basis directions, contracted with a
    fixed twist, in one pass (the curvature block of implicit tangent
    matrices).  ``dmap_inv_zero`` caches ``dmap_inv(0)``.
    """

    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    dmap: Callable[[np.ndarray], np.ndarray]
    dmap_inv: Callable[[np.ndarray], np.ndarray]
    ddmap_inv_tangent: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dmap_inv_zero: np.ndarray


def exponential_map() -> CoordinateMap:
    return CoordinateMap("exponential", se3_exp, se3_dexp, se3_dexp_inv,
                         se3_ddexp_inv_tangent, np.eye(6))


def cayley_map() -> CoordinateMap:
    return CoordinateMap("cayley", se3_cay, se3_dcay, se3_dcay_inv,
                         se3_ddcay_inv_tangent, 0.5 * np.eye(6))


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

    ``rate(t, pose, aux)`` returns ``(twist, aux_rate)`` where ``twist`` is a
    6-vector in the frame named by ``frame`` and ``aux_rate`` has the shape
    of ``aux0``.  Fields without auxiliary state return an empty rate.

    ``jacobian(t, pose, aux)``, optional, returns the ``(6+n, 6+n)``
    derivative of the stacked ``(twist, aux_rate)`` with respect to
    ``(xi, aux)``, where ``n = aux0.size`` and ``xi`` perturbs the pose in
    the field's frame: ``pose @ exp(hat(xi))`` for a body field,
    ``exp(hat(xi)) @ pose`` for a spatial one.  The implicit midpoint rule
    builds its Newton matrix from it; without it, forward differences of
    ``rate`` stand in.
    """

    frame: str
    rate: Callable[[float, np.ndarray, np.ndarray], tuple]
    aux0: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(0))
    jacobian: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        if self.frame not in _FRAMES:
            raise ValueError(
                f"unknown twist frame {self.frame!r}; expected one of {_FRAMES}"
            )
        object.__setattr__(self, "aux0", np.asarray(self.aux0, dtype=float))


@dataclass(frozen=True)
class Problem:
    """A named initial-value problem for the integrate() driver."""

    name: str
    field: TwistField
    initial_pose: np.ndarray
    invariants: Mapping[str, Callable[[np.ndarray, np.ndarray], float]] = (
        dataclass_field(default_factory=dict)
    )


@dataclass(frozen=True)
class StepResult:
    """One accepted step: new pose, new auxiliary state, chart increment;
    an implicit-midpoint step adds its Newton updates, the residual before
    each and the inverse Newton matrix that served the last one, if any."""

    pose: np.ndarray
    aux: np.ndarray
    coords: np.ndarray
    iterations: int = 0
    residuals: tuple = ()
    newton_inverse: np.ndarray | None = None


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled motion with per-sample invariant records.

    ``newton_iterations`` holds one count per step: the Newton updates of an
    implicit-midpoint step, 0 for explicit and piecewise steps.  Each
    implicit-midpoint step after the first starts Newton from an
    extrapolation of the previous steps' solutions, so its count is 0 when
    that start already meets the tolerance.
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


def _chart_pose(cmap: CoordinateMap, frame: str, pose: np.ndarray,
                coords: np.ndarray) -> np.ndarray:
    if not any(coords.tolist()):    # cheaper than ndarray.any() at size 6
        return pose
    return _compose(frame, pose, cmap.value(coords))


def _chart_dmap_inv(cmap: CoordinateMap, frame: str,
                    coords: np.ndarray) -> np.ndarray:
    """The operator taking a twist to the coordinate rate at ``coords``:
    ``dmap_inv(-coords)`` for a body field, ``dmap_inv(coords)`` for a
    spatial one."""
    if not any(coords.tolist()):
        return cmap.dmap_inv_zero
    sign = -1.0 if frame == "body" else 1.0
    return cmap.dmap_inv(sign * coords)


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


def _shaped(name: str, value, shape: tuple) -> np.ndarray:
    out = np.array(value, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    return out


def _field_aux(field: TwistField, aux) -> np.ndarray:
    if aux is None:
        return field.aux0.copy()
    return np.asarray(aux, dtype=float).copy()


def mk_rk4_step(cmap: CoordinateMap, field: TwistField, pose: np.ndarray,
                t: float, h: float, aux=None) -> StepResult:
    """Advance one step of classical RK4 run through the chart.

    The chart coordinates restart at zero each step; auxiliary state is
    co-integrated with the same tableau.  Raises ChartDomainError if an
    internal stage leaves the chart.
    """
    _require_finite_positive("step size", h)
    aux = _field_aux(field, aux)

    def rate(tau, coords, z):
        stage_pose = _chart_pose(cmap, field.frame, pose, coords)
        twist, aux_rate = field.rate(tau, stage_pose, z)
        xdot = (_chart_dmap_inv(cmap, field.frame, coords)
                @ np.asarray(twist, dtype=float))
        return xdot, np.asarray(aux_rate, dtype=float)

    zero = np.zeros(6)
    k1x, k1z = rate(t, zero, aux)
    k2x, k2z = rate(t + 0.5 * h, 0.5 * h * k1x, aux + 0.5 * h * k1z)
    k3x, k3z = rate(t + 0.5 * h, 0.5 * h * k2x, aux + 0.5 * h * k2z)
    k4x, k4z = rate(t + h, h * k3x, aux + h * k3z)

    coords = (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    aux_next = aux + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    return StepResult(_chart_pose(cmap, field.frame, pose, coords), aux_next,
                      coords)


def _midpoint_residual(cmap: CoordinateMap, field: TwistField,
                       pose: np.ndarray, t: float, h: float, aux: np.ndarray,
                       state: np.ndarray):
    """Residual of the implicit-midpoint equations plus reusable pieces.

    ``state`` stacks the chart increment (first six entries) with the
    end-of-step auxiliary state.
    """
    coords, z_end = state[:6], state[6:]
    mid_pose = _chart_pose(cmap, field.frame, pose, 0.5 * coords)
    twist, aux_rate = field.rate(t + 0.5 * h, mid_pose, 0.5 * (aux + z_end))
    twist = np.asarray(twist, dtype=float)
    aux_rate = np.asarray(aux_rate, dtype=float)
    dmap_mat = _chart_dmap_inv(cmap, field.frame, coords)
    residual = np.concatenate([
        coords - h * (dmap_mat @ twist),
        z_end - aux - h * aux_rate,
    ])
    return residual, twist, aux_rate, mid_pose, dmap_mat


def _field_jacobian_fd(field: TwistField, t: float, pose: np.ndarray,
                       aux: np.ndarray, twist: np.ndarray,
                       aux_rate: np.ndarray) -> np.ndarray:
    """Forward-difference stand-in for ``TwistField.jacobian``: the pose
    moves by ``exp(_FD_STEP * e_j)`` in the field's frame, the auxiliary
    state by ``_FD_STEP * e_j``."""
    n = 6 + aux.size
    base = np.concatenate([twist, aux_rate])
    out = np.empty((n, n))
    for j in range(n):
        bumped_pose, bumped_aux = pose, aux
        if j < 6:
            step = np.zeros(6)
            step[j] = _FD_STEP
            bumped_pose = _compose(field.frame, pose, se3_exp(step))
        else:
            bumped_aux = aux.copy()
            bumped_aux[j - 6] += _FD_STEP
        twist_up, rate_up = field.rate(t, bumped_pose, bumped_aux)
        out[:, j] = (np.concatenate([twist_up, rate_up]) - base) / _FD_STEP
    return out


def _midpoint_jacobian(cmap: CoordinateMap, field: TwistField, t: float,
                       h: float, aux: np.ndarray, state: np.ndarray,
                       twist: np.ndarray, aux_rate: np.ndarray,
                       mid_pose: np.ndarray, dmap_mat: np.ndarray):
    """Newton Jacobian of the midpoint residual by the chain rule.

    The field Jacobian is taken at the midpoint with respect to the pose
    perturbation in the field's frame and the midpoint auxiliary state.  A
    chart step ``d`` moves the midpoint pose by
    ``xi = dmap(sign * coords / 2) @ d / 2`` in that frame, and an end-state
    step moves the midpoint auxiliary state by half of it.  The chart
    curvature enters analytically through ``ddmap_inv_tangent``.
    """
    sign = -1.0 if field.frame == "body" else 1.0
    coords, z_end = state[:6], state[6:]
    t_mid = t + 0.5 * h
    aux_mid = 0.5 * (aux + z_end)
    if field.jacobian is None:
        field_jac = _field_jacobian_fd(field, t_mid, mid_pose, aux_mid, twist,
                                       aux_rate)
    else:
        field_jac = field.jacobian(t_mid, mid_pose, aux_mid)
    # I - h [[dmap_mat, 0], [0, I]] field_jac [[dmap(.)/2, 0], [0, I/2]]
    # - h sign ddmap_inv_tangent, built on one fresh array
    jacobian = (-0.5 * h) * np.asarray(field_jac, dtype=float)
    jacobian[:, :6] = jacobian[:, :6] @ cmap.dmap(0.5 * sign * coords)
    jacobian[:6] = dmap_mat @ jacobian[:6]
    jacobian[:6, :6] -= (h * sign) * cmap.ddmap_inv_tangent(sign * coords,
                                                            twist)
    jacobian.flat[::state.size + 1] += 1.0
    return jacobian


def implicit_midpoint_step(cmap: CoordinateMap, field: TwistField,
                           pose: np.ndarray, t: float, h: float, aux=None,
                           newton_tol: float = 1e-12, max_iters: int = 20,
                           guess=None, newton_inverse=None) -> StepResult:
    """Advance one implicit-midpoint step, solving the chart equation by Newton.

    The midpoint pose is reached through half the chart increment; the
    chart operator is evaluated at the full increment.  Newton starts from
    ``guess``, the chart increment stacked with the end-of-step auxiliary
    state (a zero increment and ``aux`` if None); a start that already meets
    ``newton_tol`` takes no update.  A given ``newton_inverse`` serves the
    first update (a stale one can cost an extra update); every other
    update inverts the Newton matrix assembled at its iterate.  Raises
    ValueError for a guess not of shape ``(n,)``, ``n = 6 + aux.size``, or
    an inverse not of shape ``(n, n)``, and NewtonConvergenceError as soon
    as the residual is non-finite, or when it fails to drop below
    ``newton_tol`` within ``max_iters`` updates.
    """
    _require_finite_positive("step size", h)
    aux = _field_aux(field, aux)
    size = 6 + aux.size
    state = (np.concatenate([np.zeros(6), aux]) if guess is None
             else _shaped("guess", guess, (size,)))
    inverse = (None if newton_inverse is None
               else _shaped("newton_inverse", newton_inverse, (size, size)))
    residuals = []
    for iteration in range(max_iters + 1):
        (residual, twist, aux_rate, mid_pose,
         dmap_mat) = _midpoint_residual(cmap, field, pose, t, h, aux, state)
        res_norm = _max_abs(residual.tolist())
        residuals.append(res_norm)
        if not math.isfinite(res_norm):
            raise NewtonConvergenceError(
                f"implicit midpoint Newton iteration hit a non-finite "
                f"residual ({res_norm}) after {iteration} updates",
                res_norm,
            )
        if res_norm < newton_tol:
            coords = state[:6]
            return StepResult(_chart_pose(cmap, field.frame, pose, coords),
                              state[6:], coords, iteration, tuple(residuals),
                              inverse)
        if iteration == max_iters:
            raise NewtonConvergenceError(
                f"implicit midpoint Newton iteration did not reach "
                f"{newton_tol:g} in {max_iters} updates "
                f"(last residual {res_norm:.3e})",
                res_norm,
            )
        if iteration or inverse is None:
            inverse = np.linalg.inv(_midpoint_jacobian(
                cmap, field, t, h, aux, state, twist, aux_rate, mid_pose,
                dmap_mat))
        state = state - inverse @ residual
    raise AssertionError("unreachable")


def _piecewise_step(cmap: CoordinateMap, field: TwistField, pose: np.ndarray,
                    t: float, h: float, aux: np.ndarray) -> StepResult:
    """Advance one step with the field frozen at the step midpoint: the
    increment is ``h * dmap_inv(0) @ twist(t + h/2)``, consistent for every
    chart convention, and the auxiliary state moves by ``h * aux_rate``.  The
    field sees the pose and auxiliary state at the start of the step."""
    twist, aux_rate = field.rate(t + 0.5 * h, pose, aux)
    coords = h * (cmap.dmap_inv_zero @ np.asarray(twist, dtype=float))
    return StepResult(_chart_pose(cmap, field.frame, pose, coords),
                      aux + h * np.asarray(aux_rate, dtype=float), coords)


_METHODS = ("mk_rk4", "implicit_midpoint", "piecewise")


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


def _midpoint_start(history: list, aux: np.ndarray) -> np.ndarray:
    """Newton's start for the next implicit-midpoint step from the stacked
    states (increment, end-of-step aux) of the last one to three steps,
    newest last: ``3 (s_n - s_{n-1}) + s_{n-2}``, the linear extrapolation
    after two steps, and after one the increment with the aux state moved
    on from ``aux``, where the step started, by its change."""
    newest = history[-1]
    previous = (history[-2] if len(history) > 1
                else np.concatenate([newest[:6], aux]))
    if len(history) < 3:
        return newest + (newest - previous)
    return 3.0 * (newest - previous) + history[-3]


def integrate(problem: Problem, method: str = "mk_rk4",
              map_kind="exponential", h: float = 1e-3, t_end: float = 1.0,
              newton_tol: float = 1e-12,
              max_newton_iters: int = 20) -> Trajectory:
    """Uniformly step a problem from t=0 to t_end, recording invariant drift.

    The run takes ``n = max(1, round(t_end / h))`` steps of ``t_end / n``, so
    it always ends at ``t_end``; ``Trajectory.step`` is the step taken, and
    a ratio ``t_end / h`` above :data:`MAX_STEPS` raises ValueError.
    Implicit-midpoint Newton starts from an extrapolation of the previous
    steps' solutions (:func:`_midpoint_start`), and its first update reuses
    the inverse Newton matrix of the previous step's last update; the first
    step starts cold, from a zero increment and the current auxiliary state.
    On a failed step (chart domain violation or Newton breakdown) raises
    IntegrationError carrying the partial trajectory accumulated so far.
    """
    if method not in _METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {_METHODS}"
        )
    _require_finite_positive("step size and end time", h, t_end)
    cmap = coordinate_map(map_kind)
    field = problem.field
    n_steps = max(1, _step_count(h, t_end))
    h = t_end / n_steps

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

    pose = np.array(problem.initial_pose, dtype=float)
    aux = field.aux0.copy()
    guess = newton_inverse = None
    history = []
    record(0.0, pose, aux)
    for k in range(n_steps):
        t = k * h
        try:
            if method == "implicit_midpoint":
                result = implicit_midpoint_step(
                    cmap, field, pose, t, h, aux,
                    newton_tol=newton_tol, max_iters=max_newton_iters,
                    guess=guess, newton_inverse=newton_inverse)
                newton_inverse = result.newton_inverse
                history = history[-2:] + [np.append(result.coords, result.aux)]
                guess = _midpoint_start(history, aux)
            elif method == "piecewise":
                result = _piecewise_step(cmap, field, pose, t, h, aux)
            else:
                result = mk_rk4_step(cmap, field, pose, t, h, aux)
        except (ChartDomainError, NewtonConvergenceError) as err:
            raise IntegrationError(
                f"step {k + 1} of {n_steps} (t={t:.6g}) failed: {err}",
                build(),
            ) from err
        pose, aux = result.pose, result.aux
        iterations.append(result.iterations)
        record(t_end if k + 1 == n_steps else (k + 1) * h, pose, aux)
    return build()


# ---------------------------------------------------------------------------
# Benchmark problems
# ---------------------------------------------------------------------------


def make_constant_twist_problem(twist=None, frame: str = "body",
                                initial_pose=None) -> Problem:
    """Rigid motion under a constant twist; the flow is an exact screw."""
    twist = (DEFAULT_CONSTANT_TWIST if twist is None
             else np.asarray(twist, dtype=float)).copy()
    pose0 = np.eye(4) if initial_pose is None else np.asarray(initial_pose,
                                                             dtype=float)

    def rate(t, pose, aux):
        return twist, np.zeros(0)

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
    the momentum component about the spatial vertical.
    """
    inertia = np.asarray(inertia, dtype=float)
    if inertia.shape != (3,) or np.any(inertia <= 0.0):
        raise ValueError("inertia must be three positive principal moments")
    chi = np.asarray(chi, dtype=float)
    momentum0 = np.asarray(momentum0, dtype=float)
    pose0 = np.eye(4) if initial_pose is None else np.asarray(initial_pose,
                                                              dtype=float)

    chi_list = chi.tolist()
    i0, i1, i2 = inertia.tolist()
    # the Jacobian's rows of the twist (omega = inertia^-1 momentum) and zeros
    top_rows = ([[0.0] * 6 + row for row in np.diag(1.0 / inertia).tolist()]
                + [[0.0] * 9] * 3)

    # R^T e3, the spatial vertical in the body frame, is the third row of R;
    # rate and invariants work on floats: on 3-vectors NumPy's per-call
    # overhead outweighs the arithmetic
    def rate(t, pose, momentum):
        m0, m1, m2 = m = momentum.tolist()
        omega = [m0 / i0, m1 / i1, m2 / i2]
        gravity = _cross(pose[2, :3].tolist(), chi_list)
        torque = [g + mgl * c for g, c in zip(_cross(m, omega), gravity)]
        return np.array(omega + [0.0, 0.0, 0.0]), np.array(torque)

    def jacobian(t, pose, momentum):
        # rows (twist, torque), columns (body rotation, body translation,
        # momentum); the vertical moves as d(R^T e3) = hat(R^T e3) @ d_rot, so
        # the gravity block is -mgl hat(chi) hat(v) = -mgl (v chi^T - (chi.v) I)
        # and the momentum block is hat(momentum) inertia^-1 - hat(omega)
        m0, m1, m2 = momentum.tolist()
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
        m0, m1, m2 = m = momentum.tolist()
        return (0.5 * _dot(m, (m0 / i0, m1 / i1, m2 / i2))
                + mgl * _dot(pose[2, :3].tolist(), chi_list))

    def vertical_momentum(pose, momentum):
        return _dot(momentum.tolist(), pose[2, :3].tolist())

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
    """A beam as an arclength problem: the body field is the strain."""

    def rate(s, pose, aux):
        return strain(s), np.zeros(0)

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
    least-squares fit of log error vs log h.
    """
    h_list = sorted(h_list, reverse=True)
    if len(h_list) < 3:
        raise ValueError("need at least three step sizes")
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
