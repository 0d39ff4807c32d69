import cProfile
import dataclasses
import hashlib
import importlib
import math
import pstats

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liegroup_maps.core import ChartDomainError, hat3
from liegroup_maps.integrate import (
    MAX_STEPS,
    IntegrationError,
    NewtonConvergenceError,
    Problem,
    TwistField,
    _midpoint_residual,
    _orth_drift,
    _step_count,
    beam_reconstruct,
    cayley_map,
    convergence_study,
    coordinate_map,
    exponential_map,
    final_pose_deviation,
    helix_strain,
    integrate,
    make_constant_twist_problem,
    make_heavy_top_problem,
    make_problem,
    varying_strain,
)
from liegroup_maps.se3 import (se3_cay, se3_cay_inv, se3_dcay_inv,
                               se3_dexp_inv, se3_exp, se3_log)

TWIST = np.array([0.3, -0.2, 0.4, 1.0, 0.5, -0.3])


# ---------------------------------------------------------------------------
# Charts and field plumbing
# ---------------------------------------------------------------------------


def test_coordinate_map_aliases():
    assert coordinate_map("exp").kind == "exponential"
    assert coordinate_map("exponential").kind == "exponential"
    assert coordinate_map("cay").kind == "cayley"
    assert coordinate_map(cayley_map()).kind == "cayley"
    with pytest.raises(ValueError, match="unknown coordinate map"):
        coordinate_map("euler")


def test_dmap_inv_at_zero_convention():
    exp_zero = exponential_map().at(np.zeros(6))
    cay_zero = cayley_map().at(np.zeros(6))
    for frame in ("body", "spatial"):
        assert_allclose(exp_zero.dmap_inv_matrix(frame), np.eye(6))
        assert_allclose(cay_zero.dmap_inv_matrix(frame), 0.5 * np.eye(6))


_POSE = se3_exp(np.array([0.3, -0.2, 0.5, 1.0, 2.0, -0.7]))
_INF_TRANSLATION = np.eye(4)
_INF_TRANSLATION[0, 3] = math.inf


@pytest.mark.parametrize("bad, message", [
    (np.diag([2.0, 2.0, 2.0, 1.0]), "must be finite and rigid"),
    (np.full((4, 4), math.nan), "bottom row of initial pose"),
    (_INF_TRANSLATION, "must be finite and rigid"),
    (_POSE.T, "bottom row of initial pose"),
    (np.eye(3), "initial pose must be a 4x4 matrix"),
], ids=["scaled", "nan", "inf", "transposed", "3x3"])
def test_integrate_rejects_a_non_rigid_initial_pose(bad, message):
    # unchecked, a scaled rotation runs with orth_drift 3 on every row and
    # an all-NaN start returns an all-NaN trajectory
    problem = make_constant_twist_problem(initial_pose=bad)
    with pytest.raises(ValueError, match=message):
        integrate(problem, "mk_rk4", "exponential", 1e-2, 0.1)


_CHART_MAPS = {"exponential": (se3_exp, se3_dexp_inv),
               "cayley": (se3_cay, se3_dcay_inv)}


@pytest.mark.parametrize("kind", sorted(_CHART_MAPS))
def test_chart_point_matches_the_public_maps(kind):
    # the point runs the row functions of the public maps: the same pose
    # bits, the same operator bits as an array, and its float product with a
    # twist within rounding of the array product
    value, dmap_inv = _CHART_MAPS[kind]
    cmap = coordinate_map(kind)
    rng = np.random.default_rng(11)
    for scale in (0.0, 1e-4, 3e-3, 0.05, 0.7, 2.5):
        coords = scale * rng.standard_normal(6)
        twist = rng.standard_normal(6)
        point = cmap.at(coords)
        assert np.array_equal(point.pose(), value(coords))
        for frame, sign in (("body", -1.0), ("spatial", 1.0)):
            operator = dmap_inv(sign * coords)
            assert np.array_equal(point.dmap_inv_matrix(frame), operator)
            want = operator @ twist
            got = np.array(point.dmap_inv(twist, frame))
            assert np.max(np.abs(got - want)) <= 4e-16 * np.max(np.abs(want))


@pytest.mark.parametrize("kind, check", [("exponential", "_angle"),
                                         ("cayley", "_sigma")])
def test_rk4_step_checks_the_chart_once_per_point(kind, check, monkeypatch):
    # stages two to four and the end of the step are the four chart points;
    # the first stage sits at the origin, which is checked once per chart,
    # and a run builds a fresh chart, so its origin adds one check per run
    calls = []
    so3 = importlib.import_module("liegroup_maps.so3")
    original = getattr(so3, check)

    def counted(x):
        calls.append(x)
        return original(x)

    for module in ("so3", "se3", "integrate"):
        monkeypatch.setattr(importlib.import_module(f"liegroup_maps.{module}"),
                            check, counted)
    cmap = coordinate_map(kind)
    problem = make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0))
    assert cmap.origin is cmap.origin and len(calls) == 1
    counts = []
    for n_steps in (1, 2):
        calls.clear()
        integrate(problem, "mk_rk4", kind, 1e-3, n_steps * 1e-3)
        counts.append(len(calls))
    assert counts[1] - counts[0] == 4


def test_twist_field_frame_validation():
    with pytest.raises(ValueError, match="unknown twist frame"):
        TwistField("mixed", lambda t, pose, aux: (np.zeros(6), np.zeros(0)))


_METHODS = ("mk_rk4", "implicit_midpoint", "piecewise")


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("aux_rate", [[1.0, 2.0, 3.0, 4.0], np.ones(2)],
                         ids=["long_list", "short_array"])
def test_aux_rate_of_the_wrong_length_raises(method, aux_rate):
    # RK4 used to drop a fourth entry without a word, and to run a short
    # rate through every step until the trajectory was built; the other
    # steppers raised bare broadcast errors
    def rate(t, pose, aux):
        return TWIST, aux_rate

    problem = Problem("bad", TwistField("body", rate, aux0=np.zeros(3)),
                      np.eye(4))
    with pytest.raises(ValueError, match=r"aux rate must be a 3-vector, "
                                         rf"got shape \({len(aux_rate)},\)"):
        integrate(problem, method, "exponential", 0.1, 1.0)


@pytest.mark.parametrize("method", _METHODS)
def test_twist_of_the_wrong_length_raises(method):
    def rate(t, pose, aux):
        return [0.1] * 5, []

    problem = Problem("bad", TwistField("body", rate), np.eye(4))
    with pytest.raises(ValueError,
                       match=r"twist must be a 6-vector, got shape \(5,\)"):
        integrate(problem, method, "cayley", 0.1, 1.0)


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("aux0, shape", [([[1.0, 2.0]], r"\(1, 2\)"),
                                         (1.0, r"\(\)")],
                         ids=["2-D", "scalar"])
def test_aux0_that_is_not_1d_raises(method, aux0, shape):
    # such an aux0 used to fail inside step 1: a bare TypeError from RK4 and
    # the piecewise rule, a NumPy dimension error from the midpoint; now the
    # field is refused when it is built, before any method runs
    def rate(t, pose, aux):
        return TWIST, aux

    with pytest.raises(ValueError, match=r"aux0 must be 1-D, got shape "
                                         + shape):
        problem = Problem("bad", TwistField("body", rate, aux0=aux0),
                          np.eye(4))
        integrate(problem, method, "exponential", 0.1, 1.0)


@pytest.mark.parametrize("shape", [(6, 6), (9, 6)])
def test_field_jacobian_of_the_wrong_shape_raises(shape):
    # a 6x6 Jacobian of a field with three aux entries used to fail in a bare
    # matmul, a 9x6 one in LinAlgError; neither named the field
    problem = make_heavy_top_problem()
    field = dataclasses.replace(
        problem.field, jacobian=lambda t, pose, aux: np.zeros(shape))
    with pytest.raises(ValueError, match=rf"TwistField.jacobian must return "
                                         rf"shape \(9, 9\), \(6\+n, 6\+n\) "
                                         rf"for n = 3 aux entries; got "
                                         rf"\({shape[0]}, {shape[1]}\)"):
        integrate(dataclasses.replace(problem, field=field),
                  "implicit_midpoint", "cayley", 0.05, 0.5)


def _assert_same_bytes(got, want):
    for entry in dataclasses.fields(want):
        a, b = getattr(got, entry.name), getattr(want, entry.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                        b.tobytes())
        else:
            assert a == b


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
@pytest.mark.parametrize("method", _METHODS)
def test_array_rates_give_the_bytes_of_list_rates(method, kind):
    # the heavy top returns float lists; the same rates as arrays pass
    # through the steppers' one conversion rule
    problem = make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0))
    field = problem.field
    assert all(type(v) is list
               for v in field.rate(0.0, np.eye(4), [3.0, -2.0, 4.0]))

    def array_rate(t, pose, aux):
        return tuple(np.array(v) for v in field.rate(t, pose, aux))

    arrays = dataclasses.replace(
        problem, field=dataclasses.replace(field, rate=array_rate))
    _assert_same_bytes(integrate(arrays, method, kind, 0.02, 0.6),
                       integrate(problem, method, kind, 0.02, 0.6))


def test_rk4_steps_build_no_arrays_for_the_state():
    # the stage states and rates are float lists, so numpy.array runs a
    # fixed number of times per run (the trajectory's arrays); an RK4 step
    # used to call it 13 times.  cProfile counts calls, not time.
    problem = make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0))
    profile = cProfile.Profile()
    profile.runcall(integrate, problem, "mk_rk4", "exponential", 1e-3, 0.2)
    calls = sum(stat[1] for key, stat in pstats.Stats(profile).stats.items()
                if key[2] == "<built-in method numpy.array>")
    assert calls <= 2 * 200 + 10


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
def test_midpoint_steps_build_no_arrays_for_the_state(kind):
    # the Newton state, its warm start and the residual are float lists, so
    # numpy.array runs only while a run is set up and built; the state used
    # to go through it twice a step.  cProfile counts calls, not time.
    def array_calls(t_end):
        problem = make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0))
        profile = cProfile.Profile()
        profile.runcall(integrate, problem, "implicit_midpoint", kind, 1e-3,
                        t_end)
        return sum(stat[1] for key, stat in pstats.Stats(profile).stats.items()
                   if key[2] == "<built-in method numpy.array>")

    assert array_calls(0.2) == array_calls(0.1)


def test_make_problem_dispatch():
    assert make_problem("constant_twist").name == "constant_twist"
    assert make_problem("heavy_top").name == "heavy_top"
    with pytest.raises(ValueError, match="unknown problem"):
        make_problem("pendulum")


# ---------------------------------------------------------------------------
# Constant twist: steppers against the exact screw flow
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("twist", [(1.0, 2.0), np.ones(7),
                                   [math.nan, 0.0, 0.0, 0.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0, math.inf, 0.0, 0.0]],
                         ids=["short", "long", "nan", "inf"])
def test_constant_twist_rejects_a_bad_twist(twist):
    # a short twist used to fail inside step 1 and a NaN one to be reported
    # as a Newton failure
    with pytest.raises(ValueError, match="twist must be six finite entries"):
        make_constant_twist_problem(twist)


def test_constant_twist_rate_returns_the_list_it_built():
    field = make_constant_twist_problem(TWIST).field
    twist, aux_rate = field.rate(0.0, np.eye(4), [])
    assert twist == TWIST.tolist() and aux_rate == []
    assert field.rate(1.0, se3_exp(TWIST), [])[0] is twist


def test_rk4_constant_twist_increment_is_exact():
    problem = make_constant_twist_problem(TWIST)
    pose = integrate(problem, "mk_rk4", "exponential", 0.37, 0.37).final_pose
    # a step from the identity: the increment is the chart coordinate of
    # the new pose
    assert_allclose(se3_log(pose), 0.37 * TWIST, atol=1e-15)


@pytest.mark.parametrize("h", [1.0, 0.3, 0.05])
def test_rk4_constant_twist_pose_exact_any_h(h):
    problem = make_constant_twist_problem(TWIST)
    trajectory = integrate(problem, "mk_rk4", "exponential", h, 1.0)
    want = se3_exp(trajectory.times[-1] * TWIST)
    assert final_pose_deviation(want, trajectory.final_pose) < 1e-12


def test_spatial_frame_multiplies_on_left():
    pose0 = se3_exp(np.array([0.2, 0.1, -0.3, 0.5, 0.0, 1.0]))
    problem = make_constant_twist_problem(TWIST, frame="spatial",
                                          initial_pose=pose0)
    trajectory = integrate(problem, "mk_rk4", "exponential", 0.1, 1.0)
    assert_allclose(trajectory.final_pose, se3_exp(TWIST) @ pose0, atol=1e-12)


def test_body_frame_multiplies_on_right():
    pose0 = se3_exp(np.array([0.2, 0.1, -0.3, 0.5, 0.0, 1.0]))
    problem = make_constant_twist_problem(TWIST, frame="body",
                                          initial_pose=pose0)
    trajectory = integrate(problem, "mk_rk4", "exponential", 0.1, 1.0)
    assert_allclose(trajectory.final_pose, pose0 @ se3_exp(TWIST), atol=1e-12)


def test_zero_field_leaves_pose_fixed():
    pose0 = se3_exp(np.array([0.1, 0.4, 0.0, 1.0, 2.0, 3.0]))
    problem = make_constant_twist_problem(np.zeros(6), initial_pose=pose0)
    run = integrate(problem, "mk_rk4", "exponential", 0.5, 0.5)
    assert_allclose(run.final_pose, pose0)


def test_cayley_constant_spin_increment_is_half_angle_tangent():
    # along a pure-rotation ray the chart rate is (1 + |x|^2)/2 times the
    # spin, so the exact increment is tan(omega h / 2) about the axis
    omega = 1.3
    problem = make_constant_twist_problem(
        np.array([0.0, 0.0, omega, 0.0, 0.0, 0.0]))
    h = 0.01
    pose = integrate(problem, "mk_rk4", "cayley", h, h).final_pose
    coords = se3_cay_inv(pose)
    assert_allclose(coords[2], math.tan(0.5 * omega * h), atol=1e-12)
    assert_allclose(coords[[0, 1, 3, 4, 5]], np.zeros(5), atol=1e-15)
    # the closed step then reproduces the exact rotation
    want = se3_exp(h * np.array(problem.field.rate(0.0, np.eye(4), [])[0]))
    assert_allclose(pose, want, atol=1e-12)


def test_midpoint_constant_twist_converges_in_one_update():
    problem = make_constant_twist_problem(TWIST)
    run = integrate(problem, "implicit_midpoint", "exponential", 0.25, 0.25)
    assert run.newton_iterations[0] == 1
    assert_allclose(se3_log(run.final_pose), 0.25 * TWIST, atol=1e-14)
    assert final_pose_deviation(se3_exp(0.25 * TWIST), run.final_pose) < 1e-13


def test_midpoint_constant_twist_cayley_converges():
    omega = 1.1
    problem = make_constant_twist_problem(
        np.array([0.0, 0.0, omega, 0.0, 0.0, 0.0]))
    run = integrate(problem, "implicit_midpoint", "cayley", 0.2, 0.2)
    assert run.newton_iterations[0] >= 2
    # increment stays on the spin axis
    assert_allclose(se3_cay_inv(run.final_pose)[[0, 1, 3, 4, 5]], np.zeros(5),
                    atol=1e-13)


def test_midpoint_newton_failure_carries_residual():
    problem = make_constant_twist_problem(TWIST)
    with pytest.raises(IntegrationError, match="did not reach") as info:
        integrate(problem, "implicit_midpoint", "cayley", 0.3, 0.3,
                  max_newton_iters=1)
    assert isinstance(info.value.__cause__, NewtonConvergenceError)
    assert info.value.__cause__.residual > 0.0


def _spatial_field():
    # spatial twist mixing the rotated vector R a with the translation p, so
    # both pose blocks feed the Jacobian; under exp(hat(xi)) @ pose they move
    # by d(R a) = -hat(R a) d_rot and dp = -hat(p) d_rot + d_lin
    a = np.array([0.3, -0.5, 0.8])
    mix = 0.4 * np.random.default_rng(7).standard_normal((6, 6))

    def rate(t, pose, aux):
        return mix @ np.concatenate([pose[:3, :3] @ a, pose[:3, 3]]), np.zeros(0)

    def jacobian(t, pose, aux):
        d = np.zeros((6, 6))
        d[:3, :3] = -hat3(pose[:3, :3] @ a)
        d[3:, :3] = -hat3(pose[:3, 3])
        d[3:, 3:] = np.eye(3)
        return mix @ d

    return TwistField("spatial", rate, jacobian=jacobian)


def _newton_jacobian(cmap, field, pose, aux, h, state):
    return _midpoint_residual(cmap, field, pose, 0.0, h, aux,
                              state.tolist())[2]()


def _residual_central_difference(cmap, field, pose, aux, h, state):
    fd = np.zeros((state.size, state.size))
    eps = 1e-6
    for j in range(state.size):
        up, down = state.copy(), state.copy()
        up[j] += eps
        down[j] -= eps
        fd[:, j] = (np.array(_midpoint_residual(cmap, field, pose, 0.0, h,
                                                aux, up.tolist())[0])
                    - np.array(_midpoint_residual(cmap, field, pose, 0.0, h,
                                                  aux, down.tolist())[0])
                    ) / (2.0 * eps)
    return fd


@pytest.mark.parametrize("path", ["analytic", "fallback"])
def test_midpoint_jacobian_matches_finite_difference(path):
    problem = make_heavy_top_problem()
    field = problem.field
    if path == "fallback":
        field = dataclasses.replace(field, jacobian=None)
    cmap = cayley_map()
    pose = se3_exp(np.array([0.3, -0.1, 0.2, 0.0, 0.0, 0.0]))
    aux = field.aux0
    h = 0.05
    state = np.concatenate([np.array([0.02, -0.01, 0.03, 0.0, 0.0, 0.0]),
                            aux + 0.01])

    jacobian = _newton_jacobian(cmap, field, pose, aux, h, state)
    fd = _residual_central_difference(cmap, field, pose, aux, h, state)
    scale = np.max(np.abs(fd))
    assert np.max(np.abs(jacobian - fd)) / scale < 1e-5


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
@pytest.mark.parametrize("name", ["heavy_top", "spatial"])
def test_analytic_field_jacobian_agrees_with_fallback(name, kind):
    if name == "heavy_top":
        field = make_heavy_top_problem(momentum0=(0.4, -0.3, 0.8)).field
    else:
        field = _spatial_field()
    cmap = coordinate_map(kind)
    pose = se3_exp(np.array([0.3, -0.1, 0.2, 0.5, -0.4, 0.7]))
    aux = field.aux0
    h = 0.05
    state = np.concatenate([np.array([0.02, -0.01, 0.03, 0.04, 0.01, -0.02]),
                            aux + 0.01])

    analytic = _newton_jacobian(cmap, field, pose, aux, h, state)
    fallback = _newton_jacobian(
        cmap, dataclasses.replace(field, jacobian=None), pose, aux, h, state)
    scale = np.max(np.abs(analytic - np.eye(state.size)))
    assert np.max(np.abs(analytic - fallback)) / scale < 1e-9
    fd = _residual_central_difference(cmap, field, pose, aux, h, state)
    assert np.max(np.abs(analytic - fd)) / scale < 1e-7


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
def test_heavy_top_midpoint_same_with_fallback_jacobian(kind):
    problem = make_heavy_top_problem(momentum0=(0.4, -0.3, 0.8))
    fallback = dataclasses.replace(
        problem, field=dataclasses.replace(problem.field, jacobian=None))
    want = integrate(problem, "implicit_midpoint", kind, 1e-2, 1.0)
    got = integrate(fallback, "implicit_midpoint", kind, 1e-2, 1.0)
    assert np.max(np.abs(got.poses - want.poses)) <= 1e-12
    assert np.max(np.abs(got.aux - want.aux)) <= 1e-12
    np.testing.assert_array_equal(got.newton_iterations,
                                  want.newton_iterations)


def test_midpoint_newton_quadratic_convergence():
    # the first step of a run is cold, full Newton; a run stopped after k
    # updates reports the residual norm there
    problem = make_heavy_top_problem(momentum0=(0.4, -0.3, 0.8))
    residuals = []
    for max_iters in range(31):
        try:
            integrate(problem, "implicit_midpoint", "cayley", 0.8, 0.8,
                      newton_tol=1e-14, max_newton_iters=max_iters)
        except IntegrationError as err:
            residuals.append(err.__cause__.residual)
        else:
            break
    assert len(residuals) <= 30
    checked = 0
    for r_now, r_next in zip(residuals, residuals[1:]):
        if r_now < 1e-3 and r_next > 1e-15:
            assert r_next <= 100.0 * r_now**2
            checked += 1
    assert checked >= 1


# ---------------------------------------------------------------------------
# Driver bookkeeping and failure paths
# ---------------------------------------------------------------------------


def test_trajectory_records():
    problem = make_heavy_top_problem()
    trajectory = integrate(problem, "mk_rk4", "exponential", 0.05, 0.5)
    assert trajectory.times.shape == (11,)
    assert np.all(np.diff(trajectory.times) > 0.0)
    assert trajectory.poses.shape == (11, 4, 4)
    assert trajectory.aux.shape == (11, 3)
    assert trajectory.map_kind == "exponential"
    assert trajectory.method == "mk_rk4"
    assert trajectory.problem == "heavy_top"
    assert trajectory.invariant_names == ("energy", "vertical_momentum")
    assert trajectory.invariant_values.shape == (11, 2)
    drift = trajectory.invariant_drift("energy")
    assert drift[0] == 0.0
    assert np.max(trajectory.orth_drift) < 1e-13
    assert trajectory.newton_iterations.dtype.kind == "i"
    assert_allclose(trajectory.newton_iterations, np.zeros(10))


def test_midpoint_trajectory_records_newton_iterations():
    problem = make_heavy_top_problem()
    trajectory = integrate(problem, "implicit_midpoint", "cayley", 0.05, 0.5)
    iterations = trajectory.newton_iterations
    assert iterations.shape == (10,)
    assert iterations.dtype.kind == "i"
    assert np.all(iterations >= 1)


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
def test_warm_start_takes_one_update_after_the_first_step(kind):
    problem = make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0))
    iterations = integrate(problem, "implicit_midpoint", kind, 1e-3,
                           0.25).newton_iterations
    assert iterations[0] >= 1
    assert np.all(iterations[1:] == 1)


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
def test_warm_run_matches_cold_replay(kind):
    problem = make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0))
    warm = integrate(problem, "implicit_midpoint", kind, 1e-3, 0.25)
    pose, aux = warm.poses[0], warm.aux[0]
    # each replay is a one-step run from the last one's end; the heavy top
    # does not read t, so every run may start at t = 0
    for k in range(len(warm.times) - 1):
        field = dataclasses.replace(problem.field, aux0=aux)
        step = integrate(Problem("replay", field, pose), "implicit_midpoint",
                         kind, 1e-3, 1e-3)
        pose, aux = step.final_pose, step.aux[-1]
        assert np.max(np.abs(pose - warm.poses[k + 1])) <= 1e-10
        assert np.max(np.abs(aux - warm.aux[k + 1])) <= 1e-10


def test_warm_start_is_exact_for_a_constant_twist():
    # the exponential chart's increment h * twist solves every step, so
    # only the cold first step needs an update
    trajectory = integrate(make_constant_twist_problem(TWIST),
                           "implicit_midpoint", "exponential", 0.25, 1.0)
    np.testing.assert_array_equal(trajectory.newton_iterations, [1, 0, 0, 0])


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
def test_warm_run_assembles_the_newton_matrix_only_at_the_start(kind):
    # full Newton assembles one matrix per update, 251 here; the carried
    # inverse serves every warm step's single update
    problem, assemblies = _counting_heavy_top()
    iterations = integrate(problem, "implicit_midpoint", kind, 1e-3,
                           0.25).newton_iterations
    assert len(assemblies) <= 4
    assert iterations.sum() <= 251


def _counting_heavy_top():
    """The heavy top with momentum (3, -2, 4), and a list that gains one
    entry per Newton matrix assembled, read off the field Jacobian."""
    problem = make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0))
    assemblies = []

    def counting_jacobian(*args):
        assemblies.append(args)
        return problem.field.jacobian(*args)

    field = dataclasses.replace(problem.field, jacobian=counting_jacobian)
    return dataclasses.replace(problem, field=field), assemblies


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
def test_newton_matrix_reaches_the_chart_curvature_through_module_names(
        monkeypatch, kind):
    # profilers rebind the two se3 tangent maps on this module and count
    # their calls as Newton assemblies; a chart built after the rebinding
    # must call them once per assembly
    module = importlib.import_module("liegroup_maps.integrate")
    calls = []
    for name in ("se3_ddexp_inv_tangent", "se3_ddcay_inv_tangent"):
        def counting(screw, twist, tangent=getattr(module, name)):
            calls.append(screw)
            return tangent(screw, twist)

        monkeypatch.setattr(module, name, counting)
    problem, assemblies = _counting_heavy_top()
    integrate(problem, "implicit_midpoint", kind, 1e-3, 0.25)
    assert 1 <= len(calls) == len(assemblies) <= 4


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
@pytest.mark.parametrize("h, full_newton_updates", [(1e-3, 501), (1e-2, 100)])
def test_reused_newton_matrix_on_a_moving_translation(kind, h,
                                                      full_newton_updates):
    # the spatial field feeds both pose blocks, so the carried matrix's
    # translation columns go stale as well; the run still takes no more
    # updates than full Newton and stays within 5e-10 of a cold replay
    problem = Problem("spatial", _spatial_field(), np.eye(4))
    warm = integrate(problem, "implicit_midpoint", kind, h, 0.5)
    assert warm.newton_iterations.sum() <= full_newton_updates
    pose = warm.poses[0]
    # the spatial field does not read t, so each one-step replay may start
    # at t = 0
    for k in range(len(warm.times) - 1):
        replay = dataclasses.replace(problem, initial_pose=pose)
        pose = integrate(replay, "implicit_midpoint", kind, h, h).final_pose
        assert np.max(np.abs(pose - warm.poses[k + 1])) <= 5e-10


@pytest.mark.parametrize("name, value", [
    ("max_newton_iters", -1), ("max_newton_iters", 2.5),
    ("max_newton_iters", "20"), ("newton_tol", math.nan),
    ("newton_tol", 0.0), ("newton_tol", -1.0), ("newton_tol", math.inf)])
def test_bad_newton_settings_raise_before_any_step(monkeypatch, name, value):
    module = importlib.import_module("liegroup_maps.integrate")

    def no_step(*args):
        raise AssertionError("a step ran")

    problem = make_heavy_top_problem()
    with monkeypatch.context() as patch:
        patch.setattr(module, "_midpoint_residual", no_step)
        with pytest.raises(ValueError, match="Newton"):
            integrate(problem, "implicit_midpoint", "cayley", 0.05, 0.5,
                      **{name: value})
    # RK4 and the piecewise rule take no Newton settings
    for method in ("mk_rk4", "piecewise"):
        run = integrate(problem, method, "cayley", 0.05, 0.5, **{name: value})
        assert run.poses.shape == (11, 4, 4)


def test_zero_newton_updates_accept_only_a_converged_start():
    # a constant twist on the exponential chart: the warm start solves
    # every step after the first, which needs its one update
    problem = make_constant_twist_problem(TWIST)
    with pytest.raises(IntegrationError, match="in 0 updates"):
        integrate(problem, "implicit_midpoint", "exponential", 0.25, 1.0,
                  max_newton_iters=0)
    run = integrate(problem, "implicit_midpoint", "exponential", 0.25, 0.25,
                    max_newton_iters=np.int64(1))
    assert run.newton_iterations[0] == 1


@pytest.mark.parametrize("method", ["mk_rk4", "implicit_midpoint",
                                    "piecewise"])
def test_per_run_checks_stay_out_of_the_step(monkeypatch, method):
    module = importlib.import_module("liegroup_maps.integrate")
    calls = []

    original = module._require_finite_positive

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(module, "_require_finite_positive", counting)
    problem = make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0))
    counts = []
    for n_steps in (1, 100):
        calls.clear()
        integrate(problem, method, "exponential", 1e-3, n_steps * 1e-3)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


def test_integrate_rejects_bad_arguments():
    problem = make_constant_twist_problem()
    with pytest.raises(ValueError, match="unknown method"):
        integrate(problem, "leapfrog", "exp", 0.1, 1.0)
    with pytest.raises(ValueError, match="must be finite and positive"):
        integrate(problem, "mk_rk4", "exp", -0.1, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_step_and_end_time_rejected(bad):
    problem = make_heavy_top_problem()
    match = "must be finite and positive"
    for method in ("mk_rk4", "implicit_midpoint"):
        with pytest.raises(ValueError, match=match):
            integrate(problem, method, "exp", bad, 1.0)
        with pytest.raises(ValueError, match=match):
            integrate(problem, method, "exp", 0.1, bad)


@pytest.mark.parametrize("h, n_steps", [(0.3, 3), (5.0, 1), (0.0204, 49)])
def test_run_ends_at_t_end_when_step_does_not_divide(h, n_steps):
    # n = round(t_end / h) steps of t_end / n; 49 * (1 / 49) rounds below 1
    trajectory = integrate(make_heavy_top_problem(), "mk_rk4", "exponential",
                           h, 1.0)
    assert trajectory.times.shape == (n_steps + 1,)
    assert trajectory.times[-1] == 1.0
    assert trajectory.step == 1.0 / n_steps


def test_piecewise_freezes_field_at_step_midpoint():
    # a twist and an auxiliary rate growing linearly in time: the midpoint
    # rule integrates both exactly, and on the exponential chart the parallel
    # increments compose to the exact flow exp(TWIST * t_end**2 / 2)
    def rate(t, pose, aux):
        return t * TWIST, np.array([t])

    problem = Problem("ramp", TwistField("body", rate, aux0=np.zeros(1)),
                      np.eye(4))
    trajectory = integrate(problem, "piecewise", "exponential", 0.25, 1.0)
    assert trajectory.method == "piecewise"
    assert final_pose_deviation(se3_exp(0.5 * TWIST),
                                trajectory.final_pose) < 1e-13
    assert_allclose(trajectory.aux[:, 0], 0.5 * trajectory.times**2,
                    rtol=1e-15)
    assert_allclose(trajectory.newton_iterations, np.zeros(4))


def test_chart_violation_yields_partial_trajectory():
    # field switches to a violent spin after t=0.5: the RK4 stage leaves
    # the exponential chart and the driver reports the work done so far
    def rate(t, pose, aux):
        gain = 1.0 if t < 0.5 else 1000.0
        return gain * np.array([0.0, 0.0, 1.0, 0.2, 0.0, 0.0]), np.zeros(0)

    problem = Problem("switch", TwistField("body", rate), np.eye(4))
    with pytest.raises(IntegrationError, match="step 3") as info:
        integrate(problem, "mk_rk4", "exponential", 0.25, 1.0)
    partial = info.value.partial
    assert isinstance(info.value.__cause__, ChartDomainError)
    assert partial.times.shape == (3,)
    assert partial.times[-1] == 0.5
    assert np.max(partial.orth_drift) < 1e-14


def test_non_finite_momentum_yields_partial_trajectory():
    # the NaN twist reaches the first chart map as a NaN rotation angle
    problem = make_heavy_top_problem(momentum0=(math.nan, 0.0, 0.0))
    with pytest.raises(IntegrationError, match="step 1 .*must be finite") \
            as info:
        integrate(problem, "mk_rk4", "exponential", 1e-3, 1.0)
    assert isinstance(info.value.__cause__, ChartDomainError)
    assert info.value.partial.times.shape == (1,)


def test_non_finite_momentum_on_cayley_yields_partial_trajectory():
    # the NaN twist reaches the second RK4 stage as a NaN Gibbs vector
    problem = make_heavy_top_problem(momentum0=(math.nan, 0.0, 0.0))
    with pytest.raises(IntegrationError, match=r"step 1 .*\|g\|\*\*2") \
            as info:
        integrate(problem, "mk_rk4", "cayley", 1e-3, 1.0)
    assert isinstance(info.value.__cause__, ChartDomainError)
    assert info.value.partial.times.shape == (1,)


def test_newton_breakdown_yields_partial_trajectory():
    problem = make_constant_twist_problem(TWIST)
    with pytest.raises(IntegrationError) as info:
        integrate(problem, "implicit_midpoint", "cayley", 0.5, 1.0,
                  max_newton_iters=1)
    assert isinstance(info.value.__cause__, NewtonConvergenceError)
    assert info.value.partial.times.shape == (1,)


def test_midpoint_stops_at_first_non_finite_residual():
    problem = make_heavy_top_problem(momentum0=(math.nan, 0.1, 1.0))
    calls = []

    def rate(t, pose, aux):
        calls.append(t)
        return problem.field.rate(t, pose, aux)

    counted = dataclasses.replace(
        problem, field=dataclasses.replace(problem.field, rate=rate))
    with pytest.raises(IntegrationError,
                       match="step 1 of .*non-finite residual") as info:
        integrate(counted, "implicit_midpoint", "cayley", 0.01, 1.0)
    assert isinstance(info.value.__cause__, NewtonConvergenceError)
    assert math.isnan(info.value.__cause__.residual)
    assert len(calls) == 1
    partial = info.value.partial
    assert partial.times.shape == (1,)
    assert partial.newton_iterations.shape == (0,)


def test_midpoint_stops_at_non_finite_aux_rate_past_the_first_entry():
    # the NaN sits at the last residual entry, where a bare builtin max
    # would skip it and take a Newton update
    def rate(t, pose, aux):
        return TWIST, np.array([1.0, math.nan])

    problem = Problem("nan", TwistField("body", rate, aux0=np.zeros(2)),
                      np.eye(4))
    with pytest.raises(IntegrationError,
                       match=r"non-finite residual \(nan\) after 0 updates") \
            as info:
        integrate(problem, "implicit_midpoint", "cayley", 0.01, 0.01)
    assert isinstance(info.value.__cause__, NewtonConvergenceError)


def test_orth_drift_keeps_nan():
    pose = np.eye(4)
    pose[2, 2] = math.nan       # leaves the first Gram entries finite
    assert math.isnan(_orth_drift(pose))


@pytest.mark.parametrize("method, h", [("mk_rk4", 6.25e-5),
                                       ("implicit_midpoint", 1.25e-4)])
def test_cayley_orthogonality_holds_over_thousands_of_steps(method, h):
    # The rotation diagonal 1 - s (g_j^2 + g_k^2) keeps the drift at
    # 9.3e-15 (RK4) and 6.8e-15 (midpoint) here; writing it as
    # 1 - s |g|^2 + s g_i^2 rounds twice and gives 1.6e-13 and 1.0e-13.
    problem = make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0))
    trajectory = integrate(problem, method, "cayley", h, 0.25)
    assert np.max(trajectory.orth_drift) < 5e-14


# ---------------------------------------------------------------------------
# Heavy top
# ---------------------------------------------------------------------------


def test_heavy_top_equilibrium_spin():
    problem = make_heavy_top_problem(momentum0=(0.0, 0.0, 1.0))
    trajectory = integrate(problem, "mk_rk4", "exponential", 0.01, 2.0)
    assert np.max(trajectory.invariant_drift("energy")) < 1e-14
    assert_allclose(trajectory.aux, np.tile([0.0, 0.0, 1.0], (201, 1)),
                    atol=1e-14)
    # rotation stays about the vertical axis
    assert_allclose(trajectory.final_pose[2, 2], 1.0, atol=1e-14)
    assert_allclose(trajectory.final_pose[:2, 2], np.zeros(2), atol=1e-14)


def test_heavy_top_invariants_at_desk_scale():
    problem = make_heavy_top_problem()
    trajectory = integrate(problem, "mk_rk4", "exponential", 1e-3, 1.0)
    assert np.max(trajectory.invariant_drift("energy")) < 1e-10
    assert np.max(trajectory.invariant_drift("vertical_momentum")) < 1e-10
    assert np.max(trajectory.orth_drift) < 1e-12


def test_heavy_top_rejects_bad_inertia():
    with pytest.raises(ValueError, match="positive principal moments"):
        make_heavy_top_problem(inertia=(1.0, -2.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_heavy_top_rejects_non_finite_or_zero_inertia(bad):
    # a NaN moment used to fail only at step 1, an infinite one ran silently
    with pytest.raises(ValueError, match="positive principal moments"):
        make_heavy_top_problem(inertia=(bad, 1.0, 1.0))


@pytest.mark.parametrize("name, value, message", [
    ("chi", (0.0, 1.0), "chi must be three finite"),
    ("chi", (0.0, 0.0, 1.0, 0.0), "chi must be three finite"),
    ("chi", (math.nan, 0.0, 1.0), "chi must be three finite"),
    ("chi", (0.0, math.inf, 1.0), "chi must be three finite"),
    ("mgl", math.nan, "mgl must be finite"),
    ("mgl", -math.inf, "mgl must be finite"),
    ("momentum0", (1.0, 2.0), "momentum0 must have three entries"),
    ("momentum0", [[0.1, 0.1, 1.0]], "momentum0 must have three entries")])
def test_heavy_top_rejects_bad_gravity_or_momentum(name, value, message):
    # each used to fail only inside the first step, as an IndexError, an
    # unpacking ValueError or an IntegrationError blaming the chart
    with pytest.raises(ValueError, match=message):
        make_heavy_top_problem(**{name: value})


# ---------------------------------------------------------------------------
# Convergence orders
# ---------------------------------------------------------------------------


def test_observed_orders_on_heavy_top():
    problem = make_heavy_top_problem()
    study = convergence_study(problem, ["mk_rk4", "implicit_midpoint"],
                              "exponential", [1e-2, 5e-3, 2.5e-3], 0.5)
    assert 3.5 < study["mk_rk4"].slope < 4.5
    assert 1.7 < study["implicit_midpoint"].slope < 2.3
    for result in study.values():
        assert len(result.pairwise_orders) == 2
        assert result.errors[0] > result.errors[-1]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_convergence_study_rejects_non_finite_input(bad):
    problem = make_heavy_top_problem()
    steps = [0.1, 0.05, 0.025]
    match = "must be finite and positive"
    with pytest.raises(ValueError, match=match):
        convergence_study(problem, ["mk_rk4"], "exponential", steps, bad)
    with pytest.raises(ValueError, match=match):
        convergence_study(problem, ["mk_rk4"], "exponential",
                          [0.1, bad, 0.025], 1.0)


def test_overflowing_step_count_rejected():
    problem = make_heavy_top_problem()
    with pytest.raises(ValueError, match="overflows"):
        integrate(problem, "mk_rk4", "exponential", 1e-300, 1e300)
    with pytest.raises(ValueError, match="overflows"):
        convergence_study(problem, ["mk_rk4"], "exponential",
                          [4e-300, 2e-300, 1e-300], 1e300)
    # a finite but huge t_end/h would grow the trajectory lists until memory
    # runs out, so it meets the same limit
    assert _step_count(1.0 / MAX_STEPS, 1.0) == MAX_STEPS
    with pytest.raises(ValueError, match="overflows the limit"):
        _step_count(1e-12, 1.0)


def test_convergence_study_rejects_repeated_step_sizes():
    # a repeated step size used to give a NumPy division warning and a NaN
    # pairwise order
    problem = make_heavy_top_problem()
    with pytest.raises(ValueError, match="step sizes must be distinct"):
        convergence_study(problem, ["mk_rk4"], "exponential",
                          [0.1, 0.1, 0.05], 1.0)


def test_convergence_study_rejects_non_dividing_steps():
    problem = make_heavy_top_problem()
    with pytest.raises(ValueError, match="does not divide"):
        convergence_study(problem, ["mk_rk4"], "exponential",
                          [8e-3, 4e-3, 2e-3], 0.5)


# ---------------------------------------------------------------------------
# Beam reconstruction
# ---------------------------------------------------------------------------


def test_beam_helix_single_segment_exact():
    strain = helix_strain(0.5)
    trajectory = beam_reconstruct(strain, 2.0, 1, "exponential")
    want = se3_exp(2.0 * strain(0.0))
    assert final_pose_deviation(want, trajectory.final_pose) < 1e-12


def test_beam_helix_many_segments_still_exact():
    strain = helix_strain(0.5)
    trajectory = beam_reconstruct(strain, 2.0, 17, "exponential")
    want = se3_exp(2.0 * strain(0.0))
    assert final_pose_deviation(want, trajectory.final_pose) < 1e-12


def test_beam_zero_strain_stays_at_identity():
    for kind in ("exponential", "cayley"):
        trajectory = beam_reconstruct(lambda s: np.zeros(6), 1.0, 5, kind)
        assert_allclose(trajectory.poses, np.tile(np.eye(4), (6, 1, 1)))


def test_beam_cayley_tip_difference_second_order():
    length = 1.0
    strain = varying_strain(length)
    gaps = []
    for segments in (8, 16, 32):
        tip_exp = beam_reconstruct(strain, length, segments,
                                   "exponential").final_pose
        tip_cay = beam_reconstruct(strain, length, segments,
                                   "cayley").final_pose
        gaps.append(np.max(np.abs(tip_exp[:3, 3] - tip_cay[:3, 3])))
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all(orders > 1.7)
    assert np.all(orders < 2.3)


def test_beam_arclength_bookkeeping():
    trajectory = beam_reconstruct(helix_strain(), 3.0, 6, "cayley")
    assert_allclose(trajectory.times, 0.5 * np.arange(7))
    assert trajectory.method == "piecewise"
    assert trajectory.map_kind == "cayley"
    assert trajectory.aux.shape == (7, 0)
    assert trajectory.newton_iterations.dtype.kind == "i"
    assert_allclose(trajectory.newton_iterations, np.zeros(6))


def test_beam_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least one segment"):
        beam_reconstruct(helix_strain(), 1.0, 0)
    with pytest.raises(ValueError, match="length must be positive"):
        beam_reconstruct(helix_strain(), -1.0, 4)
    with pytest.raises(TypeError):
        beam_reconstruct(helix_strain(), 1.0, 2.5)


# ---------------------------------------------------------------------------
# Trajectory bytes
# ---------------------------------------------------------------------------


def _pinned_problems():
    strain = varying_strain(2.0)
    beam = TwistField("body", lambda s, pose, aux: (strain(s), np.zeros(0)))
    return {
        "heavy_top": (make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0)),
                      0.02, 0.6),
        "spatial": (Problem("spatial", _spatial_field(), np.eye(4)), 0.02, 0.6),
        "beam": (Problem("beam", beam, np.eye(4)), 2.0 / 32, 2.0),
    }


# sha256 (first 16 hex digits) of the poses, aux and Newton counts of each
# run; captured with NumPy 2.4.6 on x86-64 Linux, and the 4x4 products run
# through the installed BLAS, so another build may differ in the last bit
PINNED_DIGESTS = {
    "heavy_top/mk_rk4/exponential": "8822852f5c10ac5a",
    "heavy_top/mk_rk4/cayley": "efe4f288a9a128c2",
    "heavy_top/implicit_midpoint/exponential": "50bbc5b49bcb6bc6",
    "heavy_top/implicit_midpoint/cayley": "98afe6b339021aa6",
    "heavy_top/piecewise/exponential": "0b23a0ba20f95e7e",
    "heavy_top/piecewise/cayley": "91c90fda875e4fe5",
    "spatial/mk_rk4/exponential": "a5c4ecf61b6d8bf1",
    "spatial/mk_rk4/cayley": "b18a2e6381fadd2d",
    "spatial/implicit_midpoint/exponential": "2e524a8e26b31714",
    "spatial/implicit_midpoint/cayley": "b121a8cfd5e48e41",
    "spatial/piecewise/exponential": "b659e7fe773e076c",
    "spatial/piecewise/cayley": "6f6e6d565e6a6158",
    "beam/mk_rk4/exponential": "989fcb2c6254f921",
    "beam/mk_rk4/cayley": "8bb1e28fd6927694",
    "beam/implicit_midpoint/exponential": "776658e9ddabe1e3",
    "beam/implicit_midpoint/cayley": "08ca4ca4dcb67748",
    "beam/piecewise/exponential": "23e7dd2ab0dc4224",
    "beam/piecewise/cayley": "4171e826fa6124ac",
}


def test_trajectory_bytes_are_pinned():
    digests = {}
    for name, (problem, h, t_end) in _pinned_problems().items():
        for method in ("mk_rk4", "implicit_midpoint", "piecewise"):
            for kind in ("exponential", "cayley"):
                run = integrate(problem, method, kind, h, t_end)
                blob = (run.poses.tobytes() + run.aux.tobytes()
                        + run.newton_iterations.astype("<i8").tobytes())
                digests[f"{name}/{method}/{kind}"] = hashlib.sha256(
                    blob).hexdigest()[:16]
    assert digests == PINNED_DIGESTS
