import dataclasses
import importlib
import math

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
    _midpoint_jacobian,
    _midpoint_residual,
    _midpoint_start,
    _orth_drift,
    _step_count,
    beam_reconstruct,
    cayley_map,
    convergence_study,
    coordinate_map,
    exponential_map,
    final_pose_deviation,
    helix_strain,
    implicit_midpoint_step,
    integrate,
    make_constant_twist_problem,
    make_heavy_top_problem,
    make_problem,
    mk_rk4_step,
    varying_strain,
)
from liegroup_maps.se3 import se3_exp

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
    assert_allclose(exponential_map().dmap_inv(np.zeros(6)), np.eye(6))
    assert_allclose(cayley_map().dmap_inv(np.zeros(6)), 0.5 * np.eye(6))


def test_twist_field_frame_validation():
    with pytest.raises(ValueError, match="unknown twist frame"):
        TwistField("mixed", lambda t, pose, aux: (np.zeros(6), np.zeros(0)))


def test_make_problem_dispatch():
    assert make_problem("constant_twist").name == "constant_twist"
    assert make_problem("heavy_top").name == "heavy_top"
    with pytest.raises(ValueError, match="unknown problem"):
        make_problem("pendulum")


# ---------------------------------------------------------------------------
# Constant twist: steppers against the exact screw flow
# ---------------------------------------------------------------------------


def test_rk4_constant_twist_increment_is_exact():
    problem = make_constant_twist_problem(TWIST)
    result = mk_rk4_step(exponential_map(), problem.field, np.eye(4), 0.0, 0.37)
    assert_allclose(result.coords, 0.37 * TWIST, atol=1e-15)


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
    problem = make_constant_twist_problem(np.zeros(6))
    pose0 = se3_exp(np.array([0.1, 0.4, 0.0, 1.0, 2.0, 3.0]))
    result = mk_rk4_step(exponential_map(), problem.field, pose0, 0.0, 0.5)
    assert_allclose(result.pose, pose0)


def test_cayley_constant_spin_increment_is_half_angle_tangent():
    # along a pure-rotation ray the chart rate is (1 + |x|^2)/2 times the
    # spin, so the exact increment is tan(omega h / 2) about the axis
    omega = 1.3
    problem = make_constant_twist_problem(
        np.array([0.0, 0.0, omega, 0.0, 0.0, 0.0]))
    h = 0.01
    result = mk_rk4_step(cayley_map(), problem.field, np.eye(4), 0.0, h)
    assert_allclose(result.coords[2], math.tan(0.5 * omega * h), atol=1e-12)
    assert_allclose(result.coords[[0, 1, 3, 4, 5]], np.zeros(5), atol=1e-15)
    # the closed step then reproduces the exact rotation
    want = se3_exp(h * problem.field.rate(0.0, np.eye(4), np.zeros(0))[0])
    assert_allclose(result.pose, want, atol=1e-12)


def test_midpoint_constant_twist_converges_in_one_update():
    problem = make_constant_twist_problem(TWIST)
    result = implicit_midpoint_step(exponential_map(), problem.field,
                                    np.eye(4), 0.0, 0.25)
    assert result.iterations == 1
    assert_allclose(result.coords, 0.25 * TWIST, atol=1e-14)
    assert final_pose_deviation(se3_exp(0.25 * TWIST), result.pose) < 1e-13


def test_midpoint_constant_twist_cayley_converges():
    omega = 1.1
    problem = make_constant_twist_problem(
        np.array([0.0, 0.0, omega, 0.0, 0.0, 0.0]))
    result = implicit_midpoint_step(cayley_map(), problem.field, np.eye(4),
                                    0.0, 0.2)
    assert result.iterations >= 2
    # increment stays on the spin axis
    assert_allclose(result.coords[[0, 1, 3, 4, 5]], np.zeros(5), atol=1e-13)


def test_midpoint_newton_failure_carries_residual():
    problem = make_constant_twist_problem(TWIST)
    with pytest.raises(NewtonConvergenceError, match="did not reach") as info:
        implicit_midpoint_step(cayley_map(), problem.field, np.eye(4), 0.0,
                               0.3, max_iters=1)
    assert info.value.residual > 0.0


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
    _, twist, aux_rate, mid_pose, dmap_mat = _midpoint_residual(
        cmap, field, pose, 0.0, h, aux, state)
    return _midpoint_jacobian(cmap, field, 0.0, h, aux, state, twist,
                              aux_rate, mid_pose, dmap_mat)


def _residual_central_difference(cmap, field, pose, aux, h, state):
    fd = np.zeros((state.size, state.size))
    eps = 1e-6
    for j in range(state.size):
        up, down = state.copy(), state.copy()
        up[j] += eps
        down[j] -= eps
        fd[:, j] = (_midpoint_residual(cmap, field, pose, 0.0, h, aux, up)[0]
                    - _midpoint_residual(cmap, field, pose, 0.0, h, aux,
                                         down)[0]) / (2.0 * eps)
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
    assert np.max(np.abs(analytic - fallback)) / scale < 1e-6
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
    problem = make_heavy_top_problem(momentum0=(0.4, -0.3, 0.8))
    result = implicit_midpoint_step(cayley_map(), problem.field, np.eye(4),
                                    0.0, 0.8, newton_tol=1e-14, max_iters=30)
    residuals = result.residuals
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
    # replay the chain through the public step with integrate's starts and
    # carried Newton inverses
    pose, aux = trajectory.poses[0], trajectory.aux[0]
    guess = inverse = None
    history = []
    for k, t in enumerate(trajectory.times[:-1]):
        step = implicit_midpoint_step(cayley_map(), problem.field, pose, t,
                                      0.05, aux, guess=guess,
                                      newton_inverse=inverse)
        assert step.iterations == iterations[k]
        np.testing.assert_array_equal(step.pose, trajectory.poses[k + 1])
        np.testing.assert_array_equal(step.aux, trajectory.aux[k + 1])
        inverse = step.newton_inverse
        history = history[-2:] + [np.concatenate([step.coords, step.aux])]
        guess = _midpoint_start(history, aux)
        pose, aux = step.pose, step.aux


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
    cmap = coordinate_map(kind)
    pose, aux = warm.poses[0], warm.aux[0]
    for k, t in enumerate(warm.times[:-1]):
        step = implicit_midpoint_step(cmap, problem.field, pose, t, 1e-3, aux)
        pose, aux = step.pose, step.aux
        assert np.max(np.abs(pose - warm.poses[k + 1])) <= 1e-10
        assert np.max(np.abs(aux - warm.aux[k + 1])) <= 1e-10


def test_warm_start_is_exact_for_a_constant_twist():
    # the exponential chart's increment h * twist solves every step, so
    # only the cold first step needs an update
    trajectory = integrate(make_constant_twist_problem(TWIST),
                           "implicit_midpoint", "exponential", 0.25, 1.0)
    np.testing.assert_array_equal(trajectory.newton_iterations, [1, 0, 0, 0])


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
def test_warm_run_assembles_the_newton_matrix_only_at_the_start(
        monkeypatch, kind):
    # full Newton assembles one matrix per update, 251 here; the carried
    # inverse serves every warm step's single update
    module = importlib.import_module("liegroup_maps.integrate")
    assemblies = []

    def counting_jacobian(*args):
        assemblies.append(args)
        return _midpoint_jacobian(*args)

    monkeypatch.setattr(module, "_midpoint_jacobian", counting_jacobian)
    problem = make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0))
    iterations = integrate(problem, "implicit_midpoint", kind, 1e-3,
                           0.25).newton_iterations
    assert len(assemblies) <= 4
    assert iterations.sum() <= 251


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
    cmap = coordinate_map(kind)
    pose = warm.poses[0]
    for k, t in enumerate(warm.times[:-1]):
        pose = implicit_midpoint_step(cmap, problem.field, pose, t, h).pose
        assert np.max(np.abs(pose - warm.poses[k + 1])) <= 5e-10


def test_midpoint_newton_inverse_shape_and_stale_start():
    field = make_heavy_top_problem().field
    for bad in (np.eye(6), np.eye(10), np.zeros((9, 1)), np.zeros(81)):
        with pytest.raises(ValueError, match="newton_inverse must have shape"):
            implicit_midpoint_step(cayley_map(), field, np.eye(4), 0.0, 0.05,
                                   newton_inverse=bad)
    cold = implicit_midpoint_step(cayley_map(), field, np.eye(4), 0.0, 0.05)
    # the identity serves the first update only; the rest reassemble
    stale = implicit_midpoint_step(cayley_map(), field, np.eye(4), 0.0, 0.05,
                                   newton_inverse=np.eye(9))
    assert stale.residuals[-1] < 1e-12
    assert np.max(np.abs(stale.pose - cold.pose)) <= 1e-10
    assert np.max(np.abs(stale.aux - cold.aux)) <= 1e-10
    assert stale.newton_inverse is not None


def test_midpoint_guess_shape_and_default():
    field = make_heavy_top_problem().field
    aux = field.aux0
    for bad in (np.zeros(6), np.zeros(10), np.zeros((9, 1))):
        with pytest.raises(ValueError, match="guess must have shape"):
            implicit_midpoint_step(cayley_map(), field, np.eye(4), 0.0, 0.05,
                                   guess=bad)
    cold = implicit_midpoint_step(cayley_map(), field, np.eye(4), 0.0, 0.05)
    zero = implicit_midpoint_step(cayley_map(), field, np.eye(4), 0.0, 0.05,
                                  guess=np.concatenate([np.zeros(6), aux]))
    assert zero.iterations == cold.iterations
    np.testing.assert_array_equal(zero.pose, cold.pose)
    np.testing.assert_array_equal(zero.aux, cold.aux)


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
    for stepper in (mk_rk4_step, implicit_midpoint_step):
        with pytest.raises(ValueError, match=match):
            stepper(exponential_map(), problem.field, np.eye(4), 0.0, bad)


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

    field = dataclasses.replace(problem.field, rate=rate)
    with pytest.raises(NewtonConvergenceError,
                       match="non-finite residual") as info:
        implicit_midpoint_step(cayley_map(), field, np.eye(4), 0.0, 0.01)
    assert math.isnan(info.value.residual)
    assert len(calls) == 1

    with pytest.raises(IntegrationError, match="step 1 of") as info:
        integrate(problem, "implicit_midpoint", "cayley", 0.01, 1.0)
    assert isinstance(info.value.__cause__, NewtonConvergenceError)
    partial = info.value.partial
    assert partial.times.shape == (1,)
    assert partial.newton_iterations.shape == (0,)


def test_midpoint_stops_at_non_finite_aux_rate_past_the_first_entry():
    # the NaN sits at the last residual entry, where a bare builtin max
    # would skip it and take a Newton update
    def rate(t, pose, aux):
        return TWIST, np.array([1.0, math.nan])

    field = TwistField("body", rate, aux0=np.zeros(2))
    with pytest.raises(NewtonConvergenceError,
                       match=r"non-finite residual \(nan\) after 0 updates"):
        implicit_midpoint_step(cayley_map(), field, np.eye(4), 0.0, 0.01)


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
