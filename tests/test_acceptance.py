"""Acceptance battery: certifies every shipped formula and integrator
against independent references at fixed tolerances.

Each test prints one summary line (visible with ``pytest -s``, and echoed
on failure) of the form::

    [ACCEPTANCE] criterion NN (label): PASS

The criteria cover: series agreement for the exponentials and their
differentials, inverse-route agreement, the frame-transport identity
batteries, directional derivatives against finite differences, the Cayley
resolvent and bridge identities, grouped-versus-block assembly, seam
continuity, exactness properties of the integrators, observed convergence
orders with a runtime budget, invariant preservation on the spinning-top
benchmark, beam reconstruction exactness, and the Cayley translation
mismatch.
"""

import math
import time

import numpy as np

from liegroup_maps import (
    Ad6,
    ad6,
    adjoint_cay,
    adjoint_cay_A_forms,
    adjoint_vs_se3_cay_mismatch,
    beam_reconstruct,
    convergence_study,
    fd_directional,
    final_pose_deviation,
    force_branch,
    hat3,
    hat6,
    helix_strain,
    integrate,
    make_constant_twist_problem,
    make_heavy_top_problem,
    resolvent_cay,
    se3_cay,
    se3_ddcay,
    se3_ddcay_inv,
    se3_ddexp,
    se3_ddexp_inv,
    se3_dcay,
    se3_dcay_inv,
    se3_dexp,
    se3_dexp_adform,
    se3_dexp_inv,
    se3_dexp_inv_adform,
    se3_exp,
    so3_cay,
    so3_ddexp,
    so3_ddexp_inv,
    so3_dexp,
    so3_dexp_inv,
    so3_exp,
)
from liegroup_maps.oracle import (
    SeriesConfig,
    series_dexp,
    series_dexp_inv,
    series_exp,
)

DEFAULT_CONSTANT_TWIST = np.array([0.3, -0.2, 0.4, 1.0, 0.5, -0.3])


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE] criterion {num:02d} ({label}): "
    line += "PASS" if ok else "FAIL"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _rotvec(rng, max_angle):
    return rng.uniform(0.0, max_angle) * _unit(rng)


def _screw(rng, max_angle, lin_scale=1.0):
    return np.concatenate([_rotvec(rng, max_angle),
                           lin_scale * rng.standard_normal(3)])


def _ball6(rng, radius):
    v = rng.standard_normal(6)
    return radius * rng.uniform(0.0, 1.0) ** (1.0 / 6.0) * v / np.linalg.norm(v)


def _unit_ball_translation_screw(rng, max_angle):
    x = _rotvec(rng, max_angle)
    y = rng.standard_normal(3)
    y *= rng.uniform(0.0, 1.0) / np.linalg.norm(y)
    return np.concatenate([x, y])


def _max_abs(a):
    return float(np.max(np.abs(a)))


def test_criterion_01_exponentials_match_series():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        x = _rotvec(rng, math.pi)
        worst = max(worst, _max_abs(so3_exp(x) - series_exp(hat3(x))))
        s = _screw(rng, math.pi)
        worst = max(worst, _max_abs(se3_exp(s) - series_exp(hat6(s))))
    _report(1, "exponentials match the truncated series", worst < 1e-12,
            f"max residual {worst:.2e}")


def test_criterion_02_differentials_and_inverses():
    rng = np.random.default_rng(2)
    worst_series = worst_bernoulli = worst_inverse = 0.0
    for _ in range(1000):
        x = _rotvec(rng, math.pi)
        worst_series = max(worst_series,
                           _max_abs(so3_dexp(x) - series_dexp(hat3(x))))
        s = _screw(rng, math.pi)
        worst_series = max(worst_series,
                           _max_abs(se3_dexp(s) - series_dexp(ad6(s))))

        x_small = _rotvec(rng, 1.0)
        worst_bernoulli = max(
            worst_bernoulli,
            _max_abs(so3_dexp_inv(x_small) - series_dexp_inv(hat3(x_small))))
        s_small = _ball6(rng, 1.0)
        worst_bernoulli = max(
            worst_bernoulli,
            _max_abs(se3_dexp_inv(s_small) - series_dexp_inv(ad6(s_small))))

        x_wide = _rotvec(rng, 2.0 * math.pi - 0.1)
        worst_inverse = max(
            worst_inverse,
            _max_abs(so3_dexp_inv(x_wide) - np.linalg.inv(so3_dexp(x_wide))))
        s_wide = _unit_ball_translation_screw(rng, 2.0 * math.pi - 0.1)
        worst_inverse = max(
            worst_inverse,
            _max_abs(se3_dexp_inv(s_wide) - np.linalg.inv(se3_dexp(s_wide))))

    ok = (worst_series < 1e-11 and worst_bernoulli < 1e-10
          and worst_inverse < 1e-11)
    _report(2, "differentials match series, Bernoulli, and inversion", ok,
            f"series {worst_series:.2e}, bernoulli {worst_bernoulli:.2e}, "
            f"inverse {worst_inverse:.2e}")


def _transport_routes(d, d_inv_neg, ad):
    """The four frame-transport routes d(-X)^-1 d(X), d(X) d(-X)^-1,
    I + ad d(X) and I + d(X) ad, from the differential at X, its inverse
    at -X and the adjoint of X."""
    eye = np.eye(len(d))
    return [d_inv_neg @ d, d @ d_inv_neg, eye + ad @ d, eye + d @ ad]


def test_criterion_03_transport_identity_batteries():
    rng = np.random.default_rng(3)
    adjoint_series = SeriesConfig(max_terms=60)
    worst_routes = worst_adjoint = 0.0
    for _ in range(1000):
        x = _rotvec(rng, 2.0 * math.pi - 0.2)
        routes = _transport_routes(so3_dexp(x), so3_dexp_inv(-x), hat3(x))
        base = so3_exp(x)
        worst_routes = max(worst_routes,
                           max(_max_abs(m - base) for m in routes))
        s = _screw(rng, 2.0 * math.pi - 0.2)
        routes = _transport_routes(se3_dexp(s), se3_dexp_inv(-s), ad6(s))
        base = Ad6(se3_exp(s))
        worst_routes = max(worst_routes,
                           max(_max_abs(m - base) for m in routes))

        s_mid = _screw(rng, math.pi)
        worst_adjoint = max(
            worst_adjoint,
            _max_abs(Ad6(se3_exp(s_mid))
                     - series_exp(ad6(s_mid), adjoint_series)))
    ok = worst_routes < 1e-10 and worst_adjoint < 1e-11
    _report(3, "frame-transport identity batteries", ok,
            f"routes {worst_routes:.2e}, adjoint-of-exp {worst_adjoint:.2e}")


def test_criterion_04_directional_derivatives():
    rng = np.random.default_rng(4)
    pairs = [
        (se3_ddexp, se3_dexp),
        (se3_ddexp_inv, se3_dexp_inv),
        (se3_ddcay, se3_dcay),
        (se3_ddcay_inv, se3_dcay_inv),
    ]
    worst_fd = worst_product = 0.0
    for _ in range(500):
        s = _screw(rng, 2.5)
        u = rng.standard_normal(6)
        for derivative, value in pairs:
            residual = derivative(s, u) - fd_directional(value, s, u, h=1e-5)
            worst_fd = max(worst_fd, _max_abs(residual))
        worst_product = max(worst_product, _max_abs(
            se3_ddexp(s, u) @ se3_dexp_inv(s)
            + se3_dexp(s) @ se3_ddexp_inv(s, u)))
        worst_product = max(worst_product, _max_abs(
            se3_ddcay(s, u) @ se3_dcay_inv(s)
            + se3_dcay(s) @ se3_ddcay_inv(s, u)))
    ok = worst_fd < 1e-6 and worst_product < 1e-9
    _report(4, "directional derivatives and product rules", ok,
            f"fd {worst_fd:.2e}, product-rule {worst_product:.2e}")


def test_criterion_05_cayley_resolvents_and_bridge():
    rng = np.random.default_rng(5)
    worst_resolvent = worst_forms = worst_bridge = 0.0
    for _ in range(1000):
        x = _rotvec(rng, 3.5)
        worst_resolvent = max(worst_resolvent,
                              _max_abs(so3_cay(x) - resolvent_cay(hat3(x))))
        s = _screw(rng, 3.5)
        worst_resolvent = max(worst_resolvent,
                              _max_abs(se3_cay(s) - resolvent_cay(hat6(s))))
        worst_resolvent = max(worst_resolvent,
                              _max_abs(adjoint_cay(s) - resolvent_cay(ad6(s))))

        forms = list(adjoint_cay_A_forms(s).values())
        worst_forms = max(worst_forms,
                          max(_max_abs(a - b) for i, a in enumerate(forms)
                              for b in forms[i + 1:]))

        angle = rng.uniform(1e-6, math.pi - 0.1)
        axis = _unit(rng)
        worst_bridge = max(worst_bridge, _max_abs(
            so3_cay(math.tan(0.5 * angle) * axis) - so3_exp(angle * axis)))
    ok = worst_resolvent < 1e-12 and worst_forms < 1e-12 and worst_bridge < 1e-11
    _report(5, "Cayley resolvents, adjoint forms, and exp bridge", ok,
            f"resolvent {worst_resolvent:.2e}, forms {worst_forms:.2e}, "
            f"bridge {worst_bridge:.2e}")


def test_criterion_06_grouped_equals_block_assembly():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        s = _screw(rng, 2.0 * math.pi - 0.1)
        worst = max(worst, _max_abs(se3_dexp(s) - se3_dexp_adform(s)))
        worst = max(worst,
                    _max_abs(se3_dexp_inv(s) - se3_dexp_inv_adform(s)))
    _report(6, "grouped adjoint form equals block assembly", worst < 1e-10,
            f"max residual {worst:.2e}")


def test_criterion_07_seam_continuity():
    seam = 1e-2
    axis = np.array([0.36, -0.48, 0.8])
    y = np.array([0.7, -0.2, 0.5])
    u6 = np.array([0.3, -0.1, 0.4, -0.2, 0.6, 0.1])
    operations = [
        lambda x: so3_exp(x),
        lambda x: so3_dexp(x),
        lambda x: so3_dexp_inv(x),
        lambda x: so3_ddexp(x, u6[:3]),
        lambda x: so3_ddexp_inv(x, u6[:3]),
        lambda x: se3_exp(np.concatenate([x, y])),
        lambda x: se3_dexp(np.concatenate([x, y])),
        lambda x: se3_dexp_inv(np.concatenate([x, y])),
        lambda x: se3_dexp_adform(np.concatenate([x, y])),
        lambda x: se3_dexp_inv_adform(np.concatenate([x, y])),
        lambda x: se3_ddexp(np.concatenate([x, y]), u6),
        lambda x: se3_ddexp_inv(np.concatenate([x, y]), u6),
    ]
    worst = 0.0
    for offset in (-1e-9, 1e-9):
        x = (seam + offset) * axis
        for op in operations:
            with force_branch("series"):
                from_series = op(x)
            with force_branch("closed"):
                from_closed = op(x)
            worst = max(worst, _max_abs(from_series - from_closed))
    _report(7, "series and closed branches agree across the seam",
            worst < 1e-13, f"max residual {worst:.2e}")


def test_criterion_08_constant_twist_exactness():
    problem = make_constant_twist_problem()
    worst = 0.0
    for h in (1.0, 0.3, 0.05, 0.007):
        traj = integrate(problem, method="mk_rk4", map_kind="exponential",
                         h=h, t_end=1.0)
        exact = se3_exp(float(traj.times[-1]) * DEFAULT_CONSTANT_TWIST)
        worst = max(worst, final_pose_deviation(exact, traj.final_pose))
    _report(8, "constant twist is exact under the exponential chart",
            worst < 1e-12, f"max pose deviation {worst:.2e}")


def test_criterion_09_observed_convergence_orders():
    # the default top barely precesses, leaving errors at the roundoff
    # floor for these step sizes, so spin it up hard for a visible signal
    problem = make_heavy_top_problem(momentum0=(3.0, -2.0, 4.0))
    start = time.perf_counter()
    study = convergence_study(
        problem,
        methods=("mk_rk4", "implicit_midpoint"),
        map_kind="exponential",
        h_list=(4e-3, 2e-3, 1e-3, 5e-4),
        t_end=1.0,
    )
    elapsed = time.perf_counter() - start
    rk4_slope = study["mk_rk4"].slope
    mid_slope = study["implicit_midpoint"].slope
    ok = (3.7 <= rk4_slope <= 4.3 and 1.8 <= mid_slope <= 2.2
          and elapsed < 10.0)
    _report(9, "observed orders 4 and 2 within the runtime budget", ok,
            f"rk4 {rk4_slope:.3f}, midpoint {mid_slope:.3f}, "
            f"{elapsed:.1f} s")


def test_criterion_10_spinning_top_invariants():
    problem = make_heavy_top_problem()
    traj = integrate(problem, method="mk_rk4", map_kind="exponential",
                     h=1e-3, t_end=10.0)
    energy = float(traj.invariant_drift("energy").max())
    vertical = float(traj.invariant_drift("vertical_momentum").max())
    orth = float(traj.orth_drift.max())
    ok = energy < 1e-8 and vertical < 1e-8 and orth < 1e-11
    _report(10, "spinning-top invariants preserved over 10^4 steps", ok,
            f"energy {energy:.2e}, vertical momentum {vertical:.2e}, "
            f"orthogonality {orth:.2e}")


def test_criterion_11_single_segment_beam_exact():
    length = 2.0
    strain = helix_strain()
    traj = beam_reconstruct(strain, length, segments=1,
                            map_kind="exponential")
    exact = se3_exp(length * strain(0.5 * length))
    residual = _max_abs(traj.final_pose - exact)
    _report(11, "one-segment beam equals the closed-form screw motion",
            residual < 1e-12, f"residual {residual:.2e}")


def test_criterion_12_cayley_translation_mismatch():
    zero_x = adjoint_vs_se3_cay_mismatch(
        np.array([0.0, 0.0, 0.0, 1.0, 2.0, 0.7]))
    orthogonal = adjoint_vs_se3_cay_mismatch(
        np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0]))
    agree = max(_max_abs(zero_x.group_route - zero_x.adjoint_route),
                _max_abs(orthogonal.group_route - orthogonal.adjoint_route))

    generic = adjoint_vs_se3_cay_mismatch(
        np.array([0.3, -0.4, 0.5, 1.0, 2.0, 0.7]))
    gap = generic.group_route - generic.adjoint_route
    predicted_ok = _max_abs(gap - generic.predicted_gap) < 1e-13
    expected_gap = np.array([-0.06, 0.08, -0.10])
    value_ok = _max_abs(gap - expected_gap) < 1e-13
    visible_ok = bool(np.all(np.abs(gap) > 1e-2))

    ok = agree < 1e-15 and predicted_ok and value_ok and visible_ok
    _report(12, "Cayley translation routes: agreement and visible gap", ok,
            f"orthogonal-case agreement {agree:.1e}, generic gap "
            f"({gap[0]:.3f}, {gap[1]:.3f}, {gap[2]:.3f})")
