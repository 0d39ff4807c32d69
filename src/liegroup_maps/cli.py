"""Command-line interface: evaluate, verify, integrate, and study the maps.

Subcommands
-----------
``eval``
    Evaluate one named map at one input and print the resulting matrix.
``verify``
    Run randomized identity suites against independent oracles and print a
    per-identity max-residual table.
``integrate``
    Run a trajectory (or beam reconstruction) and print uniformly sampled
    poses with invariant-drift columns.
``convergence``
    Run a step-size refinement study and print observed orders.

Exit codes: 0 success, 1 verification failure, 2 bad input or chart-domain
violation, 3 integration breakdown (a partial trajectory is still written).

Output is CSV by default (comma separated, ``.`` decimal point, LF line
endings, ``#``-prefixed comment lines) with a JSON mirror behind
``--format json``.  Payloads are byte-identical for identical seeds and
flags; timestamps appear only in ``#`` comment lines and never in JSON.

Environment: ``LIEGROUP_MAPS_SEED`` overrides ``--seed``;
``LIEGROUP_MAPS_FAULT_INJECT`` perturbs one operation inside the
verification dispatch table (a self-test of the harness — the library
itself is untouched).
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable

import numpy as np

from . import se3, so3
from .core import Ad6, ChartDomainError, ad6, hat3, hat6
from .integrate import (
    IntegrationError,
    _beam_problem,
    convergence_study,
    helix_strain,
    integrate,
    make_problem,
    varying_strain,
)
from .oracle import (
    SeriesConfig,
    adjoint_cay_A_forms,
    adjoint_vs_se3_cay_mismatch,
    fd_directional,
    resolvent_cay,
    series_dexp,
    series_dexp_inv,
    series_exp,
)

EXIT_OK = 0
EXIT_VERIFY_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_INTEGRATION_FAILURE = 3

_SEED_ENV = "LIEGROUP_MAPS_SEED"
_FAULT_ENV = "LIEGROUP_MAPS_FAULT_INJECT"

_ADJOINT_SERIES = SeriesConfig(max_terms=60)


class CliError(Exception):
    """Bad command-line input; carries the process exit code."""

    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    # shortest representation that round-trips exactly
    return repr(float(value))


def _fmt_vec(vec) -> str:
    return ",".join(_fmt(v) for v in np.asarray(vec, dtype=float))


def _parse_vector(text: str, flag: str, dim: int) -> np.ndarray:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} expects comma-separated numbers, got {text!r}")
    if len(parts) != dim:
        raise CliError(f"{flag} expects {dim} components, got {len(parts)}")
    return np.array(parts)


def _timestamp_comment() -> str:
    stamp = datetime.datetime.now(datetime.timezone.utc)
    return "# generated: " + stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def _emit(args, payload: dict, comments: list[str], header: list[str],
          rows: Iterable[list[str]], trailing: list[str] = ()) -> None:
    """Write a command's result as ``--format`` asks, to ``--output`` or
    stdout: the JSON ``payload``, or the CSV table of ``comments``,
    ``header``, ``rows`` and ``trailing`` comment lines.  ``rows`` is read
    only for CSV, so a generator spares JSON output the cell formatting."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [*comments, ",".join(header), *map(",".join, rows), *trailing]
        text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _quote(cell: str) -> str:
    """Quote a CSV cell that may contain commas (pure numbers, no escapes)."""
    return f'"{cell}"' if cell else ""


def _cell(value) -> str:
    """CSV cell: blank for None, full-precision number otherwise."""
    return "" if value is None else _fmt(value)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

# group: (module, input size, value note, differential note)
_GROUPS = {
    "so3": (so3, 3,
            "input is a rotation vector; output is a 3x3 rotation matrix",
            "right-trivialized differential on the rotation group; maps "
            "rotation-vector rates to angular velocities"),
    "se3": (se3, 6,
            "screw input is (angular, linear); output is a 4x4 homogeneous "
            "pose",
            "right-trivialized differential on the rigid-motion group; "
            "screw blocks are (angular, linear)"),
}
_NOTE_CAY = ("unhalved Cayley convention: the differential at zero is 2*I "
             "and its inverse at zero is I/2")
_NOTE_DIR = "directional derivative along --y"
_NOTE_AD_CAY = ("6x6 frame transport of the Cayley pose; equals the "
                "resolvent of the 6x6 screw adjoint")
# per chart: the map, its differential and inverse differential, and the
# directional derivatives of both
_EVAL_OPS = ("exp", "dexp", "dexpinv", "ddexp", "ddexpinv",
             "cay", "dcay", "dcayinv", "ddcay", "ddcayinv")


def _eval_entry(op: str, group: str) -> tuple:
    """(function, input size, takes --y, note) of the map ``<op>_<group>``,
    which is the library's ``<group>_<op>`` with ``inv`` written ``_inv``."""
    module, size, value_note, diff_note = _GROUPS[group]
    directed = op.startswith("dd")
    notes = [value_note if op in ("exp", "cay") else diff_note]
    if "cay" in op:
        notes.append(_NOTE_CAY)
    if directed:
        notes.append(_NOTE_DIR)
    func = getattr(module, f"{group}_{op}".replace("inv", "_inv"))
    return func, size, directed, "; ".join(notes)


_EVAL_TABLE = {f"{op}_{group}": _eval_entry(op, group)
               for group in _GROUPS for op in _EVAL_OPS}
_EVAL_TABLE["ad_cay"] = (se3.adjoint_cay, 6, False, _NOTE_AD_CAY)


def cmd_eval(args) -> int:
    func, dim, needs_direction, note = _EVAL_TABLE[args.map]
    inputs = {"x": _parse_vector(args.x, "--x", dim)}
    if needs_direction:
        if args.y is None:
            raise CliError(f"map {args.map!r} needs a direction: pass --y")
        inputs["y"] = _parse_vector(args.y, "--y", dim)
    elif args.y is not None:
        raise CliError(f"map {args.map!r} takes a single input; drop --y")

    matrix = np.asarray(func(*inputs.values()), dtype=float)
    size = matrix.shape[0]
    payload = {
        "map": args.map,
        "input": {key: [float(v) for v in vec] for key, vec in inputs.items()},
        "output": [[float(v) for v in row] for row in matrix],
        "convention_notes": note,
    }
    flags = " ".join(f"--{key} {_fmt_vec(vec)}" for key, vec in inputs.items())
    comments = [f"# liegroup-maps eval {args.map} {flags}", f"# {note}",
                _timestamp_comment()]
    header = [f"m{i + 1}{j + 1}" for i in range(size) for j in range(size)]
    _emit(args, payload, comments, header, [[_fmt(v) for v in matrix.ravel()]])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: samplers.  A sampler draws one (x, y-or-None) from a check's own
# generator; x is the input echoed as worst_x, y the direction of a
# directional-derivative identity.
# ---------------------------------------------------------------------------


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _rand_unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _rand_rotvec(rng, max_angle: float) -> np.ndarray:
    return rng.uniform(0.0, max_angle) * _rand_unit(rng)


def _rand_screw(rng, max_angle: float) -> np.ndarray:
    return np.concatenate([_rand_rotvec(rng, max_angle),
                           rng.standard_normal(3)])


def _rotvec(max_angle: float, directed: bool = False):
    """Rotation vector with angle below ``max_angle``; with ``directed``, a
    Gaussian direction drawn after it."""
    def sample(rng):
        x = _rand_rotvec(rng, max_angle)
        return x, rng.standard_normal(3) if directed else None

    return sample


def _screw(max_angle: float, directed: bool = False):
    """Screw whose angular block is a rotation vector with angle below
    ``max_angle`` and whose linear block is Gaussian; with ``directed``, a
    Gaussian direction drawn after it."""
    def sample(rng):
        s = _rand_screw(rng, max_angle)
        return s, rng.standard_normal(6) if directed else None

    return sample


def _capped_screw(rng):
    # keep the 6x6 adjoint inside the inverse-series norm cap of the oracle
    s = _rand_screw(rng, 0.35)
    lin = s[3:]
    s[3:] = 0.7 * lin / np.linalg.norm(lin)
    return s, None


# ---------------------------------------------------------------------------
# verify: residuals.  A residual maps (ops, x, y) to an array that vanishes
# when the identity holds.  Every function is looked up when the check runs,
# through ``ops`` or a module global, never captured when the table is built.
# ---------------------------------------------------------------------------


def _inverse_pair(d: str, d_inv: str):
    """``d(x) @ d_inv(x) = I``."""
    return lambda ops, x, _: ops[d](x) @ ops[d_inv](x) - np.eye(x.size)


def _matches_fd(dd: str, d: str):
    """``dd(x, y)`` equals a central difference of ``d`` at x along y."""
    return lambda ops, x, y: ops[dd](x, y) - fd_directional(ops[d], x, y)


def _product_rule(dd: str, d_inv: str, d: str, dd_inv: str):
    """The derivative of ``d @ d_inv = I`` along y vanishes."""
    return lambda ops, x, y: (ops[dd](x, y) @ ops[d_inv](x)
                              + ops[d](x) @ ops[dd_inv](x, y))


def _equal(a: str, b: str):
    """Two routes to the same matrix agree."""
    return lambda ops, x, _: ops[a](x) - ops[b](x)


def _mismatch_gap(ops, s, _):
    m = adjoint_vs_se3_cay_mismatch(s)
    return (m.group_route - m.adjoint_route) - m.predicted_gap


def _check_cay_exp_bridge(ops, rng):
    # hand-written: the residual needs angle and axis apart, while the echoed
    # input is their product
    angle = rng.uniform(1e-3, math.pi - 0.1)
    axis = _rand_unit(rng)
    res = ops["so3_cay"](math.tan(0.5 * angle) * axis) - ops["so3_exp"](angle * axis)
    return res, angle * axis, None


_ALMOST_2PI = 2.0 * math.pi - 0.1
# the frame-transport lemma Ad(exp X) = dexp(X) dexp(-X)^-1 = I + ad_X dexp(X)
# needs dexp_inv at -X, so its samples stay a little further inside 2*pi
_LEMMA_ROTVEC = _rotvec(2.0 * math.pi - 0.2)
_LEMMA_SCREW = _screw(2.0 * math.pi - 0.2)

# (suite, check name, tolerance, sampler, residual); a row without a sampler
# is a hand-written check(ops, rng) -> (residual, x, y).  Adding an identity
# is adding a row.  Row order fixes each check's random stream, so any suite
# subset sees the same draws for a given seed.
_CHECKS = [
    ("so3", "rotation_exp_matches_series", 1e-12, _rotvec(math.pi),
     lambda ops, x, _: ops["so3_exp"](x) - series_exp(hat3(x))),
    ("so3", "rotation_log_inverts_exp", 1e-9, _rotvec(math.pi - 1e-3),
     lambda ops, x, _: ops["so3_log"](ops["so3_exp"](x)) - x),
    ("so3", "rotation_dexp_matches_series", 1e-11, _rotvec(math.pi),
     lambda ops, x, _: ops["so3_dexp"](x) - series_dexp(hat3(x))),
    ("so3", "rotation_dexp_inverse_pair", 1e-11, _rotvec(_ALMOST_2PI),
     _inverse_pair("so3_dexp", "so3_dexp_inv")),
    ("so3", "rotation_dexp_inv_matches_bernoulli", 1e-10, _rotvec(1.0),
     lambda ops, x, _: ops["so3_dexp_inv"](x) - series_dexp_inv(hat3(x))),
    ("so3", "rotation_ddexp_matches_fd", 1e-6, _rotvec(2.5, True),
     _matches_fd("so3_ddexp", "so3_dexp")),
    ("so3", "rotation_ddexp_inv_matches_fd", 1e-6, _rotvec(2.5, True),
     _matches_fd("so3_ddexp_inv", "so3_dexp_inv")),
    ("so3", "rotation_derivative_product_rule", 1e-9, _rotvec(2.5, True),
     _product_rule("so3_ddexp", "so3_dexp_inv", "so3_dexp", "so3_ddexp_inv")),
    ("se3", "screw_exp_matches_series", 1e-12, _screw(math.pi),
     lambda ops, s, _: ops["se3_exp"](s) - series_exp(hat6(s))),
    ("se3", "screw_log_inverts_exp", 1e-8, _screw(math.pi - 1e-3),
     lambda ops, s, _: ops["se3_log"](ops["se3_exp"](s)) - s),
    ("se3", "screw_dexp_matches_series", 1e-11, _screw(math.pi),
     lambda ops, s, _: ops["se3_dexp"](s) - series_dexp(ad6(s))),
    ("se3", "screw_dexp_inv_matches_bernoulli", 1e-10, _capped_screw,
     lambda ops, s, _: ops["se3_dexp_inv"](s) - series_dexp_inv(ad6(s))),
    ("se3", "screw_dexp_block_equals_adform", 1e-10, _screw(_ALMOST_2PI),
     _equal("se3_dexp", "se3_dexp_adform")),
    ("se3", "screw_dexp_inv_block_equals_adform", 1e-10, _screw(_ALMOST_2PI),
     _equal("se3_dexp_inv", "se3_dexp_inv_adform")),
    ("se3", "screw_dexp_inverse_pair", 1e-10, _screw(_ALMOST_2PI),
     _inverse_pair("se3_dexp", "se3_dexp_inv")),
    ("se3", "screw_adjoint_of_exp_matches_series", 1e-11, _screw(math.pi),
     lambda ops, s, _: (Ad6(ops["se3_exp"](s))
                        - series_exp(ad6(s), _ADJOINT_SERIES))),
    ("cayley", "cay_rotation_matches_resolvent", 1e-12, _rotvec(3.5),
     lambda ops, x, _: ops["so3_cay"](x) - resolvent_cay(hat3(x))),
    ("cayley", "cay_screw_matches_resolvent", 1e-12, _screw(3.5),
     lambda ops, s, _: ops["se3_cay"](s) - resolvent_cay(hat6(s))),
    ("cayley", "cay_adjoint_matches_resolvent", 1e-12, _screw(3.5),
     lambda ops, s, _: ops["adjoint_cay"](s) - resolvent_cay(ad6(s))),
    ("cayley", "cay_adjoint_forms_agree", 1e-12, _screw(3.5),
     lambda ops, s, _: [a - b for a, b in itertools.combinations(
         adjoint_cay_A_forms(s).values(), 2)]),
    ("cayley", "cay_exp_bridge", 1e-11, None, _check_cay_exp_bridge),
    ("cayley", "cay_dcay_inverse_pair", 1e-12, _screw(3.0),
     _inverse_pair("se3_dcay", "se3_dcay_inv")),
    ("cayley", "cay_ddcay_matches_fd", 1e-6, _screw(2.5, True),
     _matches_fd("se3_ddcay", "se3_dcay")),
    ("cayley", "cay_ddcay_inv_matches_fd", 1e-6, _screw(2.5, True),
     _matches_fd("se3_ddcay_inv", "se3_dcay_inv")),
    ("cayley", "cay_translation_mismatch_closed_form", 1e-12, _screw(3.0),
     _mismatch_gap),
    ("derivatives", "deriv_screw_ddexp_matches_fd", 1e-6, _screw(2.5, True),
     _matches_fd("se3_ddexp", "se3_dexp")),
    ("derivatives", "deriv_screw_ddexp_inv_matches_fd", 1e-6,
     _screw(2.5, True), _matches_fd("se3_ddexp_inv", "se3_dexp_inv")),
    ("derivatives", "deriv_screw_ddcay_matches_fd", 1e-6, _screw(2.5, True),
     _matches_fd("se3_ddcay", "se3_dcay")),
    ("derivatives", "deriv_screw_ddcay_inv_matches_fd", 1e-6,
     _screw(2.5, True), _matches_fd("se3_ddcay_inv", "se3_dcay_inv")),
    ("derivatives", "deriv_exp_product_rule", 1e-9, _screw(2.5, True),
     _product_rule("se3_ddexp", "se3_dexp_inv", "se3_dexp", "se3_ddexp_inv")),
    ("derivatives", "deriv_cay_product_rule", 1e-9, _screw(2.5, True),
     _product_rule("se3_ddcay", "se3_dcay_inv", "se3_dcay", "se3_ddcay_inv")),
    ("lemmas", "lemma_rotation_dexpinv_neg_then_dexp", 1e-10, _LEMMA_ROTVEC,
     lambda ops, x, _: (ops["so3_dexp_inv"](-x) @ ops["so3_dexp"](x)
                        - ops["so3_exp"](x))),
    ("lemmas", "lemma_rotation_dexp_then_dexpinv_neg", 1e-10, _LEMMA_ROTVEC,
     lambda ops, x, _: (ops["so3_dexp"](x) @ ops["so3_dexp_inv"](-x)
                        - ops["so3_exp"](x))),
    ("lemmas", "lemma_rotation_identity_plus_hat_dexp", 1e-10, _LEMMA_ROTVEC,
     lambda ops, x, _: (np.eye(3) + hat3(x) @ ops["so3_dexp"](x)
                        - ops["so3_exp"](x))),
    ("lemmas", "lemma_rotation_identity_plus_dexp_hat", 1e-10, _LEMMA_ROTVEC,
     lambda ops, x, _: (np.eye(3) + ops["so3_dexp"](x) @ hat3(x)
                        - ops["so3_exp"](x))),
    ("lemmas", "lemma_screw_dexpinv_neg_then_dexp", 1e-10, _LEMMA_SCREW,
     lambda ops, s, _: (ops["se3_dexp_inv"](-s) @ ops["se3_dexp"](s)
                        - Ad6(ops["se3_exp"](s)))),
    ("lemmas", "lemma_screw_dexp_then_dexpinv_neg", 1e-10, _LEMMA_SCREW,
     lambda ops, s, _: (ops["se3_dexp"](s) @ ops["se3_dexp_inv"](-s)
                        - Ad6(ops["se3_exp"](s)))),
    ("lemmas", "lemma_screw_identity_plus_ad_dexp", 1e-10, _LEMMA_SCREW,
     lambda ops, s, _: (np.eye(6) + ad6(s) @ ops["se3_dexp"](s)
                        - Ad6(ops["se3_exp"](s)))),
    ("lemmas", "lemma_screw_identity_plus_dexp_ad", 1e-10, _LEMMA_SCREW,
     lambda ops, s, _: (np.eye(6) + ops["se3_dexp"](s) @ ad6(s)
                        - Ad6(ops["se3_exp"](s)))),
]

VERIFY_SUITES = ("all", "so3", "se3", "cayley", "derivatives", "lemmas")


# The operations the checks call, each a fault-injection target; this is not
# every export, since a target that no check calls could not fail verify.
_VERIFY_OPS = (
    "so3_exp", "so3_log", "so3_dexp", "so3_dexp_inv", "so3_ddexp",
    "so3_ddexp_inv", "so3_cay",
    "se3_exp", "se3_log", "se3_dexp", "se3_dexp_inv", "se3_dexp_adform",
    "se3_dexp_inv_adform", "se3_ddexp", "se3_ddexp_inv", "se3_cay",
    "se3_dcay", "se3_dcay_inv", "se3_ddcay", "se3_ddcay_inv", "adjoint_cay",
)


def _verify_ops() -> dict:
    """Operations under test, routed through one table so a fault can be
    injected for harness self-tests without touching the library."""
    ops = {name: getattr(so3 if name.startswith("so3_") else se3, name)
           for name in _VERIFY_OPS}
    fault = os.environ.get(_FAULT_ENV, "")
    if fault:
        target = fault if fault in ops else "so3_dexp"
        clean = ops[target]

        def faulty(*args, _clean=clean):
            out = np.array(_clean(*args), dtype=float)
            out.flat[0] += 1e-6
            return out

        ops[target] = faulty
    return ops


def cmd_verify(args) -> int:
    ops = _verify_ops()
    results = []
    for index, (suite, name, tol, sample, residual) in enumerate(_CHECKS):
        if args.suite != "all" and suite != args.suite:
            continue
        rng = np.random.default_rng((args.seed, index))
        worst = -1.0
        worst_x = worst_y = None
        crash = None
        for _ in range(args.n):
            try:
                if sample is None:
                    gap, x, y = residual(ops, rng)
                else:
                    x, y = sample(rng)
                    gap = residual(ops, x, y)
                value = _max_abs(gap)
            except Exception as err:  # noqa: BLE001 - an injected fault can
                # make intermediates invalid; that is a failing check, not a
                # harness crash
                if crash is None:
                    crash = str(err)
                value, x, y = math.inf, None, None
            if value > worst:
                worst, worst_x, worst_y = value, x, y
        results.append({
            "suite": suite,
            "check": name,
            "samples": args.n,
            "max_residual": worst,
            "tolerance": tol,
            "status": "pass" if worst < tol else "fail",
            "worst_x": _fmt_vec(worst_x) if worst_x is not None else "",
            "worst_y": _fmt_vec(worst_y) if worst_y is not None else "",
            "crash": crash,
        })

    failures = [r for r in results if r["status"] == "fail"]
    checks_payload = []
    for r in results:
        entry = dict(r)
        if not math.isfinite(entry["max_residual"]):
            entry["max_residual"] = None
        checks_payload.append(entry)
    payload = {
        "command": "verify",
        "suite": args.suite,
        "n": args.n,
        "seed": args.seed,
        "status": "fail" if failures else "pass",
        "checks": checks_payload,
    }
    comments = [
        f"# liegroup-maps verify {args.suite} --n {args.n} --seed {args.seed}",
        _timestamp_comment(),
    ]
    header = ["suite", "check", "samples", "max_residual", "tolerance",
              "status", "worst_x", "worst_y"]
    rows = [[r["suite"], r["check"], str(r["samples"]),
             format(r["max_residual"], ".3e"),
             format(r["tolerance"], ".1e"), r["status"],
             _quote(r["worst_x"]), _quote(r["worst_y"])]
            for r in results]
    _emit(args, payload, comments, header, rows)

    for r in failures:
        if r["crash"] is not None:
            print(f"verify failure in {r['check']}: check raised: "
                  f"{r['crash']}", file=sys.stderr)
            continue
        rerun = f"--x {r['worst_x']}"
        if r["worst_y"]:
            rerun += f" --y {r['worst_y']}"
        print(f"verify failure in {r['check']}: max residual "
              f"{r['max_residual']:.3e} exceeds {r['tolerance']:.1e}; "
              f"worst case {rerun}", file=sys.stderr)
    return EXIT_VERIFY_FAILURE if failures else EXIT_OK


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

INTEGRATE_PROBLEMS = ("constant_twist", "heavy_top", "beam_helix",
                      "beam_varying")

TRAJECTORY_COLUMNS = ["t", "r1", "r2", "r3",
                      "R11", "R12", "R13", "R21", "R22", "R23",
                      "R31", "R32", "R33",
                      "inv_drift_orth", "inv_drift_energy"]


def _cli_problem(args):
    """The named problem and the method it runs with.  A beam is a body
    strain over the arclength ``--t-end`` and always steps piecewise;
    ``--method`` does not apply to it."""
    if args.problem == "beam_helix":
        return _beam_problem(helix_strain(), args.problem), "piecewise"
    if args.problem == "beam_varying":
        return (_beam_problem(varying_strain(args.t_end), args.problem),
                "piecewise")
    return make_problem(args.problem), args.method


def _trajectory_rows(traj):
    """One row per sample matching TRAJECTORY_COLUMNS; None marks blanks."""
    energy = (traj.invariant_drift("energy")
              if "energy" in traj.invariant_names else None)
    rows = []
    for k, t in enumerate(traj.times):
        pose = traj.poses[k]
        row = [float(t)]
        row.extend(float(v) for v in pose[:3, 3])
        row.extend(float(v) for v in pose[:3, :3].ravel())
        row.append(float(traj.orth_drift[k]))
        row.append(float(energy[k]) if energy is not None else None)
        rows.append(row)
    return rows


def cmd_integrate(args) -> int:
    problem, method = _cli_problem(args)
    error = None
    try:
        traj = integrate(problem, method=method, map_kind=args.map, h=args.h,
                         t_end=args.t_end)
    except IntegrationError as err:
        traj = err.partial
        error = str(err)

    rows = _trajectory_rows(traj)
    payload = {
        "command": "integrate",
        "parameters": {"problem": args.problem, "method": args.method,
                       "map": traj.map_kind, "h": args.h,
                       "t_end": args.t_end},
        "columns": TRAJECTORY_COLUMNS,
        "rows": rows,
        "error": error,
    }
    comments = [
        f"# liegroup-maps integrate {args.problem} --method {args.method}"
        f" --map {traj.map_kind} --h {_fmt(args.h)}"
        f" --t-end {_fmt(args.t_end)}",
        _timestamp_comment(),
    ]
    if method == "piecewise":
        comments.append("# beam problem: t is arclength, h the segment "
                        "size; --method does not apply")
    _emit(args, payload, comments, TRAJECTORY_COLUMNS,
          ([_cell(v) for v in row] for row in rows),
          [f"# error: {error}"] if error else [])

    if error:
        print(f"integration failed: {error}", file=sys.stderr)
        return EXIT_INTEGRATION_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

_EXACT_FLOOR = 1e-11


def cmd_convergence(args) -> int:
    try:
        h_list = [float(p) for p in args.h_list.split(",")]
    except ValueError:
        raise CliError(f"--h-list expects comma-separated numbers, "
                       f"got {args.h_list!r}")

    problem, method = _cli_problem(args)
    result = convergence_study(problem, [method], args.map, h_list,
                               args.t_end)[method]
    h_sorted = result.step_sizes
    at_floor = [err < _EXACT_FLOOR for err in result.errors]
    rows, csv_rows = [], []
    for k, (h, err) in enumerate(zip(h_sorted, result.errors)):
        if at_floor[k]:
            order = order_text = "exact"
        elif k == 0:
            order, order_text = None, ""
        else:
            order = result.pairwise_orders[k - 1]
            order_text = format(order, ".3f")
        rows.append([h, err, order])
        csv_rows.append([_fmt(h), format(err, ".6e"), order_text])

    slope = None if any(at_floor) else result.slope
    columns = ["h", "err_final_pose", "observed_order"]
    payload = {
        "command": "convergence",
        "parameters": {"problem": args.problem, "method": args.method,
                       "map": args.map, "h_list": h_sorted,
                       "t_end": args.t_end},
        "columns": columns,
        "rows": rows,
        "least_squares_order": slope,
    }
    comments = [
        f"# liegroup-maps convergence {args.problem}"
        f" --method {args.method} --map {args.map}"
        f" --h-list {','.join(_fmt(h) for h in h_sorted)}"
        f" --t-end {_fmt(args.t_end)}",
        _timestamp_comment(),
    ]
    trailing = ["# least-squares order: "
                + ("n/a (errors at roundoff floor)" if slope is None
                   else format(slope, ".3f"))]
    _emit(args, payload, comments, columns, csv_rows, trailing)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _add_problem_args(parser, default_problem: str) -> None:
    parser.add_argument("--problem", choices=INTEGRATE_PROBLEMS,
                        default=default_problem)
    parser.add_argument("--method", choices=("mk_rk4", "implicit_midpoint"),
                        default="mk_rk4")
    parser.add_argument("--map", choices=("exp", "exponential", "cay",
                                          "cayley"), default="exponential")


def _add_output_args(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--output", metavar="PATH",
                        help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liegroup-maps",
        description="Evaluate, verify, and integrate rotation and "
                    "rigid-motion coordinate maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one map at one input")
    p_eval.add_argument("map", choices=sorted(_EVAL_TABLE))
    p_eval.add_argument("--x", required=True,
                        help="comma-separated input vector (3 or 6 entries)")
    p_eval.add_argument("--y",
                        help="comma-separated direction, for directional "
                             "derivatives only")
    _add_output_args(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify",
                              help="run randomized identity suites")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    p_verify.add_argument("--n", type=int, default=200,
                          help="samples per check (default 200)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="random seed (default 0; the environment "
                               "variable LIEGROUP_MAPS_SEED wins)")
    _add_output_args(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_int = sub.add_parser("integrate",
                           help="run a trajectory or beam reconstruction")
    _add_problem_args(p_int, "constant_twist")
    p_int.add_argument("--h", type=float, default=1e-3,
                       help="step size (segment size for beams)")
    p_int.add_argument("--t-end", type=float, default=1.0, dest="t_end",
                       help="final time (arclength for beams)")
    _add_output_args(p_int)
    p_int.set_defaults(func=cmd_integrate)

    p_conv = sub.add_parser("convergence",
                            help="run a step-size refinement study")
    _add_problem_args(p_conv, "heavy_top")
    p_conv.add_argument("--h-list", required=True, dest="h_list",
                        help="comma-separated step sizes, at least three")
    p_conv.add_argument("--t-end", type=float, default=1.0, dest="t_end")
    _add_output_args(p_conv)
    p_conv.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    env_seed = os.environ.get(_SEED_ENV)
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"{_SEED_ENV} must be an integer, got {env_seed!r}",
                  file=sys.stderr)
            return EXIT_BAD_INPUT

    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except ChartDomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
