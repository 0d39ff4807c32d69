"""End-to-end exercises of the command-line interface."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liegroup_maps
from liegroup_maps import (
    DEFAULT_CONSTANT_TWIST,
    hat3,
    helix_strain,
    se3_ddexp,
    se3_exp,
    so3_cay,
    so3_exp,
)
from liegroup_maps.cli import (
    TRAJECTORY_COLUMNS,
    _EVAL_TABLE,
    _verify_ops,
    main,
)
from liegroup_maps.oracle import series_exp


def _payload_lines(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _rows(text):
    return list(csv.reader(_payload_lines(text)))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_quarter_turn(capsys):
    code, out, _ = _run(capsys, ["eval", "exp_so3", "--x", "0,0,1.5707963"])
    assert code == 0
    header, row = _rows(out)
    assert header == ["m11", "m12", "m13", "m21", "m22", "m23",
                      "m31", "m32", "m33"]
    matrix = np.array([float(v) for v in row]).reshape(3, 3)
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(matrix, expected, atol=1e-6)


def test_eval_unhalved_differential_at_zero(capsys):
    code, out, _ = _run(capsys, ["eval", "dcay_so3", "--x", "0,0,0"])
    assert code == 0
    matrix = np.array([float(v) for v in _rows(out)[1]]).reshape(3, 3)
    np.testing.assert_array_equal(matrix, 2.0 * np.eye(3))


def test_eval_json_matches_library(capsys):
    code, out, _ = _run(capsys, ["eval", "ddexp_se3",
                                 "--x", "0.1,0.2,0.3,1,2,3",
                                 "--y", "1,0,0,0,0,0", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["convention_notes", "input", "map", "output"]
    assert payload["map"] == "ddexp_se3"
    expected = se3_ddexp(np.array([0.1, 0.2, 0.3, 1.0, 2.0, 3.0]),
                         np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(np.array(payload["output"]), expected,
                               rtol=0.0, atol=0.0)


def test_eval_domain_violation_exits_2(capsys):
    code, _, err = _run(capsys, ["eval", "dexpinv_so3", "--x", "0,0,6.2832"])
    assert code == 2
    assert "domain" in err


@pytest.mark.parametrize("x", ["nan,0,0", "1e200,0,0"])
def test_eval_non_finite_angle_exits_2(capsys, x):
    code, out, err = _run(capsys, ["eval", "exp_so3", "--x", x])
    assert code == 2
    assert out == ""
    assert err.startswith("domain error:") and "must be finite" in err


@pytest.mark.parametrize("x", ["nan,0,0", "1e200,0,0"])
def test_eval_cayley_non_finite_gibbs_exits_2(capsys, x):
    code, out, err = _run(capsys, ["eval", "cay_so3", "--x", x])
    assert code == 2
    assert out == ""
    assert err.startswith("domain error:") and "|g|**2" in err


@pytest.mark.parametrize("name", ["exp_se3", "cay_se3"])
def test_eval_non_finite_translation_exits_2(capsys, name):
    code, out, err = _run(capsys, ["eval", name, "--x", "0,0,0,nan,0,0"])
    assert code == 2
    assert out == ""
    assert err.startswith("domain error:") and "translation" in err


def test_eval_wrong_arity_exits_2(capsys):
    code, _, err = _run(capsys, ["eval", "exp_so3", "--x", "1,2"])
    assert code == 2
    assert "3 components" in err


def test_eval_direction_flag_handling(capsys):
    code, _, err = _run(capsys, ["eval", "ddexp_so3", "--x", "0,0,1"])
    assert code == 2
    assert "--y" in err
    code, _, err = _run(capsys, ["eval", "exp_so3", "--x", "0,0,1",
                                 "--y", "1,0,0"])
    assert code == 2


def test_eval_unknown_map_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "no_such_map", "--x", "0,0,0"])
    assert excinfo.value.code == 2


def test_eval_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = _run(capsys, ["eval", "exp_so3", "--x", "0,0,0",
                                 "--output", str(target)])
    assert code == 0
    assert out == ""
    matrix = np.array([float(v) for v in _rows(target.read_text())[1]])
    np.testing.assert_array_equal(matrix.reshape(3, 3), np.eye(3))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# sha256 of the sorted (name, function, size, takes --y, note) rows of the
# eval table and the sorted verify operation names
_PINNED_TABLES_SHA256 = (
    "b31a9110c085540623927a84ad644aca490ba55b400131ad14d8e18c7d1965b5")


def test_cli_tables_are_pinned():
    """Both tables are generated from naming rules; this digest pins every
    map name, the library function it calls, its input size, whether it
    takes a direction and its note, and the set of fault targets."""
    entries = sorted([name, func.__name__, size, directed, note]
                     for name, (func, size, directed, note)
                     in _EVAL_TABLE.items())
    tables = json.dumps([entries, sorted(_verify_ops())])
    digest = hashlib.sha256(tables.encode()).hexdigest()
    assert digest == _PINNED_TABLES_SHA256


def test_verify_so3_suite_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "so3", "--n", "25", "--seed", "11"])
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["suite", "check", "samples", "max_residual",
                       "tolerance", "status", "worst_x", "worst_y"]
    body = rows[1:]
    assert len(body) == 8
    assert all(row[5] == "pass" for row in body)


def test_verify_all_runs_every_check(capsys):
    code, out, _ = _run(capsys, ["verify", "all", "--n", "5"])
    assert code == 0
    assert len(_rows(out)) == 1 + 39


# sha256 of the (suite, check, tolerance, worst_x, worst_y) rows of
# ``verify all --n 1 --seed 42``
_PINNED_DRAWS_SHA256 = (
    "c5eccf72c3cda4245e761eb0b522facc73b51ae09eecf4c536d0a5375b6c72a0")


def test_verify_draws_are_pinned(capsys):
    """With one sample per check the worst case is the sample itself, so this
    digest pins every check's sampled inputs, in order, and none of the
    BLAS-dependent residuals.  A change of NumPy's ``Generator`` streams is
    the one legitimate reason to re-capture the constant; anything else that
    moves it changed which inputs the checks draw."""
    code, out, _ = _run(capsys, ["verify", "all", "--n", "1", "--seed", "42",
                                 "--format", "json"])
    assert code == 0
    rows = [[c["suite"], c["check"], c["tolerance"], c["worst_x"], c["worst_y"]]
            for c in json.loads(out)["checks"]]
    assert len(rows) == 39
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _PINNED_DRAWS_SHA256


def test_verify_payload_deterministic(capsys):
    _, first, _ = _run(capsys, ["verify", "cayley", "--n", "10", "--seed", "3"])
    _, second, _ = _run(capsys, ["verify", "cayley", "--n", "10", "--seed", "3"])
    assert _payload_lines(first) == _payload_lines(second)
    assert any(line.startswith("# generated:") for line in first.splitlines())


def test_verify_seed_changes_draws(capsys):
    _, first, _ = _run(capsys, ["verify", "so3", "--n", "10", "--seed", "1"])
    _, second, _ = _run(capsys, ["verify", "so3", "--n", "10", "--seed", "2"])
    assert _payload_lines(first) != _payload_lines(second)


def test_env_seed_overrides_flag(capsys, monkeypatch):
    _, baseline, _ = _run(capsys, ["verify", "so3", "--n", "10",
                                   "--seed", "3"])
    monkeypatch.setenv("LIEGROUP_MAPS_SEED", "3")
    _, overridden, _ = _run(capsys, ["verify", "so3", "--n", "10",
                                     "--seed", "999"])
    assert _payload_lines(baseline) == _payload_lines(overridden)


def test_fault_injection_fails_verify(capsys, monkeypatch):
    monkeypatch.setenv("LIEGROUP_MAPS_FAULT_INJECT", "1")
    code, out, err = _run(capsys, ["verify", "so3", "--n", "5"])
    assert code == 1
    assert any(row[5] == "fail" for row in _rows(out)[1:])
    assert "verify failure" in err
    assert "--x" in err  # worst case echoed re-runnably


# the frame-transport lemmas call these through the verify table too, so a
# fault in any of them must fail the lemmas suite on its own
_LEMMA_OPS = ("so3_exp", "so3_dexp", "so3_dexp_inv", "se3_exp", "se3_dexp",
              "se3_dexp_inv")


@pytest.mark.parametrize("target, suite", [
    *(pytest.param(target, "all", id=target) for target in _verify_ops()),
    *(pytest.param(target, "lemmas", id=f"lemmas-{target}")
      for target in _LEMMA_OPS)])
def test_every_fault_target_fails_verify(capsys, monkeypatch, target, suite):
    # an operation that no check calls would let its injected fault pass
    monkeypatch.setenv("LIEGROUP_MAPS_FAULT_INJECT", target)
    code, _, err = _run(capsys, ["verify", suite, "--n", "3"])
    assert code == 1
    assert ("verify failure" if suite == "all"
            else "verify failure in lemma_") in err


def test_fault_injection_leaves_library_untouched(capsys, monkeypatch):
    monkeypatch.setenv("LIEGROUP_MAPS_FAULT_INJECT", "so3_exp")
    code, _, _ = _run(capsys, ["verify", "so3", "--n", "5"])
    assert code == 1
    x = np.array([0.3, -0.4, 0.5])
    residual = np.max(np.abs(so3_exp(x) - series_exp(hat3(x))))
    assert residual < 1e-13


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_constant_twist_schema_and_values(capsys):
    code, out, _ = _run(capsys, ["integrate", "--problem", "constant_twist",
                                 "--h", "0.25", "--t-end", "1"])
    assert code == 0
    rows = _rows(out)
    assert rows[0] == TRAJECTORY_COLUMNS
    assert len(rows) == 1 + 5  # t = 0, 0.25, ..., 1
    final = rows[-1]
    assert final[-1] == ""  # no energy invariant for a constant twist
    pose = np.eye(4)
    pose[:3, 3] = [float(v) for v in final[1:4]]
    pose[:3, :3] = np.array([float(v) for v in final[4:13]]).reshape(3, 3)
    np.testing.assert_allclose(pose, se3_exp(1.0 * DEFAULT_CONSTANT_TWIST),
                               atol=1e-12)


def test_integrate_heavy_top_energy_column(capsys):
    code, out, _ = _run(capsys, ["integrate", "--problem", "heavy_top",
                                 "--h", "0.01", "--t-end", "0.05"])
    assert code == 0
    body = _rows(out)[1:]
    assert float(body[0][-1]) == 0.0
    drifts = [float(row[-1]) for row in body]
    assert all(d < 1e-10 for d in drifts)


def test_integrate_failure_writes_partial_and_exits_3(capsys):
    code, out, err = _run(capsys, ["integrate", "--problem", "constant_twist",
                                   "--h", "24", "--t-end", "24"])
    assert code == 3
    assert "integration failed" in err
    rows = _rows(out)
    assert len(rows) == 2  # header plus the initial sample
    assert any(line.startswith("# error:") for line in out.splitlines())


def test_integrate_beam_single_segment_exact(capsys):
    code, out, _ = _run(capsys, ["integrate", "--problem", "beam_helix",
                                 "--h", "2", "--t-end", "2"])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 3  # header, root, tip
    tip = rows[-1]
    pose = np.eye(4)
    pose[:3, 3] = [float(v) for v in tip[1:4]]
    pose[:3, :3] = np.array([float(v) for v in tip[4:13]]).reshape(3, 3)
    np.testing.assert_allclose(pose, se3_exp(2.0 * helix_strain()(1.0)),
                               atol=1e-12)


@pytest.mark.parametrize("argv", [
    ["integrate", "--problem", "beam_helix", "--h", "0.1", "--t-end", "inf"],
    ["convergence", "--problem", "heavy_top", "--h-list", "0.1,0.05,0.025",
     "--t-end", "inf"],
], ids=["integrate_beam", "convergence"])
def test_non_finite_end_time_exits_2(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert "finite and positive" in err


def test_overflowing_step_count_exits_2(capsys):
    code, _, err = _run(capsys, ["integrate", "--problem", "heavy_top",
                                 "--h", "1e-300", "--t-end", "1e300"])
    assert code == 2
    assert err.startswith("error:") and "overflows" in err


def test_integrate_json_mirror(capsys):
    code, out, _ = _run(capsys, ["integrate", "--problem", "constant_twist",
                                 "--h", "0.5", "--t-end", "1",
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == TRAJECTORY_COLUMNS
    assert payload["error"] is None
    assert len(payload["rows"]) == 3
    assert payload["rows"][-1][-1] is None  # blank energy cell


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


def test_convergence_exact_marker_for_constant_twist(capsys):
    code, out, _ = _run(capsys, ["convergence", "--problem", "constant_twist",
                                 "--method", "mk_rk4", "--map", "exp",
                                 "--h-list", "0.2,0.1,0.05", "--t-end", "1"])
    assert code == 0
    body = _rows(out)[1:]
    assert [row[2] for row in body] == ["exact", "exact", "exact"]
    assert any("roundoff floor" in line for line in out.splitlines())


def test_convergence_midpoint_observed_order(capsys):
    code, out, _ = _run(capsys, ["convergence", "--problem", "heavy_top",
                                 "--method", "implicit_midpoint",
                                 "--h-list", "0.02,0.01,0.005",
                                 "--t-end", "0.5"])
    assert code == 0
    body = _rows(out)[1:]
    assert body[0][2] == ""  # no previous error to pair with
    orders = [float(row[2]) for row in body[1:]]
    assert all(1.7 < order < 2.3 for order in orders)


def test_convergence_beam_cayley_second_order(capsys):
    code, out, _ = _run(capsys, ["convergence", "--problem", "beam_varying",
                                 "--map", "cay", "--h-list", "0.5,0.25,0.125",
                                 "--t-end", "2"])
    assert code == 0
    orders = [float(row[2]) for row in _rows(out)[2:]]
    assert len(orders) == 2
    assert all(1.7 < order < 2.3 for order in orders)


def test_convergence_rejects_short_h_list(capsys):
    code, _, err = _run(capsys, ["convergence", "--h-list", "0.1,0.05"])
    assert code == 2
    assert "three" in err


def test_convergence_rejects_nondividing_step(capsys):
    code, _, err = _run(capsys, ["convergence", "--problem", "heavy_top",
                                 "--h-list", "0.008,0.004,0.002",
                                 "--t-end", "0.5"])
    assert code == 2
    assert "does not divide" in err


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def _run_child(args, check=True):
    # the child imports the same package this process imported, installed
    # or from a source checkout
    package_root = str(Path(liegroup_maps.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, "-m", "liegroup_maps", *args],
                          capture_output=True, text=True, check=check, env=env)


def test_non_finite_direction_prints_only_the_domain_error():
    # the direction is checked before any arithmetic, so the child's stderr
    # holds the one domain-error line and no NumPy RuntimeWarning
    out = _run_child(["eval", "ddcay_so3", "--x", "0.3,0.1,0.2",
                      "--y", "inf,0,0"], check=False)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("domain error: direction must be finite, got "
                          "[inf, 0.0, 0.0]\n")


def test_module_entry_point_subprocess():
    out = _run_child(["eval", "cay_so3", "--x", "1,0,0"])
    row = _rows(out.stdout)[1]
    matrix = np.array([float(v) for v in row]).reshape(3, 3)
    np.testing.assert_allclose(matrix, so3_cay(np.array([1.0, 0.0, 0.0])),
                               atol=1e-15)


@pytest.mark.parametrize("argv", [
    ["cay_so3", "--x", "1e200,0,0"],
    ["dcayinv_so3", "--x", "1e200,1e200,0"],
    ["cay_se3", "--x", "1e200,0,0,0,0,0"],
    ["exp_so3", "--x", "1e200,0,0"],
])
def test_overflowing_gibbs_vector_prints_only_the_domain_error(argv):
    # |g|**2 (and on the exponential chart |x|**2) overflows on floats, so
    # the child's stderr holds the one domain-error line and no NumPy
    # RuntimeWarning
    out = _run_child(["eval", *argv], check=False)
    assert out.returncode == 2
    assert out.stdout == ""
    exp_chart = argv[0] == "exp_so3"
    square = "|x|**2" if exp_chart else "|g|**2"
    got = ("rotation angle must be finite, got |x|**2 = inf" if exp_chart
           else "Cayley chart needs a finite |g|**2, got inf")
    assert out.stderr == (f"domain error: {got}: a component is not finite "
                          f"or {square} overflows\n")
