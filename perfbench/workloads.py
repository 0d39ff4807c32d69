"""The three benchmark workloads: seeded inputs, one timed unit, and its gate.

A workload builds a fixed ensemble of unit inputs from the seed.  The timed
phase cycles over that ensemble in whole passes, so every per-unit average
is an exact ratio of counts that repeat from run to run.

``liegroup_maps`` is imported lazily, on first use, so the set-up probe can
time the import itself.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

STEP = 1e-3
# Energy, vertical momentum and orthogonality tolerances of acceptance
# criterion 10 (RK4 on the heavy top).
INVARIANT_TOL = 1e-8
ORTH_TOL = 1e-11
# Final-pose gap between implicit midpoint on the Cayley chart and RK4 on the
# exponential chart after 50 steps; the worst of 768 seeded draws is 7.4e-7.
MIDPOINT_POSE_TOL = 1e-5
GRAVITY_AXIS = np.array([0.0, 0.0, 1.0])   # default chi, with mgl = 1


def _lib():
    return importlib.import_module("liegroup_maps")


@dataclass(frozen=True)
class Top:
    """One heavy-top trajectory input; ``problem`` is built untimed."""

    inertia: np.ndarray
    momentum: np.ndarray
    problem: object
    reference: np.ndarray | None = None   # final pose of the RK4 reference


def heavy_top(inertia, momentum) -> Top:
    inertia = np.asarray(inertia, dtype=float)
    momentum = np.asarray(momentum, dtype=float)
    problem = _lib().make_heavy_top_problem(inertia=inertia, momentum0=momentum)
    return Top(inertia, momentum, problem)


def _orth_drift(rots: np.ndarray) -> float:
    gram = np.einsum("nji,njk->nik", rots, rots)
    return float(np.max(np.abs(gram - np.eye(3))))


class IntegratorWorkload:
    """An ensemble of heavy-top trajectories run through ``integrate``.

    The unit is one trajectory and the work is its number of steps.
    """

    ensemble = 64

    def __init__(self, name: str, method: str, map_kind: str, steps: int):
        self.name = name
        self.method = method
        self.map_kind = map_kind
        self.steps = steps
        self.traces_solve = method == "implicit_midpoint"

    def build(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [heavy_top(rng.uniform(0.5, 3.0, 3), rng.standard_normal(3))
                for _ in range(self.ensemble)]

    def prepare(self, units: list) -> list:
        """Attach untimed references: RK4 on the exponential chart."""
        if self.method == "mk_rk4":
            return units
        return [replace(unit, reference=_lib().integrate(
                    unit.problem, "mk_rk4", "exponential", h=STEP,
                    t_end=self.steps * STEP).final_pose)
                for unit in units]

    def warm_up(self) -> None:
        _lib().integrate(_lib().make_heavy_top_problem(), self.method,
                         self.map_kind, h=STEP, t_end=STEP)

    def run(self, unit: Top):
        return _lib().integrate(unit.problem, self.method, self.map_kind,
                                h=STEP, t_end=self.steps * STEP)

    def work(self, traj) -> int:
        return self.steps

    def digest(self, traj) -> bytes:
        return hashlib.sha256(traj.poses.tobytes() + traj.aux.tobytes()).digest()

    def gate(self, unit: Top, traj) -> str | None:
        """Reason the trajectory fails its correctness gate, or None."""
        poses, momenta = traj.poses, traj.aux
        if poses.shape != (self.steps + 1, 4, 4) or momenta.shape != (
                self.steps + 1, 3):
            return f"trajectory has shape {poses.shape}, {momenta.shape}"
        if not (np.isfinite(poses).all() and np.isfinite(momenta).all()):
            return "trajectory has non-finite entries"
        orth = _orth_drift(poses[:, :3, :3])
        if orth >= ORTH_TOL:
            return f"orthogonality drift {orth:.3e}"
        if self.method == "mk_rk4":
            vertical = poses[:, 2, :3]          # R^T e3, one row per sample
            energy = (0.5 * np.sum(momenta * momenta / unit.inertia, axis=1)
                      + vertical @ GRAVITY_AXIS)
            spin = np.sum(momenta * vertical, axis=1)
            for label, values in (("energy", energy),
                                  ("vertical momentum", spin)):
                drift = float(np.max(np.abs(values - values[0])))
                if drift >= INVARIANT_TOL:
                    return f"{label} drift {drift:.3e}"
            return None
        gap = float(np.max(np.abs(poses[-1] - unit.reference)))
        if gap >= MIDPOINT_POSE_TOL:
            return f"final pose off the RK4 reference by {gap:.3e}"
        return None

    def instrument(self, units: list, wrap_rate) -> list:
        """The same units with each field's rate wrapped by ``wrap_rate``."""
        traced = []
        for unit in units:
            field = unit.problem.field
            problem = replace(unit.problem,
                              field=replace(field, rate=wrap_rate(field.rate)))
            traced.append(replace(unit, problem=problem))
        return traced


class VerifyWorkload:
    """Repeated in-process ``verify all`` invocations, one seed each.

    The unit is one invocation and the work is its check-samples (checks
    times ``--n``), read back from the JSON payload.
    """

    name = "verify_all"
    ensemble = 32
    samples = 20
    steps = 0              # integrator steps per unit
    traces_solve = False

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.calls = 0

    def build(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.integers(0, 2**31 - 1, self.ensemble)]

    def prepare(self, units: list) -> list:
        return units

    def _verify(self, seed: int, n: int) -> tuple:
        # A fresh file per call: truncating a just-written file makes ext4
        # flush it first (about 50 ms), which no single CLI call pays.
        self.calls += 1
        output = self.scratch / f"verify-{self.calls}.json"
        cli = importlib.import_module("liegroup_maps.cli")
        code = cli.main(["verify", "all", "--n", str(n), "--seed", str(seed),
                         "--format", "json", "--output", str(output)])
        payload = output.read_bytes()
        output.unlink()
        return code, payload

    def warm_up(self) -> None:
        self._verify(0, 1)

    def run(self, seed: int):
        return self._verify(seed, self.samples)

    def work(self, out) -> int:
        return sum(check["samples"] for check in json.loads(out[1])["checks"])

    def digest(self, out) -> bytes:
        return hashlib.sha256(out[1]).digest()

    def gate(self, seed: int, out) -> str | None:
        code, payload = out
        if code != 0:
            return f"verify exited with code {code}"
        report = json.loads(payload)
        failing = [c["check"] for c in report["checks"] if c["status"] != "pass"]
        if report["status"] != "pass" or failing or not report["checks"]:
            return f"verify status {report['status']}, failing {failing}"
        if any(c["samples"] != self.samples for c in report["checks"]):
            return "a check ran the wrong number of samples"
        return None

    def instrument(self, units: list, wrap_rate) -> list:
        return units


def make(name: str, scratch: Path):
    """Workload by name; ``scratch`` is a directory inside the checkout."""
    if name == "rk4_exp":
        return IntegratorWorkload(name, "mk_rk4", "exponential", steps=100)
    if name == "midpoint_cay":
        return IntegratorWorkload(name, "implicit_midpoint", "cayley",
                                  steps=50)
    if name == "verify_all":
        return VerifyWorkload(Path(scratch))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("rk4_exp", "midpoint_cay", "verify_all")
