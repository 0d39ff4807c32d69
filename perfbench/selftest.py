"""Self-test of the benchmark's correctness gates and tracing.

    python3 perfbench/selftest.py

Run from the root of a source checkout; the library is imported from
``src/`` and left unchanged.  Checks that

1. ``verify_all`` with ``LIEGROUP_MAPS_FAULT_INJECT=se3_exp`` fails every
   unit (fail_frac = 1);
2. a heavy-top trajectory with NaN momentum fails the ``rk4_exp`` gate;
3. on every workload, a traced pass gives byte-identical ``verify`` payloads
   and identical trajectories to an untraced pass, two traced passes give
   identical count metrics, and the counts show the workload split.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Ledger, traced_passes  # noqa: E402

SEED = 20240607
UNITS = 4

# metric -> workloads on which it must be 0; elsewhere it must be positive
SPLIT = {
    "scalars.calls_per_unit": ("midpoint_cay",),
    "integrate.newton_iters_per_step": ("rk4_exp", "verify_all"),
    "oracle.calls_per_unit": ("rk4_exp", "midpoint_cay"),
}


def fault_injection_fails_every_unit(scratch: Path) -> str | None:
    workload = workloads.make("verify_all", scratch)
    ledger = Ledger(workload)
    os.environ["LIEGROUP_MAPS_FAULT_INJECT"] = "se3_exp"
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            ledger.passes(workload.build(SEED)[:UNITS], 0.0)
    finally:
        del os.environ["LIEGROUP_MAPS_FAULT_INJECT"]
    if ledger.failed != ledger.attempted:
        return f"fail_frac {ledger.failed}/{ledger.attempted}, expected 1"
    return None


def nan_momentum_fails_rk4_gate(scratch: Path) -> str | None:
    workload = workloads.make("rk4_exp", scratch)
    ledger = Ledger(workload)
    ledger.run(0, workloads.heavy_top([2.0, 2.0, 1.0], [float("nan"), 0.1, 1.0]))
    if ledger.failed != 1:
        return "a NaN trajectory passed the gate"
    return None


def tracing_changes_nothing(name: str, scratch: Path) -> str | None:
    workload = workloads.make(name, scratch)
    units = workload.prepare(workload.build(SEED)[:UNITS])
    ledger = Ledger(workload)
    ledger.passes(units, 0.0)
    first = traced_passes(ledger, units, 0.0)[0]
    second = traced_passes(ledger, units, 0.0)[0]
    if ledger.failed:
        return f"{ledger.failed} units failed or changed output: {ledger.errors}"
    moved = [m for m in tracing.COUNT_METRICS if first[m] != second[m]]
    if moved:
        return f"count metrics differ between traced passes: {moved}"
    for metric, zero_on in SPLIT.items():
        if (first[metric] == 0.0) != (name in zero_on):
            return f"{metric} = {first[metric]} breaks the workload split"
    return None


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        scratch = Path(tmp)
        checks = [("fault injection fails verify_all",
                   lambda: fault_injection_fails_every_unit(scratch)),
                  ("NaN momentum fails the rk4_exp gate",
                   lambda: nan_momentum_fails_rk4_gate(scratch))]
        checks += [(f"tracing leaves {name} unchanged",
                    lambda name=name: tracing_changes_nothing(name, scratch))
                   for name in workloads.NAMES]
        for label, check in checks:
            problem = check()
            failures += problem is not None
            print(f"{'FAIL' if problem else 'ok  '} {label}"
                  + (f": {problem}" if problem else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
