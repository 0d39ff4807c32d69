"""Benchmark of liegroup-maps: integrator ensembles and ``verify`` throughput.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rk4_exp --seed 1 --seconds 10 --trace 0

Workloads: ``rk4_exp``, ``midpoint_cay`` and ``verify_all`` (see
``perfbench/README.md``).  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced run.
The library is imported from ``src/``; nothing is installed.

Output: one JSON line with the environment and the record-only figures, then
the result as the last line::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

The exit code is 0 when a result was printed, whether or not it is correct,
and nonzero (with no result) when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# workloads.NAMES; not imported, so that this process never loads NumPy
WORKLOADS = ("rk4_exp", "midpoint_cay", "verify_all")
# Fresh interpreters timed for setup_s; the first is discarded because it
# may write the bytecode cache.
SETUP_PROBES = 11
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {
    "throughput": "1/s",
    "unit_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # The CLI reads these; the benchmark decides seed and faults itself.
    env.pop("LIEGROUP_MAPS_SEED", None)
    env.pop("LIEGROUP_MAPS_FAULT_INJECT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts worker processes against one shared deadline."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = child_env()

    def worker(self, *args: str) -> str:
        command = [sys.executable, str(HERE / "worker.py"), *args,
                   "--scratch", self.scratch]
        remaining = self.deadline - time.monotonic()
        try:
            done = subprocess.run(command, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"worker timed out: {' '.join(args)}") from err
        if done.returncode != 0:
            raise BenchError(f"worker failed ({done.returncode}): "
                             f"{done.stderr.strip()[-2000:]}")
        return done.stdout.strip().splitlines()[-1]

    def setup_s(self, workload: str) -> float:
        times = [float(self.worker("setup", "--workload", workload))
                 for _ in range(SETUP_PROBES + 1)]
        return statistics.median(times[1:])


def bench(args, runner: Runner) -> tuple[dict, dict]:
    setup = None if args.trace else runner.setup_s(args.workload)
    out = json.loads(runner.worker(
        "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)))
    attempted, failed = out["attempted"], out["failed"]
    if args.trace:
        units = out["units"]
        metrics = out["metrics"]
    else:
        units = UNITS
        metrics = dict(out["metrics"], setup_s=setup,
                       peak_rss_mb=out["peak_rss_mb"],
                       pass_frac=(attempted - failed) / attempted)
    header = {
        "env": {"python": out["python"], "numpy": out["numpy"],
                "nproc": os.cpu_count(), "seed": args.seed,
                "commit": git_commit(), "workload": args.workload,
                "seconds": args.seconds, "trace": args.trace,
                **{var: runner.env[var] for var in THREAD_VARS}},
        "record": dict(out["record"], fail_frac=failed / attempted,
                       errors=out["errors"]),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return header, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "liegroup_maps" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2

    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        header, result = bench(args, Runner(scratch))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(header))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
