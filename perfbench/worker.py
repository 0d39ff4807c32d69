"""Worker process of the benchmark; ``run.py`` starts it with a pinned
environment.

    worker.py setup --workload NAME --scratch DIR
        Print the seconds from ``import liegroup_maps`` through one warm-up
        call of each library function the workload uses.
    worker.py run --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
        Run the workload and print one JSON line with its metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import time

import numpy as np

import tracer as tracing
import workloads

MAX_ERRORS = 5


class Ledger:
    """Runs units, gates every output and counts failures.

    A unit also fails if its output differs from the first output of the
    same input in this process, which is how a traced pass is checked
    against the untraced ones.
    """

    def __init__(self, workload):
        self.workload = workload
        self.digests: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, index: int, unit) -> tuple[float, int]:
        """Seconds spent in the library call and work completed (0 on
        failure)."""
        workload = self.workload
        start = time.perf_counter()
        try:
            out = workload.run(unit)
        except Exception as err:  # noqa: BLE001 - a raising unit is a failure
            elapsed = time.perf_counter() - start
            return elapsed, self._fail(f"raised {type(err).__name__}: {err}")
        elapsed = time.perf_counter() - start
        reason = workload.gate(unit, out)
        if reason is None:
            digest = workload.digest(out)
            if self.digests.setdefault(index, digest) != digest:
                reason = "output differs from an earlier run of the same input"
        if reason is not None:
            return elapsed, self._fail(reason)
        self.attempted += 1
        return elapsed, workload.work(out)

    def _fail(self, reason: str) -> int:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(reason)
        return 0

    def passes(self, units: list, seconds: float) -> tuple[float, list, int]:
        """Whole passes over ``units`` until ``seconds`` have elapsed (at
        least one).

        Returns the throughput, every unit time and the number of passes.
        The throughput is the work of the units that never failed divided
        by the sum, over the ensemble, of each unit's median time; medians
        keep out stalls caused by other processes on the machine.
        """
        times = [[] for _ in units]
        work = [0] * len(units)
        failed = set()
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            for index, unit in enumerate(units):
                elapsed, work[index] = self.run(index, unit)
                times[index].append(elapsed)
                if not work[index]:
                    failed.add(index)
            passes += 1
        done = sum(w for index, w in enumerate(work) if index not in failed)
        throughput = done / sum(statistics.median(t) for t in times)
        return throughput, [t for per_unit in times for t in per_unit], passes


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def traced_passes(ledger: Ledger, units: list, seconds: float):
    """Whole traced passes; returns the per-layer metrics, the traced
    throughput, the number of units run and the number of passes."""
    workload = ledger.workload
    tracer = tracing.Tracer()
    traced_units = workload.instrument(units, tracer.wrap_rate)
    tracer.install(trace_solve=workload.traces_solve)
    try:
        throughput, unit_times, passes = ledger.passes(traced_units, seconds)
    finally:
        tracer.uninstall()
    count = len(unit_times)
    return (tracer.metrics(count, count * workload.steps), throughput, count,
            passes)


def measure(name: str, seed: int, seconds: float, trace: bool,
            scratch: str) -> dict:
    workload = workloads.make(name, scratch)
    units = workload.prepare(workload.build(seed))
    ledger = Ledger(workload)
    ledger.run(0, units[0])                       # warm-up, untimed but gated
    if not trace:
        throughput, unit_times, passes = ledger.passes(units, seconds)
        metrics = {
            "throughput": throughput,
            "unit_ms_p50": 1e3 * statistics.median(unit_times),
        }
        record = {"unit_ms_p90": 1e3 * _percentile(unit_times, 90),
                  "unit_samples": len(unit_times), "passes": passes}
    else:
        throughput, _, _ = ledger.passes(units, 0.5 * seconds)
        metrics, traced, count, passes = traced_passes(ledger, units,
                                                       0.5 * seconds)
        # 0 when every traced unit failed; the failures are reported anyway
        metrics["trace.overhead_frac"] = (throughput / traced - 1.0
                                          if traced else 0.0)
        record = {"unit_samples": count, "passes": passes}
    return {
        "units": tracing.METRICS if trace else None,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
        "metrics": metrics,
        "record": record,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def setup_seconds(name: str, scratch: str) -> float:
    workload = workloads.make(name, scratch)
    start = time.perf_counter()
    importlib.import_module("liegroup_maps")
    workload.warm_up()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(repr(setup_seconds(args.workload, args.scratch)))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.scratch)
    if not all(math.isfinite(v) for v in result["metrics"].values()):
        print(f"non-finite metric: {result['metrics']}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
