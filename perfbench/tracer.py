"""Per-layer spans recorded from outside the library.

The tracer rebinds module attributes that callers look up at call time, so
no library file changes.  Every binding of a traced function, in every
``liegroup_maps`` submodule, is replaced by one wrapper; a function imported
into three modules is therefore counted once per call, whoever calls it.

Layers and their boundaries:

* ``scalars``: the private kernels of ``scalars`` that ``so3``/``se3`` import.
* ``core``: ``hat3``, counted but not timed (a span would cost more than it).
* ``so3``, ``se3``, ``oracle``: the functions each module lists in ``__all__``.
* ``integrate``: the ``liegroup_maps.integrate`` call, the problem's field
  rate, and ``numpy.linalg.solve`` when the workload asks for it.
* ``cli``: the ``liegroup_maps.cli.main`` call.

A span's self time is its duration minus that of its traced children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

SUBMODULES = ("core", "scalars", "so3", "se3", "integrate", "oracle", "cli")

# Kernels whose series/closed choice is the small-angle seam; the rest of the
# kernels switch at SERIES_WINDOW (``_inv_sinc`` has a narrower window).
_SEAM_KERNELS = ("_sinc", "_sinc_sq_half", "_cot_half_scaled",
                 "_inv_sinc_sq_half")
_INV_SINC_WINDOW = 0.5

SE3_OPS = ("exp", "dexp_inv", "cay", "dcay_inv", "ddcay_inv_tangent")

# name -> unit of every per-layer metric, in report order
METRICS = {
    "scalars.calls_per_unit": "count",
    "scalars.self_us_per_call": "us",
    "scalars.series_frac": "ratio",
    "core.hat3_calls_per_unit": "count",
    "so3.calls_per_unit": "count",
    "so3.self_us_per_call": "us",
    "se3.calls_per_unit": "count",
    "se3.self_us_per_call": "us",
    **{f"se3.{op}.self_us_per_call": "us" for op in SE3_OPS},
    "integrate.field_calls_per_step": "count",
    "integrate.newton_iters_per_step": "count",
    "integrate.solve_calls_per_step": "count",
    "integrate.field_us_per_step": "us",
    "integrate.map_us_per_step": "us",
    "integrate.solve_us_per_step": "us",
    "integrate.self_us_per_step": "us",
    "oracle.calls_per_unit": "count",
    "oracle.self_ms_per_unit": "ms",
    "cli.self_ms_per_unit": "ms",
    "trace.overhead_frac": "ratio",
}
# Metrics that are ratios of call counts; they repeat exactly for one seed.
COUNT_METRICS = tuple(name for name, unit in METRICS.items()
                      if unit == "count") + ("scalars.series_frac",)


class Span:
    __slots__ = ("layer", "calls", "total", "own")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.own = 0.0


class Tracer:
    """Spans kept in memory, keyed by name, plus per-layer inclusive time."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        # time inside the outermost span of each layer (nesting counted once)
        self.layer_time: dict[str, float] = {}
        self.hat3_calls = 0
        self.series_calls = 0
        self.kernel_args = 0
        self._stack: list = []
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def span(self, layer: str, name: str, fn):
        record = self.spans.setdefault(name, Span(layer))
        layer_time = self.layer_time
        layer_time.setdefault(layer, 0.0)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record.calls += 1
                record.total += elapsed
                record.own += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if not stack or stack[-1][0] != layer:
                    layer_time[layer] += elapsed

        return traced

    def kernel(self, name: str, fn, window: float):
        """Span of a scalar kernel that also classifies its angle argument."""
        traced = self.span("scalars", "scalars." + name, fn)

        def classified(phi, *args, **kwargs):
            # Batched kernels (an open roadmap item) would pass arrays of
            # angles; each angle is classified on its own.
            if type(phi) is float:
                self.kernel_args += 1
                self.series_calls += phi < window
            else:
                angles = np.asarray(phi)
                self.kernel_args += angles.size
                self.series_calls += int(np.count_nonzero(angles < window))
            return traced(phi, *args, **kwargs)

        return functools.wraps(fn)(classified)

    def counted_hat3(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.hat3_calls += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, trace_solve: bool) -> None:
        """Wrap every layer boundary; undo with :meth:`uninstall`."""
        package = importlib.import_module("liegroup_maps")
        mods = {name: importlib.import_module(f"liegroup_maps.{name}")
                for name in SUBMODULES}
        scalars = mods["scalars"]

        wrappers = {}
        hat3 = mods["core"].hat3
        wrappers[id(hat3)] = (hat3, self.counted_hat3(hat3))
        for user in ("so3", "se3"):
            for name, fn in vars(mods[user]).items():
                if (name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == scalars.__name__
                        and id(fn) not in wrappers):
                    wrappers[id(fn)] = (fn, self.kernel(
                        name, fn, _kernel_window(scalars, name)))
        for layer in ("so3", "se3", "oracle"):
            for name in mods[layer].__all__:
                fn = getattr(mods[layer], name)
                if inspect.isfunction(fn):
                    short = name.removeprefix(layer + "_")
                    wrappers[id(fn)] = (fn, self.span(layer, f"{layer}.{short}",
                                                      fn))

        for module in mods.values():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._rebind(module, attr, entry[1])

        self._rebind(package, "integrate",
                     self.span("integrate", "integrate", package.integrate))
        cli = mods["cli"]
        self._rebind(cli, "main", self.span("cli", "cli.main", cli.main))
        if trace_solve:
            self._rebind(np.linalg, "solve",
                         self.span("solve", "numpy.linalg.solve",
                                   np.linalg.solve))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def wrap_rate(self, rate):
        """Span for a problem's twist-field rate (installed per problem)."""
        return self.span("field", "integrate.field", rate)

    # -- metrics ----------------------------------------------------------

    def metrics(self, units: int, steps: int) -> dict:
        """Per-layer metrics over ``units`` units of ``steps`` steps in all."""

        def layer(name):
            spans = [s for s in self.spans.values() if s.layer == name]
            return sum(s.calls for s in spans), sum(s.own for s in spans)

        def one(name):
            span = self.spans.get(name)
            return (span.calls, span.total, span.own) if span else (0, 0.0, 0.0)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {}
        calls, own = layer("scalars")
        out["scalars.calls_per_unit"] = ratio(calls, units)
        out["scalars.self_us_per_call"] = ratio(own, calls, 1e6)
        out["scalars.series_frac"] = ratio(self.series_calls, self.kernel_args)
        out["core.hat3_calls_per_unit"] = ratio(self.hat3_calls, units)
        for name in ("so3", "se3"):
            calls, own = layer(name)
            out[f"{name}.calls_per_unit"] = ratio(calls, units)
            out[f"{name}.self_us_per_call"] = ratio(own, calls, 1e6)
        for op in SE3_OPS:
            calls, _, own = one(f"se3.{op}")
            out[f"se3.{op}.self_us_per_call"] = ratio(own, calls, 1e6)

        field_calls, field_time, _ = one("integrate.field")
        solve_calls, solve_time, _ = one("numpy.linalg.solve")
        newton = sum(s.calls for name, s in self.spans.items()
                     if name.endswith("inv_tangent"))
        map_time = self.layer_time.get("se3", 0.0) if steps else 0.0
        out["integrate.field_calls_per_step"] = ratio(field_calls, steps)
        out["integrate.newton_iters_per_step"] = ratio(newton, steps)
        out["integrate.solve_calls_per_step"] = ratio(solve_calls, steps)
        out["integrate.field_us_per_step"] = ratio(field_time, steps, 1e6)
        out["integrate.map_us_per_step"] = ratio(map_time, steps, 1e6)
        out["integrate.solve_us_per_step"] = ratio(solve_time, steps, 1e6)
        out["integrate.self_us_per_step"] = ratio(one("integrate")[2], steps,
                                                  1e6)
        calls, own = layer("oracle")
        out["oracle.calls_per_unit"] = ratio(calls, units)
        out["oracle.self_ms_per_unit"] = ratio(own, units, 1e3)
        out["cli.self_ms_per_unit"] = ratio(one("cli.main")[2], units, 1e3)
        return out


def _kernel_window(scalars, name: str) -> float:
    if name in _SEAM_KERNELS:
        return scalars.SMALL_ANGLE_THRESHOLD
    if name == "_inv_sinc":
        return _INV_SINC_WINDOW
    return scalars.SERIES_WINDOW
