"""In-process tracing of spopo's layers from outside the library.

``Tracer.install`` replaces every binding of the traced functions in the
loaded ``spopo`` modules (modules use ``from .x import y``, so both
``spopo.cli.squeezing_spectrum`` and ``spopo.cavity.squeezing_spectrum`` must
be replaced), including values of module-level dicts such as the CLI's runner
table.  ``uninstall`` puts the originals back.

Span functions get one span each: name, start, end, parent span, run id.
Per-point scalar functions are only counted and timed in aggregate under the
innermost open span, so a 30,000-call loop adds no 30,000 spans.  While an
aggregated call runs, nested traced calls are not recorded: their time is
part of that call's.

Which end-to-end metric each per-layer metric should move, and where:

  import.*_s                      setup_s and every *_s, all workloads;
                                  most (relative) on paper_default
                                  supermodes_s / pulses_s / metrology_s
  config.load_scenario_s          setup_s (negligible; keeps the layer covered)
  kernel.*, supermodes.*          supermodes_s, squeezing_s, metrology_s,
                                  peak_rss_mb on wide_window; not long_train
  cavity.*                        squeezing_s on paper_default, then
                                  wide_window; not long_train
  pulses.*                        pulses_s and metrology_s on long_train
                                  (min_variance_transcendental_* count the
                                  pulses subcommand's calls; metrology's show
                                  in metrology.solves_per_curve_point)
  metrology.improvement_curve_s,  metrology_s on long_train
  metrology.solves_per_curve_point
  metrology.optimal_probe_s       metrology_s on long_train and wide_window
  cli.*                           every *_s, most on long_train (~40k rows)
  layer.<module>_self_s           self time of each module; shows which
                                  layer a change moved
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: functions that get a span per call, with an optional hook that turns the
#: return value into span attributes
SPAN_FUNCTIONS = {
    "config.load_scenario": None,
    "kernel.build_kernel": lambda k: {
        "matrix_bytes": k.matrix.shape[0] * k.matrix.shape[1] * k.matrix.itemsize},
    "supermodes.schmidt_decompose": lambda b: {"n_kept": b.n_kept},
    "supermodes.takagi": None,
    "cavity.squeezing_spectrum": lambda s: {"points": s.var_x.size},
    "pulses.covariance": None,
    "metrology.improvement_curve": lambda c: {"points": c.sigma2.size},
    "metrology.optimal_probe": None,
    "cli.run_supermodes": None,
    "cli.run_squeezing": None,
    "cli.run_pulses": None,
    "cli.run_metrology": None,
    "cli._write_csv": None,
}

#: per-point scalar functions, counted and timed in aggregate
AGGREGATED_FUNCTIONS = ("cavity.comb_io", "cavity.threshold_gain",
                        "pulses.min_variance_transcendental")


class Tracer:
    """Span recorder for the spopo package; spans stay in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = 0
        self._stack: list[dict] = []
        self._muted = 0
        self._restore: list[tuple] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, "agg": {}, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                span["attrs"].update(observe(result))
            return result
        return traced

    def _aggregate_wrapper(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._muted or not self._stack:
                return fn(*args, **kwargs)
            self._muted += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._muted -= 1
                entry = self._stack[-1]["agg"].setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
        return counted

    def install(self) -> None:
        wrappers = {}
        for name, observe in SPAN_FUNCTIONS.items():
            fn = _lookup(name)
            wrappers[id(fn)] = self._span_wrapper(name, fn, observe)
        for name in AGGREGATED_FUNCTIONS:
            fn = _lookup(name)
            wrappers[id(fn)] = self._aggregate_wrapper(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "spopo" and not modname.startswith("spopo."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is wrappers[id(value)].__wrapped__:
                    self._restore.append((module.__dict__, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in wrappers and item is wrappers[id(item)].__wrapped__:
                            self._restore.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            namespace[key] = original
        self._restore.clear()


def _lookup(name: str):
    module, _, func = name.partition(".")
    return getattr(sys.modules[f"spopo.{module}"], func)


def pass_metrics(spans: list[dict]) -> dict:
    """Per-layer numbers of one traced pass (spans of a single run id)."""
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] in by_id:
            child_time[s["parent"]] += s["end"] - s["start"]

    total = defaultdict(lambda: [0, 0.0])   # name -> [calls, inclusive s]
    self_time = defaultdict(float)
    for s in spans:
        duration = s["end"] - s["start"]
        total[s["name"]][0] += 1
        total[s["name"]][1] += duration
        aggregated = sum(t for _, t in s["agg"].values())
        self_time[s["name"]] += duration - child_time[s["id"]] - aggregated
        for name, (calls, seconds) in s["agg"].items():
            total[name][0] += calls
            total[name][1] += seconds
            self_time[name] += seconds

    def under(root: str, name: str) -> tuple[int, float]:
        """Aggregated calls of ``name`` inside spans named ``root``."""
        calls, seconds = 0, 0.0
        for s in spans:
            node = s
            while node is not None and node["name"] != root:
                node = by_id.get(node["parent"])
            if node is not None and name in s["agg"]:
                calls += s["agg"][name][0]
                seconds += s["agg"][name][1]
        return calls, seconds

    def attr(name: str, key: str, combine=sum):
        return combine([s["attrs"].get(key, 0) for s in spans if s["name"] == name]
                       or [0])

    sq_points = attr("cavity.squeezing_spectrum", "points")
    curve_points = attr("metrology.improvement_curve", "points")
    mvt_pulses = under("cli.run_pulses", "pulses.min_variance_transcendental")
    mvt_curve = under("metrology.improvement_curve",
                      "pulses.min_variance_transcendental")
    layers = defaultdict(float)
    for name, seconds in self_time.items():
        layers[name.split(".")[0]] += seconds

    metrics = {
        "config.load_scenario_s": (total["config.load_scenario"][1], "s"),
        "kernel.build_kernel_s": (total["kernel.build_kernel"][1], "s"),
        "kernel.build_kernel_calls": (total["kernel.build_kernel"][0], "count"),
        "kernel.matrix_bytes": (attr("kernel.build_kernel", "matrix_bytes", max),
                                "B-computed"),
        "supermodes.schmidt_decompose_s": (total["supermodes.schmidt_decompose"][1], "s"),
        "supermodes.schmidt_decompose_calls": (total["supermodes.schmidt_decompose"][0],
                                               "count"),
        "supermodes.takagi_s": (total["supermodes.takagi"][1], "s"),
        "supermodes.synthesis_s": (self_time["supermodes.schmidt_decompose"], "s"),
        "supermodes.n_kept": (attr("supermodes.schmidt_decompose", "n_kept", max),
                              "count"),
        "cavity.squeezing_spectrum_s": (total["cavity.squeezing_spectrum"][1], "s"),
        "cavity.comb_io_s": (total["cavity.comb_io"][1], "s"),
        "cavity.comb_io_calls": (total["cavity.comb_io"][0], "count"),
        "cavity.solves_per_point": (
            under("cavity.squeezing_spectrum", "cavity.comb_io")[0] / max(sq_points, 1),
            "solves/point"),
        "cavity.solves_per_point_base": (sq_points, "count"),
        "cavity.threshold_gain_calls": (total["cavity.threshold_gain"][0], "count"),
        "pulses.min_variance_transcendental_s": (mvt_pulses[1], "s"),
        "pulses.min_variance_transcendental_calls": (mvt_pulses[0], "count"),
        "pulses.covariance_s": (total["pulses.covariance"][1], "s"),
        "metrology.improvement_curve_s": (total["metrology.improvement_curve"][1], "s"),
        "metrology.solves_per_curve_point": (mvt_curve[0] / max(curve_points, 1),
                                             "solves/point"),
        "metrology.solves_per_curve_point_base": (curve_points, "count"),
        "metrology.optimal_probe_s": (total["metrology.optimal_probe"][1], "s"),
        "cli.write_csv_s": (total["cli._write_csv"][1], "s"),
        "cli.self_s": (sum(t for name, t in self_time.items()
                           if name.startswith("cli.run_")), "s"),
    }
    for layer in ("config", "kernel", "supermodes", "cavity", "pulses",
                  "metrology", "cli"):
        metrics[f"layer.{layer}_self_s"] = (layers[layer], "s")
    return metrics
