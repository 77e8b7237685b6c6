"""Outside-in span tracer for the corrlab package.

The tracer wraps every public function of the traced modules, plus
``RngStream.generator`` and ``MarginalSpec.quantile``, from outside the
package: nothing under ``src/`` changes.  ``from .estimators import ...``
copies a function into the importing module's namespace, so each
function is replaced wherever any ``corrlab`` module binds it, found by
identity.  Private helpers stay unwrapped and their time counts toward
the nearest public caller.

Spans are kept in memory as (name, start, end, parent, thread, values)
and written out once the run ends.  ``values`` is the element count of
the first argument for the row kernels and 0 elsewhere.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "randgen", "estimators", "simulate", "exact", "influence",
           "resample", "eigen")
METHODS = (("randgen", "RngStream", "generator"),
           ("randgen", "MarginalSpec", "quantile"))
# kernels whose span also records how many values they processed
COUNTED = {"estimators.rank_rows", "estimators.pearson_rows",
           "estimators.kendall_rows"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            values = getattr(args[0], "size", 0) if counted and args else 0
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, threading.get_ident(), values)

        return traced

    def install(self) -> int:
        """Wrap the public functions in every namespace that binds them."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"corrlab.{short}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "corrlab" and not mod_name.startswith("corrlab."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        for short, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"corrlab.{short}"), cls_name)
            setattr(cls, method, self.wrap(f"{short}.{cls_name}.{method}",
                                           vars(cls)[method]))
        return len(wrappers) + len(METHODS)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, thread, values in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "thread": thread,
                                         "values": values}) + "\n")


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, timed_start: float) -> dict:
    """Per-layer numbers of one traced worker.

    Self time is a span's duration minus the durations of its direct
    children; spans nest per thread, so children never overlap.  Unless
    a name says otherwise, a metric covers the timed phase only (spans
    that start at or after ``timed_start``).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _thread, _values in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    values = defaultdict(int)
    module_s = defaultdict(float)
    quantile = {"rep_calls": 0, "rep_s": 0.0, "calib_calls": 0, "calib_s": 0.0}
    for i, (name, start, end, _parent, _thread, count) in enumerate(spans):
        own = end - start - child[i]
        if name == "randgen.MarginalSpec.quantile":
            if _has_ancestor(spans, i, "randgen.calibrate_copula"):
                quantile["calib_calls"] += 1
                quantile["calib_s"] += own
            elif start >= timed_start and _has_ancestor(spans, i, "simulate.run_cell"):
                quantile["rep_calls"] += 1
                quantile["rep_s"] += own
        if start < timed_start:
            continue
        self_s[name] += own
        calls[name] += 1
        values[name] += count
        module_s[name.split(".")[0]] += own

    out = {f"{module}.self_s": module_s[module] for module in MODULES}
    out.update({
        "randgen.generator.calls": calls["randgen.RngStream.generator"],
        "randgen.generator.self_s": self_s["randgen.RngStream.generator"],
        "randgen.quantile.rep_calls": quantile["rep_calls"],
        "randgen.quantile.rep_s": quantile["rep_s"],
        "randgen.quantile.calib_calls": quantile["calib_calls"],
        "randgen.quantile.calib_s": quantile["calib_s"],
        "randgen.calibrate_copula.calls": calls["randgen.calibrate_copula"],
        "influence.scan.self_s": (self_s["influence.scan_single"]
                                  + self_s["influence.scan_double"]),
        "trace.spans": len(spans),
    })
    for name in ("estimators.rank_rows", "estimators.pearson_rows",
                 "estimators.kendall_rows"):
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.values"] = values[name]
    for name in ("estimators.correlation_matrix", "simulate.run_cell",
                 "resample.run_study", "resample.draw_valid_rows",
                 "resample.ingest_csv", "eigen.eigen_study",
                 "eigen.symmetric_eigenvalues", "exact.pearson_density",
                 "exact.hyp2f1_half_half", "cli.dispatch"):
        out[f"{name}.self_s"] = self_s[name]
    top = sorted(self_s.items(), key=lambda item: -item[1])[:10]
    return {"metrics": out, "top_self_s": top}
