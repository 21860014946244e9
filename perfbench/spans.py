"""Per-layer tracing from outside the package.

`install` wraps the public functions of the skewstab layer modules, four
`Disintegration` methods and the two LP back ends.  A `from .x import y`
copies the binding into the importing module, so each wrapper is bound in
every skewstab module that holds the original; wrapping only the defining
module would leave the other call sites untraced and read zero.

Spans (name, start, end, parent) are kept in memory while the tracer is
active and summarised after the timed region: `calls`, `busy_s` (time
inside the outermost span of that name) and `self_s` (span time minus the
time of its traced children).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("dynamics", "measures", "stability", "arithmetic", "configio", "cli")
DISINTEGRATION_METHODS = ("scale", "__add__", "__sub__", "fiber_ids")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.bytes_written = 0
        self.steps = 0
        self.active = False

    def wrap(self, name: str, fn, on_return=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                tracer.stack.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        return wrapper

    def summary(self) -> dict[str, float]:
        """calls / busy_s / self_s per span name."""
        out: dict[str, float] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[i]
            if not self._nested_in_same(i):
                out[f"{name}.busy_s"] += dur
        return dict(out)

    def _nested_in_same(self, i: int) -> bool:
        name, p = self.spans[i][0], self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rebind(original, wrapper) -> None:
    """Replace every module-level binding of `original` in skewstab."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("skewstab"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    for layer in LAYERS:
        importlib.import_module(f"skewstab.{layer}")
    for layer in LAYERS:
        mod = sys.modules[f"skewstab.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            hook = None
            if (layer, attr) == ("dynamics", "invariant_measure"):
                def hook(args, res):
                    tracer.steps += res.n_steps
            elif (layer, attr) == ("configio", "write_json"):
                def hook(args, res):
                    tracer.bytes_written += os.path.getsize(args[0])
            _rebind(fn, tracer.wrap(f"{layer}.{attr}", fn, hook))

    measures = sys.modules["skewstab.measures"]
    cls = measures.Disintegration
    for meth in DISINTEGRATION_METHODS:
        setattr(cls, meth, tracer.wrap(f"measures.Disintegration.{meth}",
                                       getattr(cls, meth)))

    simplex = measures.solve_simplex
    _rebind(simplex, tracer.wrap("measures.solve_simplex", simplex))
    # measures imports linprog inside the call, so the attribute is enough
    import scipy.optimize
    scipy.optimize.linprog = tracer.wrap("scipy.optimize.linprog",
                                         scipy.optimize.linprog)
