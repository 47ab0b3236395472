"""Per-layer tracing from outside qdiv.

The tracer replaces each public function of qdiv's computational modules, at
every name it is bound under (``from .divergences import d_max`` binds a
second name in ``smoothing``, ``entanglement`` and ``spectral``), with a
wrapper that opens a span, and counts numpy's ``eigh``/``eigvalsh`` calls
inside spans.  Aggregates are kept online, so they cover every call; the
individual spans (name, start, end, parent) are kept in memory up to a cap
and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("operators", "divergences", "smoothing", "entanglement", "spectral")
EIG_FUNCTIONS = ("eigh", "eigvalsh")
SPAN_CAP = 200_000

# Per-call values summed from a function's result: the number of type
# classes built, the number of rate points, and the E_max certificate gap.
RESULT_HOOKS = {
    "spectral.type_table": lambda res: len(res.log_p),
    "spectral.rate_curve": len,
    "entanglement.emax": lambda res: res.gap,
}


class _Frame:
    __slots__ = ("name", "module", "span", "start", "child_s", "eig_calls", "eig_s",
                 "direct_eig_s")

    def __init__(self, name, module, span, start):
        self.name, self.module, self.span, self.start = name, module, span, start
        self.child_s = self.eig_s = self.direct_eig_s = 0.0
        self.eig_calls = 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.dropped = 0
        self.stack: list = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.eig_calls = defaultdict(int)
        self.eig_s = defaultdict(float)
        self.result_sums = defaultdict(float)
        self.self_s = defaultdict(float)
        self._patched: list = []
        self._t0 = time.perf_counter()

    # -- spans ------------------------------------------------------------

    def enter(self, name: str, module: str | None):
        parent = self.stack[-1].span if self.stack else -1
        if len(self.spans) < SPAN_CAP and (parent >= 0 or not self.stack):
            span = len(self.spans)
            self.spans.append((name, parent))
        else:
            span = -1
            self.dropped += 1
        self.stack.append(_Frame(name, module, span, time.perf_counter()))

    def exit(self, result=None):
        end = time.perf_counter()
        f = self.stack.pop()
        dur = end - f.start
        if f.span >= 0:
            self.spans[f.span] = (f.name, f.start - self._t0, end - self._t0,
                                  self.spans[f.span][1])
        self.calls[f.name] += 1
        self.total_s[f.name] += dur
        self.eig_calls[f.name] += f.eig_calls
        self.eig_s[f.name] += f.eig_s
        self.self_s[f.module] += dur - f.child_s - f.direct_eig_s
        hook = RESULT_HOOKS.get(f.name)
        if hook is not None and result is not None:
            self.result_sums[f.name] += hook(result)
        if self.stack:
            self.stack[-1].child_s += dur

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name: str, module: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:        # outside an operation, e.g. input generation
                return fn(*args, **kwargs)
            tracer.enter(name, module)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.exit(result)

        return wrapper

    def _wrap_eig(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                for f in tracer.stack:
                    f.eig_calls += 1
                    f.eig_s += dt
                tracer.stack[-1].direct_eig_s += dt

        return wrapper

    def install(self):
        replace = {}
        for short in MODULES:
            mod = sys.modules[f"qdiv.{short}"]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    replace[id(fn)] = (fn, self._wrap(fn, f"{short}.{attr}", short))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qdiv" or modname.startswith("qdiv.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for attr in EIG_FUNCTIONS:
            fn = getattr(np.linalg, attr)
            self._patched.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self._wrap_eig(fn))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def write(self, path, meta: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3]]
                for s in self.spans if len(s) == 4]
        with open(path, "w") as fh:
            json.dump({**meta, "names": names, "span_fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows, "spans_dropped": self.dropped}, fh, separators=(",", ":"))
