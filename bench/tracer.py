"""Per-layer tracing of alexkit from outside the package.

`Tracer.install()` replaces every public function of the traced modules by
a wrapper that records a span, at the defining module and at every module
that imported the function by name (as `alexander` does with
`from .laurent import gcd_many`).  A function imported inside another
function's body is looked up on its defining module at call time, so it
is covered too.  The two constructors, `LaurentPoly.__init__` and
`CycloNumber.__init__`, and the sympy bridge get counters only: they run
far too often for a span each.

Spans stay in memory, as (id, parent id, operation, name, start, end) in
CPU seconds of the process, and are written out by `dump()` once the
operations are done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("presentation", "intlinalg", "alexander", "laurent", "cyclofield",
           "jumploci", "obstruct", "seifert", "cli")
COUNTERS = ("alexander.minors", "laurent.LaurentPoly.new",
            "cyclofield.CycloNumber.new", "laurent.sympy_bridge.calls",
            "laurent.delta_terms", "cyclofield.conductor_max")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []          # [span id, time covered by child spans]
        self.calls = {}
        self.self_s = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack
        calls, self_s = self.calls, self.self_s
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append([span, 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, child = stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - child
                spans[span] = (span, parent, self.op, name, start, end)
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _add(self, key, items):
        """Add the size of `items` (a list, or a dict of terms) to a counter;
        anything without a size adds nothing."""
        try:
            self.counters[key] += len(items)
        except TypeError:
            pass

    def install(self):
        """Patch alexkit in this process; there is no uninstall."""
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"alexkit.{short}")
            except ModuleNotFoundError:
                pass
        after = {
            "alexander.elementary_ideal_minors":
                lambda out: self._add("alexander.minors", out),
            "alexander.alexander_poly":
                lambda out: self._add("laurent.delta_terms",
                                      getattr(out, "terms", None)),
            "seifert.seifert_delta":
                lambda out: self._add("laurent.delta_terms",
                                      getattr(out, "terms", None)),
        }
        wrapped = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    key = f"{short}.{name}"
                    wrapped[obj] = self._wrap(key, obj, after.get(key))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

        # the classes and methods below may be reshaped or removed by later
        # changes to alexkit; a missing one leaves its counter at 0
        poly = getattr(mods.get("laurent"), "LaurentPoly", None)
        if poly is not None:
            poly.__init__ = self._count("laurent.LaurentPoly.new",
                                        poly.__init__)
            if "to_sympy" in vars(poly):
                poly.to_sympy = self._count("laurent.sympy_bridge.calls",
                                            poly.to_sympy)
            bridge = vars(poly).get("from_sympy")
            if isinstance(bridge, classmethod):
                poly.from_sympy = classmethod(self._count(
                    "laurent.sympy_bridge.calls", bridge.__func__))

        cyclo = getattr(mods.get("cyclofield"), "CycloNumber", None)
        if cyclo is not None:
            cyclo_init = cyclo.__init__
            counters = self.counters

            @functools.wraps(cyclo_init)
            def cyclo_new(obj, *args, **kwargs):
                cyclo_init(obj, *args, **kwargs)
                counters["cyclofield.CycloNumber.new"] += 1
                conductor = getattr(obj, "conductor", 0)
                if conductor > counters["cyclofield.conductor_max"]:
                    counters["cyclofield.conductor_max"] = conductor

            cyclo.__init__ = cyclo_new

    def reset(self):
        """Forget everything recorded so far (the warm-up)."""
        self.spans.clear()
        for name in self.calls:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        for key in self.counters:
            self.counters[key] = 0

    # -- results --------------------------------------------------------------

    def totals(self):
        """Per-layer metrics: calls and self seconds per wrapped function,
        and the counters."""
        out = dict(self.counters)
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
