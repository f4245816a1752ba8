"""Spans around gninterp's public entry points, recorded from outside.

The tracer replaces each traced function with a wrapper that records a span
(name, start, end, parent span) in memory.  A name is patched wherever it is
looked up: every loaded ``gninterp`` module attribute bound to the original
is replaced, so ``derivation.xnorm`` (imported by name) is traced as well as
``norms.xnorm``.  Methods and properties are patched on their class.  A name
missing from the library is skipped, so the library may drop or rename
internals without breaking the benchmark.

Self time is a span's duration minus the time its child spans cover.  All
spans come from one thread and nest strictly, so children never overlap and
the covered time is the sum of their durations.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` recording one span per call; ``on_call(bound_args)`` may count work."""
        name_id = self._name_id(name)
        sig = inspect.signature(fn) if on_call else None
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(sig.bind(*args, **kwargs).arguments)
            i = opened(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(i)

        return traced

    # -- patching -------------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, on_call=None) -> bool:
        """Trace ``module.attr`` under every name it is bound to in the package."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        traced = self.wrap(name, original, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gninterp" or mod_name.startswith("gninterp.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))
        return True

    def patch_method(self, cls, attr: str, name: str, on_call=None) -> bool:
        """Trace a method, or the getter of a property, on its class.

        Aliases on the class (``__rmul__ = __mul__``) are traced too.
        """
        if cls is None or attr not in vars(cls):
            return False
        original = vars(cls)[attr]
        if isinstance(original, property):
            traced = property(self.wrap(name, original.fget, on_call))
        else:
            traced = self.wrap(name, original, on_call)
        for key, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, key, traced)
                self._undo.append((cls, key, original))
        return True

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reading --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost spans of that name) and self_s."""
        count = len(self.start)
        child_s = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child_s[i]
            p = self.parent[i]
            while p >= 0 and self.span_name[p] != self.span_name[i]:
                p = self.parent[p]
            if p < 0:
                row["busy_s"] += dur
        return out

    def dump(self, path) -> None:
        """Write every span as ``[name, start_s, end_s, parent]`` rows, one JSON document."""
        t0 = min(self.start) if self.start else 0.0
        rows = [
            [self.span_name[i], round(self.start[i] - t0, 9), round(self.end[i] - t0, 9), self.parent[i]]
            for i in range(len(self.start))
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
            fh.write("\n")


def install(gn, tracer: Tracer) -> None:
    """Wrap the public entry points of each measured module of ``gn``."""
    derivation, interp, norms, taylor, testfn = (
        sys.modules.get(f"gninterp.{name}") for name in ("derivation", "interp", "norms", "taylor", "testfn")
    )
    for module, attrs in (
        (derivation, ("derive_chain", "verify_chain", "format_certificate", "parse_certificate",
                      "evaluate_chain", "dilation_sweep")),
        (interp, ("classify_triple",)),
        (norms, ("xnorm", "lp_norm", "sup_norm", "lp_norm_midpoint_oracle", "brute_force_holder")),
    ):
        for attr in attrs:
            if module is not None:
                tracer.patch_function(module, attr, f"{module.__name__.split('.')[-1]}.{attr}")

    def holder_work(args):
        fn, grid = args["fn"], args.get("grid")
        if grid is None:
            grid = gn.default_grid(fn, "pair")
        pairs = grid.npoints * (grid.npoints - 1) / 2
        comps = math.comb(args["order"] + fn.ndim - 1, fn.ndim - 1)
        tracer.count("norms.pairs", pairs)
        # One float64 quotient per pair and derivative component.
        tracer.count("norms.pair_bytes_computed", pairs * comps * 8)

    tracer.patch_function(norms, "holder_seminorm", "norms.holder_seminorm", holder_work)

    def jet_work(args):
        points = len(args["points"])
        ndim = args["self"].ndim
        tracer.count("testfn.jet.points", points)
        tracer.count("testfn.jet.coef_points", points * math.comb(args["order"] + ndim, ndim))

    tracer.patch_method(getattr(testfn, "TestFunction", None), "jet", "testfn.jet", jet_work)
    tracer.patch_method(getattr(taylor, "TaylorSeries", None), "__mul__", "taylor.mul")
    tracer.patch_method(getattr(derivation, "ProofChain", None), "final_constant",
                        "derivation.final_constant")
