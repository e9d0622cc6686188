"""Per-layer tracing of idstat from outside the package.

`Tracer.install()` replaces every public function and method of the idstat
modules with a wrapper that records a span, and rebinds the names other
modules imported (``symmetry.enumerate_permutations``, ``cli.HANDLERS`` ...)
so calls between layers are seen too.  `uninstall()` puts the originals back.

Operations that run once per ring element, permutation, occupation state,
matrix entry or rendered float (every method of ``RadicalRational``,
``Permutation`` and ``OccupationState``, ``OneBodyOperator.entry``,
``render.fmt_float`` and each item drawn from ``enumerate_permutations`` or
``enumerate_occupations``) cost about as much as a span.  They are timed and
counted like spans, so self times stay exact, but they are not kept as span
records.

A layer's self time is the time its spans are open minus the time covered by
their child spans; its busy time is the time at least one of its spans is
open.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("exactnum", "perm", "symmetry", "observables", "statmech", "verify", "render", "cli")
MODULE_LAYER = {
    "exactnum": "exactnum",
    "perm": "perm",
    "symmetry": "symmetry",
    "observables": "observables",
    "statmech": "statmech",
    "verify": "verify",
    "render": "render",
    "cli": "cli",
    "config": "cli",
}
_RING_DUNDERS = {
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__eq__", "__float__", "__str__",
}
_COUNTED_CLASSES = {("exactnum", "RadicalRational"), ("perm", "Permutation"), ("statmech", "OccupationState")}
_COUNTED_NAMES = {"observables.OneBodyOperator.entry", "render.fmt_float"}
_ITEM_COUNTERS = {
    "perm.enumerate_permutations": "perm.perms_yielded",
    "statmech.enumerate_occupations": "statmech.states_yielded",
}
_CALL_COUNTERS = {
    "exactnum.RadicalRational.__mul__": "exactnum.mul_calls",
    "exactnum.RadicalRational.__rmul__": "exactnum.mul_calls",
}

COUNTERS = (
    "exactnum.mul_calls",
    "perm.perms_yielded",
    "symmetry.orbit_terms",
    "symmetry.symmetrize_perms",
    "observables.terms_in",
    "statmech.states_yielded",
    "render.bytes_out",
    "verify.checks_passed",
)


def _make_hooks():
    """name -> (before(tracer), after(tracer, token, args, result))."""

    def perms(tracer):
        return tracer.counters["perm.perms_yielded"]

    def symmetrized(tracer, before, args, result):
        tracer.counters["symmetry.orbit_terms"] += len(result.vector)
        tracer.counters["symmetry.symmetrize_perms"] += tracer.counters["perm.perms_yielded"] - before

    def terms_in(tracer, before, args, result):
        tracer.counters["observables.terms_in"] += len(args[0])

    def rendered(tracer, before, args, result):
        tracer.counters["render.bytes_out"] += len(result.encode())

    def ledger(tracer, before, args, result):
        tracer.counters["verify.checks_passed"] += sum(1 for r in result if r.status == "pass")

    nothing = lambda tracer: None  # noqa: E731
    return {
        "symmetry.symmetrize": (perms, symmetrized),
        "observables.one_body_expectation": (nothing, terms_in),
        "observables.occupancy_weights": (nothing, terms_in),
        "render.Report.render": (nothing, rendered),
        "verify.run_verification": (nothing, ledger),
    }


_HOOKS = _make_hooks()


class _CountingIterator:
    """Times and counts each item drawn from a wrapped generator."""

    def __init__(self, tracer, layer, name, counter, inner):
        self._tracer, self._layer, self._name, self._counter = tracer, layer, name, counter
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.on:
            return next(self._inner)
        frame = tracer.enter(self._layer, self._name, False)
        try:
            item = next(self._inner)
        finally:
            tracer.exit(frame)
        tracer.counters[self._counter] += 1
        return item


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.on = False
        self.task = None
        self.stack: list = []  # open frames: [layer, span index or -1, child seconds, start]
        self.open_spans: list = []  # indices of open recorded spans
        self.depth = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counters = Counter(dict.fromkeys(COUNTERS, 0))
        self.spans: list = []  # [name, start, end, parent index or -1, task]
        self._patches: list = []

    # -- span accounting --------------------------------------------------

    def enter(self, layer: str, name: str, record: bool):
        idx = -1
        if record:
            idx = len(self.spans)
            parent = self.open_spans[-1] if self.open_spans else -1
            self.spans.append([name, 0.0, 0.0, parent, self.task])
            self.open_spans.append(idx)
        self.depth[layer] += 1
        frame = [layer, idx, 0.0, self.clock()]
        if record:
            self.spans[idx][1] = frame[3]
        self.stack.append(frame)
        return frame

    def exit(self, frame) -> None:
        end = self.clock()
        layer, idx, child, start = frame
        self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        self.depth[layer] -= 1
        if not self.depth[layer]:
            self.busy[layer] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if idx >= 0:
            self.spans[idx][2] = end
            self.open_spans.pop()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, record: bool):
        tracer = self
        items = _ITEM_COUNTERS.get(name)
        per_call = _CALL_COUNTERS.get(name)
        before, after = _HOOKS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            token = before(tracer) if before else None
            frame = tracer.enter(layer, name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if per_call:
                tracer.counters[per_call] += 1
            if after:
                after(tracer, token, args, result)
            if items:
                return _CountingIterator(tracer, layer, name + "[item]", items, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value, item=False) -> None:
        if item:
            self._patches.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr], False))
            setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"idstat.{name}") for name in MODULE_LAYER}
        wrapped: dict = {}
        for modname, mod in modules.items():
            layer = MODULE_LAYER[modname]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{modname}.{attr}"
                    wrapper = self._wrap(layer, name, obj, name not in _COUNTED_NAMES)
                    wrapped[obj] = wrapper
                    self._patch(mod, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(modname, layer, obj)
        for mod in [importlib.import_module("idstat"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        handlers = modules["cli"].HANDLERS
        for key, fn in list(handlers.items()):
            if fn in wrapped:
                self._patch(handlers, key, wrapped[fn], item=True)

    def _wrap_class(self, modname: str, layer: str, cls) -> None:
        counted_class = (modname, cls.__name__) in _COUNTED_CLASSES
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (counted_class and attr in _RING_DUNDERS):
                continue
            name = f"{modname}.{cls.__name__}.{attr}"
            record = not counted_class and name not in _COUNTED_NAMES
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(layer, name, raw.__func__, record)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(layer, name, raw, record))

    def uninstall(self) -> None:
        for owner, attr, old, item in reversed(self._patches):
            if item:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_s"] = self.busy[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out

    def export(self) -> dict:
        return {
            "calls": self.calls,
            "busy": self.busy,
            "self_s": self.self_s,
            "counters": dict(self.counters),
            "spans": self.spans,
        }

    def merge(self, exported: dict, task) -> None:
        """Fold in what a traced child process exported, under task `task`."""
        for layer in LAYERS:
            self.calls[layer] += exported["calls"][layer]
            self.busy[layer] += exported["busy"][layer]
            self.self_s[layer] += exported["self_s"][layer]
        self.counters.update(exported["counters"])
        base = len(self.spans)
        for name, start, end, parent, _ in exported["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, task])

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
