"""Spans around calls into belldecomp, installed from outside the library.

``Tracer.install`` replaces every public function of the six library modules,
and the constructor of every public class that defines one, with a wrapper
that records a span.  A name bound by ``from .x import y`` is a separate
binding in each importing module, so the same wrapper is written into every
``belldecomp`` namespace that holds the original object.  ``Tracer.remove``
puts every original back.

Spans live in flat arrays (name id, start, end, parent index, op id) while the
run lasts; ``save`` writes them out once at the end.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("tensor", "channel", "decomposition", "protocol", "oracle", "cli")


def library_modules():
    """The package and its six modules, imported by name."""
    mods = {short: importlib.import_module(f"belldecomp.{short}") for short in MODULES}
    mods["belldecomp"] = importlib.import_module("belldecomp")
    return mods


def bindings(modules):
    """(span name, namespace, attribute, original) for every binding a tracer rewrites.

    Public functions are rewritten in every namespace that holds them; public
    classes that define ``__init__`` get it rewritten on the class itself.
    """
    out = []
    for short in MODULES:
        mod = modules[short]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out += [
                    (f"{short}.{attr}", ns, attr, obj)
                    for ns in modules.values()
                    if vars(ns).get(attr) is obj
                ]
            elif inspect.isclass(obj) and inspect.isfunction(vars(obj).get("__init__")):
                out.append((f"{short}.{attr}", obj, "__init__", vars(obj)["__init__"]))
    return out


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: array.array = array.array("i")
        self.start: array.array = array.array("d")
        self.end: array.array = array.array("d")
        self.parent: array.array = array.array("i")
        self.op: array.array = array.array("i")
        self.op_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name):
        nid = self._ids.get(span_name)
        if nid is None:
            nid = self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self, modules) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for span_name, ns, attr, orig in bindings(modules):
            if id(orig) not in wrappers:
                wrappers[id(orig)] = self._wrap(orig, span_name)
            self._saved.append((ns, attr, orig))
            setattr(ns, attr, wrappers[id(orig)])

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(tracer: Tracer) -> dict:
    """Calls and self seconds per span name, plus the parent-based counts the report needs.

    Self time is a span's duration minus the durations of its direct children;
    spans are strictly nested on one thread, so children never overlap.
    """
    a = tracer.arrays()
    names = tracer.names
    nid, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    self_by_name = np.bincount(nid, weights=self_s, minlength=k)

    def ids(span_name):
        return names.index(span_name) if span_name in names else -1

    def under(child_name, ancestor_name, direct):
        """Number of ``child_name`` spans whose parent (or any ancestor) is ``ancestor_name``."""
        c, anc = ids(child_name), ids(ancestor_name)
        if c < 0 or anc < 0 or not len(nid):
            return 0
        hit = np.zeros(len(nid), dtype=bool)
        up = parent.copy()
        for _ in range(1 if direct else 64):
            valid = up >= 0
            if not valid.any():
                break
            hit[valid] |= nid[up[valid]] == anc
            up = np.where(valid, parent[np.maximum(up, 0)], -1)
        return int(np.count_nonzero(hit & (nid == c)))

    return {
        "calls": {names[i]: int(calls[i]) for i in range(k)},
        "self_s": {names[i]: float(self_by_name[i]) for i in range(k)},
        "sub_matrix_in_collapse": under("decomposition.sub_matrix", "protocol.collapsed_state", True),
        "collapses_in_draws": under("protocol.collapsed_state", "protocol.sample_outcome", False),
        "op_ids": np.unique(a["op"]).tolist(),
    }
