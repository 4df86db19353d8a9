"""In-memory span tracing around the public functions of filtered_tms.

``Tracer.install`` wraps every public module-level function of each layer
module, and the ``CovarianceMatrix`` constructor, and rebinds the wrapper
wherever the original function object is bound in the package, including
the names that ``from ... import`` copied into other modules.  Nothing under
``src/`` is edited; the wrappers live only in the benchmark process.

A span is (id, parent id, name, start, end).  Spans are appended to
per-thread arrays while tracing is active and kept in memory until the
benchmark writes them out.  Worker threads (``sweep --jobs``) have no span
of their own on the stack, so their top-level spans take the span the main
thread is blocked in as parent.
"""

from __future__ import annotations

import functools
import itertools
import threading
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("filters", "gaussian", "tmsv", "thermal", "bell", "fieldsim", "sweep", "svg", "cli")
HARNESS = "bench"
# spans whose return values are kept, for counts read off the results
KEEP_RETURNS = ("bell.bell_max",)


class _Buffer:
    __slots__ = ("sid", "parent", "name", "t0", "t1")

    def __init__(self):
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")


class Tracer:
    """Span recorder; inactive (pass-through) until ``active`` is set."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._main_stack = self._stack()
        self._keep = {self.name_id(n) for n in KEEP_RETURNS}
        self.returns: dict[str, list] = {n: [] for n in KEEP_RETURNS}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(self._local.buf)
        return stack

    def call(self, nid: int, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            buf = self._local.buf
            buf.sid.append(sid)
            buf.parent.append(parent)
            buf.name.append(nid)
            buf.t0.append(t0)
            buf.t1.append(t1)
        if nid in self._keep:
            self.returns[self.names[nid]].append(result)
        return result

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(nid, fn, args, kwargs)

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module."""
        modules = [getattr(package, m) for m in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        cls = package.gaussian.CovarianceMatrix
        cls.__init__ = self.wrap("gaussian.CovarianceMatrix", cls.__init__)

    def drain(self) -> dict[str, np.ndarray]:
        """Move every recorded span out of the per-thread buffers."""
        with self._lock:
            bufs = list(self._buffers)
        parts = {k: [] for k in _Buffer.__slots__}
        for buf in bufs:
            for k in _Buffer.__slots__:
                col = getattr(buf, k)
                parts[k].append(np.frombuffer(col, dtype=col.typecode).copy())
                del col[:]
        return {k: (np.concatenate(v) if v else np.empty(0)) for k, v in parts.items()}


def _parent_index(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Position of each span's parent in the arrays, -1 for roots."""
    order = np.argsort(spans["sid"])
    out = np.full(len(order), -1)
    has_parent = spans["parent"] != 0
    out[has_parent] = order[np.searchsorted(spans["sid"][order], spans["parent"][has_parent])]
    return out


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the union of its child spans' intervals.

    Children of one parent may overlap when they ran on worker threads, so
    their intervals are merged before subtraction.
    """
    n = len(spans["sid"])
    if n == 0:
        return np.empty(0)
    t0 = spans["t0"] - spans["t0"].min()
    t1 = spans["t1"] - spans["t0"].min()
    parent = _parent_index(spans)
    order = np.lexsort((t0, parent))
    p, s0, s1 = parent[order], t0[order], t1[order]
    first = np.concatenate(([True], p[1:] != p[:-1]))
    group = np.cumsum(first) - 1
    # segmented running max of end times: offset each group above all earlier ones
    big = float(t1.max()) + 1.0
    run_end = np.maximum.accumulate(s1 + group * big) - group * big
    prev_end = np.concatenate(([-np.inf], run_end[:-1]))
    prev_end[first] = -np.inf
    covered = np.maximum(0.0, s1 - np.maximum(s0, prev_end))
    union = np.zeros(n)
    np.add.at(union, p[p >= 0], covered[p >= 0])
    return (t1 - t0) - union


def parent_names(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Name id of each span's parent, -1 for roots."""
    parent = _parent_index(spans)
    return np.where(parent >= 0, spans["name"][parent], -1)
