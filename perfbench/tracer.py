"""Outside-in tracer for the netinv layers.

Wraps the public functions of the layer modules (plus two `Network`
methods) from outside the package and rebinds every `netinv.*` module
attribute that holds the same function object, so direct imports (as in
`cli`) and nested calls through module globals are all traced. Spans
(name, start, end, parent, op id) are kept in flat arrays in memory and
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

#: The package modules treated as layers. `oracle` is test-only.
LAYERS = ("network", "numerics", "forward", "paths", "inverse", "cli")

#: Methods traced besides the module-level functions: (module, class, method).
METHODS = (("network", "Network", "adjacency"), ("network", "Network", "__post_init__"))


#: Outcome counters read off a traced call's return value.
RESULT_COUNTERS = {
    "paths.enumerate_path_systems": ("paths.systems_found", len),
    "paths.is_log_linear_admissible": ("paths.admitted", lambda r: r is not None),
    "inverse.enumerate_admissible_pairs": ("inverse.rows_collected", len),
    "inverse.build_system": ("inverse.rows_dropped", lambda r: len(r.dropped)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the layer functions and rebind every alias to them."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "netinv" or name.startswith("netinv.")
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(f"netinv.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebind(mod, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules.get(f"netinv.{layer}"), cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if inspect.isfunction(fn):
                self._rebind(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = RESULT_COUNTERS.get(name)
        stack, counters = self._stack, self.counters
        start, end, parent, op, name_id = self.start, self.end, self.parent, self.op, self.name_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()
            if counter is not None:
                key, read = counter
                counters[key] = counters.get(key, 0) + int(read(result))
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total calls and total self time in ms. Self
        time is a span's duration minus the durations of its children."""
        if not self.name_id:
            return {}
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_total = np.bincount(names, weights=self_ns, minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "self_ms": float(self_total[i]) / 1e6}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
