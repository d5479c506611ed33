"""In-memory span recorder that wraps the public functions of modules.

Wrapping rebinds module attributes, so calls made through the module
(``qc.apply_on_wires(...)``) and calls between functions of one module,
which look the name up in the module globals, are both recorded.  Spans
live in flat arrays until the run ends; self time is derived afterwards as
a span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np


def public_functions(module) -> dict[str, object]:
    """Functions defined in `module` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Patch:
    """A set of module attribute rebindings that can be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def undo(self) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)


class Tracer:
    """Records (name, start, end, parent, operation id) for each call.

    `amounts` maps a span name to a function of (args, kwargs, result)
    whose value is summed per name, e.g. the register dimension a kernel
    touched.  `op_id` is set by whoever delimits operations.
    """

    def __init__(self, modules: dict[str, object], amounts=None):
        self.modules = modules
        self.amount_fns = dict(amounts or {})
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.amount_sum: dict[str, float] = {}
        self.op_id = 0
        self._stack: list[int] = []
        self._patch = Patch()

    def __len__(self) -> int:
        return len(self.name)

    def install(self) -> None:
        for short, module in self.modules.items():
            for fname, fn in public_functions(module).items():
                self._patch.rebind(module, fname,
                                   self._wrap(f"{short}.{fname}", fn))

    def uninstall(self) -> None:
        self._patch.undo()

    def _wrap(self, qualname: str, fn):
        nid = self.name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        amount = self.amount_fns.get(qualname)
        names, starts, ends, parents, ops = (self.name, self.start, self.end,
                                             self.parent, self.op)
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if amount is not None:
                self.amount_sum[qualname] = \
                    self.amount_sum.get(qualname, 0) + \
                    amount(args, kwargs, result)
            return result

        return traced

    def summary(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per-name calls, inclusive and self seconds for spans [lo, hi)."""
        if hi <= lo:
            return {}
        names = np.array(self.name[lo:hi], dtype=np.int64)
        parent = np.array(self.parent[lo:hi], dtype=np.int64)
        dur = (np.array(self.end[lo:hi], dtype=np.int64)
               - np.array(self.start[lo:hi], dtype=np.int64)) * 1e-9
        child = np.zeros(hi - lo)
        inside = parent >= lo
        np.add.at(child, parent[inside] - lo, dur[inside])
        self_time = dur - child
        count = np.bincount(names, minlength=len(self.names))
        incl = np.bincount(names, weights=dur, minlength=len(self.names))
        excl = np.bincount(names, weights=self_time,
                           minlength=len(self.names))
        return {n: {"calls": int(count[i]), "incl_s": float(incl[i]),
                    "self_s": float(excl[i])}
                for i, n in enumerate(self.names) if count[i]}

    def save(self, path) -> None:
        """Write every span, with the name table, as one .npz file."""
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.name, dtype=np.int32),
                 start_ns=np.array(self.start, dtype=np.int64),
                 end_ns=np.array(self.end, dtype=np.int64),
                 parent=np.array(self.parent, dtype=np.int32),
                 op=np.array(self.op, dtype=np.int32))
