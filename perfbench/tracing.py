"""Spans around calls into cevian's layers, recorded from outside the program.

``Tracer.patch`` replaces a module-level function of cevian with a wrapper
that records one span per call, everywhere the function object is bound:
its own module and every cevian module that imported it by name.
``Tracer.patch_entries`` wraps the functions of a registry dict in place.
``Tracer.unpatch`` undoes both.  Spans are kept in flat integer arrays
while the run lasts and written out at the end; a layer's self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._restore: list = []  # callables that undo one patch each

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, sink: list | None = None):
        """fn with one span named `name` recorded around every call; with a
        sink, each return value is appended to it after the span ends."""
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_name)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_name.append(name_id)
            self.span_start.append(0)
            self.span_end.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if sink is not None:
                sink.append(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, sink: list | None = None) -> None:
        """Wrap owner.attr and rebind every cevian module-level name that
        refers to the same object.  `owner` is a module or a class."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, sink)
        targets = [owner] + [
            module
            for module_name, module in sys.modules.items()
            if module_name.split(".")[0] == "cevian" and module is not owner
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._restore.append(functools.partial(setattr, target, key, value))
                    setattr(target, key, traced)

    def patch_entries(self, mapping: dict, prefix: str) -> None:
        """Wrap every function in mapping in place, as span prefix + key."""
        for key, original in list(mapping.items()):
            self._restore.append(functools.partial(mapping.__setitem__, key, original))
            mapping[key] = self.wrap(prefix + key, original)

    def unpatch(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def __len__(self) -> int:
        return len(self.span_name)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, inclusive seconds) over all spans."""
        n = len(self)
        child = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        calls: dict[int, int] = defaultdict(int)
        own: dict[int, int] = defaultdict(int)
        whole: dict[int, int] = defaultdict(int)
        for i in range(n):
            name_id = self.span_name[i]
            duration = self.span_end[i] - self.span_start[i]
            calls[name_id] += 1
            own[name_id] += duration - child[i]
            whole[name_id] += duration
        return {
            self.names[k]: (calls[k], own[k] / 1e9, whole[k] / 1e9) for k in calls
        }

    def write(self, path) -> None:
        """One line per span: id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self)):
                fh.write(
                    f"{i},{self.span_parent[i]},"
                    f"{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]},{self.span_end[i]}\n"
                )
