"""Outside-in span tracer for the benchmark.

The tracer replaces library functions with wrappers at every module binding
that refers to them, so a call is seen whichever name the caller used
(``braidarr.cli.charpoly_ff`` and ``braidarr.arrangements.charpoly_ff`` are
separate bindings of one function).  Spans are kept in memory as parallel
arrays (name id, parent index, start, end) and written when the run ends;
self times are computed from them afterwards.

Inner wrappers record only while a root span is open, so oracle and input
generation calls made by the benchmark between CLI calls leave no spans.
"""
from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        fn: Callable,
        name: str,
        observe: Callable | None = None,
        root: bool = False,
    ) -> Callable:
        """Wrapper that records a span per call.

        ``observe(args, result)`` runs after the span closes, so counters do
        not add to the span's time.  A root wrapper always records; any other
        wrapper records only inside an open span.
        """
        nid = self._name_id(name)
        stack = self._stack
        names_append = self.span_name.append
        parents_append = self.span_parent.append
        starts_append = self.span_start.append
        ends_append = self.span_end.append
        ends = self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            index = len(ends)
            names_append(nid)
            parents_append(stack[-1] if stack else -1)
            ends_append(0.0)
            stack.append(index)
            starts_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(
        self,
        modules: Iterable[ModuleType],
        owner: object,
        attr: str,
        name: str,
        observe: Callable | None = None,
    ) -> bool:
        """Wrap ``owner.attr`` and rebind it wherever a module refers to it.

        ``owner`` is a module or a class.  Class attributes are rebound on the
        class only; a classmethod keeps its binding behaviour.  Returns False,
        wrapping nothing, when ``owner`` has no such attribute.
        """
        original = vars(owner).get(attr)
        if original is None:
            return False
        if isinstance(owner, type):
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, name, observe))
            else:
                wrapped = self.wrap(original, name, observe)
            setattr(owner, attr, wrapped)
            return True
        wrapped = self.wrap(original, name, observe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
        return True

    def summary(self) -> "SpanSummary":
        return SpanSummary(
            self.names,
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.span_parent, dtype=np.int32),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
            dict(self.counters),
        )


class SpanSummary:
    """Per-name totals computed from the span arrays."""

    def __init__(self, names, name, parent, start, end, counters):
        self.names = list(names)
        self.name, self.parent, self.start, self.end = name, parent, start, end
        self.counters = counters
        k = len(self.names)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(name)
        )
        self_time = duration - child_time
        # No traced function calls itself, so summing durations per name
        # counts no time twice.
        self._inclusive = np.bincount(name, weights=duration, minlength=k)
        self._self = np.bincount(name, weights=self_time, minlength=k)
        self._calls = np.bincount(name, minlength=k)
        self._last_child_end = np.full(len(name), -np.inf)
        np.maximum.at(self._last_child_end, parent[has_parent], end[has_parent])

    def _id(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None

    def inclusive_s(self, name: str) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self._inclusive[i])

    def self_s(self, name: str) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self._self[i])

    def calls(self, name: str) -> int:
        i = self._id(name)
        return 0 if i is None else int(self._calls[i])

    def tail_s(self, name: str) -> float:
        """Time each span of ``name`` runs after its last child span ends."""
        i = self._id(name)
        if i is None:
            return 0.0
        spans = np.flatnonzero(self.name == i)
        last = self._last_child_end[spans]
        last = np.where(np.isfinite(last), last, self.start[spans])
        return float(np.sum(self.end[spans] - last))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            start=self.start,
            end=self.end,
        )
