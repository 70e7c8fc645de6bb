"""In-memory span recording around the program's module-level functions.

The tracer replaces module attributes that the program looks up at call
time with timing wrappers, and puts the originals back when it is
uninstalled. Each call becomes one span (name, start, end, parent
index); the benchmark's own command spans are opened with `span()`.
Self time is a span's duration minus the time its direct children
cover; calls are strictly nested because the program is single-threaded.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


class Tracer:
    def __init__(self):
        # One entry per span in each list. Parallel lists of names and
        # floats, rather than one object per span, keep the cyclic garbage
        # collector from walking every span while the program runs.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, or -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, observe: Callable | None = None) -> None:
        """Time every call of `owner.attr` as a span called `name`.

        `observe(args, result)` runs after the span has closed, so the
        counters it keeps are charged to the enclosing span (or to none),
        never to the layer itself; `trace.overhead_s` bounds their cost.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                child_time[parent] += duration
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, duration, children in zip(self.names, durations, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - children
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        """How many `child_name` spans have a `parent_name` span as parent."""
        return sum(
            1
            for name, parent in zip(self.names, self.parents)
            if name == child_name and parent >= 0 and self.names[parent] == parent_name
        )
