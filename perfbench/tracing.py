"""Span tracer that wraps the program's public entry points from outside.

``--trace 1`` installs wrappers on module attributes and class methods of
``repro`` (nothing under ``src/`` is edited) and restores them at the
end.  Each call of a wrapped entry point records a span ``(name, start,
end, parent)`` in memory; the spans are written as one JSON file when
the run ends.  Self time is a span's duration minus the child spans it
covers.  Call counters (no timing) use :meth:`Tracer.count`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or -1, thread id]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        record = [name, _now(), 0, stack[-1] if stack else -1, threading.get_ident()]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._stack().pop()

    def timed(self, name: str, fn: Callable, when: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so each call records a span (if ``when(*args)`` holds)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def timed_iter(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator-returning ``fn``: one span per ``next()``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def spans():
                while True:
                    index = tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(index)
                    yield item

            return spans()

        return wrapper

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attr: str, replacement: Callable) -> None:
        # A class keeps its own function object (not a bound lookup), so
        # restoring puts back exactly what was there.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, when: Optional[Callable] = None) -> None:
        self.patch(owner, attr, self.timed(name, getattr(owner, attr), when))

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, self.timed_iter(name, getattr(owner, attr)))

    def count(self, owner, attr: str, name: str, amount: Optional[Callable] = None) -> None:
        """Count calls of ``owner.attr`` (``amount(*args)`` per call, default 1)."""
        fn = getattr(owner, attr)
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1 if amount is None else amount(*args)
            return fn(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def inclusive_s(self, name: str) -> float:
        """Total seconds in ``name`` spans, not double-counting nested ones."""
        total = 0
        for span in self.spans:
            if span[0] == name and not self._has_ancestor(span, name):
                total += span[2] - span[1]
        return total / 1e9

    def self_s(self, name: str) -> float:
        """Seconds in ``name`` spans minus the child spans they cover."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        total = 0
        for i, span in enumerate(self.spans):
            if span[0] == name:
                total += span[2] - span[1] - child[i]
        return total / 1e9

    def _has_ancestor(self, span: list, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def span_cost_ns(self, calls: int = 20000) -> float:
        """Measured cost of one span on this host (wrapper minus bare call)."""

        def noop():
            return None

        probe = Tracer()
        wrapped = probe.timed("probe", noop)
        t0 = _now()
        for _ in range(calls):
            noop()
        bare = _now() - t0
        t0 = _now()
        for _ in range(calls):
            wrapped()
        return max(0.0, (_now() - t0 - bare) / calls)

    def dump(self, path: str, meta: Dict[str, object]) -> None:
        origin = min((s[1] for s in self.spans), default=0)
        payload = {
            "meta": meta,
            "counts": self.counts,
            "spans": [
                {
                    "name": s[0],
                    "start_us": (s[1] - origin) / 1e3,
                    "end_us": (s[2] - origin) / 1e3,
                    "parent": s[3],
                    "thread": s[4],
                }
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
