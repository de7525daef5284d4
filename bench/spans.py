"""Timers around the public callables of kinmarket, installed from outside.

A ``Tracer`` replaces a module attribute or class attribute with a wrapper
that times each call, and puts the original back on ``remove``.  Wrapped
calls nest: the time of a call is also credited to the innermost wrapped
call that encloses it, so a span's self time is its total minus its
children.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)   # seconds inside each span name
        self.child = defaultdict(float)   # of which inside nested spans
        self.calls = defaultdict(int)
        self._stack: list[str] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, owner, attr: str) -> None:
        """Time every call of ``owner.attr`` under the span ``name``."""
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        stack, total, child, calls = self._stack, self.total, self.child, self.calls

        @functools.wraps(func)
        def timed(*args, **kwargs):
            stack.append(name)
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                total[name] += dt
                calls[name] += 1
                if stack:
                    child[stack[-1]] += dt

        self._undo.append((owner, attr, raw))
        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
