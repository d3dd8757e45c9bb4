"""In-memory span aggregation for the traced benchmark run.

Functions are wrapped from outside the program: the wrapper replaces a module
or class attribute, so every call that resolves the name at call time goes
through it. Per span name the tracer keeps the call count, the total time and
the self time (total minus the time covered by child spans). Nothing is
written per call; the aggregate is read once when the workload ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    """Aggregates nested spans by name; single-threaded use only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self._child_time = []  # one accumulator per open span
        self._undo = []

    def wrap(self, fn, name, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args, kwargs)`` may return ``(args, kwargs, ctx)`` to replace
        the call's arguments; ``after(ctx, args, result)`` runs once the span
        has closed, so its own cost is charged to the caller.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = None
            if before is not None:
                args, kwargs, ctx = before(args, kwargs)
            self._child_time.append(0.0)
            start = self.clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                children = self._child_time.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children
                if self._child_time:
                    self._child_time[-1] += elapsed
            if after is not None:
                after(ctx, args, return_value)
            return return_value

        return traced

    def patch(self, owner, attr, name, before=None, after=None,
              alias_prefix=None):
        """Replace ``owner.attr`` with a traced version.

        Plain functions, methods and classmethods are supported. With
        ``alias_prefix``, every module whose name starts with it and which
        imported the same function under the same name is patched too, so
        ``from x import f`` call sites are traced as well.
        """
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            replacement = classmethod(
                self.wrap(static.__func__, name, before, after))
        else:
            replacement = self.wrap(static, name, before, after)
        self._set(owner, attr, replacement)
        if alias_prefix is not None and not isinstance(static, classmethod):
            for mod_name, mod in list(sys.modules.items()):
                if (mod is not owner and mod_name.startswith(alias_prefix)
                        and getattr(mod, attr, None) is static):
                    self._set(mod, attr, replacement)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def count(self, name, amount=1.0):
        self.counters[name] += amount

    def snapshot(self) -> dict:
        """Plain-dict aggregate: {"spans": {name: [calls, total, self]},
        "counters": {name: value}}."""
        return {
            "spans": {n: [self.calls[n], self.total[n], self.self_time[n]]
                      for n in self.calls},
            "counters": dict(self.counters),
        }
