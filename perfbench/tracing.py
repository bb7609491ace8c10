"""In-memory span tracer that wraps library functions from outside the library.

A span is one call of a wrapped function: ``[name, start_ns, end_ns, parent,
job]``, where ``parent`` is the index of the enclosing span (-1 at top level)
and ``job`` is the benchmark job that was running. Spans stay in memory and
are written out once, when the benchmark ends.

Wrapping rebinds every module-level name in the ``heavycover`` package that
refers to the original function, so a call through an imported name (for
example ``verification.max_depth_point``) is traced too; the library's source
is untouched. Each wrapper costs about a microsecond per call, so only the
layer-boundary functions are wrapped, never the inner predicates.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Collects spans and counters while installed; restores bindings on exit."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._restore = []

    def wrap(self, module, attr, name, on_result=None):
        """Replace ``module.attr`` (and every alias of it in the package) with a
        span-recording wrapper. ``on_result(counts, args, result)`` may add
        counters after each call."""
        original = getattr(module, attr)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, args, result)
            return result

        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("heavycover"):
                continue
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapper)
                self._restore.append((mod, key, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()
        return False


def covered_ns(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times_ns(spans):
    """Each span's duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_ns(children.get(i, ()), start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


class SpanTable:
    """Queries over one traced pass: busy time, self time, child time, calls."""

    def __init__(self, spans, counts):
        self.spans = spans
        self.counts = counts
        self.self_ns = self_times_ns(spans)

    def _outermost(self, name):
        """Spans of ``name`` with no ancestor of the same name (no double count)."""
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                yield i

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def busy_s(self, name):
        return sum(self.spans[i][2] - self.spans[i][1] for i in self._outermost(name)) / 1e9

    def self_s(self, name):
        return sum(t for s, t in zip(self.spans, self.self_ns) if s[0] == name) / 1e9

    def child_s(self, name, parent):
        """Time in ``name`` spans called directly from ``parent`` spans."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent) / 1e9

    def us_per_call(self, name):
        calls = self.calls(name)
        return self.busy_s(name) * 1e6 / calls if calls else 0.0
