"""Span recorder for the traced run.

A span is (name, start, end, parent, op id), kept in memory and written out
when the run ends.  Spans are recorded around every call the benchmark makes
into a layer, and, in the traced run only, around the names that ``cli`` and
``bridge`` import from other modules.  Calls inside a layer are never
wrapped, so the hot paths keep their cost.  A generator is timed over its full
iteration: from its first step until it is exhausted or closed.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter
from time import perf_counter


def span_name(fn) -> str:
    """``<module>.<function>``, the module without the package prefix."""
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)


class Recorder:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.op_ids = []
        self.stack = []
        self.op = -1
        self.last = -1
        self.counters = Counter()

    def _open(self, name, push):
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.op_ids.append(self.op)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        if push:
            self.stack.append(idx)
        return idx

    def wrap(self, fn, name=None):
        name = name or span_name(fn)
        ends, stack = self.ends, self.stack
        if inspect.isgeneratorfunction(fn):
            # not pushed: the consumer runs between the generator's steps
            def gen_wrapper(*args, **kwargs):
                idx = self._open(name, push=False)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    ends[idx] = perf_counter()

            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = self._open(name, push=True)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                self.last = idx

        return wrapper

    def wrap_imports(self, module, names):
        """Replace names that `module` imported from other modules by
        wrapped versions; a name that no longer exists is an error."""
        for name in names:
            fn = getattr(module, name, None)
            if not callable(fn):
                raise RuntimeError("%s.%s no longer exists; update the traced names"
                                   % (module.__name__, name))
            setattr(module, name, self.wrap(fn))

    def count(self, name, value=1):
        self.counters[name] += value

    def last_duration(self):
        """Duration of the span that closed last."""
        return self.ends[self.last] - self.starts[self.last]

    def totals(self):
        """(inclusive seconds, calls) per span name."""
        secs, calls = Counter(), Counter()
        for name, start, end in zip(self.names, self.starts, self.ends):
            secs[name] += end - start
            calls[name] += 1
        return secs, calls

    def self_times(self, wanted):
        """Seconds per span name in `wanted`, minus the part of each span
        that its child spans cover."""
        children = {}
        for idx, parent in enumerate(self.parents):
            if parent >= 0 and self.names[parent] in wanted:
                children.setdefault(parent, []).append(idx)
        out = Counter()
        for idx, name in enumerate(self.names):
            if name not in wanted:
                continue
            start, end = self.starts[idx], self.ends[idx]
            covered, reach = 0.0, start
            for c in sorted(children.get(idx, ()), key=self.starts.__getitem__):
                lo, hi = max(self.starts[c], reach), min(self.ends[c], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[name] += end - start - covered
        return out

    def write(self, path, origin):
        """Spans as {"names": [...], "spans": [[name, start_us, end_us,
        parent, op], ...]}, times in microseconds from `origin`."""
        table = {}
        spans = []
        for name, start, end, parent, op in zip(
            self.names, self.starts, self.ends, self.parents, self.op_ids
        ):
            nid = table.setdefault(name, len(table))
            spans.append([nid, round((start - origin) * 1e6, 1),
                          round((end - origin) * 1e6, 1), parent, op])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": list(table), "spans": spans}, handle, separators=(",", ":"))


class NullRecorder:
    """Stands in for the recorder when tracing is off."""

    op = -1

    def wrap(self, fn, name=None):
        return fn

    def count(self, name, value=1):
        pass

    def last_duration(self):
        return 0.0
