"""In-memory span tracer that wraps library functions at their lookup names.

A span records a name, its start and end (``perf_counter_ns``), the span that
was open when it began, the operation it belongs to, and free-form counters.
Spans stay in memory until the benchmark writes them out at the end.
"""

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    op: str | None
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    def as_record(self) -> dict:
        return {"id": self.span_id, "parent": self.parent, "op": self.op,
                "name": self.name, "start_ns": self.start_ns,
                "end_ns": self.end_ns, "attrs": self.attrs}


class Tracer:
    """Collects spans from one thread; the open spans form a stack."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def operation(self, op: str):
        """Tag every span opened inside the block with the operation id."""
        previous, self._op = self._op, op
        try:
            yield
        finally:
            self._op = previous

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(len(self.spans), parent, self._op, name,
                  time.perf_counter_ns(), attrs=dict(attrs))
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` recording a span per call.

        ``count(span_attrs, result, args)`` may add counters to the span after
        a successful call.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(sp.attrs, result, args)
                return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``owner.attr`` by a traced wrapper for each target.

        ``targets`` holds ``(owner, attr, span_name, count)`` tuples; the
        owner is a module or class, so callers that look the name up at call
        time reach the wrapper. Originals are restored on exit.
        """
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _covered_ns(intervals) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times_ns(spans) -> dict:
    """Span id -> duration minus the part its direct children cover."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        inner = [(max(c.start_ns, sp.start_ns), min(c.end_ns, sp.end_ns))
                 for c in children.get(sp.span_id, ())]
        inner = [(a, b) for a, b in inner if b > a]
        out[sp.span_id] = (sp.end_ns - sp.start_ns) - _covered_ns(inner)
    return out
