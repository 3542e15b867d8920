"""Outside-in span tracing for the benchmark.

Spans are recorded by wrapping public entry points where their callers look
them up (a module global such as `twinaudit.ams.service.scan_host`, or a
class attribute such as `FileDocumentStore.put`). The program itself is not
changed. Spans live in memory and are written out when the run ends.

Parenting: a span takes the innermost open span of its own thread. A span
that opens a server dispatch on an HTTP handler thread takes the innermost
open client request span, since one closed-loop client has exactly one
request chain in flight. Any other span on a thread with nothing open (the
collection pool) takes the innermost open span of the operation's thread.
"""

from __future__ import annotations

import inspect
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

clock = time.perf_counter


@dataclass
class Span:
    span_id: int
    name: str
    op_id: int
    parent: Optional["Span"]
    start: float
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the children's intervals (clipped)."""
        covered, reach = 0.0, self.start
        for child in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._clients: list[Span] = []
        self._op_stack: list[Span] = []
        self._ids = 0
        self.orphans = 0  # server spans opened with no client request in flight

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, server: bool = False, client: bool = False) -> Span:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif server:
                parent = self._clients[-1] if self._clients else None
                self.orphans += parent is None
            else:
                parent = self._op_stack[-1] if self._op_stack else None
            self._ids += 1
            span = Span(self._ids, name, parent.op_id if parent else self._ids, parent, clock())
            if parent is not None:
                parent.children.append(span)
            self.spans.append(span)
            if client:
                self._clients.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        self._stack().remove(span)
        if self._clients and span in self._clients:
            with self._lock:
                self._clients.remove(span)

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.orphans = 0

    def op(self, name: str) -> "_OpScope":
        """Root span of one closed-loop operation, on the calling thread."""
        return _OpScope(self, name)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[Callable[..., None]] = None,
        server: bool = False,
        client: bool = False,
        rename: Optional[Callable[..., str]] = None,
    ) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(rename(*args, **kwargs) if rename else name, server, client)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(tracer, result, *args, **kwargs)
            return result

        return traced

    # -- reporting ----------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """name -> count, total_ms, self_ms, p50_ms over every closed span."""
        groups: dict[str, list[Span]] = {}
        for span in self.spans:
            if span.end:
                groups.setdefault(span.name, []).append(span)
        return {
            name: {
                "count": len(spans),
                "total_ms": 1000 * sum(s.duration for s in spans),
                "self_ms": 1000 * sum(s.self_time() for s in spans),
                "p50_ms": 1000 * statistics.median(s.duration for s in spans),
            }
            for name, spans in sorted(groups.items())
        }

    def blocking_path_ratios(self, op_name: str) -> list[float]:
        """Per root span named op_name: the summed self time of the
        program's spans below it over the operation's wall time. The root's
        own self time (the gaps no program span covers) is left out, so 1.0
        means the program's spans account for every instant exactly once;
        overlapping children push it above 1, uncovered time below."""
        ratios = []
        for root in self.spans:
            if root.name != op_name or root.parent is not None or not root.end:
                continue
            total, todo = 0.0, list(root.children)
            while todo:
                span = todo.pop()
                total += span.self_time()
                todo.extend(span.children)
            ratios.append(total / root.duration)
        return ratios

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.span_id, "name": s.name, "op": s.op_id,
                    "parent": s.parent.span_id if s.parent else None,
                    "start": s.start, "end": s.end,
                }) + "\n")


class _OpScope:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> Span:
        self.span = self.tracer.open(self.name)
        self.tracer._op_stack = self.tracer._stack()
        return self.span

    def __exit__(self, *exc: Any) -> None:
        self.tracer.close(self.span)


class Patches:
    """Swap attributes for traced wrappers and put the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
