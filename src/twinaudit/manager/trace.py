"""Stage tracing for lifecycle operations.

Create and update handlers record named stages as they pass through the
manager's components, each with the `time.perf_counter()` reading taken as
it is recorded; conformance tests check the recorded order against the
expected chains as a strict subsequence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "CREATE_STAGES",
    "UPDATE_STAGES",
    "TraceRecorder",
    "TraceSpan",
    "is_subsequence",
]

# interface -> core -> BOM parse -> thing projection -> LCM -> runtime
# deploy -> data adapter push -> controller built -> confirmation -> response
CREATE_STAGES = (
    "interface",
    "core",
    "parse",
    "project",
    "lcm",
    "deploy",
    "data_adapter",
    "controller",
    "confirm",
    "respond",
)

# interface -> core -> payload parse -> thing projection -> data adapter
# push -> controller applied -> response
UPDATE_STAGES = (
    "interface",
    "core",
    "parse",
    "project",
    "data_adapter",
    "controller",
    "respond",
)


@dataclass
class TraceSpan:
    kind: str
    stages: list[str] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    opened: float = field(default_factory=time.perf_counter)

    def record(self, stage: str) -> None:
        self.stages.append(stage)
        self.times.append(time.perf_counter())

    def durations(self) -> list[tuple[str, float]]:
        """Each stage with its elapsed seconds: the time from the stage
        recorded before it, or for the first stage from the span opening."""
        starts = [self.opened, *self.times]
        return [(stage, end - start) for stage, start, end in zip(self.stages, starts, self.times)]


class TraceRecorder:
    """Keeps only the latest span of each kind, so it stays small however
    long the manager runs."""

    def __init__(self) -> None:
        self._latest: dict[str, TraceSpan] = {}

    def span(self, kind: str) -> TraceSpan:
        span = self._latest[kind] = TraceSpan(kind=kind)
        return span

    def last(self, kind: str) -> TraceSpan:
        span = self._latest.get(kind)
        if span is None:
            raise LookupError(f"no span of kind {kind!r}")
        return span


def is_subsequence(expected: Sequence[str], observed: Sequence[str]) -> bool:
    """True when expected appears in observed in order (gaps allowed)."""
    position = 0
    for stage in observed:
        if position < len(expected) and stage == expected[position]:
            position += 1
    return position == len(expected)
