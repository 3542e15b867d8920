"""Audit run lifecycle records."""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

__all__ = ["AuditRun", "InvalidTransition", "RunState", "TRANSITIONS"]

RUNS = "runs"


class RunState(str, Enum):
    CREATED = "CREATED"
    COLLECTING = "COLLECTING"
    BOMS_BUILT = "BOMS_BUILT"
    SDT_REQUESTED = "SDT_REQUESTED"
    SDT_READY = "SDT_READY"
    UPDATING = "UPDATING"
    FAILED = "FAILED"


# FAILED is terminal; SDT_READY <-> UPDATING is the steady-state loop.
TRANSITIONS: dict[RunState, frozenset[RunState]] = {
    RunState.CREATED: frozenset({RunState.COLLECTING, RunState.FAILED}),
    RunState.COLLECTING: frozenset({RunState.BOMS_BUILT, RunState.FAILED}),
    RunState.BOMS_BUILT: frozenset({RunState.SDT_REQUESTED, RunState.FAILED}),
    RunState.SDT_REQUESTED: frozenset({RunState.SDT_READY, RunState.FAILED}),
    RunState.SDT_READY: frozenset({RunState.UPDATING, RunState.FAILED}),
    RunState.UPDATING: frozenset({RunState.SDT_READY, RunState.FAILED}),
    RunState.FAILED: frozenset(),
}


class InvalidTransition(RuntimeError):
    def __init__(self, current: RunState, target: RunState) -> None:
        super().__init__(f"cannot move from {current.value} to {target.value}")
        self.current = current
        self.target = target


@dataclass
class AuditRun:
    run_id: str
    profile_id: str
    state: RunState = RunState.CREATED
    created_at: float = 0.0
    updated_at: float = 0.0
    hosts: tuple[str, ...] = ()
    bom_serials: tuple[str, ...] = ()
    feeds: tuple[str, ...] = ()  # the advisory feeds the run was audited with
    sdt_id: Optional[str] = None
    representation_version: int = 0
    error: Optional[str] = None
    host_errors: dict[str, str] = field(default_factory=dict)

    @classmethod
    def new(cls, profile_id: str, now: float) -> "AuditRun":
        return cls(
            run_id=uuid.uuid4().hex,
            profile_id=profile_id,
            created_at=now,
            updated_at=now,
        )

    def advance(self, target: RunState, now: float, error: Optional[str] = None) -> None:
        if target not in TRANSITIONS[self.state]:
            raise InvalidTransition(self.state, target)
        self.state = target
        self.touch(now)
        if target is RunState.FAILED:
            self.error = error or "unknown"
        elif error is not None:
            self.error = error

    def touch(self, now: float) -> None:
        """Record activity without a transition."""
        # Clock sources may jitter; recorded timestamps stay monotone.
        self.updated_at = max(now, self.updated_at)

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "profile_id": self.profile_id,
            "state": self.state.value,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "hosts": list(self.hosts),
            "bom_serials": list(self.bom_serials),
            "feeds": list(self.feeds),
            "sdt_id": self.sdt_id,
            "representation_version": self.representation_version,
            "error": self.error,
            "host_errors": dict(self.host_errors),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "AuditRun":
        return cls(
            run_id=str(doc["run_id"]),
            profile_id=str(doc["profile_id"]),
            state=RunState(doc.get("state", RunState.CREATED.value)),
            created_at=float(doc.get("created_at", 0.0)),
            updated_at=float(doc.get("updated_at", 0.0)),
            hosts=tuple(doc.get("hosts") or ()),
            bom_serials=tuple(doc.get("bom_serials") or ()),
            feeds=tuple(doc.get("feeds") or ()),
            sdt_id=doc.get("sdt_id"),
            representation_version=int(doc.get("representation_version", 0)),
            error=doc.get("error"),
            host_errors=dict(doc.get("host_errors") or {}),
        )
