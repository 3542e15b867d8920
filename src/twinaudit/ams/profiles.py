"""Audit profiles: which hosts and which evidence categories a run covers."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from ..collect import EvidenceCategory
from ..config import known_fields, read_data_file, typed_value
from .store import FileDocumentStore
from .topology import TopologyGraph, topology_from_store

__all__ = [
    "AuditProfile",
    "ProfileError",
    "SyncPolicy",
    "create_profile",
    "get_profile",
    "load_profile_file",
    "selected_hosts",
]

PROFILES = "profiles"

ON_DEMAND = "ON_DEMAND"
PERIODIC = "PERIODIC"


class ProfileError(ValueError):
    pass


@dataclass(frozen=True)
class SyncPolicy:
    kind: str = ON_DEMAND
    interval_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in (ON_DEMAND, PERIODIC):
            raise ProfileError(f"unknown sync policy {self.kind!r}")
        interval = self.interval_seconds
        number = isinstance(interval, (int, float)) and not isinstance(interval, bool)
        if self.kind == PERIODIC and not (number and interval > 0):
            raise ProfileError(
                f"PERIODIC policy requires a number interval_seconds > 0, not {interval!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind}
        if self.interval_seconds is not None:
            doc["interval_seconds"] = self.interval_seconds
        return doc


@dataclass(frozen=True)
class AuditProfile:
    profile_id: str
    name: str
    host_selector: tuple[str, ...]
    categories: tuple[str, ...] = ()  # empty means every category
    sync_policy: SyncPolicy = field(default_factory=SyncPolicy)

    def __post_init__(self) -> None:
        if not typed_value(self.profile_id, str, "profile_id", ProfileError):
            raise ProfileError("profile_id must be non-empty")
        typed_value(self.name, str, "name", ProfileError)
        if not self.host_selector:
            raise ProfileError("host_selector must be non-empty")
        for entry in self.host_selector:
            typed_value(entry, str, "host_selector entry", ProfileError)
        for category in self.categories:
            try:
                EvidenceCategory(category)
            except ValueError:
                raise ProfileError(f"unknown evidence category {category!r}") from None

    def to_dict(self) -> dict[str, Any]:
        return {
            "profile_id": self.profile_id,
            "name": self.name,
            "host_selector": list(self.host_selector),
            "categories": list(self.categories),
            "sync_policy": self.sync_policy.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "AuditProfile":
        known_fields(doc, _PROFILE_FIELDS, "profile", ProfileError)
        policy_doc = doc.get("sync_policy") or {}
        if not isinstance(policy_doc, dict):
            raise ProfileError(f"sync_policy must be an object, not {policy_doc!r}")
        known_fields(policy_doc, _POLICY_FIELDS, "sync_policy", ProfileError)
        return cls(
            profile_id=doc.get("profile_id", ""),
            name=doc.get("name", doc.get("profile_id", "")),
            host_selector=_list(doc, "host_selector"),
            categories=_list(doc, "categories"),
            sync_policy=SyncPolicy(
                kind=policy_doc.get("kind", ON_DEMAND),
                interval_seconds=policy_doc.get("interval_seconds"),
            ),
        )


_PROFILE_FIELDS = frozenset(AuditProfile.__dataclass_fields__)
_POLICY_FIELDS = frozenset(SyncPolicy.__dataclass_fields__)


def _list(doc: dict[str, Any], key: str) -> tuple[Any, ...]:
    return tuple(typed_value(doc.get(key) or [], list, key, ProfileError))


def selected_hosts(profile: AuditProfile, topology: TopologyGraph) -> list[str]:
    """Selector entries match a host_id or a role tag; each must match."""
    chosen: set[str] = set()
    known = set(topology.host_ids())
    for entry in profile.host_selector:
        if entry in known:
            chosen.add(entry)
            continue
        by_role = topology.by_role(entry)
        if not by_role:
            raise ProfileError(f"selector entry {entry!r} matches no host or role")
        chosen.update(h.host_id for h in by_role)
    return sorted(chosen)


def create_profile(store: FileDocumentStore, profile: AuditProfile) -> AuditProfile:
    """Validate the selector against the stored topology, then persist."""
    selected_hosts(profile, topology_from_store(store))
    store.put(PROFILES, profile.profile_id, profile.to_dict())
    return profile


def get_profile(store: FileDocumentStore, profile_id: str) -> Optional[AuditProfile]:
    doc = store.get(PROFILES, profile_id)
    return AuditProfile.from_dict(doc) if doc is not None else None


def load_profile_file(path: Union[str, Path]) -> AuditProfile:
    """The profile a file holds; a ProfileError names the file."""
    data = read_data_file(path)
    if not isinstance(data, dict):
        raise ProfileError(f"{path}: a profile file must contain an object")
    try:
        return AuditProfile.from_dict(data)
    except ProfileError as err:
        err.args = (f"{path}: {err}",)
        raise
