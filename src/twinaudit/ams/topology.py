"""Network topology: audited hosts and their typed relationships,
persisted in the document store."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Union

from ..config import read_data_file, typed_value
from .store import FileDocumentStore

__all__ = [
    "HostRecord",
    "InventoryError",
    "Relationship",
    "RelationshipKind",
    "Segment",
    "TopologyGraph",
    "ingest_inventory",
    "load_inventory",
    "topology_from_store",
]

TOPOLOGY = "topology"
# The whole inventory is one record: its hosts in host-id order and its
# relationships.
INVENTORY = "inventory"


class InventoryError(ValueError):
    pass


class Segment(str, Enum):
    DMZ = "DMZ"
    LAN = "LAN"


class RelationshipKind(str, Enum):
    SERVES = "SERVES"
    CONNECTS_TO = "CONNECTS_TO"


@dataclass(frozen=True)
class HostRecord:
    host_id: str
    role: str
    segment: Segment
    snapshot_ref: str

    def to_dict(self) -> dict[str, str]:
        return {
            "host_id": self.host_id,
            "role": self.role,
            "segment": self.segment.value,
            "snapshot_ref": self.snapshot_ref,
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "HostRecord":
        if not isinstance(doc, dict):
            raise InventoryError(f"host entry must be an object, not {doc!r}")
        missing = {"host_id", "role", "segment", "snapshot_ref"} - set(doc)
        if missing:
            raise InventoryError(f"host entry missing fields: {sorted(missing)}")
        try:
            segment = Segment(str(doc["segment"]).upper())
        except ValueError:
            raise InventoryError(f"unknown segment {doc['segment']!r}") from None
        return cls(
            host_id=typed_value(doc["host_id"], str, "host_id", InventoryError),
            role=typed_value(doc["role"], str, "role", InventoryError),
            segment=segment,
            snapshot_ref=typed_value(doc["snapshot_ref"], str, "snapshot_ref", InventoryError),
        )


@dataclass(frozen=True)
class Relationship:
    source: str
    kind: RelationshipKind
    target: str

    def to_dict(self) -> dict[str, str]:
        return {"source": self.source, "kind": self.kind.value, "target": self.target}


@dataclass(frozen=True)
class TopologyGraph:
    hosts: tuple[HostRecord, ...]
    relationships: tuple[Relationship, ...]

    def host(self, host_id: str) -> HostRecord:
        for record in self.hosts:
            if record.host_id == host_id:
                return record
        raise InventoryError(
            f"host {host_id!r} is not in the inventory; run `inventory ingest`"
        )

    def host_ids(self) -> list[str]:
        return sorted(h.host_id for h in self.hosts)

    def by_role(self, role: str) -> list[HostRecord]:
        return sorted(
            (h for h in self.hosts if h.role == role), key=lambda h: h.host_id
        )


def _parse_relationship(doc: Any, known: set[str]) -> Relationship:
    if not isinstance(doc, dict):
        raise InventoryError(f"relationship entry must be an object, not {doc!r}")
    missing = {"source", "kind", "target"} - set(doc)
    if missing:
        raise InventoryError(f"relationship missing fields: {sorted(missing)}")
    try:
        kind = RelationshipKind(str(doc["kind"]).upper())
    except ValueError:
        raise InventoryError(f"unknown relationship kind {doc['kind']!r}") from None
    source = typed_value(doc["source"], str, "relationship source", InventoryError)
    target = typed_value(doc["target"], str, "relationship target", InventoryError)
    for endpoint in (source, target):
        if endpoint not in known:
            raise InventoryError(f"relationship endpoint {endpoint!r} is not a known host")
    return Relationship(source=source, kind=kind, target=target)


def parse_inventory(data: Any) -> TopologyGraph:
    if not isinstance(data, dict):
        raise InventoryError("inventory must be an object with hosts/relationships")
    hosts: list[HostRecord] = []
    seen: set[str] = set()
    for entry in typed_value(data.get("hosts") or [], list, "hosts", InventoryError):
        record = HostRecord.from_dict(entry)
        if record.host_id in seen:
            raise InventoryError(f"duplicate host_id {record.host_id!r} in inventory")
        seen.add(record.host_id)
        hosts.append(record)
    entries = typed_value(data.get("relationships") or [], list, "relationships", InventoryError)
    relationships = tuple(_parse_relationship(entry, seen) for entry in entries)
    return TopologyGraph(hosts=tuple(hosts), relationships=relationships)


def load_inventory(path: Union[str, Path]) -> TopologyGraph:
    return parse_inventory(read_data_file(path))


def ingest_inventory(store: FileDocumentStore, source: Union[str, Path, dict]) -> TopologyGraph:
    """Parse and persist an inventory; hosts upsert by host_id and
    relationships merge, all in one record written by one put."""
    graph = parse_inventory(source) if isinstance(source, dict) else load_inventory(source)
    stored = store.get(TOPOLOGY, INVENTORY) or {"hosts": [], "relationships": []}
    hosts = {doc["host_id"]: doc for doc in stored["hosts"]}
    hosts.update((host.host_id, host.to_dict()) for host in graph.hosts)
    merged = {json.dumps(r, sort_keys=True) for r in stored["relationships"]}
    merged.update(
        json.dumps(r.to_dict(), sort_keys=True) for r in graph.relationships
    )
    store.put(
        TOPOLOGY,
        INVENTORY,
        {
            "hosts": [hosts[h] for h in sorted(hosts)],
            "relationships": [json.loads(r) for r in sorted(merged)],
        },
    )
    return graph


def topology_from_store(store: FileDocumentStore) -> TopologyGraph:
    """The stored inventory, hosts in host-id order, from one read."""
    stored = store.get(TOPOLOGY, INVENTORY)
    if stored is None:
        return TopologyGraph(hosts=(), relationships=())
    hosts = tuple(HostRecord.from_dict(doc) for doc in stored["hosts"])
    known = {h.host_id for h in hosts}
    return TopologyGraph(
        hosts=hosts,
        relationships=tuple(_parse_relationship(r, known) for r in stored["relationships"]),
    )
