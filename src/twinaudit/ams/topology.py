"""Network topology: audited hosts and their typed relationships,
persisted in the document store."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Any, Container, Sequence, Union

from ..config import known_fields, read_data_file, typed_value
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
        missing = _HOST_FIELDS - doc.keys()
        if missing:
            raise InventoryError(f"host entry missing fields: {sorted(missing)}")
        known_fields(doc, _HOST_FIELDS, "host entry", InventoryError)
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


_HOST_FIELDS = frozenset(HostRecord.__dataclass_fields__)
_RELATIONSHIP_FIELDS = frozenset(Relationship.__dataclass_fields__)
_INVENTORY_FIELDS = frozenset({"hosts", "relationships"})


def _relationship_text(relationship: Relationship) -> str:
    """The stored inventory's sort key of a relationship."""
    return json.dumps(relationship.to_dict(), sort_keys=True)


class TopologyGraph:
    """An inventory: its host entries keyed by host id, and its
    relationship entries, as read from a file or the store.

    Each record is built, and its entry checked, when it is first read:
    `host` builds one host's record, `hosts` every host's, and
    `relationships` every relationship. An entry that has no string
    host_id, or repeats another's, is refused at construction.
    """

    def __init__(self, hosts: Sequence[Any] = (), relationships: Sequence[Any] = ()) -> None:
        self._entries = _by_host_id(hosts)
        self._relationship_entries = relationships
        self._records: dict[str, HostRecord] = {}

    def host(self, host_id: str) -> HostRecord:
        record = self._records.get(host_id)
        if record is None:
            entry = self._entries.get(host_id)
            if entry is None:
                raise InventoryError(
                    f"host {host_id!r} is not in the inventory; run `inventory ingest`"
                )
            record = self._records[host_id] = HostRecord.from_dict(entry)
        return record

    @cached_property
    def hosts(self) -> tuple[HostRecord, ...]:
        """Every host's record, in host-id order."""
        return tuple(self.host(h) for h in self.host_ids())

    @cached_property
    def relationships(self) -> tuple[Relationship, ...]:
        """Every distinct relationship, in the stored inventory's order."""
        parsed = {_parse_relationship(r, self._entries) for r in self._relationship_entries}
        return tuple(sorted(parsed, key=_relationship_text))

    def host_ids(self) -> list[str]:
        return sorted(self._entries)

    def by_role(self, role: str) -> list[HostRecord]:
        return [h for h in self.hosts if h.role == role]


def _by_host_id(entries: Sequence[Any]) -> dict[str, Any]:
    """The host entries keyed by host id. An entry without a string host_id
    is refused with from_dict's error, and a repeated host_id by name."""
    keyed: dict[str, Any] = {}
    for entry in entries:
        host_id = entry.get("host_id") if isinstance(entry, dict) else None
        if type(host_id) is not str:
            HostRecord.from_dict(entry)  # raises: the entry is no host
        if host_id in keyed:
            raise InventoryError(f"duplicate host_id {host_id!r} in inventory")
        keyed[host_id] = entry
    return keyed


def _parse_relationship(doc: Any, known: Container[str]) -> Relationship:
    if not isinstance(doc, dict):
        raise InventoryError(f"relationship entry must be an object, not {doc!r}")
    missing = _RELATIONSHIP_FIELDS - doc.keys()
    if missing:
        raise InventoryError(f"relationship missing fields: {sorted(missing)}")
    known_fields(doc, _RELATIONSHIP_FIELDS, "relationship entry", InventoryError)
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
    """The inventory a file holds, every entry read and checked."""
    if not isinstance(data, dict):
        raise InventoryError("inventory must be an object with hosts/relationships")
    known_fields(data, _INVENTORY_FIELDS, "inventory", InventoryError)
    graph = TopologyGraph(
        typed_value(data.get("hosts") or [], list, "hosts", InventoryError),
        typed_value(data.get("relationships") or [], list, "relationships", InventoryError),
    )
    # Read every entry: a file is checked in full before it is stored.
    graph.hosts
    graph.relationships
    return graph


def load_inventory(path: Union[str, Path]) -> TopologyGraph:
    """The inventory a file holds; an InventoryError names the file."""
    data = read_data_file(path)
    try:
        return parse_inventory(data)
    except InventoryError as err:
        err.args = (f"{path}: {err}",)
        raise


def ingest_inventory(store: FileDocumentStore, source: Union[str, Path, dict]) -> TopologyGraph:
    """Parse and persist an inventory; hosts upsert by host_id and
    relationships merge, all in one record written by one put."""
    graph = parse_inventory(source) if isinstance(source, dict) else load_inventory(source)
    stored = store.get(TOPOLOGY, INVENTORY) or {"hosts": [], "relationships": []}
    hosts = {doc["host_id"]: doc for doc in stored["hosts"]}
    hosts.update((host.host_id, host.to_dict()) for host in graph.hosts)
    merged = {json.dumps(r, sort_keys=True) for r in stored["relationships"]}
    merged.update(map(_relationship_text, graph.relationships))
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
    """The stored inventory, from one read; records are built as they are
    read (see TopologyGraph)."""
    stored = store.get(TOPOLOGY, INVENTORY)
    if stored is None:
        return TopologyGraph()
    return TopologyGraph(stored["hosts"], stored["relationships"])
