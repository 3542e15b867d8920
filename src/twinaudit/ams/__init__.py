"""Audit management: inventory, profiles, runs, and twin synchronization."""

from .profiles import (
    AuditProfile,
    ProfileError,
    SyncPolicy,
    create_profile,
    get_profile,
    load_profile_file,
    selected_hosts,
)
from .runs import TRANSITIONS, AuditRun, InvalidTransition, RunState
from .service import (
    AuditService,
    TwinNotFound,
    UnknownRun,
    collect_evidence,
    forge_documents,
    forge_entries,
)
from .store import FileDocumentStore
from .topology import (
    HostRecord,
    InventoryError,
    Relationship,
    RelationshipKind,
    Segment,
    TopologyGraph,
    ingest_inventory,
    load_inventory,
    parse_inventory,
    topology_from_store,
)

__all__ = [
    "TRANSITIONS",
    "AuditProfile",
    "AuditRun",
    "AuditService",
    "FileDocumentStore",
    "HostRecord",
    "InvalidTransition",
    "InventoryError",
    "ProfileError",
    "Relationship",
    "RelationshipKind",
    "RunState",
    "Segment",
    "SyncPolicy",
    "TopologyGraph",
    "TwinNotFound",
    "UnknownRun",
    "collect_evidence",
    "create_profile",
    "forge_documents",
    "forge_entries",
    "get_profile",
    "ingest_inventory",
    "load_inventory",
    "load_profile_file",
    "parse_inventory",
    "selected_hosts",
    "topology_from_store",
]
