"""Non-intrusive evidence collection from captured host snapshots."""

from .manifests import (
    scan_composer,
    scan_manifests,
    scan_maven,
    scan_npm,
    scan_pip,
)
from .records import EvidenceBundle, EvidenceCategory, EvidenceRecord, make_record
from .scanners import scan_host
from .snapshot import HostSnapshot, SnapshotError
from .tokens import (
    AlgorithmMention,
    AlgorithmToken,
    extract_algorithm_mentions,
    extract_protocol_mentions,
    token_for_hash,
    token_for_key,
)

__all__ = [
    "AlgorithmMention",
    "AlgorithmToken",
    "EvidenceBundle",
    "EvidenceCategory",
    "EvidenceRecord",
    "HostSnapshot",
    "SnapshotError",
    "extract_algorithm_mentions",
    "extract_protocol_mentions",
    "make_record",
    "scan_composer",
    "scan_host",
    "scan_manifests",
    "scan_maven",
    "scan_npm",
    "scan_pip",
    "token_for_hash",
    "token_for_key",
]
