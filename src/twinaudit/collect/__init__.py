"""Non-intrusive evidence collection from captured host snapshots."""

from .certs import parse_certificate, scan_certificates
from .manifests import (
    scan_composer,
    scan_manifests,
    scan_maven,
    scan_npm,
    scan_pip,
)
from .records import EvidenceBundle, EvidenceCategory, EvidenceRecord, make_record
from .scanners import (
    KNOWN_CRYPTO_LIBRARIES,
    scan_crypto_libraries,
    scan_host,
    scan_kernel_settings,
    scan_logs,
    scan_openssl_config,
    scan_ssh_config,
)
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
    "KNOWN_CRYPTO_LIBRARIES",
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
    "parse_certificate",
    "scan_certificates",
    "scan_composer",
    "scan_crypto_libraries",
    "scan_host",
    "scan_kernel_settings",
    "scan_logs",
    "scan_manifests",
    "scan_maven",
    "scan_npm",
    "scan_openssl_config",
    "scan_pip",
    "scan_ssh_config",
    "token_for_hash",
    "token_for_key",
]
