"""Reference host scanners: the collector's former config, kernel, log and
library scanners, its former certificate file walk and its former
`scan_host` assembly, kept as they were.

`twinaudit.collect.scanners` reads every settings line through one reader,
builds openssl and ssh directives in one place and walks one list of
scans. Tests scan the same snapshots with these functions as well and
compare the bundles. Certificates are parsed, and sightings folded, by the
collector's own `parse_certificate` and `_fold_sightings`, which are not
rewritten.
"""

from __future__ import annotations

import re

from twinaudit.collect.certs import _PEM_MARKER, parse_certificate
from twinaudit.collect.manifests import scan_manifests
from twinaudit.collect.records import EvidenceBundle, EvidenceCategory, EvidenceRecord, make_record
from twinaudit.collect.scanners import _fold_sightings
from twinaudit.collect.snapshot import HostSnapshot
from twinaudit.collect.tokens import (
    AlgorithmMention,
    AlgorithmToken,
    extract_algorithm_mentions,
    extract_protocol_mentions,
)

KNOWN_CRYPTO_LIBRARIES = {
    "openssl",
    "libssl",
    "libssl1.1",
    "libssl3",
    "libcrypto",
    "gnutls",
    "libgnutls30",
    "libgcrypt",
    "libgcrypt20",
    "nss",
    "libnss3",
    "mbedtls",
    "libmbedtls",
    "wolfssl",
    "libsodium",
    "libsodium23",
    "botan",
    "bouncycastle",
}

OPENSSL_CONFIG_PATHS = ("etc/ssl/openssl.cnf", "usr/lib/ssl/openssl.cnf")
SSH_CONFIG_PATHS = ("etc/ssh/sshd_config", "etc/ssh/ssh_config")

_SSH_CRYPTO_DIRECTIVES = {
    "ciphers",
    "macs",
    "kexalgorithms",
    "hostkeyalgorithms",
    "pubkeyacceptedalgorithms",
    "pubkeyacceptedkeytypes",
    "protocol",
}

_LOG_EVENT_PATTERNS = [
    (re.compile(r"Accepted (publickey|password) for (\S+)"), "auth-accepted"),
    (re.compile(r"Failed (publickey|password) for (?:invalid user )?(\S+)"), "auth-failed"),
    (re.compile(r"session (opened|closed) for"), "session"),
    (re.compile(r"TLS.{0,40}handshake|handshake.{0,40}TLS"), "tls-handshake"),
]


def _directive_record(
    host: str, path: str, key: str, value: str, file_kind: str
) -> EvidenceRecord:
    return make_record(
        EvidenceCategory.OPENSSL_CONFIG,
        name=key,
        host=host,
        source_path=path,
        attributes={"kind": "directive", "value": value, "file": file_kind},
    )


def _protocol_record(host: str, path: str, name: str, version: str) -> EvidenceRecord:
    return make_record(
        EvidenceCategory.OPENSSL_CONFIG,
        name=name,
        host=host,
        source_path=path,
        version=version,
        attributes={"kind": "protocol"},
    )


def scan_openssl_config(
    snapshot: HostSnapshot, path: str
) -> tuple[list[EvidenceRecord], list[tuple[str, AlgorithmMention]]]:
    records: list[EvidenceRecord] = []
    mentions: list[tuple[str, AlgorithmMention]] = []
    seen_protocols: set[tuple[str, str]] = set()
    for line in snapshot.read_text(path).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            continue
        records.append(_directive_record(snapshot.hostname, path, key, value, "openssl"))
        mentions.extend((path, m) for m in extract_algorithm_mentions(value))
        for proto, version in extract_protocol_mentions(value):
            if (proto, version) not in seen_protocols:
                seen_protocols.add((proto, version))
                records.append(_protocol_record(snapshot.hostname, path, proto, version))
    return records, mentions


def scan_ssh_config(
    snapshot: HostSnapshot, path: str
) -> tuple[list[EvidenceRecord], list[tuple[str, AlgorithmMention]]]:
    records: list[EvidenceRecord] = []
    mentions: list[tuple[str, AlgorithmMention]] = []
    saw_directive = False
    for line in snapshot.read_text(path).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            continue
        key, value = parts
        if key.lower() not in _SSH_CRYPTO_DIRECTIVES:
            continue
        saw_directive = True
        records.append(_directive_record(snapshot.hostname, path, key, value, "ssh"))
        mentions.extend((path, m) for m in extract_algorithm_mentions(value))
    if saw_directive:
        records.append(_protocol_record(snapshot.hostname, path, "SSH", "2"))
    return records, mentions


def scan_kernel_settings(snapshot: HostSnapshot) -> list[EvidenceRecord]:
    records = []
    conf_paths = [p for p in ("etc/sysctl.conf",) if snapshot.exists(p)]
    conf_paths += snapshot.glob("etc/sysctl.d/*.conf")
    for path in conf_paths:
        for line in snapshot.read_text(path).splitlines():
            line = line.split("#", 1)[0].strip()
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key:
                records.append(
                    make_record(
                        EvidenceCategory.KERNEL_SETTING,
                        name=key,
                        host=snapshot.hostname,
                        source_path=path,
                        attributes={"value": value},
                    )
                )
    for path in snapshot.glob("proc/sys/*"):
        name = path[len("proc/sys/"):].replace("/", ".")
        records.append(
            make_record(
                EvidenceCategory.KERNEL_SETTING,
                name=name,
                host=snapshot.hostname,
                source_path=path,
                attributes={"value": snapshot.read_text(path).strip()},
            )
        )
    return records


def scan_logs(
    snapshot: HostSnapshot,
) -> tuple[list[EvidenceRecord], list[tuple[str, AlgorithmMention]]]:
    records: list[EvidenceRecord] = []
    mentions: list[tuple[str, AlgorithmMention]] = []
    for path in snapshot.glob("var/log/*.log"):
        for line_number, line in enumerate(snapshot.read_text(path).splitlines(), start=1):
            for pattern, event in _LOG_EVENT_PATTERNS:
                match = pattern.search(line)
                if match is None:
                    continue
                records.append(
                    make_record(
                        EvidenceCategory.SYSTEM_LOG_EVENT,
                        name=event,
                        host=snapshot.hostname,
                        source_path=path,
                        attributes={
                            "line": str(line_number),
                            "excerpt": line.strip()[:160],
                        },
                    )
                )
                mentions.extend((path, m) for m in extract_algorithm_mentions(line))
                break
    return records, mentions


def scan_crypto_libraries(snapshot: HostSnapshot) -> list[EvidenceRecord]:
    records = []
    for name, version in sorted(snapshot.packages().items()):
        if name.lower() in KNOWN_CRYPTO_LIBRARIES:
            records.append(
                make_record(
                    EvidenceCategory.CRYPTO_LIBRARY,
                    name=name.lower(),
                    host=snapshot.hostname,
                    source_path="facts.json",
                    version=version,
                    attributes={"manager": "os"},
                )
            )
    return records


def scan_certificates(
    snapshot: HostSnapshot,
) -> tuple[list[EvidenceRecord], list[tuple[str, AlgorithmToken]]]:
    """All PEM certificates; tokens come back tagged with their source path."""
    records: list[EvidenceRecord] = []
    tagged_tokens: list[tuple[str, AlgorithmToken]] = []
    candidates = sorted(
        set(snapshot.glob("*.pem") + snapshot.glob("*.crt") + snapshot.glob("*.cert"))
    )
    for path in candidates:
        if _PEM_MARKER not in snapshot.read_bytes(path):
            continue
        found, tokens = parse_certificate(snapshot, path)
        records.extend(found)
        tagged_tokens.extend((path, token) for token in tokens)
    return records, tagged_tokens


def scan_host(snapshot: HostSnapshot) -> EvidenceBundle:
    """Full non-intrusive evidence pass over one snapshot."""
    records: list[EvidenceRecord] = []
    sightings: list[tuple[str, AlgorithmMention]] = []

    records.extend(scan_manifests(snapshot))
    records.extend(scan_crypto_libraries(snapshot))

    cert_records, cert_tokens = scan_certificates(snapshot)
    records.extend(cert_records)
    sightings.extend((path, AlgorithmMention(token)) for path, token in cert_tokens)

    for path in OPENSSL_CONFIG_PATHS:
        if snapshot.exists(path):
            found, mentions = scan_openssl_config(snapshot, path)
            records.extend(found)
            sightings.extend(mentions)
    for path in SSH_CONFIG_PATHS:
        if snapshot.exists(path):
            found, mentions = scan_ssh_config(snapshot, path)
            records.extend(found)
            sightings.extend(mentions)

    records.extend(scan_kernel_settings(snapshot))

    log_records, log_mentions = scan_logs(snapshot)
    records.extend(log_records)
    sightings.extend(log_mentions)

    records.extend(_fold_sightings(snapshot.hostname, sightings))
    return EvidenceBundle(host=snapshot.hostname, records=tuple(records))
