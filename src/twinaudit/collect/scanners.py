"""Config, kernel, log, and library scanners plus the host scan orchestrator.

Everything here only reads through the HostSnapshot facade. One reader
splits every openssl, ssh and sysctl settings line into its key and value,
and openssl and ssh directives are built in one place. Every scanner that
sights algorithms returns (records, [(path, mention)]); scan_host walks
one list of those scans and folds the sightings once, into one ALGORITHM
record per canonical token, with its merged modes and source paths.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .certs import scan_certificates
from .manifests import scan_manifests
from .records import (
    SOURCES_SEPARATOR,
    EvidenceBundle,
    EvidenceCategory,
    EvidenceRecord,
    make_record,
)
from .snapshot import HostSnapshot
from .tokens import (
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


def _fold_sightings(
    host: str, sightings: Iterable[tuple[str, AlgorithmMention]]
) -> list[EvidenceRecord]:
    """One ALGORITHM record per canonical token, carrying the sorted union
    of the paths it was seen at and the modes it was seen with."""
    folded: dict[str, tuple[AlgorithmToken, set[str], set[str]]] = {}
    for path, mention in sightings:
        token = mention.token
        slot = folded.get(token.name)
        if slot is None:
            slot = folded[token.name] = (token, set(), set())
        slot[1].add(path)
        if mention.mode:
            slot[2].add(mention.mode)

    out = []
    for token, paths, modes in folded.values():
        sources = sorted(paths)
        attributes = {
            "family": token.family,
            "primitive": token.primitive,
            "sources": SOURCES_SEPARATOR.join(sources),
        }
        if token.parameter:
            attributes["parameter"] = token.parameter
        if modes:
            attributes["modes"] = ",".join(sorted(modes))
        out.append(
            make_record(
                EvidenceCategory.ALGORITHM,
                name=token.name,
                host=host,
                source_path=sources[0],
                attributes=attributes,
            )
        )
    return out


# Where a settings line's key ends: openssl.cnf and sysctl.conf(5) lines at
# their first `=`; sshd_config(5) and ssh_config(5) lines at the first run
# of whitespace, or at exactly one `=` between optional whitespace, so that
# `Keyword value`, `Keyword=value` and `Keyword = value` read alike.
_EQUALS = re.compile("=")
_SSH_SEPARATOR = re.compile(r"\s*=\s*|\s+")


def _settings(text: str, separator: re.Pattern[str]) -> Iterator[tuple[str, str]]:
    """Each line's stripped (key, value), split at the first `separator`
    once its `#` comment is cut off; a line without one yields nothing."""
    for line in text.splitlines():
        parts = separator.split(line.partition("#")[0].strip(), 1)
        if len(parts) == 2:
            yield parts[0].strip(), parts[1].strip()


def _directives(
    snapshot: HostSnapshot,
    path: str,
    file_kind: str,
    settings: list[tuple[str, str]],
    protocols: Iterable[tuple[str, str]],
) -> tuple[list[EvidenceRecord], list[tuple[str, AlgorithmMention]]]:
    """A directive record and the algorithm sightings of each (key, value)
    setting of the file, then a protocol record of each (name, version)."""
    records: list[EvidenceRecord] = []
    sightings: list[tuple[str, AlgorithmMention]] = []
    for key, value in settings:
        records.append(
            make_record(
                EvidenceCategory.OPENSSL_CONFIG,
                name=key,
                host=snapshot.hostname,
                source_path=path,
                attributes={"kind": "directive", "value": value, "file": file_kind},
            )
        )
        sightings.extend((path, m) for m in extract_algorithm_mentions(value))
    for name, version in protocols:
        records.append(
            make_record(
                EvidenceCategory.OPENSSL_CONFIG,
                name=name,
                host=snapshot.hostname,
                source_path=path,
                version=version,
                attributes={"kind": "protocol"},
            )
        )
    return records, sightings


def scan_openssl_config(
    snapshot: HostSnapshot, path: str
) -> tuple[list[EvidenceRecord], list[tuple[str, AlgorithmMention]]]:
    """`key = value` directives with both sides set, and each distinct
    protocol their values name, in first-seen order."""
    settings = [(k, v) for k, v in _settings(snapshot.read_text(path), _EQUALS) if k and v]
    protocols = [p for _, value in settings for p in extract_protocol_mentions(value)]
    return _directives(snapshot, path, "openssl", settings, dict.fromkeys(protocols))


def scan_ssh_config(
    snapshot: HostSnapshot, path: str
) -> tuple[list[EvidenceRecord], list[tuple[str, AlgorithmMention]]]:
    """`Keyword value` crypto directives with a value, and SSH 2 when there
    is one."""
    settings = [
        (k, v) for k, v in _settings(snapshot.read_text(path), _SSH_SEPARATOR)
        if v and k.lower() in _SSH_CRYPTO_DIRECTIVES
    ]
    return _directives(snapshot, path, "ssh", settings, [("SSH", "2")] if settings else [])


def scan_kernel_settings(snapshot: HostSnapshot) -> list[EvidenceRecord]:
    """sysctl `key = value` lines with a key, an empty value kept, then
    each proc/sys file as the dotted key of its path. A line that starts
    with `;`, like one that starts with `#`, is a comment (sysctl.conf(5))."""
    settings = []
    conf_paths = ["etc/sysctl.conf"] if snapshot.exists("etc/sysctl.conf") else []
    conf_paths += snapshot.glob("etc/sysctl.d/*.conf")
    for path in conf_paths:
        for key, value in _settings(snapshot.read_text(path), _EQUALS):
            if key and not key.startswith(";"):
                settings.append((path, key, value))
    for path in snapshot.glob("proc/sys/*"):
        name = path[len("proc/sys/"):].replace("/", ".")
        settings.append((path, name, snapshot.read_text(path).strip()))
    return [
        make_record(
            EvidenceCategory.KERNEL_SETTING,
            name=key,
            host=snapshot.hostname,
            source_path=path,
            attributes={"value": value},
        )
        for path, key, value in settings
    ]


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


def scan_host(snapshot: HostSnapshot) -> EvidenceBundle:
    """Full non-intrusive evidence pass over one snapshot."""
    records = scan_manifests(snapshot)
    records += scan_crypto_libraries(snapshot)
    records += scan_kernel_settings(snapshot)
    # A name's ALGORITHM record takes the token of its first sighting, so
    # the order of the scans is part of the output.
    scans = [scan_certificates(snapshot)]
    scans += [scan_openssl_config(snapshot, p) for p in OPENSSL_CONFIG_PATHS if snapshot.exists(p)]
    scans += [scan_ssh_config(snapshot, p) for p in SSH_CONFIG_PATHS if snapshot.exists(p)]
    scans.append(scan_logs(snapshot))
    sightings: list[tuple[str, AlgorithmMention]] = []
    for found, seen in scans:
        records += found
        sightings += seen
    records += _fold_sightings(snapshot.hostname, sightings)
    return EvidenceBundle(host=snapshot.hostname, records=tuple(records))
