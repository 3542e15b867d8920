"""X.509 certificate evidence from PEM files in the snapshot.

Every certificate of a file counts, so a chain or bundle file gives one
CERTIFICATE record per certificate it holds.
"""

from __future__ import annotations

from typing import Optional

from cryptography import x509
from cryptography.exceptions import UnsupportedAlgorithm
from cryptography.hazmat.primitives.asymmetric import dsa, ec, ed448, ed25519, rsa

from .records import EvidenceCategory, EvidenceRecord, make_record
from .snapshot import HostSnapshot
from .tokens import AlgorithmMention, AlgorithmToken, token_for_hash, token_for_key

_PEM_MARKER = b"-----BEGIN CERTIFICATE-----"


def _key_facts(cert: x509.Certificate) -> tuple[str, Optional[int], Optional[str]]:
    try:
        key = cert.public_key()
    except (UnsupportedAlgorithm, ValueError):
        # A key type cryptography does not know, or key bits it cannot
        # load: the certificate's other facts still stand.
        return "unknown", None, None
    if isinstance(key, rsa.RSAPublicKey):
        return "rsa", key.key_size, None
    if isinstance(key, ec.EllipticCurvePublicKey):
        return "ec", key.curve.key_size, key.curve.name
    if isinstance(key, ed25519.Ed25519PublicKey):
        return "ed25519", None, None
    if isinstance(key, ed448.Ed448PublicKey):
        return "ed448", None, None
    if isinstance(key, dsa.DSAPublicKey):
        return "dsa", key.key_size, None
    return "unknown", None, None


def _validity(cert: x509.Certificate) -> tuple[str, str]:
    # cryptography 42 renamed the naive properties; prefer the UTC pair.
    not_before = getattr(cert, "not_valid_before_utc", None) or cert.not_valid_before
    not_after = getattr(cert, "not_valid_after_utc", None) or cert.not_valid_after
    return not_before.isoformat(), not_after.isoformat()


def parse_certificate(
    snapshot: HostSnapshot, path: str
) -> tuple[list[EvidenceRecord], list[AlgorithmToken]]:
    """A CERTIFICATE record for each certificate of the PEM file, in file
    order, plus the algorithm tokens they imply."""
    try:
        certs = x509.load_pem_x509_certificates(snapshot.read_bytes(path))
    except (ValueError, x509.InvalidVersion):
        return [], []
    records: list[EvidenceRecord] = []
    tokens: list[AlgorithmToken] = []
    for cert in certs:
        try:
            record, implied = _certificate_record(snapshot, path, cert)
        except (ValueError, KeyError):
            # cryptography decodes the names, validity and serial only when
            # read, and raises KeyError for a name string of an unknown tag:
            # a certificate with a field it cannot decode is skipped, as an
            # unloadable PEM is, and the file's other certificates still count.
            continue
        records.append(record)
        tokens.extend(implied)
    return records, tokens


def _certificate_record(
    snapshot: HostSnapshot, path: str, cert: x509.Certificate
) -> tuple[EvidenceRecord, list[AlgorithmToken]]:
    key_algorithm, key_size, curve = _key_facts(cert)
    not_before, not_after = _validity(cert)
    try:
        signature_hash = cert.signature_hash_algorithm
    except UnsupportedAlgorithm:
        # A signature algorithm cryptography does not know.
        signature_hash = None

    tokens: list[AlgorithmToken] = []
    key_token = token_for_key(key_algorithm, key_size, curve)
    if key_token is not None:
        tokens.append(key_token)
    hash_token = token_for_hash(signature_hash.name) if signature_hash is not None else None
    if hash_token is not None:
        tokens.append(hash_token)
    signature_name = getattr(cert.signature_algorithm_oid, "_name", "unknown")

    attributes = {
        "subject": cert.subject.rfc4514_string(),
        "issuer": cert.issuer.rfc4514_string(),
        "not_before": not_before,
        "not_after": not_after,
        "serial": format(cert.serial_number, "x"),
        "key_algorithm": key_algorithm,
        "signature_algorithm": signature_name,
    }
    if key_size:
        attributes["key_size"] = str(key_size)
    if curve:
        attributes["curve"] = curve
    if hash_token is not None:
        attributes["signature_hash"] = hash_token.name

    subject_cn = None
    for attr in cert.subject:
        if attr.oid == x509.NameOID.COMMON_NAME:
            subject_cn = str(attr.value)
            break

    record = make_record(
        EvidenceCategory.CERTIFICATE,
        name=subject_cn or attributes["subject"],
        host=snapshot.hostname,
        source_path=path,
        attributes=attributes,
    )
    return record, tokens


def scan_certificates(
    snapshot: HostSnapshot,
) -> tuple[list[EvidenceRecord], list[tuple[str, AlgorithmMention]]]:
    """All PEM certificates, and the algorithms they imply sighted at
    their source path."""
    records: list[EvidenceRecord] = []
    sightings: list[tuple[str, AlgorithmMention]] = []
    candidates = sorted(
        set(snapshot.glob("*.pem") + snapshot.glob("*.crt") + snapshot.glob("*.cert"))
    )
    for path in candidates:
        if _PEM_MARKER not in snapshot.read_bytes(path):
            continue
        found, tokens = parse_certificate(snapshot, path)
        records.extend(found)
        sightings.extend((path, AlgorithmMention(token)) for token in tokens)
    return records, sightings
