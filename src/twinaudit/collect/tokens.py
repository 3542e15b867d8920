"""Normalization of raw algorithm spellings into canonical tokens.

Config files, logs, cipher-suite strings, and certificates spell the same
algorithm a dozen ways (aes-128-gcm, AES128-GCM, TLS_AES_128_GCM_SHA256).
Each spelling maps to one canonical token carrying family, parameter, and
primitive class. Ambiguous fragments (bare RSA, bare SHA, the ECDHE half of
a suite name) deliberately map to nothing: without a parameter they cannot
be tied to a concrete asset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

# Word boundaries that also treat "_" as a separator, since suite names use it.
_L = r"(?<![A-Za-z0-9])"
_R = r"(?![A-Za-z0-9])"


@dataclass(frozen=True)
class AlgorithmToken:
    name: str
    family: str
    parameter: str
    primitive: str


@dataclass(frozen=True)
class AlgorithmMention:
    token: AlgorithmToken
    mode: Optional[str] = None


def _token(name: str, family: str, parameter: str, primitive: str) -> AlgorithmToken:
    return AlgorithmToken(name=name, family=family, parameter=parameter, primitive=primitive)


_PATTERNS: list[tuple[re.Pattern, Callable[[re.Match], AlgorithmMention]]] = [
    (
        re.compile(rf"{_L}chacha20[-_]?poly1305{_R}", re.IGNORECASE),
        lambda m: AlgorithmMention(_token("CHACHA20-POLY1305", "CHACHA20", "", "cipher")),
    ),
    (
        re.compile(rf"{_L}aes[-_]?(128|192|256)(?:[-_](gcm|cbc|ctr|ccm))?{_R}", re.IGNORECASE),
        lambda m: AlgorithmMention(
            _token(f"AES-{m.group(1)}", "AES", m.group(1), "cipher"),
            mode=m.group(2).lower() if m.group(2) else None,
        ),
    ),
    (
        re.compile(
            rf"{_L}(?:3des|des[-_]?ede3|des[-_]?cbc3|triple[-_]des)(?:[-_](cbc|ecb))?{_R}",
            re.IGNORECASE,
        ),
        lambda m: AlgorithmMention(
            _token("3DES", "DES", "", "cipher"),
            mode=m.group(1).lower() if m.group(1) else None,
        ),
    ),
    (
        # SHA-512 unless a "-" or "/" and 224 or 256 follow: SHA-512/224 and
        # SHA-512/256 are hashes of their own.
        re.compile(
            rf"{_L}sha(?:2[-_])?[-_]?(224|256|384|512(?![-/](?:224|256){_R})){_R}", re.IGNORECASE
        ),
        lambda m: AlgorithmMention(_token(f"SHA-{m.group(1)}", "SHA2", m.group(1), "hash")),
    ),
    (
        re.compile(rf"{_L}sha(?:2[-_])?[-_]?512[-/](224|256){_R}", re.IGNORECASE),
        lambda m: AlgorithmMention(
            _token(f"SHA-512/{m.group(1)}", "SHA2", f"512/{m.group(1)}", "hash")
        ),
    ),
    (
        re.compile(rf"{_L}sha3[-_](224|256|384|512){_R}", re.IGNORECASE),
        lambda m: AlgorithmMention(_token(f"SHA3-{m.group(1)}", "SHA3", m.group(1), "hash")),
    ),
    (
        re.compile(rf"{_L}sha[-_]?1{_R}", re.IGNORECASE),
        lambda m: AlgorithmMention(_token("SHA-1", "SHA1", "", "hash")),
    ),
    (
        re.compile(rf"{_L}(?:hmac[-_])?md5{_R}", re.IGNORECASE),
        lambda m: AlgorithmMention(_token("MD5", "MD5", "", "hash")),
    ),
    (
        re.compile(rf"{_L}rsa[-_]?(1024|2048|3072|4096){_R}", re.IGNORECASE),
        lambda m: AlgorithmMention(
            _token(f"RSA-{m.group(1)}", "RSA", m.group(1), "signature")
        ),
    ),
    (
        re.compile(
            rf"{_L}(?:p[-_]?|prime|secp|nistp)(256|384|521)(?:r1|v1)?{_R}", re.IGNORECASE
        ),
        lambda m: AlgorithmMention(
            _token(f"P-{m.group(1)}", "ECC", m.group(1), "signature")
        ),
    ),
    (
        re.compile(rf"{_L}(?:ssh[-_])?ed25519{_R}", re.IGNORECASE),
        lambda m: AlgorithmMention(_token("ED25519", "EDDSA", "", "signature")),
    ),
    (
        re.compile(rf"{_L}(?:x|curve)25519{_R}", re.IGNORECASE),
        lambda m: AlgorithmMention(_token("X25519", "XDH", "", "key-exchange")),
    ),
]

_PROTOCOL_PATTERNS = [
    (re.compile(rf"{_L}tls\s?v?1[._]([0-3]){_R}", re.IGNORECASE), "TLS", "1.{}"),
    (re.compile(rf"{_L}sslv?([23]){_R}", re.IGNORECASE), "SSL", "{}.0"),
]


def extract_algorithm_mentions(text: str) -> list[AlgorithmMention]:
    """All canonical algorithm mentions in the text, deduplicated by (name, mode)."""
    seen: set[tuple[str, Optional[str]]] = set()
    out: list[AlgorithmMention] = []
    for pattern, build in _PATTERNS:
        for match in pattern.finditer(text):
            mention = build(match)
            key = (mention.token.name, mention.mode)
            if key not in seen:
                seen.add(key)
                out.append(mention)
    return out


def extract_protocol_mentions(text: str) -> list[tuple[str, str]]:
    """Protocol (name, version) pairs such as ("TLS", "1.2"), deduplicated."""
    seen: set[tuple[str, str]] = set()
    out: list[tuple[str, str]] = []
    for pattern, name, template in _PROTOCOL_PATTERNS:
        for match in pattern.finditer(text):
            pair = (name, template.format(match.group(1)))
            if pair not in seen:
                seen.add(pair)
                out.append(pair)
    return out


_CURVE_NAMES = {
    "secp256r1": "P-256",
    "prime256v1": "P-256",
    "secp384r1": "P-384",
    "secp521r1": "P-521",
}


def token_for_key(algorithm: str, key_size: Optional[int], curve: Optional[str]) -> Optional[AlgorithmToken]:
    """Canonical token for a public key as certificates describe it."""
    algorithm = algorithm.lower()
    if algorithm == "rsa" and key_size:
        return _token(f"RSA-{key_size}", "RSA", str(key_size), "signature")
    if algorithm in ("ec", "ecdsa") and curve:
        name = _CURVE_NAMES.get(curve.lower())
        if name is None:
            return None
        return _token(name, "ECC", name.split("-")[1], "signature")
    if algorithm == "ed25519":
        return _token("ED25519", "EDDSA", "", "signature")
    if algorithm == "x25519":
        return _token("X25519", "XDH", "", "key-exchange")
    return None


def token_for_hash(name: str) -> Optional[AlgorithmToken]:
    """Canonical token for a digest name such as sha256 or md5."""
    for mention in extract_algorithm_mentions(name):
        if mention.token.primitive == "hash":
            return mention.token
    return None
