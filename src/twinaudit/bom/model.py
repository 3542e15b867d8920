"""CycloneDX-1.6-subset document model: components, crypto assets, VEX, links.

All types are frozen values; collection fields are tuples so documents can be
shared between threads and used as dict keys where needed. Unordered
collections are sorted at construction, so equal document content compares
equal regardless of the order a producer emitted it in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Iterable, Mapping, Optional, Union

UUID_RE = re.compile(
    r"[0-9a-f]{8}-[0-9a-f]{4}-[1-5][0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}"
)
SERIAL_RE = re.compile(r"^urn:uuid:%s$" % UUID_RE.pattern)
CVE_RE = re.compile(r"^CVE-\d{4}-\d{4,}$")
BOM_LINK_RE = re.compile(
    r"^urn:cdx:(?P<uuid>%s)/(?P<version>[1-9][0-9]*)(?:#(?P<ref>.+))?$" % UUID_RE.pattern
)

# Reserved metadata property carrying the document kind (CycloneDX has no
# first-class field for it).
KIND_PROPERTY = "twinaudit:kind"


class BomKind(str, Enum):
    SBOM = "SBOM"
    CBOM = "CBOM"
    VEX = "VEX"
    MIXED = "MIXED"


class ComponentType(str, Enum):
    LIBRARY = "LIBRARY"
    APPLICATION = "APPLICATION"
    CRYPTO_ASSET = "CRYPTO_ASSET"
    CERTIFICATE = "CERTIFICATE"
    FILE = "FILE"
    OPERATING_SYSTEM_SETTING = "OPERATING_SYSTEM_SETTING"


class CryptoAssetKind(str, Enum):
    ALGORITHM = "ALGORITHM"
    CERTIFICATE = "CERTIFICATE"
    PROTOCOL = "PROTOCOL"
    KEY_MATERIAL = "KEY_MATERIAL"


class Severity(str, Enum):
    NONE = "NONE"
    LOW = "LOW"
    MEDIUM = "MEDIUM"
    HIGH = "HIGH"
    CRITICAL = "CRITICAL"


class AnalysisState(str, Enum):
    IN_TRIAGE = "IN_TRIAGE"
    EXPLOITABLE = "EXPLOITABLE"
    NOT_AFFECTED = "NOT_AFFECTED"
    RESOLVED = "RESOLVED"


class SubjectKind(str, Enum):
    HOST = "HOST"
    PROFILE = "PROFILE"


@dataclass(frozen=True)
class Violation:
    """One invariant breach, pinned to the offending document path."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class BomValidationError(ValueError):
    """Raised when an operation requires a clean document and got violations."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = tuple(violations)
        detail = "; ".join(str(v) for v in self.violations)
        super().__init__(f"bom validation failed: {detail}")


class LinkResolutionError(KeyError):
    pass


class BomLinkNotFound(LinkResolutionError):
    """Target (serial, version) absent from the registry."""


class DanglingRef(LinkResolutionError):
    """Target document exists but the fragment bom_ref does not."""


@dataclass(frozen=True)
class BomLink:
    """Reference to another document, optionally to one component inside it."""

    target_serial: str
    target_version: int
    target_bom_ref: Optional[str] = None

    def render(self) -> str:
        base = f"urn:cdx:{serial_uuid(self.target_serial)}/{self.target_version}"
        if self.target_bom_ref is not None:
            return f"{base}#{self.target_bom_ref}"
        return base

    @classmethod
    def parse(cls, text: str) -> "BomLink":
        m = BOM_LINK_RE.match(text)
        if m is None:
            raise ValueError(f"not a bom-link urn: {text!r}")
        return cls(
            target_serial=f"urn:uuid:{m.group('uuid')}",
            target_version=int(m.group("version")),
            target_bom_ref=m.group("ref"),
        )


def serial_uuid(serial_number: str) -> str:
    """Strip the urn:uuid: prefix; raises on malformed serials."""
    if not SERIAL_RE.match(serial_number):
        raise ValueError(f"not a urn:uuid serial: {serial_number!r}")
    return serial_number[len("urn:uuid:"):]


def is_bom_link(ref: str) -> bool:
    return ref.startswith("urn:cdx:")


@dataclass(frozen=True)
class CryptoProperties:
    asset_kind: CryptoAssetKind
    algorithm_family: Optional[str] = None
    parameter_set: Optional[str] = None
    mode: Optional[str] = None
    certificate_subject: Optional[str] = None
    certificate_issuer: Optional[str] = None
    not_before: Optional[str] = None
    not_after: Optional[str] = None
    signature_algorithm_ref: Optional[str] = None
    protocol_version: Optional[str] = None
    cipher_suite_refs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cipher_suite_refs", tuple(sorted(self.cipher_suite_refs)))


@dataclass(frozen=True)
class Component:
    bom_ref: str
    name: str
    component_type: ComponentType
    version: str = ""
    package_url: Optional[str] = None
    crypto: Optional[CryptoProperties] = None


@dataclass(frozen=True)
class Dependency:
    ref: str
    depends_on: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "depends_on", tuple(sorted(self.depends_on)))


@dataclass(frozen=True)
class VulnerabilityEntry:
    cve_id: str
    cvss_score: float
    cvss_vector: str
    severity: Severity
    affects: tuple[str, ...]
    analysis_state: AnalysisState = AnalysisState.IN_TRIAGE

    def __post_init__(self) -> None:
        object.__setattr__(self, "affects", tuple(sorted(self.affects)))


@dataclass(frozen=True)
class BomMetadata:
    subject_kind: SubjectKind
    subject_name: str
    timestamp: Optional[str] = None
    properties: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "properties", tuple(sorted(tuple(p) for p in self.properties))
        )


@dataclass(frozen=True)
class Bom:
    serial_number: str
    version: int
    kind: BomKind
    metadata: BomMetadata
    components: tuple[Component, ...] = ()
    dependencies: tuple[Dependency, ...] = ()
    vulnerabilities: tuple[VulnerabilityEntry, ...] = ()
    links: tuple[BomLink, ...] = ()
    # Unknown fields preserved by lenient parsing; empty for self-produced docs.
    extras: tuple[tuple[str, str], ...] = field(default=(), compare=True)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "components", tuple(sorted(self.components, key=lambda c: c.bom_ref))
        )
        object.__setattr__(
            self, "dependencies", tuple(sorted(self.dependencies, key=lambda d: d.ref))
        )
        object.__setattr__(
            self,
            "vulnerabilities",
            tuple(sorted(self.vulnerabilities, key=lambda v: v.cve_id)),
        )
        object.__setattr__(
            self,
            "links",
            tuple(
                sorted(
                    self.links,
                    key=lambda l: (l.target_serial, l.target_version, l.target_bom_ref or ""),
                )
            ),
        )
        object.__setattr__(self, "extras", tuple(sorted(tuple(e) for e in self.extras)))

    def component_by_ref(self, bom_ref: str) -> Optional[Component]:
        for c in self.components:
            if c.bom_ref == bom_ref:
                return c
        return None


_CERT_FIELDS = (
    "certificate_subject",
    "certificate_issuer",
    "not_before",
    "not_after",
    "signature_algorithm_ref",
)


_CRYPTO_TYPES = (ComponentType.CRYPTO_ASSET, ComponentType.CERTIFICATE)
_CRYPTO = ".cryptoProperties"


def _parse_ts(value: str) -> Optional[datetime]:
    try:
        return datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError:
        return None


def _validate_crypto(i: int, crypto: CryptoProperties, out: list[Violation]) -> None:
    """Checks the crypto properties of components[i]."""
    is_cert = crypto.asset_kind == CryptoAssetKind.CERTIFICATE
    for name in _CERT_FIELDS:
        present = getattr(crypto, name) is not None
        if present and not is_cert:
            path = f"components[{i}]{_CRYPTO}.{name}"
            out.append(Violation(path, "only valid for certificate assets"))
        if is_cert and not present:
            path = f"components[{i}]{_CRYPTO}.{name}"
            out.append(Violation(path, "required for certificate assets"))
    is_proto = crypto.asset_kind == CryptoAssetKind.PROTOCOL
    if crypto.protocol_version is not None and not is_proto:
        path = f"components[{i}]{_CRYPTO}.protocol_version"
        out.append(Violation(path, "only valid for protocol assets"))
    if is_proto and crypto.protocol_version is None:
        path = f"components[{i}]{_CRYPTO}.protocol_version"
        out.append(Violation(path, "required for protocol assets"))
    if crypto.cipher_suite_refs and not is_proto:
        path = f"components[{i}]{_CRYPTO}.cipher_suite_refs"
        out.append(Violation(path, "only valid for protocol assets"))
    if is_cert and crypto.not_before and crypto.not_after:
        nb, na = _parse_ts(crypto.not_before), _parse_ts(crypto.not_after)
        if nb is None or na is None:
            path = f"components[{i}]{_CRYPTO}.not_before"
            out.append(Violation(path, "timestamps must be ISO-8601"))
        elif (nb.tzinfo is None) != (na.tzinfo is None):
            # A naive and an aware datetime do not compare.
            path = f"components[{i}]{_CRYPTO}.not_before"
            out.append(Violation(path, "timestamps must both carry a UTC offset or neither"))
        elif nb > na:
            path = f"components[{i}]{_CRYPTO}.not_before"
            out.append(Violation(path, "not_before exceeds not_after"))


def _check_ref(path: str, ref: str, refs: set[str], out: list[Violation]) -> None:
    if is_bom_link(ref):
        try:
            BomLink.parse(ref)
        except ValueError:
            out.append(Violation(path, f"malformed bom-link {ref!r}"))
    elif ref not in refs:
        out.append(Violation(path, f"reference to unknown bom_ref {ref!r}"))


def validate_bom(bom: Bom) -> list[Violation]:
    """Check every structural invariant; returns [] iff the document is clean.

    Paths of repeated objects ("components[3]...") are formatted only for a
    violation found there.
    """
    out: list[Violation] = []

    if not SERIAL_RE.match(bom.serial_number):
        out.append(Violation("serialNumber", f"not urn:uuid RFC-4122: {bom.serial_number!r}"))
    if bom.version < 1:
        out.append(Violation("version", "must be a positive integer"))
    if not bom.metadata.subject_name:
        out.append(Violation("metadata.component.name", "subject name is empty"))
    for name, _value in bom.metadata.properties:
        if name.startswith("twinaudit:"):
            out.append(Violation(f"metadata.properties[{name}]", "reserved property prefix"))

    refs: set[str] = set()
    for i, comp in enumerate(bom.components):
        if not comp.bom_ref:
            out.append(Violation(f"components[{i}].bom-ref", "empty bom_ref"))
        elif comp.bom_ref in refs:
            out.append(
                Violation(f"components[{i}].bom-ref", f"duplicate bom_ref {comp.bom_ref!r}")
            )
        refs.add(comp.bom_ref)
        if not comp.name:
            out.append(Violation(f"components[{i}].name", "empty component name"))
        crypto_required = comp.component_type in _CRYPTO_TYPES
        if comp.crypto is None:
            if crypto_required:
                path = f"components[{i}]{_CRYPTO}"
                out.append(Violation(path, "required for crypto components"))
            continue
        if not crypto_required:
            path = f"components[{i}]{_CRYPTO}"
            out.append(Violation(path, "only valid on crypto components"))
        is_cert_props = comp.crypto.asset_kind == CryptoAssetKind.CERTIFICATE
        if comp.component_type == ComponentType.CERTIFICATE and not is_cert_props:
            out.append(Violation(f"components[{i}]{_CRYPTO}.assetType", "must be certificate"))
        if comp.component_type == ComponentType.CRYPTO_ASSET and is_cert_props:
            path = f"components[{i}].type"
            out.append(Violation(path, "certificate assets use component type CERTIFICATE"))
        _validate_crypto(i, comp.crypto, out)

    seen_dep_refs: set[str] = set()
    for i, dep in enumerate(bom.dependencies):
        path = f"dependencies[{i}]"
        _check_ref(f"{path}.ref", dep.ref, refs, out)
        if dep.ref in seen_dep_refs:
            out.append(Violation(f"{path}.ref", f"duplicate dependency entry for {dep.ref!r}"))
        seen_dep_refs.add(dep.ref)
        seen_targets: set[str] = set()
        for target in dep.depends_on:
            if target == dep.ref:
                out.append(Violation(f"{path}.dependsOn", "self-dependency"))
            if target in seen_targets:
                out.append(Violation(f"{path}.dependsOn", f"duplicate edge to {target!r}"))
            seen_targets.add(target)
            _check_ref(f"{path}.dependsOn", target, refs, out)

    seen_cves: set[str] = set()
    for i, vuln in enumerate(bom.vulnerabilities):
        if not CVE_RE.match(vuln.cve_id):
            out.append(Violation(f"vulnerabilities[{i}].id", f"malformed CVE id {vuln.cve_id!r}"))
        if vuln.cve_id in seen_cves:
            out.append(
                Violation(f"vulnerabilities[{i}].id", f"duplicate entry for {vuln.cve_id}")
            )
        seen_cves.add(vuln.cve_id)
        if not 0.0 <= vuln.cvss_score <= 10.0:
            out.append(
                Violation(
                    f"vulnerabilities[{i}].ratings.score",
                    f"score {vuln.cvss_score} outside [0,10]",
                )
            )
        if not vuln.affects:
            out.append(
                Violation(f"vulnerabilities[{i}].affects", "must name at least one component")
            )
        for ref in vuln.affects:
            # A ref that names a component and is no bom-link is clean.
            if ref not in refs or ref.startswith("urn:cdx:"):
                _check_ref(f"vulnerabilities[{i}].affects", ref, refs, out)
        expected = severity_for_score(vuln.cvss_score)
        if expected is not None and vuln.severity != expected:
            out.append(
                Violation(
                    f"vulnerabilities[{i}].ratings.severity",
                    f"{vuln.severity.value} inconsistent with score {vuln.cvss_score}",
                )
            )

    # Equal links render to the same URN, the key deltas patch links by.
    seen_links: set[BomLink] = set()
    for i, link in enumerate(bom.links):
        if link in seen_links:
            out.append(Violation(f"externalReferences[{i}].url", "duplicate bom-link"))
        seen_links.add(link)

    return out


def severity_for_score(score: float) -> Optional[Severity]:
    """CVSS v3.1 qualitative banding; None for out-of-range scores."""
    if score < 0.0 or score > 10.0:
        return None
    if score == 0.0:
        return Severity.NONE
    if score < 4.0:
        return Severity.LOW
    if score < 7.0:
        return Severity.MEDIUM
    if score < 9.0:
        return Severity.HIGH
    return Severity.CRITICAL


BomRegistry = Mapping[tuple[str, int], Bom]


def resolve_bom_link(link: BomLink, registry: BomRegistry) -> Union[Bom, Component]:
    """Exact-match resolution against a (serial, version)-keyed registry."""
    key = (link.target_serial, link.target_version)
    bom = registry.get(key)
    if bom is None:
        raise BomLinkNotFound(
            f"no document {link.target_serial} version {link.target_version} in registry"
        )
    if link.target_bom_ref is None:
        return bom
    component = bom.component_by_ref(link.target_bom_ref)
    if component is None:
        raise DanglingRef(
            f"bom_ref {link.target_bom_ref!r} absent from {link.target_serial}"
        )
    return component
