"""CycloneDX-1.6-subset document model: components, crypto assets, VEX, links.

All types are frozen values; collection fields are tuples so documents can be
shared between threads and used as dict keys where needed. Unordered
collections are sorted at construction, so equal document content compares
equal regardless of the order a producer emitted it in. Each type has one
constructor, written by hand for speed: forging, parsing, deltas and
dataclasses.replace all build values through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from datetime import datetime
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Iterable, Optional

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


# Each value type is a frozen dataclass with slots and a hand-written
# __init__, its only constructor (dataclasses.replace calls it too). It
# stores each field through the field's slot setter, bound once per class by
# _slot_setters, where the generated frozen __init__ looks up and calls
# object.__setattr__ for each field; it sorts the unordered fields in the
# same pass.


def _slot_setters(cls: type) -> tuple[Callable[[Any, Any], None], ...]:
    """The slot setter of each field of `cls`, in field order."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class BomLink:
    """Reference to another document, optionally to one component inside it.

    The target serial is checked once, at construction (a malformed one
    raises ValueError), so render() only slices it."""

    target_serial: str
    target_version: int
    target_bom_ref: Optional[str] = None

    def __init__(
        self, target_serial: str, target_version: int, target_bom_ref: Optional[str] = None
    ) -> None:
        if not SERIAL_RE.match(target_serial):
            raise ValueError(f"not a urn:uuid serial: {target_serial!r}")
        set_serial, set_version, set_ref = _LINK_SLOTS
        set_serial(self, target_serial)
        set_version(self, target_version)
        set_ref(self, target_bom_ref)

    def render(self) -> str:
        base = f"urn:cdx:{self.target_serial[_UUID_AT:]}/{self.target_version}"
        if self.target_bom_ref is not None:
            return f"{base}#{self.target_bom_ref}"
        return base

    @classmethod
    def parse(cls, text: str) -> "BomLink":
        m = BOM_LINK_RE.match(text)
        if m is None:
            raise ValueError(f"not a bom-link urn: {text!r}")
        return cls(f"urn:uuid:{m.group('uuid')}", int(m.group("version")), m.group("ref"))


_LINK_SLOTS = _slot_setters(BomLink)
_UUID_AT = len("urn:uuid:")


def is_bom_link(ref: str) -> bool:
    return ref.startswith("urn:cdx:")


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        asset_kind: CryptoAssetKind,
        algorithm_family: Optional[str] = None,
        parameter_set: Optional[str] = None,
        mode: Optional[str] = None,
        certificate_subject: Optional[str] = None,
        certificate_issuer: Optional[str] = None,
        not_before: Optional[str] = None,
        not_after: Optional[str] = None,
        signature_algorithm_ref: Optional[str] = None,
        protocol_version: Optional[str] = None,
        cipher_suite_refs: Iterable[str] = (),
    ) -> None:
        (
            set_asset_kind, set_algorithm_family, set_parameter_set, set_mode,
            set_certificate_subject, set_certificate_issuer, set_not_before, set_not_after,
            set_signature_algorithm_ref, set_protocol_version, set_cipher_suite_refs,
        ) = _CRYPTO_PROPERTIES_SLOTS
        set_asset_kind(self, asset_kind)
        set_algorithm_family(self, algorithm_family)
        set_parameter_set(self, parameter_set)
        set_mode(self, mode)
        set_certificate_subject(self, certificate_subject)
        set_certificate_issuer(self, certificate_issuer)
        set_not_before(self, not_before)
        set_not_after(self, not_after)
        set_signature_algorithm_ref(self, signature_algorithm_ref)
        set_protocol_version(self, protocol_version)
        set_cipher_suite_refs(self, tuple(sorted(cipher_suite_refs)))


_CRYPTO_PROPERTIES_SLOTS = _slot_setters(CryptoProperties)


@dataclass(frozen=True, slots=True, init=False)
class Component:
    bom_ref: str
    name: str
    component_type: ComponentType
    version: str = ""
    package_url: Optional[str] = None
    crypto: Optional[CryptoProperties] = None

    def __init__(
        self,
        bom_ref: str,
        name: str,
        component_type: ComponentType,
        version: str = "",
        package_url: Optional[str] = None,
        crypto: Optional[CryptoProperties] = None,
    ) -> None:
        (
            set_bom_ref, set_name, set_component_type, set_version, set_package_url, set_crypto,
        ) = _COMPONENT_SLOTS
        set_bom_ref(self, bom_ref)
        set_name(self, name)
        set_component_type(self, component_type)
        set_version(self, version)
        set_package_url(self, package_url)
        set_crypto(self, crypto)


_COMPONENT_SLOTS = _slot_setters(Component)


@dataclass(frozen=True, slots=True, init=False)
class Dependency:
    ref: str
    depends_on: tuple[str, ...] = ()

    def __init__(self, ref: str, depends_on: Iterable[str] = ()) -> None:
        set_ref, set_depends_on = _DEPENDENCY_SLOTS
        set_ref(self, ref)
        set_depends_on(self, tuple(sorted(depends_on)))


_DEPENDENCY_SLOTS = _slot_setters(Dependency)


@dataclass(frozen=True, slots=True, init=False)
class VulnerabilityEntry:
    cve_id: str
    cvss_score: float
    cvss_vector: str
    severity: Severity
    affects: tuple[str, ...]
    analysis_state: AnalysisState = AnalysisState.IN_TRIAGE

    def __init__(
        self,
        cve_id: str,
        cvss_score: float,
        cvss_vector: str,
        severity: Severity,
        affects: Iterable[str],
        analysis_state: AnalysisState = AnalysisState.IN_TRIAGE,
    ) -> None:
        (
            set_cve_id, set_cvss_score, set_cvss_vector, set_severity, set_affects,
            set_analysis_state,
        ) = _VULNERABILITY_ENTRY_SLOTS
        set_cve_id(self, cve_id)
        set_cvss_score(self, cvss_score)
        set_cvss_vector(self, cvss_vector)
        set_severity(self, severity)
        set_affects(self, tuple(sorted(affects)))
        set_analysis_state(self, analysis_state)


_VULNERABILITY_ENTRY_SLOTS = _slot_setters(VulnerabilityEntry)


@dataclass(frozen=True, slots=True, init=False)
class BomMetadata:
    subject_kind: SubjectKind
    subject_name: str
    timestamp: Optional[str] = None
    properties: tuple[tuple[str, str], ...] = ()

    def __init__(
        self,
        subject_kind: SubjectKind,
        subject_name: str,
        timestamp: Optional[str] = None,
        properties: Iterable[Iterable[str]] = (),
    ) -> None:
        set_subject_kind, set_subject_name, set_timestamp, set_properties = _BOM_METADATA_SLOTS
        set_subject_kind(self, subject_kind)
        set_subject_name(self, subject_name)
        set_timestamp(self, timestamp)
        set_properties(self, tuple(sorted(map(tuple, properties))))


_BOM_METADATA_SLOTS = _slot_setters(BomMetadata)


def _link_order(link: BomLink) -> tuple[str, int, str]:
    return (link.target_serial, link.target_version, link.target_bom_ref or "")


@dataclass(frozen=True, slots=True, init=False)
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
    extras: tuple[tuple[str, str], ...] = ()

    def __init__(
        self,
        serial_number: str,
        version: int,
        kind: BomKind,
        metadata: BomMetadata,
        components: Iterable[Component] = (),
        dependencies: Iterable[Dependency] = (),
        vulnerabilities: Iterable[VulnerabilityEntry] = (),
        links: Iterable[BomLink] = (),
        extras: Iterable[Iterable[str]] = (),
    ) -> None:
        (
            set_serial_number, set_version, set_kind, set_metadata, set_components,
            set_dependencies, set_vulnerabilities, set_links, set_extras,
        ) = _BOM_SLOTS
        set_serial_number(self, serial_number)
        set_version(self, version)
        set_kind(self, kind)
        set_metadata(self, metadata)
        set_components(self, tuple(sorted(components, key=_BY_BOM_REF)))
        set_dependencies(self, tuple(sorted(dependencies, key=_BY_REF)))
        set_vulnerabilities(self, tuple(sorted(vulnerabilities, key=_BY_CVE_ID)))
        set_links(self, tuple(sorted(links, key=_link_order)))
        set_extras(self, tuple(sorted(map(tuple, extras))))


_BOM_SLOTS = _slot_setters(Bom)
_BY_BOM_REF = attrgetter("bom_ref")
_BY_REF = attrgetter("ref")
_BY_CVE_ID = attrgetter("cve_id")


_CERT_FIELDS = (
    "certificate_subject",
    "certificate_issuer",
    "not_before",
    "not_after",
    "signature_algorithm_ref",
)
_cert_values = attrgetter(*_CERT_FIELDS)
_NO_CERT_VALUES = (None,) * len(_CERT_FIELDS)


# Enum members the checks compare with. On Python 3.11 a module global
# reads several times faster than a member looked up through its class.
_CRYPTO_ASSET_TYPE = ComponentType.CRYPTO_ASSET
_CERTIFICATE_TYPE = ComponentType.CERTIFICATE
_CERTIFICATE_ASSET = CryptoAssetKind.CERTIFICATE
_PROTOCOL_ASSET = CryptoAssetKind.PROTOCOL
_CRYPTO_TYPES = (_CRYPTO_ASSET_TYPE, _CERTIFICATE_TYPE)
_CRYPTO = ".cryptoProperties"


def _parse_ts(value: str) -> Optional[datetime]:
    try:
        return datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError:
        return None


def _validate_crypto(i: int, crypto: CryptoProperties, out: list[Violation]) -> None:
    """Checks the crypto properties of components[i]."""
    is_cert = crypto.asset_kind == _CERTIFICATE_ASSET
    values = _cert_values(crypto)
    # A certificate needs every certificate field, other assets none.
    if (None in values) if is_cert else (values != _NO_CERT_VALUES):
        for name, value in zip(_CERT_FIELDS, values):
            present = value is not None
            if present and not is_cert:
                path = f"components[{i}]{_CRYPTO}.{name}"
                out.append(Violation(path, "only valid for certificate assets"))
            if is_cert and not present:
                path = f"components[{i}]{_CRYPTO}.{name}"
                out.append(Violation(path, "required for certificate assets"))
    is_proto = crypto.asset_kind == _PROTOCOL_ASSET
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
        bom_ref = comp.bom_ref
        if not bom_ref:
            out.append(Violation(f"components[{i}].bom-ref", "empty bom_ref"))
        elif bom_ref in refs:
            out.append(Violation(f"components[{i}].bom-ref", f"duplicate bom_ref {bom_ref!r}"))
        refs.add(bom_ref)
        if not comp.name:
            out.append(Violation(f"components[{i}].name", "empty component name"))
        crypto = comp.crypto
        ctype = comp.component_type
        crypto_required = ctype in _CRYPTO_TYPES
        if crypto is None:
            if crypto_required:
                path = f"components[{i}]{_CRYPTO}"
                out.append(Violation(path, "required for crypto components"))
            continue
        if not crypto_required:
            path = f"components[{i}]{_CRYPTO}"
            out.append(Violation(path, "only valid on crypto components"))
        is_cert_props = crypto.asset_kind == _CERTIFICATE_ASSET
        if ctype == _CERTIFICATE_TYPE and not is_cert_props:
            out.append(Violation(f"components[{i}]{_CRYPTO}.assetType", "must be certificate"))
        if ctype == _CRYPTO_ASSET_TYPE and is_cert_props:
            path = f"components[{i}].type"
            out.append(Violation(path, "certificate assets use component type CERTIFICATE"))
        _validate_crypto(i, crypto, out)

    seen_dep_refs: set[str] = set()
    for i, dep in enumerate(bom.dependencies):
        ref = dep.ref
        # A ref that names a component and is no bom-link is clean.
        if ref not in refs or ref.startswith("urn:cdx:"):
            _check_ref(f"dependencies[{i}].ref", ref, refs, out)
        if ref in seen_dep_refs:
            path = f"dependencies[{i}].ref"
            out.append(Violation(path, f"duplicate dependency entry for {ref!r}"))
        seen_dep_refs.add(ref)
        seen_targets: set[str] = set()
        for target in dep.depends_on:
            if target == ref:
                out.append(Violation(f"dependencies[{i}].dependsOn", "self-dependency"))
            if target in seen_targets:
                path = f"dependencies[{i}].dependsOn"
                out.append(Violation(path, f"duplicate edge to {target!r}"))
            seen_targets.add(target)
            if target not in refs or target.startswith("urn:cdx:"):
                _check_ref(f"dependencies[{i}].dependsOn", target, refs, out)

    seen_cves: set[str] = set()
    for i, vuln in enumerate(bom.vulnerabilities):
        cve_id = vuln.cve_id
        if not CVE_RE.match(cve_id):
            out.append(Violation(f"vulnerabilities[{i}].id", f"malformed CVE id {cve_id!r}"))
        if cve_id in seen_cves:
            out.append(Violation(f"vulnerabilities[{i}].id", f"duplicate entry for {cve_id}"))
        seen_cves.add(cve_id)
        score = vuln.cvss_score
        if not 0.0 <= score <= 10.0:
            path = f"vulnerabilities[{i}].ratings.score"
            out.append(Violation(path, f"score {score} outside [0,10]"))
        affects = vuln.affects
        if not affects:
            path = f"vulnerabilities[{i}].affects"
            out.append(Violation(path, "must name at least one component"))
        for ref in affects:
            # A ref that names a component and is no bom-link is clean.
            if ref not in refs or ref.startswith("urn:cdx:"):
                _check_ref(f"vulnerabilities[{i}].affects", ref, refs, out)
        expected = severity_for_score(score)
        if expected is not None and vuln.severity != expected:
            path = f"vulnerabilities[{i}].ratings.severity"
            out.append(
                Violation(path, f"{vuln.severity.value} inconsistent with score {score}")
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
        return _NONE
    if score < 4.0:
        return _LOW
    if score < 7.0:
        return _MEDIUM
    if score < 9.0:
        return _HIGH
    return _CRITICAL


_NONE, _LOW, _MEDIUM, _HIGH, _CRITICAL = (
    Severity.NONE, Severity.LOW, Severity.MEDIUM, Severity.HIGH, Severity.CRITICAL
)

