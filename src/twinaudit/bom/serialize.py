"""Canonical JSON serialization for the modeled CycloneDX 1.6 subset.

Canonical form: lexicographically sorted keys, components sorted by bom-ref,
dependencies by ref, vulnerabilities by CVE id, links by rendered URN, and
empty optional sections omitted (components stay present even when empty).
Identical document values therefore serialize to byte-identical text. The
model's constructors already keep every list but the links in that order,
so the writers only sort the links and the merged metadata properties.

The writers and readers of each document section (metadata, components,
dependencies, vulnerabilities, and links as external references) are also
the ones revision deltas use.
"""

from __future__ import annotations

import json
from typing import AbstractSet, Any, Callable, Optional

from .model import (
    KIND_PROPERTY,
    AnalysisState,
    Bom,
    BomKind,
    BomLink,
    BomMetadata,
    BomValidationError,
    Component,
    ComponentType,
    Dependency,
    CryptoAssetKind,
    CryptoProperties,
    Severity,
    SubjectKind,
    Violation,
    VulnerabilityEntry,
    _CERTIFICATE_ASSET,
    _CERTIFICATE_TYPE,
    _CRYPTO_ASSET_TYPE,
    _PROTOCOL_ASSET,
    validate_bom,
)

BOM_FORMAT = "CycloneDX"
SPEC_VERSION = "1.6"

_TYPE_TO_JSON = {
    ComponentType.LIBRARY: "library",
    ComponentType.APPLICATION: "application",
    ComponentType.CRYPTO_ASSET: "cryptographic-asset",
    ComponentType.CERTIFICATE: "cryptographic-asset",
    ComponentType.FILE: "file",
    ComponentType.OPERATING_SYSTEM_SETTING: "data",
}
_ASSET_TO_JSON = {
    CryptoAssetKind.ALGORITHM: "algorithm",
    CryptoAssetKind.CERTIFICATE: "certificate",
    CryptoAssetKind.PROTOCOL: "protocol",
    CryptoAssetKind.KEY_MATERIAL: "related-crypto-material",
}
_ASSET_FROM_JSON = {v: k for k, v in _ASSET_TO_JSON.items()}
_SEVERITY_TO_JSON = {s: s.value.lower() for s in Severity}
_SEVERITY_FROM_JSON = {v: k for k, v in _SEVERITY_TO_JSON.items()}
_STATE_TO_JSON = {s: s.value.lower() for s in AnalysisState}
_STATE_FROM_JSON = {v: k for k, v in _STATE_TO_JSON.items()}
_SUBJECT_TO_JSON = {SubjectKind.HOST: "device", SubjectKind.PROFILE: "application"}
_SUBJECT_FROM_JSON = {v: k for k, v in _SUBJECT_TO_JSON.items()}
_KIND_FROM_JSON = {k.value: k for k in BomKind}
# More enum members read through module globals, as in model.py.
_NO_SEVERITY = Severity.NONE
_PROFILE_SUBJECT = SubjectKind.PROFILE
_IN_TRIAGE = AnalysisState.IN_TRIAGE


class BomParseError(ValueError):
    """Malformed JSON input; carries the decoder's position."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line} column {column})")


class BomSchemaError(ValueError):
    """Well-formed JSON that does not fit the modeled subset."""

    def __init__(self, violations: list[Violation]):
        self.violations = tuple(violations)
        detail = "; ".join(str(v) for v in violations)
        super().__init__(f"schema violations: {detail}")


def _crypto_to_dict(crypto: CryptoProperties) -> dict[str, Any]:
    out: dict[str, Any] = {"assetType": _ASSET_TO_JSON[crypto.asset_kind]}
    algo: dict[str, Any] = {}
    if crypto.asset_kind != _PROTOCOL_ASSET and crypto.algorithm_family:
        algo["family"] = crypto.algorithm_family
    if crypto.parameter_set:
        algo["parameterSetIdentifier"] = crypto.parameter_set
    if crypto.mode:
        algo["mode"] = crypto.mode
    if algo:
        out["algorithmProperties"] = algo
    if crypto.asset_kind == _CERTIFICATE_ASSET:
        out["certificateProperties"] = {
            "subjectName": crypto.certificate_subject,
            "issuerName": crypto.certificate_issuer,
            "notValidBefore": crypto.not_before,
            "notValidAfter": crypto.not_after,
            "signatureAlgorithmRef": crypto.signature_algorithm_ref,
        }
    if crypto.asset_kind == _PROTOCOL_ASSET:
        proto: dict[str, Any] = {"version": crypto.protocol_version}
        if crypto.algorithm_family:
            proto["type"] = crypto.algorithm_family.lower()
        if crypto.cipher_suite_refs:
            proto["cipherSuites"] = [{"algorithms": list(crypto.cipher_suite_refs)}]
        out["protocolProperties"] = proto
    return out


def _component_to_dict(comp: Component) -> dict[str, Any]:
    out: dict[str, Any] = {
        "bom-ref": comp.bom_ref,
        "type": _TYPE_TO_JSON[comp.component_type],
        "name": comp.name,
    }
    if comp.version:
        out["version"] = comp.version
    if comp.package_url:
        out["purl"] = comp.package_url
    if comp.crypto is not None:
        out["cryptoProperties"] = _crypto_to_dict(comp.crypto)
    return out


def _vuln_to_dict(vuln: VulnerabilityEntry) -> dict[str, Any]:
    return {
        "id": vuln.cve_id,
        "ratings": [
            {
                "method": "CVSSv31",
                "score": vuln.cvss_score,
                "severity": _SEVERITY_TO_JSON[vuln.severity],
                "vector": vuln.cvss_vector,
            }
        ],
        "analysis": {"state": _STATE_TO_JSON[vuln.analysis_state]},
        "affects": [{"ref": ref} for ref in vuln.affects],
    }


def _dependency_to_dict(dep: Dependency) -> dict[str, Any]:
    return {"ref": dep.ref, "dependsOn": list(dep.depends_on)}


def _reference_to_dict(link: BomLink) -> dict[str, Any]:
    return {"type": "bom", "url": link.render()}


def _metadata_to_dict(metadata: BomMetadata, kind: Optional[BomKind] = None) -> dict[str, Any]:
    """The metadata object; a given kind is merged into its properties."""
    properties = metadata.properties
    if kind is not None:
        properties = sorted([(KIND_PROPERTY, kind.value), *properties])
    out: dict[str, Any] = {
        "component": {
            "type": _SUBJECT_TO_JSON[metadata.subject_kind],
            "name": metadata.subject_name,
        },
        "properties": [{"name": name, "value": value} for name, value in properties],
    }
    if metadata.timestamp:
        out["timestamp"] = metadata.timestamp
    return out


def bom_to_dict(bom: Bom) -> dict[str, Any]:
    """Canonically ordered plain-dict rendering (keys are sorted at dump time)."""
    doc: dict[str, Any] = {
        "bomFormat": BOM_FORMAT,
        "specVersion": SPEC_VERSION,
        "serialNumber": bom.serial_number,
        "version": bom.version,
        "metadata": _metadata_to_dict(bom.metadata, bom.kind),
        "components": [_component_to_dict(c) for c in bom.components],
    }
    if bom.dependencies:
        doc["dependencies"] = [_dependency_to_dict(d) for d in bom.dependencies]
    if bom.vulnerabilities:
        doc["vulnerabilities"] = [_vuln_to_dict(v) for v in bom.vulnerabilities]
    if bom.links:
        doc["externalReferences"] = [
            _reference_to_dict(link) for link in sorted(bom.links, key=BomLink.render)
        ]
    for key, raw in bom.extras:
        doc[key] = json.loads(raw)
    return doc


def serialize_bom(bom: Bom) -> str:
    """Render the document; rejects invalid values outright, never emits partially."""
    violations = validate_bom(bom)
    if violations:
        raise BomValidationError(violations)
    return json.dumps(bom_to_dict(bom), sort_keys=True, separators=(",", ":"))


def _freeze_extra(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# The fields each object of the modeled subset knows; strict parsing reports
# any other as unknown.
_ROOT_FIELDS = frozenset(
    {"bomFormat", "specVersion", "serialNumber", "version", "metadata", "components",
     "dependencies", "vulnerabilities", "externalReferences"}
)
_METADATA_FIELDS = frozenset({"component", "timestamp", "properties"})
_COMPONENT_FIELDS = frozenset({"bom-ref", "type", "name", "version", "purl", "cryptoProperties"})
_CRYPTO_FIELDS = frozenset(
    {"assetType", "algorithmProperties", "certificateProperties", "protocolProperties"}
)
_ALGORITHM_FIELDS = frozenset({"family", "parameterSetIdentifier", "mode"})
_CERTIFICATE_FIELDS = frozenset(
    {"subjectName", "issuerName", "notValidBefore", "notValidAfter", "signatureAlgorithmRef"}
)
_PROTOCOL_FIELDS = frozenset({"version", "type", "cipherSuites"})
_VULNERABILITY_FIELDS = frozenset({"id", "ratings", "analysis", "affects"})
_DEPENDENCY_FIELDS = frozenset({"ref", "dependsOn"})
_REFERENCE_FIELDS = frozenset({"type", "url"})
# Path suffixes of a component's crypto objects.
_CRYPTO = ".cryptoProperties"
_ALGORITHM = _CRYPTO + ".algorithmProperties"
_CERTIFICATE = _CRYPTO + ".certificateProperties"
_PROTOCOL = _CRYPTO + ".protocolProperties"
# The JSON key of each certificate property, in CryptoProperties field order.
_CERTIFICATE_KEYS = (
    "subjectName", "issuerName", "notValidBefore", "notValidAfter", "signatureAlgorithmRef"
)
_NO_CERTIFICATE = (None,) * len(_CERTIFICATE_KEYS)
_TYPE_FROM_JSON = {
    "library": ComponentType.LIBRARY,
    "application": ComponentType.APPLICATION,
    "file": ComponentType.FILE,
    "data": ComponentType.OPERATING_SYSTEM_SETTING,
}


def _sub(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


# Each field is read with an inline exact type test; `_take` runs only when
# that test fails, at the point the field is read, so violations keep their
# content and order. Paths of repeated objects ("components[3]...") are
# formatted only when a violation is recorded.


def _take(
    data: dict[str, Any],
    key: str,
    kind: type,
    path: str,
    violations: list[Violation],
    required: bool = False,
) -> Any:
    """data[key] if it is a `kind` (an int counts as a float); otherwise
    records why not and returns None. The input is decoded JSON, so an exact
    type test is an isinstance test that keeps bools out of int and float."""
    value = data.get(key)
    if type(value) is kind:
        return value
    if key not in data:
        if required:
            violations.append(Violation(path or key, f"missing required field {key}"))
        return None
    if kind is float and type(value) is int:
        return float(value)
    violations.append(Violation(_sub(path, key), f"expected {kind.__name__}"))
    return None


def _unknown_fields(
    data: dict[str, Any], known: AbstractSet[str], path: str, violations: list[Violation]
) -> None:
    """One violation per field outside `known`, in document order."""
    violations.extend(
        Violation(_sub(path, key), "unknown field") for key in data if key not in known
    )


def _parse_crypto(
    data: dict[str, Any], section: str, i: int, strict: bool, violations: list[Violation]
) -> Optional[CryptoProperties]:
    """The cryptoProperties of the component at `section[i]`."""
    asset_raw = data.get("assetType")
    if type(asset_raw) is not str:
        path = f"{section}[{i}]{_CRYPTO}"
        asset_raw = _take(data, "assetType", str, path, violations, required=True)
    kind = _ASSET_FROM_JSON.get(asset_raw)
    if kind is None:
        path = f"{section}[{i}]{_CRYPTO}.assetType"
        violations.append(Violation(path, f"unknown asset type {asset_raw!r}"))
        return None
    family = parameter_set = mode = None
    algo = data.get("algorithmProperties")
    if type(algo) is not dict and "algorithmProperties" in data:
        path = f"{section}[{i}]{_CRYPTO}"
        algo = _take(data, "algorithmProperties", dict, path, violations)
    if algo is not None:
        family = algo.get("family")
        if type(family) is not str and "family" in algo:
            family = _take(algo, "family", str, f"{section}[{i}]{_ALGORITHM}", violations)
        parameter_set = algo.get("parameterSetIdentifier")
        if type(parameter_set) is not str and "parameterSetIdentifier" in algo:
            path = f"{section}[{i}]{_ALGORITHM}"
            parameter_set = _take(algo, "parameterSetIdentifier", str, path, violations)
        mode = algo.get("mode")
        if type(mode) is not str and "mode" in algo:
            mode = _take(algo, "mode", str, f"{section}[{i}]{_ALGORITHM}", violations)
        if strict and not algo.keys() <= _ALGORITHM_FIELDS:
            _unknown_fields(algo, _ALGORITHM_FIELDS, f"{section}[{i}]{_ALGORITHM}", violations)
    certificate: Any = _NO_CERTIFICATE
    cert = data.get("certificateProperties")
    if type(cert) is not dict and "certificateProperties" in data:
        path = f"{section}[{i}]{_CRYPTO}"
        cert = _take(data, "certificateProperties", dict, path, violations)
    if cert is not None:
        certificate = []
        for key in _CERTIFICATE_KEYS:
            value = cert.get(key)
            if type(value) is not str and key in cert:
                value = _take(cert, key, str, f"{section}[{i}]{_CERTIFICATE}", violations)
            certificate.append(value)
        if strict and not cert.keys() <= _CERTIFICATE_FIELDS:
            path = f"{section}[{i}]{_CERTIFICATE}"
            _unknown_fields(cert, _CERTIFICATE_FIELDS, path, violations)
    protocol_version = None
    suites: list[str] = []
    proto = data.get("protocolProperties")
    if type(proto) is not dict and "protocolProperties" in data:
        path = f"{section}[{i}]{_CRYPTO}"
        proto = _take(data, "protocolProperties", dict, path, violations)
    if proto is not None:
        protocol_version = proto.get("version")
        if type(protocol_version) is not str and "version" in proto:
            path = f"{section}[{i}]{_PROTOCOL}"
            protocol_version = _take(proto, "version", str, path, violations)
        ptype = proto.get("type")
        if type(ptype) is not str and "type" in proto:
            ptype = _take(proto, "type", str, f"{section}[{i}]{_PROTOCOL}", violations)
        if ptype:
            family = ptype.upper()
        cipher_suites = proto.get("cipherSuites")
        if type(cipher_suites) is not list and "cipherSuites" in proto:
            path = f"{section}[{i}]{_PROTOCOL}"
            cipher_suites = _take(proto, "cipherSuites", list, path, violations)
        for j, entry in enumerate(cipher_suites or ()):
            if not isinstance(entry, dict):
                path = f"{section}[{i}]{_PROTOCOL}.cipherSuites[{j}]"
                violations.append(Violation(path, "expected dict"))
                continue
            algorithms = entry.get("algorithms", [])
            if not isinstance(algorithms, list):
                path = f"{section}[{i}]{_PROTOCOL}.cipherSuites"
                violations.append(Violation(path, "algorithms must be a list"))
                algorithms = ()
            for k, algorithm in enumerate(algorithms):
                if isinstance(algorithm, str):
                    suites.append(algorithm)
                else:
                    path = f"{section}[{i}]{_PROTOCOL}.cipherSuites[{j}].algorithms[{k}]"
                    violations.append(Violation(path, "expected str"))
            if strict and not entry.keys() <= {"algorithms"}:
                path = f"{section}[{i}]{_PROTOCOL}.cipherSuites[{j}]"
                _unknown_fields(entry, {"algorithms"}, path, violations)
        if strict and not proto.keys() <= _PROTOCOL_FIELDS:
            _unknown_fields(proto, _PROTOCOL_FIELDS, f"{section}[{i}]{_PROTOCOL}", violations)
    if strict and not data.keys() <= _CRYPTO_FIELDS:
        _unknown_fields(data, _CRYPTO_FIELDS, f"{section}[{i}]{_CRYPTO}", violations)
    subject, issuer, not_before, not_after, signature = certificate
    return CryptoProperties(
        kind, family, parameter_set, mode, subject, issuer, not_before, not_after, signature,
        protocol_version, suites,
    )


def _parse_component(
    data: Any, section: str, i: int, strict: bool, violations: list[Violation]
) -> Optional[Component]:
    """The component at `section[i]`; that path is formatted only for a
    violation."""
    if type(data) is not dict:
        violations.append(Violation(f"{section}[{i}]", "must be an object"))
        return None
    bom_ref = data.get("bom-ref")
    if type(bom_ref) is not str:
        bom_ref = _take(data, "bom-ref", str, f"{section}[{i}]", violations, required=True)
    type_raw = data.get("type")
    if type(type_raw) is not str:
        type_raw = _take(data, "type", str, f"{section}[{i}]", violations, required=True)
    name = data.get("name")
    if type(name) is not str:
        name = _take(data, "name", str, f"{section}[{i}]", violations, required=True)
    version = data.get("version", "")
    if type(version) is not str:
        version = _take(data, "version", str, f"{section}[{i}]", violations) or ""
    purl = data.get("purl")
    if type(purl) is not str and "purl" in data:
        purl = _take(data, "purl", str, f"{section}[{i}]", violations)
    crypto = None
    crypto_raw = data.get("cryptoProperties")
    if type(crypto_raw) is not dict and "cryptoProperties" in data:
        crypto_raw = _take(data, "cryptoProperties", dict, f"{section}[{i}]", violations)
    if crypto_raw is not None:
        crypto = _parse_crypto(crypto_raw, section, i, strict, violations)
    if strict and not data.keys() <= _COMPONENT_FIELDS:
        _unknown_fields(data, _COMPONENT_FIELDS, f"{section}[{i}]", violations)
    if bom_ref is None or type_raw is None or name is None:
        return None

    if type_raw == "cryptographic-asset":
        if crypto is not None and crypto.asset_kind == _CERTIFICATE_ASSET:
            ctype = _CERTIFICATE_TYPE
        else:
            ctype = _CRYPTO_ASSET_TYPE
    else:
        ctype = _TYPE_FROM_JSON.get(type_raw)
        if ctype is None:
            violations.append(
                Violation(f"{section}[{i}].type", f"unknown component type {type_raw!r}")
            )
            return None
    return Component(bom_ref, name, ctype, version, purl, crypto)


def _parse_vulnerability(
    data: Any, section: str, i: int, strict: bool, violations: list[Violation]
) -> Optional[VulnerabilityEntry]:
    """The vulnerability at `section[i]`; that path is formatted only for a
    violation."""
    if type(data) is not dict:
        violations.append(Violation(f"{section}[{i}]", "must be an object"))
        return None
    cve_id = data.get("id")
    if type(cve_id) is not str:
        cve_id = _take(data, "id", str, f"{section}[{i}]", violations, required=True)
    ratings = data.get("ratings")
    if type(ratings) is not list:
        ratings = _take(data, "ratings", list, f"{section}[{i}]", violations, required=True)
    score = 0.0
    vector = ""
    severity = _NO_SEVERITY
    if ratings:
        first = ratings[0] if type(ratings[0]) is dict else {}
        score = first.get("score")
        if type(score) is not float:
            path = f"{section}[{i}].ratings[0]"
            score = _take(first, "score", float, path, violations, required=True)
        score = score or 0.0  # None, and -0.0, read as 0.0
        vector = first.get("vector", "")
        if type(vector) is not str:
            vector = _take(first, "vector", str, f"{section}[{i}].ratings[0]", violations) or ""
        if type(first.get("method")) is not str and "method" in first:
            _take(first, "method", str, f"{section}[{i}].ratings[0]", violations)
        sev_raw = first.get("severity")
        if type(sev_raw) is not str:
            sev_raw = _take(
                first, "severity", str, f"{section}[{i}].ratings[0]", violations, required=True
            )
        sev = _SEVERITY_FROM_JSON.get(sev_raw)
        if sev is None:
            violations.append(
                Violation(f"{section}[{i}].ratings[0].severity", f"unknown severity {sev_raw!r}")
            )
        else:
            severity = sev
        if strict and not first.keys() <= {"method", "score", "severity", "vector"}:
            path = f"{section}[{i}].ratings[0]"
            _unknown_fields(first, {"method", "score", "severity", "vector"}, path, violations)
    else:
        violations.append(Violation(f"{section}[{i}].ratings", "must carry one CVSS rating"))
    state = _IN_TRIAGE
    analysis = data.get("analysis")
    if type(analysis) is not dict and "analysis" in data:
        analysis = _take(data, "analysis", dict, f"{section}[{i}]", violations)
    if analysis is not None:
        state_raw = analysis.get("state")
        parsed_state = _STATE_FROM_JSON.get(state_raw) if type(state_raw) is str else None
        if parsed_state is None:
            violations.append(
                Violation(f"{section}[{i}].analysis.state", f"unknown state {state_raw!r}")
            )
        else:
            state = parsed_state
        if strict and not analysis.keys() <= {"state"}:
            _unknown_fields(analysis, {"state"}, f"{section}[{i}].analysis", violations)
    affects: list[str] = []
    affects_raw = data.get("affects")
    if type(affects_raw) is not list:
        affects_raw = _take(data, "affects", list, f"{section}[{i}]", violations, required=True)
    for j, entry in enumerate(affects_raw or ()):
        ref = entry.get("ref") if type(entry) is dict else None
        if type(ref) is str:
            affects.append(ref)
        else:
            violations.append(
                Violation(f"{section}[{i}].affects", "entries must be {ref: string}")
            )
        if strict and type(entry) is dict and not entry.keys() <= {"ref"}:
            _unknown_fields(entry, {"ref"}, f"{section}[{i}].affects[{j}]", violations)
    if strict and not data.keys() <= _VULNERABILITY_FIELDS:
        _unknown_fields(data, _VULNERABILITY_FIELDS, f"{section}[{i}]", violations)
    if cve_id is None:
        return None
    return VulnerabilityEntry(cve_id, score, vector, severity, affects, state)


def _parse_dependency(
    data: Any, section: str, i: int, strict: bool, violations: list[Violation]
) -> Optional[Dependency]:
    """The dependency at `section[i]`."""
    if not isinstance(data, dict):
        violations.append(Violation(f"{section}[{i}]", "must be {ref, dependsOn}"))
        return None
    dependency = None
    depends_on = data.get("dependsOn", [])
    if not isinstance(data.get("ref"), str):
        violations.append(Violation(f"{section}[{i}]", "must be {ref, dependsOn}"))
    elif not isinstance(depends_on, list) or any(not isinstance(d, str) for d in depends_on):
        violations.append(Violation(f"{section}[{i}].dependsOn", "must be a string list"))
    else:
        dependency = Dependency(data["ref"], depends_on)
    if strict and not data.keys() <= _DEPENDENCY_FIELDS:
        _unknown_fields(data, _DEPENDENCY_FIELDS, f"{section}[{i}]", violations)
    return dependency


def _parse_reference(
    data: Any, section: str, i: int, strict: bool, violations: list[Violation]
) -> Optional[BomLink]:
    """The {type: bom, url} reference at `section[i]`."""
    if not isinstance(data, dict) or data.get("type") != "bom":
        violations.append(Violation(f"{section}[{i}]", "only {type: bom, url} references modeled"))
        return None
    link = None
    url = data.get("url", "")
    try:
        link = BomLink.parse(url)
    except (TypeError, ValueError):
        violations.append(Violation(f"{section}[{i}].url", f"not a bom-link urn: {url!r}"))
    if strict and not data.keys() <= _REFERENCE_FIELDS:
        _unknown_fields(data, _REFERENCE_FIELDS, f"{section}[{i}]", violations)
    return link


def _parse_section(
    data: dict[str, Any],
    key: str,
    parse_entry: Callable[..., Any],
    strict: bool,
    violations: list[Violation],
    required: bool = False,
) -> list[Any]:
    """What `parse_entry` reads of each entry of the list at data[key]. A
    reader returns None only for an entry it refused with a violation, so
    the list holds no None when `violations` stays empty."""
    raw = data.get(key)
    if type(raw) is not list:
        raw = _take(data, key, list, "", violations, required) or ()
    return [parse_entry(entry, key, i, strict, violations) for i, entry in enumerate(raw)]


def _parse_metadata(
    data: dict[str, Any], path: str, strict: bool, violations: list[Violation]
) -> tuple[BomMetadata, Optional[BomKind]]:
    """The metadata object at `path`, and the kind its reserved property
    names (None when it names none)."""
    kind: Optional[BomKind] = None
    subject_kind = _PROFILE_SUBJECT
    subject_name = ""
    comp_raw = data.get("component")
    if type(comp_raw) is not dict:
        comp_raw = _take(data, "component", dict, path, violations, required=True)
    if comp_raw is not None:
        subject_type = comp_raw.get("type")
        sk = _SUBJECT_FROM_JSON.get(subject_type) if type(subject_type) is str else None
        if sk is None:
            violations.append(Violation(f"{path}.component.type", "unknown subject type"))
        else:
            subject_kind = sk
        if isinstance(comp_raw.get("name"), str):
            subject_name = comp_raw["name"]
        else:
            violations.append(Violation(f"{path}.component.name", "missing subject name"))
        if strict and not comp_raw.keys() <= {"type", "name"}:
            _unknown_fields(comp_raw, {"type", "name"}, f"{path}.component", violations)
    timestamp = data.get("timestamp")
    if type(timestamp) is not str and "timestamp" in data:
        timestamp = _take(data, "timestamp", str, path, violations)
    props: list[tuple[str, str]] = []
    props_raw = data.get("properties")
    if type(props_raw) is not list:
        props_raw = _take(data, "properties", list, path, violations) or ()
    for i, entry in enumerate(props_raw):
        if (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("value"), str)
        ):
            if entry["name"] == KIND_PROPERTY:
                named = _KIND_FROM_JSON.get(entry["value"])
                if named is None:
                    violations.append(Violation(f"{path}.properties[{i}]", "unknown bom kind"))
                else:
                    kind = named
            else:
                props.append((entry["name"], entry["value"]))
        else:
            violations.append(
                Violation(f"{path}.properties[{i}]", "entries must be {name, value}")
            )
        if strict and isinstance(entry, dict) and not entry.keys() <= {"name", "value"}:
            _unknown_fields(entry, {"name", "value"}, f"{path}.properties[{i}]", violations)
    if strict and not data.keys() <= _METADATA_FIELDS:
        _unknown_fields(data, _METADATA_FIELDS, path, violations)
    return BomMetadata(subject_kind, subject_name, timestamp, props), kind


def parse_bom(text: str, strict: bool = True) -> Bom:
    """Inverse of serialize_bom.

    Strict mode rejects unknown fields of the document, its metadata (its
    component and property entries included), and each component (crypto
    objects and cipher suites included), dependency, vulnerability (its
    first rating, analysis and affects entries included) and reference;
    lenient mode preserves unknown document-level fields
    opaquely in `extras` and ignores unknown fields inside the document's
    objects. Unknown fields are reported in document order, after the
    known fields of their object.

    One pass builds the model and collects every violation: each field's
    type is tested inline, and a mismatch is recorded where the field is
    read. A document with no violation is then checked by validate_bom.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BomParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(data, dict):
        raise BomSchemaError([Violation("", "document root must be a JSON object")])

    violations: list[Violation] = []
    bom_format = data.get("bomFormat")
    if type(bom_format) is not str:
        bom_format = _take(data, "bomFormat", str, "", violations, required=True)
    if bom_format is not None and bom_format != BOM_FORMAT:
        violations.append(Violation("bomFormat", f"expected {BOM_FORMAT!r}"))
    spec_version = data.get("specVersion")
    if type(spec_version) is not str:
        spec_version = _take(data, "specVersion", str, "", violations, required=True)
    if spec_version is not None and spec_version != SPEC_VERSION:
        violations.append(Violation("specVersion", f"unsupported version {spec_version!r}"))
    serial = data.get("serialNumber")
    if type(serial) is not str:
        serial = _take(data, "serialNumber", str, "", violations, required=True)
    version = data.get("version")
    if type(version) is not int:
        version = _take(data, "version", int, "", violations, required=True)

    metadata: Any = None  # stays None only beside a violation
    kind: Optional[BomKind] = None
    meta_raw = data.get("metadata")
    if type(meta_raw) is not dict:
        meta_raw = _take(data, "metadata", dict, "", violations, required=True)
    if meta_raw is not None:
        metadata, kind = _parse_metadata(meta_raw, "metadata", strict, violations)
    if kind is None:
        if strict:
            violations.append(
                Violation("metadata.properties", f"missing required property {KIND_PROPERTY}")
            )
        kind = BomKind.MIXED

    components = _parse_section(
        data, "components", _parse_component, strict, violations, required=True
    )
    dependencies = _parse_section(data, "dependencies", _parse_dependency, strict, violations)
    vulnerabilities = _parse_section(
        data, "vulnerabilities", _parse_vulnerability, strict, violations
    )

    links = _parse_section(data, "externalReferences", _parse_reference, strict, violations)

    extras: tuple[tuple[str, str], ...] = ()
    if not data.keys() <= _ROOT_FIELDS:
        if strict:
            _unknown_fields(data, _ROOT_FIELDS, "", violations)
        else:
            extras = tuple(
                sorted((k, _freeze_extra(v)) for k, v in data.items() if k not in _ROOT_FIELDS)
            )

    if violations:
        raise BomSchemaError(violations)

    bom = Bom(serial, version, kind, metadata, components, dependencies, vulnerabilities, links,
              extras)
    deep = validate_bom(bom)
    if deep:
        raise BomSchemaError(deep)
    return bom
