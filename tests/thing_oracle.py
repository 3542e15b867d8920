"""Reference projection of parsed documents onto thing states, as plain dicts.

`twinaudit.instance.thing_texts_from_boms` writes each thing's canonical text
directly. This module builds the same states the plain way, one dict per
property entry, each list sorted by its entries' json.dumps(entry,
sort_keys=True) text, so tests can check the text projection byte for byte
against `canonical(state)`.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from twinaudit.bom import Bom, BomKind, Component, SubjectKind, VulnerabilityEntry
from twinaudit.instance import RepresentationError

_BUCKETS = {
    "ALGORITHM": "algorithms",
    "PROTOCOL": "protocols",
    "CERTIFICATE": "certificates",
    "KEY_MATERIAL": "keyMaterial",
}


def canonical(state: Any) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _software_entry(component: Component) -> dict[str, Any]:
    entry = {
        "name": component.name,
        "version": component.version,
        "ref": component.bom_ref,
        "type": component.component_type.value,
    }
    if component.package_url:
        entry["purl"] = component.package_url
    return entry


def _crypto_bucket(component: Component) -> str:
    if component.crypto is None:
        return "libraries" if component.component_type.value == "LIBRARY" else "settings"
    return _BUCKETS.get(component.crypto.asset_kind.value, "settings")


def _crypto_entry(component: Component) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "name": component.name,
        "version": component.version,
        "ref": component.bom_ref,
    }
    crypto = component.crypto
    if crypto is None:
        return entry
    if crypto.algorithm_family:
        entry["family"] = crypto.algorithm_family
    if crypto.parameter_set:
        entry["parameter"] = crypto.parameter_set
    if crypto.mode:
        entry["mode"] = crypto.mode
    if crypto.protocol_version:
        entry["protocolVersion"] = crypto.protocol_version
    if crypto.certificate_subject:
        entry["subject"] = crypto.certificate_subject
        entry["issuer"] = crypto.certificate_issuer
        entry["notValidBefore"] = crypto.not_before
        entry["notValidAfter"] = crypto.not_after
    return entry


def _vulnerability_entry(vuln: VulnerabilityEntry) -> dict[str, Any]:
    return {
        "cve": vuln.cve_id,
        "score": vuln.cvss_score,
        "severity": vuln.severity.value,
        "state": vuln.analysis_state.value,
        "affects": list(vuln.affects),
    }


def thing_states_from_boms(boms: Iterable[Bom]) -> dict[str, dict[str, Any]]:
    """One state per subject; rejects a repeated (subject kind, subject, kind)."""
    parsed = list(boms)
    seen: set[tuple[str, str, str]] = set()
    for bom in parsed:
        key = (bom.metadata.subject_kind.value, bom.metadata.subject_name, bom.kind.value)
        if key in seen:
            raise RepresentationError(
                f"duplicate {bom.kind.value} document for subject {bom.metadata.subject_name!r}"
            )
        seen.add(key)

    subjects: dict[str, list[Bom]] = {}
    for bom in sorted(parsed, key=lambda b: (b.metadata.subject_name, b.kind.value)):
        subjects.setdefault(bom.metadata.subject_name, []).append(bom)

    states = {}
    for subject, documents in subjects.items():
        if documents[0].metadata.subject_kind == SubjectKind.PROFILE:
            title = f"Audit profile manifest for {subject}"
        else:
            title = f"Security twin of host {subject}"
        properties: dict[str, list[dict[str, Any]]] = {"documents": []}
        links: set[str] = set()
        for bom in documents:
            properties["documents"].append(
                {"serial": bom.serial_number, "version": bom.version, "kind": bom.kind.value}
            )
            for component in bom.components:
                if component.crypto is None and bom.kind in (BomKind.SBOM, BomKind.MIXED):
                    bucket, entry = "software", _software_entry(component)
                else:
                    bucket, entry = _crypto_bucket(component), _crypto_entry(component)
                properties.setdefault(bucket, []).append(entry)
            if bom.vulnerabilities:
                properties.setdefault("vulnerabilities", []).extend(
                    map(_vulnerability_entry, bom.vulnerabilities)
                )
            links.update(link.render() for link in bom.links)
        states[subject] = {
            "id": subject,
            "title": title,
            "properties": {
                bucket: sorted(entries, key=lambda e: json.dumps(e, sort_keys=True))
                for bucket, entries in properties.items()
            },
            "links": sorted(links),
        }
    return states
