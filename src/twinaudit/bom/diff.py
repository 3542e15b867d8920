"""Structural deltas between two revisions of the same document.

Components are keyed by bom-ref, dependencies by ref, vulnerabilities by CVE
id. A delta records full new values for changed entries, so applying it is a
plain replace and apply(old, diff(old, new)) reproduces new exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from .model import (
    Bom,
    BomKind,
    BomLink,
    BomMetadata,
    Component,
    Dependency,
    SubjectKind,
    Violation,
    VulnerabilityEntry,
)
from .serialize import (
    _SUBJECT_FROM_JSON,
    _SUBJECT_TO_JSON,
    BomSchemaError,
    _component_to_dict,
    _parse_component,
    _parse_vulnerability,
    _take,
    _vuln_to_dict,
)


class DeltaMismatch(ValueError):
    """Delta does not fit the document it is being applied to."""


@dataclass(frozen=True)
class BomDelta:
    base_serial: str
    base_version: int
    new_version: int
    components_added: tuple[Component, ...] = ()
    components_removed: tuple[str, ...] = ()
    components_changed: tuple[Component, ...] = ()
    dependencies_added: tuple[Dependency, ...] = ()
    dependencies_removed: tuple[str, ...] = ()
    dependencies_changed: tuple[Dependency, ...] = ()
    vulnerabilities_added: tuple[VulnerabilityEntry, ...] = ()
    vulnerabilities_removed: tuple[str, ...] = ()
    vulnerabilities_changed: tuple[VulnerabilityEntry, ...] = ()
    kind_to: Optional[BomKind] = None
    metadata_to: Optional[BomMetadata] = None
    links_to: Optional[tuple[BomLink, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "components_added", tuple(sorted(self.components_added, key=lambda c: c.bom_ref))
        )
        object.__setattr__(self, "components_removed", tuple(sorted(self.components_removed)))
        object.__setattr__(
            self,
            "components_changed",
            tuple(sorted(self.components_changed, key=lambda c: c.bom_ref)),
        )
        object.__setattr__(
            self, "dependencies_added", tuple(sorted(self.dependencies_added, key=lambda d: d.ref))
        )
        object.__setattr__(self, "dependencies_removed", tuple(sorted(self.dependencies_removed)))
        object.__setattr__(
            self,
            "dependencies_changed",
            tuple(sorted(self.dependencies_changed, key=lambda d: d.ref)),
        )
        object.__setattr__(
            self,
            "vulnerabilities_added",
            tuple(sorted(self.vulnerabilities_added, key=lambda v: v.cve_id)),
        )
        object.__setattr__(
            self, "vulnerabilities_removed", tuple(sorted(self.vulnerabilities_removed))
        )
        object.__setattr__(
            self,
            "vulnerabilities_changed",
            tuple(sorted(self.vulnerabilities_changed, key=lambda v: v.cve_id)),
        )
        if self.links_to is not None:
            object.__setattr__(self, "links_to", tuple(self.links_to))

    @property
    def is_empty(self) -> bool:
        """True when applying would change nothing but the version counter."""
        return not (
            self.components_added
            or self.components_removed
            or self.components_changed
            or self.dependencies_added
            or self.dependencies_removed
            or self.dependencies_changed
            or self.vulnerabilities_added
            or self.vulnerabilities_removed
            or self.vulnerabilities_changed
            or self.kind_to is not None
            or self.metadata_to is not None
            or self.links_to is not None
        )


def diff_boms(old: Bom, new: Bom) -> BomDelta:
    if old.serial_number != new.serial_number:
        raise DeltaMismatch(
            f"cannot diff across documents: {old.serial_number} vs {new.serial_number}"
        )

    def split(old_map: dict, new_map: dict):
        added = tuple(new_map[k] for k in new_map.keys() - old_map.keys())
        removed = tuple(old_map.keys() - new_map.keys())
        changed = tuple(
            new_map[k] for k in new_map.keys() & old_map.keys() if new_map[k] != old_map[k]
        )
        return added, removed, changed

    comps = split(
        {c.bom_ref: c for c in old.components}, {c.bom_ref: c for c in new.components}
    )
    deps = split(
        {d.ref: d for d in old.dependencies}, {d.ref: d for d in new.dependencies}
    )
    vulns = split(
        {v.cve_id: v for v in old.vulnerabilities},
        {v.cve_id: v for v in new.vulnerabilities},
    )
    return BomDelta(
        base_serial=old.serial_number,
        base_version=old.version,
        new_version=new.version,
        components_added=comps[0],
        components_removed=comps[1],
        components_changed=comps[2],
        dependencies_added=deps[0],
        dependencies_removed=deps[1],
        dependencies_changed=deps[2],
        vulnerabilities_added=vulns[0],
        vulnerabilities_removed=vulns[1],
        vulnerabilities_changed=vulns[2],
        kind_to=new.kind if new.kind != old.kind else None,
        metadata_to=new.metadata if new.metadata != old.metadata else None,
        links_to=new.links if new.links != old.links else None,
    )


def _patch(old_map: dict, added, removed, changed, label: str) -> dict:
    out = dict(old_map)
    for key, value in added:
        if key in out:
            raise DeltaMismatch(f"{label} {key!r} to add already present")
        out[key] = value
    for key in removed:
        if key not in out:
            raise DeltaMismatch(f"{label} {key!r} to remove is absent")
        del out[key]
    for key, value in changed:
        if key not in out:
            raise DeltaMismatch(f"{label} {key!r} to change is absent")
        out[key] = value
    return out


def apply_delta(old: Bom, delta: BomDelta) -> Bom:
    if old.serial_number != delta.base_serial:
        raise DeltaMismatch(
            f"delta targets {delta.base_serial}, document is {old.serial_number}"
        )
    if old.version != delta.base_version:
        raise DeltaMismatch(
            f"delta expects base version {delta.base_version}, document is at {old.version}"
        )
    comps = _patch(
        {c.bom_ref: c for c in old.components},
        [(c.bom_ref, c) for c in delta.components_added],
        delta.components_removed,
        [(c.bom_ref, c) for c in delta.components_changed],
        "component",
    )
    deps = _patch(
        {d.ref: d for d in old.dependencies},
        [(d.ref, d) for d in delta.dependencies_added],
        delta.dependencies_removed,
        [(d.ref, d) for d in delta.dependencies_changed],
        "dependency",
    )
    vulns = _patch(
        {v.cve_id: v for v in old.vulnerabilities},
        [(v.cve_id, v) for v in delta.vulnerabilities_added],
        delta.vulnerabilities_removed,
        [(v.cve_id, v) for v in delta.vulnerabilities_changed],
        "vulnerability",
    )
    return Bom(
        serial_number=old.serial_number,
        version=delta.new_version,
        kind=delta.kind_to if delta.kind_to is not None else old.kind,
        metadata=delta.metadata_to if delta.metadata_to is not None else old.metadata,
        components=tuple(comps.values()),
        dependencies=tuple(deps.values()),
        vulnerabilities=tuple(vulns.values()),
        links=delta.links_to if delta.links_to is not None else old.links,
        extras=old.extras,
    )


def _metadata_to_dict(metadata: BomMetadata) -> dict[str, Any]:
    out: dict[str, Any] = {
        "component": {
            "type": _SUBJECT_TO_JSON[metadata.subject_kind],
            "name": metadata.subject_name,
        },
        "properties": [{"name": n, "value": v} for n, v in metadata.properties],
    }
    if metadata.timestamp:
        out["timestamp"] = metadata.timestamp
    return out


def _metadata_from_dict(data: dict[str, Any], violations: list[Violation]) -> BomMetadata:
    comp = data.get("component") or {}
    kind = _SUBJECT_FROM_JSON.get(comp.get("type", ""))
    if kind is None:
        violations.append(Violation("metadataTo.component.type", "unknown subject type"))
        kind = SubjectKind.PROFILE
    props = []
    for entry in data.get("properties", []):
        if isinstance(entry, dict) and isinstance(entry.get("name"), str):
            props.append((entry["name"], str(entry.get("value", ""))))
    return BomMetadata(
        subject_kind=kind,
        subject_name=comp.get("name", ""),
        timestamp=data.get("timestamp"),
        properties=tuple(props),
    )


def delta_to_dict(delta: BomDelta) -> dict[str, Any]:
    """JSON-transportable rendering, e.g. for representation update requests."""
    out: dict[str, Any] = {
        "baseSerial": delta.base_serial,
        "baseVersion": delta.base_version,
        "newVersion": delta.new_version,
    }
    if delta.components_added:
        out["componentsAdded"] = [_component_to_dict(c) for c in delta.components_added]
    if delta.components_removed:
        out["componentsRemoved"] = list(delta.components_removed)
    if delta.components_changed:
        out["componentsChanged"] = [_component_to_dict(c) for c in delta.components_changed]
    if delta.dependencies_added:
        out["dependenciesAdded"] = [
            {"ref": d.ref, "dependsOn": list(d.depends_on)} for d in delta.dependencies_added
        ]
    if delta.dependencies_removed:
        out["dependenciesRemoved"] = list(delta.dependencies_removed)
    if delta.dependencies_changed:
        out["dependenciesChanged"] = [
            {"ref": d.ref, "dependsOn": list(d.depends_on)} for d in delta.dependencies_changed
        ]
    if delta.vulnerabilities_added:
        out["vulnerabilitiesAdded"] = [_vuln_to_dict(v) for v in delta.vulnerabilities_added]
    if delta.vulnerabilities_removed:
        out["vulnerabilitiesRemoved"] = list(delta.vulnerabilities_removed)
    if delta.vulnerabilities_changed:
        out["vulnerabilitiesChanged"] = [_vuln_to_dict(v) for v in delta.vulnerabilities_changed]
    if delta.kind_to is not None:
        out["kindTo"] = delta.kind_to.value
    if delta.metadata_to is not None:
        out["metadataTo"] = _metadata_to_dict(delta.metadata_to)
    if delta.links_to is not None:
        out["linksTo"] = [link.render() for link in delta.links_to]
    return out


def delta_from_dict(data: dict[str, Any]) -> BomDelta:
    violations: list[Violation] = []
    for key in ("baseSerial", "baseVersion", "newVersion"):
        if key not in data:
            violations.append(Violation(key, f"missing required field {key}"))
    if violations:
        raise BomSchemaError(violations)

    def entries(key: str) -> list:
        return _take(data, key, list, "", violations) or []

    def strings(key: str) -> tuple[str, ...]:
        values = entries(key)
        if any(type(v) is not str for v in values):
            violations.append(Violation(key, "must be a string list"))
            return ()
        return tuple(values)

    def comps(key: str) -> tuple[Component, ...]:
        out = []
        for i, entry in enumerate(entries(key)):
            if not isinstance(entry, dict):
                violations.append(Violation(f"{key}[{i}]", "must be an object"))
                continue
            comp = _parse_component(entry, key, i, True, violations)
            if comp is not None:
                out.append(comp)
        return tuple(out)

    def deps(key: str) -> tuple[Dependency, ...]:
        out = []
        for i, entry in enumerate(entries(key)):
            if not isinstance(entry, dict) or not isinstance(entry.get("ref"), str):
                violations.append(Violation(key, "entries must be {ref, dependsOn}"))
                continue
            depends_on = entry.get("dependsOn", [])
            if type(depends_on) is not list or any(type(d) is not str for d in depends_on):
                violations.append(Violation(f"{key}[{i}].dependsOn", "must be a string list"))
                continue
            out.append(Dependency(ref=entry["ref"], depends_on=tuple(depends_on)))
        return tuple(out)

    def vulns(key: str) -> tuple[VulnerabilityEntry, ...]:
        out = []
        for i, entry in enumerate(entries(key)):
            if not isinstance(entry, dict):
                violations.append(Violation(f"{key}[{i}]", "must be an object"))
                continue
            vuln = _parse_vulnerability(entry, key, i, True, violations)
            if vuln is not None:
                out.append(vuln)
        return tuple(out)

    kind_to = None
    if "kindTo" in data:
        try:
            kind_to = BomKind(data["kindTo"])
        except ValueError:
            violations.append(Violation("kindTo", f"unknown kind {data['kindTo']!r}"))
    metadata_to = None
    metadata_raw = _take(data, "metadataTo", dict, "", violations)
    if metadata_raw is not None:
        metadata_to = _metadata_from_dict(metadata_raw, violations)
    links_to = None
    if "linksTo" in data:
        parsed_links = []
        for i, raw in enumerate(entries("linksTo")):
            try:
                parsed_links.append(BomLink.parse(raw))
            except (TypeError, ValueError):
                violations.append(Violation(f"linksTo[{i}]", f"malformed bom-link {raw!r}"))
        links_to = tuple(parsed_links)

    delta = BomDelta(
        base_serial=data["baseSerial"],
        base_version=data["baseVersion"],
        new_version=data["newVersion"],
        components_added=comps("componentsAdded"),
        components_removed=strings("componentsRemoved"),
        components_changed=comps("componentsChanged"),
        dependencies_added=deps("dependenciesAdded"),
        dependencies_removed=strings("dependenciesRemoved"),
        dependencies_changed=deps("dependenciesChanged"),
        vulnerabilities_added=vulns("vulnerabilitiesAdded"),
        vulnerabilities_removed=strings("vulnerabilitiesRemoved"),
        vulnerabilities_changed=vulns("vulnerabilitiesChanged"),
        kind_to=kind_to,
        metadata_to=metadata_to,
        links_to=links_to,
    )
    if violations:
        raise BomSchemaError(violations)
    return delta


def delta_payload_bytes(delta: BomDelta) -> int:
    """Size of the canonical wire encoding, used for transfer-cost comparisons."""
    return len(json.dumps(delta_to_dict(delta), sort_keys=True, separators=(",", ":")))
