"""Structural deltas between two revisions of the same document.

A document's keyed sections are listed once, in `_SECTIONS`: components
keyed by bom-ref, dependencies by ref, vulnerabilities by CVE id, links by
their rendered URN. One loop over that table diffs, applies, encodes and
decodes all four. A delta records full new values for changed entries, so
applying it is a plain replace and apply(old, diff(old, new)) reproduces new
exactly. Only the kind and the metadata travel whole when they change.

Entries and metadata travel in the document's own JSON form and are read by
parse_bom's readers. apply_delta returns only a document that validate_bom
accepts. A delta field outside the known set is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Optional

from .model import (
    KIND_PROPERTY,
    Bom,
    BomKind,
    BomLink,
    BomMetadata,
    BomValidationError,
    Violation,
    validate_bom,
)
from .serialize import (
    BomSchemaError,
    _component_to_dict,
    _dependency_to_dict,
    _metadata_to_dict,
    _parse_component,
    _parse_dependency,
    _parse_metadata,
    _parse_reference,
    _parse_section,
    _parse_vulnerability,
    _reference_to_dict,
    _take,
    _unknown_fields,
    _vuln_to_dict,
)


class DeltaMismatch(ValueError):
    """Delta does not fit the document it is being applied to."""


@dataclass(frozen=True)
class SectionDelta:
    """Changes to one keyed section: entries added and changed in full, and
    the keys of entries removed, each in the model's order of the section."""

    added: tuple = ()
    removed: tuple[str, ...] = ()
    changed: tuple = ()


@dataclass(frozen=True)
class BomDelta:
    base_serial: str
    base_version: int
    new_version: int
    components: SectionDelta = SectionDelta()
    dependencies: SectionDelta = SectionDelta()
    vulnerabilities: SectionDelta = SectionDelta()
    links: SectionDelta = SectionDelta()
    kind_to: Optional[BomKind] = None
    metadata_to: Optional[BomMetadata] = None


# Each keyed section: the Bom attribute it patches (also its BomDelta field
# and the prefix of its wire keys), what a mismatch calls its entries, their
# key, and their wire writer and reader.
_SECTIONS: tuple[tuple[str, str, Callable[[Any], str], Callable, Callable], ...] = (
    ("components", "component", attrgetter("bom_ref"), _component_to_dict, _parse_component),
    ("dependencies", "dependency", attrgetter("ref"), _dependency_to_dict, _parse_dependency),
    ("vulnerabilities", "vulnerability", attrgetter("cve_id"), _vuln_to_dict,
     _parse_vulnerability),
    ("links", "link", BomLink.render, _reference_to_dict, _parse_reference),
)

# The fields a delta knows; decoding reports any other as unknown.
_DELTA_FIELDS = frozenset(
    {"baseSerial", "baseVersion", "newVersion", "kindTo", "metadataTo"}
    | {f"{attr}{part}" for attr, *_ in _SECTIONS for part in ("Added", "Removed", "Changed")}
)


def diff_boms(old: Bom, new: Bom) -> BomDelta:
    if old.serial_number != new.serial_number:
        raise DeltaMismatch(
            f"cannot diff across documents: {old.serial_number} vs {new.serial_number}"
        )
    sections = {}
    for attr, _, key, _, _ in _SECTIONS:
        # These maps keep the model's order of each section.
        old_map = {key(e): e for e in getattr(old, attr)}
        new_map = {key(e): e for e in getattr(new, attr)}
        sections[attr] = SectionDelta(
            added=tuple(e for k, e in new_map.items() if k not in old_map),
            removed=tuple(k for k in old_map if k not in new_map),
            changed=tuple(e for k, e in new_map.items() if k in old_map and old_map[k] != e),
        )
    return BomDelta(
        base_serial=old.serial_number,
        base_version=old.version,
        new_version=new.version,
        kind_to=new.kind if new.kind != old.kind else None,
        metadata_to=new.metadata if new.metadata != old.metadata else None,
        **sections,
    )


def apply_delta(old: Bom, delta: BomDelta) -> Bom:
    """The document `delta` makes of `old`. Raises DeltaMismatch when the
    delta does not fit `old`, and BomValidationError when the result breaks
    an invariant of validate_bom."""
    if old.serial_number != delta.base_serial:
        raise DeltaMismatch(
            f"delta targets {delta.base_serial}, document is {old.serial_number}"
        )
    if old.version != delta.base_version:
        raise DeltaMismatch(
            f"delta expects base version {delta.base_version}, document is at {old.version}"
        )
    sections = {}
    for attr, label, key, _, _ in _SECTIONS:
        entries = {key(e): e for e in getattr(old, attr)}
        patch: SectionDelta = getattr(delta, attr)
        for entry in patch.added:
            if key(entry) in entries:
                raise DeltaMismatch(f"{label} {key(entry)!r} to add already present")
            entries[key(entry)] = entry
        for k in patch.removed:
            if k not in entries:
                raise DeltaMismatch(f"{label} {k!r} to remove is absent")
            del entries[k]
        for entry in patch.changed:
            if key(entry) not in entries:
                raise DeltaMismatch(f"{label} {key(entry)!r} to change is absent")
            entries[key(entry)] = entry
        sections[attr] = tuple(entries.values())
    bom = Bom(
        serial_number=old.serial_number,
        version=delta.new_version,
        kind=delta.kind_to if delta.kind_to is not None else old.kind,
        metadata=delta.metadata_to if delta.metadata_to is not None else old.metadata,
        extras=old.extras,
        **sections,
    )
    violations = validate_bom(bom)
    if violations:
        raise BomValidationError(violations)
    return bom


def delta_to_dict(delta: BomDelta) -> dict[str, Any]:
    """JSON-transportable rendering, e.g. for representation update requests."""
    out: dict[str, Any] = {
        "baseSerial": delta.base_serial,
        "baseVersion": delta.base_version,
        "newVersion": delta.new_version,
    }
    for attr, _, _, write, _ in _SECTIONS:
        patch: SectionDelta = getattr(delta, attr)
        if patch.added:
            out[f"{attr}Added"] = [write(e) for e in patch.added]
        if patch.removed:
            out[f"{attr}Removed"] = list(patch.removed)
        if patch.changed:
            out[f"{attr}Changed"] = [write(e) for e in patch.changed]
    if delta.kind_to is not None:
        out["kindTo"] = delta.kind_to.value
    if delta.metadata_to is not None:
        out["metadataTo"] = _metadata_to_dict(delta.metadata_to)
    return out


def delta_from_dict(data: dict[str, Any]) -> BomDelta:
    """Inverse of delta_to_dict; raises BomSchemaError with every violation."""
    violations: list[Violation] = []
    base_serial = _take(data, "baseSerial", str, "", violations, required=True)
    base_version = _take(data, "baseVersion", int, "", violations, required=True)
    new_version = _take(data, "newVersion", int, "", violations, required=True)
    sections = {}
    for attr, _, _, _, read in _SECTIONS:
        added = _parse_section(data, f"{attr}Added", read, True, violations)
        removed = _take(data, f"{attr}Removed", list, "", violations) or []
        if any(type(k) is not str for k in removed):
            violations.append(Violation(f"{attr}Removed", "must be a string list"))
        changed = _parse_section(data, f"{attr}Changed", read, True, violations)
        sections[attr] = SectionDelta(tuple(added), tuple(removed), tuple(changed))
    kind_to = None
    if "kindTo" in data:
        try:
            kind_to = BomKind(data["kindTo"])
        except ValueError:
            violations.append(Violation("kindTo", f"unknown kind {data['kindTo']!r}"))
    metadata_to = None
    metadata_raw = _take(data, "metadataTo", dict, "", violations)
    if metadata_raw is not None:
        metadata_to, kind = _parse_metadata(metadata_raw, "metadataTo", True, violations)
        if kind is not None:
            path = "metadataTo.properties"
            violations.append(Violation(path, f"{KIND_PROPERTY} travels as kindTo"))
    if not data.keys() <= _DELTA_FIELDS:
        _unknown_fields(data, _DELTA_FIELDS, "", violations)
    if violations:
        raise BomSchemaError(violations)
    return BomDelta(
        base_serial=base_serial,
        base_version=base_version,
        new_version=new_version,
        kind_to=kind_to,
        metadata_to=metadata_to,
        **sections,
    )
