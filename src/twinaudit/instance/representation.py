"""Stored representation of one security digital twin.

Things are WoT-style descriptions, one per audited host plus one for the
profile manifest. Every thing keeps an append-only revision history; past
revisions stay readable verbatim after any number of updates.

Each revision is stored as canonical JSON text (sorted keys, compact
separators, ASCII only): it is encoded once on write, compared as text to
detect an unchanged state, and handed out as that text on every read, so a
read costs a lookup and no caller can change the stored history.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Iterable, Optional

from ..bom import Bom, BomKind, Component, SubjectKind, VulnerabilityEntry

__all__ = [
    "RepresentationError",
    "Revision",
    "StoredRepresentation",
    "UnknownThing",
    "VersionConflict",
    "thing_states_from_boms",
]


class RepresentationError(ValueError):
    """Input rejected before any state change."""


class UnknownThing(KeyError):
    def __init__(self, thing_id: str):
        super().__init__(thing_id)
        self.thing_id = thing_id


class VersionConflict(Exception):
    def __init__(self, expected: int, got: int):
        super().__init__(f"expected version {expected}, got {got}")
        self.expected = expected
        self.got = got


_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# Property lists are ordered by each entry's json.dumps(entry, sort_keys=True)
# text. Each entry is built with a sort key that orders exactly as that text
# without encoding the entry: a tuple of tokens, in the entry's sorted-key
# order, that spell its text minus the punctuation between them:
# - a string is its JSON text, quotes included;
# - a number is its repr plus the delimiter that follows it ("," or "}");
# - a list of strings is its full JSON text;
# - a key name stands, quoted, wherever the entry's key set varies;
# - the tuple ends with "}".
# Each token is prefix-free where it stands: a string ends at its only
# unescaped quote, a number carries its delimiter, a list ends at its "]".
# So the first token two keys differ in starts at the same offset of both
# texts and differs from the other within both, and the tuples compare as the
# texts do. The compact canonical text would order the same: two texts first
# differ after a common prefix, and a separator's trailing space follows a
# separator in both, so it is never that first difference.


def _text_or_null(value: Optional[str]) -> str:
    return "null" if value is None else _quote(value)


def _canonical_texts(states: dict[str, Any]) -> dict[str, str]:
    """Each state's canonical text; rejects a state that is not an object."""
    texts = {}
    for thing_id, state in states.items():
        if not isinstance(state, dict):
            raise RepresentationError(f"state of thing {thing_id!r} must be an object")
        texts[thing_id] = _canonical(state)
    return texts


# A property entry with its sort key, as the entry builders return it.
_Keyed = tuple[tuple[str, ...], dict[str, Any]]


def _software_entry(component: Component) -> _Keyed:
    entry: dict[str, Any] = {
        "name": component.name,
        "version": component.version,
        "ref": component.bom_ref,
        "type": component.component_type.value,
    }
    tail = (
        _quote(component.bom_ref),
        _quote(entry["type"]),
        _quote(component.version),
        "}",
    )
    if component.package_url:
        entry["purl"] = component.package_url
        key = (_quote(component.name), '"purl"', _quote(component.package_url), '"ref"', *tail)
    else:
        key = (_quote(component.name), '"ref"', *tail)
    return key, entry


def _crypto_bucket(component: Component) -> str:
    if component.crypto is None:
        return "libraries" if component.component_type.value == "LIBRARY" else "settings"
    kind = component.crypto.asset_kind.value
    return {
        "ALGORITHM": "algorithms",
        "PROTOCOL": "protocols",
        "CERTIFICATE": "certificates",
        "KEY_MATERIAL": "keyMaterial",
    }.get(kind, "settings")


def _crypto_entry(component: Component) -> _Keyed:
    entry: dict[str, Any] = {
        "name": component.name,
        "version": component.version,
        "ref": component.bom_ref,
    }
    name = ('"name"', _quote(component.name))
    ref = ('"ref"', _quote(component.bom_ref))
    version = ('"version"', _quote(component.version), "}")
    crypto = component.crypto
    if crypto is None:
        return (*name, *ref, *version), entry
    # Keys in sorted order: family, issuer, mode, name, notValidAfter,
    # notValidBefore, parameter, protocolVersion, ref, subject, version.
    key: list[str] = []
    if crypto.algorithm_family:
        entry["family"] = crypto.algorithm_family
        key += ('"family"', _quote(crypto.algorithm_family))
    certificate = bool(crypto.certificate_subject)
    if certificate:
        key += ('"issuer"', _text_or_null(crypto.certificate_issuer))
    if crypto.mode:
        key += ('"mode"', _quote(crypto.mode))
    key += name
    if certificate:
        key += (
            '"notValidAfter"',
            _text_or_null(crypto.not_after),
            '"notValidBefore"',
            _text_or_null(crypto.not_before),
        )
    if crypto.parameter_set:
        entry["parameter"] = crypto.parameter_set
        key += ('"parameter"', _quote(crypto.parameter_set))
    if crypto.mode:
        entry["mode"] = crypto.mode
    if crypto.protocol_version:
        entry["protocolVersion"] = crypto.protocol_version
        key += ('"protocolVersion"', _quote(crypto.protocol_version))
    key += ref
    if certificate:
        entry["subject"] = crypto.certificate_subject
        entry["issuer"] = crypto.certificate_issuer
        entry["notValidBefore"] = crypto.not_before
        entry["notValidAfter"] = crypto.not_after
        key += ('"subject"', _quote(crypto.certificate_subject))
    key += version
    return tuple(key), entry


def _vulnerability_entry(vuln: VulnerabilityEntry) -> _Keyed:
    entry = {
        "cve": vuln.cve_id,
        "score": vuln.cvss_score,
        "severity": vuln.severity.value,
        "state": vuln.analysis_state.value,
        "affects": list(vuln.affects),
    }
    key = (
        "[" + ", ".join(map(_quote, vuln.affects)) + "]",
        _quote(vuln.cve_id),
        repr(vuln.cvss_score) + ",",
        _quote(entry["severity"]),
        _quote(entry["state"]),
        "}",
    )
    return key, entry


def _document_entry(bom: Bom) -> _Keyed:
    entry = {"serial": bom.serial_number, "version": bom.version, "kind": bom.kind.value}
    return (_quote(entry["kind"]), _quote(bom.serial_number), repr(bom.version) + "}"), entry


def _first(keyed: _Keyed) -> tuple[str, ...]:
    return keyed[0]


def thing_states_from_boms(boms: Iterable[Bom]) -> dict[str, dict[str, Any]]:
    """Project parsed documents onto per-thing states.

    One thing per host subject, one per profile subject. Each document kind
    may appear once per subject; duplicates are rejected. Every property
    list is ordered by its entries' json.dumps(entry, sort_keys=True) text,
    through sort keys that encode nothing but strings (see above).
    """
    parsed = list(boms)
    seen: set[tuple[str, str, str]] = set()
    for bom in parsed:
        key = (bom.metadata.subject_kind.value, bom.metadata.subject_name, bom.kind.value)
        if key in seen:
            raise RepresentationError(
                f"duplicate {bom.kind.value} document for subject {bom.metadata.subject_name!r}"
            )
        seen.add(key)

    states: dict[str, dict[str, Any]] = {}
    software_kinds = (BomKind.SBOM, BomKind.MIXED)
    ordered = sorted(parsed, key=lambda b: (b.metadata.subject_name, b.kind.value))
    # One subject at a time, so only one thing's sort keys are alive at once.
    for subject, group in groupby(ordered, key=lambda b: b.metadata.subject_name):
        documents = list(group)
        if documents[0].metadata.subject_kind == SubjectKind.PROFILE:
            title = f"Audit profile manifest for {subject}"
        else:
            title = f"Security twin of host {subject}"
        keyed: dict[str, list[_Keyed]] = {"documents": []}
        links: dict[str, None] = {}
        for bom in documents:
            keyed["documents"].append(_document_entry(bom))
            for component in bom.components:
                if component.crypto is None and bom.kind in software_kinds:
                    bucket, pair = "software", _software_entry(component)
                else:
                    bucket, pair = _crypto_bucket(component), _crypto_entry(component)
                keyed.setdefault(bucket, []).append(pair)
            if bom.vulnerabilities:
                keyed.setdefault("vulnerabilities", []).extend(
                    map(_vulnerability_entry, bom.vulnerabilities)
                )
            links.update(dict.fromkeys(link.render() for link in bom.links))
        states[subject] = {
            "id": subject,
            "title": title,
            "properties": {
                bucket: [entry for _, entry in sorted(pairs, key=_first)]
                for bucket, pairs in keyed.items()
            },
            "links": sorted(links),
        }
    return states


@dataclass(frozen=True)
class Revision:
    revision: int
    timestamp: float
    text: str  # canonical JSON of the thing state


class StoredRepresentation:
    """Thing states keyed by id, each with gap-free revision history.

    Revisions are stamped by `clock`, Unix epoch seconds by default, the
    unit of the `?at=T` query.
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self._things: dict[str, list[Revision]] = {}
        self._version = 0
        self._clock = clock

    @property
    def current_version(self) -> int:
        return self._version

    @classmethod
    def build(
        cls, states: dict[str, dict[str, Any]], clock: Callable[[], float] = time.time
    ) -> "StoredRepresentation":
        if not states:
            raise RepresentationError("representation requires at least one thing")
        texts = _canonical_texts(states)
        rep = cls(clock=clock)
        now = rep._clock()
        for thing_id in sorted(texts):
            rep._things[thing_id] = [Revision(revision=1, timestamp=now, text=texts[thing_id])]
        rep._version = 1
        return rep

    def apply_update(self, states: dict[str, dict[str, Any]], new_version: int) -> int:
        """Advance to new_version; returns the number of things revised.

        Atomic: validation happens before any append. A thing gains a
        revision only when its canonical text changed.
        """
        if new_version != self._version + 1:
            raise VersionConflict(expected=self._version + 1, got=new_version)
        unknown = sorted(set(states) - set(self._things))
        if unknown:
            raise UnknownThing(unknown[0])
        texts = _canonical_texts(states)
        now = self._clock()
        revised = 0
        for thing_id in sorted(texts):
            history = self._things[thing_id]
            if texts[thing_id] == history[-1].text:
                continue
            history.append(
                Revision(revision=history[-1].revision + 1, timestamp=now, text=texts[thing_id])
            )
            revised += 1
        self._version = new_version
        return revised

    def thing_ids(self) -> list[str]:
        return sorted(self._things)

    def _history_of(self, thing_id: str) -> list[Revision]:
        try:
            return self._things[thing_id]
        except KeyError:
            raise UnknownThing(thing_id) from None

    def latest(self, thing_id: str) -> str:
        """The canonical text of the thing's newest revision."""
        return self._history_of(thing_id)[-1].text

    def at_revision(self, thing_id: str, revision: int) -> str:
        history = self._history_of(thing_id)
        if revision < 1 or revision > len(history):
            raise UnknownThing(f"{thing_id}@{revision}")
        return history[revision - 1].text

    def at_time(self, thing_id: str, timestamp: float) -> str:
        history = self._history_of(thing_id)
        best: Optional[Revision] = None
        for rev in history:
            if rev.timestamp <= timestamp:
                best = rev
        if best is None:
            raise UnknownThing(f"{thing_id}@t={timestamp}")
        return best.text

    def history(self, thing_id: str) -> list[tuple[int, float]]:
        return [(r.revision, r.timestamp) for r in self._history_of(thing_id)]

    def snapshot_doc(self) -> dict[str, Any]:
        """The whole representation, history included, as plain JSON data."""
        return {
            "version": self._version,
            "things": {
                thing_id: [
                    {
                        "revision": r.revision,
                        "timestamp": r.timestamp,
                        "state": json.loads(r.text),
                    }
                    for r in history
                ]
                for thing_id, history in sorted(self._things.items())
            },
        }
