"""Stored representation of one security digital twin.

Things are WoT-style descriptions, one per audited host plus one for the
profile manifest. Every thing keeps an append-only revision history; past
revisions stay readable verbatim after any number of updates.

Each revision is stored as canonical JSON text (sorted keys, compact
separators, ASCII only). The projection from parsed documents writes that
text directly, one thing at a time, with no intermediate state objects; a
state pushed as a JSON object is encoded once on write. The text is compared
as text to detect an unchanged state and handed out as it is on every read,
so a read costs a lookup and no caller can change the stored history.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Iterable, Optional

from ..bom import Bom, BomKind, Component, SubjectKind, VulnerabilityEntry
from ..jsonhttp import JsonText

__all__ = [
    "RepresentationError",
    "Revision",
    "StoredRepresentation",
    "UnknownThing",
    "VersionConflict",
    "thing_texts_from_boms",
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

# The projection writes each thing's canonical text itself, as _canonical
# would encode the same state: every object's keys in sorted order, compact
# separators, strings through the encoder's own ASCII quoting, and ints and
# finite floats as their repr, as json writes them. Each property list is
# sorted by its entries' texts, which orders it as their json.dumps(entry,
# sort_keys=True) texts would: two texts first differ after a common prefix,
# which spells the same structure in both forms, and a separator's trailing
# space follows a separator in both, so it is never that first difference.


def _text_or_null(value: Optional[str]) -> str:
    return "null" if value is None else _quote(value)


def _canonical_texts(states: dict[str, Any]) -> dict[str, str]:
    """Each state's canonical text: a JsonText is that text already, an
    object is encoded; rejects anything else."""
    texts = {}
    for thing_id, state in states.items():
        if isinstance(state, JsonText):
            texts[thing_id] = state
        elif isinstance(state, dict):
            texts[thing_id] = _canonical(state)
        else:
            raise RepresentationError(f"state of thing {thing_id!r} must be an object")
    return texts


def _software_text(component: Component) -> str:
    purl = f',"purl":{_quote(component.package_url)}' if component.package_url else ""
    return (
        f'{{"name":{_quote(component.name)}{purl}'
        f',"ref":{_quote(component.bom_ref)}'
        f',"type":{_quote(component.component_type.value)}'
        f',"version":{_quote(component.version)}}}'
    )


_CRYPTO_BUCKETS = {
    "ALGORITHM": "algorithms",
    "PROTOCOL": "protocols",
    "CERTIFICATE": "certificates",
    "KEY_MATERIAL": "keyMaterial",
}


def _crypto_bucket(component: Component) -> str:
    if component.crypto is None:
        return "libraries" if component.component_type.value == "LIBRARY" else "settings"
    return _CRYPTO_BUCKETS.get(component.crypto.asset_kind.value, "settings")


def _crypto_text(component: Component) -> str:
    name = f'"name":{_quote(component.name)},'
    ref = f'"ref":{_quote(component.bom_ref)},'
    version = f'"version":{_quote(component.version)}}}'
    crypto = component.crypto
    if crypto is None:
        return "{" + name + ref + version
    # Keys in sorted order: family, issuer, mode, name, notValidAfter,
    # notValidBefore, parameter, protocolVersion, ref, subject, version.
    parts = ["{"]
    if crypto.algorithm_family:
        parts.append(f'"family":{_quote(crypto.algorithm_family)},')
    certificate = bool(crypto.certificate_subject)
    if certificate:
        parts.append(f'"issuer":{_text_or_null(crypto.certificate_issuer)},')
    if crypto.mode:
        parts.append(f'"mode":{_quote(crypto.mode)},')
    parts.append(name)
    if certificate:
        parts.append(
            f'"notValidAfter":{_text_or_null(crypto.not_after)},'
            f'"notValidBefore":{_text_or_null(crypto.not_before)},'
        )
    if crypto.parameter_set:
        parts.append(f'"parameter":{_quote(crypto.parameter_set)},')
    if crypto.protocol_version:
        parts.append(f'"protocolVersion":{_quote(crypto.protocol_version)},')
    parts.append(ref)
    if certificate:
        parts.append(f'"subject":{_quote(crypto.certificate_subject)},')
    parts.append(version)
    return "".join(parts)


def _vulnerability_text(vuln: VulnerabilityEntry) -> str:
    return (
        f'{{"affects":[{",".join(map(_quote, vuln.affects))}]'
        f',"cve":{_quote(vuln.cve_id)}'
        f',"score":{vuln.cvss_score!r}'
        f',"severity":{_quote(vuln.severity.value)}'
        f',"state":{_quote(vuln.analysis_state.value)}}}'
    )


def _document_text(bom: Bom) -> str:
    return (
        f'{{"kind":{_quote(bom.kind.value)}'
        f',"serial":{_quote(bom.serial_number)}'
        f',"version":{bom.version!r}}}'
    )


def thing_texts_from_boms(boms: Iterable[Bom]) -> dict[str, JsonText]:
    """Project parsed documents onto each thing's canonical state text.

    One thing per host subject, one per profile subject. Each document kind
    may appear once per subject; duplicates are rejected. Every property
    list is ordered by its entries' json.dumps(entry, sort_keys=True) text
    (see above).
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

    texts: dict[str, JsonText] = {}
    software_kinds = (BomKind.SBOM, BomKind.MIXED)
    ordered = sorted(parsed, key=lambda b: (b.metadata.subject_name, b.kind.value))
    for subject, group in groupby(ordered, key=lambda b: b.metadata.subject_name):
        documents = list(group)
        if documents[0].metadata.subject_kind == SubjectKind.PROFILE:
            title = f"Audit profile manifest for {subject}"
        else:
            title = f"Security twin of host {subject}"
        buckets: dict[str, list[str]] = {"documents": []}
        links: set[str] = set()
        for bom in documents:
            buckets["documents"].append(_document_text(bom))
            for component in bom.components:
                if component.crypto is None and bom.kind in software_kinds:
                    bucket, text = "software", _software_text(component)
                else:
                    bucket, text = _crypto_bucket(component), _crypto_text(component)
                buckets.setdefault(bucket, []).append(text)
            if bom.vulnerabilities:
                buckets.setdefault("vulnerabilities", []).extend(
                    map(_vulnerability_text, bom.vulnerabilities)
                )
            links.update(link.render() for link in bom.links)
        properties = ",".join(
            f'{_quote(bucket)}:[{",".join(sorted(buckets[bucket]))}]' for bucket in sorted(buckets)
        )
        texts[subject] = JsonText(
            f'{{"id":{_quote(subject)}'
            f',"links":[{",".join(map(_quote, sorted(links)))}]'
            f',"properties":{{{properties}}}'
            f',"title":{_quote(title)}}}'
        )
    return texts


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
        cls, states: dict[str, Any], clock: Callable[[], float] = time.time
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

    def apply_update(self, states: dict[str, Any], new_version: int) -> int:
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
