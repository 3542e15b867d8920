"""Lifecycle core: descriptor registry plus create/update/destroy handlers.

Create follows interface -> core -> BOM parse (of the texts no live twin
holds) -> projection (of the subjects no live twin holds) -> LCM ->
runtime deploy -> data-adapter push -> controller confirmation -> response;
any failure after deploy tears the instance down again so no orphan keeps
running. Updates are guarded by an optimistic representation-version
precondition.

Twins of one estate share their unchanged documents and things, so the
manager keeps two tables of held entries: one from a document text to its
parsed `Bom`, and one from the texts of one subject's documents, in serial
order, to that subject's thing text. They are keyed by text, not by
`urn:cdx:<serial>/<version>`: one such link can name more than one content
(each audit forges its documents at version 1, so a host that changed
between two audits gives one link two texts), and two stores give the same
serials. Each entry counts the live twins that hold it. A twin holds a
subject's thing only while every document of that subject is a held text;
a document last revised by a delta holds nothing. A twin takes its holds
when its documents are committed (create or accepted update) and lets them
go when an update replaces the serial, by a text or by a delta, or
re-projects the subject, and on destroy; an entry whose last holder lets
it go is dropped, so a table holds nothing that no live twin holds.

A create may name a document by the sha256 digest of its text's UTF-8
bytes, `{"sha256": <64 lowercase hex digits>}`, instead of sending the
text. The manager computes each held text's digest itself, when a lookup
first needs it; a digest that no live twin holds is refused with 409
`unknown_digest`, whose body lists the `missing` ones.
"""

from __future__ import annotations

import hashlib
import json
import re
import secrets
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Hashable, Iterable, Optional, Sequence

from ..bom import Bom, BomParseError, BomSchemaError, BomValidationError, parse_bom
from ..bom.diff import DeltaMismatch, apply_delta, delta_from_dict
from ..instance import RepresentationError, Scope
from ..jsonhttp import HttpError, JsonText, RequestRejected, TransportUnavailable
from .adapter import DataAdapter
from .runtime import InProcessRuntime
from .trace import TraceRecorder, TraceSpan

__all__ = ["SdtDescriptor", "SdtManager", "SdtState"]

ID_PATTERN = "[0-9a-f]{32}"
_DIGEST = re.compile("[0-9a-f]{64}")
# Destroyed descriptors kept for GET and an idempotent DELETE, the oldest
# dropped first; an expired id answers 404 like an unknown one.
TOMBSTONES = 64


class SdtState(str, Enum):
    DEPLOYING = "DEPLOYING"
    READY = "READY"
    UPDATING = "UPDATING"
    DESTROYED = "DESTROYED"
    ERROR = "ERROR"


@dataclass
class SdtDescriptor:
    sdt_id: str
    state: SdtState
    profile_id: str
    created_at: float
    updated_at: float
    endpoint: Optional[str] = None
    representation_version: int = 0
    error: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "sdtId": self.sdt_id,
            "state": self.state.value,
            "profileId": self.profile_id,
            "createdAt": self.created_at,
            "updatedAt": self.updated_at,
            "endpoint": self.endpoint,
            "representationVersion": self.representation_version,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


@dataclass
class _SdtRecord:
    descriptor: SdtDescriptor
    write_token: str
    boms: dict[str, Bom] = field(default_factory=dict)
    # serial -> the shared text its Bom was parsed from; a serial last
    # revised by a delta holds a Bom of its own and no text.
    texts: dict[str, str] = field(default_factory=dict)
    # subject -> the key of its shared thing text: the texts of its
    # documents in serial order, None while one of them holds no text.
    things: dict[str, Optional[tuple[str, ...]]] = field(default_factory=dict)
    lock: threading.RLock = field(default_factory=threading.RLock)


@dataclass(slots=True)
class _Shared:
    key: Hashable  # a document text, or the texts of one subject's documents
    value: Any  # the text's parsed Bom, or the subject's thing text
    holders: int = 0
    digest: str = ""  # a document text's text_digest


def text_digest(text: str) -> str:
    """The sha256 of a document text's UTF-8 bytes, in lowercase hex: the
    name by which a create may send a document that a live twin holds. A
    lone surrogate, which JSON text can carry and UTF-8 cannot encode, is
    hashed as it stands, so that no held text fails a lookup."""
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


class _HeldTexts(dict):
    """The table of held document texts, each with its _Shared entry, and
    their index by text_digest. Texts are hashed when a lookup by digest
    first needs them, not as they enter, so that creates that send only
    texts hash none. Used under the registry lock."""

    def __init__(self) -> None:
        super().__init__()
        self._digests: dict[str, _Shared] = {}
        self._unhashed: dict[str, _Shared] = {}

    def __setitem__(self, text: str, entry: _Shared) -> None:
        super().__setitem__(text, entry)
        self._unhashed[text] = entry

    def __delitem__(self, text: str) -> None:
        entry = self.pop(text)
        if entry.digest:
            del self._digests[entry.digest]
        else:
            del self._unhashed[text]

    def by_digest(self, digest: str) -> Optional[_Shared]:
        """The entry of the held text whose text_digest this is, if any."""
        if digest not in self._digests:
            for text, entry in self._unhashed.items():
                entry.digest = text_digest(text)
                self._digests[entry.digest] = entry
            self._unhashed.clear()
        return self._digests.get(digest)


def _rehold(
    table: dict[Any, _Shared], old: dict[str, Any], new: dict[str, Any], values: dict[str, Any]
) -> None:
    """Move the holds in table from `old` to `new`, each a map from a name
    (a serial or a subject) to a key, None holding nothing. A key that new
    holds under a name where old held another gains a holder, and is
    entered with values[name] when no twin holds it; values[name] and
    new[name] then take the entry's objects, so twins share one per key.
    Only then does each key that old held under a name where new holds
    another lose a holder, and an entry is dropped with its last."""
    for name, key in new.items():
        if key is None or old.get(name) == key:
            continue
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Shared(key, values[name])
        values[name], new[name] = entry.value, entry.key
        entry.holders += 1
    for name, key in old.items():
        if key is not None and new.get(name) != key:
            entry = table[key]
            entry.holders -= 1
            if not entry.holders:
                del table[key]


def _subject_documents(
    boms: dict[str, Bom], texts: dict[str, str], subjects: Optional[set[str]] = None
) -> dict[str, tuple[list[Bom], Optional[tuple[str, ...]]]]:
    """Each subject's documents (of `subjects`, or all) in serial order, with
    its thing key: their texts, or None when one of them has no text."""
    serials: dict[str, list[str]] = {}
    for serial, bom in boms.items():
        subject = bom.metadata.subject_name
        if subjects is None or subject in subjects:
            serials.setdefault(subject, []).append(serial)
    groups = {}
    for subject, names in serials.items():
        names.sort()
        key = tuple(texts[n] for n in names) if all(n in texts for n in names) else None
        groups[subject] = ([boms[n] for n in names], key)
    return groups


def _scope_names(values: Iterable[Any]) -> tuple[str, ...]:
    names = []
    for value in values:
        Scope(str(value))  # raises ValueError on unknown scope names
        names.append(str(value))
    return tuple(names)


class SdtManager:
    def __init__(self, runtimes: Sequence[InProcessRuntime]):
        if len(runtimes) != 1:
            raise ValueError("exactly one runtime is required")
        (self._runtime,) = runtimes
        self.tracer = TraceRecorder()
        self._adapter = DataAdapter(self._runtime)
        self._records: dict[str, _SdtRecord] = {}
        self._tombstones: deque[str] = deque()  # destroyed ids, oldest first
        self._shared = _HeldTexts()  # document text -> its parse and holders
        # a subject's document texts -> its thing text and holders
        self._shared_things: dict[tuple[str, ...], _Shared] = {}
        # guards _records, _tombstones and the tables; taken after a
        # record's lock, never before it
        self._registry_lock = threading.RLock()

    # -- registry -------------------------------------------------------------

    def allocate_id(self) -> str:
        """32 lowercase hex chars from a CSPRNG; registry collisions retried."""
        while True:
            sdt_id = secrets.token_hex(16)
            with self._registry_lock:
                if sdt_id not in self._records:
                    return sdt_id

    def _record(self, sdt_id: str) -> _SdtRecord:
        with self._registry_lock:
            record = self._records.get(sdt_id)
        if record is None:
            raise HttpError(404, "not_found", f"no such sdt: {sdt_id}")
        return record

    def _touch(self, descriptor: SdtDescriptor) -> None:
        descriptor.updated_at = max(descriptor.updated_at, time.time())

    def get_descriptor(self, sdt_id: str) -> dict[str, Any]:
        return self._record(sdt_id).descriptor.to_dict()

    def list_descriptors(self) -> list[dict[str, Any]]:
        with self._registry_lock:
            descriptors = [r.descriptor for r in self._records.values()]
        ordered = sorted(descriptors, key=lambda d: (d.created_at, d.sdt_id))
        return [d.to_dict() for d in ordered]

    # -- create ---------------------------------------------------------------

    def _parse_boms(self, texts: Any, named: bool = False) -> list[tuple[str, Bom]]:
        """Each text with its Bom: the shared one (and its text) when a live
        twin holds the text, else a fresh parse that nothing holds yet.
        Where the documents may be `named`, an item {"sha256": <digest>}
        stands for the held text of that text_digest; digests that no live
        twin holds are refused together, before any text is parsed."""
        if not isinstance(texts, list) or not texts:
            raise HttpError(400, "bad_request", "boms must be a non-empty list")
        digests = {}
        for index, item in enumerate(texts if named else ()):
            if not isinstance(item, str):
                digest = item.get("sha256") if isinstance(item, dict) and len(item) == 1 else None
                if not isinstance(digest, str) or not _DIGEST.fullmatch(digest):
                    raise HttpError(400, "bad_request", f"boms[{index}] must be a document"
                                    ' text or {"sha256": <64 lowercase hex digits>}')
                digests[index] = digest
        with self._registry_lock:
            shared = [
                self._shared.by_digest(digests[i]) if i in digests
                else self._shared.get(t) if isinstance(t, str) else None
                for i, t in enumerate(texts)
            ]
        missing = list(dict.fromkeys(d for i, d in digests.items() if shared[i] is None))
        if missing:
            raise HttpError(409, "unknown_digest", f"no live twin holds {len(missing)} of the"
                            " documents named by digest; send their texts", missing)
        parsed: list[tuple[str, Bom]] = []
        serials: set[str] = set()
        for index, (text, entry) in enumerate(zip(texts, shared)):
            if entry is not None:
                text, bom = entry.key, entry.value
            elif not isinstance(text, str):
                raise HttpError(400, "invalid_bom", f"boms[{index}] must be a string document")
            else:
                try:
                    bom = parse_bom(text, strict=False)
                except (BomParseError, BomSchemaError, BomValidationError) as err:
                    raise HttpError(400, "invalid_bom", f"boms[{index}]: {err}") from err
            if bom.serial_number in serials:
                raise HttpError(
                    400, "invalid_bom", f"duplicate serial number {bom.serial_number}"
                )
            serials.add(bom.serial_number)
            parsed.append((text, bom))
        return parsed

    def _commit(
        self,
        record: _SdtRecord,
        boms: dict[str, Bom],
        texts: dict[str, str],
        things: dict[str, Optional[tuple[str, ...]]],
        states: dict[str, JsonText],
    ) -> None:
        """Make boms the record's documents, `texts` naming the serials whose
        Bom is a text's parse, and `things` its things' keys, `states`
        holding the thing text of each subject it pushed. Called under the
        record's lock: the new holds are taken before the replaced ones are
        let go."""
        with self._registry_lock:
            _rehold(self._shared, record.texts, texts, boms)
            _rehold(self._shared_things, record.things, things, states)
        record.boms, record.texts, record.things = boms, texts, things

    def _project(self, boms: Iterable[Bom]) -> dict[str, JsonText]:
        try:
            return self._adapter.process(boms)
        except RepresentationError as err:
            raise HttpError(400, "invalid_bom", str(err)) from err

    def _parse_tokens(self, options: Any) -> dict[str, tuple[str, ...]]:
        if options is None:
            return {}
        if not isinstance(options, dict):
            raise HttpError(400, "bad_request", "options must be an object")
        tokens = options.get("tokens") or {}
        if not isinstance(tokens, dict):
            raise HttpError(400, "bad_request", "options.tokens must be an object")
        provisioned: dict[str, tuple[str, ...]] = {}
        for token, scopes in tokens.items():
            if not token:
                raise HttpError(400, "bad_request", "token names must be non-empty")
            if not isinstance(scopes, list):
                raise HttpError(400, "bad_request", "token scopes must be a list")
            try:
                provisioned[str(token)] = _scope_names(scopes)
            except ValueError as err:
                raise HttpError(400, "bad_request", f"unknown scope: {err}") from err
        return provisioned

    def handle_create(self, payload: Any, span: Optional[TraceSpan] = None) -> dict[str, Any]:
        span = span or self.tracer.span("create")
        span.record("core")
        if not isinstance(payload, dict):
            raise HttpError(400, "bad_request", "body must be a JSON object")
        profile_id = payload.get("profileId")
        if not isinstance(profile_id, str) or not profile_id:
            raise HttpError(400, "bad_request", "profileId must be a non-empty string")

        # All validation happens before anything deploys.
        parsed = self._parse_boms(payload.get("boms"), named=True)
        boms = {bom.serial_number: bom for _, bom in parsed}
        texts = {bom.serial_number: text for text, bom in parsed}
        span.record("parse")
        # A subject whose documents a live twin holds reuses its thing text;
        # the rest are projected, which checks them for duplicates (a held
        # subject was checked when it was first projected).
        groups = _subject_documents(boms, texts)
        things = {subject: key for subject, (_, key) in groups.items()}
        with self._registry_lock:
            states = {
                subject: entry.value for subject, key in things.items()
                if (entry := self._shared_things.get(key)) is not None
            }
        states.update(self._project(
            bom for subject, (documents, _) in groups.items() if subject not in states
            for bom in documents
        ))
        span.record("project")
        user_tokens = self._parse_tokens(payload.get("options"))

        write_token = secrets.token_hex(16)
        tokens = dict(user_tokens)
        tokens[write_token] = ("READ", "WRITE_REPRESENTATION", "ADMIN")

        with self._registry_lock:
            sdt_id = self.allocate_id()
            now = time.time()
            record = _SdtRecord(
                descriptor=SdtDescriptor(
                    sdt_id=sdt_id,
                    state=SdtState.DEPLOYING,
                    profile_id=profile_id,
                    created_at=now,
                    updated_at=now,
                ),
                write_token=write_token,
            )
            self._records[sdt_id] = record

        with record.lock:
            descriptor = record.descriptor
            span.record("lcm")
            try:
                endpoint = self._runtime.deploy_instance(sdt_id, tokens)
            except Exception as err:
                descriptor.state = SdtState.ERROR
                descriptor.error = "deploy"
                self._touch(descriptor)
                raise HttpError(502, "deploy", f"runtime deploy failed: {err}") from err
            span.record("deploy")
            descriptor.endpoint = endpoint

            span.record("data_adapter")
            try:
                self._adapter.push(endpoint, write_token, 1, states)
            except (TransportUnavailable, RequestRejected) as err:
                self._runtime.destroy_instance(endpoint)  # no orphans
                descriptor.endpoint = None
                descriptor.state = SdtState.ERROR
                descriptor.error = "representation"
                self._touch(descriptor)
                raise HttpError(
                    502, "representation", f"representation build failed: {err}"
                ) from err
            span.record("controller")

            self._commit(record, boms, texts, things, states)
            descriptor.representation_version = 1
            descriptor.state = SdtState.READY
            self._touch(descriptor)
            span.record("confirm")
            return descriptor.to_dict()

    # -- update ---------------------------------------------------------------

    def _updated_boms(
        self, record: _SdtRecord, payload: dict[str, Any]
    ) -> tuple[dict[str, Bom], dict[str, str], set[str]]:
        """The document set after the payload, the texts it holds, and the
        serials it touched."""
        new_boms, new_texts = dict(record.boms), dict(record.texts)
        touched: set[str] = set()
        if payload.get("boms"):
            for index, (text, bom) in enumerate(self._parse_boms(payload["boms"])):
                stored = record.boms.get(bom.serial_number)
                # Within a twin, one urn:cdx:<serial>/<version> names one content.
                if stored is not None and bom.version <= stored.version and bom != stored:
                    raise HttpError(
                        400,
                        "invalid_bom",
                        f"boms[{index}]: version {bom.version} of {bom.serial_number} differs"
                        f" from the stored version {stored.version}; a revision needs a"
                        " higher version",
                    )
                new_boms[bom.serial_number] = bom
                new_texts[bom.serial_number] = text
                touched.add(bom.serial_number)
        deltas = payload.get("deltas") or []
        if not isinstance(deltas, list):
            raise HttpError(400, "bad_request", "deltas must be a list")
        for index, delta_doc in enumerate(deltas):
            if not isinstance(delta_doc, dict):
                raise HttpError(400, "invalid_delta", f"deltas[{index}] must be an object")
            try:
                delta = delta_from_dict(delta_doc)
            except BomSchemaError as err:
                raise HttpError(400, "invalid_delta", f"deltas[{index}]: {err}") from err
            # Within a twin, one urn:cdx:<serial>/<version> names one content.
            if delta.new_version <= delta.base_version:
                raise HttpError(
                    400,
                    "invalid_delta",
                    f"deltas[{index}]: newVersion {delta.new_version} is not above"
                    f" baseVersion {delta.base_version}",
                )
            base = new_boms.get(delta.base_serial)
            if base is None:
                raise HttpError(
                    400,
                    "unknown_document",
                    f"deltas[{index}] targets unknown serial {delta.base_serial}",
                )
            try:
                new_boms[delta.base_serial] = apply_delta(base, delta)
            except DeltaMismatch as err:
                raise HttpError(409, "delta_mismatch", f"deltas[{index}]: {err}") from err
            except BomValidationError as err:
                raise HttpError(400, "invalid_delta", f"deltas[{index}]: {err}") from err
            new_texts.pop(delta.base_serial, None)
            touched.add(delta.base_serial)
        return new_boms, new_texts, touched

    def handle_update(
        self, sdt_id: str, payload: Any, span: Optional[TraceSpan] = None
    ) -> dict[str, Any]:
        span = span or self.tracer.span("update")
        span.record("core")
        record = self._record(sdt_id)
        if not isinstance(payload, dict):
            raise HttpError(400, "bad_request", "body must be a JSON object")

        with record.lock:
            descriptor = record.descriptor
            if descriptor.state == SdtState.DESTROYED:
                raise HttpError(409, "destroyed", f"sdt {sdt_id} is destroyed")
            if descriptor.state != SdtState.READY:
                raise HttpError(
                    409, "state", f"sdt {sdt_id} is not updatable in state {descriptor.state.value}"
                )
            expected = payload.get("expectedVersion")
            if not isinstance(expected, int) or isinstance(expected, bool):
                raise HttpError(400, "bad_request", "expectedVersion must be an integer")
            if expected != descriptor.representation_version:
                raise HttpError(
                    409,
                    "version_conflict",
                    f"expected version {descriptor.representation_version}, got {expected}",
                )

            # Validation failures leave the descriptor READY and unchanged.
            new_boms, new_texts, touched = self._updated_boms(record, payload)
            span.record("parse")
            # An update revises the twin's things; it makes none.
            joined = {new_boms[serial].metadata.subject_name for serial in touched}
            unknown = sorted(joined.difference(record.things))
            if unknown:
                raise HttpError(
                    400, "unknown_thing", f"update references unknown thing {unknown[0]!r}"
                )
            # Re-project only the subjects of touched documents, old and new.
            # The set was unique before, so any duplicate (subject, kind)
            # pairs a touched document with another of the same subject:
            # the projection's uniqueness check still covers the whole set.
            subjects = joined.union(
                record.boms[serial].metadata.subject_name for serial in touched
                if serial in record.boms
            )
            groups = _subject_documents(new_boms, new_texts, subjects)
            # An instance drops no thing, so a thing keeps a document.
            emptied = sorted(subjects.difference(groups))
            if emptied:
                raise HttpError(
                    400, "invalid_bom", f"update leaves thing {emptied[0]!r} with no document"
                )
            states = self._project(bom for documents, _ in groups.values() for bom in documents)
            new_things = dict(record.things)
            for subject in subjects:
                new_things[subject] = groups[subject][1]
            span.record("project")

            descriptor.state = SdtState.UPDATING
            self._touch(descriptor)
            span.record("data_adapter")
            try:
                self._adapter.push(
                    descriptor.endpoint or "",
                    record.write_token,
                    descriptor.representation_version + 1,
                    states,
                )
            except TransportUnavailable as err:
                descriptor.state = SdtState.ERROR
                descriptor.error = "unreachable"
                self._touch(descriptor)
                raise HttpError(502, "unreachable", f"instance unreachable: {err}") from err
            except RequestRejected as err:
                # The instance refused atomically; nothing changed on it.
                descriptor.state = SdtState.READY
                self._touch(descriptor)
                raise HttpError(409, "update_rejected", str(err)) from err
            span.record("controller")

            self._commit(record, new_boms, new_texts, new_things, states)
            descriptor.representation_version += 1
            descriptor.state = SdtState.READY
            self._touch(descriptor)
            return {
                "sdtId": sdt_id,
                "representationVersion": descriptor.representation_version,
            }

    # -- destroy / inspect ------------------------------------------------------

    def handle_destroy(self, sdt_id: str) -> None:
        record = self._record(sdt_id)
        with record.lock:
            descriptor = record.descriptor
            if descriptor.state == SdtState.DESTROYED:
                return  # idempotent
            if descriptor.endpoint:
                self._runtime.destroy_instance(descriptor.endpoint)
            descriptor.state = SdtState.DESTROYED
            # The descriptor stays as a tombstone; the parsed documents are
            # released.
            self._commit(record, {}, {}, {}, {})
            self._touch(descriptor)
        with self._registry_lock:
            self._tombstones.append(sdt_id)
            while len(self._tombstones) > TOMBSTONES:
                del self._records[self._tombstones.popleft()]

    def footprint(self, sdt_id: str) -> int:
        record = self._record(sdt_id)
        with record.lock:
            descriptor = record.descriptor
            if descriptor.state == SdtState.DESTROYED:
                raise HttpError(409, "destroyed", f"sdt {sdt_id} is destroyed")
            if not descriptor.endpoint:
                raise HttpError(409, "state", f"sdt {sdt_id} has no live instance")
            endpoint, token = descriptor.endpoint, record.write_token
        try:
            doc = self._adapter.export(endpoint, token)
        except TransportUnavailable as err:
            raise HttpError(502, "unreachable", f"instance unreachable: {err}") from err
        except RequestRejected as err:
            raise HttpError(502, "export_failed", str(err)) from err
        return len(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8"))
