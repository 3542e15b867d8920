"""Audit orchestration: collect evidence, forge documents, drive the twin.

Each run's documents are one document log in the store, keyed by run id
(see store.py): its texts are the documents' serialize_bom texts, verbatim,
and its index has one entry per document, in run.bom_serials order, whose
meta is

    <serial> <version> <summary>[ <input key>]

the summary being the document's summarize_bom as one compact JSON text.
A host document's meta ends in the input key of its host; the profile
manifest's, and one written before input keys were stored, end at the
summary. _meta writes this format and _Meta reads it; no other code knows
it. A document travels as the entry its run's log stores, a StoredDocument,
from when it is forged or read.

A host's input key is one sha256 over everything its documents' bytes
depend on: every file its snapshot holds (keys and bytes, length-framed,
whatever the snapshot's path or mtimes), the profile's categories, the
content digest of the advisory feed and FORGE_REVISION. Audits and rescans
take each host through one step, _reuse_or_scan: open its snapshot, compute
its key, and keep its stored documents when both carry that key; only the
other hosts are scanned and forged.

- A rescan keeps a host's documents in its own run's index at whatever
  version they stand. The texts of the other hosts' documents are read and
  compared. An accepted update appends the new texts and commits them with
  the new keys in one new index; a rescan whose keys changed but whose
  texts did not commits only the keys.
- An audit keeps a host's documents from the last audit of its profile,
  found through a pointer record (LATEST_RUNS, by profile id) that each
  audit writes once its documents are stored. Only entries at version 1
  are kept, since a fresh forge gives version 1: they are copied verbatim
  into the new run's log. When the source log cannot be read (a
  concurrent rescan rewrote or cut it), the host is scanned. The new run's
  documents, manifest, errors and twin are those of an audit on a fresh
  store. The create names each copied document by its digest (a HeldText),
  as a live twin most likely holds its text, and sends the texts of the
  documents it forged; the manager answers a digest that no live twin holds
  by asking for its text.

An entry written without a key (before keys were stored) never matches, so
its host is scanned. Reports read only the index.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, TypeVar, Union

from ..bom import Bom, BomLink, delta_to_dict, diff_boms, parse_bom, serialize_bom
from ..collect import EvidenceBundle, EvidenceCategory, HostSnapshot, scan_host
from ..forge import (
    build_cbom,
    build_graph,
    build_sbom,
    document_serial,
    enrich_with_vulnerabilities,
    link_to_profile,
    profile_manifest,
    summarize_bom,
)
from ..jsonhttp import RequestRejected, TransportUnavailable
from ..manager import HeldText, ManagerClient
from ..vulnstore import VulnerabilityStore
from .profiles import AuditProfile, ProfileError, create_profile, get_profile, selected_hosts
from .runs import RUNS, TRANSITIONS, AuditRun, InvalidTransition, RunState
from .store import DocumentLog, FileDocumentStore
from .topology import HostRecord, TopologyGraph, ingest_inventory, topology_from_store

__all__ = [
    "AuditService",
    "TwinNotFound",
    "UnknownRun",
    "collect_evidence",
    "forge_documents",
    "forge_entries",
]

# One document log per run id (see the module docstring).
RUN_DOCUMENTS = "run_documents"
# By profile id, {"run_id": ...}: the last audit of the profile whose
# documents were stored, where the next audit finds the documents it keeps.
LATEST_RUNS = "latest_runs"

# Part of every input key. Raise it with any change to scanning, forging or
# serializing that changes the documents of an unchanged snapshot, so that no
# stored key matches across the change; tests/test_forge_golden.py pins it to
# the golden bytes.
FORGE_REVISION = 2


class UnknownRun(LookupError):
    """A run, or a document of one, that the store does not hold."""


class TwinNotFound(LookupError):
    """The manager a rescan pushed to holds no twin of the run: it is not
    the manager that created the twin. The run stands as it was."""


# One path from snapshots to documents: run_audit, update_audit and
# `twinaudit bench deploy` all go through these functions.


T = TypeVar("T")


def _each_host(
    hosts: list[HostRecord], work: Callable[[HostRecord], T]
) -> tuple[dict[str, T], dict[str, str]]:
    """work over each host in turn; one bad snapshot fails only itself."""
    done: dict[str, T] = {}
    errors: dict[str, str] = {}
    for record in hosts:
        try:
            done[record.host_id] = work(record)
        except Exception as exc:
            errors[record.host_id] = str(exc)
    return done, errors


def _open_snapshot(record: HostRecord) -> HostSnapshot:
    if not record.snapshot_ref:
        raise ValueError("host has no snapshot reference")
    return HostSnapshot.open(record.snapshot_ref)


def collect_evidence(
    hosts: list[HostRecord],
) -> tuple[dict[str, EvidenceBundle], dict[str, str]]:
    """Scan each host in turn; one bad snapshot fails only itself."""
    return _each_host(hosts, lambda record: scan_host(_open_snapshot(record)))


class StoredDocument(NamedTuple):
    """A document as its run's log stores it: the serial and version a
    manifest links it by, its index meta and its text."""

    serial_number: str
    version: int
    meta: str
    text: str


def input_key(snapshot: HostSnapshot, categories: tuple[str, ...], feed: str) -> str:
    """The input key of the host documents forged from this snapshot over
    these categories and the advisory feed whose content digest is `feed`
    (see the module docstring)."""
    head = json.dumps([FORGE_REVISION, list(categories), feed]).encode()
    return hashlib.sha256(head + snapshot.digest()).hexdigest()


def _host_serials(hostname: str) -> tuple[str, str]:
    """The serials of the documents forge_host gives for this host."""
    return document_serial("sbom", hostname), document_serial("cbom", hostname)


def forge_host(
    bundle: EvidenceBundle,
    categories: tuple[str, ...],
    vulnerabilities: VulnerabilityStore,
) -> list[Bom]:
    """The host's SBOM and CBOM over the profile's evidence categories."""
    records = bundle.records
    if categories:
        wanted = {EvidenceCategory(c) for c in categories}
        records = tuple(r for r in records if r.category in wanted)
    sbom = build_sbom(bundle.host, records)
    graph = build_graph(records)
    cbom = build_cbom(bundle.host, graph, records)
    return [
        enrich_with_vulnerabilities(sbom, vulnerabilities),
        enrich_with_vulnerabilities(cbom, vulnerabilities),
    ]


def _meta(bom: Bom, key: str = "") -> str:
    """The document's meta in its run's index, ending in `key` if one is
    given: the one writer of the format (see the module docstring)."""
    summary = json.dumps(summarize_bom(bom), sort_keys=True, separators=(",", ":"))
    return f"{bom.serial_number} {bom.version} {summary}" + (f" {key}" if key else "")


def _stored(bom: Bom, key: str = "") -> StoredDocument:
    """A forged document as its run's log stores it."""
    return StoredDocument(bom.serial_number, bom.version, _meta(bom, key), serialize_bom(bom))


def forge_entries(
    bundle: EvidenceBundle,
    categories: tuple[str, ...],
    vulnerabilities: VulnerabilityStore,
    key: str = "",
) -> tuple[StoredDocument, ...]:
    """forge_host's documents as their run's log stores them, each
    serialized once, under the host's input key."""
    return tuple(_stored(bom, key) for bom in forge_host(bundle, categories, vulnerabilities))


def forge_documents(
    hosts: Mapping[str, Sequence[StoredDocument]], profile_id: str
) -> list[StoredDocument]:
    """A run's documents: each host's entries in host-id order, after the
    entry of the profile manifest that links them."""
    manifest, *entries = link_to_profile([d for h in sorted(hosts) for d in hosts[h]], profile_id)
    return [_stored(manifest), *entries]


class _Meta:
    """The one reader of the index meta format (see the module docstring):
    a log entry's meta, cut where its fields end, so that reading its
    serial, version or key neither copies nor decodes its summary."""

    __slots__ = ("raw", "_serial", "_version", "_summary")

    def __init__(self, log: DocumentLog, i: int) -> None:
        self.raw = raw = log.meta(i)
        self._serial = raw.index(b" ")
        self._version = raw.index(b" ", self._serial + 1)
        # The manifest's meta, and one written before keys, has no key.
        self._summary = len(raw) if raw.endswith(b"}") else raw.rindex(b" ")

    serial = property(lambda m: m.raw[: m._serial].decode())
    version = property(lambda m: int(m.raw[m._serial + 1 : m._version]))
    key = property(lambda m: m.raw[m._summary + 1 :].decode())  # "" for no key
    summary = property(lambda m: json.loads(m.raw[m._version + 1 : m._summary]))

    def version_of(self, serial: str) -> int:
        """The version, of an entry that must be the document `serial`."""
        if self.serial != serial:
            raise UnknownRun(f"stored document {serial} is missing")
        return self.version

    def stored(self, text: str) -> StoredDocument:
        """The entry, with its text, to carry into another log verbatim."""
        return StoredDocument(self.serial, self.version, self.raw.decode(), text)


def _unchanged(log: Optional[DocumentLog], positions: Sequence[Optional[int]], key: str) -> bool:
    """Whether the documents at these index positions are all stored with
    this input key, so their stored texts are what a forge would give."""
    return all(i is not None and _Meta(log, i).key == key for i in positions)


class _Host(NamedTuple):
    """What _reuse_or_scan found of one host. Its documents' positions in
    the log are None where the log has no document of that serial; it has
    evidence unless its stored documents stand, and their entries if it
    was asked to read them."""

    hostname: str
    key: str
    positions: tuple[Optional[int], ...]
    bundle: Optional[EvidenceBundle]
    entries: tuple[StoredDocument, ...] = ()


def _reuse_or_scan(
    record: HostRecord,
    categories: tuple[str, ...],
    feed: str,
    log: Optional[DocumentLog],
    position: Mapping[str, int],
    read: Optional[Callable[[Sequence[int]], list[str]]] = None,
) -> _Host:
    """The one per-host step of audits and rescans: open the host's snapshot
    and compute its input key. When `log` holds both of the host's documents
    with that key, at the positions the serial -> index map `position`
    gives, they stand, and `read` (if given) reads their texts into entries.
    Otherwise, or when that read finds the log rewritten or cut short, the
    snapshot is scanned."""
    snapshot = _open_snapshot(record)
    key = input_key(snapshot, categories, feed)
    at = tuple(position.get(s) for s in _host_serials(snapshot.hostname))
    if _unchanged(log, at, key):
        try:
            texts = read(at) if read else ()
        except (FileNotFoundError, ValueError):
            pass  # the log changed under this read: forge the host instead
        else:
            entries = tuple(_Meta(log, i).stored(t) for i, t in zip(at, texts))
            return _Host(snapshot.hostname, key, at, None, entries)
    return _Host(snapshot.hostname, key, at, scan_host(snapshot))


class AuditService:
    """Stateless over a document store: every run survives a restart.

    A run's documents are one document log keyed by its run id, so runs of
    one profile keep their own documents. A rescan reads each rescanned
    host's snapshot, the log's index and the texts of the hosts whose input
    key changed, and commits an accepted update with one atomic index
    replace. An audit reads the index of the profile's last audit and the
    texts of the hosts whose input key did not change. The index carries
    each document's summary, written with its text, so reports parse no
    document and read only the index.
    """

    def __init__(
        self,
        store: FileDocumentStore,
        manager: ManagerClient,
        vulnerabilities: Optional[VulnerabilityStore] = None,
        sdt_options: Optional[dict[str, Any]] = None,
    ) -> None:
        self.store = store
        self.manager = manager
        self.vulnerabilities = vulnerabilities or VulnerabilityStore()
        self.clock = time.time
        # Passed through on twin creation, e.g. consumer access tokens.
        self.sdt_options = dict(sdt_options or {})

    # -- inventory and profiles -------------------------------------------

    def ingest_inventory(self, source: Union[str, dict]) -> TopologyGraph:
        return ingest_inventory(self.store, source)

    def create_profile(self, profile: AuditProfile) -> AuditProfile:
        return create_profile(self.store, profile)

    def _profile(self, profile_id: str) -> AuditProfile:
        profile = get_profile(self.store, profile_id)
        if profile is None:
            raise ProfileError(f"unknown profile {profile_id!r}")
        return profile

    # -- persistence helpers ----------------------------------------------

    def _save_run(self, run: AuditRun) -> None:
        self.store.put(RUNS, run.run_id, run.to_dict())

    def _advance(self, run: AuditRun, state: RunState, error: Optional[str] = None) -> AuditRun:
        """Move the run to state and save it."""
        run.advance(state, self.clock(), error=error)
        self._save_run(run)
        return run

    def load_run(self, run_id: str) -> AuditRun:
        doc = self.store.get(RUNS, run_id)
        if doc is None:
            raise UnknownRun(f"unknown run {run_id}")
        return AuditRun.from_dict(doc)

    def run_boms(self, run: AuditRun) -> list[dict[str, Any]]:
        """The summarize_bom of each of the run's documents, in
        run.bom_serials order, from the run's index alone; no document is
        read or parsed.
        """
        log = self.store.get_log(RUN_DOCUMENTS, run.run_id)
        if log is None:
            return []
        return [_Meta(log, i).summary for i in range(len(log.entries))]

    # -- run lifecycle ------------------------------------------------------

    def _latest_log(self, profile_id: str) -> tuple[Optional[DocumentLog], dict[str, int]]:
        """The document log of the profile's last stored audit, found by one
        get of its pointer record, and the index positions of its documents
        at version 1 by serial: a fresh forge gives version 1, so only those
        can be kept. (None, {}) when there is no such log."""
        latest = self.store.get(LATEST_RUNS, profile_id)
        log = self.store.get_log(RUN_DOCUMENTS, latest["run_id"]) if latest else None
        if log is None:
            return None, {}
        position = {}
        for i in range(len(log.entries)):
            meta = _Meta(log, i)
            if meta.version == 1:
                position[meta.serial] = i
        return log, position

    def run_audit(self, profile_id: str) -> AuditRun:
        """Collect, forge, store the documents and create the twin.

        A host whose documents the profile's last audit stored at version 1
        with the host's current input key keeps them: it is not scanned,
        forged or serialized, and their entries are copied into the new
        log. Every other host is scanned and forged. Either way the run and
        its documents are those of an audit on a fresh store, and so is the
        twin: the create sends the copied documents as HeldTexts, named by
        digest, and the forged ones, the manifest among them, as texts.
        Once the documents are stored, the profile's pointer names this run.

        Whatever raises once the run is COLLECTING ends it FAILED, with an
        error naming the step, before the exception propagates.
        """
        profile = self._profile(profile_id)
        topology = topology_from_store(self.store)
        host_ids = selected_hosts(profile, topology)

        run = AuditRun.new(profile_id, self.clock())
        run.hosts = tuple(host_ids)
        run.feeds = tuple(self.vulnerabilities.feeds)
        self._save_run(run)

        self._advance(run, RunState.COLLECTING)
        step = "collect"
        try:
            feed = self.vulnerabilities.digest()
            source, position = self._latest_log(profile_id)
            read = partial(self.store.read_texts, source)
            found, run.host_errors = _each_host(
                [topology.host(h) for h in host_ids],
                lambda r: _reuse_or_scan(r, profile.categories, feed, source, position, read),
            )
            if not found:
                return self._advance(run, RunState.FAILED, "no_evidence")

            step = "forge"
            entries = forge_documents({
                h: f.entries
                or forge_entries(f.bundle, profile.categories, self.vulnerabilities, f.key)
                for h, f in found.items()
            }, profile_id)
            step = "persist"
            self.store.put_log(RUN_DOCUMENTS, run.run_id, [(d.meta, d.text) for d in entries])
            self.store.put(LATEST_RUNS, profile_id, {"run_id": run.run_id})
            run.bom_serials = tuple(d.serial_number for d in entries)
            self._advance(run, RunState.BOMS_BUILT)

            step = "create"
            self._advance(run, RunState.SDT_REQUESTED)
            copied = {d.serial_number for f in found.values() for d in f.entries}
            try:
                created = self.manager.create(
                    profile_id,
                    [HeldText(d.text) if d.serial_number in copied else d.text for d in entries],
                    options=self.sdt_options or None,
                )
            except TransportUnavailable:
                return self._advance(run, RunState.FAILED, "transport")
            except RequestRejected as exc:
                return self._advance(run, RunState.FAILED, f"create_rejected:{exc.code}")
            run.sdt_id = created["sdtId"]
            run.representation_version = int(created["representationVersion"])
            return self._advance(run, RunState.SDT_READY)
        except Exception as exc:
            if run.state not in (RunState.FAILED, RunState.SDT_READY):
                self._advance(run, RunState.FAILED, f"{step}_failed:{exc}")
            raise

    def update_audit(self, run_id: str, hosts: Optional[Iterable[str]] = None) -> AuditRun:
        """Rescan, diff against the persisted documents, and push deltas.

        By default every host with documents in the run is rescanned. Each
        rescanned host's snapshot is read and its input key computed; a host
        whose key equals the stored key of both its documents is not scanned
        or forged, and its documents are carried over as stored. The other
        hosts are scanned and forged, and only their stored texts are read.
        Only documents whose text changed get a new version, a parse of
        their stored text and a delta. So does the manifest that indexes
        them, except that its stored form is rebuilt from the index's
        versions instead of parsed. New texts and keys are stored only after
        the manager accepts the update, and committed by one index replace,
        so a failed push or a failed write leaves the previous inventory
        intact.

        The run record is saved UPDATING only right before the push, the
        first step that changes the twin. A rescan that finds nothing to
        push commits the keys that changed, if any, and saves the run once,
        still SDT_READY with a new updated_at.
        A host that has no documents in the run or is not in the inventory,
        and a run that may not move to UPDATING, raise before anything
        changes. Whatever raises after that and before the last save ends
        the run FAILED, with an error naming the step, before the exception
        propagates.
        """
        run = self.load_run(run_id)
        profile = self._profile(run.profile_id)
        # Hosts that failed the audit have no documents to diff against.
        documented = [h for h in run.hosts if h not in run.host_errors]
        rescan_ids = sorted(set(hosts) if hosts is not None else set(documented))
        unknown = [h for h in rescan_ids if h not in documented]
        if unknown:
            raise ProfileError(f"hosts without documents in this run: {', '.join(unknown)}")

        topology = topology_from_store(self.store)
        records = [topology.host(h) for h in rescan_ids]
        # Only a run that may move to UPDATING is rescanned.
        if RunState.UPDATING not in TRANSITIONS[run.state]:
            raise InvalidTransition(run.state, RunState.UPDATING)
        step = "load"
        try:
            # The index lists the documents in run.bom_serials order; each
            # entry is parsed, and its serial checked, only where it is read.
            log = self.store.get_log(RUN_DOCUMENTS, run_id)
            stored_count = len(log.entries) if log else 0
            if stored_count < len(run.bom_serials):
                missing = run.bom_serials[stored_count]
                raise UnknownRun(f"{run_id}: stored document {missing} is missing")
            position = {serial: i for i, serial in enumerate(run.bom_serials)}

            step = "collect"
            feed = self.vulnerabilities.digest()
            found, errors = _each_host(
                records, lambda r: _reuse_or_scan(r, profile.categories, feed, log, position)
            )
            if errors:
                run.host_errors = {**run.host_errors, **errors}
                return self._advance(run, RunState.FAILED, "no_evidence")
            # A host's documents follow the manifest, two per host, in
            # host-id order. A host whose hostname changed finds others, or
            # none: its documents' serials name its subject.
            order = {h: k for k, h in enumerate(sorted(documented))}
            renamed = {
                h: 1 + 2 * order[h]
                for h, f in found.items()
                if f.positions != (1 + 2 * order[h], 2 + 2 * order[h])
            }
            if renamed:
                raise ProfileError("; ".join(
                    f"host {h} was audited as {_Meta(log, i).summary['subject']!r} but its snapshot"
                    f" now names it {found[h].hostname!r}"
                    for h, i in renamed.items()
                ) + ": restore the hostname, or audit the profile again")

            # Rebuild each scanned host's documents at their stored version:
            # an unchanged one serializes to its stored text and is not parsed.
            step = "forge"
            scanned = [
                (doc, f.key)
                for f in found.values() if f.bundle is not None
                for doc in forge_host(f.bundle, profile.categories, self.vulnerabilities)
            ]
            at = [position[doc.serial_number] for doc, _ in scanned]
            stored = self.store.read_texts(log, at) if at else []
            revised: list[tuple[Bom, str, str]] = []  # revised document, stored text, key
            rekeyed: dict[int, tuple[str, Optional[str]]] = {}  # new key, same text
            for (doc, key), i, text in zip(scanned, at, stored):
                meta = _Meta(log, i)
                current = replace(doc, version=meta.version_of(doc.serial_number))
                if serialize_bom(current) != text:
                    revised.append((replace(current, version=current.version + 1), text, key))
                elif meta.key != key:
                    rekeyed[i] = (_meta(current, key), None)
            if not revised:
                if rekeyed:
                    step = "persist"
                    self.store.commit_log(log, rekeyed)
                step = "save"
                run.touch(self.clock())
                self._save_run(run)
                return run

            # link_to_profile puts the profile manifest first. The stored
            # manifest is rebuilt from the index's versions, not parsed.
            manifest_serial, *host_serials = run.bom_serials
            links = {
                s: BomLink(target_serial=s, target_version=_Meta(log, position[s]).version_of(s))
                for s in host_serials
            }
            old_manifest = profile_manifest(
                run.profile_id, links.values(), version=_Meta(log, 0).version_of(manifest_serial)
            )
            links.update(
                (b.serial_number, BomLink(target_serial=b.serial_number, target_version=b.version))
                for b, _, _ in revised
            )
            new_manifest = profile_manifest(
                run.profile_id, links.values(), version=old_manifest.version + 1
            )
            deltas = [diff_boms(old_manifest, new_manifest)]
            deltas += [diff_boms(parse_bom(text), bom) for bom, text, _ in revised]

            step = "push"
            self._advance(run, RunState.UPDATING)
            try:
                result = self.manager.update(
                    run.sdt_id or "",
                    expected_version=run.representation_version,
                    deltas=[delta_to_dict(d) for d in deltas],
                )
            except TransportUnavailable:
                return self._advance(run, RunState.FAILED, "transport")
            except RequestRejected as exc:
                if exc.code != "not_found":
                    return self._advance(run, RunState.FAILED, f"update_rejected:{exc.code}")
                # Another manager than the twin's: nothing changed anywhere.
                self._advance(run, RunState.SDT_READY)
                raise TwinNotFound(
                    f"the manager holds no twin {run.sdt_id} of run {run.run_id}:"
                    " rescan against the manager that created it"
                ) from exc

            step = "persist"
            self.store.commit_log(log, {
                **rekeyed,
                position[manifest_serial]: (_meta(new_manifest), serialize_bom(new_manifest)),
                **{
                    position[b.serial_number]: (_meta(b, key), serialize_bom(b))
                    for b, _, key in revised
                },
            })
            run.representation_version = int(result["representationVersion"])
            step = "save"
            return self._advance(run, RunState.SDT_READY)
        except (ProfileError, TwinNotFound):
            raise  # refused with the run as it stood
        except Exception as exc:
            if step != "save" and run.state is not RunState.FAILED:
                self._advance(run, RunState.FAILED, f"{step}_failed:{exc}")
            raise
