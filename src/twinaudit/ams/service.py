"""Audit orchestration: collect evidence, forge documents, drive the twin.

Each run's documents are one document log in the store, keyed by run id
(see store.py): its texts are the documents' serialize_bom texts, verbatim,
and its index has one entry per document, in run.bom_serials order, whose
meta is `<serial> <version> <summary>`, the summary being one compact JSON
text. A rescan reads the index, parses the entries it needs, and reads the
texts of the hosts it rescans; an accepted update appends the new texts and
commits one new index. Reports read only the index.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import Any, Iterable, Optional, Union

from ..bom import Bom, BomLink, delta_to_dict, diff_boms, parse_bom, serialize_bom
from ..collect import EvidenceBundle, EvidenceCategory, HostSnapshot, scan_host
from ..forge import (
    build_cbom,
    build_graph,
    build_sbom,
    enrich_with_vulnerabilities,
    link_to_profile,
    profile_manifest,
    summarize_bom,
)
from ..jsonhttp import RequestRejected, TransportUnavailable
from ..manager import ManagerClient
from ..vulnstore import VulnerabilityStore
from .profiles import AuditProfile, ProfileError, create_profile, get_profile, selected_hosts
from .runs import RUNS, TRANSITIONS, AuditRun, InvalidTransition, RunState
from .store import DocumentLog, FileDocumentStore
from .topology import HostRecord, TopologyGraph, ingest_inventory, topology_from_store

__all__ = [
    "AuditService",
    "UnknownRun",
    "collect_evidence",
    "forge_documents",
]

# One document log per run id (see the module docstring).
RUN_DOCUMENTS = "run_documents"


class UnknownRun(LookupError):
    """A run, or a document of one, that the store does not hold."""


# One path from snapshots to documents: run_audit, update_audit and
# `twinaudit bench deploy` all go through these functions.


def collect_evidence(
    hosts: list[HostRecord],
) -> tuple[dict[str, EvidenceBundle], dict[str, str]]:
    """Scan each host in turn; one bad snapshot fails only itself."""
    bundles: dict[str, EvidenceBundle] = {}
    errors: dict[str, str] = {}
    for record in hosts:
        try:
            if not record.snapshot_ref:
                raise ValueError("host has no snapshot reference")
            bundles[record.host_id] = scan_host(HostSnapshot.open(record.snapshot_ref))
        except Exception as exc:
            errors[record.host_id] = str(exc)
    return bundles, errors


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


def forge_documents(
    bundles: dict[str, EvidenceBundle],
    profile: AuditProfile,
    vulnerabilities: VulnerabilityStore,
) -> tuple[list[Bom], list[str]]:
    """Forge each host in host-id order, link the set to the profile, and
    serialize each document once: the documents and their texts."""
    host_docs: list[Bom] = []
    for host_id in sorted(bundles):
        host_docs.extend(forge_host(bundles[host_id], profile.categories, vulnerabilities))
    linked = link_to_profile(host_docs, profile.profile_id)
    return linked, [serialize_bom(b) for b in linked]


def _meta(bom: Bom) -> str:
    """A document's meta in its run's index: serial, version, and its
    summarize_bom as one compact JSON text."""
    summary = json.dumps(summarize_bom(bom), sort_keys=True, separators=(",", ":"))
    return f"{bom.serial_number} {bom.version} {summary}"


def _stored_version(log: DocumentLog, i: int, serial: str) -> int:
    """The version the run's index gives its i-th document, which must be
    the document `serial`."""
    stored, version, _ = log.meta(i).split(b" ", 2)
    if stored.decode() != serial:
        raise UnknownRun(f"stored document {serial} is missing")
    return int(version)


class AuditService:
    """Stateless over a document store: every run survives a restart.

    A run's documents are one document log keyed by its run id, so runs of
    one profile keep their own documents. A rescan reads only the log's
    index and the texts of the hosts it rescans, and commits an accepted
    update with one atomic index replace. The index carries each document's
    summary, written with its text, so reports parse no document and read
    only the index.
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
        return [json.loads(log.meta(i).split(b" ", 2)[2]) for i in range(len(log.entries))]

    # -- run lifecycle ------------------------------------------------------

    def run_audit(self, profile_id: str) -> AuditRun:
        """Collect, forge, store the documents and create the twin.

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
            bundles, run.host_errors = collect_evidence([topology.host(h) for h in host_ids])
            if not bundles:
                return self._advance(run, RunState.FAILED, "no_evidence")

            step = "forge"
            linked, texts = forge_documents(bundles, profile, self.vulnerabilities)
            step = "persist"
            self.store.put_log(
                RUN_DOCUMENTS, run.run_id, [(_meta(b), t) for b, t in zip(linked, texts)]
            )
            run.bom_serials = tuple(b.serial_number for b in linked)
            self._advance(run, RunState.BOMS_BUILT)

            step = "create"
            self._advance(run, RunState.SDT_REQUESTED)
            try:
                created = self.manager.create(
                    profile_id,
                    texts,
                    options=self.sdt_options or None,
                )
            except TransportUnavailable:
                return self._advance(run, RunState.FAILED, "transport")
            except RequestRejected as exc:
                return self._advance(run, RunState.FAILED, f"update_rejected:{exc.code}")
            run.sdt_id = created["sdtId"]
            run.representation_version = int(created["representationVersion"])
            return self._advance(run, RunState.SDT_READY)
        except Exception as exc:
            if run.state not in (RunState.FAILED, RunState.SDT_READY):
                self._advance(run, RunState.FAILED, f"{step}_failed:{exc}")
            raise

    def update_audit(self, run_id: str, hosts: Optional[Iterable[str]] = None) -> AuditRun:
        """Rescan, diff against the persisted documents, and push deltas.

        By default every host with documents in the run is rescanned. The
        run's index and the rescanned hosts' stored texts are read; nothing
        else is. Only documents whose text changed get a new version, a
        parse of their stored text and a delta. So does the manifest that
        indexes them, except that its stored form is rebuilt from the
        index's versions instead of parsed. The others are carried over as
        stored. New texts are stored only after the manager accepts the
        update, and committed by one index replace, so a failed push or a
        failed write leaves the previous inventory intact.

        The run record is saved UPDATING only right before the push, the
        first step that changes the twin. A rescan that finds nothing to
        push saves the run once, still SDT_READY with a new updated_at.
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
            bundles, errors = collect_evidence(records)
            if errors:
                run.host_errors = {**run.host_errors, **errors}
                return self._advance(run, RunState.FAILED, "no_evidence")

            # Rebuild each rescanned document at its stored version: an
            # unchanged one serializes to its stored text and is not parsed.
            step = "forge"
            docs = [
                doc
                for host_id in rescan_ids
                for doc in forge_host(bundles[host_id], profile.categories, self.vulnerabilities)
            ]
            stored = self.store.read_texts(log, [position[d.serial_number] for d in docs])
            revised: list[tuple[Bom, str]] = []
            for doc, text in zip(docs, stored):
                version = _stored_version(log, position[doc.serial_number], doc.serial_number)
                if serialize_bom(replace(doc, version=version)) != text:
                    revised.append((replace(doc, version=version + 1), text))
            if not revised:
                step = "save"
                run.touch(self.clock())
                self._save_run(run)
                return run

            # link_to_profile puts the profile manifest first. The stored
            # manifest is rebuilt from the index's versions, not parsed.
            manifest_serial, *host_serials = run.bom_serials
            links = {
                s: BomLink(target_serial=s, target_version=_stored_version(log, position[s], s))
                for s in host_serials
            }
            old_manifest = profile_manifest(
                run.profile_id, links.values(), version=_stored_version(log, 0, manifest_serial)
            )
            links.update(
                (b.serial_number, BomLink(target_serial=b.serial_number, target_version=b.version))
                for b, _ in revised
            )
            new_manifest = profile_manifest(
                run.profile_id, links.values(), version=old_manifest.version + 1
            )
            deltas = [diff_boms(old_manifest, new_manifest)]
            deltas += [diff_boms(parse_bom(text), bom) for bom, text in revised]

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
                return self._advance(run, RunState.FAILED, f"update_rejected:{exc.code}")

            step = "persist"
            self.store.commit_log(log, {
                position[bom.serial_number]: (_meta(bom), serialize_bom(bom))
                for bom in (new_manifest, *(b for b, _ in revised))
            })
            run.representation_version = int(result["representationVersion"])
            step = "save"
            return self._advance(run, RunState.SDT_READY)
        except Exception as exc:
            if step != "save" and run.state is not RunState.FAILED:
                self._advance(run, RunState.FAILED, f"{step}_failed:{exc}")
            raise
