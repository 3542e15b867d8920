"""Evidence-to-document builders: SBOM, CBOM, VEX enrichment, profile links.

Document serial numbers derive from (kind, host) so repeated builds of the
same host yield the same document identity; revision history then lives in
the version counter rather than in ever-changing serials.
"""

from __future__ import annotations

import uuid
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Iterable, Protocol, TypeVar, Union

from ..bom import (
    Bom,
    BomKind,
    BomLink,
    BomMetadata,
    BomValidationError,
    Component,
    ComponentType,
    CryptoAssetKind,
    CryptoProperties,
    Dependency,
    SubjectKind,
    Violation,
    VulnerabilityEntry,
    validate_bom,
)
from ..collect.records import EvidenceCategory, EvidenceRecord, by_sort_key
from ..collect.tokens import token_for_key
from ..vulnstore import VulnerabilityStore
from .hierarchy import ALGORITHM_PRIMITIVES, CryptoHierarchyGraph

_SERIAL_NAMESPACE = uuid.uuid5(uuid.NAMESPACE_URL, "https://twinaudit.invalid/bom")


def document_serial(kind: str, subject: str) -> str:
    return f"urn:uuid:{uuid.uuid5(_SERIAL_NAMESPACE, f'{kind}:{subject}')}"


def _component_ref(record: EvidenceRecord) -> str:
    purl = record.attribute("purl")
    if purl:
        return purl
    return f"{record.name}@{record.version}" if record.version else record.name


def build_sbom(host_id: str, records: Iterable[EvidenceRecord]) -> Bom:
    """Software inventory document for one host.

    One component per distinct (name, version); per-manifest project records
    become applications carrying dependency edges to that manifest's entries.
    """
    records = [
        r
        for r in records
        if r.category == EvidenceCategory.SOFTWARE_COMPONENT and r.host == host_id
    ]

    by_identity: dict[tuple[str, str], Component] = {}
    manifests: dict[str, dict[str, list[str]]] = {}
    for record in records:
        identity = (record.name, record.version)
        ref = _component_ref(record)
        role = record.attribute("role") or "dependency"
        if identity not in by_identity or role == "project":
            by_identity[identity] = Component(
                bom_ref=ref,
                name=record.name,
                component_type=(
                    ComponentType.APPLICATION if role == "project" else ComponentType.LIBRARY
                ),
                version=record.version,
                package_url=record.attribute("purl"),
            )
        group = manifests.setdefault(
            record.attribute("manifest") or record.source_path, {"project": [], "deps": []}
        )
        group["project" if role == "project" else "deps"].append(ref)

    dependencies = []
    for group in manifests.values():
        for project_ref in sorted(set(group["project"])):
            targets = sorted({d for d in group["deps"] if d != project_ref})
            if targets:
                dependencies.append(Dependency(ref=project_ref, depends_on=tuple(targets)))

    return Bom(
        serial_number=document_serial("sbom", host_id),
        version=1,
        kind=BomKind.SBOM,
        metadata=BomMetadata(subject_kind=SubjectKind.HOST, subject_name=host_id),
        components=tuple(by_identity[k] for k in sorted(by_identity)),
        dependencies=tuple(dependencies),
    )


def _algorithm_ref(token: str) -> str:
    return f"alg:{token}"


def _cbom_algorithm_components(
    graph: CryptoHierarchyGraph, host_id: str
) -> tuple[list[Component], dict[str, str]]:
    components = []
    refs: dict[str, str] = {}
    for node in graph.parameterizations_for_host(host_id, ALGORITHM_PRIMITIVES):
        ref = _algorithm_ref(node.id.name)
        refs[node.id.name] = ref
        components.append(
            Component(
                bom_ref=ref,
                name=node.id.name,
                component_type=ComponentType.CRYPTO_ASSET,
                crypto=CryptoProperties(
                    asset_kind=CryptoAssetKind.ALGORITHM,
                    algorithm_family=node.family or None,
                    parameter_set=node.parameter or None,
                    mode=",".join(sorted(node.modes)) if node.modes else None,
                ),
            )
        )
    return components, refs


def _cbom_protocol_components(
    graph: CryptoHierarchyGraph, host_id: str, algorithm_refs: dict[str, str]
) -> tuple[list[Component], list[Dependency]]:
    components, dependencies = [], []
    occurrences: dict[str, list] = {}
    for occurrence in graph.occurrences_for_host(host_id):
        occurrences.setdefault(occurrence.token, []).append(occurrence)
    for node in graph.parameterizations_for_host(host_id, ("protocol",)):
        suite_tokens: set[str] = set()
        for occurrence in occurrences.get(node.id.name, ()):
            for target in graph.dependencies_of(occurrence.id):
                target_node = graph.node(target)
                if target_node is not None and target_node.token in algorithm_refs:
                    suite_tokens.add(target_node.token)
        suite_refs = tuple(algorithm_refs[t] for t in sorted(suite_tokens))
        ref = f"proto:{node.id.name}"
        components.append(
            Component(
                bom_ref=ref,
                name=node.family or node.id.name,
                component_type=ComponentType.CRYPTO_ASSET,
                version=node.version,
                crypto=CryptoProperties(
                    asset_kind=CryptoAssetKind.PROTOCOL,
                    algorithm_family=node.family or None,
                    protocol_version=node.version or node.id.name,
                    cipher_suite_refs=suite_refs,
                ),
            )
        )
        if suite_refs:
            dependencies.append(Dependency(ref=ref, depends_on=suite_refs))
    return components, dependencies


def _cbom_certificates(
    records: Iterable[EvidenceRecord], host_id: str, algorithm_refs: dict[str, str]
) -> tuple[list[Component], list[Dependency]]:
    components, dependencies = [], []
    seen_refs: set[str] = set()
    certs = sorted(
        (r for r in records if r.category == EvidenceCategory.CERTIFICATE and r.host == host_id),
        key=by_sort_key,
    )
    for record in certs:
        ref = f"cert:{record.name}"
        if ref in seen_refs:
            ref = f"cert:{record.name}#{record.attribute('serial') or record.source_path}"
        seen_refs.add(ref)

        hash_name = record.attribute("signature_hash")
        if hash_name is not None:
            signature_ref = algorithm_refs.get(hash_name, hash_name)
        else:
            signature_ref = record.attribute("signature_algorithm") or "unknown"

        components.append(
            Component(
                bom_ref=ref,
                name=record.name,
                component_type=ComponentType.CERTIFICATE,
                crypto=CryptoProperties(
                    asset_kind=CryptoAssetKind.CERTIFICATE,
                    certificate_subject=record.attribute("subject") or record.name,
                    certificate_issuer=record.attribute("issuer") or "unknown",
                    not_before=record.attribute("not_before") or "",
                    not_after=record.attribute("not_after") or "",
                    signature_algorithm_ref=signature_ref,
                ),
            )
        )

        key_token = token_for_key(
            record.attribute("key_algorithm") or "",
            int(record.attribute("key_size") or 0) or None,
            record.attribute("curve"),
        )
        names = (key_token.name if key_token is not None else None, hash_name)
        targets = sorted({algorithm_refs[n] for n in names if n in algorithm_refs})
        if targets:
            dependencies.append(Dependency(ref=ref, depends_on=tuple(targets)))
    return components, dependencies


def _cbom_libraries(records: Iterable[EvidenceRecord], host_id: str) -> list[Component]:
    components = []
    seen: set[tuple[str, str]] = set()
    libs = sorted(
        (r for r in records if r.category == EvidenceCategory.CRYPTO_LIBRARY and r.host == host_id),
        key=by_sort_key,
    )
    for record in libs:
        identity = (record.name, record.version)
        if identity in seen:
            continue
        seen.add(identity)
        components.append(
            Component(
                bom_ref=f"lib:{record.name}@{record.version}",
                name=record.name,
                component_type=ComponentType.LIBRARY,
                version=record.version,
                package_url=f"pkg:generic/{record.name}@{record.version}",
            )
        )
    return components


def _cbom_settings(records: Iterable[EvidenceRecord], host_id: str) -> list[Component]:
    components = []
    seen: set[str] = set()
    settings = sorted(
        (r for r in records if r.category == EvidenceCategory.KERNEL_SETTING and r.host == host_id),
        key=by_sort_key,
    )
    for record in settings:
        if record.name in seen:
            continue
        seen.add(record.name)
        components.append(
            Component(
                bom_ref=f"setting:{record.name}",
                name=record.name,
                component_type=ComponentType.OPERATING_SYSTEM_SETTING,
                version=record.attribute("value") or "",
            )
        )
    return components


def build_cbom(
    host_id: str,
    graph: CryptoHierarchyGraph,
    records: Iterable[EvidenceRecord] = (),
) -> Bom:
    """Cryptographic inventory for one host from its slice of the graph.

    Layer-2 assets become components; the graph's cross-asset edges surface
    as Dependencies (protocol → suite algorithms, certificate → key and hash
    algorithms). Family and parameter fields carry the REFINES lineage.
    Kernel settings ride along as operating-system-setting components.
    """
    records = list(records)
    algorithms, algorithm_refs = _cbom_algorithm_components(graph, host_id)
    protocols, proto_deps = _cbom_protocol_components(graph, host_id, algorithm_refs)
    certificates, cert_deps = _cbom_certificates(records, host_id, algorithm_refs)
    libraries = _cbom_libraries(records, host_id)
    settings = _cbom_settings(records, host_id)

    return Bom(
        serial_number=document_serial("cbom", host_id),
        version=1,
        kind=BomKind.CBOM,
        metadata=BomMetadata(subject_kind=SubjectKind.HOST, subject_name=host_id),
        components=tuple(algorithms + protocols + certificates + libraries + settings),
        dependencies=tuple(proto_deps + cert_deps),
    )


def enrich_with_vulnerabilities(bom: Bom, store: VulnerabilityStore) -> Bom:
    """Attach advisory matches as VEX entries; re-running adds nothing new."""
    entries: dict[str, VulnerabilityEntry] = {v.cve_id: v for v in bom.vulnerabilities}
    for component in bom.components:
        if component.component_type not in (ComponentType.LIBRARY, ComponentType.APPLICATION):
            continue
        for advisory in store.findings_for(component.name, component.version):
            existing = entries.get(advisory.cve_id)
            if existing is not None:
                if component.bom_ref not in existing.affects:
                    entries[advisory.cve_id] = replace(
                        existing, affects=existing.affects + (component.bom_ref,)
                    )
                continue
            entries[advisory.cve_id] = VulnerabilityEntry(
                cve_id=advisory.cve_id,
                cvss_score=advisory.cvss_score,
                cvss_vector=advisory.cvss_vector,
                severity=advisory.severity,
                affects=(component.bom_ref,),
            )
    return replace(bom, vulnerabilities=tuple(entries.values()))


def profile_manifest(profile_id: str, links: Iterable[BomLink], version: int = 1) -> Bom:
    """The profile's manifest: the one index of a run's document set, a
    BOM-Link to each host document at that document's version."""
    return Bom(
        serial_number=document_serial("profile", profile_id),
        version=version,
        kind=BomKind.MIXED,
        metadata=BomMetadata(subject_kind=SubjectKind.PROFILE, subject_name=profile_id),
        links=tuple(links),
    )


class Linkable(Protocol):
    """What a manifest links to: a document's serial and version."""

    @property
    def serial_number(self) -> str: ...

    @property
    def version(self) -> int: ...


D = TypeVar("D", bound=Linkable)


def link_to_profile(boms: list[D], profile_id: str) -> list[Union[Bom, D]]:
    """Index host documents under one profile manifest.

    Returns [manifest, *boms]; host documents carry no link back, so a
    change to one host re-versions that host's documents and the manifest
    only. A document is linked by its serial and version alone, so a
    stored document stands in for a forged one.
    """
    serials = Counter(b.serial_number for b in boms)
    duplicates = {s for s, n in serials.items() if n > 1}
    if duplicates:
        raise BomValidationError(
            Violation("serialNumber", f"duplicate document serial {serial}")
            for serial in sorted(duplicates)
        )
    links = (BomLink(target_serial=b.serial_number, target_version=b.version) for b in boms)
    return [profile_manifest(profile_id, links), *boms]


@dataclass(frozen=True)
class ArtifactCounts:
    algorithms: int = 0
    vulnerabilities: int = 0
    components: int = 0
    certificates: int = 0

    def __add__(self, other: "ArtifactCounts") -> "ArtifactCounts":
        return ArtifactCounts(
            algorithms=self.algorithms + other.algorithms,
            vulnerabilities=self.vulnerabilities + other.vulnerabilities,
            components=self.components + other.components,
            certificates=self.certificates + other.certificates,
        )


def summarize_bom(bom: Bom) -> dict[str, Any]:
    """What reports read of one valid document, as plain JSON values.

    algorithms: distinct algorithm asset names; components: every component;
    certificates: [bom-ref, subject, not-after] rows; vulnerabilities:
    [CVE, score, severity, affected refs] rows. Rows rather than objects
    keep the stored summary small, since every rescan reads and writes it.
    The document is not validated again: serialize_bom and parse_bom already
    did, and count_artifacts does.
    """
    return {
        "subject_kind": bom.metadata.subject_kind.value,
        "subject": bom.metadata.subject_name,
        "kind": bom.kind.value,
        "algorithms": sorted(
            {
                c.name
                for c in bom.components
                if c.crypto is not None and c.crypto.asset_kind == CryptoAssetKind.ALGORITHM
            }
        ),
        "components": len(bom.components),
        "certificates": [
            [c.bom_ref, c.crypto.certificate_subject or c.name, c.crypto.not_after or ""]
            for c in bom.components
            if c.component_type == ComponentType.CERTIFICATE
        ],
        "vulnerabilities": [
            [v.cve_id, v.cvss_score, v.severity.value, list(v.affects)]
            for v in bom.vulnerabilities
        ],
    }


def count_summaries(
    summaries: Iterable[dict[str, Any]],
) -> tuple[dict[str, ArtifactCounts], ArtifactCounts]:
    """Per-host artifact tallies plus the grand total, over summarize_bom
    results.

    algorithms and vulnerabilities are distinct per host across its
    documents; components count SBOM components only. Profile manifests
    pass through untallied.
    """
    per_host: dict[str, dict] = {}
    for summary in summaries:
        if summary["subject_kind"] != SubjectKind.HOST.value:
            continue
        slot = per_host.setdefault(
            summary["subject"],
            {"algorithms": set(), "cves": set(), "components": 0, "certificates": 0},
        )
        slot["algorithms"].update(summary["algorithms"])
        slot["certificates"] += len(summary["certificates"])
        if summary["kind"] == BomKind.SBOM.value:
            slot["components"] += summary["components"]
        slot["cves"].update(cve for cve, *_ in summary["vulnerabilities"])

    counts = {
        host: ArtifactCounts(
            algorithms=len(slot["algorithms"]),
            vulnerabilities=len(slot["cves"]),
            components=slot["components"],
            certificates=slot["certificates"],
        )
        for host, slot in sorted(per_host.items())
    }
    total = ArtifactCounts()
    for value in counts.values():
        total = total + value
    return counts, total


def count_artifacts(boms: Iterable[Bom]) -> tuple[dict[str, ArtifactCounts], ArtifactCounts]:
    """Per-host artifact tallies plus the grand total, as count_summaries
    gives them for each document's summarize_bom.

    Raises BomValidationError for a document with violations.
    """
    summaries = []
    for bom in boms:
        problems = validate_bom(bom)
        if problems:
            raise BomValidationError(problems)
        summaries.append(summarize_bom(bom))
    return count_summaries(summaries)
