"""Graph construction and document forging."""

import json
import random

import pytest

from twinaudit.bom import (
    BomKind,
    BomValidationError,
    ComponentType,
    CryptoAssetKind,
    Severity,
    SubjectKind,
    serialize_bom,
    validate_bom,
)
from twinaudit.collect import (
    EvidenceCategory,
    HostSnapshot,
    make_record,
    scan_host,
)
from twinaudit.forge import (
    ALGORITHM_PRIMITIVES,
    LAYER_FAMILY,
    LAYER_OCCURRENCE,
    LAYER_PARAMETERIZATION,
    LAYER_PRIMITIVE,
    ArtifactCounts,
    CryptoHierarchyGraph,
    Edge,
    EdgeKind,
    NodeId,
    build_cbom,
    build_graph,
    build_sbom,
    count_artifacts,
    enrich_with_vulnerabilities,
    link_to_profile,
)
from twinaudit.vulnstore import VulnerabilityStore

from .test_collect import cert_pem, sample_tree, write_tree


def algo_record(host, name, family, parameter="", primitive="cipher", source="etc/ssl/openssl.cnf", modes=""):
    attributes = {"family": family, "primitive": primitive}
    if parameter:
        attributes["parameter"] = parameter
    if modes:
        attributes["modes"] = modes
    return make_record(
        EvidenceCategory.ALGORITHM, name=name, host=host, source_path=source, attributes=attributes
    )


def protocol_record(host, name="TLS", version="1.2", source="etc/ssl/openssl.cnf"):
    return make_record(
        EvidenceCategory.OPENSSL_CONFIG,
        name=name,
        host=host,
        source_path=source,
        version=version,
        attributes={"kind": "protocol"},
    )


def library_record(host, name="openssl", version="3.0.13"):
    return make_record(
        EvidenceCategory.CRYPTO_LIBRARY,
        name=name,
        host=host,
        source_path="facts.json",
        version=version,
        attributes={"manager": "os"},
    )


def certificate_record(host, cn="web-01.example.test", source="etc/ssl/certs/host.pem"):
    return make_record(
        EvidenceCategory.CERTIFICATE,
        name=cn,
        host=host,
        source_path=source,
        attributes={
            "subject": f"CN={cn},O=Example Corp",
            "issuer": "CN=Example Corp Internal CA,O=Example Corp",
            "not_before": "2024-01-01T00:00:00+00:00",
            "not_after": "2030-01-01T00:00:00+00:00",
            "key_algorithm": "rsa",
            "key_size": "2048",
            "signature_algorithm": "sha256WithRSAEncryption",
            "signature_hash": "SHA-256",
            "serial": "ab12",
        },
    )


def software_record(host, name, version, role, manifest, ecosystem="pypi"):
    return make_record(
        EvidenceCategory.SOFTWARE_COMPONENT,
        name=name,
        host=host,
        source_path=manifest,
        version=version,
        attributes={
            "role": role,
            "ecosystem": ecosystem,
            "purl": f"pkg:{ecosystem}/{name}@{version}",
            "manifest": manifest,
        },
    )


class TestGraphInsertion:
    def test_single_occurrence_builds_full_chain(self):
        graph = CryptoHierarchyGraph()
        graph.insert(algo_record("web-01", "AES-256-GCM", "AES", parameter="256"))
        assert len(graph.nodes()) == 4
        assert len(graph.edges()) == 3
        assert NodeId(LAYER_PRIMITIVE, "cipher") in graph.nodes()
        assert NodeId(LAYER_FAMILY, "AES") in graph.nodes()
        assert NodeId(LAYER_PARAMETERIZATION, "AES-256-GCM") in graph.nodes()
        assert len(graph.nodes(LAYER_OCCURRENCE)) == 1

    def test_second_host_adds_only_an_occurrence(self):
        graph = CryptoHierarchyGraph()
        graph.insert(algo_record("web-01", "AES-256-GCM", "AES"))
        before_nodes, before_edges = len(graph.nodes()), len(graph.edges())
        graph.insert(algo_record("db-01", "AES-256-GCM", "AES"))
        assert len(graph.nodes()) == before_nodes + 1
        assert len(graph.edges()) == before_edges + 1

    def test_reinsertion_merges(self):
        graph = CryptoHierarchyGraph()
        record = algo_record("web-01", "AES-256", "AES", parameter="256")
        graph.insert(record)
        fingerprint = graph.signature()
        graph.insert(record)
        assert graph.signature() == fingerprint

    def test_unknown_primitive_is_quarantined(self):
        graph = CryptoHierarchyGraph()
        record = algo_record("web-01", "QKD-512", "QKD", primitive="quantum")
        graph.insert(record)
        assert len(graph.nodes()) == 0
        assert len(graph.edges()) == 0
        assert graph.quarantine == [record]

    def test_config_directive_is_quarantined(self):
        graph = CryptoHierarchyGraph()
        directive = make_record(
            EvidenceCategory.OPENSSL_CONFIG,
            name="CipherString",
            host="web-01",
            source_path="etc/ssl/openssl.cnf",
            attributes={"kind": "directive", "value": "DEFAULT"},
        )
        graph.insert(directive)
        assert len(graph.nodes()) == 0
        assert len(graph.quarantine) == 1

    def test_protocol_chain(self):
        graph = CryptoHierarchyGraph()
        graph.insert(protocol_record("web-01"))
        assert NodeId(LAYER_PRIMITIVE, "protocol") in graph.nodes()
        assert NodeId(LAYER_FAMILY, "TLS") in graph.nodes()
        assert NodeId(LAYER_PARAMETERIZATION, "TLS-1.2") in graph.nodes()

    def test_library_chain(self):
        graph = CryptoHierarchyGraph()
        graph.insert(library_record("web-01"))
        assert NodeId(LAYER_PRIMITIVE, "library") in graph.nodes()
        assert NodeId(LAYER_PARAMETERIZATION, "openssl-3.0.13") in graph.nodes()

    def test_certificate_inserts_key_algorithm_occurrence(self):
        graph = CryptoHierarchyGraph()
        graph.insert(certificate_record("web-01"))
        assert NodeId(LAYER_PARAMETERIZATION, "RSA-2048") in graph.nodes()

    def test_protocol_depends_on_cooccurring_algorithms(self):
        graph = CryptoHierarchyGraph()
        graph.insert(protocol_record("web-01"))
        graph.insert(algo_record("web-01", "AES-256", "AES"))
        depends = [e for e in graph.edges() if e.kind == EdgeKind.DEPENDS_ON]
        assert len(depends) == 1
        assert depends[0].source.name.startswith("web-01:TLS-1.2")
        assert "AES-256" in depends[0].target.name

    def test_cross_links_are_order_independent(self):
        records = [
            protocol_record("web-01"),
            algo_record("web-01", "AES-256", "AES"),
            algo_record("web-01", "SHA-384", "SHA2", primitive="hash"),
            library_record("web-01"),
            certificate_record("web-01"),
        ]
        baseline = build_graph(records).signature()
        rng = random.Random(13)
        for _ in range(6):
            rng.shuffle(records)
            assert build_graph(records).signature() == baseline

    def test_growth_is_monotone(self):
        records = [
            protocol_record("web-01"),
            algo_record("web-01", "AES-256", "AES"),
            certificate_record("web-01"),
            library_record("web-01"),
        ]
        graph = CryptoHierarchyGraph()
        seen_nodes: set = set()
        seen_edges: set = set()
        for record in records:
            graph.insert(record)
            nodes = set(graph.nodes())
            edges = set(graph.edges())
            assert seen_nodes <= nodes
            assert seen_edges <= edges
            seen_nodes, seen_edges = nodes, edges

    def test_acyclic(self):
        records = [
            protocol_record("web-01"),
            algo_record("web-01", "AES-256", "AES"),
            algo_record("web-01", "SHA-384", "SHA2", primitive="hash"),
        ]
        assert build_graph(records).is_acyclic()

    def test_every_upper_node_has_one_refines_parent(self):
        graph = build_graph(
            [
                protocol_record("web-01"),
                algo_record("web-01", "AES-256", "AES"),
                library_record("web-01"),
            ]
        )
        for layer in (LAYER_FAMILY, LAYER_PARAMETERIZATION):
            for node_id in graph.nodes(layer):
                parents = [
                    e.target
                    for e in graph.edges()
                    if e.source == node_id and e.kind == EdgeKind.REFINES
                ]
                assert len(parents) == 1
                assert parents[0].layer == layer - 1

    def test_every_occurrence_has_one_used_by_parent(self):
        graph = build_graph(
            [algo_record("web-01", "AES-256", "AES"), protocol_record("web-01")]
        )
        for node_id in graph.nodes(LAYER_OCCURRENCE):
            parents = [
                e.source
                for e in graph.edges()
                if e.target == node_id and e.kind == EdgeKind.USED_BY
            ]
            assert len(parents) == 1

    def test_a_comma_in_a_path_keeps_one_occurrence(self, tmp_path):
        files = {
            "etc/ssl/openssl.cnf": "CipherString = AES256-GCM-SHA384\n",
            "var/log/a,b.log": "TLS handshake with AES256-GCM-SHA384 done\n",
            "etc/ssl/certs/web,01.pem": cert_pem("web-01.pem"),
        }
        tree = write_tree(tmp_path / "h", {"facts.json": json.dumps({"hostname": "h"}), **files})
        bundle = scan_host(HostSnapshot.open(tree))
        [aes] = [r for r in bundle.records if r.name == "AES-256"]
        assert aes.attribute("sources").split("\0") == ["etc/ssl/openssl.cnf", "var/log/a,b.log"]
        occurrences = build_graph(bundle.records).occurrences_for_host("h")
        assert {o.source_path for o in occurrences} == set(files)


class TestBuildSbom:
    def test_empty_evidence(self):
        bom = build_sbom("web-01", [])
        assert bom.kind == BomKind.SBOM
        assert bom.components == ()
        assert validate_bom(bom) == []

    def test_project_with_dependencies(self):
        records = [
            software_record("app-01", "orders-service", "1.0.0", "project", "srv/pom.xml", "maven"),
            software_record("app-01", "spring-boot-starter-web", "3.2.1", "dependency", "srv/pom.xml", "maven"),
            software_record("app-01", "jackson-databind", "2.15.0", "dependency", "srv/pom.xml", "maven"),
        ]
        bom = build_sbom("app-01", records)
        assert len(bom.components) == 3
        assert sum(len(d.depends_on) for d in bom.dependencies) == 2
        [project] = [c for c in bom.components if c.bom_ref == "pkg:maven/orders-service@1.0.0"]
        assert project.component_type == ComponentType.APPLICATION
        assert validate_bom(bom) == []

    def test_distinct_name_version_dedup(self):
        records = [
            software_record("app-01", "requests", "2.25.1", "dependency", "a/requirements.txt"),
            software_record("app-01", "requests", "2.25.1", "dependency", "b/requirements.txt"),
            software_record("app-01", "requests", "2.31.0", "dependency", "b/requirements.txt"),
        ]
        bom = build_sbom("app-01", records)
        assert len(bom.components) == 2

    def test_other_hosts_are_excluded(self):
        records = [
            software_record("app-01", "requests", "2.25.1", "dependency", "requirements.txt"),
            software_record("app-02", "flask", "2.0.1", "dependency", "requirements.txt"),
        ]
        assert len(build_sbom("app-01", records).components) == 1

    def test_deterministic_bytes(self):
        records = [
            software_record("app-01", "flask", "2.0.1", "dependency", "requirements.txt"),
            software_record("app-01", "jinja2", "2.11.2", "dependency", "requirements.txt"),
        ]
        first = serialize_bom(build_sbom("app-01", records))
        second = serialize_bom(build_sbom("app-01", list(reversed(records))))
        assert first == second


class TestBuildCbom:
    def test_certificate_only_host(self):
        bom = build_cbom("mail-01", CryptoHierarchyGraph(), [certificate_record("mail-01")])
        assert len(bom.components) == 1
        assert bom.components[0].component_type == ComponentType.CERTIFICATE
        assert validate_bom(bom) == []

    def test_full_host_document(self):
        records = [
            algo_record("web-01", "AES-256", "AES", parameter="256", modes="gcm"),
            algo_record("web-01", "SHA-256", "SHA2", parameter="256", primitive="hash"),
            protocol_record("web-01"),
            certificate_record("web-01"),
            library_record("web-01"),
        ]
        graph = build_graph(records)
        bom = build_cbom("web-01", graph, records)
        assert validate_bom(bom) == []

        by_kind = {}
        for component in bom.components:
            kind = (
                component.crypto.asset_kind.value
                if component.crypto is not None
                else component.component_type.value
            )
            by_kind.setdefault(kind, []).append(component)
        assert {c.name for c in by_kind["ALGORITHM"]} == {"AES-256", "SHA-256", "RSA-2048"}
        assert {c.name for c in by_kind["PROTOCOL"]} == {"TLS"}
        assert {c.name for c in by_kind["CERTIFICATE"]} == {"web-01.example.test"}
        assert {c.name for c in by_kind["LIBRARY"]} == {"openssl"}

        protocol = by_kind["PROTOCOL"][0]
        assert protocol.crypto.protocol_version == "1.2"
        assert protocol.crypto.cipher_suite_refs == ("alg:AES-256", "alg:SHA-256")

        certificate = by_kind["CERTIFICATE"][0]
        assert certificate.crypto.signature_algorithm_ref == "alg:SHA-256"

        cert_dep = next(d for d in bom.dependencies if d.ref.startswith("cert:"))
        assert set(cert_dep.depends_on) == {"alg:RSA-2048", "alg:SHA-256"}

    @staticmethod
    def signed_certificate_cbom(tmp_path, hash_algorithm, rsa_padding=None):
        """The CBOM of a host holding one self-signed RSA certificate."""
        from datetime import datetime, timedelta, timezone

        from cryptography import x509
        from cryptography.hazmat.primitives import serialization
        from cryptography.hazmat.primitives.asymmetric import rsa

        key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
        name = x509.Name([x509.NameAttribute(x509.NameOID.COMMON_NAME, "signed.example.test")])
        start = datetime(2025, 1, 1, tzinfo=timezone.utc)
        cert = (
            x509.CertificateBuilder()
            .subject_name(name)
            .issuer_name(name)
            .public_key(key.public_key())
            .serial_number(1)
            .not_valid_before(start)
            .not_valid_after(start + timedelta(days=365))
            .sign(key, hash_algorithm, rsa_padding=rsa_padding)
        )
        tree = write_tree(
            tmp_path / "signed",
            {
                "facts.json": json.dumps({"hostname": "signed"}),
                "etc/ssl/certs/signed.pem": cert.public_bytes(serialization.Encoding.PEM),
            },
        )
        bundle = scan_host(HostSnapshot.open(tree))
        bom = build_cbom("signed", build_graph(bundle.records), bundle.records)
        certificate = next(c for c in bom.components if c.component_type == ComponentType.CERTIFICATE)
        dependency = next(d for d in bom.dependencies if d.ref == certificate.bom_ref)
        return certificate, dependency

    def test_pss_certificate_refers_to_its_signature_hash(self, tmp_path):
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import padding

        pss = padding.PSS(mgf=padding.MGF1(hashes.SHA256()), salt_length=32)
        certificate, dependency = self.signed_certificate_cbom(tmp_path, hashes.SHA256(), pss)
        assert certificate.crypto.signature_algorithm_ref == "alg:SHA-256"
        assert dependency.depends_on == ("alg:RSA-2048", "alg:SHA-256")

    def test_sha3_certificate_refers_to_its_signature_hash(self, tmp_path):
        from cryptography.hazmat.primitives import hashes

        certificate, dependency = self.signed_certificate_cbom(tmp_path, hashes.SHA3_256())
        assert certificate.crypto.signature_algorithm_ref == "alg:SHA3-256"
        assert dependency.depends_on == ("alg:RSA-2048", "alg:SHA3-256")

    def test_dependency_graph_is_acyclic(self):
        records = [
            algo_record("web-01", "AES-256", "AES"),
            protocol_record("web-01"),
            certificate_record("web-01"),
        ]
        graph = build_graph(records)
        bom = build_cbom("web-01", graph, records)
        adjacency = {d.ref: list(d.depends_on) for d in bom.dependencies}
        seen: set[str] = set()

        def walk(ref: str, trail: tuple) -> None:
            assert ref not in trail
            seen.add(ref)
            for nxt in adjacency.get(ref, []):
                walk(nxt, trail + (ref,))

        for ref in adjacency:
            walk(ref, ())


def feed_line(cve, name, introduced, fixed, score=7.5):
    return json.dumps(
        {
            "cve": cve,
            "summary": f"issue in {name}",
            "cvss": {"score": score, "vector": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"},
            "affects": [{"name": name, "introduced": introduced, "fixed": fixed}],
        }
    )


class TestEnrichment:
    def make_store(self):
        store = VulnerabilityStore()
        store.ingest_lines(
            [
                feed_line("CVE-2023-30861", "flask", "0", "2.3.3", score=7.5),
                feed_line("CVE-2024-22195", "jinja2", "0", "3.1.3", score=5.4),
            ]
        )
        return store

    def sbom(self):
        return build_sbom(
            "app-01",
            [
                software_record("app-01", "flask", "2.3.2", "dependency", "requirements.txt"),
                software_record("app-01", "gunicorn", "21.0.0", "dependency", "requirements.txt"),
            ],
        )

    def test_match_creates_entry(self):
        enriched = enrich_with_vulnerabilities(self.sbom(), self.make_store())
        assert len(enriched.vulnerabilities) == 1
        entry = enriched.vulnerabilities[0]
        assert entry.cve_id == "CVE-2023-30861"
        assert entry.severity == Severity.HIGH
        assert entry.affects == ("pkg:pypi/flask@2.3.2",)
        assert validate_bom(enriched) == []

    def test_no_match_leaves_document_unchanged(self):
        bom = build_sbom(
            "app-01",
            [software_record("app-01", "gunicorn", "21.0.0", "dependency", "requirements.txt")],
        )
        assert enrich_with_vulnerabilities(bom, self.make_store()) == bom

    def test_idempotent(self):
        store = self.make_store()
        once = enrich_with_vulnerabilities(self.sbom(), store)
        assert enrich_with_vulnerabilities(once, store) == once

    def test_shared_cve_unions_affects(self):
        store = VulnerabilityStore()
        store.ingest_lines(
            [
                json.dumps(
                    {
                        "cve": "CVE-2024-9999",
                        "summary": "shared",
                        "cvss": {"score": 9.8, "vector": "V"},
                        "affects": [
                            {"name": "flask", "introduced": "0", "fixed": "99"},
                            {"name": "gunicorn", "introduced": "0", "fixed": "99"},
                        ],
                    }
                )
            ]
        )
        enriched = enrich_with_vulnerabilities(self.sbom(), store)
        assert len(enriched.vulnerabilities) == 1
        assert set(enriched.vulnerabilities[0].affects) == {
            "pkg:pypi/flask@2.3.2",
            "pkg:pypi/gunicorn@21.0.0",
        }


class TestProfileLinking:
    def host_boms(self):
        sbom = build_sbom(
            "web-01",
            [software_record("web-01", "flask", "2.0.1", "dependency", "requirements.txt")],
        )
        cbom = build_cbom(
            "web-01",
            build_graph([algo_record("web-01", "AES-256", "AES")]),
            [],
        )
        return [sbom, cbom]

    def test_manifest_links_resolve_totally(self):
        boms = self.host_boms()
        linked = link_to_profile(boms, "smb-q3")
        manifest, rest = linked[0], linked[1:]
        assert manifest.metadata.subject_kind == SubjectKind.PROFILE
        assert len(manifest.links) == len(boms)
        registry = {(b.serial_number, b.version): b for b in linked}
        for bom in linked:
            for link in bom.links:
                assert (link.target_serial, link.target_version) in registry
        # The manifest is the only index: each host document at its exact
        # version, and no host document links back.
        assert [(l.target_serial, l.target_version) for l in manifest.links] == [
            (b.serial_number, b.version) for b in boms
        ]
        assert all(bom.links == () for bom in rest)

    def test_duplicate_serials_rejected(self):
        bom = self.host_boms()[0]
        with pytest.raises(BomValidationError):
            link_to_profile([bom, bom], "smb-q3")

    def test_empty_profile(self):
        manifest = link_to_profile([], "empty")[0]
        assert manifest.links == ()


class TestCounting:
    def test_empty(self):
        counts, total = count_artifacts([])
        assert counts == {}
        assert total == ArtifactCounts()

    def test_small_host(self):
        records = [
            algo_record("web-01", "AES-256", "AES"),
            algo_record("web-01", "SHA-256", "SHA2", primitive="hash"),
            certificate_record("web-01"),
            library_record("web-01"),
        ]
        graph = build_graph(records)
        cbom = build_cbom("web-01", graph, records)
        sbom = build_sbom(
            "web-01",
            [software_record("web-01", "flask", "2.0.1", "dependency", "requirements.txt")],
        )
        counts, total = count_artifacts([sbom, cbom])
        assert counts["web-01"] == ArtifactCounts(
            algorithms=3, vulnerabilities=0, components=1, certificates=1
        )
        assert total == counts["web-01"]

    def test_end_to_end_sample_host(self, tmp_path):
        bundle = scan_host(HostSnapshot.open(sample_tree(tmp_path / "web-01")))
        graph = build_graph(
            [
                r
                for r in bundle.records
                if r.category
                in (
                    EvidenceCategory.ALGORITHM,
                    EvidenceCategory.CERTIFICATE,
                    EvidenceCategory.CRYPTO_LIBRARY,
                )
                or (
                    r.category == EvidenceCategory.OPENSSL_CONFIG
                    and r.attribute("kind") == "protocol"
                )
            ]
        )
        sbom = build_sbom("web-01", bundle.records)
        cbom = build_cbom("web-01", graph, bundle.records)
        counts, _ = count_artifacts([sbom, cbom])
        assert counts["web-01"] == ArtifactCounts(
            algorithms=7, vulnerabilities=0, components=5, certificates=1
        )
        assert len(graph.parameterizations_for_host("web-01", ALGORITHM_PRIMITIVES)) == 7


# -- generated-case properties -------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twinaudit.collect.scanners import _fold_sightings  # noqa: E402
from twinaudit.collect.tokens import extract_algorithm_mentions  # noqa: E402

_MENTION_SAMPLE = (
    "aes-256-gcm aes128-ctr chacha20-poly1305 3des-cbc sha256 sha-512 sha1 "
    "md5 rsa-2048 rsa-4096 prime256v1 secp384r1 ssh-ed25519 curve25519"
)


def _record_pool():
    pool = []
    for host in ("host-a", "host-b"):
        pool.extend(
            _fold_sightings(
                host,
                [
                    (path, m)
                    for path, text in (
                        ("etc/ssl/openssl.cnf", _MENTION_SAMPLE),
                        ("etc/ssh/sshd_config", "aes256-gcm hmac-sha2-256 ssh-ed25519"),
                    )
                    for m in extract_algorithm_mentions(text)
                ],
            )
        )
        pool.append(
            make_record(
                EvidenceCategory.CRYPTO_LIBRARY,
                name="openssl",
                host=host,
                source_path="facts.json",
                version="1.1.1n",
            )
        )
        pool.append(
            make_record(
                EvidenceCategory.OPENSSL_CONFIG,
                name="TLS",
                host=host,
                source_path="etc/ssl/openssl.cnf",
                version="1.2",
                attributes={"kind": "protocol"},
            )
        )
        pool.append(
            make_record(
                EvidenceCategory.CERTIFICATE,
                name=f"{host}.example.test",
                host=host,
                source_path="etc/ssl/certs/server.pem",
                attributes={"key_algorithm": "RSA", "key_size": "2048"},
            )
        )
        # quarantine-bound: unknown primitive and non-protocol directive
        pool.append(
            make_record(
                EvidenceCategory.ALGORITHM,
                name="ROT13",
                host=host,
                source_path="etc/app.cnf",
                attributes={"family": "ROT", "primitive": "obfuscation"},
            )
        )
        pool.append(
            make_record(
                EvidenceCategory.OPENSSL_CONFIG,
                name="CipherString",
                host=host,
                source_path="etc/ssl/openssl.cnf",
                attributes={"kind": "directive", "value": "DEFAULT"},
            )
        )
    return pool


_RECORD_POOL = _record_pool()


class TestGraphProperties:
    @settings(max_examples=120, deadline=None)
    @given(
        records=st.lists(st.sampled_from(_RECORD_POOL), min_size=1, max_size=30),
        rng=st.randoms(use_true_random=False),
    )
    def test_insertion_order_independent_and_acyclic(self, records, rng):
        reference = build_graph(records)
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert build_graph(shuffled).signature() == reference.signature()
        assert reference.is_acyclic()

    @settings(max_examples=120, deadline=None)
    @given(
        records=st.lists(st.sampled_from(_RECORD_POOL), min_size=0, max_size=20),
        extra=st.sampled_from(_RECORD_POOL),
    )
    def test_insertion_is_monotone_and_idempotent(self, records, extra):
        grown = build_graph(records)
        before = grown.signature()
        grown.insert(extra)
        once = grown.signature()
        grown.insert(extra)
        assert grown.signature() == once  # re-inserting merges, never duplicates
        assert len(grown.nodes()) >= len(build_graph(records).nodes())
        assert before == build_graph(records).signature()


# Several hosts sharing source paths, so files of one name on two hosts and
# several records of one file meet in the cross-linking rule.
_GRAPH_HOSTS = ("host-a", "host-b", "host-c")
_GRAPH_PATHS = ("etc/ssl/openssl.cnf", "etc/ssh/sshd_config", "var/log/auth.log")


@st.composite
def crypto_records(draw):
    host = draw(st.sampled_from(_GRAPH_HOSTS))
    sources = draw(st.lists(st.sampled_from(_GRAPH_PATHS), min_size=1, max_size=3, unique=True))
    attributes = {"sources": "\0".join(sources)}
    kind = draw(st.sampled_from(("algorithm", "protocol", "library", "certificate")))
    if kind == "algorithm":
        name = draw(st.sampled_from(("AES-256", "SHA-256", "RSA-2048", "X25519", "ROT13")))
        attributes["family"] = name.split("-")[0]
        attributes["primitive"] = draw(st.sampled_from(ALGORITHM_PRIMITIVES + ("obfuscation",)))
        modes = draw(st.lists(st.sampled_from(("cbc", "gcm")), unique=True))
        if modes:
            attributes["modes"] = ",".join(sorted(modes))
        category, version = EvidenceCategory.ALGORITHM, ""
    elif kind == "protocol":
        name, version = draw(st.sampled_from((("TLS", "1.2"), ("TLS", "1.3"), ("SSH", "2"))))
        attributes["kind"] = "protocol"
        category = EvidenceCategory.OPENSSL_CONFIG
    elif kind == "library":
        name, version = "openssl", draw(st.sampled_from(("1.1.1n", "3.0.13")))
        category = EvidenceCategory.CRYPTO_LIBRARY
    else:
        name, version = "cert", ""
        attributes.update(draw(st.sampled_from((
            {"key_algorithm": "RSA", "key_size": "2048"},
            {"key_algorithm": "EC", "curve": "prime256v1"},
        ))))
        category = EvidenceCategory.CERTIFICATE
    return make_record(category, name, host, sources[0], version, attributes)


class AllPairsReference:
    """What the graph's indexed queries must answer, recomputed from its
    node table by scanning every node or pair: a protocol occurrence
    depends on each algorithm occurrence of the same host and file."""

    def __init__(self, graph):
        self.graph = graph
        self.nodes = [graph.node(n) for n in graph.nodes()]
        occurrences = [n for n in self.nodes if n.id.layer == LAYER_OCCURRENCE]
        self.depends_on = {
            Edge(proto.id, EdgeKind.DEPENDS_ON, algo.id)
            for proto in occurrences
            for algo in occurrences
            if (proto.host, proto.source_path) == (algo.host, algo.source_path)
            and proto.primitive == "protocol"
            and algo.primitive in ALGORITHM_PRIMITIVES
        }

    def signature(self):
        nodes = frozenset(
            (n.id, n.primitive, n.family, n.parameter, n.version, frozenset(n.modes))
            for n in self.nodes
        )
        edges = {e for e in self.graph.edges() if e.kind != EdgeKind.DEPENDS_ON}
        quarantined = frozenset(r.sort_key for r in self.graph.quarantine)
        return (nodes, frozenset(edges | self.depends_on), quarantined)

    def dependencies_of(self, occurrence_id):
        return sorted((e.target for e in self.depends_on if e.source == occurrence_id),
                      key=lambda n: n.name)

    def occurrences_for_host(self, host):
        return [n.id for n in self.nodes if n.id.layer == LAYER_OCCURRENCE and n.host == host]

    def parameterizations_for_host(self, host, primitives=None):
        tokens = {self.graph.node(n).token for n in self.occurrences_for_host(host)}
        return [
            n.id
            for n in self.nodes
            if n.id.layer == LAYER_PARAMETERIZATION and n.id.name in tokens
            and (primitives is None or n.primitive in primitives)
        ]


class TestGraphIndexes:
    @settings(max_examples=150, deadline=None)
    @given(records=st.lists(crypto_records(), max_size=40))
    def test_indexed_queries_match_an_all_pairs_reference(self, records):
        graph = build_graph(records)
        reference = AllPairsReference(graph)
        assert graph.signature() == reference.signature()
        for occurrence_id in graph.nodes(LAYER_OCCURRENCE):
            assert graph.dependencies_of(occurrence_id) == reference.dependencies_of(occurrence_id)
        for host in (*_GRAPH_HOSTS, "absent"):
            assert [n.id for n in graph.occurrences_for_host(host)] == (
                reference.occurrences_for_host(host)
            )
            for primitives in (None, ("protocol",), ALGORITHM_PRIMITIVES):
                assert [n.id for n in graph.parameterizations_for_host(host, primitives)] == (
                    reference.parameterizations_for_host(host, primitives)
                )
        assert graph.hosts() == sorted({n.host for n in reference.nodes if n.host})


class TestEnrichmentProperties:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_enrichment_idempotent(self, data):
        from .strategies import boms

        bom = data.draw(boms())
        lines = []
        for i, component in enumerate(bom.components[:4]):
            lines.append(
                json.dumps(
                    {
                        "cve": f"CVE-2024-{10000 + i}",
                        "summary": f"issue in {component.name}",
                        "cvss": {"score": 5.0 + i},
                        "affects": [
                            {
                                "name": component.name,
                                "introduced": "0",
                                "fixed": "9999999",
                            }
                        ],
                    }
                )
            )
        store = VulnerabilityStore()
        store.ingest_lines(lines)
        once = enrich_with_vulnerabilities(bom, store)
        assert enrich_with_vulnerabilities(once, store) == once
