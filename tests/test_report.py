"""Reports rendered from document summaries: merges, order and expiry."""

from twinaudit.bom import (
    Bom,
    BomKind,
    BomMetadata,
    Component,
    ComponentType,
    CryptoAssetKind,
    CryptoProperties,
    SubjectKind,
    VulnerabilityEntry,
    severity_for_score,
)
from twinaudit.forge import document_serial, summarize_bom
from twinaudit.report import render_report, report_counts


def library(ref):
    return Component(bom_ref=ref, name=ref, component_type=ComponentType.LIBRARY, version="1.0")


def certificate(ref, not_after):
    return Component(
        bom_ref=ref,
        name=ref,
        component_type=ComponentType.CERTIFICATE,
        crypto=CryptoProperties(
            asset_kind=CryptoAssetKind.CERTIFICATE,
            certificate_subject=f"CN={ref}",
            certificate_issuer="CN=ca",
            not_before="2020-01-01T00:00:00+00:00",
            not_after=not_after,
            signature_algorithm_ref="sha256WithRSA",
        ),
    )


def vulnerability(cve, score, *affects):
    return VulnerabilityEntry(
        cve_id=cve,
        cvss_score=score,
        cvss_vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
        severity=severity_for_score(score),
        affects=affects,
    )


def document(kind, host, components, vulnerabilities=()):
    return Bom(
        serial_number=document_serial(kind.value, host),
        version=1,
        kind=kind,
        metadata=BomMetadata(subject_kind=SubjectKind.HOST, subject_name=host),
        components=tuple(components),
        vulnerabilities=tuple(vulnerabilities),
    )


def estate():
    """Two hosts sharing CVEs at different and equal scores, with
    certificates stored out of host order and, across one host's two
    documents, out of ref order."""
    return [
        document(
            BomKind.SBOM,
            "web-01",
            [library("lib-a"), library("lib-b")],
            [
                vulnerability("CVE-2024-0001", 5.0, "lib-a"),
                vulnerability("CVE-2024-0002", 7.5, "lib-a", "lib-b"),
            ],
        ),
        document(BomKind.CBOM, "web-01", [certificate("cert-a", "2025-01-01T00:00:00+00:00")]),
        document(
            BomKind.SBOM,
            "db-01",
            [library("lib-a"), library("lib-c"), certificate("cert-z", "2030-01-01T00:00:00+00:00")],
            [
                vulnerability("CVE-2024-0001", 9.8, "lib-a", "lib-c"),
                vulnerability("CVE-2024-0002", 7.5, "lib-a"),
                vulnerability("CVE-2024-0003", 7.5, "lib-c"),
            ],
        ),
        document(BomKind.CBOM, "db-01", [certificate("cert-b", "2030-01-01T00:00:00+00:00")]),
    ]


def section(text, title):
    lines = text.split("\n")
    start = next(i for i, line in enumerate(lines) if line.startswith(title))
    end = lines.index("", start + 2)
    return lines[start + 4 : end]


def test_report_merges_and_orders_from_summaries():
    summaries = [summarize_bom(b) for b in estate()]
    text = render_report(summaries, now="2026-01-01T00:00:00Z")

    # Highest score wins a CVE, affected refs are united across documents,
    # and equal scores sort by CVE id.
    assert section(text, "## Top vulnerabilities") == [
        "| CVE-2024-0001 | 9.8 | CRITICAL | 2 |",
        "| CVE-2024-0002 | 7.5 | HIGH | 2 |",
        "| CVE-2024-0003 | 7.5 | HIGH | 1 |",
    ]
    assert section(text, "## Certificates") == [
        "| db-01 | CN=cert-b | 2030-01-01T00:00:00+00:00 | valid |",
        "| db-01 | CN=cert-z | 2030-01-01T00:00:00+00:00 | valid |",
        "| web-01 | CN=cert-a | 2025-01-01T00:00:00+00:00 | EXPIRED |",
    ]
    assert report_counts(summaries)["hosts"] == {
        "db-01": {"algorithms": 0, "vulnerabilities": 3, "components": 3, "certificates": 2},
        "web-01": {"algorithms": 0, "vulnerabilities": 2, "components": 2, "certificates": 1},
    }

