"""Human-readable audit reports rendered from document summaries.

Reports read the summarize_bom results the audit service stores with each
run, and all tallies come from count_summaries; the report never counts on
its own and parses no document.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Any, Iterable, Optional

from .forge import ArtifactCounts, count_summaries

__all__ = ["render_report", "report_counts"]

_COUNT_COLUMNS = ("Algorithms", "Vulnerabilities", "Components", "Certificates")


def _counts_row(label: str, counts: ArtifactCounts) -> str:
    return (
        f"| {label} | {counts.algorithms} | {counts.vulnerabilities}"
        f" | {counts.components} | {counts.certificates} |"
    )


def _counts_table(
    rows: list[tuple[str, ArtifactCounts]], total: ArtifactCounts, label: str
) -> list[str]:
    header = "| " + " | ".join((label,) + _COUNT_COLUMNS) + " |"
    rule = "|---" + "|---:" * len(_COUNT_COLUMNS) + "|"
    lines = [header, rule]
    lines += [_counts_row(label, counts) for label, counts in rows]
    lines.append(_counts_row("**Total**", total))
    return lines


def _group_counts(
    counts: dict[str, ArtifactCounts],
    roles: dict[str, str],
    group_labels: Optional[dict[str, str]],
) -> dict[str, ArtifactCounts]:
    labels = group_labels or {}
    grouped: dict[str, ArtifactCounts] = {}
    for host, tally in counts.items():
        role = roles.get(host, "unassigned")
        label = labels.get(role, role)
        grouped[label] = grouped.get(label, ArtifactCounts()) + tally
    return grouped


def _merged_vulnerabilities(
    summaries: Iterable[dict[str, Any]],
) -> list[tuple[str, float, str, int]]:
    """(CVE, score, severity, affected components) per CVE, worst first.

    A CVE found in several documents keeps the first highest score with its
    severity, and counts the union of its affected refs.
    """
    merged: dict[str, tuple[float, str, Any]] = {}
    for summary in summaries:
        for cve, score, severity, affects in summary["vulnerabilities"]:
            known = merged.get(cve)
            if known is not None:
                if known[0] >= score:
                    score, severity = known[0], known[1]
                affects = set(known[2]) | set(affects)
            merged[cve] = (score, severity, affects)
    return sorted(
        ((cve, score, severity, len(affects)) for cve, (score, severity, affects) in merged.items()),
        key=lambda v: (-v[1], v[0]),
    )


def report_counts(
    boms: list[dict[str, Any]],
    roles: Optional[dict[str, str]] = None,
    group_labels: Optional[dict[str, str]] = None,
) -> dict:
    """Machine-readable tally block: per host, per group, and total.

    boms are the documents' summaries, as AuditService.run_boms returns them.
    """
    counts, total = count_summaries(boms)

    def as_dict(c: ArtifactCounts) -> dict:
        return {
            "algorithms": c.algorithms,
            "vulnerabilities": c.vulnerabilities,
            "components": c.components,
            "certificates": c.certificates,
        }

    doc = {
        "hosts": {host: as_dict(c) for host, c in counts.items()},
        "total": as_dict(total),
    }
    if roles:
        grouped = _group_counts(counts, roles, group_labels)
        doc["groups"] = {label: as_dict(c) for label, c in sorted(grouped.items())}
    return doc


def render_report(
    boms: list[dict[str, Any]],
    roles: Optional[dict[str, str]] = None,
    group_labels: Optional[dict[str, str]] = None,
    group_order: Optional[list[str]] = None,
    top: int = 10,
    now: Optional[str] = None,
) -> str:
    """Markdown report: tallies, worst vulnerabilities, certificate expiry.

    boms are the documents' summaries, as AuditService.run_boms returns them.
    """
    counts, total = count_summaries(boms)
    now = now or datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")

    lines: list[str] = ["# Audit report", ""]

    if roles:
        grouped = _group_counts(counts, roles, group_labels)
        ordered: list[tuple[str, ArtifactCounts]] = []
        for label in group_order or []:
            if label in grouped:
                ordered.append((label, grouped.pop(label)))
        ordered += sorted(grouped.items())
        lines += ["## Artifact counts by host group", ""]
        lines += _counts_table(ordered, total, "Host group")
        lines.append("")

    lines += ["## Artifact counts by host", ""]
    lines += _counts_table(sorted(counts.items()), total, "Host")
    lines.append("")

    vulnerabilities = _merged_vulnerabilities(boms)
    lines += [f"## Top vulnerabilities ({min(top, len(vulnerabilities))} of {len(vulnerabilities)})", ""]
    if vulnerabilities:
        lines += [
            "| CVE | CVSS | Severity | Affected components |",
            "|---|---:|---|---:|",
        ]
        for cve, score, severity, affected in vulnerabilities[:top]:
            lines.append(f"| {cve} | {score:.1f} | {severity} | {affected} |")
    else:
        lines.append("No known vulnerabilities matched the inventory.")
    lines.append("")

    certificates = [
        (summary["subject"], certificate)
        for summary in boms
        for certificate in summary["certificates"]
    ]
    lines += ["## Certificates", ""]
    if certificates:
        lines += [
            "| Host | Subject | Not valid after | Status |",
            "|---|---|---|---|",
        ]
        for host, (_, subject, not_after) in sorted(certificates, key=lambda t: (t[0], t[1][0])):
            status = "EXPIRED" if not_after and not_after <= now else "valid"
            lines.append(f"| {host} | {subject} | {not_after} | {status} |")
    else:
        lines.append("No certificates observed.")
    lines.append("")
    return "\n".join(lines)
