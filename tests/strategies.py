"""Hypothesis generators for valid documents and deltas."""

from __future__ import annotations

import uuid
from dataclasses import replace

from hypothesis import strategies as st

from twinaudit.bom import (
    AnalysisState,
    Bom,
    BomKind,
    BomLink,
    BomMetadata,
    Component,
    ComponentType,
    CryptoAssetKind,
    CryptoProperties,
    Dependency,
    Severity,
    SubjectKind,
    VulnerabilityEntry,
    severity_for_score,
)

# Printable, JSON-safe names without the urn prefix that flips ref semantics.
names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_."),
    min_size=1,
    max_size=24,
).filter(lambda s: not s.startswith("urn:"))

versions = st.from_regex(r"[0-9]{1,3}(\.[0-9]{1,3}){0,2}", fullmatch=True)


@st.composite
def serial_numbers(draw) -> str:
    return f"urn:uuid:{uuid.UUID(int=draw(st.integers(0, 2**128 - 1)), version=4)}"


@st.composite
def bom_links(draw) -> BomLink:
    return BomLink(
        target_serial=draw(serial_numbers()),
        target_version=draw(st.integers(1, 50)),
        target_bom_ref=draw(st.one_of(st.none(), names)),
    )


@st.composite
def crypto_properties(draw) -> CryptoProperties:
    kind = draw(
        st.sampled_from(
            [CryptoAssetKind.ALGORITHM, CryptoAssetKind.PROTOCOL, CryptoAssetKind.KEY_MATERIAL]
        )
    )
    if kind == CryptoAssetKind.PROTOCOL:
        return CryptoProperties(
            asset_kind=kind,
            algorithm_family=draw(st.one_of(st.none(), st.sampled_from(["TLS", "SSH"]))),
            protocol_version=draw(st.sampled_from(["1.2", "1.3", "2.0"])),
            cipher_suite_refs=tuple(draw(st.lists(names, max_size=3, unique=True))),
        )
    return CryptoProperties(
        asset_kind=kind,
        algorithm_family=draw(st.one_of(st.none(), st.sampled_from(["AES", "RSA", "SHA2", "ECC"]))),
        parameter_set=draw(st.one_of(st.none(), st.sampled_from(["128", "256", "2048"]))),
        mode=draw(st.one_of(st.none(), st.sampled_from(["gcm", "cbc"]))),
    )


@st.composite
def certificate_properties(draw) -> CryptoProperties:
    return CryptoProperties(
        asset_kind=CryptoAssetKind.CERTIFICATE,
        certificate_subject=f"CN={draw(names)}",
        certificate_issuer=f"CN={draw(names)}",
        not_before="2024-01-01T00:00:00+00:00",
        not_after="2026-01-01T00:00:00+00:00",
        signature_algorithm_ref=draw(names),
    )


@st.composite
def components(draw, bom_ref: str) -> Component:
    ctype = draw(st.sampled_from(list(ComponentType)))
    crypto = None
    if ctype == ComponentType.CERTIFICATE:
        crypto = draw(certificate_properties())
    elif ctype == ComponentType.CRYPTO_ASSET:
        crypto = draw(crypto_properties())
    return Component(
        bom_ref=bom_ref,
        name=draw(names),
        component_type=ctype,
        version=draw(st.one_of(st.just(""), versions)),
        package_url=draw(st.one_of(st.none(), names.map(lambda n: f"pkg:generic/{n}"))),
        crypto=crypto,
    )


@st.composite
def vulnerability_entries(draw, refs: list[str]) -> VulnerabilityEntry:
    score = round(draw(st.floats(0.0, 10.0, allow_nan=False)), 1)
    year = draw(st.integers(1999, 2026))
    number = draw(st.integers(1000, 10**7))
    return VulnerabilityEntry(
        cve_id=f"CVE-{year}-{number}",
        cvss_score=score,
        cvss_vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
        severity=severity_for_score(score),
        affects=tuple(draw(st.lists(st.sampled_from(refs), min_size=1, max_size=3, unique=True))),
        analysis_state=draw(st.sampled_from(list(AnalysisState))),
    )


@st.composite
def boms(draw, max_components: int = 6) -> Bom:
    refs = draw(st.lists(names, min_size=1, max_size=max_components, unique=True))
    comps = tuple(draw(components(ref)) for ref in refs)

    deps = []
    dep_refs = draw(st.lists(st.sampled_from(refs), max_size=3, unique=True))
    for ref in dep_refs:
        targets = draw(
            st.lists(st.sampled_from(refs).filter(lambda r: r != ref), max_size=3, unique=True)
        )
        deps.append(Dependency(ref=ref, depends_on=tuple(targets)))

    raw_vulns = draw(st.lists(vulnerability_entries(refs), max_size=4))
    vulns, seen = [], set()
    for v in raw_vulns:
        if v.cve_id not in seen:
            seen.add(v.cve_id)
            vulns.append(v)

    metadata = BomMetadata(
        subject_kind=draw(st.sampled_from(list(SubjectKind))),
        subject_name=draw(names),
        timestamp=draw(st.one_of(st.none(), st.just("2026-02-01T12:00:00+00:00"))),
        properties=tuple(
            draw(
                st.lists(
                    st.tuples(names.map(lambda n: f"meta:{n}"), names),
                    max_size=3,
                    unique_by=lambda p: p[0],
                )
            )
        ),
    )
    return Bom(
        serial_number=draw(serial_numbers()),
        version=draw(st.integers(1, 40)),
        kind=draw(st.sampled_from(list(BomKind))),
        metadata=metadata,
        components=comps,
        dependencies=tuple(deps),
        vulnerabilities=tuple(vulns),
        links=tuple(draw(st.lists(bom_links(), max_size=2, unique_by=BomLink.render))),
    )


# Values that order property lists only through their JSON text: characters
# below '"' (space, "!"), the quote and backslash that JSON escapes, control
# and non-ASCII characters, and strings that are prefixes of one another.
_TRAP_CHARS = ("a", "b", " ", "!", '"', "\\", "\x00", "\x1f", "\x7f", "é", "\u2028", "\U0001f600")
trap_texts = st.text(alphabet=st.sampled_from(_TRAP_CHARS), max_size=2)


@st.composite
def order_trap_documents(draw) -> list[Bom]:
    """Documents of one subject whose property lists sort right only by
    their entries' JSON text. They need not be valid: the projection does
    not validate.

    Every string comes from a small pool of one stem plus short suffixes, so
    entries often tie on their first fields and differ in a later one, where
    a value may be a prefix of another or present in only one entry (purl,
    the crypto fields). Scores differ where "10.0" < "2.0", and a host and
    a profile document of one kind and serial can differ in version alone,
    the last field, where "10}" < "1}".
    """
    stem = draw(trap_texts)
    pool = [stem + suffix for suffix in draw(st.lists(trap_texts, min_size=1, max_size=3))]
    text = st.sampled_from(pool)
    maybe = st.one_of(st.none(), text)

    def crypto(ctype: ComponentType):
        if ctype not in (ComponentType.CRYPTO_ASSET, ComponentType.CERTIFICATE):
            return None
        return CryptoProperties(
            asset_kind=draw(st.sampled_from(list(CryptoAssetKind))),
            algorithm_family=draw(maybe),
            parameter_set=draw(maybe),
            mode=draw(maybe),
            certificate_subject=draw(maybe),
            certificate_issuer=draw(maybe),
            not_before=draw(maybe),
            not_after=draw(maybe),
            protocol_version=draw(maybe),
        )

    def component() -> Component:
        ctype = draw(st.sampled_from(list(ComponentType)))
        return Component(
            bom_ref=draw(text),
            name=draw(text),
            component_type=ctype,
            version=draw(text),
            package_url=draw(maybe),
            crypto=crypto(ctype),
        )

    def vulnerability() -> VulnerabilityEntry:
        return VulnerabilityEntry(
            cve_id=draw(text),
            cvss_score=draw(st.sampled_from([1.0, 2.0, 10.0, 10, 1.5])),
            cvss_vector="",
            severity=draw(st.sampled_from(list(Severity))),
            affects=tuple(draw(st.lists(text, max_size=2))),
            analysis_state=draw(st.sampled_from(list(AnalysisState))),
        )

    # One document per (subject kind, kind): a host and a profile document
    # of one kind share the subject's thing and the serial.
    serial = draw(st.sampled_from(["urn:uuid:a", "urn:uuid:a "]))
    documents = []
    pairs = st.tuples(
        st.sampled_from(list(SubjectKind)), st.sampled_from([BomKind.SBOM, BomKind.CBOM])
    )
    for subject_kind, kind in draw(st.lists(pairs, max_size=4, unique=True)):
        documents.append(
            Bom(
                serial_number=serial,
                version=draw(st.sampled_from([1, 10])),
                kind=kind,
                metadata=BomMetadata(subject_kind=subject_kind, subject_name="h"),
                components=tuple(component() for _ in range(draw(st.integers(0, 6)))),
                vulnerabilities=tuple(vulnerability() for _ in range(draw(st.integers(0, 3)))),
            )
        )
    return documents


@st.composite
def broken_boms(draw) -> Bom:
    """A document of boms() with one invariant of validate_bom broken, in a
    way its JSON rendering keeps: parsing the rendering must report exactly
    what validate_bom reports for the model."""
    bom = draw(boms())
    first = bom.components[0]
    ref = first.bom_ref
    cert = CryptoProperties(
        asset_kind=CryptoAssetKind.CERTIFICATE,
        certificate_subject="CN=a",
        certificate_issuer="CN=ca",
        not_before=draw(
            st.sampled_from(["2030-01-01T00:00:00+00:00", "2024-01-01", "soon"])
        ),
        not_after="2026-01-01T00:00:00+00:00",
        signature_algorithm_ref="sha256",
    )
    vuln = VulnerabilityEntry(
        cve_id="CVE-2024-99999",
        cvss_score=5.0,
        cvss_vector="",
        severity=Severity.MEDIUM,
        affects=(ref,),
    )

    def with_components(*comps: Component) -> Bom:
        return replace(bom, components=(*comps, *bom.components[1:]))

    def with_vulnerabilities(*vulns: VulnerabilityEntry) -> Bom:
        return replace(bom, vulnerabilities=(*bom.vulnerabilities, *vulns))

    breaks = [
        lambda: replace(bom, serial_number="urn:uuid:not-a-uuid"),
        lambda: replace(bom, version=draw(st.integers(-2, 0))),
        lambda: replace(bom, metadata=replace(bom.metadata, subject_name="")),
        lambda: replace(bom, metadata=replace(bom.metadata, properties=(("twinaudit:x", "y"),))),
        lambda: with_components(first, replace(first, name=first.name + "2")),
        lambda: with_components(replace(first, name="")),
        lambda: with_components(replace(first, bom_ref="")),
        lambda: with_components(
            replace(first, component_type=ComponentType.LIBRARY,
                    crypto=CryptoProperties(asset_kind=CryptoAssetKind.ALGORITHM))
        ),
        lambda: with_components(
            replace(first, component_type=ComponentType.CERTIFICATE, crypto=cert)
        ),
        lambda: replace(bom, dependencies=(*bom.dependencies, Dependency(ref, ("no:such",)))),
        lambda: replace(bom, dependencies=(*bom.dependencies, Dependency(ref, (ref,)))),
        lambda: with_vulnerabilities(replace(vuln, cve_id="CVE-1")),
        lambda: with_vulnerabilities(vuln, vuln),
        lambda: with_vulnerabilities(replace(vuln, cvss_score=11.5)),
        lambda: with_vulnerabilities(replace(vuln, severity=Severity.LOW)),
        lambda: with_vulnerabilities(replace(vuln, affects=("no:such",))),
        lambda: replace(bom, links=(*bom.links, *[draw(bom_links())] * 2)),
    ]
    return draw(st.sampled_from(breaks))()
