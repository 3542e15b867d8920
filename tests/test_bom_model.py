"""Model invariants: validation, severity banding, links."""

import inspect
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinaudit.bom import (
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
    validate_bom,
)

from .strategies import bom_links, boms

SERIAL = "urn:uuid:0b7a60e8-1d44-4c1c-9a3e-2f6d0c4a9b10"
OTHER_SERIAL = "urn:uuid:7f9c2a41-6b3d-4e8f-8c21-5a0d9e3f1b42"


def make_bom(**overrides) -> Bom:
    base = dict(
        serial_number=SERIAL,
        version=1,
        kind=BomKind.SBOM,
        metadata=BomMetadata(subject_kind=SubjectKind.HOST, subject_name="web-01"),
        components=(
            Component(bom_ref="lib-a", name="liba", component_type=ComponentType.LIBRARY),
            Component(bom_ref="lib-b", name="libb", component_type=ComponentType.LIBRARY),
        ),
    )
    base.update(overrides)
    return Bom(**base)


def violation_paths(bom: Bom) -> list[str]:
    return [v.path for v in validate_bom(bom)]


class TestSeverityBanding:
    @pytest.mark.parametrize(
        "score,expected",
        [
            (0.0, Severity.NONE),
            (0.1, Severity.LOW),
            (3.9, Severity.LOW),
            (4.0, Severity.MEDIUM),
            (6.9, Severity.MEDIUM),
            (7.0, Severity.HIGH),
            (8.9, Severity.HIGH),
            (9.0, Severity.CRITICAL),
            (10.0, Severity.CRITICAL),
        ],
    )
    def test_bands(self, score, expected):
        assert severity_for_score(score) == expected

    @pytest.mark.parametrize("score", [-0.1, 10.1])
    def test_out_of_range(self, score):
        assert severity_for_score(score) is None

    @given(st.floats(0.0, 10.0, allow_nan=False), st.floats(0.0, 10.0, allow_nan=False))
    def test_monotone(self, a, b):
        order = [Severity.NONE, Severity.LOW, Severity.MEDIUM, Severity.HIGH, Severity.CRITICAL]
        if a <= b:
            assert order.index(severity_for_score(a)) <= order.index(severity_for_score(b))


class TestBomLink:
    def test_render_parse_round_trip(self):
        link = BomLink(target_serial=SERIAL, target_version=3, target_bom_ref="lib-a")
        assert link.render() == f"urn:cdx:{SERIAL[len('urn:uuid:'):]}/3#lib-a"
        assert BomLink.parse(link.render()) == link

    def test_document_link_has_no_fragment(self):
        link = BomLink(target_serial=SERIAL, target_version=1)
        assert "#" not in link.render()
        assert BomLink.parse(link.render()) == link

    @pytest.mark.parametrize(
        "text",
        [
            "urn:cdx:not-a-uuid/1",
            "urn:cdx:0b7a60e8-1d44-4c1c-9a3e-2f6d0c4a9b10",
            "urn:cdx:0b7a60e8-1d44-4c1c-9a3e-2f6d0c4a9b10/0",
            "urn:uuid:0b7a60e8-1d44-4c1c-9a3e-2f6d0c4a9b10/1",
            "",
        ],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            BomLink.parse(text)

    @pytest.mark.parametrize(
        "serial", ["0b7a60e8-1d44-4c1c-9a3e-2f6d0c4a9b10", "urn:uuid:nope", SERIAL.upper(), ""]
    )
    def test_malformed_target_serial_is_refused_at_construction(self, serial):
        """render() slices the serial it was built with, so the serial is
        checked once, when the link is made (replace makes one too)."""
        with pytest.raises(ValueError):
            BomLink(target_serial=serial, target_version=1)
        with pytest.raises(ValueError):
            replace(BomLink(SERIAL, 1), target_serial=serial)

    @given(bom_links())
    def test_render_matches_serial_uuid(self, link):
        fragment = "" if link.target_bom_ref is None else f"#{link.target_bom_ref}"
        uuid = link.target_serial.removeprefix("urn:uuid:")
        expected = f"urn:cdx:{uuid}/{link.target_version}{fragment}"
        assert link.render() == expected


MODEL_TYPES = [
    BomLink, CryptoProperties, Component, Dependency, VulnerabilityEntry, BomMetadata, Bom
]


class TestConstruction:
    """Each model type has one hand-written constructor; these pin it to
    the type's dataclass fields."""

    @pytest.mark.parametrize("cls", MODEL_TYPES, ids=lambda c: c.__name__)
    def test_constructor_takes_the_fields_in_order_with_their_defaults(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert [(p.name, p.default) for p in params] == [
            (f.name, inspect.Parameter.empty if f.default is MISSING else f.default)
            for f in fields(cls)
        ]

    @given(boms())
    def test_values_are_frozen_hashable_and_rebuilt_equal(self, bom):
        values = [bom, bom.metadata, *bom.components, *bom.dependencies,
                  *bom.vulnerabilities, *bom.links]
        values += [c.crypto for c in bom.components if c.crypto is not None]
        for value in values:
            with pytest.raises(FrozenInstanceError):
                value.__setattr__(fields(value)[0].name, None)
            again = replace(value)
            assert again == value and hash(again) == hash(value)
            assert again is not value

    def test_unordered_fields_are_sorted_by_the_constructor_and_by_replace(self):
        dep = Dependency("a", ["c", "b"])
        assert dep.depends_on == ("b", "c")
        assert replace(dep, depends_on=["z", "y"]).depends_on == ("y", "z")
        vuln = VulnerabilityEntry("CVE-2024-0001", 5.0, "", Severity.MEDIUM, iter(["b", "a"]))
        assert vuln.affects == ("a", "b")
        crypto = CryptoProperties(CryptoAssetKind.PROTOCOL, cipher_suite_refs=["y", "x"])
        assert crypto.cipher_suite_refs == ("x", "y")
        metadata = BomMetadata(SubjectKind.HOST, "h", properties=[["b", "1"], ["a", "2"]])
        assert metadata.properties == (("a", "2"), ("b", "1"))
        bom = make_bom(components=tuple(reversed(make_bom().components)),
                       extras=[["z", "1"], ["y", "2"]])
        assert [c.bom_ref for c in bom.components] == ["lib-a", "lib-b"]
        assert bom.extras == (("y", "2"), ("z", "1"))


class TestValidation:
    def test_clean_document(self):
        assert validate_bom(make_bom()) == []

    def test_bad_serial(self):
        assert "serialNumber" in violation_paths(make_bom(serial_number="urn:uuid:nope"))

    def test_version_must_be_positive(self):
        assert "version" in violation_paths(make_bom(version=0))

    def test_empty_subject_name(self):
        bom = make_bom(
            metadata=BomMetadata(subject_kind=SubjectKind.HOST, subject_name="")
        )
        assert "metadata.component.name" in violation_paths(bom)

    def test_reserved_property_prefix(self):
        bom = make_bom(
            metadata=BomMetadata(
                subject_kind=SubjectKind.HOST,
                subject_name="web-01",
                properties=(("twinaudit:sneaky", "x"),),
            )
        )
        assert any("reserved" in v.message for v in validate_bom(bom))

    def test_duplicate_bom_ref(self):
        bom = make_bom(
            components=(
                Component(bom_ref="dup", name="a", component_type=ComponentType.LIBRARY),
                Component(bom_ref="dup", name="b", component_type=ComponentType.LIBRARY),
            )
        )
        assert any("duplicate bom_ref" in v.message for v in validate_bom(bom))

    def test_crypto_component_requires_properties(self):
        bom = make_bom(
            components=(
                Component(bom_ref="alg", name="aes", component_type=ComponentType.CRYPTO_ASSET),
            )
        )
        assert any(v.path.endswith("cryptoProperties") for v in validate_bom(bom))

    def test_plain_component_rejects_properties(self):
        bom = make_bom(
            components=(
                Component(
                    bom_ref="lib",
                    name="zlib",
                    component_type=ComponentType.LIBRARY,
                    crypto=CryptoProperties(asset_kind=CryptoAssetKind.ALGORITHM),
                ),
            )
        )
        assert any("only valid on crypto components" in v.message for v in validate_bom(bom))

    def test_certificate_fields_only_on_certificates(self):
        bom = make_bom(
            components=(
                Component(
                    bom_ref="alg",
                    name="aes",
                    component_type=ComponentType.CRYPTO_ASSET,
                    crypto=CryptoProperties(
                        asset_kind=CryptoAssetKind.ALGORITHM, certificate_subject="CN=x"
                    ),
                ),
            )
        )
        assert any("only valid for certificate assets" in v.message for v in validate_bom(bom))

    def test_certificate_requires_all_fields(self):
        bom = make_bom(
            components=(
                Component(
                    bom_ref="crt",
                    name="cert",
                    component_type=ComponentType.CERTIFICATE,
                    crypto=CryptoProperties(
                        asset_kind=CryptoAssetKind.CERTIFICATE,
                        certificate_subject="CN=x",
                    ),
                ),
            )
        )
        assert any("required for certificate assets" in v.message for v in validate_bom(bom))

    def test_certificate_validity_window_ordering(self):
        bom = make_bom(
            components=(
                Component(
                    bom_ref="crt",
                    name="cert",
                    component_type=ComponentType.CERTIFICATE,
                    crypto=CryptoProperties(
                        asset_kind=CryptoAssetKind.CERTIFICATE,
                        certificate_subject="CN=x",
                        certificate_issuer="CN=y",
                        not_before="2026-01-01T00:00:00+00:00",
                        not_after="2024-01-01T00:00:00+00:00",
                        signature_algorithm_ref="sig",
                    ),
                ),
            )
        )
        assert any("exceeds not_after" in v.message for v in validate_bom(bom))

    def test_protocol_requires_version(self):
        bom = make_bom(
            components=(
                Component(
                    bom_ref="tls",
                    name="tls",
                    component_type=ComponentType.CRYPTO_ASSET,
                    crypto=CryptoProperties(asset_kind=CryptoAssetKind.PROTOCOL),
                ),
            )
        )
        assert any("required for protocol assets" in v.message for v in validate_bom(bom))

    def test_self_dependency(self):
        bom = make_bom(dependencies=(Dependency(ref="lib-a", depends_on=("lib-a",)),))
        assert any("self-dependency" in v.message for v in validate_bom(bom))

    def test_duplicate_dependency_entry(self):
        bom = make_bom(
            dependencies=(
                Dependency(ref="lib-a", depends_on=("lib-b",)),
                Dependency(ref="lib-a", depends_on=()),
            )
        )
        assert any("duplicate dependency entry" in v.message for v in validate_bom(bom))

    def test_dangling_dependency_target(self):
        bom = make_bom(dependencies=(Dependency(ref="lib-a", depends_on=("ghost",)),))
        assert any("unknown bom_ref" in v.message for v in validate_bom(bom))

    def test_bom_link_refs_are_allowed_in_dependencies(self):
        external = BomLink(target_serial=OTHER_SERIAL, target_version=1, target_bom_ref="x")
        bom = make_bom(
            dependencies=(Dependency(ref="lib-a", depends_on=(external.render(),)),)
        )
        assert validate_bom(bom) == []

    def make_vuln_bom(self, **vuln_overrides) -> Bom:
        vuln = dict(
            cve_id="CVE-2024-12345",
            cvss_score=9.8,
            cvss_vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
            severity=Severity.CRITICAL,
            affects=("lib-a",),
        )
        vuln.update(vuln_overrides)
        return make_bom(vulnerabilities=(VulnerabilityEntry(**vuln),))

    def test_clean_vulnerability(self):
        assert validate_bom(self.make_vuln_bom()) == []

    def test_malformed_cve_id(self):
        bom = self.make_vuln_bom(cve_id="GHSA-xxxx-yyyy")
        assert any("malformed CVE" in v.message for v in validate_bom(bom))

    def test_duplicate_cve(self):
        vuln = self.make_vuln_bom().vulnerabilities[0]
        bom = make_bom(vulnerabilities=(vuln, vuln))
        assert any("duplicate entry" in v.message for v in validate_bom(bom))

    def test_score_out_of_range(self):
        bom = self.make_vuln_bom(cvss_score=10.1)
        assert any("outside [0,10]" in v.message for v in validate_bom(bom))

    def test_affects_must_be_non_empty(self):
        bom = self.make_vuln_bom(affects=())
        assert any("at least one component" in v.message for v in validate_bom(bom))

    def test_affects_must_resolve(self):
        bom = self.make_vuln_bom(affects=("ghost",))
        assert any("unknown bom_ref" in v.message for v in validate_bom(bom))

    def test_severity_must_match_score(self):
        bom = self.make_vuln_bom(cvss_score=2.0, severity=Severity.CRITICAL)
        assert any("inconsistent with score" in v.message for v in validate_bom(bom))

    def test_duplicate_bom_link(self):
        """Deltas key links by their URN, so a repeated link would collapse
        into one when a delta is applied."""
        link = BomLink(target_serial=OTHER_SERIAL, target_version=1)
        other = BomLink(target_serial=OTHER_SERIAL, target_version=2)
        bom = make_bom(links=(link, other, link))
        assert [(v.path, v.message) for v in validate_bom(bom)] == [
            ("externalReferences[1].url", "duplicate bom-link")
        ]
        assert validate_bom(make_bom(links=(link, other))) == []

    @settings(max_examples=100)
    @given(boms())
    def test_generated_documents_are_clean(self, bom):
        assert validate_bom(bom) == []

