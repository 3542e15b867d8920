"""Canonical serialization: golden output, round trips, strict/lenient parse."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinaudit.bom import (
    Bom,
    BomKind,
    BomMetadata,
    BomParseError,
    BomSchemaError,
    BomValidationError,
    SubjectKind,
    bom_to_dict,
    parse_bom,
    serialize_bom,
    validate_bom,
)

from .strategies import boms, broken_boms

SERIAL = "urn:uuid:0b7a60e8-1d44-4c1c-9a3e-2f6d0c4a9b10"

# Frozen by hand: the one canonical rendering of the empty document.
GOLDEN_EMPTY = (
    '{"bomFormat":"CycloneDX",'
    '"components":[],'
    '"metadata":{"component":{"name":"web-01","type":"device"},'
    '"properties":[{"name":"twinaudit:kind","value":"SBOM"}]},'
    f'"serialNumber":"{SERIAL}",'
    '"specVersion":"1.6",'
    '"version":1}'
)


def empty_bom() -> Bom:
    return Bom(
        serial_number=SERIAL,
        version=1,
        kind=BomKind.SBOM,
        metadata=BomMetadata(subject_kind=SubjectKind.HOST, subject_name="web-01"),
    )


class TestSerialize:
    def test_golden_empty_document(self):
        assert serialize_bom(empty_bom()) == GOLDEN_EMPTY

    def test_components_key_present_even_when_empty(self):
        assert '"components":[]' in serialize_bom(empty_bom())

    def test_empty_sections_omitted(self):
        text = serialize_bom(empty_bom())
        for key in ("dependencies", "vulnerabilities", "externalReferences"):
            assert key not in text

    def test_invalid_document_is_rejected_whole(self):
        bad = Bom(
            serial_number="not-a-serial",
            version=1,
            kind=BomKind.SBOM,
            metadata=BomMetadata(subject_kind=SubjectKind.HOST, subject_name="web-01"),
        )
        with pytest.raises(BomValidationError) as err:
            serialize_bom(bad)
        assert any(v.path == "serialNumber" for v in err.value.violations)

    @settings(max_examples=120, deadline=None)
    @given(boms())
    def test_round_trip_identity(self, bom):
        text = serialize_bom(bom)
        parsed = parse_bom(text)
        assert parsed == bom
        assert serialize_bom(parsed) == text

    @settings(max_examples=60, deadline=None)
    @given(boms())
    def test_input_order_does_not_matter(self, bom):
        rng = random.Random(7)
        shuffled = Bom(
            serial_number=bom.serial_number,
            version=bom.version,
            kind=bom.kind,
            metadata=bom.metadata,
            components=tuple(rng.sample(bom.components, len(bom.components))),
            dependencies=tuple(rng.sample(bom.dependencies, len(bom.dependencies))),
            vulnerabilities=tuple(
                rng.sample(bom.vulnerabilities, len(bom.vulnerabilities))
            ),
            links=tuple(rng.sample(bom.links, len(bom.links))),
        )
        assert serialize_bom(shuffled) == serialize_bom(bom)


class TestParse:
    def test_malformed_json_reports_position(self):
        with pytest.raises(BomParseError) as err:
            parse_bom('{"bomFormat": "CycloneDX",')
        assert err.value.line == 1
        assert err.value.column > 1

    def test_missing_serial_number(self):
        doc = json.loads(GOLDEN_EMPTY)
        del doc["serialNumber"]
        with pytest.raises(BomSchemaError) as err:
            parse_bom(json.dumps(doc))
        assert any(
            "missing required field serialNumber" in v.message for v in err.value.violations
        )

    @pytest.mark.parametrize(
        "field,value,expected",
        [
            ("bomFormat", "SPDX", "expected 'CycloneDX'"),
            ("specVersion", "1.4", "unsupported version"),
            ("version", "one", "expected int"),
        ],
    )
    def test_header_field_checks(self, field, value, expected):
        doc = json.loads(GOLDEN_EMPTY)
        doc[field] = value
        with pytest.raises(BomSchemaError) as err:
            parse_bom(json.dumps(doc))
        assert any(expected in v.message for v in err.value.violations)

    def test_non_object_root(self):
        with pytest.raises(BomSchemaError):
            parse_bom("[1,2,3]")

    def test_strict_rejects_unknown_top_level_field(self):
        doc = json.loads(GOLDEN_EMPTY)
        doc["x-vendor"] = {"tool": "scanner", "level": 3}
        with pytest.raises(BomSchemaError) as err:
            parse_bom(json.dumps(doc))
        assert any(v.path == "x-vendor" for v in err.value.violations)

    def test_lenient_preserves_unknown_top_level_field(self):
        doc = json.loads(GOLDEN_EMPTY)
        doc["x-vendor"] = {"tool": "scanner", "level": 3}
        bom = parse_bom(json.dumps(doc), strict=False)
        assert bom.extras == (("x-vendor", '{"level":3,"tool":"scanner"}'),)
        out = json.loads(serialize_bom(bom))
        assert out["x-vendor"] == {"tool": "scanner", "level": 3}

    def test_strict_rejects_unknown_component_field(self):
        doc = json.loads(GOLDEN_EMPTY)
        doc["components"] = [
            {"bom-ref": "a", "type": "library", "name": "liba", "licenses": []}
        ]
        with pytest.raises(BomSchemaError) as err:
            parse_bom(json.dumps(doc))
        assert any("licenses" in v.path for v in err.value.violations)

    def test_lenient_tolerates_unknown_component_field(self):
        doc = json.loads(GOLDEN_EMPTY)
        doc["components"] = [
            {"bom-ref": "a", "type": "library", "name": "liba", "licenses": []}
        ]
        bom = parse_bom(json.dumps(doc), strict=False)
        assert [c.name for c in bom.components] == ["liba"]

    def test_semantic_violations_surface_at_parse(self):
        doc = json.loads(GOLDEN_EMPTY)
        doc["components"] = [{"bom-ref": "a", "type": "library", "name": "liba"}]
        doc["vulnerabilities"] = [
            {
                "id": "CVE-2024-1111",
                "ratings": [
                    {"method": "CVSSv31", "score": 9.8, "severity": "low", "vector": "V"}
                ],
                "analysis": {"state": "in_triage"},
                "affects": [{"ref": "a"}],
            }
        ]
        with pytest.raises(BomSchemaError) as err:
            parse_bom(json.dumps(doc))
        assert any("inconsistent with score" in v.message for v in err.value.violations)

    def test_missing_kind_property_rejected_in_strict(self):
        doc = json.loads(GOLDEN_EMPTY)
        doc["metadata"]["properties"] = []
        with pytest.raises(BomSchemaError) as err:
            parse_bom(json.dumps(doc))
        assert any("twinaudit:kind" in v.message for v in err.value.violations)

    def test_missing_kind_property_defaults_in_lenient(self):
        doc = json.loads(GOLDEN_EMPTY)
        doc["metadata"]["properties"] = []
        assert parse_bom(json.dumps(doc), strict=False).kind == BomKind.MIXED


# -- malformed documents: the exact ordered violations ------------------------

DROP = object()  # patch value that removes the field
LINK = "urn:cdx:0b7a60e8-1d44-4c1c-9a3e-2f6d0c4a9b11/1"
KIND_SBOM = [{"name": "twinaudit:kind", "value": "SBOM"}]
SUBJECT = {"type": "device", "name": "web-01"}
RATING = [{"score": 5.0, "severity": "medium"}]


def _cc(**fields):
    """A cryptographic-asset component with bom-ref c and the given fields."""
    return {"bom-ref": "c", "type": "cryptographic-asset", "name": "c", **fields}


def _cve(**fields):
    return {"id": "CVE-2024-0001", **fields}


def _patched(patch):
    doc = {
        "bomFormat": "CycloneDX",
        "specVersion": "1.6",
        "serialNumber": SERIAL,
        "version": 1,
        "metadata": {"component": dict(SUBJECT), "properties": list(KIND_SBOM)},
        "components": [{"bom-ref": "a", "type": "library", "name": "liba"}],
    }
    for key, value in patch.items():
        if value is DROP:
            del doc[key]
        else:
            doc[key] = value
    return doc


C0 = "components[0]"
CP = "components[0].cryptoProperties"
V0 = "vulnerabilities[0]"
R0 = "vulnerabilities[0].ratings[0]"
MISSING_KIND = ("metadata.properties", "missing required property twinaudit:kind")

MALFORMED = [
    # header
    ("header-types",
     {"bomFormat": 5, "specVersion": None, "serialNumber": [], "version": True},
     [("bomFormat", "expected str"), ("specVersion", "expected str"),
      ("serialNumber", "expected str"), ("version", "expected int")]),
    ("header-missing", {"bomFormat": DROP, "version": "1"},
     [("bomFormat", "missing required field bomFormat"), ("version", "expected int")]),
    ("version-float", {"version": 1.0}, [("version", "expected int")]),
    ("unknown-top-level-in-document-order", {"zeta": 1, "alpha": {}},
     [("zeta", "unknown field"), ("alpha", "unknown field")]),
    ("sections-not-lists",
     {"components": {}, "dependencies": "a", "vulnerabilities": 3, "externalReferences": {}},
     [("components", "expected list"), ("dependencies", "expected list"),
      ("vulnerabilities", "expected list"), ("externalReferences", "expected list")]),
    ("components-missing", {"components": DROP},
     [("components", "missing required field components")]),
    # metadata
    ("metadata-not-object", {"metadata": []}, [("metadata", "expected dict"), MISSING_KIND]),
    ("metadata-missing", {"metadata": DROP},
     [("metadata", "missing required field metadata"), MISSING_KIND]),
    ("metadata-component-missing", {"metadata": {"properties": KIND_SBOM}},
     [("metadata", "missing required field component")]),
    ("metadata-component-bad",
     {"metadata": {"component": {"type": "vm", "name": 5}, "properties": KIND_SBOM}},
     [("metadata.component.type", "unknown subject type"),
      ("metadata.component.name", "missing subject name")]),
    ("metadata-component-not-object",
     {"metadata": {"component": "web-01", "properties": KIND_SBOM}},
     [("metadata.component", "expected dict")]),
    ("metadata-field-types",
     {"metadata": {"component": SUBJECT, "timestamp": 5, "properties": {}}},
     [("metadata.timestamp", "expected str"), ("metadata.properties", "expected list"),
      MISSING_KIND]),
    ("metadata-property-entries",
     {"metadata": {"component": SUBJECT, "properties": [
         5, {"name": "a"}, {"name": "b", "value": 1},
         {"name": "twinaudit:kind", "value": "BOGUS"}]}},
     [("metadata.properties[0]", "entries must be {name, value}"),
      ("metadata.properties[1]", "entries must be {name, value}"),
      ("metadata.properties[2]", "entries must be {name, value}"),
      ("metadata.properties[3]", "unknown bom kind"), MISSING_KIND]),
    ("metadata-unknown-fields",
     {"metadata": {"tools": [], "component": SUBJECT, "properties": KIND_SBOM,
                   "lifecycles": 1}},
     [("metadata.tools", "unknown field"), ("metadata.lifecycles", "unknown field")]),
    ("metadata-component-unknown-fields",
     {"metadata": {"component": {"bom-ref": "x", **SUBJECT, "version": "1"},
                   "properties": KIND_SBOM}},
     [("metadata.component.bom-ref", "unknown field"),
      ("metadata.component.version", "unknown field")]),
    ("metadata-property-unknown-fields",
     {"metadata": {"component": SUBJECT, "properties": [
         {"name": "twinaudit:kind", "value": "SBOM", "type": "x"}, {"name": "a", "zz": 1}]}},
     [("metadata.properties[0].type", "unknown field"),
      ("metadata.properties[1]", "entries must be {name, value}"),
      ("metadata.properties[1].zz", "unknown field")]),
    # components
    ("component-not-object", {"components": [5, "a", None]},
     [(f"components[{i}]", "must be an object") for i in range(3)]),
    ("component-empty", {"components": [{}]},
     [(C0, "missing required field bom-ref"), (C0, "missing required field type"),
      (C0, "missing required field name")]),
    ("component-field-types",
     {"components": [{"bom-ref": 5, "type": True, "name": None, "version": 3, "purl": [],
                      "cryptoProperties": "x"}]},
     [(f"{C0}.bom-ref", "expected str"), (f"{C0}.type", "expected str"),
      (f"{C0}.name", "expected str"), (f"{C0}.version", "expected str"),
      (f"{C0}.purl", "expected str"), (CP, "expected dict")]),
    ("component-unknown-type",
     {"components": [{"bom-ref": "a", "type": "firmware", "name": "f"}]},
     [(f"{C0}.type", "unknown component type 'firmware'")]),
    ("component-unknown-fields",
     {"components": [
         {"licenses": [], "bom-ref": "a", "type": "library", "name": "liba", "x-b": 1},
         {"bom-ref": "b", "type": "library", "name": "libb", "supplier": {}}]},
     [(f"{C0}.licenses", "unknown field"), (f"{C0}.x-b", "unknown field"),
      ("components[1].supplier", "unknown field")]),
    ("component-unknown-field-and-missing",
     {"components": [{"type": "library", "hashes": []}]},
     [(C0, "missing required field bom-ref"), (C0, "missing required field name"),
      (f"{C0}.hashes", "unknown field")]),
    # crypto
    ("crypto-asset-missing", {"components": [_cc(cryptoProperties={"oid": "1.2"})]},
     [(CP, "missing required field assetType"),
      (f"{CP}.assetType", "unknown asset type None")]),
    ("crypto-asset-unknown-stops-the-object",
     {"components": [_cc(cryptoProperties={
         "assetType": "quantum", "oid": "1.2", "algorithmProperties": {"family": 1}})]},
     [(f"{CP}.assetType", "unknown asset type 'quantum'")]),
    ("crypto-asset-wrong-type", {"components": [_cc(cryptoProperties={"assetType": 7})]},
     [(f"{CP}.assetType", "expected str"), (f"{CP}.assetType", "unknown asset type None")]),
    ("crypto-algorithm-properties",
     {"components": [_cc(cryptoProperties={
         "assetType": "algorithm", "oid": "1.2",
         "algorithmProperties": {"family": 1, "curve": "p256", "parameterSetIdentifier": [],
                                 "mode": None, "padding": "x"}})]},
     [(f"{CP}.algorithmProperties.family", "expected str"),
      (f"{CP}.algorithmProperties.parameterSetIdentifier", "expected str"),
      (f"{CP}.algorithmProperties.mode", "expected str"),
      (f"{CP}.algorithmProperties.curve", "unknown field"),
      (f"{CP}.algorithmProperties.padding", "unknown field"),
      (f"{CP}.oid", "unknown field")]),
    ("crypto-sections-not-objects",
     {"components": [_cc(cryptoProperties={
         "assetType": "protocol", "algorithmProperties": [], "certificateProperties": 1,
         "protocolProperties": "tls"})]},
     [(f"{CP}.algorithmProperties", "expected dict"),
      (f"{CP}.certificateProperties", "expected dict"),
      (f"{CP}.protocolProperties", "expected dict")]),
    ("crypto-certificate-properties",
     {"components": [_cc(cryptoProperties={
         "assetType": "certificate",
         "certificateProperties": {"subjectName": 5, "serial": "01", "issuerName": "CN=ca",
                                   "notValidBefore": None, "notValidAfter": [],
                                   "signatureAlgorithmRef": {}, "format": "X.509"}})]},
     [(f"{CP}.certificateProperties.subjectName", "expected str"),
      (f"{CP}.certificateProperties.notValidBefore", "expected str"),
      (f"{CP}.certificateProperties.notValidAfter", "expected str"),
      (f"{CP}.certificateProperties.signatureAlgorithmRef", "expected str"),
      (f"{CP}.certificateProperties.serial", "unknown field"),
      (f"{CP}.certificateProperties.format", "unknown field")]),
    ("crypto-protocol-properties",
     {"components": [_cc(cryptoProperties={
         "assetType": "protocol",
         "protocolProperties": {"version": 1.3, "ikev2": {}, "type": 5,
                                "cipherSuites": "all", "z": 0}})]},
     [(f"{CP}.protocolProperties.version", "expected str"),
      (f"{CP}.protocolProperties.type", "expected str"),
      (f"{CP}.protocolProperties.cipherSuites", "expected list"),
      (f"{CP}.protocolProperties.ikev2", "unknown field"),
      (f"{CP}.protocolProperties.z", "unknown field")]),
    ("crypto-unknown-fields-innermost-first",
     {"components": [_cc(**{"x-c": 1}, cryptoProperties={
         "nistQuantumSecurityLevel": 1, "assetType": "algorithm",
         "algorithmProperties": {"x-a": 1}})]},
     [(f"{CP}.algorithmProperties.x-a", "unknown field"),
      (f"{CP}.nistQuantumSecurityLevel", "unknown field"), (f"{C0}.x-c", "unknown field")]),
    # vulnerabilities
    ("vulnerability-not-object", {"vulnerabilities": [[], 1]},
     [("vulnerabilities[0]", "must be an object"), ("vulnerabilities[1]", "must be an object")]),
    ("vulnerability-empty", {"vulnerabilities": [{}]},
     [(V0, "missing required field id"), (V0, "missing required field ratings"),
      (f"{V0}.ratings", "must carry one CVSS rating"), (V0, "missing required field affects")]),
    ("vulnerability-field-types",
     {"vulnerabilities": [{"id": 5, "ratings": {}, "analysis": [], "affects": "a"}]},
     [(f"{V0}.id", "expected str"), (f"{V0}.ratings", "expected list"),
      (f"{V0}.ratings", "must carry one CVSS rating"), (f"{V0}.analysis", "expected dict"),
      (f"{V0}.affects", "expected list")]),
    ("vulnerability-empty-ratings",
     {"vulnerabilities": [_cve(ratings=[], affects=[{"ref": "a"}])]},
     [(f"{V0}.ratings", "must carry one CVSS rating")]),
    ("vulnerability-rating-not-object",
     {"vulnerabilities": [_cve(ratings=[5], affects=[{"ref": "a"}])]},
     [(R0, "missing required field score"), (R0, "missing required field severity"),
      (f"{R0}.severity", "unknown severity None")]),
    ("vulnerability-rating-fields",
     {"vulnerabilities": [_cve(
         ratings=[{"score": "high", "vector": 1, "method": 2, "severity": "urgent",
                   "source": {}}],
         affects=[{"ref": "a"}])]},
     [(f"{R0}.score", "expected float"), (f"{R0}.vector", "expected str"),
      (f"{R0}.method", "expected str"), (f"{R0}.severity", "unknown severity 'urgent'"),
      (f"{R0}.source", "unknown field")]),
    ("vulnerability-rating-bool-score",
     {"vulnerabilities": [_cve(ratings=[{"score": True, "severity": 3}],
                               affects=[{"ref": "a"}])]},
     [(f"{R0}.score", "expected float"), (f"{R0}.severity", "expected str"),
      (f"{R0}.severity", "unknown severity None")]),
    ("vulnerability-analysis-and-affects",
     {"vulnerabilities": [_cve(
         ratings=[{"score": 5, "severity": "medium"}], analysis={"state": "fixed-ish"},
         affects=[5, {"ref": 1}, {"ref": "a"}, {}])]},
     [(f"{V0}.analysis.state", "unknown state 'fixed-ish'")]
     + [(f"{V0}.affects", "entries must be {ref: string}")] * 3),
    ("vulnerability-unknown-fields",
     {"vulnerabilities": [{"description": "d", **_cve(ratings=RATING, affects=[{"ref": "a"}]),
                           "cwes": [79]}]},
     [(f"{V0}.description", "unknown field"), (f"{V0}.cwes", "unknown field")]),
    ("vulnerability-rating-unknown-fields",
     {"vulnerabilities": [_cve(
         ratings=[{"source": {}, "score": 5.0, "severity": "medium", "x-r": 1}],
         affects=[{"ref": "a"}])]},
     [(f"{R0}.source", "unknown field"), (f"{R0}.x-r", "unknown field")]),
    ("vulnerability-analysis-unknown-fields",
     {"vulnerabilities": [_cve(ratings=RATING, analysis={"state": "bogus", "detail": "d"},
                               affects=[{"ref": "a"}])]},
     [(f"{V0}.analysis.state", "unknown state 'bogus'"),
      (f"{V0}.analysis.detail", "unknown field")]),
    ("vulnerability-affects-unknown-fields",
     {"vulnerabilities": [_cve(ratings=RATING,
                               affects=[{"ref": "a", "versions": []}, {"ref": 1, "zz": 1}])]},
     [(f"{V0}.affects[0].versions", "unknown field"),
      (f"{V0}.affects", "entries must be {ref: string}"),
      (f"{V0}.affects[1].zz", "unknown field")]),
    ("vulnerability-missing-id-with-unknown-field",
     {"vulnerabilities": [{"ratings": RATING, "affects": [{"ref": "a"}], "x-v": 1}]},
     [(V0, "missing required field id"), (f"{V0}.x-v", "unknown field")]),
    # an explicit null is a wrong type, also where the field is optional
    ("optional-fields-null",
     {"metadata": {"component": SUBJECT, "timestamp": None, "properties": KIND_SBOM},
      "components": [{"bom-ref": "a", "type": "library", "name": "liba", "version": None,
                      "purl": None, "cryptoProperties": None}],
      "dependencies": None, "vulnerabilities": None, "externalReferences": None},
     [("metadata.timestamp", "expected str"), (f"{C0}.version", "expected str"),
      (f"{C0}.purl", "expected str"), (CP, "expected dict"), ("dependencies", "expected list"),
      ("vulnerabilities", "expected list"), ("externalReferences", "expected list")]),
    ("crypto-optional-values-null",
     {"components": [
         _cc(cryptoProperties={"assetType": "algorithm", "algorithmProperties": {
             "family": None, "parameterSetIdentifier": None, "mode": None}}),
         _cc(cryptoProperties={"assetType": "certificate", "certificateProperties": {
             "subjectName": "CN=a", "issuerName": None, "notValidBefore": "2024-01-01",
             "notValidAfter": "2025-01-01", "signatureAlgorithmRef": None}}),
         _cc(cryptoProperties={"assetType": "protocol", "protocolProperties": {
             "version": None, "type": None, "cipherSuites": None}}),
         _cc(cryptoProperties={"assetType": "algorithm", "algorithmProperties": None,
                               "certificateProperties": None, "protocolProperties": None})]},
     [(f"{CP}.algorithmProperties.family", "expected str"),
      (f"{CP}.algorithmProperties.parameterSetIdentifier", "expected str"),
      (f"{CP}.algorithmProperties.mode", "expected str"),
      ("components[1].cryptoProperties.certificateProperties.issuerName", "expected str"),
      ("components[1].cryptoProperties.certificateProperties.signatureAlgorithmRef",
       "expected str"),
      ("components[2].cryptoProperties.protocolProperties.version", "expected str"),
      ("components[2].cryptoProperties.protocolProperties.type", "expected str"),
      ("components[2].cryptoProperties.protocolProperties.cipherSuites", "expected list"),
      ("components[3].cryptoProperties.algorithmProperties", "expected dict"),
      ("components[3].cryptoProperties.certificateProperties", "expected dict"),
      ("components[3].cryptoProperties.protocolProperties", "expected dict")]),
    ("vulnerability-optional-values-null",
     {"vulnerabilities": [_cve(
         ratings=[{"score": 5.0, "severity": "medium", "vector": None, "method": None}],
         analysis=None, affects=[{"ref": "a"}])]},
     [(f"{R0}.vector", "expected str"), (f"{R0}.method", "expected str"),
      (f"{V0}.analysis", "expected dict")]),
    # dependencies and references
    ("dependency-entries",
     {"dependencies": [5, {"dependsOn": []}, {"ref": "a", "dependsOn": "b"},
                       {"ref": "a", "dependsOn": ["b", 2]}]},
     [("dependencies[0]", "must be {ref, dependsOn}"),
      ("dependencies[1]", "must be {ref, dependsOn}"),
      ("dependencies[2].dependsOn", "must be a string list"),
      ("dependencies[3].dependsOn", "must be a string list")]),
    ("reference-entries",
     {"externalReferences": [5, {"type": "website", "url": LINK}, {"type": "bom", "url": "x"},
                             {"type": "bom"}]},
     [("externalReferences[0]", "only {type: bom, url} references modeled"),
      ("externalReferences[1]", "only {type: bom, url} references modeled"),
      ("externalReferences[2].url", "not a bom-link urn: 'x'"),
      ("externalReferences[3].url", "not a bom-link urn: ''")]),
    ("dependency-and-reference-unknown-fields-in-document-order",
     {"dependencies": [{"note": 1, "ref": "a", "dependsOn": [], "hashes": []},
                       {"ref": 5, "zz": 1}],
      "externalReferences": [{"comment": "x", "type": "bom", "url": LINK},
                             {"type": "bom", "url": "x", "hashes": []}]},
     [("dependencies[0].note", "unknown field"), ("dependencies[0].hashes", "unknown field"),
      ("dependencies[1]", "must be {ref, dependsOn}"), ("dependencies[1].zz", "unknown field"),
      ("externalReferences[0].comment", "unknown field"),
      ("externalReferences[1].url", "not a bom-link urn: 'x'"),
      ("externalReferences[1].hashes", "unknown field")]),
    # the semantic pass runs only on structurally sound documents
    ("semantic-dangling-affects",
     {"vulnerabilities": [_cve(ratings=RATING, affects=[{"ref": "zzz"}])]},
     [(f"{V0}.affects", "reference to unknown bom_ref 'zzz'")]),
    ("semantic-certificate-naive-and-aware-validity",
     {"components": [_cc(cryptoProperties={
         "assetType": "certificate", "certificateProperties": {
             "subjectName": "CN=a", "issuerName": "CN=ca", "notValidBefore": "2024-01-01",
             "notValidAfter": "2025-01-01T00:00:00Z", "signatureAlgorithmRef": "sha256"}})]},
     [(f"{CP}.not_before", "timestamps must both carry a UTC offset or neither")]),
    ("crypto-cipher-suite-entries",
     {"components": [_cc(cryptoProperties={
         "assetType": "protocol",
         "protocolProperties": {"version": "1.3",
                                "cipherSuites": [5, {"algorithms": [7, "x", None]}]}})]},
     [(f"{CP}.protocolProperties.cipherSuites[0]", "expected dict"),
      (f"{CP}.protocolProperties.cipherSuites[1].algorithms[0]", "expected str"),
      (f"{CP}.protocolProperties.cipherSuites[1].algorithms[2]", "expected str")]),
    ("crypto-cipher-suite-unknown-fields",
     {"components": [_cc(cryptoProperties={
         "assetType": "protocol",
         "protocolProperties": {"version": "1.3", "cipherSuites": [
             {"name": "TLS_AES_128_GCM_SHA256", "algorithms": ["x"]},
             {"algorithms": 5, "identifiers": []}]}})]},
     [(f"{CP}.protocolProperties.cipherSuites[0].name", "unknown field"),
      (f"{CP}.protocolProperties.cipherSuites", "algorithms must be a list"),
      (f"{CP}.protocolProperties.cipherSuites[1].identifiers", "unknown field")]),
    # order across sections: header, metadata, components, dependencies,
    # vulnerabilities, references, then unknown top-level fields
    ("order-across-sections",
     {"zz-top": 1, "version": "one",
      "externalReferences": [{"type": "website"}],
      "vulnerabilities": [{"id": 1, "ratings": RATING, "affects": []}],
      "dependencies": [1],
      "components": [{"bom-ref": "a", "type": "gizmo", "name": "a"}],
      "metadata": {"component": SUBJECT, "properties": [], "x-m": 1},
      "bomFormat": "SPDX"},
     [("bomFormat", "expected 'CycloneDX'"), ("version", "expected int"),
      ("metadata.x-m", "unknown field"), MISSING_KIND,
      (f"{C0}.type", "unknown component type 'gizmo'"),
      ("dependencies[0]", "must be {ref, dependsOn}"), (f"{V0}.id", "expected str"),
      ("externalReferences[0]", "only {type: bom, url} references modeled"),
      ("zz-top", "unknown field")]),
]


def _violations(text, strict):
    try:
        parse_bom(text, strict=strict)
    except BomSchemaError as err:
        return [(v.path, v.message) for v in err.violations]
    return []


@pytest.mark.parametrize(
    "patch,expected", [pytest.param(p, e, id=name) for name, p, e in MALFORMED]
)
def test_malformed_document_violations(patch, expected):
    text = json.dumps(_patched(patch))
    assert _violations(text, strict=True) == expected
    # Lenient parsing reports the same, minus unknown fields and the kind
    # property it defaults.
    lenient = [v for v in expected if v[1] != "unknown field" and v != MISSING_KIND]
    assert _violations(text, strict=False) == lenient


# Values of a JSON type the parser did not expect at these places once raised
# TypeError (a 500 from the manager); they are violations like any other.
UNEXPECTED_TYPES = [
    ("subject-type-list",
     {"metadata": {"component": {"type": [], "name": "x"}, "properties": KIND_SBOM}},
     [("metadata.component.type", "unknown subject type")]),
    ("analysis-state-list",
     {"vulnerabilities": [_cve(ratings=RATING, analysis={"state": [1]},
                               affects=[{"ref": "a"}])]},
     [(f"{V0}.analysis.state", "unknown state [1]")]),
    ("reference-url-number", {"externalReferences": [{"type": "bom", "url": 5}]},
     [("externalReferences[0].url", "not a bom-link urn: 5")]),
    ("cipher-suite-algorithms-number",
     {"components": [_cc(cryptoProperties={
         "assetType": "protocol",
         "protocolProperties": {"version": "1.3", "cipherSuites": [{"algorithms": 5}]}})]},
     [(f"{CP}.protocolProperties.cipherSuites", "algorithms must be a list")]),
]


@pytest.mark.parametrize(
    "patch,expected", [pytest.param(p, e, id=name) for name, p, e in UNEXPECTED_TYPES]
)
def test_unexpected_json_types_are_violations(patch, expected):
    text = json.dumps(_patched(patch))
    assert _violations(text, strict=True) == expected
    assert _violations(text, strict=False) == expected


@settings(max_examples=200, deadline=None)
@given(st.one_of(boms(), broken_boms()))
def test_parse_of_a_rendering_is_the_model_or_its_validate_bom_violations(bom):
    """The readers and validate_bom split the checks between them; together
    they answer for a rendered model exactly what validate_bom answers for
    the model itself."""
    expected = validate_bom(bom)
    try:
        parsed = parse_bom(json.dumps(bom_to_dict(bom)))
    except BomSchemaError as err:
        assert expected and list(err.violations) == expected
    else:
        assert not expected and parsed == bom
