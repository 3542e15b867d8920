"""Delta semantics: patch identity, rejection of mismatched bases, transport."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinaudit.bom import (
    Bom,
    BomDelta,
    BomKind,
    BomLink,
    BomMetadata,
    BomSchemaError,
    BomValidationError,
    Component,
    ComponentType,
    DeltaMismatch,
    SectionDelta,
    SubjectKind,
    apply_delta,
    delta_from_dict,
    delta_to_dict,
    diff_boms,
    parse_bom,
    serialize_bom,
    validate_bom,
)
from twinaudit.forge import document_serial, profile_manifest

from .strategies import boms

SERIAL = "urn:uuid:0b7a60e8-1d44-4c1c-9a3e-2f6d0c4a9b10"
METADATA = {"component": {"type": "device", "name": "web-01"}, "properties": []}
KIND_SBOM = {"name": "twinaudit:kind", "value": "SBOM"}
OTHER_SERIAL = "urn:uuid:7f9c2a41-6b3d-4e8f-8c21-5a0d9e3f1b42"


def small_bom(serial: str = SERIAL, n: int = 4) -> Bom:
    return Bom(
        serial_number=serial,
        version=1,
        kind=BomKind.SBOM,
        metadata=BomMetadata(subject_kind=SubjectKind.HOST, subject_name="web-01"),
        components=tuple(
            Component(
                bom_ref=f"lib-{i}", name=f"lib{i}", component_type=ComponentType.LIBRARY,
                version="1.0",
            )
            for i in range(n)
        ),
    )


@st.composite
def bom_pairs(draw):
    old = draw(boms())
    new = draw(boms())
    return old, dataclasses.replace(new, serial_number=old.serial_number)


class TestDiffApply:
    @settings(max_examples=120, deadline=None)
    @given(bom_pairs())
    def test_patch_identity(self, pair):
        old, new = pair
        assert apply_delta(old, diff_boms(old, new)) == new

    @settings(max_examples=60, deadline=None)
    @given(boms())
    def test_self_diff_is_empty(self, bom):
        delta = diff_boms(bom, bom)
        assert set(delta_to_dict(delta)) == {"baseSerial", "baseVersion", "newVersion"}
        assert apply_delta(bom, delta) == bom

    def test_serial_mismatch_rejected(self):
        with pytest.raises(DeltaMismatch):
            diff_boms(small_bom(SERIAL), small_bom(OTHER_SERIAL))

    @settings(max_examples=40, deadline=None)
    @given(bom_pairs())
    def test_stale_base_version_rejected(self, pair):
        old, new = pair
        delta = diff_boms(old, new)
        stale = dataclasses.replace(old, version=old.version + 1)
        with pytest.raises(DeltaMismatch):
            apply_delta(stale, delta)

    def test_removing_absent_ref_rejected(self):
        bom = small_bom()
        delta = BomDelta(
            base_serial=bom.serial_number,
            base_version=bom.version,
            new_version=bom.version + 1,
            components=SectionDelta(removed=("no-such-ref",)),
        )
        with pytest.raises(DeltaMismatch):
            apply_delta(bom, delta)

    def test_adding_existing_ref_rejected(self):
        bom = small_bom()
        existing = bom.components[0]
        delta = BomDelta(
            base_serial=bom.serial_number,
            base_version=bom.version,
            new_version=bom.version + 1,
            components=SectionDelta(added=(existing,)),
        )
        with pytest.raises(DeltaMismatch):
            apply_delta(bom, delta)


class TestDeltaTransport:
    @settings(max_examples=100, deadline=None)
    @given(bom_pairs())
    def test_dict_round_trip(self, pair):
        old, new = pair
        delta = diff_boms(old, new)
        assert delta_from_dict(delta_to_dict(delta)) == delta

    def test_small_change_beats_full_document(self):
        old = small_bom(n=6)
        changed = dataclasses.replace(old.components[0], version="1.0.1")
        new = dataclasses.replace(
            old,
            version=old.version + 1,
            components=(changed,) + old.components[1:],
        )
        delta = diff_boms(old, new)
        assert delta.components.changed == (changed,)
        compact = json.dumps(delta_to_dict(delta), separators=(",", ":"))
        assert len(compact) < len(serialize_bom(new))

    def test_one_link_change_costs_the_same_at_any_manifest_size(self):
        """A revised document travels as one removed link and one added
        entry, however many documents the manifest indexes."""

        def delta_size(n):
            links = [BomLink(document_serial("sbom", f"host-{i}"), 1) for i in range(n)]
            old = profile_manifest("profile-a", links)
            bumped = dataclasses.replace(links[0], target_version=2)
            new = profile_manifest("profile-a", [bumped, *links[1:]], version=2)
            delta = diff_boms(old, new)
            assert delta.links == SectionDelta(added=(bumped,), removed=(links[0].render(),))
            assert apply_delta(old, delta) == new
            return len(json.dumps(delta_to_dict(delta)))

        assert delta_size(14) == delta_size(1400)

    def test_unknown_fields_rejected(self):
        """A misspelt field, or the retired linksTo, was dropped: the delta
        decoded as empty and applied without the change."""
        header = {"baseSerial": "urn:uuid:x", "baseVersion": 1, "newVersion": 2}
        with pytest.raises(BomSchemaError) as err:
            delta_from_dict(
                {"componentsAdde": [{"x": 1}], **header, "linksTo": [], "componentsRemoved": []}
            )
        assert [(v.path, v.message) for v in err.value.violations] == [
            ("componentsAdde", "unknown field"),
            ("linksTo", "unknown field"),
        ]

    def test_missing_header_fields_rejected(self):
        with pytest.raises(Exception) as err:
            delta_from_dict({"componentsRemoved": ["a"]})
        assert "baseSerial" in str(err.value)

    @pytest.mark.parametrize("key", ["componentsAdded", "vulnerabilitiesChanged"])
    @pytest.mark.parametrize("entry", ["a", [], 5])
    def test_non_object_entries_rejected(self, key, entry):
        header = {"baseSerial": "urn:uuid:x", "baseVersion": 1, "newVersion": 2}
        with pytest.raises(BomSchemaError) as err:
            delta_from_dict({**header, key: [entry]})
        assert [(v.path, v.message) for v in err.value.violations] == [
            (f"{key}[0]", "must be an object")
        ]

    @pytest.mark.parametrize(
        "fields, violation",
        [
            ({"componentsRemoved": "ab"}, ("componentsRemoved", "expected list")),
            ({"componentsRemoved": 5}, ("componentsRemoved", "expected list")),
            ({"componentsRemoved": ["a", 5]}, ("componentsRemoved", "must be a string list")),
            ({"dependenciesRemoved": "ab"}, ("dependenciesRemoved", "expected list")),
            (
                {"vulnerabilitiesRemoved": [None]},
                ("vulnerabilitiesRemoved", "must be a string list"),
            ),
            ({"componentsAdded": "ab"}, ("componentsAdded", "expected list")),
            ({"componentsChanged": 5}, ("componentsChanged", "expected list")),
            ({"dependenciesAdded": {"ref": "a"}}, ("dependenciesAdded", "expected list")),
            ({"vulnerabilitiesChanged": 5}, ("vulnerabilitiesChanged", "expected list")),
            (
                {"dependenciesAdded": [{"ref": "a", "dependsOn": "bc"}]},
                ("dependenciesAdded[0].dependsOn", "must be a string list"),
            ),
            (
                {"dependenciesChanged": [{"ref": "a", "dependsOn": [1]}]},
                ("dependenciesChanged[0].dependsOn", "must be a string list"),
            ),
            ({"linksAdded": "urn:cdx:x/1"}, ("linksAdded", "expected list")),
            ({"linksRemoved": None}, ("linksRemoved", "expected list")),
            (
                {"linksAdded": [{"type": "bom", "url": "urn:cdx:x/1"}]},
                ("linksAdded[0].url", "not a bom-link urn: 'urn:cdx:x/1'"),
            ),
            (
                {"linksAdded": [f"urn:cdx:{SERIAL[len('urn:uuid:'):]}/1"]},
                ("linksAdded[0]", "only {type: bom, url} references modeled"),
            ),
            ({"metadataTo": 5}, ("metadataTo", "expected dict")),
            ({"newVersion": "x"}, ("newVersion", "expected int")),
            ({"newVersion": True}, ("newVersion", "expected int")),
            (
                {"metadataTo": {**METADATA, "component": {"type": "device", "name": 5}}},
                ("metadataTo.component.name", "missing subject name"),
            ),
            (
                {"metadataTo": {**METADATA, "properties": "ab"}},
                ("metadataTo.properties", "expected list"),
            ),
            (
                {"metadataTo": {**METADATA, "timestamp": 7}},
                ("metadataTo.timestamp", "expected str"),
            ),
            (
                {"metadataTo": {**METADATA, "properties": [KIND_SBOM]}},
                ("metadataTo.properties", "twinaudit:kind travels as kindTo"),
            ),
        ],
    )
    def test_list_fields_must_be_lists_of_their_type(self, fields, violation):
        """A string in a list's place was read as a list of its characters,
        and a number raised TypeError; both are violations, as is every
        field the document's own readers would refuse."""
        header = {"baseSerial": "urn:uuid:x", "baseVersion": 1, "newVersion": 2}
        with pytest.raises(BomSchemaError) as err:
            delta_from_dict({**header, **fields})
        assert [(v.path, v.message) for v in err.value.violations] == [violation]


# JSON values of every type, to put where a delta field had another.
JSON_VALUES = st.one_of(
    st.text(max_size=4),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
)


def _field_paths(node, path=()):
    """The path of every object field in a decoded JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _field_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _field_paths(value, path + (i,))


@settings(max_examples=200, deadline=None)
@given(bom_pairs(), st.data())
def test_a_wrong_typed_field_is_refused_or_applies_cleanly(pair, data):
    """Whatever one field of a delta is replaced with, decoding and applying
    it either refuses it with a document error or yields a document that
    validates and serializes to text parse_bom reads back."""
    old, new = pair
    doc = delta_to_dict(diff_boms(old, new))
    path = data.draw(st.sampled_from(list(_field_paths(doc))))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = data.draw(JSON_VALUES)
    try:
        result = apply_delta(old, delta_from_dict(doc))
    except (BomSchemaError, DeltaMismatch, BomValidationError):
        return
    assert validate_bom(result) == []
    parse_bom(serialize_bom(result), strict=False)


def test_component_identity_is_bom_ref():
    lib = Component(bom_ref="r1", name="liba", component_type=ComponentType.LIBRARY)
    renamed = dataclasses.replace(lib, name="libb")
    assert lib != renamed
    assert lib.bom_ref == renamed.bom_ref
