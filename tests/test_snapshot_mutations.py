"""Seeded mutations of the manifests the collector reads from a snapshot:
the `smb` fixture's package.json, package-lock.json, composer.json and
composer.lock, one pom.xml and one requirements.txt.

Each case is one of tests/test_input_mutations.py's `mutations()`, made to
the file's decoded form: the JSON document itself, or for pom.xml and
requirements.txt a document of their coordinates that is written back as
XML or as requirement lines. The host must still be collected and forged
with no host error, the records of every other file must stay as they
were, and wherever the former scanners return, the host's components must
be theirs.
"""

from __future__ import annotations

import json
import shutil
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest

from twinaudit.ams import HostRecord, Segment
from twinaudit.ams.service import collect_evidence, forge_host
from twinaudit.collect import EvidenceCategory, HostSnapshot
from twinaudit.collect.records import by_sort_key
from twinaudit.fixtures.generator import generate
from twinaudit.vulnstore import VulnerabilityStore

from . import manifest_oracle as oracle
from .test_input_mutations import mutations
from .test_parse_golden import _drop, _duplicate, _extra, _retype, _revalue, _shuffle

SEED = 30


def _tolerant(mutator):
    """mutator, or no edit where the document holds nothing it acts on (an
    earlier edit may have retyped the only list)."""
    def edit(doc, rng):
        try:
            return mutator(doc, rng)
        except IndexError:  # random.choice of an empty sequence
            return f"no{mutator.__name__}"
    return edit


_MUTATORS = tuple(map(_tolerant, (_drop, _retype, _revalue, _duplicate, _shuffle, _extra)))
_POM_NS = "{http://maven.apache.org/POM/4.0.0}"
_COORDINATES = ("groupId", "artifactId", "version")


def pom_doc(text: str) -> dict:
    root = ET.fromstring(text)

    def coordinates(node):
        return {tag: node.findtext(_POM_NS + tag) for tag in _COORDINATES}

    deps = root.find(_POM_NS + "dependencies")
    return {**coordinates(root),
            "dependencies": [coordinates(d) for d in deps.findall(_POM_NS + "dependency")]}


def pom_text(doc: dict) -> str:
    """Each key as an element, each list entry as a <dependency>."""
    def inner(value) -> str:
        if isinstance(value, dict):
            return "".join(f"<{key}>{inner(item)}</{key}>" for key, item in value.items())
        if isinstance(value, list):
            return "".join(f"<dependency>{inner(item)}</dependency>" for item in value)
        return escape(str(value))

    return f'<project xmlns="{_POM_NS[1:-1]}">{inner(doc)}</project>\n'


def requirements_doc(text: str) -> dict:
    pins = [line.split("==") for line in text.splitlines()]
    return {"requirements": [{"name": name, "version": version} for name, version in pins]}


def requirements_text(doc: dict) -> str:
    """One line per entry: a pin's values joined by ==, anything else as it is."""
    entries = doc.get("requirements")
    return "".join(
        ("==".join(map(str, entry.values())) if isinstance(entry, dict) else str(entry)) + "\n"
        for entry in (entries if isinstance(entries, list) else [entries]))


# (host, path, decode, encode) of each mutated file.
FILES = [
    ("web-01", "srv/www/corp-site/package.json", json.loads, json.dumps),
    ("web-01", "srv/www/corp-site/package-lock.json", json.loads, json.dumps),
    ("web-01", "srv/www/portal/composer.json", json.loads, json.dumps),
    ("web-01", "srv/www/portal/composer.lock", json.loads, json.dumps),
    ("app-01", "srv/microservices/orders-service/pom.xml", pom_doc, pom_text),
    ("web-01", "srv/www/api/requirements.txt", requirements_doc, requirements_text),
]


@pytest.fixture(scope="module")
def estate(tmp_path_factory):
    return generate("smb", 0, tmp_path_factory.mktemp("snapshot-mutations-smb"))


def audit(host: str, tree) -> list:
    """The host's records, collected and forged as an audit does."""
    bundles, errors = collect_evidence([HostRecord(host, "role", Segment.LAN, str(tree))])
    assert errors == {}
    forge_host(bundles[host], (), VulnerabilityStore())
    return list(bundles[host].records)


def not_of(records: list, path: str) -> list:
    return [r for r in records if path not in (r.source_path, r.attribute("manifest"))]


@pytest.mark.parametrize("index", range(len(FILES)), ids=[f[1].rsplit("/", 1)[-1] for f in FILES])
def test_a_mutated_manifest_costs_only_its_own_records(estate, tmp_path, index):
    host, path, decode, encode = FILES[index]
    tree = shutil.copytree(estate["snapshots"][host], tmp_path / host)
    target = tree / path
    original = audit(host, tree)
    doc = decode(target.read_text())
    target.write_text(encode(doc))
    assert audit(host, tree) == original  # the encoding alone changes no record
    baseline = not_of(original, path)
    for label, value in mutations(doc, SEED * 1000 + index, _MUTATORS):
        target.write_text(value if isinstance(value, str) else encode(value))
        records = audit(host, tree)
        assert not_of(records, path) == baseline, label
        try:
            expected = oracle.scan_manifests(HostSnapshot.open(tree))
        except (AttributeError, TypeError):
            continue
        components = [r for r in records if r.category == EvidenceCategory.SOFTWARE_COMPONENT]
        assert components == sorted(expected, key=by_sort_key), label
