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

The settings and logs the other scanners read get seeded line edits of
their own: the `smb` fixture's openssl.cnf, sshd_config, ssh_config,
sysctl.conf and logs, and a sysctl.d file and proc/sys files added to
web-01. Each mutated snapshot must scan to the bundle the former scanners
of tests/scanner_oracle.py give.
"""

from __future__ import annotations

import json
import random
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

from twinaudit.ams import HostRecord, Segment
from twinaudit.ams.service import collect_evidence, forge_host
from twinaudit.collect import EvidenceCategory, HostSnapshot, scan_host
from twinaudit.collect.records import by_sort_key
from twinaudit.fixtures.generator import generate
from twinaudit.vulnstore import VulnerabilityStore

from . import manifest_oracle as oracle
from . import scanner_oracle
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


# web-01 is given a sysctl.d file and proc/sys files, which no smb host has.
_ADDED = {
    "etc/sysctl.d/60-net.conf": b"# forwarding off\nnet.ipv4.ip_forward = 0\nvm.swappiness=10\n",
    "proc/sys/net/ipv4/ip_forward": b"0\n",
    "proc/sys/kernel/randomize_va_space": b"2\n",
}
# (host, path) of each mutated settings file or log.
SETTINGS = [
    ("web-01", "etc/ssl/openssl.cnf"),
    ("web-01", "etc/ssh/sshd_config"),
    ("user-01", "etc/ssh/ssh_config"),
    ("web-01", "etc/sysctl.conf"),
    ("web-01", "etc/sysctl.d/60-net.conf"),
    ("web-01", "proc/sys/net/ipv4/ip_forward"),
    ("mgmt-01", "var/log/auth.log"),
    ("app-01", "var/log/app.log"),
]
SETTINGS_CASES = 40
# Lines an edit inserts: settings with and without a value or a key,
# separators among blanks and tabs, comments, and log events.
_LINES = (
    "Ciphers aes128-ctr,aes256-gcm@openssh.com",
    "MACs\thmac-sha2-256,hmac-md5",
    "KexAlgorithms",
    "Protocol 2",
    "Port 22",
    "CipherString = DEFAULT@SECLEVEL=2:AES128-SHA",
    "MinProtocol=SSLv3",
    "MaxProtocol =\tTLSv1.3",
    "Options =",
    "= TLSv1.2",
    "net.ipv4.ip_forward =",
    "net.ipv6.conf.all.disable_ipv6\t=\t1",
    "kernel.randomize_va_space",
    "# Ciphers 3des-cbc",
    "#",
    "\t ",
    "Jul 01 00:00:01 h sshd[1]: Failed password for invalid user guest from 10.0.0.2",
    "Jul 01 00:00:02 h sshd[1]: session opened for user root",
    "Jul 01 00:00:03 h app[2]: handshake done over TLSv1.3 with CHACHA20-POLY1305",
)
# Text an edit appends to a line's value.
_SUFFIXES = (" TLSv1.3", ",SSLv3", " TLSv1_1 SSLv2", " # a comment", "#", " aes-256-cbc", "\t")


def _insert(lines: list, rng: random.Random) -> str:
    line = rng.choice(_LINES)
    lines.insert(rng.randint(0, len(lines)), line)
    return f"insert {line!r}"


def _delete(lines: list, rng: random.Random) -> str:
    at = rng.randrange(len(lines))
    return f"delete {lines.pop(at)!r}"


def _duplicate_line(lines: list, rng: random.Random) -> str:
    line = rng.choice(lines)
    lines.insert(rng.randint(0, len(lines)), line)
    return f"duplicate {line!r}"


def _key(line: str) -> tuple[str, str]:
    """A line's key, up to its first blank or `=`, and the rest of it."""
    end = next((i for i, c in enumerate(line) if c in " \t="), len(line))
    return line[:end], line[end:]


def _comment(line: str, rng: random.Random) -> str:
    cut = rng.randint(0, len(line))
    return line[:cut] + "# " + line[cut:]


def _space(line: str, rng: random.Random) -> str:
    gap = rng.choice((" ", "\t", " \t", "  "))
    if "=" in line:
        return line.replace("=", f"{gap}={gap}", 1)
    return line.replace(" ", gap, 1)


def _empty_value(line: str, rng: random.Random) -> str:
    key, rest = _key(line)
    return key + ("=" if rest.lstrip().startswith("=") else " ")


def _no_value(line: str, rng: random.Random) -> str:
    return _key(line)[0]


def _key_case(line: str, rng: random.Random) -> str:
    key, rest = _key(line)
    return rng.choice((str.upper, str.lower, str.swapcase))(key) + rest


def _protocol(line: str, rng: random.Random) -> str:
    return line + rng.choice(_SUFFIXES)


def _edit(change):
    """A mutator that makes `change` to one line."""
    def mutate(lines: list, rng: random.Random) -> str:
        at = rng.randrange(len(lines))
        lines[at] = change(lines[at], rng)
        return f"{change.__name__.lstrip('_')} line {at}: {lines[at]!r}"
    return mutate


_LINE_MUTATORS = (_insert, _delete, _duplicate_line, *map(_edit, (
    _comment, _space, _empty_value, _no_value, _key_case, _protocol)))


def line_mutations(text: str, seed: int) -> list[tuple[str, str]]:
    """(label, mutated text) of each seeded case: one to four line edits,
    the lines joined by LF or now and then CRLF."""
    rng = random.Random(seed)
    out = []
    for _ in range(SETTINGS_CASES):
        lines = text.splitlines()
        labels = []
        for _ in range(rng.choice((1, 2, 3, 4))):
            mutate = rng.choice(_LINE_MUTATORS) if lines else _insert
            labels.append(mutate(lines, rng))
        newline = "\r\n" if rng.random() < 0.1 else "\n"
        out.append(("; ".join(labels), "".join(line + newline for line in lines)))
    return out


def tree_files(tree: Path) -> dict[str, bytes]:
    return {p.relative_to(tree).as_posix(): p.read_bytes() for p in tree.rglob("*") if p.is_file()}


@pytest.mark.parametrize("index", range(len(SETTINGS)), ids=[f[1] for f in SETTINGS])
def test_mutated_settings_scan_as_the_former_scanners_did(estate, index):
    host, path = SETTINGS[index]
    root = Path(estate["snapshots"][host])
    files = tree_files(root)
    if host == "web-01":
        files.update(_ADDED)
    baseline = scan_host(HostSnapshot(str(root), files))
    assert baseline == scanner_oracle.scan_host(HostSnapshot(str(root), files))
    changed = 0
    for label, text in line_mutations(files[path].decode(), SEED * 1000 + 100 + index):
        snapshot = HostSnapshot(str(root), {**files, path: text.encode()})
        bundle = scan_host(snapshot)
        assert bundle == scanner_oracle.scan_host(snapshot), label
        changed += bundle != baseline
    assert changed  # the edits reach the scanners
