"""Manifest scanners against their former implementation, and odd snapshot
files that must cost only their own records, never their host."""

from __future__ import annotations

import datetime
import json
from xml.sax.saxutils import escape

import pytest
from cryptography import x509
from cryptography.exceptions import UnsupportedAlgorithm
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, rsa
from cryptography.x509.oid import NameOID
from hypothesis import given, settings
from hypothesis import strategies as st

from twinaudit.ams import HostRecord, Segment
from twinaudit.ams.service import collect_evidence, forge_host
from twinaudit.collect import (
    EvidenceCategory,
    HostSnapshot,
    scan_composer,
    scan_manifests,
    scan_maven,
    scan_npm,
    scan_pip,
)
from twinaudit.vulnstore import VulnerabilityStore

from . import manifest_oracle as oracle
from .test_collect import write_tree
from .test_instance import json_values

_SCANNERS = (
    ("pom.xml", scan_maven, oracle.scan_maven),
    ("requirements.txt", scan_pip, oracle.scan_pip),
    ("package.json", scan_npm, oracle.scan_npm),
    ("composer.json", scan_composer, oracle.scan_composer),
)


def mostly(usual, other):
    """usual three times in four, else other."""
    return st.integers(0, 3).flatmap(lambda i: usual if i else other)


names = mostly(st.sampled_from(
    ("lodash", "node_modules/a", "@scope/pkg", "Flask_Login", "php", "ext-json", "lib-pcre", "")
), st.text(max_size=6))
versions = mostly(st.sampled_from(("1.2.3", "^4.17.20", "~2.0", ">= 1.0", "v2.1.0", "v", "")),
                  st.text(max_size=6))


def shaped(valid):
    """Mostly a valid shape, now and then any JSON value in its place."""
    return mostly(valid, json_values)


def fields(required, **optional):
    return shaped(st.fixed_dictionaries(required, optional=optional))


def json_files(values):
    """A JSON file's text, or now and then a text that may not parse."""
    return mostly(values.map(json.dumps), st.text(max_size=12))


# Valid collections hold an entry or more; json_values supplies empty ones.
pinned = fields({"version": shaped(versions)})
manifests = fields({"name": shaped(names)}, version=shaped(versions), dependencies=shaped(
    st.dictionaries(names, shaped(versions), min_size=1, max_size=4)))
npm_packages = shaped(st.dictionaries(
    st.sampled_from(("", "node_modules/a", "node_modules/b/node_modules/c")) | names,
    pinned, min_size=1, max_size=4))
npm_dependencies = shaped(st.dictionaries(names, pinned, min_size=1, max_size=4))
npm_locks = (fields({"packages": npm_packages}) | fields({"dependencies": npm_dependencies})
             | fields({}, packages=npm_packages, dependencies=npm_dependencies))
# Platform packages (php, ext-*, lib-*) and names that only resemble them.
composer_names = mostly(st.sampled_from(
    ("php", "ext-json", "lib-pcre", "php-http/client", "acme/lib-tools")), names)
composer_packages = fields({"name": shaped(composer_names), "version": shaped(versions)})
composer_locks = fields({"packages": shaped(st.lists(composer_packages, min_size=1, max_size=4))})


@st.composite
def coordinates(draw) -> str:
    texts = {tag: draw(mostly(names, st.none())) for tag in ("groupId", "artifactId", "version")}
    return "".join(f"<{tag}>{escape(text)}</{tag}>"
                   for tag, text in texts.items() if text is not None)


@st.composite
def poms(draw) -> str:
    # A second <dependencies> element is not read: only the first one is.
    lists = draw(st.lists(st.lists(coordinates(), max_size=3), max_size=2))
    deps = "".join("<dependencies>" + "".join(f"<dependency>{d}</dependency>" for d in entries)
                   + "</dependencies>" for entries in lists)
    xmlns = draw(st.sampled_from(("", ' xmlns="http://maven.apache.org/POM/4.0.0"')))
    return f"<project{xmlns}>{draw(coordinates())}{deps}</project>"


requirement_lines = st.sampled_from((
    "flask==2.0.1", "Jinja2 == 2.11.2  # pinned", "Flask_Login==0.6", "-e pkg==1.0",
    "requests>=2.0", "pywin32==306 ; sys_platform == 'win32'", "==1.0", "x==", "# note", "",
    "requests[security]==2.19.0", "Django===3.2", "pkg @ https://example.test/pkg==1.0.zip",
)) | st.text(max_size=10)


pom_files = mostly(poms(), st.text(max_size=12))
requirement_files = st.lists(requirement_lines, max_size=5).map("\n".join)
# The files of each ecosystem, at the snapshot's root and below it.
LAYOUTS = {
    "npm": {"package.json": json_files(manifests), "package-lock.json": json_files(npm_locks),
            "srv/site/package.json": json_files(manifests),
            "srv/site/package-lock.json": json_files(npm_locks)},
    "composer": {"composer.json": json_files(manifests),
                 "composer.lock": json_files(composer_locks),
                 "srv/portal/composer.json": json_files(manifests),
                 "srv/portal/composer.lock": json_files(composer_locks)},
    "maven": {"pom.xml": pom_files, "srv/app/pom.xml": pom_files},
    "pip": {"requirements.txt": requirement_files, "srv/api/requirements.txt": requirement_files},
}
LAYOUTS["all"] = {path: files for layout in LAYOUTS.values() for path, files in layout.items()}


@st.composite
def snapshots(draw, layout) -> HostSnapshot:
    files = {"facts.json": json.dumps({"hostname": "gen"})}
    for path, texts in layout.items():
        text = draw(mostly(texts, st.none()))
        if text is not None:
            files[path] = text
    return HostSnapshot("generated", {path: text.encode() for path, text in files.items()})


class TestAgainstTheOracle:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_records_wherever_the_oracle_returns(self, layout, data):
        snapshot = data.draw(snapshots(LAYOUTS[layout]))
        found = scan_manifests(snapshot)
        for filename, scan, reference in _SCANNERS:
            for path in snapshot.find_named(filename):
                records = scan(snapshot, path)
                try:
                    expected = reference(snapshot, path)
                except (AttributeError, TypeError):
                    continue
                assert records == expected, path
        try:
            expected = oracle.scan_manifests(snapshot)
        except (AttributeError, TypeError):
            return
        assert found == expected


def audit_host(root, files):
    """The host's evidence bundle, collected and forged as an audit does."""
    tree = write_tree(root, {"facts.json": json.dumps({"hostname": "odd"}), **files})
    bundles, errors = collect_evidence([HostRecord("odd", "web", Segment.LAN, str(tree))])
    assert errors == {}
    forge_host(bundles["odd"], (), VulnerabilityStore())
    return bundles["odd"]


def projects(bundle):
    return [(r.name, r.source_path) for r in bundle.records
            if r.category == EvidenceCategory.SOFTWARE_COMPONENT
            and r.attribute("role") == "project"]


SITE = json.dumps({"name": "site", "version": "1.0.0", "dependencies": {"lodash": "^4.17.20"}})
PORTAL = json.dumps({"name": "acme/portal", "version": "1.8.0"})


def _certificate(key, algorithm) -> bytes:
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "odd-key.test")])
    start = datetime.datetime(2024, 1, 1, tzinfo=datetime.timezone.utc)
    return (
        x509.CertificateBuilder().subject_name(name).issuer_name(name)
        .public_key(key.public_key()).serial_number(7)
        .not_valid_before(start).not_valid_after(start + datetime.timedelta(days=365))
        .sign(key, algorithm).public_bytes(serialization.Encoding.DER)
    )


def _pem(der: bytes) -> bytes:
    return x509.load_der_x509_certificate(der).public_bytes(serialization.Encoding.PEM)


def unknown_key_type() -> bytes:
    """An Ed25519 certificate whose key's algorithm OID reads 1.3.101.99:
    the second of the three 1.3.101.112 OIDs is the key's."""
    der = _certificate(ed25519.Ed25519PrivateKey.generate(), None)
    oid = bytes.fromhex("06032b6570")
    at = der.index(oid, der.index(oid) + 1)
    return _pem(der[:at] + bytes.fromhex("06032b6563") + der[at + len(oid):])


def unknown_signature_algorithm() -> bytes:
    """An RSA certificate whose signature algorithm OID reads
    1.2.840.113549.1.1.127, in the certificate and in its signed part."""
    der = _certificate(rsa.generate_private_key(65537, 2048), hashes.SHA256())
    return _pem(der.replace(bytes.fromhex("2a864886f70d01010b"), bytes.fromhex("2a864886f70d01017f")))


def invalid_ec_point() -> bytes:
    """A P-256 certificate whose public point is all zeroes."""
    key = ec.generate_private_key(ec.SECP256R1())
    der = _certificate(key, hashes.SHA256())
    point = key.public_key().public_bytes(
        serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint)
    at = der.index(point)
    return _pem(der[:at + 1] + bytes(len(point) - 1) + der[at + len(point):])


class TestOddFilesKeepTheirHost:
    @pytest.mark.parametrize("files,project", [
        ({"srv/site/package.json": SITE, "srv/site/package-lock.json": "[]"},
         ("site", "srv/site/package.json")),
        ({"srv/site/package.json": json.dumps({"name": "site", "dependencies": ["lodash"]})},
         ("site", "srv/site/package.json")),
        ({"srv/site/package.json": SITE,
          "srv/site/package-lock.json": json.dumps({"dependencies": ["lodash"]})},
         ("site", "srv/site/package.json")),
        ({"srv/portal/composer.json": PORTAL, "srv/portal/composer.lock": "[1]"},
         ("acme/portal", "srv/portal/composer.json")),
        ({"srv/portal/composer.json": PORTAL,
          "srv/portal/composer.lock": json.dumps({"packages": 5})},
         ("acme/portal", "srv/portal/composer.json")),
        ({"srv/site/package.json": SITE, "srv/site/package-lock.json": "[" * 100_000},
         ("site", "srv/site/package.json")),
    ], ids=["lock-is-a-list", "manifest-dependencies-list", "lock-dependencies-list",
            "composer-lock-is-a-list", "composer-packages-number", "lock-nested-too-deep"])
    def test_an_odd_manifest_keeps_its_project(self, tmp_path, files, project):
        bundle = audit_host(tmp_path / "h", files)
        assert projects(bundle) == [project]

    def test_a_certificate_whose_signature_hash_is_unknown(self, tmp_path):
        pem = unknown_signature_algorithm()
        with pytest.raises(UnsupportedAlgorithm):
            x509.load_pem_x509_certificate(pem).signature_hash_algorithm
        bundle = audit_host(tmp_path / "h", {"etc/ssl/certs/odd.pem": pem})
        [cert] = [r for r in bundle.records if r.category == EvidenceCategory.CERTIFICATE]
        assert (cert.name, cert.attribute("key_algorithm")) == ("odd-key.test", "rsa")
        assert cert.attribute("signature_hash") is None

    def test_pep_508_requirement_lines(self, tmp_path):
        bundle = audit_host(tmp_path / "h", {"srv/api/requirements.txt": (
            "requests[security]==2.19.0\nDjango===3.2\n"
            "pkg @ https://example.test/pkg==1.0.zip\nflask [async] == 2.0.1 ; python_version > '3'\n"
        )})
        pins = [(r.name, r.version, r.attribute("purl")) for r in bundle.records
                if r.category == EvidenceCategory.SOFTWARE_COMPONENT]
        assert pins == [
            ("django", "3.2", "pkg:pypi/django@3.2"),
            ("flask", "2.0.1", "pkg:pypi/flask@2.0.1"),
            ("requests", "2.19.0", "pkg:pypi/requests@2.19.0"),
        ]

    @pytest.mark.parametrize("make,error", [
        (unknown_key_type, UnsupportedAlgorithm),
        (invalid_ec_point, ValueError),
    ], ids=["unknown-key-type", "invalid-ec-point"])
    def test_a_certificate_whose_key_does_not_load(self, tmp_path, make, error):
        pem = make()
        with pytest.raises(error):
            x509.load_pem_x509_certificate(pem).public_key()
        bundle = audit_host(tmp_path / "h", {"etc/ssl/certs/odd.pem": pem})
        [cert] = [r for r in bundle.records if r.category == EvidenceCategory.CERTIFICATE]
        assert (cert.name, cert.source_path) == ("odd-key.test", "etc/ssl/certs/odd.pem")
        assert cert.attribute("key_algorithm") == "unknown"
