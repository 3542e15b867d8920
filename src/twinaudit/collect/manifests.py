"""Package-manifest scanners: maven, pip, npm, composer.

Each produces SOFTWARE_COMPONENT records: one per declared project
(role=project) and one per resolved dependency (role=dependency), each with
the package URL `pkg:<ecosystem>/<purl name>@<version>`
(https://github.com/package-url/purl-spec); the purl name is the package
name, or `group/artifact` for maven, with the artifact standing in for a
missing group. Lockfiles win over manifests for dependency versions because
they carry the resolved pins.

Collection must degrade per file, not per host: a file that does not parse
yields nothing, and a JSON file or field that is not an object reads as
empty, so an odd manifest costs its own records and never the host's.
"""

from __future__ import annotations

import json
import posixpath
import re
import xml.etree.ElementTree as ET
from typing import Any, Iterable, Optional

from .records import EvidenceCategory, EvidenceRecord, make_record
from .snapshot import HostSnapshot

_VERSION_PREFIX = re.compile(r"^[~^>=<\s]+")

# (name, version, purl name) of one package.
_Package = tuple[str, str, str]


def _components(
    host: str,
    ecosystem: str,
    manifest: str,
    project: Optional[_Package],
    dependencies: Iterable[_Package],
    source: str = "",
) -> list[EvidenceRecord]:
    """The project's record, if any, then one per dependency. Dependencies
    come from source (a lockfile) or else from the manifest itself; the
    manifest attribute groups them with their project."""
    roles = (("project", manifest, [project] if project else []),
             ("dependency", source or manifest, dependencies))
    return [
        make_record(
            EvidenceCategory.SOFTWARE_COMPONENT,
            name=name,
            host=host,
            source_path=path,
            version=version,
            attributes={
                "ecosystem": ecosystem,
                "role": role,
                "purl": f"pkg:{ecosystem}/{purl_name}@{version}",
                "manifest": manifest,
            },
        )
        for role, path, packages in roles
        for name, version, purl_name in packages
    ]


def _object(value: Any) -> dict:
    """value if it is a JSON object, else {}."""
    return value if isinstance(value, dict) else {}


def _read_object(snapshot: HostSnapshot, path: str) -> dict:
    """The file's JSON object; {} for a file that does not parse (nested
    too deep included) or holds another JSON value."""
    try:
        return _object(json.loads(snapshot.read_text(path)))
    except (ValueError, RecursionError):
        return {}


def _project(manifest: dict) -> _Package:
    name = str(manifest["name"])
    return name, str(manifest.get("version", "")), name


def _xml_text(parent: ET.Element, tag: str) -> str:
    node = parent.find(tag)
    return (node.text or "").strip() if node is not None else ""


def scan_maven(snapshot: HostSnapshot, path: str) -> list[EvidenceRecord]:
    try:
        root = ET.fromstring(snapshot.read_text(path))
    except ET.ParseError:
        return []
    # Strip the default namespace so tag lookups stay readable.
    ns = re.match(r"\{.*\}", root.tag)
    prefix = ns.group(0) if ns else ""

    def coordinates(node: ET.Element) -> _Package:
        group, artifact, version = (
            _xml_text(node, prefix + tag) for tag in ("groupId", "artifactId", "version"))
        return artifact, version, f"{group or artifact}/{artifact}"

    project = coordinates(root)
    if not project[0]:
        return []
    deps = root.find(prefix + "dependencies")
    listed = () if deps is None else map(coordinates, deps.findall(prefix + "dependency"))
    return _components(snapshot.hostname, "maven", path, project,
                       [dep for dep in listed if dep[0]])


def scan_pip(snapshot: HostSnapshot, path: str) -> list[EvidenceRecord]:
    """Pinned requirement lines (PEP 508): `name[extras]==version ; marker`,
    the name without its extras, and `===` read as arbitrary equality. URL
    requirements (`name @ url`) pin no version and are skipped."""
    deps = []
    for line in snapshot.read_text(path).splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("-") or "==" not in line:
            continue
        name, _, version = line.partition("==")
        if "@" in name:
            continue
        name = name.split("[", 1)[0].strip().lower().replace("_", "-")
        version = version.split(";", 1)[0].strip()
        if version.startswith("="):
            version = version[1:].strip()
        if name and version:
            deps.append((name, version, name))
    return _components(snapshot.hostname, "pypi", path, None, deps)


def scan_npm(snapshot: HostSnapshot, path: str) -> list[EvidenceRecord]:
    manifest = _read_object(snapshot, path)
    if not manifest.get("name"):
        return []
    lock_path = posixpath.join(posixpath.dirname(path), "package-lock.json")
    if snapshot.exists(lock_path):
        lock = _read_object(snapshot, lock_path)
        packages = lock.get("packages")
        if isinstance(packages, dict):  # lockfile v2 and later
            pins = {key.rsplit("node_modules/", 1)[-1]: info.get("version", "")
                    for key, info in packages.items() if key and isinstance(info, dict)}
        else:
            pins = {name: info.get("version", "")
                    for name, info in _object(lock.get("dependencies")).items()
                    if isinstance(info, dict)}
        source = lock_path
    else:
        pins = {name: _VERSION_PREFIX.sub("", str(spec))
                for name, spec in _object(manifest.get("dependencies")).items()}
        source = path
    deps = [(name, str(pins[name]), name) for name in sorted(pins)]
    return _components(snapshot.hostname, "npm", path, _project(manifest), deps, source)


def scan_composer(snapshot: HostSnapshot, path: str) -> list[EvidenceRecord]:
    manifest = _read_object(snapshot, path)
    if not manifest.get("name"):
        return []
    lock_path = posixpath.join(posixpath.dirname(path), "composer.lock")
    lock = _read_object(snapshot, lock_path) if snapshot.exists(lock_path) else {}
    packages = lock.get("packages")
    deps = []
    for info in packages if isinstance(packages, list) else ():
        name = str(info.get("name", "")) if isinstance(info, dict) else ""
        # Platform pseudo-packages describe the runtime, not shipped code.
        if name and name != "php" and not name.startswith(("ext-", "lib-")):
            deps.append((name, str(info.get("version", "")).lstrip("v"), name))
    return _components(snapshot.hostname, "composer", path, _project(manifest), deps, lock_path)


_SCANNERS = (
    ("pom.xml", scan_maven),
    ("requirements.txt", scan_pip),
    ("package.json", scan_npm),
    ("composer.json", scan_composer),
)


def scan_manifests(snapshot: HostSnapshot) -> list[EvidenceRecord]:
    """All package manifests in the snapshot: each ecosystem in turn, each
    in path order."""
    return [record for filename, scan in _SCANNERS
            for path in snapshot.find_named(filename)
            for record in scan(snapshot, path)]
