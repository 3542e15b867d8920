"""Reference manifest scanners: the collector's former maven, pip, npm and
composer scanners, kept as they were but for pip's reading of PEP 508 (the
lines marked so): extras leave the name, `===` is arbitrary equality, and a
URL requirement is skipped.

`twinaudit.collect.manifests` reads each JSON file and field through one
type guard and builds every record in one place. Tests scan the same
snapshots with these functions as well and compare the records wherever
these return; they raise AttributeError or TypeError on some JSON shapes
(a lockfile that holds a list, a `dependencies` that is not an object),
which the collector's scanners read as empty.
"""

from __future__ import annotations

import json
import posixpath
import re
import xml.etree.ElementTree as ET
from typing import Optional

from twinaudit.collect.records import EvidenceCategory, EvidenceRecord, make_record
from twinaudit.collect.snapshot import HostSnapshot

_VERSION_PREFIX = re.compile(r"^[~^>=<\s]+")


def _component(
    host: str,
    source: str,
    name: str,
    version: str,
    ecosystem: str,
    role: str,
    purl: str,
    manifest: str = "",
) -> EvidenceRecord:
    # manifest groups a project with its dependencies across manifest+lockfile.
    return make_record(
        EvidenceCategory.SOFTWARE_COMPONENT,
        name=name,
        host=host,
        source_path=source,
        version=version,
        attributes={
            "ecosystem": ecosystem,
            "role": role,
            "purl": purl,
            "manifest": manifest or source,
        },
    )


def _xml_text(parent: Optional[ET.Element], tag: str) -> str:
    if parent is None:
        return ""
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

    def tagged(tag: str) -> str:
        return f"{prefix}{tag}"

    group = _xml_text(root, tagged("groupId"))
    artifact = _xml_text(root, tagged("artifactId"))
    version = _xml_text(root, tagged("version"))
    if not artifact:
        return []
    out = [
        _component(
            snapshot.hostname,
            path,
            artifact,
            version,
            "maven",
            "project",
            f"pkg:maven/{group or artifact}/{artifact}@{version}",
        )
    ]
    deps = root.find(tagged("dependencies"))
    if deps is not None:
        for dep in deps.findall(tagged("dependency")):
            dep_group = _xml_text(dep, tagged("groupId"))
            dep_artifact = _xml_text(dep, tagged("artifactId"))
            dep_version = _xml_text(dep, tagged("version"))
            if not dep_artifact:
                continue
            out.append(
                _component(
                    snapshot.hostname,
                    path,
                    dep_artifact,
                    dep_version,
                    "maven",
                    "dependency",
                    f"pkg:maven/{dep_group or dep_artifact}/{dep_artifact}@{dep_version}",
                )
            )
    return out


def scan_pip(snapshot: HostSnapshot, path: str) -> list[EvidenceRecord]:
    out = []
    for line in snapshot.read_text(path).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or line.startswith("-"):
            continue
        if "==" not in line:
            continue
        name, _, version = line.partition("==")
        if "@" in name:  # PEP 508: a URL requirement
            continue
        name = name.split("[", 1)[0].strip().lower().replace("_", "-")  # PEP 508: no extras
        version = version.split(";", 1)[0].strip()
        if version.startswith("="):  # PEP 508: `===`, arbitrary equality
            version = version[1:].strip()
        if not name or not version:
            continue
        out.append(
            _component(
                snapshot.hostname,
                path,
                name,
                version,
                "pypi",
                "dependency",
                f"pkg:pypi/{name}@{version}",
            )
        )
    return out


def scan_npm(snapshot: HostSnapshot, path: str) -> list[EvidenceRecord]:
    try:
        manifest = json.loads(snapshot.read_text(path))
    except ValueError:
        return []
    if not isinstance(manifest, dict) or not manifest.get("name"):
        return []
    out = []
    name, version = str(manifest["name"]), str(manifest.get("version", ""))
    out.append(
        _component(
            snapshot.hostname,
            path,
            name,
            version,
            "npm",
            "project",
            f"pkg:npm/{name}@{version}",
        )
    )

    lock_path = posixpath.join(posixpath.dirname(path), "package-lock.json")
    deps: dict[str, str] = {}
    if snapshot.exists(lock_path):
        try:
            lock = json.loads(snapshot.read_text(lock_path))
        except ValueError:
            lock = {}
        packages = lock.get("packages")
        if isinstance(packages, dict):
            for key, info in packages.items():
                if not key or not isinstance(info, dict):
                    continue
                dep_name = key.rsplit("node_modules/", 1)[-1]
                deps[dep_name] = str(info.get("version", ""))
        else:
            for dep_name, info in (lock.get("dependencies") or {}).items():
                if isinstance(info, dict):
                    deps[dep_name] = str(info.get("version", ""))
        source = lock_path
    else:
        for dep_name, spec in (manifest.get("dependencies") or {}).items():
            deps[dep_name] = _VERSION_PREFIX.sub("", str(spec))
        source = path

    for dep_name in sorted(deps):
        out.append(
            _component(
                snapshot.hostname,
                source,
                dep_name,
                deps[dep_name],
                "npm",
                "dependency",
                f"pkg:npm/{dep_name}@{deps[dep_name]}",
                manifest=path,
            )
        )
    return out


def scan_composer(snapshot: HostSnapshot, path: str) -> list[EvidenceRecord]:
    try:
        manifest = json.loads(snapshot.read_text(path))
    except ValueError:
        return []
    if not isinstance(manifest, dict) or not manifest.get("name"):
        return []
    out = []
    name, version = str(manifest["name"]), str(manifest.get("version", ""))
    out.append(
        _component(
            snapshot.hostname,
            path,
            name,
            version,
            "composer",
            "project",
            f"pkg:composer/{name}@{version}",
        )
    )

    lock_path = posixpath.join(posixpath.dirname(path), "composer.lock")
    if snapshot.exists(lock_path):
        try:
            lock = json.loads(snapshot.read_text(lock_path))
        except ValueError:
            lock = {}
        for info in lock.get("packages") or []:
            if not isinstance(info, dict):
                continue
            dep_name = str(info.get("name", ""))
            # Platform pseudo-packages describe the runtime, not shipped code.
            if not dep_name or dep_name == "php" or dep_name.startswith(("ext-", "lib-")):
                continue
            dep_version = str(info.get("version", "")).lstrip("v")
            out.append(
                _component(
                    snapshot.hostname,
                    lock_path,
                    dep_name,
                    dep_version,
                    "composer",
                    "dependency",
                    f"pkg:composer/{dep_name}@{dep_version}",
                    manifest=path,
                )
            )
    return out


def scan_manifests(snapshot: HostSnapshot) -> list[EvidenceRecord]:
    """All package manifests in the snapshot, in path order."""
    out: list[EvidenceRecord] = []
    for path in snapshot.find_named("pom.xml"):
        out.extend(scan_maven(snapshot, path))
    for path in snapshot.find_named("requirements.txt"):
        out.extend(scan_pip(snapshot, path))
    for path in snapshot.find_named("package.json"):
        out.extend(scan_npm(snapshot, path))
    for path in snapshot.find_named("composer.json"):
        out.extend(scan_composer(snapshot, path))
    return out
