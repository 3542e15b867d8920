"""Read-only access to captured host filesystems.

A snapshot is either a plain directory tree or a tar archive (optionally
gzipped) of one. Scanners only ever see this facade, which exposes no write
operations, so collection cannot alter the captured evidence. Only regular
files are read: symlinks in a directory and link members of a tar are
skipped, so nothing outside the snapshot is ever read.
"""

from __future__ import annotations

import fnmatch
import json
import tarfile
from pathlib import Path
from typing import Union


class SnapshotError(ValueError):
    pass


def _clean(path: str) -> str:
    path = path.replace("\\", "/")
    while path.startswith("./"):
        path = path[2:]
    while path.startswith("/"):
        path = path[1:]
    return path


class HostSnapshot:
    """Immutable view of one captured host tree plus its facts.json."""

    def __init__(self, root: str, files: dict[str, bytes]):
        self._root = root
        self._files = files
        raw = files.get("facts.json")
        if raw is None:
            raise SnapshotError(f"{root}: snapshot has no facts.json")
        try:
            facts = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SnapshotError(f"{root}: facts.json is not valid JSON: {exc}") from exc
        if not isinstance(facts, dict) or not isinstance(facts.get("hostname"), str):
            raise SnapshotError(f"{root}: facts.json must carry a hostname")
        self.facts = facts
        self.hostname: str = facts["hostname"]

    @classmethod
    def open(cls, path: Union[str, Path]) -> "HostSnapshot":
        path = Path(path)
        if path.is_dir():
            files: dict[str, bytes] = {}
            for file in sorted(p for p in path.rglob("*") if p.is_file() and not p.is_symlink()):
                files[_clean(str(file.relative_to(path)))] = file.read_bytes()
            return cls(str(path), files)
        if path.is_file():
            try:
                with tarfile.open(path, "r:*") as archive:
                    files = {}
                    for member in archive.getmembers():
                        if not member.isfile():
                            continue
                        handle = archive.extractfile(member)
                        if handle is not None:
                            files[_clean(member.name)] = handle.read()
                return cls(str(path), files)
            except tarfile.TarError as exc:
                raise SnapshotError(f"{path}: not a readable tar archive: {exc}") from exc
        raise SnapshotError(f"{path}: no such snapshot")

    @property
    def root(self) -> str:
        return self._root

    def exists(self, path: str) -> bool:
        return _clean(path) in self._files

    def read_bytes(self, path: str) -> bytes:
        key = _clean(path)
        if key not in self._files:
            raise FileNotFoundError(f"{self._root}: no file {path!r} in snapshot")
        return self._files[key]

    def read_text(self, path: str, errors: str = "replace") -> str:
        return self.read_bytes(path).decode("utf-8", errors=errors)

    def iter_files(self) -> list[str]:
        return sorted(self._files)

    def glob(self, pattern: str) -> list[str]:
        return sorted(p for p in self._files if fnmatch.fnmatch(p, pattern))

    def find_named(self, filename: str) -> list[str]:
        """Paths whose basename matches exactly, anywhere in the tree."""
        return sorted(p for p in self._files if p.rsplit("/", 1)[-1] == filename)

    def packages(self) -> dict[str, str]:
        """OS package inventory from facts.json; {} when absent."""
        raw = self.facts.get("packages")
        if not isinstance(raw, dict):
            return {}
        return {str(k): str(v) for k, v in raw.items()}
