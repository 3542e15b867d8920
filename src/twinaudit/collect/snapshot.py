"""Read-only access to captured host filesystems.

A snapshot is either a plain directory tree or a tar archive (optionally
gzipped) of one. Scanners only ever see this facade, which exposes no write
operations, so collection cannot alter the captured evidence. Only regular
files are read: symlinks in a directory and link members of a tar are
skipped, so nothing outside the snapshot is ever read.

A directory is read by one os.scandir walk that follows no link: each entry
is classified from its own type (is_dir/is_file with follow_symlinks=False),
so a symlinked file or directory is neither read nor descended into, and a
file's key is its parent's key plus its name. A file is opened without
following a link and read only if what was opened is a regular file, so a
file swapped for a symlink (or anything else) after the walk listed it is
skipped too.

A snapshot's digest is one sha256 over what it holds: each file key and its
bytes, length-framed, in key order. Neither its path nor any mtime enters it,
so two reads of the same files give one digest.
"""

from __future__ import annotations

import errno
import fnmatch
import hashlib
import json
import os
import stat
import tarfile
from pathlib import Path
from typing import Optional, Union


class SnapshotError(ValueError):
    pass


def _clean(path: str) -> str:
    while path.startswith("./"):
        path = path[2:]
    while path.startswith("/"):
        path = path[1:]
    return path


def _read_tree(root: str) -> dict[str, bytes]:
    """Every regular file below root, by its "/"-joined relative path."""
    files: dict[str, bytes] = {}
    pending = [("", root)]
    while pending:
        prefix, directory = pending.pop()
        try:
            entries = os.scandir(directory)
        except PermissionError:
            continue  # an unlistable directory holds no readable evidence
        with entries:
            for entry in entries:
                key = prefix + entry.name
                if entry.is_dir(follow_symlinks=False):
                    pending.append((key + "/", entry.path))
                elif entry.is_file(follow_symlinks=False):
                    data = _read_regular(entry.path)
                    if data is not None:
                        files[key] = data
    return files


# O_NOFOLLOW refuses a file swapped for a symlink after the scandir; with
# O_NONBLOCK a file swapped for a FIFO opens without waiting for a writer.
_READ_FLAGS = os.O_RDONLY | os.O_NOFOLLOW | os.O_CLOEXEC | os.O_NONBLOCK


def _read_regular(path: str) -> Optional[bytes]:
    """The bytes of the regular file at path, or None when path is now a
    symlink or, by fstat of what was opened, anything but a regular file."""
    try:
        fd = os.open(path, _READ_FLAGS)
    except OSError as exc:
        if exc.errno == errno.ELOOP:
            return None
        raise
    try:
        status = os.fstat(fd)
        if not stat.S_ISREG(status.st_mode):
            return None
        chunks = []  # one read takes the file as fstat sized it, the next its end
        while chunk := os.read(fd, max(status.st_size + 1, 1 << 12)):
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        os.close(fd)


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
            return cls(str(path), _read_tree(str(path)))
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

    def digest(self) -> bytes:
        """The sha256 of every file key and its bytes, length-framed, in
        key order."""
        content = hashlib.sha256()
        for key in sorted(self._files):
            name = key.encode("utf-8", "surrogatepass")
            data = self._files[key]
            content.update(b"%d:%d:" % (len(name), len(data)))
            content.update(name)
            content.update(data)
        return content.digest()

    def exists(self, path: str) -> bool:
        return _clean(path) in self._files

    def read_bytes(self, path: str) -> bytes:
        key = _clean(path)
        if key not in self._files:
            raise FileNotFoundError(f"{self._root}: no file {path!r} in snapshot")
        return self._files[key]

    def read_text(self, path: str) -> str:
        return self.read_bytes(path).decode("utf-8", errors="replace")

    def iter_files(self) -> list[str]:
        return sorted(self._files)

    def glob(self, pattern: str) -> list[str]:
        return sorted(fnmatch.filter(self._files, pattern))

    def find_named(self, filename: str) -> list[str]:
        """Paths whose basename matches exactly, anywhere in the tree."""
        return sorted(p for p in self._files if p.rsplit("/", 1)[-1] == filename)

    def packages(self) -> dict[str, str]:
        """OS package inventory from facts.json; {} when absent."""
        raw = self.facts.get("packages")
        if not isinstance(raw, dict):
            return {}
        return {str(k): str(v) for k, v in raw.items()}
