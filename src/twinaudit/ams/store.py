"""Document store: collections of JSON documents addressed by key.

The store keeps one file per document and writes atomically (temp file,
fsync, rename), so a crash mid-write never corrupts a stored document and
restarts see only complete states. What must change together goes in one
file, so one rename switches it.

Besides JSON records, the store keeps line files: a list of text lines
written as one file by the same path, for content that should reach the
disk verbatim, without being escaped into a JSON string. The audit service
keeps each run's document texts this way, one document per line.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence
from urllib.parse import quote, unquote

__all__ = ["FileDocumentStore", "OutdatedLayout"]


class OutdatedLayout(ValueError):
    """Data written in an earlier store layout, which is not read; the
    message says how to write it again."""


def _encode(name: str) -> str:
    if not name:
        raise ValueError("names must be non-empty")
    return quote(name, safe="")


class FileDocumentStore:
    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.Lock()

    def _doc_path(self, collection: str, key: str, suffix: str = ".json") -> Path:
        return self.root / _encode(collection) / (_encode(key) + suffix)

    def _write(self, path: Path, chunks: Iterable[bytes]) -> None:
        """Replace path with the chunks' bytes: temp file, fsync, rename."""
        with self._write_lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.writelines(chunks)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

    def put(self, collection: str, key: str, doc: Any) -> None:
        path = self._doc_path(collection, key)
        self._write(path, [json.dumps(doc, sort_keys=True, indent=1).encode("utf-8")])

    def get(self, collection: str, key: str) -> Optional[Any]:
        path = self._doc_path(collection, key)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None

    def query(self, collection: str) -> dict[str, Any]:
        """All documents in the collection, keyed, in sorted key order."""
        directory = self.root / _encode(collection)
        if not directory.is_dir():
            return {}
        docs: dict[str, Any] = {}
        for path in sorted(directory.glob("*.json")):
            key = unquote(path.name[: -len(".json")])
            docs[key] = json.loads(path.read_text(encoding="utf-8"))
        return docs

    def delete(self, collection: str, key: str) -> bool:
        path = self._doc_path(collection, key)
        with self._write_lock:
            try:
                path.unlink()
                return True
            except FileNotFoundError:
                return False

    # -- line files ---------------------------------------------------------

    def put_lines(self, collection: str, key: str, lines: Sequence[str]) -> None:
        """Write lines as one file, each ended by "\\n", in one atomic write.

        A line holding "\\n" is refused before anything is written.
        """
        for i, line in enumerate(lines):
            if "\n" in line:
                raise ValueError(f"line {i} holds a newline")
        # Line by line, so the file is never held in memory as one buffer.
        self._write(
            self._doc_path(collection, key, ".jsonl"),
            (f"{line}\n".encode("utf-8") for line in lines),
        )

    def get_lines(
        self, collection: str, key: str, count: Optional[int] = None
    ) -> Optional[list[str]]:
        """The file's lines (only the first `count` when given), or None.

        Lines are split on "\\n" alone, so any other line break inside a
        line comes back as it was written.
        """
        path = self._doc_path(collection, key, ".jsonl")
        try:
            with path.open("rb") as handle:
                # Binary lines end at b"\n" only; each keeps its "\n".
                return [line[:-1].decode("utf-8") for line in islice(handle, count)]
        except FileNotFoundError:
            return None
