"""Document store: collections of JSON documents addressed by key.

The store keeps one file per document and writes atomically
(temp file + rename), so a crash mid-write never corrupts a stored
document and restarts see only complete states. What must change together
goes in one document: the audit service keeps each run's whole document
set in one record keyed by run id, so one put replaces it.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Optional
from urllib.parse import quote, unquote

__all__ = ["FileDocumentStore"]


def _encode(name: str) -> str:
    if not name:
        raise ValueError("names must be non-empty")
    return quote(name, safe="")


class FileDocumentStore:
    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.Lock()

    def _doc_path(self, collection: str, key: str) -> Path:
        return self.root / _encode(collection) / (_encode(key) + ".json")

    def put(self, collection: str, key: str, doc: Any) -> None:
        path = self._doc_path(collection, key)
        with self._write_lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    # Streamed, so a run's document record is never held
                    # in memory a second time as one encoded string.
                    json.dump(doc, handle, sort_keys=True, indent=1)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

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
