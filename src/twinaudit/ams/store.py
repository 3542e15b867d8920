"""Document store: collections of JSON documents addressed by key.

The store keeps one file per document, compact JSON with sorted keys (any
JSON text reads back), and writes atomically (temp file, fsync, rename), so a
crash mid-write never corrupts a stored document and restarts see only
complete states. What must change together goes in one
file, so one rename switches it.

Besides JSON records, the store keeps document logs, for texts that should
reach the disk verbatim, without being escaped into a JSON string, and that
change a few at a time. A log is a directory holding two files:

- `<generation>.log`, the texts, one per line. Texts are only ever appended.
- `index`, replaced whole at each commit. Its first line is `<generation>
  <live bytes>`: the log it indexes, and how many of its bytes entries point
  at. Each later line is one entry, `<offset> <length> <meta>`: where the
  entry's text lies in the log, and the caller's own index data.

A commit appends the new texts and fsyncs the log, then replaces the index:
that rename is its one commit point. A change may also give an entry a new
meta alone: its text is not written again, and its index line keeps its
place. The other entries' index lines are carried over as bytes, never
parsed. Bytes that no entry points at are dead:
the texts that entries no longer name, and the tail of a commit that died
before its rename. When a commit would leave more dead bytes than live ones,
it writes the live texts to a new generation instead, with the same temp
file, fsync and rename, and removes the old log once the index names the new
one. The audit service keeps each run's document texts this way, with each
host document's input key in its meta, so a rescan that finds a host's
inputs unchanged reads nothing of that host from the log, and one that finds
new inputs but the same texts commits the new metas alone. An audit that
finds a host's inputs unchanged since the profile's last audit reads that
host's entries from the last audit's log and writes them into its own.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union
from urllib.parse import quote, unquote

__all__ = ["DocumentLog", "FileDocumentStore"]


class DocumentLog(NamedTuple):
    """A document log as its last commit left it. Its entries are the
    index's entry lines as stored, parsed only where they are read."""

    directory: Path
    generation: int  # 0: no commit yet
    live: int  # bytes of the log that entries point at, newlines included
    entries: tuple[bytes, ...]

    @property
    def path(self) -> Path:
        return self.directory / f"{self.generation}.log"

    def meta(self, i: int) -> bytes:
        """The caller's index data of entry i."""
        return self.entries[i].split(b" ", 2)[2]


def _place(entry: bytes) -> tuple[int, int]:
    """Where an index entry's text lies in its log: offset and length."""
    offset, length, _ = entry.split(b" ", 2)
    return int(offset), int(length)


def _encode(name: str) -> str:
    if not name:
        raise ValueError("names must be non-empty")
    return quote(name, safe="")


def _write_fd(fd: int, chunks: Iterable[bytes]) -> None:
    """Write each chunk whole: one os.write may take only part of it."""
    for chunk in chunks:
        view = memoryview(chunk)
        while view:
            view = view[os.write(fd, view):]


class FileDocumentStore:
    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.RLock()

    def _doc_path(self, collection: str, key: str, suffix: str = ".json") -> Path:
        return self.root / _encode(collection) / (_encode(key) + suffix)

    def _write(self, path: Path, chunks: Iterable[bytes]) -> None:
        """Replace path with the chunks' bytes: temp file, fsync, rename."""
        with self._write_lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                try:
                    _write_fd(fd, chunks)
                    os.fsync(fd)
                finally:
                    os.close(fd)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

    def _append(self, path: Path, chunks: Iterable[bytes]) -> int:
        """Append the chunks' bytes to path and fsync; returns the offset
        they start at."""
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        try:
            at = os.lseek(fd, 0, os.SEEK_END)
            _write_fd(fd, chunks)
            os.fsync(fd)
            return at
        finally:
            os.close(fd)

    def put(self, collection: str, key: str, doc: Any) -> None:
        path = self._doc_path(collection, key)
        # No indent: an indent makes json encode in Python, not in C.
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        self._write(path, [text.encode("utf-8")])

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

    # -- document logs ------------------------------------------------------

    def get_log(self, collection: str, key: str) -> Optional[DocumentLog]:
        """The log's last committed state, read from its index alone, or
        None when the key has no log."""
        directory = self._doc_path(collection, key, "")
        try:
            # Split on b"\n" alone: a meta may hold any other line break.
            header, *entries = (directory / "index").read_bytes().split(b"\n")[:-1]
        except FileNotFoundError:
            return None
        generation, live = header.split(b" ")
        return DocumentLog(directory, int(generation), int(live), tuple(entries))

    def read_texts(self, log: DocumentLog, positions: Sequence[int]) -> list[str]:
        """The texts of the log's entries at these positions."""
        fd = os.open(log.path, os.O_RDONLY)
        try:
            texts = []
            for i in positions:
                offset, length = _place(log.entries[i])
                data = os.pread(fd, length, offset)
                if len(data) != length:
                    raise ValueError(f"{log.path} ends inside entry {i}")
                texts.append(data.decode("utf-8"))
            return texts
        finally:
            os.close(fd)

    def put_log(self, collection: str, key: str, entries: Sequence[tuple[str, str]]) -> DocumentLog:
        """Replace the key's log by one holding these (meta, text) entries,
        written as a new generation.

        Neither a meta nor a text may hold a newline: such an entry is
        refused, as is text UTF-8 cannot hold, before anything is written.
        """
        new = _encoded(dict(enumerate(entries)))
        with self._write_lock:
            empty = DocumentLog(self._doc_path(collection, key, ""), 0, 0, ())
            base = self.get_log(collection, key) or empty
            return self._rewrite(base, list(new.values()))

    def commit_log(
        self, log: DocumentLog, changes: Mapping[int, tuple[str, Optional[str]]]
    ) -> DocumentLog:
        """Give the entries at these positions a new (meta, text), in one
        atomic commit, and return the log's new state. A change whose text
        is None gives its entry the new meta and keeps its text, which is not
        written again. Refuses what put_log refuses, before anything is
        written."""
        new = _encoded(changes)
        with self._write_lock:
            entries = list(log.entries)
            for i, (meta, line) in new.items():
                if line is None:
                    entries[i] = b"%d %d %s" % (*_place(entries[i]), meta)
            texts = {i: change for i, change in new.items() if change[1] is not None}
            appended = sum(len(line) for _, line in texts.values())
            live = log.live - sum(_place(log.entries[i])[1] + 1 for i in texts) + appended
            if log.path.stat().st_size + appended > 2 * live:
                return self._rewrite(log, [texts.get(i, e) for i, e in enumerate(entries)])
            if texts:
                at = self._append(log.path, [line for _, line in texts.values()])
                for i, (meta, line) in texts.items():
                    entries[i] = b"%d %d %s" % (at, len(line) - 1, meta)
                    at += len(line)
            return self._commit_index(log.directory, log.generation, live, entries)

    def _rewrite(self, log: DocumentLog, items: list[Union[bytes, tuple[bytes, bytes]]]) -> DocumentLog:
        """Write the items' texts, in order, as the log's next generation,
        and commit an index that names it. An item is one of `log`'s entries,
        whose text is copied, or a new (meta, text line) pair."""
        generation = log.generation + 1
        self._write(log.directory / f"{generation}.log", self._lines(log, items))
        entries, at = [], 0
        for item in items:
            if isinstance(item, bytes):
                _, stored_length, meta = item.split(b" ", 2)
                length = int(stored_length)
            else:
                meta, length = item[0], len(item[1]) - 1
            entries.append(b"%d %d %s" % (at, length, meta))
            at += length + 1
        committed = self._commit_index(log.directory, generation, at, entries)
        # Logs the index no longer names: the one rewritten, and any a
        # crash left behind.
        for name in os.listdir(log.directory):
            if name.endswith(".log") and name != committed.path.name:
                os.unlink(log.directory / name)
        return committed

    @staticmethod
    def _lines(log: DocumentLog, items: list[Union[bytes, tuple[bytes, bytes]]]) -> Iterator[bytes]:
        """Each item's text line in order, carried ones read from `log`."""
        carried = any(isinstance(item, bytes) for item in items)
        fd = os.open(log.path, os.O_RDONLY) if carried else -1
        try:
            for item in items:
                if not isinstance(item, bytes):
                    yield item[1]
                    continue
                offset, length = _place(item)
                line = os.pread(fd, length + 1, offset)
                if len(line) != length + 1:
                    raise ValueError(f"{log.path} ends inside an entry")
                yield line
        finally:
            if fd >= 0:
                os.close(fd)

    def _commit_index(
        self, directory: Path, generation: int, live: int, entries: list[bytes]
    ) -> DocumentLog:
        """Replace the index: the commit point."""
        header = b"%d %d" % (generation, live)
        self._write(directory / "index", [b"\n".join([header, *entries, b""])])
        return DocumentLog(directory, generation, live, tuple(entries))


def _encoded(
    entries: Mapping[int, tuple[str, Optional[str]]],
) -> dict[int, tuple[bytes, Optional[bytes]]]:
    """Each (meta, text) as UTF-8 meta and text line, or None for no text;
    raises ValueError for a newline in either, and UnicodeEncodeError for
    text UTF-8 cannot hold."""
    encoded = {}
    for i, (meta, text) in entries.items():
        if "\n" in meta or (text is not None and "\n" in text):
            raise ValueError(f"entry {i} holds a newline")
        line = None if text is None else f"{text}\n".encode("utf-8")
        encoded[i] = (meta.encode("utf-8"), line)
    return encoded
