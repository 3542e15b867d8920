"""Audit orchestration: inventory, profiles, run lifecycle, twin sync."""

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
import requests
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from twinaudit.ams import (
    AuditProfile,
    AuditRun,
    AuditService,
    FileDocumentStore,
    HostRecord,
    InvalidTransition,
    InventoryError,
    ProfileError,
    RunState,
    Segment,
    SyncPolicy,
    TRANSITIONS,
    UnknownRun,
    ingest_inventory,
    load_inventory,
    load_profile_file,
    parse_inventory,
    selected_hosts,
    topology_from_store,
)
from twinaudit.ams.profiles import create_profile, get_profile
import twinaudit.ams.service as service_module
import twinaudit.ams.store as store_module
import twinaudit.ams.topology as topology_module
from twinaudit.config import load_config
from twinaudit.bom import BomKind, BomValidationError, parse_bom, serialize_bom
from twinaudit.collect import EvidenceCategory, HostSnapshot, scan_host
from twinaudit.fixtures import data_path
from twinaudit.fixtures.generator import generate
from twinaudit.forge import link_to_profile, summarize_bom
from twinaudit.instance import thing_texts_from_boms
from twinaudit.jsonhttp import SharedJsonServer, http_json
from twinaudit.manager import (
    InProcessRuntime,
    ManagerClient,
    ManagerService,
    SdtManager,
)
from twinaudit.report import render_report, report_counts
from twinaudit.vulnstore import VulnerabilityStore

# ---------------------------------------------------------------------------
# snapshot scaffolding


def write_snapshot(
    root: Path,
    hostname: str,
    packages=None,
    cert_pem: bytes = None,
    sysctl=None,
    os_packages=None,
    broken=False,
):
    """Materialise a minimal captured host tree under root/hostname."""
    host_dir = root / hostname
    host_dir.mkdir(parents=True, exist_ok=True)
    if not broken:
        facts = {"hostname": hostname}
        if os_packages:
            facts["packages"] = os_packages
        (host_dir / "facts.json").write_text(json.dumps(facts), encoding="utf-8")
    if packages:
        app = host_dir / "srv" / "app"
        app.mkdir(parents=True, exist_ok=True)
        lines = "".join(f"{name}=={version}\n" for name, version in packages.items())
        (app / "requirements.txt").write_text(lines, encoding="utf-8")
    if cert_pem:
        certs = host_dir / "etc" / "ssl" / "certs"
        certs.mkdir(parents=True, exist_ok=True)
        (certs / "server.pem").write_bytes(cert_pem)
    if sysctl:
        etc = host_dir / "etc"
        etc.mkdir(exist_ok=True)
        lines = "".join(f"{key} = {value}\n" for key, value in sysctl.items())
        (etc / "sysctl.conf").write_text(lines, encoding="utf-8")
    return host_dir


def log_contents(store, key):
    """A document log's committed (meta, text) entries, as a fresh store
    reads them."""
    fresh = FileDocumentStore(store.root)
    log = fresh.get_log("run_documents", key)
    texts = fresh.read_texts(log, range(len(log.entries)))
    return [(log.meta(i).decode(), text) for i, text in enumerate(texts)]


def stored_entries(service, run):
    """The run's index entries, each with its document's text. A host
    document's meta ends in its input key; the manifest's has none."""
    entries = []
    for meta, text in log_contents(service.store, run.run_id):
        serial, version, summary = meta.split(" ", 2)
        summary, key = (summary, "") if summary.endswith("}") else summary.rsplit(" ", 1)
        entries.append({
            "serial": serial, "version": int(version), "summary": summary, "key": key, "text": text
        })
    return entries


def stored_boms(service, run):
    """The run's stored documents, parsed; run_boms returns their summaries."""
    return [parse_bom(entry["text"]) for entry in stored_entries(service, run)]


def files_under(root):
    """Every file below root, by relative path, with its bytes."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def inventory_doc(snapshot_root: Path, hosts):
    return {
        "hosts": [
            {
                "host_id": host,
                "role": role,
                "segment": segment,
                "snapshot_ref": str(snapshot_root / host),
            }
            for host, role, segment in hosts
        ],
        "relationships": [],
    }


FEED_LINES = [
    json.dumps(
        {
            "cve": "CVE-2021-23337",
            "summary": "lodash command injection",
            "cvss": {"score": 7.2, "vector": "CVSS:3.1/AV:N/AC:L/PR:H/UI:N/S:U/C:H/I:H/A:H"},
            "affects": [{"name": "lodash", "introduced": "0", "fixed": "4.17.21"}],
        }
    ),
    json.dumps(
        {
            "cve": "CVE-2022-40023",
            "summary": "mako regex denial of service",
            "cvss": {"score": 5.3, "vector": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:L"},
            "affects": [{"name": "mako", "introduced": "0", "fixed": "1.2.2"}],
        }
    ),
]


def vuln_store():
    store = VulnerabilityStore()
    store.ingest_lines(FEED_LINES)
    return store


# ---------------------------------------------------------------------------
# shared manager environment (one HTTP server for each module that uses it;
# tests/test_bench.py and tests/test_acceptance.py import Env too)

_ENV = None


class Env:
    def __init__(self):
        self.server = SharedJsonServer().start()
        self.runtime = InProcessRuntime(self.server)
        self.counter = 0
        self.mounted = []  # (prefix, manager) since the last release

    def make_manager_client(self):
        manager = SdtManager(runtimes=[self.runtime])
        self.counter += 1
        prefix = f"/ams-mgr{self.counter}"
        self.server.mount(prefix, ManagerService(manager))
        self.mounted.append((prefix, manager))
        return manager, ManagerClient(self.server.url_for(prefix))

    def release(self):
        """Destroy every twin of the managers mounted since the last
        release, and unmount them, so that nothing of a finished test or
        hypothesis example stays reachable from the shared server."""
        while self.mounted:
            prefix, manager = self.mounted.pop()
            for descriptor in manager.list_descriptors():
                manager.handle_destroy(descriptor["sdtId"])
            self.server.unmount(prefix)

    def stop(self):
        self.server.stop()


def setup_module(module):
    global _ENV
    _ENV = Env()


def teardown_module(module):
    if _ENV is not None:
        _ENV.stop()


@pytest.fixture(autouse=True)
def released_managers():
    """Each test's managers are released when it ends (hypothesis examples
    release their own, as each ends)."""
    yield
    _ENV.release()


@pytest.fixture()
def env():
    return _ENV


@pytest.fixture()
def service(tmp_path, env):
    """AuditService over a fresh file store, one host, real manager."""
    store = FileDocumentStore(tmp_path / "store")
    snapshots = tmp_path / "snapshots"
    write_snapshot(
        snapshots,
        "web-01",
        packages={"lodash": "4.17.20", "requests": "2.28.0"},
        cert_pem=data_path("web-01.pem").read_bytes(),
        sysctl={"net.ipv4.ip_forward": "0"},
    )
    ingest_inventory(store, inventory_doc(snapshots, [("web-01", "web-server", "DMZ")]))
    _, client = env.make_manager_client()
    svc = AuditService(
        store,
        client,
        vulnerabilities=vuln_store(),
        sdt_options={"tokens": {"operator-token": ["READ"]}},
    )
    create_profile(
        svc.store,
        AuditProfile(profile_id="profile-web", name="Web estate", host_selector=("web-01",)),
    )
    svc._snapshots = snapshots
    return svc


def change_web_01(snapshots: Path, lodash: str) -> None:
    """Rewrite the service fixture's host with another lodash release."""
    write_snapshot(
        snapshots,
        "web-01",
        packages={"lodash": lodash, "requests": "2.28.0"},
        cert_pem=data_path("web-01.pem").read_bytes(),
        sysctl={"net.ipv4.ip_forward": "0"},
    )


class DyingStore(FileDocumentStore):
    """A store whose disk dies part-way through writing a document set.

    Once `budget` is set, writes outside the runs collection go through
    until they have put down that many bytes; the write that would cross it
    puts down the bytes up to it and fails. A replacing write then leaves
    nothing behind, as FileDocumentStore's writes do; an append leaves its
    part in the log.
    """

    budget = None

    def _spend(self, path, chunks):
        counted = self.budget is not None and path.relative_to(self.root).parts[0] != "runs"
        for chunk in chunks:
            if counted and len(chunk) > self.budget:
                yield chunk[: self.budget]
                self.budget = 0
                raise OSError("injected: disk failed while writing documents")
            if counted:
                self.budget -= len(chunk)
            yield chunk

    def _write(self, path, chunks):
        super()._write(path, self._spend(path, chunks))

    def _append(self, path, chunks):
        return super()._append(path, self._spend(path, chunks))


# ---------------------------------------------------------------------------


class TestFileDocumentStore:
    def test_round_trip_and_missing(self, tmp_path):
        store = FileDocumentStore(tmp_path)
        store.put("runs", "abc", {"x": 1})
        assert store.get("runs", "abc") == {"x": 1}
        assert store.get("runs", "nope") is None

    def test_put_replaces(self, tmp_path):
        store = FileDocumentStore(tmp_path)
        store.put("runs", "abc", {"x": 1})
        store.put("runs", "abc", {"x": 2})
        assert store.get("runs", "abc") == {"x": 2}

    def test_query_sorted_and_delete(self, tmp_path):
        store = FileDocumentStore(tmp_path)
        for key in ("b", "a", "c"):
            store.put("hosts", key, {"id": key})
        assert list(store.query("hosts")) == ["a", "b", "c"]
        assert store.delete("hosts", "b") is True
        assert store.delete("hosts", "b") is False
        assert list(store.query("hosts")) == ["a", "c"]

    def test_keys_with_awkward_characters(self, tmp_path):
        store = FileDocumentStore(tmp_path)
        key = "profile-web:host/with:odd..chars"
        store.put("profiles_derived", key, {"ok": True})
        assert store.get("profiles_derived", key) == {"ok": True}
        assert key in store.query("profiles_derived")

    def test_failed_put_keeps_the_previous_document(self, tmp_path):
        store = FileDocumentStore(tmp_path)
        store.put("runs", "abc", {"x": 1})
        # The document cannot be encoded, so nothing is written.
        with pytest.raises(TypeError):
            store.put("runs", "abc", {"a": "x" * 100_000, "b": object()})
        assert store.get("runs", "abc") == {"x": 1}
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["abc.json"]

    def test_records_are_compact_and_indented_ones_still_read(self, tmp_path):
        store = FileDocumentStore(tmp_path)
        doc = {"state": "CREATED", "hosts": ["b", "a"], "nested": {"z": 1, "y": [None, 2.5]}}
        store.put("runs", "new", doc)
        assert (tmp_path / "runs" / "new.json").read_text(encoding="utf-8") == json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        )
        # A record as stores wrote them before they were compact.
        (tmp_path / "runs" / "old.json").write_text(
            json.dumps(doc, sort_keys=True, indent=1), encoding="utf-8"
        )
        assert store.get("runs", "old") == doc
        assert store.query("runs") == {"new": doc, "old": doc}

    def test_restart_durability(self, tmp_path):
        FileDocumentStore(tmp_path).put("runs", "r1", {"state": "CREATED"})
        reopened = FileDocumentStore(tmp_path)
        assert reopened.get("runs", "r1") == {"state": "CREATED"}

    def test_empty_names_rejected(self, tmp_path):
        store = FileDocumentStore(tmp_path)
        with pytest.raises(ValueError):
            store.put("", "key", {})
        with pytest.raises(ValueError):
            store.put("runs", "", {})


# Line breaks other than "\n", quotes and backslashes: a document log keeps
# them inside a line, in its texts and in its index.
AWKWARD = st.text(alphabet=st.sampled_from('\r\x1c\x85\u2028"\\ az{}'), max_size=12)
# Text a UTF-8 file can hold: a lone surrogate has no encoding, and the
# store refuses it (UnicodeEncodeError) before anything is replaced.
LINE_TEXT = st.one_of(
    AWKWARD,
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n")),
)
LINE_TEXTS = st.lists(LINE_TEXT, max_size=6)


class Crash(BaseException):
    """The process dies: no later step runs, no handler cleans up."""


class CrashingOs:
    """The store module's `os`, for a process that dies at its `at`-th
    write step (write, fsync, replace or unlink, counted from 0). The dying
    write puts down the first `cut` share of its bytes. Every step after
    the crash dies too; other calls go through."""

    def __init__(self, at, cut):
        self.at, self.cut, self.steps, self.dead = at, cut, 0, False
        self.replaced = []  # targets of the renames that went through

    def __getattr__(self, name):
        return getattr(os, name)

    def _dies(self):
        if self.dead:
            raise Crash()
        self.dead = self.steps == self.at
        self.steps += 1
        return self.dead

    def write(self, fd, data):
        if self._dies():
            os.write(fd, data[: int(len(data) * self.cut)])
            raise Crash()
        return os.write(fd, data)

    def fsync(self, fd):
        if self._dies():
            raise Crash()
        os.fsync(fd)

    def replace(self, src, dst):
        if self._dies():
            raise Crash()
        os.replace(src, dst)
        self.replaced.append(Path(dst).name)

    def unlink(self, path):
        if self._dies():
            raise Crash()
        os.unlink(path)


class TestRunFile:
    @settings(max_examples=60, deadline=None)
    @given(
        documents=st.lists(
            st.tuples(
                LINE_TEXT,
                st.dictionaries(AWKWARD, AWKWARD | st.integers()),
                st.sampled_from(["", " " + "0f" * 32]),  # no input key, or one
            ),
            max_size=6,
        )
    )
    def test_round_trip_and_index_only_read(self, documents):
        entries = [
            (f"urn:uuid:{i} {i + 1} {json.dumps(summary)}{key}", text)
            for i, (text, summary, key) in enumerate(documents)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            store = FileDocumentStore(tmp)
            svc = AuditService(store, ManagerClient("http://offline.invalid"))
            store.put_log("run_documents", "r", entries)
            assert log_contents(store, "r") == entries
            # Reports read the index alone: they need no log file.
            store.get_log("run_documents", "r").path.unlink()
            run = AuditRun(run_id="r", profile_id="p")
            assert svc.run_boms(run) == [summary for _, summary, _ in documents]

    @settings(max_examples=40, deadline=None)
    @given(
        before=LINE_TEXTS,
        after=LINE_TEXTS,
        at=st.integers(0, 6),
        text=AWKWARD,
        in_meta=st.booleans(),
    )
    def test_a_line_holding_a_newline_is_refused(self, before, after, at, text, in_meta):
        with tempfile.TemporaryDirectory() as tmp:
            store = FileDocumentStore(tmp)
            # Texts as metas too: the index keeps any line break but "\n".
            log = store.put_log("run_documents", "r", [(t, t) for t in before])
            written = files_under(tmp)
            half = len(text) // 2
            broken = text[:half] + "\n" + text[half:]
            entries = [("m", t) for t in after]
            entries.insert(at, (broken, "t") if in_meta else ("m", broken))
            for write in (
                lambda: store.put_log("run_documents", "r", entries),
                lambda: store.commit_log(log, dict(enumerate(entries))),
            ):
                with pytest.raises(ValueError, match="newline"):
                    write()
                assert files_under(tmp) == written
            assert log_contents(store, "r") == [(t, t) for t in before]

    def test_a_line_utf8_cannot_hold_is_refused(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = FileDocumentStore(tmp)
            log = store.put_log("run_documents", "r", [("m", "a")])
            written = files_under(tmp)
            for write in (
                lambda: store.put_log("run_documents", "r", [("m", "b"), ("m", "\ud800")]),
                lambda: store.commit_log(log, {0: ("m", "\ud800")}),
                lambda: store.commit_log(log, {0: ("\ud800", "b")}),
            ):
                with pytest.raises(UnicodeEncodeError):
                    write()
                assert files_under(tmp) == written
            assert log_contents(store, "r") == [("m", "a")]

    @settings(max_examples=80, deadline=None)
    @given(
        first=st.lists(LINE_TEXT, min_size=1, max_size=5),
        commits=st.lists(
            st.tuples(
                # Replaced texts; None gives the entry a new meta alone.
                st.dictionaries(st.integers(0, 4), st.none() | LINE_TEXT, max_size=5),
                st.integers(0, 12),  # the write step that dies
                st.floats(0, 1),  # the share of its bytes a dying write puts down
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_a_crash_at_any_write_step_leaves_the_last_commit(self, first, commits):
        """Whatever write step of a commit or a compaction dies, a fresh
        store reads exactly the last committed entries, and later commits
        go on from them."""
        with tempfile.TemporaryDirectory() as tmp:
            store = FileDocumentStore(tmp)
            committed = [(f"m{i}", t) for i, t in enumerate(first)]
            store.put_log("run_documents", "r", committed)
            for n, (changes, at, cut) in enumerate(commits):
                log = store.get_log("run_documents", "r")
                replaced, wanted = {}, list(committed)
                for i, text in changes.items():
                    if i < len(wanted):
                        replaced[i] = (f"m{i}.{n}", text)
                        wanted[i] = (f"m{i}.{n}", wanted[i][1] if text is None else text)
                crashing = CrashingOs(at, cut)
                with mock.patch.object(store_module, "os", crashing):
                    try:
                        store.commit_log(log, replaced)
                    except Crash:
                        pass
                if not crashing.dead or "index" in crashing.replaced:
                    committed = wanted
                assert log_contents(store, "r") == committed


def parent_layout_topology(store, inventories):
    """The reference: how the layout before the inventory record stored and
    read inventories, one record per host."""
    for doc in inventories:
        graph = parse_inventory(doc)
        for host in graph.hosts:
            store.put("hosts", host.host_id, host.to_dict())
        stored = store.get("topology", "relationships") or []
        merged = {json.dumps(r, sort_keys=True) for r in stored}
        merged.update(json.dumps(r.to_dict(), sort_keys=True) for r in graph.relationships)
        store.put("topology", "relationships", [json.loads(r) for r in sorted(merged)])
    hosts = tuple(HostRecord.from_dict(doc) for doc in store.query("hosts").values())
    return hosts, store.get("topology", "relationships")


@st.composite
def inventories(draw):
    # Ids of one length: the reference layout lists hosts in file-name
    # order, which is host-id order only when no id is another's prefix.
    ids = draw(st.lists(st.text(alphabet="ab-0", min_size=3, max_size=3), unique=True, max_size=5))
    hosts = [
        {
            "host_id": host_id,
            "role": draw(st.sampled_from(["web-server", "mail-server"])),
            "segment": draw(st.sampled_from(["DMZ", "LAN"])),
            "snapshot_ref": draw(st.sampled_from(["/s/1", "/s/2"])),
        }
        for host_id in ids
    ]
    relationships = [
        {"source": source, "kind": kind, "target": target}
        for source, kind, target in draw(
            st.lists(
                st.tuples(st.sampled_from(ids), st.sampled_from(["SERVES", "CONNECTS_TO"]),
                          st.sampled_from(ids)),
                max_size=4,
            )
        )
    ] if ids else []
    return {"hosts": hosts, "relationships": relationships}


class TestInventory:
    @settings(max_examples=60, deadline=None)
    @given(first=inventories(), second=inventories())
    def test_one_record_reads_as_the_per_host_layout(self, first, second):
        """B's hosts override A's, relationships merge, hosts come back in
        host-id order, exactly as with one record per host."""
        with tempfile.TemporaryDirectory() as tmp:
            store = FileDocumentStore(Path(tmp) / "new")
            ingest_inventory(store, first)
            ingest_inventory(store, second)
            hosts, relationships = parent_layout_topology(
                FileDocumentStore(Path(tmp) / "old"), [first, second]
            )
            topology = topology_from_store(store)
            assert topology.hosts == hosts
            assert [r.to_dict() for r in topology.relationships] == relationships
            assert [h.host_id for h in topology.hosts] == sorted(h.host_id for h in hosts)
            assert [p.name for p in (Path(tmp) / "new").iterdir()] == ["topology"]

    @settings(max_examples=60, deadline=None)
    @given(doc=inventories())
    def test_a_stored_inventory_answers_as_the_file_does(self, doc):
        """Records built as they are read, from the store, answer every
        query as the graph of the file, read in full, does."""
        with tempfile.TemporaryDirectory() as tmp:
            store = FileDocumentStore(tmp)
            ingest_inventory(store, doc)
            parsed = parse_inventory(doc)
            stored = topology_from_store(store)
            for host_id in parsed.host_ids():
                assert stored.host(host_id) == parsed.host(host_id)
            assert stored.hosts == parsed.hosts
            assert stored.host_ids() == parsed.host_ids()
            for role in ("web-server", "mail-server", "db-server"):
                assert stored.by_role(role) == parsed.by_role(role)
            assert stored.relationships == parsed.relationships
            for graph in (stored, parsed, topology_from_store(store)):
                with pytest.raises(InventoryError, match="'zzzz' is not in the inventory"):
                    graph.host("zzzz")

    def test_a_stored_entry_is_checked_when_it_is_built(self, tmp_path):
        store = FileDocumentStore(tmp_path)
        store.put("topology", "inventory", {
            "hosts": [
                {"host_id": "a", "role": "r", "segment": "LAN", "snapshot_ref": "/a"},
                {"host_id": "b", "role": "r", "segment": "WAN", "snapshot_ref": "/b"},
            ],
            "relationships": [{"source": "a", "kind": "SERVES", "target": "ghost"}],
        })
        topology = topology_from_store(store)
        assert topology.host("a").segment is Segment.LAN
        with pytest.raises(InventoryError, match="unknown segment 'WAN'"):
            topology.host("b")
        with pytest.raises(InventoryError, match="unknown segment 'WAN'"):
            topology.hosts
        with pytest.raises(InventoryError, match="'ghost' is not a known host"):
            topology.relationships

    def test_ingest_and_rebuild(self, tmp_path):
        store = FileDocumentStore(tmp_path)
        doc = {
            "hosts": [
                {"host_id": "web-01", "role": "web-server", "segment": "DMZ",
                 "snapshot_ref": "/snap/web-01"},
                {"host_id": "mgmt-01", "role": "management-system", "segment": "LAN",
                 "snapshot_ref": "/snap/mgmt-01"},
            ],
            "relationships": [
                {"source": "mgmt-01", "kind": "CONNECTS_TO", "target": "web-01"},
            ],
        }
        ingested = ingest_inventory(store, doc)
        assert len(ingested.hosts) == 2
        topology = topology_from_store(store)
        assert topology.host_ids() == ["mgmt-01", "web-01"]
        assert topology.host("web-01").segment is Segment.DMZ
        assert len(topology.relationships) == 1

    def test_reingest_is_idempotent(self, tmp_path):
        store = FileDocumentStore(tmp_path)
        doc = {
            "hosts": [{"host_id": "a", "role": "r", "segment": "LAN", "snapshot_ref": "/s"}],
            "relationships": [],
        }
        ingest_inventory(store, doc)
        ingest_inventory(store, doc)
        assert len(topology_from_store(store).hosts) == 1

    def test_duplicate_host_id_names_the_offender(self):
        doc = {
            "hosts": [
                {"host_id": "dup", "role": "r", "segment": "LAN", "snapshot_ref": "/a"},
                {"host_id": "dup", "role": "r", "segment": "DMZ", "snapshot_ref": "/b"},
            ],
        }
        with pytest.raises(InventoryError, match="dup"):
            parse_inventory(doc)

    def test_unknown_relationship_endpoint(self):
        doc = {
            "hosts": [{"host_id": "a", "role": "r", "segment": "LAN", "snapshot_ref": "/a"}],
            "relationships": [{"source": "a", "kind": "SERVES", "target": "ghost"}],
        }
        with pytest.raises(InventoryError, match="ghost"):
            parse_inventory(doc)

    def test_unknown_segment_rejected(self):
        doc = {"hosts": [{"host_id": "a", "role": "r", "segment": "WAN", "snapshot_ref": "/a"}]}
        with pytest.raises(InventoryError):
            parse_inventory(doc)

    def test_load_from_json_and_yaml(self, tmp_path):
        doc = {"hosts": [{"host_id": "a", "role": "r", "segment": "LAN", "snapshot_ref": "/a"}]}
        json_file = tmp_path / "inv.json"
        json_file.write_text(json.dumps(doc), encoding="utf-8")
        yaml_file = tmp_path / "inv.yaml"
        yaml_file.write_text(
            "hosts:\n  - host_id: a\n    role: r\n    segment: LAN\n    snapshot_ref: /a\n",
            encoding="utf-8",
        )
        assert load_inventory(json_file).host_ids() == ["a"]
        assert load_inventory(yaml_file).host_ids() == ["a"]


@pytest.mark.parametrize("suffix", [".json", ".yaml", ".YML"])
def test_config_inventory_and_profile_files_share_one_reader(tmp_path, suffix):
    """YAML by a .yaml or .yml suffix in any case, JSON otherwise; each
    loader refuses a file that is not a mapping with its own error."""
    dump = json.dumps if suffix == ".json" else yaml.safe_dump
    files = {}
    for name, doc in {
        "config": {"store_path": "s"},
        "inventory": {"hosts": [
            {"host_id": "a", "role": "r", "segment": "LAN", "snapshot_ref": "/a"}]},
        "profile": {"profile_id": "p", "host_selector": ["a"]},
        "list": ["a"],
    }.items():
        files[name] = tmp_path / f"{name}{suffix}"
        files[name].write_text(dump(doc), encoding="utf-8")
    assert load_config(str(files["config"]), env={}).store_path == "s"
    assert load_inventory(files["inventory"]).host_ids() == ["a"]
    assert load_profile_file(files["profile"]).profile_id == "p"
    for load, error in (
        (lambda path: load_config(str(path), env={}), ValueError),
        (load_inventory, InventoryError),
        (load_profile_file, ProfileError),
    ):
        with pytest.raises(error):
            load(files["list"])


class TestProfiles:
    def topology_store(self, tmp_path):
        store = FileDocumentStore(tmp_path)
        ingest_inventory(
            store,
            {
                "hosts": [
                    {"host_id": "u1", "role": "user-workstation", "segment": "LAN",
                     "snapshot_ref": "/s/u1"},
                    {"host_id": "u2", "role": "user-workstation", "segment": "LAN",
                     "snapshot_ref": "/s/u2"},
                    {"host_id": "web-01", "role": "web-server", "segment": "DMZ",
                     "snapshot_ref": "/s/web"},
                ],
            },
        )
        return store

    def test_role_selector_expands(self, tmp_path):
        store = self.topology_store(tmp_path)
        profile = AuditProfile(
            profile_id="p-users", name="Workstations", host_selector=("user-workstation",)
        )
        assert selected_hosts(profile, topology_from_store(store)) == ["u1", "u2"]

    def test_mixed_selector_dedupes(self, tmp_path):
        store = self.topology_store(tmp_path)
        profile = AuditProfile(
            profile_id="p", name="p", host_selector=("u1", "user-workstation")
        )
        assert selected_hosts(profile, topology_from_store(store)) == ["u1", "u2"]

    def test_unmatched_selector_entry(self, tmp_path):
        store = self.topology_store(tmp_path)
        profile = AuditProfile(profile_id="p", name="p", host_selector=("no-such",))
        with pytest.raises(ProfileError, match="no-such"):
            selected_hosts(profile, topology_from_store(store))

    def test_empty_selector_rejected(self):
        with pytest.raises(ProfileError):
            AuditProfile(profile_id="p", name="p", host_selector=())

    def test_unknown_category_rejected(self):
        with pytest.raises(ProfileError):
            AuditProfile(
                profile_id="p", name="p", host_selector=("h",), categories=("NOT_A_THING",)
            )

    def test_periodic_policy_needs_interval(self):
        with pytest.raises(ProfileError):
            SyncPolicy(kind="PERIODIC")
        with pytest.raises(ProfileError):
            SyncPolicy(kind="PERIODIC", interval_seconds=0)
        assert SyncPolicy(kind="PERIODIC", interval_seconds=30).interval_seconds == 30

    def test_create_persists(self, tmp_path):
        store = self.topology_store(tmp_path)
        profile = AuditProfile(
            profile_id="p-users",
            name="Workstations",
            host_selector=("user-workstation",),
            categories=("CERTIFICATE", "ALGORITHM"),
        )
        create_profile(store, profile)
        assert get_profile(store, "p-users") == profile
        assert list(store.query("profiles")) == ["p-users"]

    def test_round_trip(self):
        profile = AuditProfile(
            profile_id="p",
            name="Example",
            host_selector=("a", "b"),
            categories=("CERTIFICATE",),
            sync_policy=SyncPolicy(kind="PERIODIC", interval_seconds=60),
        )
        assert AuditProfile.from_dict(profile.to_dict()) == profile


class TestRunStateMachine:
    def test_happy_path(self):
        run = AuditRun.new("p", 1.0)
        for target in (
            RunState.COLLECTING,
            RunState.BOMS_BUILT,
            RunState.SDT_REQUESTED,
            RunState.SDT_READY,
            RunState.UPDATING,
            RunState.SDT_READY,
        ):
            run.advance(target, 2.0)
        assert run.state is RunState.SDT_READY

    def test_failed_is_terminal(self):
        run = AuditRun.new("p", 1.0)
        run.advance(RunState.FAILED, 2.0, error="transport")
        with pytest.raises(InvalidTransition):
            run.advance(RunState.COLLECTING, 3.0)
        assert run.error == "transport"

    def test_round_trip(self):
        run = AuditRun.new("p", 1.5)
        run.hosts = ("a", "b")
        run.advance(RunState.COLLECTING, 2.0)
        assert AuditRun.from_dict(run.to_dict()) == run

    @settings(max_examples=120, deadline=None)
    @given(
        steps=st.lists(st.sampled_from(list(RunState)), min_size=1, max_size=12),
        start_time=st.floats(min_value=0, max_value=1e6),
    )
    def test_safety_under_random_transition_attempts(self, steps, start_time):
        """Invalid moves never corrupt state; timestamps never go backwards."""
        run = AuditRun.new("p", start_time)
        clock = start_time
        for target in steps:
            clock += 0.5
            before_state, before_time = run.state, run.updated_at
            if target in TRANSITIONS[run.state]:
                run.advance(target, clock)
                assert run.state is target
            else:
                with pytest.raises(InvalidTransition):
                    run.advance(target, clock)
                assert run.state is before_state
            assert run.updated_at >= before_time


class TestRunAudit:
    def test_reaches_sdt_ready(self, service):
        run = service.run_audit("profile-web")
        assert run.state is RunState.SDT_READY
        assert run.error is None
        assert run.hosts == ("web-01",)
        assert run.representation_version == 1
        # Manifest first, then the host's inventory and crypto documents.
        assert len(run.bom_serials) == 3
        boms = stored_boms(service, run)
        kinds = sorted(b.kind.value for b in boms)
        assert kinds == ["CBOM", "MIXED", "SBOM"]
        descriptor = service.manager.get(run.sdt_id)
        assert descriptor["state"] == "READY"

    def test_vulnerabilities_attached(self, service):
        run = service.run_audit("profile-web")
        sbom = next(b for b in stored_boms(service, run) if b.kind is BomKind.SBOM)
        assert [v.cve_id for v in sbom.vulnerabilities] == ["CVE-2021-23337"]

    def test_twin_is_queryable_with_consumer_token(self, service):
        run = service.run_audit("profile-web")
        endpoint = service.manager.get(run.sdt_id)["endpoint"]
        response = requests.get(
            f"{endpoint}/things", headers={"Authorization": "Bearer operator-token"}, timeout=5
        )
        assert response.status_code == 200
        assert set(response.json()["things"]) == {"web-01", "profile-web"}

    def test_category_filter_limits_evidence(self, service):
        create_profile(
            service.store,
            AuditProfile(
                profile_id="profile-crypto",
                name="Crypto only",
                host_selector=("web-01",),
                categories=("CERTIFICATE",),
            ),
        )
        run = service.run_audit("profile-crypto")
        assert run.state is RunState.SDT_READY
        sbom = next(b for b in stored_boms(service, run) if b.kind is BomKind.SBOM)
        cbom = next(b for b in stored_boms(service, run) if b.kind is BomKind.CBOM)
        assert sbom.components == ()
        refs = [c.bom_ref for c in cbom.components]
        assert any(ref.startswith("cert:") for ref in refs)
        assert not any(ref.startswith("setting:") for ref in refs)

    def test_unknown_profile(self, service):
        with pytest.raises(ProfileError):
            service.run_audit("nope")

    def test_all_snapshots_missing_fails_no_evidence(self, tmp_path, env):
        store = FileDocumentStore(tmp_path / "store")
        ingest_inventory(
            store, inventory_doc(tmp_path / "missing", [("ghost-01", "web-server", "DMZ")])
        )
        _, client = env.make_manager_client()
        svc = AuditService(store, client)
        create_profile(
            store, AuditProfile(profile_id="p", name="p", host_selector=("ghost-01",))
        )
        run = svc.run_audit("p")
        assert run.state is RunState.FAILED
        assert run.error == "no_evidence"
        assert "ghost-01" in run.host_errors

    @staticmethod
    def audit_losing_a_host(tmp_path, env):
        """An audit of good-01 and a bad-01 whose snapshot has no facts."""
        store = FileDocumentStore(tmp_path / "store")
        snapshots = tmp_path / "snapshots"
        write_snapshot(snapshots, "good-01", packages={"mako": "1.1.4"})
        write_snapshot(snapshots, "bad-01", broken=True)
        ingest_inventory(
            store,
            inventory_doc(
                snapshots,
                [("good-01", "web-server", "DMZ"), ("bad-01", "web-server", "DMZ")],
            ),
        )
        _, client = env.make_manager_client()
        svc = AuditService(store, client, vulnerabilities=vuln_store())
        create_profile(
            store, AuditProfile(profile_id="p", name="p", host_selector=("web-server",))
        )
        return svc, snapshots, svc.run_audit("p")

    def test_partial_failure_keeps_good_hosts(self, tmp_path, env):
        svc, _, run = self.audit_losing_a_host(tmp_path, env)
        assert run.state is RunState.SDT_READY
        assert set(run.host_errors) == {"bad-01"}
        subjects = {b.metadata.subject_name for b in stored_boms(svc, run)}
        assert subjects == {"good-01", "p"}

    def test_a_host_the_audit_lost_is_not_rescanned(self, tmp_path, env):
        """A lost host has no documents to diff against: a default rescan
        covers the other hosts, and naming it fails before the run moves,
        whether its snapshot is still broken or has recovered."""
        svc, snapshots, run = self.audit_losing_a_host(tmp_path, env)
        assert run.state is RunState.SDT_READY
        run = svc.update_audit(run.run_id)
        assert (run.state, run.error) == (RunState.SDT_READY, None)

        write_snapshot(snapshots, "bad-01", packages={"mako": "1.1.4"})
        write_snapshot(snapshots, "good-01", packages={"mako": "1.2.2"})
        with pytest.raises(ProfileError, match="bad-01"):
            svc.update_audit(run.run_id, hosts=["bad-01"])
        assert svc.load_run(run.run_id).state is RunState.SDT_READY
        run = svc.update_audit(run.run_id)
        assert (run.state, run.error) == (RunState.SDT_READY, None)
        assert run.representation_version == 2
        subjects = {b.metadata.subject_name for b in stored_boms(svc, run)}
        assert subjects == {"good-01", "p"}

    def test_corrupt_snapshot_does_not_taint_other_host(self, tmp_path, env):
        """Fan-out isolation: evidence for good-01 matches a solo scan."""
        store = FileDocumentStore(tmp_path / "store")
        snapshots = tmp_path / "snapshots"
        write_snapshot(snapshots, "good-01", packages={"mako": "1.1.4"})
        bad_dir = snapshots / "bad-01"
        bad_dir.mkdir(parents=True)
        (bad_dir / "facts.json").write_text("{not json", encoding="utf-8")
        ingest_inventory(
            store,
            inventory_doc(
                snapshots,
                [("good-01", "web-server", "DMZ"), ("bad-01", "web-server", "DMZ")],
            ),
        )
        _, client = env.make_manager_client()
        svc = AuditService(store, client)
        create_profile(
            store, AuditProfile(profile_id="p", name="p", host_selector=("web-server",))
        )
        run = svc.run_audit("p")
        sbom = next(
            b
            for b in stored_boms(svc, run)
            if b.kind is BomKind.SBOM and b.metadata.subject_name == "good-01"
        )
        assert [(c.name, c.version) for c in sbom.components] == [("mako", "1.1.4")]

    def test_manager_down_fails_transport(self, tmp_path):
        store = FileDocumentStore(tmp_path / "store")
        snapshots = tmp_path / "snapshots"
        write_snapshot(snapshots, "web-01", packages={"mako": "1.1.4"})
        ingest_inventory(store, inventory_doc(snapshots, [("web-01", "web-server", "DMZ")]))
        dead = ManagerClient("http://127.0.0.1:9", timeout=0.5)
        svc = AuditService(store, dead)
        create_profile(store, AuditProfile(profile_id="p", name="p", host_selector=("web-01",)))
        run = svc.run_audit("p")
        assert run.state is RunState.FAILED
        assert run.error == "transport"
        # Evidence work is kept: documents were persisted before the send.
        assert len(run.bom_serials) == 3
        assert [b.serial_number for b in stored_boms(svc, run)] == list(run.bom_serials)

    def test_restart_durability(self, service, env):
        run = service.run_audit("profile-web")
        _, fresh_client = env.make_manager_client()
        reopened = AuditService(FileDocumentStore(service.store.root), fresh_client)
        loaded = reopened.load_run(run.run_id)
        assert loaded.state is RunState.SDT_READY
        assert loaded.sdt_id == run.sdt_id
        assert loaded.bom_serials == run.bom_serials

    def test_unknown_run(self, service):
        with pytest.raises(UnknownRun):
            service.load_run("missing")

    def test_forge_failure_ends_the_run_failed(self, service, monkeypatch):
        """A run that raises once COLLECTING is saved ends FAILED, with the
        step named, instead of staying COLLECTING."""

        def broken_forge(*args, **kwargs):
            raise RuntimeError("injected forge failure")

        monkeypatch.setattr(service_module, "build_sbom", broken_forge)
        with pytest.raises(RuntimeError, match="injected forge"):
            service.run_audit("profile-web")
        (stored,) = service.store.query("runs").values()
        assert stored["state"] == RunState.FAILED.value
        assert stored["error"] == "forge_failed:injected forge failure"

    def test_failed_document_write_ends_the_run_failed(self, service):
        store = DyingStore(service.store.root)
        store.budget = 0
        svc = AuditService(store, service.manager, vulnerabilities=vuln_store())
        with pytest.raises(OSError, match="injected"):
            svc.run_audit("profile-web")
        (run_id,) = store.query("runs")
        stored = svc.load_run(run_id)
        assert stored.state is RunState.FAILED
        assert stored.error.startswith("persist_failed:")
        assert store.get_log("run_documents", run_id) is None


class TestUpdateAudit:
    def test_no_change_is_a_cheap_no_op(self, service):
        run = service.run_audit("profile-web")
        before = service.manager.get(run.sdt_id)["representationVersion"]
        updated = service.update_audit(run.run_id)
        assert updated.state is RunState.SDT_READY
        assert updated.representation_version == run.representation_version
        assert service.manager.get(run.sdt_id)["representationVersion"] == before

    def test_certificate_rotation_flows_to_twin(self, service):
        run = service.run_audit("profile-web")
        old_cbom = next(b for b in stored_boms(service, run) if b.kind is BomKind.CBOM)
        old_cert = next(c for c in old_cbom.components if c.bom_ref.startswith("cert:"))

        write_snapshot(
            service._snapshots,
            "web-01",
            packages={"lodash": "4.17.20", "requests": "2.28.0"},
            cert_pem=data_path("web-01-rotated.pem").read_bytes(),
            sysctl={"net.ipv4.ip_forward": "0"},
        )
        updated = service.update_audit(run.run_id)
        assert updated.state is RunState.SDT_READY
        assert updated.representation_version == 2

        new_cbom = next(b for b in stored_boms(service, updated) if b.kind is BomKind.CBOM)
        assert new_cbom.version == old_cbom.version + 1
        new_cert = next(c for c in new_cbom.components if c.bom_ref.startswith("cert:"))
        assert new_cert.bom_ref == old_cert.bom_ref
        assert new_cert.crypto.not_after != old_cert.crypto.not_after

        endpoint = service.manager.get(run.sdt_id)["endpoint"]
        headers = {"Authorization": "Bearer operator-token"}
        history = requests.get(
            f"{endpoint}/things/web-01/history", headers=headers, timeout=5
        ).json()
        assert [r["revision"] for r in history["revisions"]] == [1, 2]
        first = requests.get(
            f"{endpoint}/things/web-01", params={"rev": 1}, headers=headers, timeout=5
        ).json()
        old_not_after = old_cert.crypto.not_after
        assert any(
            entry.get("notValidAfter") == old_not_after
            for entry in first["properties"]["certificates"]
        )

    def test_package_change_is_a_delta_not_a_rebuild(self, service):
        run = service.run_audit("profile-web")
        write_snapshot(
            service._snapshots,
            "web-01",
            packages={"lodash": "4.17.21", "requests": "2.28.0"},
            cert_pem=data_path("web-01.pem").read_bytes(),
            sysctl={"net.ipv4.ip_forward": "0"},
        )
        updated = service.update_audit(run.run_id)
        assert updated.state is RunState.SDT_READY
        sbom = next(b for b in stored_boms(service, updated) if b.kind is BomKind.SBOM)
        assert ("lodash", "4.17.21") in [(c.name, c.version) for c in sbom.components]
        # The fixed release closes the advisory match.
        assert sbom.vulnerabilities == ()

    def test_time_travel_takes_epoch_seconds(self, service):
        """`?at=T` is a Unix epoch timestamp, as a client's clock gives it."""
        run = service.run_audit("profile-web")
        taken = time.time()
        change_web_01(service._snapshots, "4.17.21")
        assert service.update_audit(run.run_id).representation_version == 2

        endpoint = service.manager.get(run.sdt_id)["endpoint"]
        headers = {"Authorization": "Bearer operator-token"}

        def lodash_at(**params):
            state = requests.get(
                f"{endpoint}/things/web-01", params=params, headers=headers, timeout=5
            ).json()
            return {e["version"] for e in state["properties"]["software"] if e["name"] == "lodash"}

        assert lodash_at(at=taken) == {"4.17.20"}
        assert lodash_at() == {"4.17.21"}

    def test_rejected_update_keeps_previous_documents(self, service):
        run = service.run_audit("profile-web")
        before = {b.serial_number: b.version for b in stored_boms(service, run)}
        service.manager.destroy(run.sdt_id)
        write_snapshot(
            service._snapshots,
            "web-01",
            packages={"lodash": "4.17.21"},
            cert_pem=data_path("web-01.pem").read_bytes(),
        )
        updated = service.update_audit(run.run_id)
        assert updated.state is RunState.FAILED
        assert updated.error.startswith("update_rejected")
        after = {b.serial_number: b.version for b in stored_boms(service, run)}
        assert after == before

    def test_runs_of_one_profile_keep_their_own_documents(self, service):
        """Runs of one profile share document serials; a later run must not
        overwrite an earlier run's documents."""
        first = service.run_audit("profile-web")
        change_web_01(service._snapshots, "4.17.21")
        first = service.update_audit(first.run_id)
        assert first.state is RunState.SDT_READY
        second = service.run_audit("profile-web")
        assert second.bom_serials == first.bom_serials

        change_web_01(service._snapshots, "4.17.19")
        first = service.update_audit(first.run_id)
        assert first.state is RunState.SDT_READY, first.error
        assert first.representation_version == 3
        # Each lodash change re-versions the SBOM and the manifest only.
        versions = {b.kind: b.version for b in stored_boms(service, first)}
        assert versions == {BomKind.MIXED: 3, BomKind.SBOM: 3, BomKind.CBOM: 1}
        assert {b.version for b in stored_boms(service, second)} == {1}

    def test_failed_document_write_leaves_the_previous_set(self, service):
        """A write that dies part-way through an accepted update leaves every
        stored document at the previous version, never a mix."""
        store = DyingStore(service.store.root)
        svc = AuditService(store, service.manager, vulnerabilities=vuln_store())
        run = svc.run_audit("profile-web")
        before = {b.serial_number: b.version for b in stored_boms(svc, run)}
        assert set(before.values()) == {1}
        store.budget = sum(len(serialize_bom(b)) for b in stored_boms(svc, run)) // 2
        change_web_01(service._snapshots, "4.17.21")
        with pytest.raises(OSError, match="injected"):
            svc.update_audit(run.run_id)
        after = {b.serial_number: b.version for b in stored_boms(svc, run)}
        assert after == before

    def test_the_log_stays_within_twice_its_live_bytes(self, service):
        """Over many changed rescans, a run's log holds at most twice its
        live texts plus the last commit's, and compacting it leaves one log."""
        run = service.run_audit("profile-web")
        generations = set()
        for n in range(24):
            before = service.store.get_log("run_documents", run.run_id)
            change_web_01(service._snapshots, PINS[(n + 1) % 2])
            run = service.update_audit(run.run_id)
            assert run.representation_version == n + 2
            log = service.store.get_log("run_documents", run.run_id)
            texts = service.store.read_texts(log, range(len(log.entries)))
            live = sum(len(text.encode()) + 1 for text in texts)
            appended = sum(
                len(text.encode()) + 1
                for entry, text in zip(log.entries, texts)
                if entry not in before.entries
            )
            assert log.path.stat().st_size <= 2 * live + appended
            assert sorted(os.listdir(log.directory)) == [log.path.name, "index"]
            generations.add(log.generation)
        assert len(generations) > 1

    def test_failure_after_updating_ends_the_run_failed(self, service, monkeypatch):
        """Whatever raises once a rescan has loaded the run, before the push
        saves UPDATING or after it, ends the run FAILED with the step named,
        instead of leaving it SDT_READY or UPDATING."""
        store = DyingStore(service.store.root)
        svc = AuditService(store, service.manager, vulnerabilities=vuln_store())

        def failed_update(run, match):
            with pytest.raises(Exception, match=match):
                svc.update_audit(run.run_id)
            stored = svc.load_run(run.run_id)
            assert stored.state is RunState.FAILED
            with pytest.raises(InvalidTransition):
                svc.update_audit(run.run_id)
            return stored.error

        # The manager accepts the update, then the document write fails.
        run = svc.run_audit("profile-web")
        store.budget = sum(len(serialize_bom(b)) for b in stored_boms(svc, run)) // 2
        change_web_01(service._snapshots, "4.17.21")
        assert failed_update(run, "injected").startswith("persist_failed:")
        store.budget = None

        # The run's stored documents are gone.
        run = svc.run_audit("profile-web")
        shutil.rmtree(store.root / "run_documents" / run.run_id)
        assert failed_update(run, "is missing").startswith("load_failed:")

        # Forging a rescanned host fails.
        run = svc.run_audit("profile-web")

        def broken_forge(*args, **kwargs):
            raise RuntimeError("injected forge failure")

        monkeypatch.setattr(service_module, "build_sbom", broken_forge)
        change_web_01(service._snapshots, "4.17.20")  # an unchanged host is not forged
        assert failed_update(run, "injected forge").startswith("forge_failed:")

    def test_a_no_op_rescan_saves_the_run_once(self, service, monkeypatch):
        run = service.run_audit("profile-web")
        saved, put = [], service.store.put
        monkeypatch.setattr(
            service.store,
            "put",
            lambda c, k, d: (saved.append(d["state"]) if c == "runs" else None) or put(c, k, d),
        )
        service.clock = lambda: run.updated_at + 5
        noop = service.update_audit(run.run_id)
        assert saved == ["SDT_READY"]
        assert noop.updated_at == run.updated_at + 5
        assert service.load_run(run.run_id).updated_at == run.updated_at + 5

        saved.clear()
        change_web_01(service._snapshots, "4.17.21")
        assert service.update_audit(run.run_id).representation_version == 2
        assert saved == ["UPDATING", "SDT_READY"]

    def test_rescans_parse_and_write_only_what_they_need(self, service, monkeypatch):
        run = service.run_audit("profile-web")
        parsed, puts, read = [], [], []
        parse, put, commit = service_module.parse_bom, service.store.put, service.store.commit_log
        read_texts = service.store.read_texts
        monkeypatch.setattr(service_module, "parse_bom", lambda t: parsed.append(t) or parse(t))
        monkeypatch.setattr(
            service.store, "put", lambda c, k, d: puts.append(c) or put(c, k, d)
        )
        monkeypatch.setattr(
            service.store, "commit_log", lambda log, e: puts.append("run_documents") or commit(log, e)
        )
        monkeypatch.setattr(
            service.store, "read_texts", lambda log, at: read.append(list(at)) or read_texts(log, at)
        )

        service.update_audit(run.run_id)
        # The host's input key is unchanged: nothing is parsed, read or written.
        assert parsed == []
        assert [c for c in puts if c != "runs"] == []
        assert read == []

        before = stored_entries(service, run)
        read.clear()
        change_web_01(service._snapshots, "4.17.21")
        assert service.update_audit(run.run_id).state is RunState.SDT_READY
        assert [c for c in puts if c != "runs"] == ["run_documents"]
        assert read == [[1, 2]]
        after = stored_entries(service, run)
        # Only the changed SBOM and the manifest are re-versioned; the CBOM's
        # entry is carried over verbatim but for the host's new input key.
        # Only the SBOM is parsed: the old manifest is rebuilt from the
        # index's versions.
        revised = [
            old for old, new in zip(before, after) if {**new, "key": ""} != {**old, "key": ""}
        ]
        assert [d["version"] for d in revised] == [1, 1]
        assert before[0] in revised
        assert parsed == [revised[1]["text"]]
        assert [d["key"] for d in before][0] == [d["key"] for d in after][0] == ""
        assert after[1]["key"] == after[2]["key"] not in ("", before[1]["key"])

    def test_a_rescan_builds_only_the_records_it_reads(self, service, monkeypatch):
        """One host rescanned in an estate of 120 builds that host's record
        and no relationship."""
        others = [f"ws-{i:03}" for i in range(119)]
        ingest_inventory(service.store, {
            "hosts": [
                {"host_id": h, "role": "user-workstation", "segment": "LAN",
                 "snapshot_ref": f"/nowhere/{h}"}
                for h in others
            ],
            "relationships": [
                {"source": others[0], "kind": "CONNECTS_TO", "target": h} for h in others[1:]
            ],
        })
        built, relationships = [], []
        from_dict, parse_relationship = HostRecord.from_dict, topology_module._parse_relationship
        monkeypatch.setattr(
            HostRecord, "from_dict",
            classmethod(lambda cls, doc: built.append(doc["host_id"]) or from_dict(doc)),
        )
        monkeypatch.setattr(
            topology_module, "_parse_relationship",
            lambda doc, known: relationships.append(doc) or parse_relationship(doc, known),
        )
        run = service.run_audit("profile-web")
        assert run.state is RunState.SDT_READY
        assert built == ["web-01"]

        built.clear()
        noop = service.update_audit(run.run_id, hosts=["web-01"])
        assert noop.representation_version == 1
        assert built == ["web-01"]
        assert relationships == []

    def test_update_after_failure_is_rejected(self, service):
        run = service.run_audit("profile-web")
        service.manager.destroy(run.sdt_id)
        write_snapshot(service._snapshots, "web-01", packages={"lodash": "4.17.21"})
        failed = service.update_audit(run.run_id)
        assert failed.state is RunState.FAILED
        with pytest.raises(InvalidTransition):
            service.update_audit(run.run_id)

    def test_unknown_host_subset_rejected(self, service):
        run = service.run_audit("profile-web")
        with pytest.raises(ProfileError, match="mail-99"):
            service.update_audit(run.run_id, hosts=["mail-99"])

    def test_a_renamed_host_is_refused_and_nothing_moves(self, service):
        """A rescan cannot rename a host's documents: it names the host and
        both names, and pushes, commits and saves nothing."""
        run = service.run_audit("profile-web")
        facts = service._snapshots / "web-01" / "facts.json"
        original = facts.read_bytes()
        facts.write_text(json.dumps({"hostname": "web-01.corp"}), encoding="utf-8")
        record = service.store.get("runs", run.run_id)
        index = log_contents(service.store, run.run_id)
        with pytest.raises(ProfileError, match=r"web-01 was audited as 'web-01'.*'web-01\.corp'"):
            service.update_audit(run.run_id)
        assert service.store.get("runs", run.run_id) == record
        assert log_contents(service.store, run.run_id) == index
        assert service.manager.get(run.sdt_id)["representationVersion"] == 1

        facts.write_bytes(original)
        again = service.update_audit(run.run_id)
        assert (again.state, again.representation_version) == (RunState.SDT_READY, 1)

    def test_a_push_to_another_manager_leaves_the_run_ready(self, service, env):
        """A manager that holds no twin of the run answers not_found: the
        run goes back to SDT_READY and its index stays; a rescan against the
        twin's manager then pushes the change."""
        run = service.run_audit("profile-web")
        _, other = env.make_manager_client()
        elsewhere = AuditService(service.store, other, vulnerabilities=vuln_store())
        change_web_01(service._snapshots, "4.17.21")
        index = log_contents(service.store, run.run_id)
        with pytest.raises(service_module.TwinNotFound, match=run.sdt_id):
            elsewhere.update_audit(run.run_id)
        stood = service.load_run(run.run_id)
        assert (stood.state, stood.representation_version, stood.error) == (
            RunState.SDT_READY, 1, None)
        assert log_contents(service.store, run.run_id) == index

        updated = service.update_audit(run.run_id)
        assert (updated.state, updated.representation_version) == (RunState.SDT_READY, 2)
        assert service.manager.get(run.sdt_id)["representationVersion"] == 2


PINS = ("4.17.20", "4.17.21")


class TestStoreTwinAgreement:
    """After any sequence of pin flips and rescans, the stored set is a fresh
    forge of what was last scanned, at the versions the protocol assigns,
    and the twin shows exactly the projection of that set."""

    @settings(max_examples=15, deadline=None)
    @given(
        host_count=st.integers(2, 3),
        steps=st.lists(
            st.tuples(
                st.sets(st.integers(0, 2)),  # hosts whose pin flips
                st.one_of(st.none(), st.sets(st.integers(0, 2), min_size=1)),  # rescanned
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_stored_set_and_twin_follow_the_snapshots(self, host_count, steps):
        hosts = [f"h-{i}" for i in range(host_count)]
        with tempfile.TemporaryDirectory() as tmp:
            snapshots = Path(tmp) / "snapshots"
            vulnerabilities = vuln_store()

            def pin(host, version):
                write_snapshot(snapshots, host, packages={"lodash": version, "requests": "2.28.0"})

            # Each host's documents at either pin, forged at version 1.
            forged = {}
            for host in hosts:
                for version in reversed(PINS):
                    pin(host, version)
                    bundle = scan_host(HostSnapshot.open(snapshots / host))
                    forged[host, version] = service_module.forge_host(bundle, (), vulnerabilities)

            store = FileDocumentStore(Path(tmp) / "store")
            ingest_inventory(
                store, inventory_doc(snapshots, [(h, "web-server", "DMZ") for h in hosts])
            )
            create_profile(store, AuditProfile(profile_id="p", name="p", host_selector=("web-server",)))
            _, client = _ENV.make_manager_client()
            svc = AuditService(
                store,
                client,
                vulnerabilities=vulnerabilities,
                sdt_options={"tokens": {"operator-token": ["READ"]}},
            )
            run = svc.run_audit("p")
            assert run.state is RunState.SDT_READY, run.error
            endpoint = client.get(run.sdt_id)["endpoint"]

            current = {h: PINS[0] for h in hosts}  # on disk
            scanned = dict(current)  # as last rescanned
            versions = {b.serial_number: 1 for h in hosts for b in forged[h, PINS[0]]}
            changed_rescans = 0
            try:
                for flips, rescanned in steps:
                    for i in flips & set(range(host_count)):
                        current[hosts[i]] = PINS[1 - PINS.index(current[hosts[i]])]
                        pin(hosts[i], current[hosts[i]])
                    subset = None if rescanned is None else [hosts[i % host_count] for i in rescanned]
                    # The manifest's delta is the one diff_boms makes from
                    # the stored text, though the rescan rebuilds the old
                    # manifest from the index instead of parsing that text.
                    stored_manifest = parse_bom(log_contents(store, run.run_id)[0][1])
                    diffed = []
                    diff = service_module.diff_boms
                    with mock.patch.object(
                        service_module, "diff_boms", lambda a, b: diffed.append((a, b)) or diff(a, b)
                    ):
                        run = svc.update_audit(run.run_id, hosts=subset)
                    assert run.state is RunState.SDT_READY, run.error
                    if diffed:
                        assert diffed[0][0] == stored_manifest

                    changed = False
                    for host in subset or hosts:
                        old, new = forged[host, scanned[host]], forged[host, current[host]]
                        for before, after in zip(old, new):
                            if serialize_bom(before) != serialize_bom(after):
                                versions[after.serial_number] += 1
                                changed = True
                        scanned[host] = current[host]
                    changed_rescans += changed
                    assert run.representation_version == 1 + changed_rescans

                    expected = link_to_profile(
                        [
                            replace(b, version=versions[b.serial_number])
                            for h in hosts
                            for b in forged[h, scanned[h]]
                        ],
                        "p",
                    )
                    expected[0] = replace(expected[0], version=1 + changed_rescans)
                    texts = [text for _, text in log_contents(store, run.run_id)]
                    assert texts == [serialize_bom(b) for b in expected]
                    # One log per run, however many rescans committed to it.
                    log = store.get_log("run_documents", run.run_id)
                    assert os.listdir(store.root / "run_documents") == [run.run_id]
                    assert sorted(os.listdir(log.directory)) == [log.path.name, "index"]

                    boms = stored_boms(svc, run)
                    manifest, *host_docs = boms
                    registry = {(b.serial_number, b.version): b for b in boms}
                    assert all((l.target_serial, l.target_version) in registry
                               for l in manifest.links)
                    assert all(b.links == () for b in host_docs)

                    # Each entry's summary is its text's, so reports read
                    # from the record match reports over the parsed texts.
                    summaries = svc.run_boms(run)
                    reparsed = [summarize_bom(b) for b in boms]
                    assert summaries == reparsed
                    roles = {h: "web-server" for h in hosts}
                    assert report_counts(summaries, roles=roles) == report_counts(
                        reparsed, roles=roles
                    )
                    now = "2026-01-01T00:00:00Z"
                    assert render_report(summaries, roles=roles, now=now) == render_report(
                        reparsed, roles=roles, now=now
                    )

                    projected = thing_texts_from_boms(boms)
                    for thing, text in projected.items():
                        state = json.loads(text)
                        status, body = http_json(
                            "GET", f"{endpoint}/things/{thing}", token="operator-token"
                        )
                        assert (status, body) == (200, state)
            finally:
                _ENV.release()



def _feed_variant(fixed: str, score: float) -> list[str]:
    """FEED_LINES with the lodash advisory's fixed bound and score changed."""
    advisory = json.loads(FEED_LINES[0])
    advisory["affects"][0]["fixed"] = fixed
    advisory["cvss"]["score"] = score
    return [json.dumps(advisory), *FEED_LINES[1:]]


CATEGORIES = [c.value for c in EvidenceCategory]

snapshot_edits = st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 1), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("add"), st.integers(0, 1), st.sampled_from([
        ("srv/extra/requirements.txt", "mako==1.2.0\n"),
        ("etc/notes.txt", "aes-128 was here\n"),
        ("etc/ssl/certs/extra.pem", data_path("user-01.pem").read_text()),
    ])),
    st.tuples(st.just("remove"), st.integers(0, 1), st.integers(0, 10**6)),
    st.tuples(st.just("rename"), st.integers(0, 1), st.integers(0, 10**6)),
    st.tuples(st.just("feed"), st.sampled_from(["4.17.21", "4.17.20", "5.0.0"]),
              st.sampled_from([7.2, 9.8])),
    st.tuples(st.just("categories"),
              st.lists(st.sampled_from(CATEGORIES), max_size=3, unique=True).map(tuple)),
    st.just(("none",)),
)


class TestInputKeys:
    """A rescan that skips hosts whose input key is unchanged leaves the
    run, the index and the twin exactly as a rescan that scans and forges
    every host does, and an unchanged host is not scanned."""

    @staticmethod
    def snapshot_files(root: Path) -> list[Path]:
        """The host's files that an edit may touch: all but facts.json."""
        return sorted(p for p in root.rglob("*") if p.is_file() and p.name != "facts.json")

    def apply(self, edit, snapshots: Path, hosts, services) -> None:
        kind, *args = edit
        if kind in ("byte", "add", "remove", "rename"):
            root = snapshots / hosts[args[0]]
            files = self.snapshot_files(root)
            if not files and kind != "add":
                return  # no file left to edit: the host stays as it is
        if kind == "byte":
            # One byte, with the file's size and times as they were.
            path = files[args[1] % len(files)]
            data = bytearray(path.read_bytes())
            at = args[1] % len(data)
            data[at] = (data[at] + args[2]) % 256
            before = path.stat()
            path.write_bytes(bytes(data))
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        elif kind == "add":
            rel, text = args[1]
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text, encoding="utf-8")
        elif kind == "remove":
            files[args[1] % len(files)].unlink()
        elif kind == "rename":
            path = files[args[1] % len(files)]
            path.rename(path.with_name("renamed-" + path.name))
        elif kind == "feed":
            for svc in services:
                svc.vulnerabilities = VulnerabilityStore()
                svc.vulnerabilities.ingest_lines(_feed_variant(*args))
        elif kind == "categories":
            for svc in services:
                create_profile(svc.store, AuditProfile(
                    profile_id="p", name="p", host_selector=("web-server",), categories=args[0]))

    def test_an_edit_of_a_host_without_files_leaves_it_unchanged(self, tmp_path):
        write_snapshot(tmp_path, "h-0", packages={"lodash": "4.17.20"})
        self.apply(("remove", 0, 5), tmp_path, ["h-0"], [])
        left = files_under(tmp_path)
        assert list(left) == ["h-0/facts.json"]
        for edit in [("remove", 0, 5), ("byte", 0, 3, 7), ("rename", 0, 1)]:
            self.apply(edit, tmp_path, ["h-0"], [])
            assert files_under(tmp_path) == left

    @staticmethod
    def run_fields(run):
        doc = run.to_dict()
        for volatile in ("run_id", "sdt_id", "created_at", "updated_at"):
            del doc[volatile]
        return doc

    @staticmethod
    def twin(client, run):
        endpoint = client.get(run.sdt_id)["endpoint"]
        status, listing = http_json("GET", f"{endpoint}/things", token="operator-token")
        assert status == 200
        states = {}
        for thing in listing["things"]:
            status, states[thing] = http_json(
                "GET", f"{endpoint}/things/{thing}", token="operator-token"
            )
            assert status == 200
        return client.get(run.sdt_id)["representationVersion"], states

    @settings(max_examples=20, deadline=None)
    @given(edits=st.lists(snapshot_edits, min_size=1, max_size=4))
    def test_a_skipping_rescan_equals_a_full_one(self, edits):
        self.assert_rescans_agree(edits)

    def test_a_certificate_with_an_undecodable_issuer_keeps_its_host(self):
        """This byte edit leaves server.pem's issuer undecodable: the
        certificate is skipped, and both rescans end ready and agree."""
        self.assert_rescans_agree([("byte", 0, 3117, 1)])

    def assert_rescans_agree(self, edits):
        hosts = ["h-0", "h-1"]
        with tempfile.TemporaryDirectory() as tmp:
            snapshots = Path(tmp) / "snapshots"
            for host in hosts:
                write_snapshot(
                    snapshots, host,
                    packages={"lodash": "4.17.20", "requests": "2.28.0"},
                    cert_pem=data_path("web-01.pem").read_bytes(),
                    sysctl={"net.ipv4.ip_forward": "0"},
                )
            # Two services over one set of snapshots: `skipping` as it is,
            # `full` with the skip patched out.
            services, clients, runs = [], [], []
            for name in ("skipping", "full"):
                store = FileDocumentStore(Path(tmp) / name)
                ingest_inventory(
                    store, inventory_doc(snapshots, [(h, "web-server", "DMZ") for h in hosts])
                )
                create_profile(
                    store, AuditProfile(profile_id="p", name="p", host_selector=("web-server",))
                )
                _, client = _ENV.make_manager_client()
                svc = AuditService(store, client, vulnerabilities=vuln_store(),
                                   sdt_options={"tokens": {"operator-token": ["READ"]}})
                services.append(svc)
                clients.append(client)
                runs.append(svc.run_audit("p"))
            skipping, full = services
            try:
                assert log_contents(skipping.store, runs[0].run_id) == log_contents(
                    full.store, runs[1].run_id)
                for edit in edits:
                    self.apply(edit, snapshots, hosts, services)
                    runs[0] = skipping.update_audit(runs[0].run_id)
                    with mock.patch.object(service_module, "_unchanged", lambda *a: False):
                        runs[1] = full.update_audit(runs[1].run_id)
                    assert runs[0].state is RunState.SDT_READY, runs[0].error
                    assert self.run_fields(runs[0]) == self.run_fields(runs[1])
                    index = log_contents(skipping.store, runs[0].run_id)
                    assert index == log_contents(full.store, runs[1].run_id)
                    assert self.twin(clients[0], runs[0]) == self.twin(clients[1], runs[1])

                    # Nothing changed since: no host is scanned, nothing is written.
                    def unexpected_scan(snapshot):
                        raise AssertionError(f"{snapshot.root} scanned with unchanged inputs")

                    with mock.patch.object(service_module, "scan_host", unexpected_scan):
                        again = skipping.update_audit(runs[0].run_id)
                    assert self.run_fields(again) == self.run_fields(runs[0])
                    assert log_contents(skipping.store, runs[0].run_id) == index
            finally:
                _ENV.release()

    def test_an_index_without_keys_reports_the_same_and_is_rescanned(self, service):
        """An index written before input keys were stored still reports, and
        its first rescan scans every host and commits only the keys."""
        run = service.run_audit("profile-web")
        now = "2026-01-01T00:00:00Z"
        boms = service.run_boms(run)
        report = render_report(boms, roles={"web-01": "web-server"}, now=now)
        keyed = log_contents(service.store, run.run_id)
        parent_format = [
            (meta if meta.endswith("}") else meta.rsplit(" ", 1)[0], text) for meta, text in keyed
        ]
        assert [meta for meta, _ in parent_format] != [meta for meta, _ in keyed]
        service.store.put_log("run_documents", run.run_id, parent_format)

        # `audit report` renders run_boms, or prints its report_counts.
        assert service.run_boms(run) == boms
        assert render_report(service.run_boms(run), roles={"web-01": "web-server"}, now=now) == report
        assert report_counts(service.run_boms(run)) == report_counts(boms)
        scanned = []
        with mock.patch.object(
            service_module, "scan_host", lambda s: scanned.append(s.hostname) or scan_host(s)
        ):
            rescanned = service.update_audit(run.run_id)
            assert scanned == ["web-01"]
            assert rescanned.representation_version == run.representation_version
            assert log_contents(service.store, run.run_id) == keyed
            service.update_audit(run.run_id)
            assert scanned == ["web-01"]

    # The sha256 of the run's index metas, "\n"-joined, after an audit of the
    # smb fixture at seed 3 and after a rescan that changed one of its hosts,
    # at FORGE_REVISION 2 (the keys hold the revision).
    SMB_INDEX = (
        "3d48f9250e1522c27172fd906f3c8aa1893657447fd97b975c89d05e1533092a",
        "632471452c3ddc1bd1f02e6bec302bc380377f3abea077cbdf2c83ff74f2d05b",
    )

    def test_the_keyed_index_of_an_estate_keeps_its_bytes(self, tmp_path, env):
        """Input keys are the same for the same snapshots, so the metas an
        audit and a rescan store, keys included, are pinned byte for byte."""
        manifest = generate("smb", 3, tmp_path / "estate")
        store = FileDocumentStore(tmp_path / "store")
        ingest_inventory(store, manifest["inventory"])
        create_profile(store, load_profile_file(manifest["profile"]))
        vulnerabilities = VulnerabilityStore()
        vulnerabilities.load_feed(manifest["feed"])
        _, client = env.make_manager_client()
        svc = AuditService(store, client, vulnerabilities=vulnerabilities)

        def index(run):
            metas = [meta for meta, _ in log_contents(store, run.run_id)]
            assert all(meta.endswith("}") is (i == 0) for i, meta in enumerate(metas))
            return hashlib.sha256("\n".join(metas).encode("utf-8")).hexdigest()

        run = svc.run_audit(manifest["profile_id"])
        audited = index(run)
        pins = Path(manifest["snapshots"]["web-01"]) / "srv" / "www" / "api" / "requirements.txt"
        pins.write_text(pins.read_text(encoding="utf-8") + "mako==1.2.0\n", encoding="utf-8")
        rescanned = svc.update_audit(run.run_id)
        assert rescanned.representation_version == run.representation_version + 1
        assert (audited, index(rescanned)) == self.SMB_INDEX


audit_changes = st.one_of(
    snapshot_edits,
    st.tuples(st.just("revision"), st.integers(2, 3)),
    st.tuples(st.just("hostname"), st.integers(0, 1), st.sampled_from(["h-0", "h-1", "h-x"])),
    st.tuples(st.just("rescan"), st.integers(0, 1)),
)


def audit_service(root: Path, snapshots: Path, hosts, categories, feed_lines, client):
    """A service over a new store at root that audits `hosts` under profile
    p with these categories and advisory lines."""
    store = FileDocumentStore(root)
    ingest_inventory(store, inventory_doc(snapshots, [(h, "web-server", "DMZ") for h in hosts]))
    create_profile(store, AuditProfile(
        profile_id="p", name="p", host_selector=("web-server",), categories=categories))
    vulnerabilities = VulnerabilityStore()
    vulnerabilities.ingest_lines(feed_lines)
    return AuditService(store, client, vulnerabilities=vulnerabilities,
                        sdt_options={"tokens": {"operator-token": ["READ"]}})


def recording_creates(client):
    """Keep the texts of every create the client sends, in a list."""
    sent = []
    create = client.create

    def recording(profile_id, texts, options=None):
        sent.append(list(texts))
        return create(profile_id, texts, options=options)

    client.create = recording
    return sent


class TestAuditReuse:
    """An audit that keeps the stored documents of the hosts whose inputs
    did not change since the profile's last audit stores, and sends to the
    manager, exactly what an audit on a fresh store does."""

    @staticmethod
    def outcome(svc, run, sent):
        """What an audit leaves: the run (but for its ids and times), its
        log's metas and texts, and the texts it sent to the manager."""
        logged = svc.store.get_log("run_documents", run.run_id) is not None
        return (
            TestInputKeys.run_fields(run),
            log_contents(svc.store, run.run_id) if logged else None,
            sent,
        )

    @settings(max_examples=20, deadline=None)
    @given(changes=st.lists(audit_changes, min_size=1, max_size=5))
    def test_a_reusing_audit_equals_a_fresh_one(self, changes):
        hosts = ["h-0", "h-1"]
        with tempfile.TemporaryDirectory() as tmp:
            snapshots = Path(tmp) / "snapshots"
            for host in hosts:
                write_snapshot(
                    snapshots, host,
                    packages={"lodash": "4.17.20", "requests": "2.28.0"},
                    cert_pem=data_path("web-01.pem").read_bytes(),
                    sysctl={"net.ipv4.ip_forward": "0"},
                )
            categories, feed_lines, revision = (), FEED_LINES, service_module.FORGE_REVISION
            _, client = _ENV.make_manager_client()
            sent = recording_creates(client)
            shared = audit_service(Path(tmp) / "shared", snapshots, hosts, categories,
                                   feed_lines, client)
            try:
                shared.run_audit("p")
                for step, change in enumerate(changes):
                    kind, *args = change
                    if kind == "revision":
                        revision = args[0]
                    elif kind == "hostname":
                        facts = snapshots / hosts[args[0]] / "facts.json"
                        facts.write_text(json.dumps({"hostname": args[1]}), encoding="utf-8")
                    elif kind == "rescan":
                        # The source run's documents of this host go to version 2.
                        pins = snapshots / hosts[args[0]] / "srv" / "app" / "requirements.txt"
                        pins.parent.mkdir(parents=True, exist_ok=True)
                        with pins.open("a", encoding="utf-8") as lines:
                            lines.write(f"mako==1.2.{step}\n")
                        source = shared.store.get("latest_runs", "p")["run_id"]
                        with mock.patch.object(service_module, "FORGE_REVISION", revision):
                            try:
                                shared.update_audit(source)
                            except ProfileError:
                                pass  # a renamed host: the source run stands
                    else:
                        TestInputKeys().apply(change, snapshots, hosts, [shared])
                        if kind == "feed":
                            feed_lines = _feed_variant(*args)
                        elif kind == "categories":
                            categories = args[0]

                    fresh = audit_service(Path(tmp) / f"fresh-{step}", snapshots, hosts,
                                          categories, feed_lines, client)
                    outcomes = []
                    for svc in (shared, fresh):
                        sent.clear()
                        before = set(svc.store.query("runs"))
                        # Two hosts of one hostname are refused as a fresh forge refuses them.
                        with mock.patch.object(service_module, "FORGE_REVISION", revision):
                            try:
                                svc.run_audit("p")
                                refused = None
                            except BomValidationError as exc:
                                refused = str(exc)
                        (run_id,) = set(svc.store.query("runs")) - before
                        run = svc.load_run(run_id)
                        outcomes.append((refused, *self.outcome(svc, run, list(sent))))
                    assert outcomes[0] == outcomes[1]
                    if run.sdt_id:
                        client.destroy(run.sdt_id)
            finally:
                _ENV.release()

    @staticmethod
    def three_hosts(tmp_path, env):
        snapshots = tmp_path / "snapshots"
        hosts = ["a-0", "a-1", "a-2"]
        for host in hosts:
            write_snapshot(snapshots, host, packages={"lodash": "4.17.20"},
                           sysctl={"net.ipv4.ip_forward": "0"})
        _, client = env.make_manager_client()
        svc = audit_service(tmp_path / "store", snapshots, hosts, (), FEED_LINES, client)
        return svc, snapshots

    def test_only_changed_hosts_are_scanned_and_only_kept_texts_read(self, tmp_path, env):
        svc, snapshots = self.three_hosts(tmp_path, env)
        scanned, read = [], []
        read_texts = svc.store.read_texts

        def reading(log, positions):
            read.append(list(positions))
            return read_texts(log, positions)

        def audit():
            scanned.clear()
            read.clear()
            run = svc.run_audit("p")
            assert run.state is RunState.SDT_READY, run.error
            return run

        with mock.patch.object(
            service_module, "scan_host", lambda s: scanned.append(s.hostname) or scan_host(s)
        ), mock.patch.object(svc.store, "read_texts", reading):
            first = audit()
            assert (scanned, read) == (["a-0", "a-1", "a-2"], [])
            write_snapshot(snapshots, "a-1", packages={"lodash": "4.17.21"})
            second = audit()
            assert (scanned, read) == (["a-1"], [[1, 2], [5, 6]])
            third = audit()
            assert (scanned, read) == ([], [[1, 2], [3, 4], [5, 6]])
        assert FileDocumentStore(svc.store.root).get("latest_runs", "p") == {"run_id": third.run_id}
        entries = log_contents(svc.store, second.run_id)
        assert log_contents(svc.store, third.run_id) == entries
        assert log_contents(svc.store, first.run_id) != entries

    @pytest.mark.parametrize("damage", ["delete", "truncate"])
    def test_a_source_log_that_cannot_be_read_is_forged_again(self, tmp_path, env, damage):
        """A concurrent rescan may rewrite the source log's generation, or a
        log may end early: the hosts whose texts cannot be read are scanned
        and forged, and the audit stores what it would have kept."""
        svc, _ = self.three_hosts(tmp_path, env)
        first = svc.run_audit("p")
        expected = log_contents(svc.store, first.run_id)
        get_log = svc.store.get_log

        def damaged(collection, key):
            log = get_log(collection, key)
            if key == first.run_id:
                if damage == "delete":
                    log.path.unlink()
                else:
                    os.truncate(log.path, log.live // 2)
            return log

        scanned = []
        with mock.patch.object(svc.store, "get_log", damaged), mock.patch.object(
            service_module, "scan_host", lambda s: scanned.append(s.hostname) or scan_host(s)
        ):
            second = svc.run_audit("p")
        assert second.state is RunState.SDT_READY, second.error
        assert scanned == (["a-0", "a-1", "a-2"] if damage == "delete" else ["a-1", "a-2"])
        assert log_contents(svc.store, second.run_id) == expected

    def test_an_audit_whose_source_twin_is_gone_sends_the_texts_again(self, tmp_path, env):
        """A reusing audit names its copied documents by digest. With the
        source run's twin destroyed, the manager holds none of them: one
        refusal, one more request with their texts, and the run and twin
        are a fresh audit's."""
        svc, snapshots = self.three_hosts(tmp_path, env)
        manager = env.mounted[-1][1]
        first = svc.run_audit("p")
        svc.manager.destroy(first.sdt_id)
        requests, handle_create = [], manager.handle_create

        def counting(payload, span=None):
            requests.append([isinstance(item, dict) for item in payload["boms"]])
            return handle_create(payload, span)

        with mock.patch.object(manager, "handle_create", counting):
            second = svc.run_audit("p")
        assert second.state is RunState.SDT_READY, second.error
        assert requests == [[False] + [True] * 6, [False] * 7]
        _, client = env.make_manager_client()
        fresh = audit_service(tmp_path / "fresh", snapshots, ["a-0", "a-1", "a-2"], (),
                              FEED_LINES, client)
        expected = fresh.run_audit("p")
        assert log_contents(svc.store, second.run_id) == log_contents(fresh.store, expected.run_id)

        def things(service, run):
            endpoint = service.manager.get(run.sdt_id)["endpoint"]
            rep = env.runtime.instance_service(endpoint).representation()
            return {t: json.loads(rep.latest(t)) for t in rep.thing_ids()}

        texts = [text for _, text in log_contents(svc.store, second.run_id)]
        assert things(svc, second) == things(fresh, expected) == {
            t: json.loads(text) for t, text in thing_texts_from_boms(map(parse_bom, texts)).items()}

    def test_a_refused_create_is_recorded_as_a_create(self, tmp_path, env):
        class NoDeploys:
            def deploy_instance(self, sdt_id, tokens):
                raise RuntimeError("injected: no room for another instance")

        prefix = "/ams-refusing"
        manager = SdtManager(runtimes=[NoDeploys()])
        env.server.mount(prefix, ManagerService(manager))
        env.mounted.append((prefix, manager))
        svc, _ = self.three_hosts(tmp_path, env)
        svc.manager = ManagerClient(env.server.url_for(prefix))
        run = svc.run_audit("p")
        assert (run.state, run.error) == (RunState.FAILED, "create_rejected:deploy")
        assert svc.load_run(run.run_id).error == "create_rejected:deploy"
