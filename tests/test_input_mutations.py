"""Seeded mutations of the files the command line reads: the `smb` fixture's
inventory, profile and advisory feed, and a settings file.

Each mutation is one to three edits of the file's decoded form (the same
edits as tests/test_parse_golden.py makes to documents), or now and then a
truncated text. The command that reads the file must either exit 0, and
then the program reads back what the file says, or exit 1 with one `Error:`
line that names the file. No case may end in a traceback.
"""

from __future__ import annotations

import copy
import json
import os
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from twinaudit.ams import FileDocumentStore, load_inventory, topology_from_store
from twinaudit.ams.profiles import get_profile, load_profile_file
from twinaudit.cli import main
from twinaudit.config import load_config
from twinaudit.fixtures.generator import generate
from twinaudit.jsonhttp import SharedJsonServer
from twinaudit.manager import InProcessRuntime, ManagerService, SdtManager
from twinaudit.vulnstore import VulnerabilityStore

from .test_parse_golden import _drop, _duplicate, _extra, _retype, _revalue, _shuffle

CASES_PER_FILE = 30
SEED = 29
_MUTATORS = (_drop, _retype, _revalue, _duplicate, _shuffle, _extra)


def mutations(doc: dict, seed: int, mutators=_MUTATORS) -> list[tuple[str, dict | str]]:
    """(label, mutated doc or truncated JSON text) of each seeded case."""
    rng = random.Random(seed)
    text = json.dumps(doc)
    out: list[tuple[str, dict | str]] = []
    for _ in range(CASES_PER_FILE):
        if rng.random() < 0.1:
            cut = rng.randrange(1, len(text))
            out.append((f"truncate {cut}", text[:cut]))
            continue
        mutated = copy.deepcopy(doc)
        labels = [rng.choice(mutators)(mutated, rng) for _ in range(rng.choice((1, 1, 2, 3)))]
        out.append(("; ".join(labels), mutated))
    return out


def write_json(path: Path, value: dict | str) -> Path:
    path.write_text(value if isinstance(value, str) else json.dumps(value))
    return path


def write_feed(path: Path, value: dict | str) -> Path:
    """A feed case as NDJSON: one line per record of the mutated `feed` list;
    any other mutated value, or a truncated text, as the file's one line."""
    records = value.get("feed") if isinstance(value, dict) and len(value) == 1 else None
    lines = [json.dumps(r) for r in records] if isinstance(records, list) else [
        value if isinstance(value, str) else json.dumps(value)]
    path.write_text("\n".join(lines) + "\n")
    return path


def accepted(result, path: Path) -> bool:
    """True if the command exited 0; else it must have exited 1 with one
    `Error:` line naming path, and no traceback."""
    if result.exit_code == 0:
        return True
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert str(path) in lines[0], result.output
    return False


def inventory_view(graph) -> tuple[list, list]:
    return (sorted((h.to_dict() for h in graph.hosts), key=lambda h: h["host_id"]),
            sorted(json.dumps(r.to_dict(), sort_keys=True) for r in graph.relationships))


@pytest.fixture(scope="module")
def estate(tmp_path_factory):
    return generate("smb", 0, tmp_path_factory.mktemp("mutations-smb"))


@pytest.fixture(scope="module")
def manager_url():
    server = SharedJsonServer().start()
    url = server.mount("/mgr", ManagerService(SdtManager(runtimes=[InProcessRuntime(server)])))
    yield url
    server.stop()


def cases(path: str, n: int):
    doc = json.loads(Path(path).read_text())
    return mutations(doc, SEED * 1000 + n)


runner = CliRunner()


def test_mutated_inventory(estate, tmp_path):
    kinds = set()
    for index, (label, value) in enumerate(cases(estate["inventory"], 0)):
        path = write_json(tmp_path / f"inventory-{index}.json", value)
        store = tmp_path / f"store-{index}"
        result = runner.invoke(main, ["inventory", "ingest", str(path)],
                               env={"TWINAUDIT_STORE": str(store)})
        if accepted(result, path):
            stored = topology_from_store(FileDocumentStore(store))
            assert inventory_view(stored) == inventory_view(load_inventory(path)), label
        kinds.add(result.exit_code)
    assert kinds == {0, 1}


def test_mutated_profile(estate, tmp_path):
    kinds = set()
    for index, (label, value) in enumerate(cases(estate["profile"], 1)):
        path = write_json(tmp_path / f"profile-{index}.json", value)
        env = {"TWINAUDIT_STORE": str(tmp_path / f"store-{index}")}
        ingest = runner.invoke(main, ["inventory", "ingest", estate["inventory"]], env=env)
        assert ingest.exit_code == 0
        result = runner.invoke(main, ["profile", "create", "-f", str(path)], env=env)
        if accepted(result, path):
            profile = load_profile_file(path)
            stored = get_profile(FileDocumentStore(env["TWINAUDIT_STORE"]), profile.profile_id)
            assert stored == profile, label
        kinds.add(result.exit_code)
    assert kinds == {0, 1}


def test_mutated_settings(estate, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a mutated store_path may be relative
    settings = {"store_path": str(tmp_path / "store"), "feed_path": estate["feed"],
                "manager_url": "http://127.0.0.1:8470/manager"}
    kinds = set()
    # A settings file holds no lists to duplicate or shuffle.
    flat = (_drop, _retype, _revalue, _extra)
    for index, (label, value) in enumerate(mutations(settings, SEED * 1000 + 2, flat)):
        path = write_json(tmp_path / f"settings-{index}.json", value)
        result = runner.invoke(main, ["--config", str(path), "inventory", "ingest",
                                      estate["inventory"]], env={"TWINAUDIT_STORE": None})
        if accepted(result, path):
            store = FileDocumentStore(load_config(str(path), env={}).store)
            expected = inventory_view(load_inventory(estate["inventory"]))
            assert inventory_view(topology_from_store(store)) == expected, label
        kinds.add(result.exit_code)
    assert kinds == {0, 1}


def test_mutated_feed(estate, manager_url, tmp_path):
    env = {"TWINAUDIT_STORE": str(tmp_path / "store"), "TWINAUDIT_MANAGER_URL": manager_url}
    for command in (["inventory", "ingest", estate["inventory"]],
                    ["profile", "create", "-f", estate["profile"]]):
        assert runner.invoke(main, command, env=env).exit_code == 0
    records = [json.loads(line) for line in Path(estate["feed"]).read_text().splitlines() if line]
    kinds = set()
    for index, (label, value) in enumerate(mutations({"feed": records}, SEED * 1000 + 3)):
        path = write_feed(tmp_path / f"feed-{index}.ndjson", value)
        result = runner.invoke(main, ["audit", "run", estate["profile_id"], "--feed", str(path),
                                      "--json"], env=env)
        if accepted(result, path):
            run = json.loads(result.output)
            assert run["state"] == "SDT_READY", label
            assert run["feeds"] == [os.path.abspath(path)], label
            lines = [line for line in path.read_text().splitlines() if line.strip()]
            assert VulnerabilityStore().load_feed(path) == len(lines), label
        kinds.add(result.exit_code)
    assert kinds == {0, 1}
