"""End-to-end command line flows, embedded and external manager modes."""

import json
import time
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import twinaudit.cli as cli_module
from twinaudit.ams import FileDocumentStore
from twinaudit.cli import main
from twinaudit.fixtures.generator import generate
from twinaudit.jsonhttp import SharedJsonServer
from twinaudit.manager import InProcessRuntime, ManagerService, SdtManager
from twinaudit.manager import core as manager_core
from twinaudit.manager.adapter import DataAdapter

_ENV = None


class Env:
    def __init__(self):
        self.server = SharedJsonServer().start()
        manager = SdtManager(runtimes=[InProcessRuntime(self.server)])
        self.manager_url = self.server.mount("/cli-mgr", ManagerService(manager))

    def stop(self):
        self.server.stop()


def setup_module(module):
    global _ENV
    _ENV = Env()


def teardown_module(module):
    if _ENV is not None:
        _ENV.stop()


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def minimal_fx(tmp_path_factory):
    return generate("minimal", 5, tmp_path_factory.mktemp("cli-minimal"))


@pytest.fixture()
def store_env(tmp_path):
    return {"TWINAUDIT_STORE": str(tmp_path / "store")}


def ok(result):
    assert result.exit_code == 0, result.output
    return result


def prepared_store(runner, env, fx):
    ok(runner.invoke(main, ["inventory", "ingest", fx["inventory"]], env=env))
    ok(runner.invoke(main, ["profile", "create", "-f", fx["profile"]], env=env))


def run_audit(runner, env, fx):
    prepared_store(runner, env, fx)
    result = ok(
        runner.invoke(
            main,
            ["audit", "run", fx["profile_id"], "--feed", fx["feed"], "--json"],
            env=env,
        )
    )
    return json.loads(result.output)


def stored_documents(store, run_id):
    """The run's (serial, version, summary, text) per document, in order."""
    log = store.get_log("run_documents", run_id)
    texts = store.read_texts(log, range(len(log.entries)))
    return [(*log.meta(i).decode().split(" ", 2), text) for i, text in enumerate(texts)]


class TestFixtureCommand:
    def test_generate_writes_manifest_and_files(self, runner, tmp_path):
        out = tmp_path / "fx"
        result = ok(
            runner.invoke(
                main,
                ["fixture", "generate", "--spec", "minimal", "--seed", "9", "--out", str(out)],
            )
        )
        manifest = json.loads(result.output)
        assert manifest["spec"] == "minimal"
        assert Path(manifest["inventory"]).is_file()
        assert Path(manifest["profile"]).is_file()
        assert Path(manifest["feed"]).is_file()
        for ref in manifest["snapshots"].values():
            assert Path(ref).is_dir()

    def test_unknown_spec_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main, ["fixture", "generate", "--spec", "mainframe", "--out", str(tmp_path)]
        )
        assert result.exit_code != 0


class TestIngestAndProfile:
    def test_ingest_reports_sizes(self, runner, store_env, minimal_fx):
        result = ok(
            runner.invoke(
                main, ["inventory", "ingest", minimal_fx["inventory"]], env=store_env
            )
        )
        assert "1 hosts" in result.output

    def test_profile_reports_selection(self, runner, store_env, minimal_fx):
        ok(runner.invoke(main, ["inventory", "ingest", minimal_fx["inventory"]], env=store_env))
        result = ok(
            runner.invoke(
                main, ["profile", "create", "-f", minimal_fx["profile"]], env=store_env
            )
        )
        assert "selects 1 hosts" in result.output

    def test_profile_with_unmatched_selector_fails(self, runner, store_env, minimal_fx):
        result = runner.invoke(
            main, ["profile", "create", "-f", minimal_fx["profile"]], env=store_env
        )
        assert result.exit_code == 1
        assert "solo-01" in result.output

    def test_missing_inventory_file_fails(self, runner, store_env):
        result = runner.invoke(
            main, ["inventory", "ingest", "/nonexistent/inventory.json"], env=store_env
        )
        assert result.exit_code != 0


class TestAuditFlow:
    def test_run_reaches_ready_and_is_reportable(self, runner, store_env, minimal_fx):
        run = run_audit(runner, store_env, minimal_fx)
        assert run["state"] == "SDT_READY"
        assert run["hosts"] == ["solo-01"]
        assert len(run["bom_serials"]) == 3

        status = ok(
            runner.invoke(main, ["audit", "status", run["run_id"]], env=store_env)
        )
        assert "state: SDT_READY" in status.output

        report = ok(
            runner.invoke(main, ["audit", "report", run["run_id"]], env=store_env)
        )
        assert "| solo-01 |" in report.output
        assert "CVE-2023-29001" in report.output

        counts = json.loads(
            ok(
                runner.invoke(
                    main, ["audit", "report", run["run_id"], "--json"], env=store_env
                )
            ).output
        )
        assert counts["total"] == {
            "algorithms": 2,
            "vulnerabilities": 1,
            "components": 2,
            "certificates": 0,
        }

    def test_unknown_profile_fails(self, runner, store_env):
        result = runner.invoke(main, ["audit", "run", "ghost"], env=store_env)
        assert result.exit_code == 1
        assert "ghost" in result.output

    def test_missing_inventory_record_is_one_error_line(self, runner, store_env, minimal_fx):
        run = run_audit(runner, store_env, minimal_fx)
        FileDocumentStore(store_env["TWINAUDIT_STORE"]).delete("topology", "inventory")
        update = ["audit", "update", run["run_id"], "--feed", minimal_fx["feed"]]
        result = runner.invoke(main, update, env=store_env)
        refused(result, "host 'solo-01' is not in the inventory")
        status = ok(runner.invoke(main, ["audit", "status", run["run_id"]], env=store_env))
        assert "state: SDT_READY" in status.output
        ok(runner.invoke(main, ["inventory", "ingest", minimal_fx["inventory"]], env=store_env))
        ok(runner.invoke(main, update, env=store_env))

    def test_unknown_run_ids_fail(self, runner, store_env):
        for command in ("status", "report"):
            result = runner.invoke(main, ["audit", command, "nope"], env=store_env)
            assert result.exit_code == 1, command

    def test_update_without_changes_succeeds_embedded(
        self, runner, store_env, minimal_fx
    ):
        run = run_audit(runner, store_env, minimal_fx)
        result = ok(
            runner.invoke(
                main,
                [
                    "audit", "update", run["run_id"],
                    "--feed", minimal_fx["feed"], "--json",
                ],
                env=store_env,
            )
        )
        updated = json.loads(result.output)
        assert updated["state"] == "SDT_READY"
        assert updated["representation_version"] == 1

    def test_update_rescans_with_the_feed_the_run_was_audited_with(
        self, runner, store_env, minimal_fx, tmp_path
    ):
        feed = tmp_path / "feed.ndjson"
        feed.write_bytes(Path(minimal_fx["feed"]).read_bytes())
        prepared_store(runner, store_env, minimal_fx)
        run = json.loads(ok(runner.invoke(
            main, ["audit", "run", minimal_fx["profile_id"], "--feed", str(feed), "--json"],
            env=store_env,
        )).output)
        assert run["feeds"] == [str(feed)]
        # Without the run's feed, the rescan would drop the vulnerabilities
        # and push that change, which the embedded twin refuses.
        updated = json.loads(ok(runner.invoke(
            main, ["audit", "update", run["run_id"], "--json"], env=store_env
        )).output)
        assert updated["state"] == "SDT_READY"
        assert updated["representation_version"] == 1

        feed.unlink()
        refused(runner.invoke(main, ["audit", "update", run["run_id"]], env=store_env), str(feed))

    def test_config_file_supplies_store_and_feed(self, runner, tmp_path, minimal_fx):
        config_path = tmp_path / "settings.yaml"
        config_path.write_text(
            yaml.safe_dump(
                {"store_path": str(tmp_path / "store"), "feed_path": minimal_fx["feed"]}
            )
        )
        base = ["--config", str(config_path)]
        ok(runner.invoke(main, base + ["inventory", "ingest", minimal_fx["inventory"]]))
        ok(runner.invoke(main, base + ["profile", "create", "-f", minimal_fx["profile"]]))
        run = json.loads(
            ok(
                runner.invoke(
                    main, base + ["audit", "run", minimal_fx["profile_id"], "--json"]
                )
            ).output
        )
        counts = json.loads(
            ok(
                runner.invoke(
                    main, base + ["audit", "report", run["run_id"], "--json"]
                )
            ).output
        )
        assert counts["total"]["vulnerabilities"] == 1  # feed came from config


class TestExternalManager:
    @pytest.fixture()
    def ext_env(self, tmp_path, tmp_path_factory):
        fx = generate("minimal", 11, tmp_path_factory.mktemp("cli-ext"))
        env = {
            "TWINAUDIT_STORE": str(tmp_path / "store"),
            "TWINAUDIT_MANAGER_URL": _ENV.manager_url,
            "TWINAUDIT_FEED": fx["feed"],
        }
        return env, fx

    def _touch_snapshot(self, fx):
        path = Path(fx["snapshots"]["solo-01"]) / "opt" / "app" / "requirements.txt"
        text = path.read_text().replace("miniweb==0.3.2", "miniweb==0.4.0")
        path.write_text(text)

    def test_twin_survives_across_invocations(self, runner, ext_env):
        env, fx = ext_env
        prepared_store(runner, env, fx)
        run = json.loads(
            ok(
                runner.invoke(
                    main, ["audit", "run", fx["profile_id"], "--json"], env=env
                )
            ).output
        )
        sdt_id = run["sdt_id"]

        listing = ok(runner.invoke(main, ["sdt", "list"], env=env))
        assert sdt_id in listing.output and "READY" in listing.output

        shown = json.loads(ok(runner.invoke(main, ["sdt", "get", sdt_id], env=env)).output)
        assert shown["representationVersion"] == 1

        footprint = ok(runner.invoke(main, ["sdt", "footprint", sdt_id], env=env))
        assert footprint.output.strip().endswith("bytes")
        assert int(footprint.output.split()[0]) > 0

        self._touch_snapshot(fx)
        updated = json.loads(
            ok(
                runner.invoke(
                    main, ["audit", "update", run["run_id"], "--hosts", "solo-01", "--json"],
                    env=env,
                )
            ).output
        )
        assert updated["representation_version"] == 2

        destroyed = ok(runner.invoke(main, ["sdt", "destroy", sdt_id], env=env))
        assert sdt_id in destroyed.output

        path = Path(fx["snapshots"]["solo-01"]) / "opt" / "app" / "requirements.txt"
        path.write_text(path.read_text().replace("miniweb==0.4.0", "miniweb==0.5.0"))
        rejected = runner.invoke(
            main, ["audit", "update", run["run_id"], "--json"], env=env
        )
        assert rejected.exit_code == 1
        assert "update_rejected" in rejected.output

        # The run is FAILED now; rescanning it again is refused with a message.
        again = runner.invoke(main, ["audit", "update", run["run_id"]], env=env)
        assert again.exit_code == 1
        assert isinstance(again.exception, SystemExit)
        assert "cannot move from FAILED to UPDATING" in again.output

    def test_a_rescan_without_the_twins_manager_is_one_error_line(self, runner, ext_env):
        """An embedded manager holds no twin of a run another command made:
        the rescan that would push exits 1 naming manager_url, the run stays
        SDT_READY, and a rescan against the twin's manager pushes."""
        env, fx = ext_env
        prepared_store(runner, env, fx)
        run = json.loads(
            ok(runner.invoke(main, ["audit", "run", fx["profile_id"], "--json"], env=env)).output
        )
        self._touch_snapshot(fx)
        embedded = {name: value for name, value in env.items() if name != "TWINAUDIT_MANAGER_URL"}
        refused(runner.invoke(main, ["audit", "update", run["run_id"]], env=embedded),
                "set manager_url")
        status = json.loads(ok(
            runner.invoke(main, ["audit", "status", run["run_id"], "--json"], env=env)
        ).output)
        assert (status["state"], status["representation_version"]) == ("SDT_READY", 1)
        updated = json.loads(
            ok(runner.invoke(main, ["audit", "update", run["run_id"], "--json"], env=env)).output
        )
        assert (updated["state"], updated["representation_version"]) == ("SDT_READY", 2)

    def test_unknown_sdt_id_fails(self, runner, ext_env):
        env, _ = ext_env
        result = runner.invoke(main, ["sdt", "footprint", "nope"], env=env)
        assert result.exit_code == 1

    def test_update_unknown_host_subset_fails(self, runner, ext_env):
        env, fx = ext_env
        prepared_store(runner, env, fx)
        run = json.loads(
            ok(
                runner.invoke(
                    main, ["audit", "run", fx["profile_id"], "--json"], env=env
                )
            ).output
        )
        result = runner.invoke(
            main, ["audit", "update", run["run_id"], "--hosts", "ghost-99"], env=env
        )
        assert result.exit_code == 1
        assert "ghost-99" in result.output


class TestWatch:
    @pytest.fixture()
    def periodic_env(self, runner, tmp_path, tmp_path_factory):
        fx = generate("minimal", 13, tmp_path_factory.mktemp("cli-watch"))
        profile = json.loads(Path(fx["profile"]).read_text())
        profile["sync_policy"] = {"kind": "PERIODIC", "interval_seconds": 0.05}
        Path(fx["profile"]).write_text(json.dumps(profile))
        env = {
            "TWINAUDIT_STORE": str(tmp_path / "store"),
            "TWINAUDIT_MANAGER_URL": _ENV.manager_url,
            "TWINAUDIT_FEED": fx["feed"],
        }
        return env, fx, run_audit(runner, env, fx)

    def test_rescans_on_the_profile_interval(self, runner, periodic_env):
        env, fx, run = periodic_env
        requirements = Path(fx["snapshots"]["solo-01"]) / "opt" / "app" / "requirements.txt"
        requirements.write_text(requirements.read_text().replace("miniweb==0.3.2", "miniweb==0.4.0"))
        started = time.monotonic()
        result = ok(runner.invoke(main, ["audit", "watch", run["run_id"], "--count", "2"], env=env))
        assert time.monotonic() - started >= 0.1
        # The first rescan pushes the change; the second finds nothing new.
        assert result.output.count("state: SDT_READY") == 2
        assert "representation v2" in result.output.splitlines()[-1]

    def test_stops_with_exit_1_when_the_run_leaves_ready(self, runner, periodic_env):
        env, fx, run = periodic_env
        ok(runner.invoke(main, ["sdt", "destroy", run["sdt_id"]], env=env))
        requirements = Path(fx["snapshots"]["solo-01"]) / "opt" / "app" / "requirements.txt"
        requirements.write_text(requirements.read_text().replace("miniweb==0.3.2", "miniweb==0.4.0"))
        result = runner.invoke(main, ["audit", "watch", run["run_id"], "--count", "3"], env=env)
        assert result.exit_code == 1
        assert result.output.count("state: FAILED") == 1
        assert "update_rejected" in result.output

        again = runner.invoke(main, ["audit", "watch", run["run_id"], "--count", "1"], env=env)
        assert again.exit_code == 1
        assert isinstance(again.exception, SystemExit)
        assert "cannot move from FAILED to UPDATING" in again.output

    def test_on_demand_profile_is_refused(self, runner, store_env, minimal_fx):
        run = run_audit(runner, store_env, minimal_fx)
        result = runner.invoke(main, ["audit", "watch", run["run_id"]], env=store_env)
        assert result.exit_code == 1
        assert "no PERIODIC sync policy" in result.output


def refused(result, names):
    """The command exited 1 with one `Error:` line naming `names`, and no
    traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert names in lines[0]


HOST = {"host_id": "a", "role": "r", "segment": "LAN", "snapshot_ref": "/a"}


class TestProgramErrors:
    """Input the program cannot use ends a command with exit 1 and one
    message; anything else still shows its traceback."""

    @pytest.mark.parametrize("name,text,command", [
        ("inventory.yaml", "hosts: [\n  - {host_id: a\n", ["inventory", "ingest"]),
        ("inventory.json", "{not json", ["inventory", "ingest"]),
        ("profile.yml", "profile_id: p\n  name: : x\n", ["profile", "create", "-f"]),
    ], ids=["yaml-inventory", "json-inventory", "yaml-profile"])
    def test_malformed_input_file(self, runner, store_env, tmp_path, name, text, command):
        path = tmp_path / name
        path.write_text(text)
        refused(runner.invoke(main, [*command, str(path)], env=store_env), str(path))

    @pytest.mark.parametrize("command,doc,message", [
        (["inventory", "ingest"], {"hosts": [5]}, "host entry must be an object"),
        (["inventory", "ingest"], {"hosts": [HOST], "relationships": [5]},
         "relationship entry must be an object"),
        (["profile", "create", "-f"], {"profile_id": "p", "host_selector": 5},
         "host_selector must be a list"),
        (["profile", "create", "-f"], {"profile_id": "p", "host_selector": ["a"], "categories": 5},
         "categories must be a list"),
        (["profile", "create", "-f"], {"profile_id": "p", "host_selector": ["a"], "sync_policy": 5},
         "sync_policy must be an object"),
        (["inventory", "ingest"], {"hosts": 5}, "hosts must be a list, not 5"),
        (["inventory", "ingest"], {"hosts": [HOST], "relationships": 5},
         "relationships must be a list, not 5"),
        (["inventory", "ingest"], {"hosts": [{**HOST, "host_id": {"a": 5}}]},
         "host_id must be a string"),
        (["inventory", "ingest"], {"hosts": [{**HOST, "role": 5}]}, "role must be a string"),
        (["inventory", "ingest"], {"hosts": [{**HOST, "snapshot_ref": ["/a"]}]},
         "snapshot_ref must be a string"),
        (["inventory", "ingest"],
         {"hosts": [HOST], "relationships": [{"source": "a", "kind": "SERVES", "target": 5}]},
         "relationship target must be a string"),
        (["profile", "create", "-f"],
         {"profile_id": "p", "host_selector": ["a"],
          "sync_policy": {"kind": "PERIODIC", "interval_seconds": "x"}},
         "interval_seconds > 0, not 'x'"),
        (["profile", "create", "-f"], {"profile_id": "p", "host_selector": [{"a": 1}]},
         "host_selector entry must be a string"),
        (["profile", "create", "-f"], {"profile_id": {"a": 5}, "host_selector": ["a"]},
         "profile_id must be a string"),
        (["inventory", "ingest"], {"hosts": [{**HOST, "colour": "red"}]},
         "unknown field 'colour' in host entry"),
        (["inventory", "ingest"],
         {"hosts": [HOST], "relationships": [
             {"source": "a", "kind": "SERVES", "target": "a", "weight": 1, "note": ""}]},
         "unknown fields 'note', 'weight' in relationship entry"),
        (["inventory", "ingest"], {"hosts": [HOST], "owner": "ops"},
         "unknown field 'owner' in inventory"),
        (["profile", "create", "-f"], {"profile_id": "p", "host_selector": ["a"], "owner": "ops"},
         "unknown field 'owner' in profile"),
        (["profile", "create", "-f"],
         {"profile_id": "p", "host_selector": ["a"], "sync_policy": {"a": 5}},
         "unknown field 'a' in sync_policy"),
    ], ids=["host-entry", "relationship-entry", "host-selector", "categories", "sync-policy",
            "hosts", "relationships", "host-id", "role", "snapshot-ref", "relationship-target",
            "interval", "selector-entry", "profile-id", "host-field", "relationship-fields",
            "inventory-field", "profile-field", "sync-policy-field"])
    def test_wrongly_shaped_value(self, runner, store_env, tmp_path, command, doc, message):
        path = tmp_path / "input.yaml"
        path.write_text(yaml.safe_dump(doc))
        refused(runner.invoke(main, [*command, str(path)], env=store_env), message)

    def test_config_that_is_not_a_mapping(self, runner, store_env, tmp_path):
        path = tmp_path / "settings.yaml"
        path.write_text("- store_path\n- feed_path\n")
        result = runner.invoke(main, ["--config", str(path), "audit", "status", "r"], env=store_env)
        refused(result, str(path))

    def test_unknown_setting(self, runner, store_env, tmp_path):
        path = tmp_path / "settings.yaml"
        path.write_text("store_path: s\ncolour: red\n")
        result = runner.invoke(main, ["--config", str(path), "audit", "status", "r"], env=store_env)
        refused(result, f"unknown field 'colour' in settings file {path}")

    def test_malformed_feed(self, runner, store_env, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text('{"cve": "CVE-2024-1000"}\n{not json\n')
        result = runner.invoke(main, ["audit", "run", "p", "--feed", str(path)], env=store_env)
        refused(result, str(path))
        assert "line 1" in result.output

    @pytest.mark.parametrize("command", ["run", "update", "watch"])
    @pytest.mark.parametrize("source", ["settings", "env"])
    def test_missing_configured_feed(self, runner, store_env, tmp_path, source, command):
        feed = str(tmp_path / "no-such-feed.ndjson")
        env, base = dict(store_env), []
        if source == "env":
            env["TWINAUDIT_FEED"] = feed
        else:
            settings = tmp_path / "settings.yaml"
            settings.write_text(yaml.safe_dump({"feed_path": feed}))
            base = ["--config", str(settings)]
        result = runner.invoke(main, [*base, "audit", command, "nope"], env=env)
        refused(result, feed)

    @pytest.mark.parametrize("command", [
        ["audit", "status"], ["audit", "report"], ["audit", "update"], ["audit", "watch"],
    ], ids=lambda command: command[-1])
    def test_unknown_run(self, runner, store_env, command):
        refused(runner.invoke(main, [*command, "nope"], env=store_env), "unknown run nope")

    @pytest.mark.parametrize("command", [
        ["audit", "run"], ["audit", "status"], ["audit", "report"], ["audit", "update"],
        ["audit", "watch"], ["sdt", "get"], ["sdt", "destroy"], ["sdt", "footprint"],
    ], ids=" ".join)
    def test_empty_id(self, runner, store_env, command, monkeypatch):
        reached = []
        monkeypatch.setattr(cli_module, "FileDocumentStore", lambda *a: reached.append(a))
        monkeypatch.setattr(cli_module, "_manager_session", lambda *a: reached.append(a))
        result = runner.invoke(main, [*command, ""], env=store_env)
        refused(result, "_ID must not be empty")
        assert reached == []

    @pytest.mark.parametrize("hosts", [" , ", ""], ids=["commas", "empty"])
    def test_update_of_no_host(self, runner, store_env, hosts, monkeypatch):
        """A --hosts that names no host would rescan nothing and still save
        the run; it is refused before any store or manager is used."""
        reached = []
        monkeypatch.setattr(cli_module, "FileDocumentStore", lambda *a: reached.append(a))
        monkeypatch.setattr(cli_module, "_manager_session", lambda *a: reached.append(a))
        result = runner.invoke(main, ["audit", "update", "run-1", "--hosts", hosts], env=store_env)
        refused(result, "--hosts names no host")
        assert reached == []

    def test_a_bug_keeps_its_traceback(self, runner, store_env, minimal_fx, monkeypatch):
        def broken(store, source):
            raise RuntimeError("a bug")

        monkeypatch.setattr(cli_module, "ingest_inventory", broken)
        result = runner.invoke(main, ["inventory", "ingest", minimal_fx["inventory"]],
                               env=store_env)
        assert result.exit_code == 1
        assert isinstance(result.exception, RuntimeError)


class TestBenchCommand:
    def test_deploy_writes_csv_and_summary(self, runner, tmp_path, store_env):
        out = tmp_path / "cdf.csv"
        result = ok(
            runner.invoke(
                main,
                [
                    "bench", "deploy", "--fixture", "minimal",
                    "--iterations", "3", "--seed", "2", "--out", str(out),
                ],
                env=store_env,
            )
        )
        assert "iterations: 3 ok, 0 failed" in result.output
        assert "footprint:" in result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iteration,latency_seconds"
        assert len(lines) == 4

    def test_include_collection_mode_runs(self, runner, store_env):
        result = ok(
            runner.invoke(
                main,
                [
                    "bench", "deploy", "--fixture", "minimal",
                    "--iterations", "2", "--include-collection",
                ],
                env=store_env,
            )
        )
        assert "iterations: 2 ok, 0 failed" in result.output


    def test_deploy_creates_stay_cold(self, runner, store_env, monkeypatch):
        """The paper's deployment benchmark measures cold creates: each create
        of the smb twin parses all 15 documents and projects all 8 things,
        because between its create/destroy cycles the manager holds no
        shared document or thing."""
        parses, projected, held = [], [], []
        parse, process = manager_core.parse_bom, DataAdapter.process
        handle_create, handle_destroy = SdtManager.handle_create, SdtManager.handle_destroy

        def counting(text, **kwargs):
            parses[-1] += 1
            return parse(text, **kwargs)

        def projecting(self, boms):
            states = process(self, boms)
            projected[-1] += len(states)
            return states

        def create(self, payload, span=None):
            held.append((len(self._shared), len(self._shared_things)))
            parses.append(0)
            projected.append(0)
            return handle_create(self, payload, span)

        def destroy(self, sdt_id):
            handle_destroy(self, sdt_id)
            held.append((len(self._shared), len(self._shared_things)))

        monkeypatch.setattr(manager_core, "parse_bom", counting)
        monkeypatch.setattr(DataAdapter, "process", projecting)
        monkeypatch.setattr(SdtManager, "handle_create", create)
        monkeypatch.setattr(SdtManager, "handle_destroy", destroy)
        result = ok(runner.invoke(
            main, ["bench", "deploy", "--fixture", "smb", "--iterations", "4"], env=store_env))
        assert "iterations: 4 ok, 0 failed" in result.output
        assert parses == [15] * 5  # the warm-up and four measured creates
        assert projected == [8] * 5  # seven hosts and the profile's manifest
        assert held == [(0, 0)] * 10

    def test_deploy_payload_is_what_audit_run_stores(
        self, runner, tmp_path, store_env, monkeypatch
    ):
        """For one fixture and seed the bench sends, with and without
        collection in the timed window, the documents `audit run` stores,
        evidence categories of the profile included."""

        def with_categories(spec, seed, out):
            fx = generate(spec, seed, out)
            profile = json.loads(Path(fx["profile"]).read_text())
            profile["categories"] = ["CERTIFICATE", "SOFTWARE_COMPONENT"]
            Path(fx["profile"]).write_text(json.dumps(profile))
            return fx

        run = run_audit(runner, store_env, with_categories("minimal", 3, tmp_path / "fx"))
        store = FileDocumentStore(store_env["TWINAUDIT_STORE"])
        stored = [text for *_, text in stored_documents(store, run["run_id"])]

        sent, run_benchmark = [], cli_module.run_benchmark

        def recording(client, profile_id, texts, **kwargs):
            sent.extend([texts, kwargs["build_payload"]()])
            return run_benchmark(client, profile_id, texts, **kwargs)

        monkeypatch.setattr(cli_module, "generate", with_categories)
        monkeypatch.setattr(cli_module, "run_benchmark", recording)
        ok(
            runner.invoke(
                main,
                [
                    "bench", "deploy", "--fixture", "minimal", "--seed", "3",
                    "--iterations", "1", "--include-collection",
                ],
                env=store_env,
            )
        )
        assert sent == [stored, stored]


class TestHelp:
    def test_root_help_lists_groups(self, runner):
        result = ok(runner.invoke(main, ["--help"]))
        for group in ("fixture", "inventory", "profile", "audit", "sdt", "bench", "manager"):
            assert group in result.output
