"""The traced benchmark run (perfbench/layers.py) wraps program entry points
by the names their callers look up. A refactor that drops or bypasses one
of those names fails here instead of silently emptying a layer of the
traced run. So does one that breaks the traced run's own checks: every
server span opened inside a client request, and program spans whose self
times sum to the operation's wall time."""

from pathlib import Path

from twinaudit.ams import AuditService, FileDocumentStore, RunState, load_profile_file
from twinaudit.fixtures.generator import generate
from twinaudit.jsonhttp import SharedJsonServer
from twinaudit.manager import InProcessRuntime, ManagerClient, ManagerService, SdtManager
from twinaudit.vulnstore import VulnerabilityStore

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

AUDIT_SPANS = {
    "collect.scan_host",
    "forge.build_sbom",
    "forge.link",
    "bom.serialize",
    "manager.project",
    "manager.push",
}
# A rescan builds the manifest itself and sends deltas.
RESCAN_SPANS = AUDIT_SPANS - {"forge.link"} | {"bom.diff"}


def test_traced_audit_and_rescan_record_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    fx = generate("minimal", 1, tmp_path / "fx")
    requirements = Path(fx["snapshots"]["solo-01"]) / "opt" / "app" / "requirements.txt"
    server = SharedJsonServer().start()
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        manager = SdtManager(runtimes=[InProcessRuntime(server)])
        client = ManagerClient(server.mount("/manager", ManagerService(manager)))
        vulnerabilities = VulnerabilityStore()
        vulnerabilities.load_feed(fx["feed"])
        service = AuditService(
            FileDocumentStore(tmp_path / "store"), client, vulnerabilities=vulnerabilities
        )
        service.ingest_inventory(fx["inventory"])
        service.create_profile(load_profile_file(fx["profile"]))

        run = service.run_audit(fx["profile_id"])
        assert run.state is RunState.SDT_READY, run.error
        audit_spans = set(tracer.layer_table())
        tracer.reset()
        with requirements.open("a", encoding="utf-8") as handle:
            handle.write("hookcheck==1.0.0\n")
        run = service.update_audit(run.run_id)
        assert run.state is RunState.SDT_READY, run.error
        assert run.representation_version == 2
        rescan_spans = set(tracer.layer_table())
    finally:
        patches.undo()
        server.stop()

    # Each operation on its own, so that bypassing a name on one path fails.
    assert AUDIT_SPANS - audit_spans == set()
    assert RESCAN_SPANS - rescan_spans == set()


def test_traced_operations_pass_the_traced_run_checks(tmp_path, monkeypatch):
    """A few smb creates, a no-op and a changed rescan, each in its own
    operation as perfbench/workloads.py runs them: no orphan server span,
    and every operation's program spans' self times sum to 0.9-1.1 of its
    wall time, the bounds outside which the traced run counts a failure."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    fx = generate("smb", 5, tmp_path / "fx")
    server = SharedJsonServer().start()
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        manager = SdtManager(runtimes=[InProcessRuntime(server)])
        client = ManagerClient(server.mount("/manager", ManagerService(manager)))
        vulnerabilities = VulnerabilityStore()
        vulnerabilities.load_feed(fx["feed"])
        store = FileDocumentStore(tmp_path / "store")
        service = AuditService(store, client, vulnerabilities=vulnerabilities)
        service.ingest_inventory(fx["inventory"])
        service.create_profile(load_profile_file(fx["profile"]))
        run = service.run_audit(fx["profile_id"])
        assert run.state is RunState.SDT_READY, run.error
        log = store.get_log("run_documents", run.run_id)
        payload = store.read_texts(log, range(len(log.entries)))

        for _ in range(3):
            with tracer.op("create"):
                sdt_id = client.create(fx["profile_id"], payload)["sdtId"]
            client.destroy(sdt_id)
        with tracer.op("rescan_noop"):
            noop = service.update_audit(run.run_id, hosts=["web-01"])
        requirements = Path(fx["snapshots"]["web-01"]) / "srv" / "www" / "api" / "requirements.txt"
        with requirements.open("a", encoding="utf-8") as handle:
            handle.write("hookcheck==1.0.0\n")
        with tracer.op("rescan_change"):
            changed = service.update_audit(run.run_id, hosts=["web-01"])
    finally:
        patches.undo()
        server.stop()

    assert (noop.state, noop.representation_version) == (RunState.SDT_READY, 1)
    assert (changed.state, changed.representation_version) == (RunState.SDT_READY, 2)
    assert tracer.orphans == 0
    for op, count in (("create", 3), ("rescan_noop", 1), ("rescan_change", 1)):
        ratios = tracer.blocking_path_ratios(op)
        assert len(ratios) == count
        assert all(0.9 <= r <= 1.1 for r in ratios), (op, ratios)
