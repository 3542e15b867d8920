"""Where the traced run wraps the program, and the per-layer metrics it
derives from the spans.

Each entry of PER_LAYER names the end-to-end metric, and the workload, that
the layer metric is expected to move. Time and count metrics are totals per
measured round of the workload, so they add up to what a round costs.
"""

from __future__ import annotations

import json
from http.server import ThreadingHTTPServer
from typing import Any, Callable

import twinaudit.ams.service as ams_service
import twinaudit.jsonhttp as jsonhttp
import twinaudit.manager.core as manager_core
import twinaudit.report as report_module
from twinaudit.ams.store import FileDocumentStore
from twinaudit.collect.snapshot import HostSnapshot
from twinaudit.instance.representation import StoredRepresentation
from twinaudit.instance.service import InstanceService
from twinaudit.manager.adapter import DataAdapter
from twinaudit.manager.api import ManagerService
from twinaudit.manager.client import ManagerClient
from twinaudit.vulnstore import VulnerabilityStore

from spans import Patches, Tracer

SERVER_SPANS = ("manager.dispatch", "instance.dispatch", "instance.read_dispatch")


def _snapshot_read(t: Tracer, snapshot: HostSnapshot, *_: Any) -> None:
    files = snapshot.iter_files()
    t.count("collect.files_read", len(files))
    t.count("collect.bytes_read", sum(len(snapshot.read_bytes(p)) for p in files))


def _pushed(t: Tracer, result: Any, _self: Any, _endpoint: str, _token: str, _version: int,
            states: dict) -> None:
    t.count("manager.things_pushed", len(states))
    t.count("manager.revised_in_push", int(result.get("revisedThings", 0)))


def _http(t: Tracer, result: Any, _method: str, _url: str, body: Any = None, **_: Any) -> None:
    if body is not None:
        t.count("jsonhttp.request_bytes", len(json.dumps(body)))
    if result[1] is not None:
        t.count("jsonhttp.response_bytes", len(json.dumps(result[1])))


def _instance_span(_self: Any, request: Any) -> str:
    read = request.method == "GET" and request.path.startswith("/things")
    return "instance.read_dispatch" if read else "instance.dispatch"


def _count_calls(t: Tracer, name: str) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        def counting(*args: Any, **kwargs: Any) -> Any:
            t.count(name)
            return fn(*args, **kwargs)
        return counting
    return make


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; undo() restores the program."""
    p = Patches()

    def span(owner: Any, attr: str, name: str, **kw: Any) -> None:
        p.wrap(owner, attr, lambda fn: tracer.wrap(fn, name, **kw))

    span(HostSnapshot, "open", "collect.snapshot_open", on_result=_snapshot_read)
    span(ams_service, "scan_host", "collect.scan_host",
         on_result=lambda t, r, *a: t.count("collect.records", len(r.records)))
    span(ams_service, "build_sbom", "forge.build_sbom")
    span(ams_service, "build_graph", "forge.build_graph")
    span(ams_service, "build_cbom", "forge.build_cbom")
    span(ams_service, "enrich_with_vulnerabilities", "forge.enrich")
    span(ams_service, "link_to_profile", "forge.link")
    span(VulnerabilityStore, "findings_for", "vulnstore.findings_for")
    span(VulnerabilityStore, "load_feed", "vulnstore.load_feed")
    span(ams_service, "serialize_bom", "bom.serialize")
    span(ams_service, "parse_bom", "bom.parse.ams")
    span(manager_core, "parse_bom", "bom.parse.manager")
    span(ams_service, "diff_boms", "bom.diff")
    span(ams_service, "delta_to_dict", "bom.delta_to_dict",
         on_result=lambda t, r, *a: t.count("bom.delta_bytes", len(json.dumps(r))))
    span(manager_core, "apply_delta", "bom.apply_delta")
    span(FileDocumentStore, "put", "ams.store_put")
    span(FileDocumentStore, "get", "ams.store_get")
    span(FileDocumentStore, "query", "ams.store_query")
    span(ams_service.AuditService, "run_audit", "ams.run_audit")
    span(ams_service.AuditService, "update_audit", "ams.update_audit")
    span(ams_service.AuditService, "run_boms", "report.run_boms")
    span(report_module, "report_counts", "report.counts")
    span(report_module, "render_report", "report.render")
    span(ManagerClient, "create", "manager.client_create")
    span(ManagerClient, "update", "manager.client_update")
    span(ManagerClient, "destroy", "manager.client_destroy")
    span(ManagerService, "dispatch", "manager.dispatch", server=True)
    span(manager_core.SdtManager, "handle_create", "manager.handle_create")
    span(manager_core.SdtManager, "handle_update", "manager.handle_update")
    span(manager_core.SdtManager, "handle_destroy", "manager.destroy")
    span(DataAdapter, "process", "manager.project",
         on_result=lambda t, r, *a: t.count("manager.things_projected", len(r)))
    span(DataAdapter, "push", "manager.push", on_result=_pushed)
    span(StoredRepresentation, "build", "instance.build")
    span(StoredRepresentation, "apply_update", "instance.apply_update",
         on_result=lambda t, r, *a: t.count("instance.revised_things", r))
    span(InstanceService, "dispatch", "instance.dispatch", server=True, rename=_instance_span)
    span(jsonhttp, "http_json", "jsonhttp.client", client=True, on_result=_http)
    p.wrap(ThreadingHTTPServer, "process_request", _count_calls(tracer, "jsonhttp.connections"))
    return p


# name, unit, better, what it should move, and how it is derived from
# (layer table, counters, traced rounds, extras).
Derive = Callable[[dict, dict, int, dict], float]


def _ms(span: str) -> Derive:
    return lambda t, c, r, x: t.get(span, {}).get("total_ms", 0.0) / r


def _self_ms(span: str) -> Derive:
    return lambda t, c, r, x: t.get(span, {}).get("self_ms", 0.0) / r


def _calls(span: str) -> Derive:
    return lambda t, c, r, x: t.get(span, {}).get("count", 0) / r


def _count(name: str) -> Derive:
    return lambda t, c, r, x: c.get(name, 0) / r


def _ratio(num: Derive, den: Derive) -> Derive:
    def ratio(t: dict, c: dict, r: int, x: dict) -> float:
        base = den(t, c, r, x)
        return num(t, c, r, x) / base if base else 0.0
    return ratio


def _requests(t: dict, c: dict, r: int, x: dict) -> float:
    return sum(t.get(name, {}).get("count", 0) for name in SERVER_SPANS) / r


def _client_overhead(t: dict, c: dict, r: int, x: dict) -> float:
    server = sum(t.get(name, {}).get("total_ms", 0.0) for name in SERVER_SPANS)
    return (t.get("jsonhttp.client", {}).get("total_ms", 0.0) - server) / r


AUDIT = "audit_s_p50 on audit-estate70"
CREATE = "create_ms_p50/p95 on deploy-smb"
CHANGE = "rescan_change_ms_p50 on update-read70"
READ = "read_ms_p50/p95 on update-read70"
REPORT = "report_s_p50 on audit-estate70"

PER_LAYER: list[tuple[str, str, str, str, Derive]] = [
    ("collect.snapshot_open_ms", "ms", "lower", AUDIT, _ms("collect.snapshot_open")),
    ("collect.scan_host_ms", "ms", "lower", AUDIT, _ms("collect.scan_host")),
    ("collect.files_read", "count", "lower", AUDIT, _count("collect.files_read")),
    ("collect.bytes_read", "B", "lower", AUDIT, _count("collect.bytes_read")),
    ("collect.records", "count", "lower", AUDIT, _count("collect.records")),
    ("forge.build_sbom_ms", "ms", "lower", AUDIT, _ms("forge.build_sbom")),
    ("forge.build_graph_ms", "ms", "lower", AUDIT, _ms("forge.build_graph")),
    ("forge.build_cbom_ms", "ms", "lower", AUDIT, _ms("forge.build_cbom")),
    ("forge.enrich_ms", "ms", "lower", AUDIT, _ms("forge.enrich")),
    ("forge.link_ms", "ms", "lower", AUDIT, _ms("forge.link")),
    ("vulnstore.findings_for_calls", "count", "lower", AUDIT, _calls("vulnstore.findings_for")),
    ("vulnstore.findings_for_ms", "ms", "lower", AUDIT, _ms("vulnstore.findings_for")),
    ("vulnstore.load_feed_ms", "ms", "lower", "setup_s on every workload (per setup)",
     lambda t, c, r, x: x["load_feed_ms"]),
    ("bom.serialize_calls", "count", "lower", f"{AUDIT}; rescan_* on update-read70",
     _calls("bom.serialize")),
    ("bom.serialize_ms", "ms", "lower", f"{AUDIT}; rescan_* on update-read70", _ms("bom.serialize")),
    ("bom.parse_calls.manager", "count", "lower", CREATE, _calls("bom.parse.manager")),
    ("bom.parse_ms.manager", "ms", "lower", CREATE, _ms("bom.parse.manager")),
    ("bom.parse_calls.ams", "count", "lower", f"{REPORT}; rescan_noop_ms_p50 on update-read70",
     _calls("bom.parse.ams")),
    ("bom.parse_ms.ams", "ms", "lower", f"{REPORT}; rescan_noop_ms_p50 on update-read70",
     _ms("bom.parse.ams")),
    ("bom.diff_ms", "ms", "lower", CHANGE, _ms("bom.diff")),
    ("bom.apply_delta_ms", "ms", "lower", CHANGE, _ms("bom.apply_delta")),
    ("bom.delta_bytes", "B", "lower", CHANGE, _count("bom.delta_bytes")),
    ("ams.store_puts", "count", "lower", f"{AUDIT}; {CHANGE}; {REPORT}", _calls("ams.store_put")),
    ("ams.store_put_ms", "ms", "lower", f"{AUDIT}; {CHANGE}; {REPORT}", _ms("ams.store_put")),
    ("ams.store_gets", "count", "lower", f"{AUDIT}; {CHANGE}; {REPORT}", _calls("ams.store_get")),
    ("ams.store_get_ms", "ms", "lower", f"{AUDIT}; {CHANGE}; {REPORT}", _ms("ams.store_get")),
    ("ams.run_audit_self_ms", "ms", "lower", AUDIT, _self_ms("ams.run_audit")),
    ("ams.update_audit_self_ms", "ms", "lower", "rescan_* on update-read70",
     _self_ms("ams.update_audit")),
    ("manager.client_create_ms", "ms", "lower", CREATE, _ms("manager.client_create")),
    ("manager.handle_create_ms", "ms", "lower", CREATE, _ms("manager.handle_create")),
    ("manager.client_update_ms", "ms", "lower", CHANGE, _ms("manager.client_update")),
    ("manager.handle_update_ms", "ms", "lower", CHANGE, _ms("manager.handle_update")),
    ("manager.project_ms", "ms", "lower", f"{CREATE}; {CHANGE}", _ms("manager.project")),
    ("manager.things_projected", "count", "lower", f"{CREATE}; {CHANGE}",
     _count("manager.things_projected")),
    ("manager.push_ms", "ms", "lower", CHANGE, _ms("manager.push")),
    ("manager.things_pushed", "count", "lower", CHANGE, _count("manager.things_pushed")),
    ("manager.push_useful_ratio", "ratio", "higher",
     f"{CHANGE} (base: manager.things_pushed)",
     _ratio(_count("manager.revised_in_push"), _count("manager.things_pushed"))),
    ("manager.destroy_ms", "ms", "lower", "cycles_per_s on deploy-smb", _ms("manager.destroy")),
    ("manager.registry_size", "count", "lower", "peak_rss_mb on deploy-smb (at run end)",
     lambda t, c, r, x: x["registry_size"]),
    ("instance.build_ms", "ms", "lower", CREATE, _ms("instance.build")),
    ("instance.apply_update_ms", "ms", "lower", CHANGE, _ms("instance.apply_update")),
    ("instance.revised_things", "count", "lower", CHANGE, _count("instance.revised_things")),
    ("instance.read_dispatch_ms", "ms", "lower", READ, _ms("instance.read_dispatch")),
    ("jsonhttp.requests", "count", "lower", f"{READ}; {CREATE}", _requests),
    ("jsonhttp.connections", "count", "lower", f"{READ}; {CREATE}", _count("jsonhttp.connections")),
    ("jsonhttp.requests_per_connection", "ratio", "higher", f"{READ}; {CREATE}",
     _ratio(_requests, _count("jsonhttp.connections"))),
    ("jsonhttp.request_bytes", "B", "lower", f"{READ}; {CREATE}", _count("jsonhttp.request_bytes")),
    ("jsonhttp.response_bytes", "B", "lower", f"{READ}; {CREATE}", _count("jsonhttp.response_bytes")),
    ("jsonhttp.client_overhead_ms", "ms", "lower", f"{READ}; {CREATE}", _client_overhead),
    ("report.run_boms_ms", "ms", "lower", REPORT, _ms("report.run_boms")),
    ("report.counts_ms", "ms", "lower", REPORT, _ms("report.counts")),
    ("report.render_ms", "ms", "lower", REPORT, _ms("report.render")),
    ("trace.overhead_ms", "ms", "lower", "none: traced minus untraced round wall time",
     lambda t, c, r, x: x["overhead_ms"]),
    ("trace.create_self_sum_ratio", "ratio", "higher",
     "none: program spans' self time over create wall time; outside 0.9-1.1 fails the run",
     lambda t, c, r, x: x["create_ratio"]),
    ("trace.rescan_change_self_sum_ratio", "ratio", "higher",
     "none: program spans' self time over rescan_change wall time; outside 0.9-1.1 fails the run",
     lambda t, c, r, x: x["rescan_change_ratio"]),
]


def per_layer_metrics(tracer: Tracer, rounds: int, extras: dict) -> dict:
    table = tracer.layer_table()
    return {
        name: {"value": derive(table, tracer.counters, max(rounds, 1), extras),
               "unit": unit}
        for name, unit, _better, _moves, derive in PER_LAYER
    }
