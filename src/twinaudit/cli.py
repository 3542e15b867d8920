"""Command line interface.

Commands that need a lifecycle manager start an embedded in-process one by
default; set manager_url (config file or TWINAUDIT_MANAGER_URL) to talk to a
long-running `twinaudit manager serve` instead. Embedded twins vanish when
the command exits, so cross-invocation work (`audit update`, `sdt get`)
needs the external mode. Reports read from the document store and work in
either mode.

The program's own errors (a file it cannot use, an unknown run or profile,
a refused or unreachable manager) end a command with exit 1 and one
`Error:` line; `_Main.invoke` is the one place that turns them into that.
Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

import click

from .ams import (
    AuditRun,
    AuditService,
    FileDocumentStore,
    InvalidTransition,
    InventoryError,
    ProfileError,
    RunState,
    TwinNotFound,
    UnknownRun,
    collect_evidence,
    create_profile,
    forge_documents,
    forge_entries,
    get_profile,
    ingest_inventory,
    load_inventory,
    load_profile_file,
    selected_hosts,
    topology_from_store,
)
from .ams.profiles import PERIODIC
from .bench import BenchError, run_benchmark
from .config import AppConfig, DataFileError, load_config
from .fixtures.catalog import GROUP_ORDER, ROLE_GROUPS
from .fixtures.generator import FIXTURE_SPECS, generate
from .jsonhttp import RequestRejected, SharedJsonServer, TransportUnavailable
from .manager import InProcessRuntime, ManagerClient, ManagerService, SdtManager
from .report import render_report, report_counts
from .vulnstore import FeedError, VulnerabilityStore

MANAGER_PREFIX = "/manager"


@contextmanager
def _manager_session(config: AppConfig) -> Iterator[ManagerClient]:
    """External manager when configured, otherwise an embedded one."""
    if config.manager_url:
        yield ManagerClient(config.manager_url)
        return
    server = SharedJsonServer().start()
    try:
        manager = SdtManager(runtimes=[InProcessRuntime(server)])
        server.mount(MANAGER_PREFIX, ManagerService(manager))
        yield ManagerClient(server.url_for(MANAGER_PREFIX))
    finally:
        server.stop()


def _service(
    config: AppConfig,
    client: ManagerClient,
    feed: Optional[str] = None,
    run_id: Optional[str] = None,
) -> AuditService:
    """A service with the advisory feed --feed or the config names; else,
    for a rescan of run_id, with the feeds that run was audited with."""
    store = FileDocumentStore(config.store)
    named = feed or config.feed_path
    if named:
        feeds = (named,)
    elif run_id is not None:
        feeds = AuditService(store, client).load_run(run_id).feeds
    else:
        feeds = ()
    vulnerabilities = VulnerabilityStore()
    for path in feeds:
        vulnerabilities.load_feed(path)
    return AuditService(store, client, vulnerabilities=vulnerabilities)


def _store_service(config: AppConfig) -> AuditService:
    # Store-only operations; the client is never contacted.
    return AuditService(
        FileDocumentStore(config.store), ManagerClient("http://offline.invalid")
    )


def _echo_run(run: AuditRun, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(run.to_dict(), indent=2, sort_keys=True))
        return
    click.echo(f"run: {run.run_id}")
    click.echo(f"state: {run.state.value}")
    click.echo(f"hosts: {', '.join(run.hosts) or '-'}")
    if run.bom_serials:
        click.echo(f"documents: {len(run.bom_serials)}")
    if run.sdt_id:
        click.echo(f"sdt: {run.sdt_id} (representation v{run.representation_version})")
    if run.error:
        click.echo(f"error: {run.error}")
    for host, problem in sorted(run.host_errors.items()):
        click.echo(f"host error: {host}: {problem}")


def _finish_run(run: AuditRun, as_json: bool) -> None:
    _echo_run(run, as_json)
    if run.state is not RunState.SDT_READY:
        sys.exit(1)


def _non_empty(ctx: click.Context, param: click.Parameter, value: str) -> str:
    """Refuse an empty id where click reads it, before any store or manager
    sees it; a ClickException exits 1 with one `Error:` line."""
    if not value:
        raise click.ClickException(f"{param.human_readable_name} must not be empty")
    return value


class _Main(click.Group):
    def invoke(self, ctx: click.Context) -> Any:
        try:
            return super().invoke(ctx)
        except (
            DataFileError, InventoryError, ProfileError, FeedError, UnknownRun,
            InvalidTransition, BenchError, TransportUnavailable, RequestRejected,
        ) as err:
            raise click.ClickException(str(err)) from err
        except TwinNotFound as err:
            raise click.ClickException(
                f"{err} (set manager_url to that manager's URL)"
            ) from err


@click.group(cls=_Main)
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="settings file (YAML or JSON); env vars override it",
)
@click.pass_context
def main(ctx: click.Context, config_path: Optional[str]) -> None:
    """Audit hosts, forge security documents, and run their digital twins."""
    ctx.obj = load_config(config_path)


# -- fixture ----------------------------------------------------------------


@main.group()
def fixture() -> None:
    """Deterministic demo estates for trials and benchmarks."""


@fixture.command("generate")
@click.option("--spec", type=click.Choice(FIXTURE_SPECS), default="smb", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
def fixture_generate(spec: str, seed: int, out: str) -> None:
    """Write host snapshots, inventory, profile, and advisory feed."""
    manifest = generate(spec, seed, out)
    click.echo(json.dumps(manifest, indent=2, sort_keys=True))


# -- inventory / profile ------------------------------------------------------


@main.group()
def inventory() -> None:
    """Audited hosts and their relationships."""


@inventory.command("ingest")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def inventory_ingest(config: AppConfig, file: str) -> None:
    """Load an inventory file into the document store."""
    graph = ingest_inventory(FileDocumentStore(config.store), file)
    click.echo(
        f"ingested {len(graph.hosts)} hosts,"
        f" {len(graph.relationships)} relationships"
    )


@main.group()
def profile() -> None:
    """Audit profiles: which hosts, which evidence, which cadence."""


@profile.command("create")
@click.option(
    "-f", "--file", "path", required=True, type=click.Path(exists=True, dir_okay=False)
)
@click.pass_obj
def profile_create(config: AppConfig, path: str) -> None:
    """Register a profile; its selector must match the ingested inventory."""
    store = FileDocumentStore(config.store)
    profile = load_profile_file(path)
    try:
        created = create_profile(store, profile)
    except ProfileError as err:  # a selector entry that matches no host
        raise ProfileError(f"{path}: {err}") from err
    hosts = selected_hosts(created, topology_from_store(store))
    click.echo(f"profile {created.profile_id} selects {len(hosts)} hosts")


# -- audit --------------------------------------------------------------------


@main.group()
def audit() -> None:
    """Run audits and inspect their results."""


@audit.command("run")
@click.argument("profile_id", callback=_non_empty)
@click.option(
    "--feed",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="advisory feed (NDJSON); defaults to the configured feed",
)
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@click.pass_obj
def audit_run(
    config: AppConfig, profile_id: str, feed: Optional[str], as_json: bool
) -> None:
    """Collect evidence, forge documents, and deploy the twin."""
    with _manager_session(config) as client:
        run = _service(config, client, feed).run_audit(profile_id)
    _finish_run(run, as_json)


@audit.command("status")
@click.argument("run_id", callback=_non_empty)
@click.option("--json", "as_json", is_flag=True)
@click.pass_obj
def audit_status(config: AppConfig, run_id: str, as_json: bool) -> None:
    _echo_run(_store_service(config).load_run(run_id), as_json)


@audit.command("report")
@click.argument("run_id", callback=_non_empty)
@click.option("--json", "as_json", is_flag=True, help="counts only, as JSON")
@click.option("--top", type=int, default=10, show_default=True)
@click.pass_obj
def audit_report(config: AppConfig, run_id: str, as_json: bool, top: int) -> None:
    """Artifact counts, worst vulnerabilities, certificate expiry."""
    service = _store_service(config)
    boms = service.run_boms(service.load_run(run_id))
    roles = {h.host_id: h.role for h in topology_from_store(service.store).hosts}
    if not boms:
        raise click.ClickException(f"run {run_id} has no stored documents")
    if as_json:
        click.echo(
            json.dumps(
                report_counts(boms, roles=roles, group_labels=ROLE_GROUPS),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        click.echo(
            render_report(
                boms,
                roles=roles,
                group_labels=ROLE_GROUPS,
                group_order=GROUP_ORDER,
                top=top,
            )
        )


@audit.command("update")
@click.argument("run_id", callback=_non_empty)
@click.option("--hosts", default=None, help="comma-separated subset to rescan")
@click.option(
    "--feed",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="advisory feed (NDJSON); defaults to the configured feed, then to the run's",
)
@click.option("--json", "as_json", is_flag=True)
@click.pass_obj
def audit_update(
    config: AppConfig,
    run_id: str,
    hosts: Optional[str],
    feed: Optional[str],
    as_json: bool,
) -> None:
    """Rescan, diff, and push deltas to the deployed twin.

    Needs the manager that created the twin, so configure manager_url
    unless nothing changed on disk.
    """
    subset = [h.strip() for h in hosts.split(",") if h.strip()] if hosts is not None else None
    if subset == []:
        raise click.ClickException("--hosts names no host")
    with _manager_session(config) as client:
        run = _service(config, client, feed, run_id).update_audit(run_id, hosts=subset)
    _finish_run(run, as_json)


@audit.command("watch")
@click.argument("run_id", callback=_non_empty)
@click.option("--count", type=click.IntRange(min=1), default=None, help="stop after N rescans")
@click.pass_obj
def audit_watch(config: AppConfig, run_id: str, count: Optional[int]) -> None:
    """Rescan on the profile's PERIODIC interval, as `audit update` does.

    Runs until --count rescans are done, or until a rescan leaves the run
    other than SDT_READY, which exits 1.
    """
    with _manager_session(config) as client:
        service = _service(config, client, run_id=run_id)
        profile_id = service.load_run(run_id).profile_id
        profile = get_profile(service.store, profile_id)
        if profile is None or profile.sync_policy.kind != PERIODIC:
            raise click.ClickException(f"profile {profile_id} has no PERIODIC sync policy")
        interval = profile.sync_policy.interval_seconds
        last_sync, done = time.time(), 0
        while count is None or done < count:
            time.sleep(max(0.0, last_sync + interval - time.time()))
            last_sync = time.time()
            _finish_run(service.update_audit(run_id), as_json=False)
            done += 1


# -- sdt ----------------------------------------------------------------------


@main.group()
def sdt() -> None:
    """Inspect deployed twins (external manager mode)."""


@sdt.command("list")
@click.pass_obj
def sdt_list(config: AppConfig) -> None:
    with _manager_session(config) as client:
        descriptors = client.list()
    if not descriptors:
        click.echo("no deployed twins")
    for item in descriptors:
        click.echo(
            f"{item.get('sdtId')}  {item.get('state')}"
            f"  v{item.get('representationVersion')}  {item.get('profileId', '')}"
        )


@sdt.command("get")
@click.argument("sdt_id", callback=_non_empty)
@click.pass_obj
def sdt_get(config: AppConfig, sdt_id: str) -> None:
    with _manager_session(config) as client:
        click.echo(json.dumps(client.get(sdt_id), indent=2, sort_keys=True))


@sdt.command("destroy")
@click.argument("sdt_id", callback=_non_empty)
@click.pass_obj
def sdt_destroy(config: AppConfig, sdt_id: str) -> None:
    with _manager_session(config) as client:
        client.destroy(sdt_id)
    click.echo(f"destroyed {sdt_id}")


@sdt.command("footprint")
@click.argument("sdt_id", callback=_non_empty)
@click.pass_obj
def sdt_footprint(config: AppConfig, sdt_id: str) -> None:
    with _manager_session(config) as client:
        click.echo(f"{client.footprint(sdt_id)} bytes")


# -- bench --------------------------------------------------------------------


@main.group()
def bench() -> None:
    """Measure twin deployment against a live manager."""


@bench.command("deploy")
@click.option(
    "--fixture",
    "fixture_spec",
    type=click.Choice(FIXTURE_SPECS),
    default="smb",
    show_default=True,
)
@click.option("--iterations", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--out",
    type=click.Path(dir_okay=False),
    default=None,
    help="write per-iteration latencies as CSV",
)
@click.option(
    "--include-collection",
    is_flag=True,
    help="rebuild documents from evidence inside the timed window",
)
@click.pass_obj
def bench_deploy(
    config: AppConfig,
    fixture_spec: str,
    iterations: int,
    seed: int,
    out: Optional[str],
    include_collection: bool,
) -> None:
    """Timed create/destroy cycles over a generated fixture estate.

    The documents are collected and forged as `audit run` forges them.
    """
    import tempfile

    with tempfile.TemporaryDirectory(prefix="twinaudit-bench-") as tmp:
        manifest = generate(fixture_spec, seed, tmp)
        topology = load_inventory(manifest["inventory"])
        audit_profile = load_profile_file(manifest["profile"])
        vulnerabilities = VulnerabilityStore()
        vulnerabilities.load_feed(manifest["feed"])
        hosts = [topology.host(h) for h in selected_hosts(audit_profile, topology)]

        def build() -> list[str]:
            bundles, errors = collect_evidence(hosts)
            if errors:
                raise click.ClickException(f"collection failed: {errors}")
            entries = {
                h: forge_entries(b, audit_profile.categories, vulnerabilities)
                for h, b in bundles.items()
            }
            return [d.text for d in forge_documents(entries, audit_profile.profile_id)]

        texts = build()
        with _manager_session(config) as client:
            result = run_benchmark(
                client,
                audit_profile.profile_id,
                texts,
                iterations=iterations,
                build_payload=build if include_collection else None,
            )

    summary = result.summary()
    click.echo(f"fixture: {fixture_spec} ({len(texts)} documents)")
    click.echo(f"iterations: {len(result.iterations)} ok, {len(result.failures)} failed")
    click.echo(f"payload: {result.payload_bytes} bytes")
    click.echo(f"footprint: {result.footprint_bytes} bytes")
    for key in ("mean", "median", "min", "max", "coefficient_of_variation"):
        click.echo(f"{key}: {summary[key]:.6f}")
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(result.to_csv())
        click.echo(f"wrote {out}")


# -- manager ------------------------------------------------------------------


@main.group("manager")
def manager_group() -> None:
    """Long-running lifecycle manager for cross-invocation work."""


@manager_group.command("serve")
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", type=int, default=8470, show_default=True)
def manager_serve(host: str, port: int) -> None:
    """Serve the manager API; twin instances share the same address."""
    server = SharedJsonServer(host, port).start()
    manager = SdtManager(runtimes=[InProcessRuntime(server)])
    url = server.mount(MANAGER_PREFIX, ManagerService(manager))
    click.echo(f"manager at {url} (set manager_url or TWINAUDIT_MANAGER_URL)")
    click.echo("press Ctrl+C to stop")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


if __name__ == "__main__":
    main()
