"""The benchmark's workloads: one closed loop, one client, one request in
flight, calling the library the way the `twinaudit` CLI does.

Every workload reports every end-to-end metric, so each round of every
workload runs all three user operations, in a mix that sets which layers
dominate:

- create: create/destroy cycles of the pre-forged 7-host `smb` payload
  (15 documents) on one long-lived manager;
- audit: `run_audit` of the workload's estate, then `audit report` (load the
  run's documents, `report_counts` + `render_report`), then destroy;
- update: on one standing twin of the estate, a rescan of an unchanged host,
  a rescan of a host whose pin was toggled, then reads of every thing, one
  `?rev=N` and one `/history`, then a report of the standing run.
"""

from __future__ import annotations

import random
import resource
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import twinaudit.jsonhttp as jsonhttp
import twinaudit.report as report_module
from twinaudit.ams import AuditService, FileDocumentStore, RunState, load_profile_file
from twinaudit.ams import topology_from_store
from twinaudit.bom import serialize_bom
from twinaudit.collect import HostSnapshot, scan_host
from twinaudit.fixtures.catalog import GROUP_ORDER, ROLE_GROUPS
from twinaudit.forge import (
    build_cbom,
    build_graph,
    build_sbom,
    enrich_with_vulnerabilities,
    link_to_profile,
)
from twinaudit.jsonhttp import SharedJsonServer
from twinaudit.manager import InProcessRuntime, ManagerClient, ManagerService, SdtManager
from twinaudit.vulnstore import VulnerabilityStore

from estate import PinToggle, build_estate, expected_groups
from hostspeed import IO_MIN, HostSpeed, Stopwatch
from spans import Tracer, clock

MANAGER_PREFIX = "/manager"
READ_TOKEN = "perfbench-reader"
MIN_ROUNDS = 4


@dataclass(frozen=True)
class Mix:
    copies: int  # estate size, in copies of the 7-host smb estate
    creates: int  # create/destroy cycles per round
    audits: int  # audit + report + destroy cycles per round
    updates: int  # update rounds per round: rescans, then reads and a report
    rescans: int  # noop + changed rescan pairs per update round
    setups: int  # set-up is repeated this often and its median reported
    # Rounds per second of --seconds, calibrated on 2 CPUs at the commit that
    # added the benchmark. It fixes the work of a run, so the parent and a
    # change do the same work and registry growth is compared like for like.
    rate: float


# Why each workload exists is recorded in BENCHMARK.json; every run prints
# the share of measured time each operation took, which backs that claim.
WORKLOADS = {
    "deploy-smb": Mix(copies=1, creates=20, audits=1, updates=1, rescans=1, setups=5, rate=0.86),
    "audit-estate70": Mix(copies=10, creates=30, audits=2, updates=1, rescans=2, setups=3, rate=0.17),
    "update-read70": Mix(copies=10, creates=32, audits=1, updates=3, rescans=1, setups=3, rate=0.16),
}
# A run still going at this many times --seconds starts no further round
# (once MIN_ROUNDS are done), so that a slow host cannot push a run past its
# time limit.
TIME_CAP = 1.25


class Env:
    """One complete set-up: estate on disk, store, feed, embedded manager,
    warm-up, and the standing twin that rescans keep current."""

    def __init__(self, root: Path, seed: int, mix: Mix) -> None:
        self.copies = mix.copies
        self.estate = build_estate(seed, mix.copies, root / "estate")
        self.server = SharedJsonServer().start()
        self.manager = SdtManager(runtimes=[InProcessRuntime(self.server)])
        self.server.mount(MANAGER_PREFIX, ManagerService(self.manager))
        self.client = ManagerClient(self.server.url_for(MANAGER_PREFIX))
        vulnerabilities = VulnerabilityStore()
        vulnerabilities.load_feed(self.estate["feed"])
        # Runs of one profile share document serials, so a later audit would
        # overwrite the stored documents of the standing twin's run. The
        # standing twin therefore keeps its own store, as a second estate would.
        self.service, self.audits = (
            AuditService(
                FileDocumentStore(root / store),
                self.client,
                vulnerabilities=vulnerabilities,
                sdt_options={"tokens": {READ_TOKEN: ["READ"]}},
            )
            for store in ("store-standing", "store-audits")
        )
        profile = load_profile_file(self.estate["profile"])
        for service in (self.service, self.audits):
            service.ingest_inventory(self.estate["inventory"])
            service.create_profile(profile)
        self.profile_id = profile.profile_id
        self.payload = _forge_smb(self.estate["base"], vulnerabilities)

        # Warm-up, and the standing twin (the first audit).
        descriptor = self.client.create(self.profile_id, self.payload)
        self.client.destroy(descriptor["sdtId"])
        self.run = self.service.run_audit(self.profile_id)
        if self.run.state is not RunState.SDT_READY:
            raise RuntimeError(f"first audit ended {self.run.state.value}: {self.run.error}")
        self.endpoint = self.manager.get_descriptor(self.run.sdt_id)["endpoint"]
        status, listing = jsonhttp.http_json("GET", self.endpoint + "/things", token=READ_TOKEN)
        if status != 200:
            raise RuntimeError(f"thing listing failed with status {status}")
        self.things: list[str] = listing["things"]
        self.toggle = PinToggle(self.estate, mix.copies, seed)
        self.changes = 0

    def warm_up_rescans(self) -> None:
        """One no-op and one changed rescan: the first rescans of a process
        are slower than the rest."""
        for bump in (0, 1):
            if bump:
                self.toggle.flip()
                self.changes += 1
            before = self.run.representation_version
            self.run = self.service.update_audit(self.run.run_id, hosts=[self.toggle.host])
            if self.run.state is not RunState.SDT_READY or self.run.representation_version != before + bump:
                raise RuntimeError(f"warm-up rescan ended {self.run.state.value} "
                                   f"v{self.run.representation_version}: {self.run.error}")

    def close(self) -> None:
        """Destroys the standing twin and stops the manager."""
        try:
            self.client.destroy(self.run.sdt_id)
        finally:
            self.server.stop()


def _forge_smb(base: dict, vulnerabilities: VulnerabilityStore) -> list[str]:
    """The 7-host payload exactly as `twinaudit bench deploy` forges it."""
    docs = []
    for host in sorted(base["snapshots"]):
        bundle = scan_host(HostSnapshot.open(base["snapshots"][host]))
        sbom = build_sbom(bundle.host, bundle.records)
        cbom = build_cbom(bundle.host, build_graph(bundle.records), bundle.records)
        docs.append(enrich_with_vulnerabilities(sbom, vulnerabilities))
        docs.append(enrich_with_vulnerabilities(cbom, vulnerabilities))
    return [serialize_bom(b) for b in link_to_profile(docs, base["profile_id"])]


Timed = list[tuple[float, float, float, float]]  # Stopwatch.stop() of each successful operation


@dataclass
class Samples:
    create_s: Timed = field(default_factory=list)
    cycle_s: Timed = field(default_factory=list)
    audit_s: Timed = field(default_factory=list)
    report_s: Timed = field(default_factory=list)
    noop_s: Timed = field(default_factory=list)
    change_s: Timed = field(default_factory=list)
    read_s: Timed = field(default_factory=list)
    round_s: list[tuple[bool, float]] = field(default_factory=list)
    op_s: dict[str, float] = field(default_factory=dict)  # wall time per operation
    footprint: Optional[int] = None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


class Runner:
    def __init__(self, env: Env, rng: random.Random, samples: Samples, speed: HostSpeed) -> None:
        self.env, self.rng, self.s, self.speed = env, rng, samples, speed
        self.tracer: Optional[Tracer] = None

    def _op(self, name: str):
        return self.tracer.op(name) if self.tracer is not None else nullcontext()

    def _attempt(self, label: str, action: Callable[[], Any], kind: str = "") -> Any:
        """Runs one operation; an exception or a wrong answer is a failure.
        Its wall time, checks included, is added to op_s[kind or label].
        A write probe may run first, outside every time."""
        self.speed.write_tick()
        self.s.attempted += 1
        started = clock()
        try:
            return action()
        except Exception as err:  # counted, reported, and the loop goes on
            self.s.failures.append(f"{label}: {type(err).__name__}: {err}")
            return None
        finally:
            kind = kind or label
            self.s.op_s[kind] = self.s.op_s.get(kind, 0.0) + clock() - started

    @staticmethod
    def _check(ok: bool, message: str) -> None:
        if not ok:
            raise AssertionError(message)

    def create_cycle(self) -> None:
        env = self.env

        def create() -> str:
            with self._op("create"):
                watch = Stopwatch(self.speed)
                descriptor = env.client.create(env.profile_id, env.payload)
                timed = watch.stop()
            self._check(descriptor["state"] == "READY" and descriptor["representationVersion"] == 1,
                        f"create answered {descriptor['state']} v{descriptor['representationVersion']}")
            self.s.create_s.append(timed)
            return descriptor["sdtId"]

        sdt_id = self._attempt("create", create)
        if sdt_id is None:
            return
        if self.s.footprint is None:
            self.s.footprint = env.client.footprint(sdt_id)

        def destroy() -> None:
            with self._op("destroy"):
                watch = Stopwatch(self.speed)
                env.client.destroy(sdt_id)
                _, end, destroy_s, destroy_cpu = watch.stop()
                start, _, create_s, create_cpu = self.s.create_s[-1]
                self.s.cycle_s.append((start, end, create_s + destroy_s, create_cpu + destroy_cpu))

        self._attempt("destroy", destroy)

    def audit_cycle(self) -> None:
        env = self.env

        def audit():
            with self._op("audit"):
                watch = Stopwatch(self.speed)
                run = env.audits.run_audit(env.profile_id)
                timed = watch.stop()
            self._check(run.state is RunState.SDT_READY, f"audit ended {run.state.value}: {run.error}")
            self._check(len(run.bom_serials) == 14 * env.copies + 1,
                        f"audit stored {len(run.bom_serials)} documents")
            self.s.audit_s.append(timed)
            return run

        run = self._attempt("audit", audit)
        if run is None:
            return

        self.report(env.audits, run.run_id, "audit report")

        def destroy() -> None:
            with self._op("destroy"):
                env.client.destroy(run.sdt_id)

        self._attempt("destroy", destroy)

    def report(self, service: AuditService, run_id: str, kind: str) -> None:
        """`audit report`: load the run's documents, count and render."""
        env = self.env

        def report() -> None:
            with self._op("report"):
                watch = Stopwatch(self.speed)
                boms = service.run_boms(service.load_run(run_id))
                roles = {h.host_id: h.role for h in topology_from_store(service.store).hosts}
                counts = report_module.report_counts(boms, roles=roles, group_labels=ROLE_GROUPS)
                text = report_module.render_report(
                    boms, roles=roles, group_labels=ROLE_GROUPS, group_order=GROUP_ORDER, top=10
                )
                timed = watch.stop()
            self._check(counts.get("groups") == expected_groups(env.copies),
                        f"report groups {counts.get('groups')}")
            self._check(text.startswith("# Audit report"), "report text has no title")
            self.s.report_s.append(timed)

        self._attempt("report", report, kind)

    def _rescan(self, label: str, bump: int) -> None:
        env = self.env
        before = env.run.representation_version

        def rescan() -> None:
            with self._op(label):
                watch = Stopwatch(self.speed)
                run = env.service.update_audit(env.run.run_id, hosts=[env.toggle.host])
                timed = watch.stop()
            self._check(run.state is RunState.SDT_READY, f"{label} ended {run.state.value}: {run.error}")
            self._check(run.representation_version == before + bump,
                        f"{label} moved v{before} to v{run.representation_version}")
            env.run = run
            (self.s.change_s if bump else self.s.noop_s).append(timed)

        self._attempt(label, rescan)

    def _read(self, path: str, check: Callable[[Any], None]) -> None:
        def read() -> None:
            with self._op("read"):
                watch = Stopwatch(self.speed)
                status, body = jsonhttp.http_json("GET", self.env.endpoint + path, token=READ_TOKEN)
                timed = watch.stop()
            self._check(status == 200, f"GET {path} answered {status}")
            check(body)
            self.s.read_s.append(timed)

        self._attempt(f"read {path}", read, "read")

    def _pin_of(self, state: dict) -> Optional[str]:
        for entry in state.get("properties", {}).get("software", []):
            if entry.get("name") == self.env.toggle.package:
                return entry.get("version")
        return None

    def update_round(self, rescans: int) -> None:
        env = self.env
        for _ in range(rescans):
            self._rescan("rescan_noop", 0)
            env.toggle.flip()
            env.changes += 1
            self._rescan("rescan_change", 1)

        toggled = env.toggle.host
        for thing in env.things:
            def check(state: Any, thing: str = thing) -> None:
                self._check(state.get("id") == thing, f"read {thing} returned {state.get('id')}")
                if thing == toggled:
                    self._check(self._pin_of(state) == env.toggle.current,
                                f"{thing} shows {self._pin_of(state)}, not {env.toggle.current}")
            self._read(f"/things/{thing}", check)

        # Revision 1 is the first audit; every change adds one and flips the pin.
        revision = self.rng.randrange(1, env.changes + 2)
        expected = env.toggle.original if revision % 2 else env.toggle.flipped

        def check_rev(state: Any) -> None:
            self._check(self._pin_of(state) == expected,
                        f"rev {revision} shows {self._pin_of(state)}, not {expected}")

        self._read(f"/things/{toggled}?rev={revision}", check_rev)

        def check_history(body: Any) -> None:
            got = len(body.get("revisions", []))
            self._check(got == env.changes + 1, f"history has {got} revisions after {env.changes} changes")

        self._read(f"/things/{toggled}/history", check_history)
        self.report(env.service, env.run.run_id, "standing report")

    def round(self, mix: Mix) -> None:
        for _ in range(mix.creates):
            self.create_cycle()
        for _ in range(mix.audits):
            self.audit_cycle()
        for _ in range(mix.updates):
            self.update_round(mix.rescans)


def _p(values: list[float], q: int, scale: float = 1.0) -> Optional[float]:
    """q-th percentile (inclusive method) times scale; the median when q is
    50. None when the operation has no successful sample: the metric is then
    missing from the result, never 0, and the failures are counted."""
    if len(values) < 2:
        return scale * values[0] if values else None
    return scale * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(name: str, seed: int, seconds: float, work: Path,
                 trace: bool) -> tuple[dict, Samples, dict]:
    """Returns (metrics, samples, extras). With trace, even rounds run with
    the layer wrappers installed and odd rounds without them."""
    mix = WORKLOADS[name]
    tracer = Tracer() if trace else None
    patches = None
    if tracer is not None:
        import layers  # imported only for traced runs

        patches = layers.install(tracer)

    # Untraced runs probe the host speed throughout, set-up included; traced
    # runs report no times that it would scale, and keep probes out of spans.
    speed = HostSpeed(work)
    if not trace:
        speed.start()
    try:
        return _run(mix, seed, seconds, work, tracer, patches, speed)
    finally:
        speed.stop()


def _run(mix: Mix, seed: int, seconds: float, work: Path, tracer: Optional[Tracer], patches: Any,
         speed: HostSpeed) -> tuple[dict, Samples, dict]:
    # Every set-up but the last is torn down (standing twin destroyed,
    # manager stopped, files removed) before the next one starts, so no two
    # set-ups are alive at once.
    setups: Timed = []

    def set_up(path: Path) -> Env:
        watch = Stopwatch(speed)
        env = Env(path, seed, mix)
        setups.append(watch.stop())
        if speed.running:
            speed.write_sample(IO_MIN)  # so that each set-up has probes after it
        return env

    for index in range(mix.setups - 1):
        env = set_up(work / f"setup{index}")
        env.close()
        del env
        shutil.rmtree(work / f"setup{index}", ignore_errors=True)
    env = set_up(work / "setup")
    env.warm_up_rescans()
    extras: dict[str, Any] = {"setups_s": [wall for _, _, wall, _ in setups], "setup_rss_mb": _rss_mb()}
    if tracer is not None:
        import layers

        # Set-up spans are kept out of the per-round layer totals.
        extras["load_feed_ms"] = tracer.layer_table()["vulnstore.load_feed"]["total_ms"] / mix.setups
        tracer.reset()

    samples = Samples()
    runner = Runner(env, random.Random(seed), samples, speed)
    target = max(MIN_ROUNDS, round(seconds * mix.rate))
    begun = clock()
    deadline = begun + TIME_CAP * seconds
    rounds = 0
    try:
        while rounds < target and (rounds < MIN_ROUNDS or clock() < deadline):
            traced = tracer is not None and rounds % 2 == 0
            if traced and patches is None:
                patches = layers.install(tracer)
            elif not traced and patches is not None:
                patches.undo()
                patches = None
            runner.tracer = tracer if traced else None
            started = clock()
            runner.round(mix)
            samples.round_s.append((traced, clock() - started))
            rounds += 1
    finally:
        if patches is not None:
            patches.undo()
        runner.tracer = None
        extras["rounds"] = rounds
        extras["measured_s"] = clock() - begun
        extras["registry_size"] = len(env.manager.list_descriptors())
        extras["shares"] = {op: spent / extras["measured_s"] for op, spent in samples.op_s.items()}
        rss = _rss_mb()
        runner._attempt("destroy standing twin", lambda: env.client.destroy(env.run.sdt_id))
        mounts = env.server.mounts()
        if mounts != [MANAGER_PREFIX]:
            samples.failures.append(f"mounts left after the run: {mounts}")
        env.server.stop()

    def timings(scale: Callable[[Timed], list[float]]) -> dict:
        cycles = scale(samples.cycle_s)
        return {
            "setup_s": (statistics.median(scale(setups)), "s"),
            "create_ms_p50": (_p(scale(samples.create_s), 50, 1000), "ms"),
            "create_ms_p95": (_p(scale(samples.create_s), 95, 1000), "ms"),
            "cycles_per_s": (len(cycles) / sum(cycles) if cycles else None, "1/s"),
            "audit_s_p50": (_p(scale(samples.audit_s), 50), "s"),
            "report_s_p50": (_p(scale(samples.report_s), 50), "s"),
            "rescan_noop_ms_p50": (_p(scale(samples.noop_s), 50, 1000), "ms"),
            "rescan_change_ms_p50": (_p(scale(samples.change_s), 50, 1000), "ms"),
            "read_ms_p50": (_p(scale(samples.read_s), 50, 1000), "ms"),
            "read_ms_p95": (_p(scale(samples.read_s), 95, 1000), "ms"),
        }

    # Every time is reported at the reference host speed (see hostspeed.py);
    # the raw times are kept for the printout.
    walls = timings(lambda timed: [wall for _, _, wall, _ in timed])
    metrics = {
        **(timings(speed.scale) if speed.probes else walls),
        "twin_footprint_bytes": (samples.footprint, "B"),
        # The process peak, read at the end of the measured rounds.
        "peak_rss_mb": (rss, "MiB"),
    }
    extras["raw"] = walls
    extras["host_probe_ms"] = speed.median_probe_ms() if speed.probes else None
    extras["write_probe_ms"] = 1000 * statistics.median(speed.io_probes) if speed.io_probes else None
    extras["probes"] = list(zip(speed.times, speed.probes))
    extras["write_probes"] = list(zip(speed.io_times, speed.io_probes))
    if tracer is not None:
        traced_rounds = [s for t, s in samples.round_s if t]
        plain_rounds = [s for t, s in samples.round_s if not t]
        extras["traced_rounds"] = len(traced_rounds)
        extras["overhead_ms"] = 1000 * (statistics.median(traced_rounds) - statistics.median(plain_rounds))
        for op in ("create", "rescan_change"):
            ratios = tracer.blocking_path_ratios(op)
            extras[f"{op}_ratio"] = statistics.median(ratios)
            outside = [r for r in ratios if not 0.9 <= r <= 1.1]
            if outside:
                samples.failures.append(f"trace: {len(outside)} of {len(ratios)} {op} spans have "
                                        f"self times summing to {min(outside):.3f}-{max(outside):.3f} "
                                        "of their wall time, outside 0.9-1.1")
        if tracer.orphans:
            samples.failures.append(f"trace: {tracer.orphans} server spans opened with no client "
                                    "request in flight")
        extras["tracer"] = tracer
    return metrics, samples, extras
