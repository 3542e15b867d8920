"""Acceptance gate: every shipped guarantee verified end to end.

Each criterion is one test; `pytest -v` emits one PASSED/FAILED line per
criterion, and each test also prints an ACCEPTANCE summary line.
"""

import csv
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from twinaudit.ams import (
    AuditService,
    FileDocumentStore,
    RunState,
    create_profile,
    ingest_inventory,
    load_profile_file,
)
from twinaudit.bench import run_benchmark
from twinaudit.bom import serialize_bom
from twinaudit.cli import main as cli_main
from twinaudit.collect import EvidenceCategory, HostSnapshot, scan_host
from twinaudit.fixtures.generator import generate
from twinaudit.forge import (
    build_cbom,
    build_graph,
    build_sbom,
    count_artifacts,
    count_summaries,
    enrich_with_vulnerabilities,
    link_to_profile,
)
from twinaudit.jsonhttp import http_json
from twinaudit.vulnstore import VulnerabilityStore

from .test_ams import Env

REPO_ROOT = Path(__file__).resolve().parents[1]

# Published per-group targets for the seven-host estate:
# (algorithms, vulnerabilities, components, certificates)
TARGET_GROUPS = {
    "Web server": (8, 24, 29, 1),
    "Microservices": (8, 12, 9, 0),
    "Management": (10, 7, 6, 0),
    "Mail": (9, 0, 4, 1),
    "User workstations": (23, 153, 75, 3),
}

_ENV = None


def setup_module(module):
    global _ENV
    _ENV = Env()


def teardown_module(module):
    if _ENV is not None:
        _ENV.stop()


@pytest.fixture(autouse=True)
def released_managers():
    """Each test's managers are released when it ends."""
    yield
    _ENV.release()


@pytest.fixture()
def env():
    return _ENV


@pytest.fixture(scope="module")
def smb(tmp_path_factory):
    return generate("smb", 0, tmp_path_factory.mktemp("acc-smb"))


@pytest.fixture(scope="module")
def minimal(tmp_path_factory):
    return generate("minimal", 0, tmp_path_factory.mktemp("acc-minimal"))


def forge_payload(manifest):
    """Scan, forge, enrich, and link the fixture estate; serialized texts."""
    store = VulnerabilityStore()
    store.load_feed(manifest["feed"])
    docs = []
    for host in sorted(manifest["snapshots"]):
        bundle = scan_host(HostSnapshot.open(manifest["snapshots"][host]))
        sbom = build_sbom(bundle.host, bundle.records)
        cbom = build_cbom(bundle.host, build_graph(bundle.records), bundle.records)
        docs.append(enrich_with_vulnerabilities(sbom, store))
        docs.append(enrich_with_vulnerabilities(cbom, store))
    linked = link_to_profile(docs, manifest["profile_id"])
    return [serialize_bom(b) for b in linked]


def announce(number, message):
    print(f"\nACCEPTANCE CRITERION {number}: PASS - {message}")


# -- 1: estate report counts ---------------------------------------------------


def test_criterion_1_estate_report_counts_exact(tmp_path):
    started = time.monotonic()
    runner = CliRunner()
    env = {"TWINAUDIT_STORE": str(tmp_path / "store")}

    result = runner.invoke(
        cli_main,
        ["fixture", "generate", "--spec", "smb", "--seed", "0", "--out", str(tmp_path / "fx")],
        env=env,
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads(result.output)

    for args in (
        ["inventory", "ingest", manifest["inventory"]],
        ["profile", "create", "-f", manifest["profile"]],
    ):
        result = runner.invoke(cli_main, args, env=env)
        assert result.exit_code == 0, result.output

    result = runner.invoke(
        cli_main,
        ["audit", "run", manifest["profile_id"], "--feed", manifest["feed"], "--json"],
        env=env,
    )
    assert result.exit_code == 0, result.output
    run = json.loads(result.output)
    assert run["state"] == "SDT_READY"

    result = runner.invoke(
        cli_main, ["audit", "report", run["run_id"], "--json"], env=env
    )
    assert result.exit_code == 0, result.output
    counts = json.loads(result.output)

    expected_groups = {
        label: {
            "algorithms": a,
            "vulnerabilities": v,
            "components": c,
            "certificates": x,
        }
        for label, (a, v, c, x) in TARGET_GROUPS.items()
    }
    assert counts["groups"] == expected_groups
    assert counts["total"] == {
        "algorithms": 58,
        "vulnerabilities": 196,
        "components": 123,
        "certificates": 5,
    }
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    announce(1, f"five group count rows exact, end to end in {elapsed:.1f}s")


# -- 2: benchmark methodology ---------------------------------------------------


def test_criterion_2_benchmark_methodology(env, smb, minimal):
    results = {}
    for name, manifest in (("minimal", minimal), ("smb", smb)):
        _, client = env.make_manager_client()
        texts = forge_payload(manifest)
        result = run_benchmark(
            client, manifest["profile_id"], texts, iterations=50, warmup=3
        )
        assert result.failures == []
        assert len(result.iterations) == 50

        points = result.cdf()
        latencies = [latency for latency, _ in points]
        fractions = [fraction for _, fraction in points]
        assert latencies == sorted(latencies)
        assert all(a < b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0

        summary = result.summary()
        assert summary["coefficient_of_variation"] < 0.25

        rows = list(csv.reader(io.StringIO(result.to_csv())))
        assert rows[0] == ["iteration", "latency_seconds"]
        values = [float(latency) for _, latency in rows[1:]]
        assert len(values) == 50
        mean = statistics.fmean(values)
        recomputed = {
            "mean": mean,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "coefficient_of_variation": statistics.pstdev(values) / mean,
        }
        for key, value in recomputed.items():
            assert abs(value - summary[key]) <= 1e-9, key
        results[name] = result

    assert results["smb"].payload_bytes > results["minimal"].payload_bytes
    announce(
        2,
        "50/50 clean iterations, monotone CDFs, CV "
        f"{results['smb'].summary()['coefficient_of_variation']:.3f} (smb), "
        "summary recomputed from CSV at 1e-9",
    )


# -- 3: footprint bound ---------------------------------------------------------


def test_criterion_3_footprint_bound(env, smb, minimal):
    _, client = env.make_manager_client()
    sizes = {}
    for name, manifest in (("minimal", minimal), ("smb", smb)):
        created = client.create(manifest["profile_id"], forge_payload(manifest))
        sizes[name] = client.footprint(created["sdtId"])
        client.destroy(created["sdtId"])
    assert sizes["smb"] <= 10 * 1024 * 1024
    assert sizes["smb"] > sizes["minimal"]
    announce(
        3,
        f"estate footprint {sizes['smb']} bytes <= 10 MiB and larger than "
        f"single host ({sizes['minimal']} bytes)",
    )


# -- 4: interaction order -------------------------------------------------------


def _subsequence(expected, observed):
    position = 0
    for stage in observed:
        if position < len(expected) and stage == expected[position]:
            position += 1
    return position == len(expected)


def test_criterion_4_lifecycle_interaction_order(env, minimal):
    started = time.monotonic()
    manager, client = env.make_manager_client()
    texts = forge_payload(minimal)
    created = client.create(minimal["profile_id"], texts)
    client.update(created["sdtId"], expected_version=1, bom_texts=texts)

    create_chain = (
        "interface", "core", "lcm", "deploy",
        "data_adapter", "controller", "confirm", "respond",
    )
    update_chain = ("interface", "core", "data_adapter", "controller", "respond")
    create_span = manager.tracer.last("create")
    update_span = manager.tracer.last("update")
    assert _subsequence(create_chain, create_span.stages), create_span.stages
    assert _subsequence(update_chain, update_span.stages), update_span.stages
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    announce(4, f"create and update stage chains conform in {elapsed:.2f}s")


# -- 5: oracle equivalence ------------------------------------------------------


def _version_key(text):
    parts = []
    for part in text.strip().split("."):
        digits = ""
        for ch in part:
            if ch.isdigit():
                digits += ch
            else:
                break
        parts.append(int(digits or 0))
    return parts


def _version_in_range(version, introduced, fixed):
    v, lo, hi = (_version_key(x) for x in (version, introduced, fixed))
    width = max(len(v), len(lo), len(hi))
    v, lo, hi = (x + [0] * (width - len(x)) for x in (v, lo, hi))
    return lo <= v < hi


def _linear_scan(feed, name, version):
    name = name.strip().lower().replace("_", "-")
    hits = set()
    for advisory in feed:
        for affected in advisory["affects"]:
            if affected["name"] == name and _version_in_range(
                version, affected["introduced"], affected["fixed"]
            ):
                hits.add(advisory["cve"])
    return hits


def audited_counts(manifest, vulnerabilities, root):
    """Per-host tallies of the summaries an audit run stores, as
    `audit report` reads them."""
    store = FileDocumentStore(root)
    ingest_inventory(store, manifest["inventory"])
    create_profile(store, load_profile_file(manifest["profile"]))
    _, client = _ENV.make_manager_client()
    service = AuditService(store, client, vulnerabilities=vulnerabilities)
    run = service.run_audit(manifest["profile_id"])
    try:
        assert run.state is RunState.SDT_READY, run.error
        counts, _ = count_summaries(service.run_boms(run))
    finally:
        client.destroy(run.sdt_id)
    return counts


def test_criterion_5_oracle_equivalence(smb, minimal, tmp_path):
    hosts_checked = 0
    lookups_checked = 0
    for manifest in (smb, minimal):
        feed = [
            json.loads(line)
            for line in Path(manifest["feed"]).read_text().splitlines()
            if line.strip()
        ]
        store = VulnerabilityStore()
        store.load_feed(manifest["feed"])
        stored = audited_counts(manifest, store, tmp_path / manifest["spec"])
        for host, ref in sorted(manifest["snapshots"].items()):
            bundle = scan_host(HostSnapshot.open(ref))
            sbom = enrich_with_vulnerabilities(
                build_sbom(bundle.host, bundle.records), store
            )
            cbom = enrich_with_vulnerabilities(
                build_cbom(bundle.host, build_graph(bundle.records), bundle.records),
                store,
            )
            counts, _ = count_artifacts([sbom, cbom])
            got = counts[host]

            algorithms = {
                r.name
                for r in bundle.records
                if r.category is EvidenceCategory.ALGORITHM
            }
            packages = {
                (r.name, r.version)
                for r in bundle.records
                if r.category is EvidenceCategory.SOFTWARE_COMPONENT
            }
            certificates = [
                r
                for r in bundle.records
                if r.category is EvidenceCategory.CERTIFICATE
            ]
            cves = set()
            for name, version in packages:
                cves |= _linear_scan(feed, name, version)

            recounted = (len(algorithms), len(cves), len(packages), len(certificates))
            produced = (
                got.algorithms,
                got.vulnerabilities,
                got.components,
                got.certificates,
            )
            assert produced == recounted, host
            summarized = stored[host]
            assert (
                summarized.algorithms,
                summarized.vulnerabilities,
                summarized.components,
                summarized.certificates,
            ) == recounted, host
            hosts_checked += 1

            for name, version in sorted(packages):
                store_hits = {a.cve_id for a in store.findings_for(name, version)}
                assert store_hits == _linear_scan(feed, name, version), (name, version)
                lookups_checked += 1

    announce(
        5,
        f"counts and stored summaries match brute-force recounts on {hosts_checked} hosts; "
        f"{lookups_checked} advisory lookups equal a linear feed scan",
    )


# -- 6: generated-case property suites ------------------------------------------


def test_criterion_6_property_suites_breadth_and_budget():
    import tests.test_bom_diff
    import tests.test_bom_serialize
    import tests.test_forge
    import tests.test_instance
    import tests.test_manager

    required = {
        "serialization round trip": (
            tests.test_bom_serialize.TestSerialize.test_round_trip_identity
        ),
        "diff/apply patch identity": (
            tests.test_bom_diff.TestDiffApply.test_patch_identity
        ),
        "graph order independence + acyclicity": (
            tests.test_forge.TestGraphProperties.test_insertion_order_independent_and_acyclic
        ),
        "enrichment idempotence": (
            tests.test_forge.TestEnrichmentProperties.test_enrichment_idempotent
        ),
        "lifecycle safety under failure injection": (
            tests.test_manager.TestLifecycleProperties.test_no_orphans_and_gapfree_versions
        ),
        "history immutability": (
            tests.test_instance.TestStoredRepresentation.test_history_immutability_property
        ),
    }
    for label, fn in required.items():
        settings = fn._hypothesis_internal_use_settings
        assert settings.max_examples >= 100, label

    started = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/test_bom_serialize.py", "tests/test_bom_diff.py",
            "tests/test_forge.py", "tests/test_manager.py", "tests/test_instance.py",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-500:]
    assert elapsed < 300.0
    announce(
        6,
        f"{len(required)} property suites at >=100 cases pass in {elapsed:.1f}s",
    )


# -- 7: HTTP contract ------------------------------------------------------------


def test_criterion_7_http_contract(env, minimal):
    _, client = env.make_manager_client()
    url = client.base_url
    texts = forge_payload(minimal)
    body = {
        "profileId": minimal["profile_id"],
        "boms": texts,
        "options": {"tokens": {"reader": ["READ"]}},
    }

    status, created = http_json("POST", f"{url}/sdts", body=body)
    assert status == 201
    assert {
        "sdtId", "state", "profileId", "createdAt",
        "updatedAt", "endpoint", "representationVersion",
    } <= set(created)
    assert created["state"] == "READY"
    assert created["representationVersion"] == 1
    sdt_id, endpoint = created["sdtId"], created["endpoint"]

    status, listing = http_json("GET", f"{url}/sdts")
    assert status == 200
    assert any(d["sdtId"] == sdt_id for d in listing["sdts"])

    status, shown = http_json("GET", f"{url}/sdts/{sdt_id}")
    assert status == 200 and shown["sdtId"] == sdt_id
    status, missing = http_json("GET", f"{url}/sdts/no-such-sdt")
    assert status == 404 and set(missing) == {"code", "message"}

    status, stale = http_json(
        "PUT", f"{url}/sdts/{sdt_id}", body={"expectedVersion": 99, "boms": texts}
    )
    assert status == 409 and stale["code"] == "version_conflict"

    status, updated = http_json(
        "PUT", f"{url}/sdts/{sdt_id}", body={"expectedVersion": 1, "boms": texts}
    )
    assert status == 200
    assert set(updated) == {"sdtId", "representationVersion"}
    assert updated["representationVersion"] == 2

    status, footprint = http_json("GET", f"{url}/sdts/{sdt_id}/footprint")
    assert status == 200 and set(footprint) == {"sdtId", "footprintBytes"}
    status, _ = http_json("GET", f"{url}/sdts/no-such-sdt/footprint")
    assert status == 404

    # instance surface: unauthenticated health, default-deny elsewhere
    status, _ = http_json("GET", f"{endpoint}/health")
    assert status == 200
    status, denied = http_json("GET", f"{endpoint}/things")
    assert status == 401 and denied["code"] == "unauthorized"
    status, _ = http_json("GET", f"{endpoint}/things", token="intruder")
    assert status == 401
    status, forbidden = http_json("GET", f"{endpoint}/representation", token="reader")
    assert status == 403 and forbidden["code"] == "forbidden"

    status, things = http_json("GET", f"{endpoint}/things", token="reader")
    assert status == 200 and set(things) == {"things", "version"}
    thing_id = things["things"][0]

    status, state = http_json("GET", f"{endpoint}/things/{thing_id}", token="reader")
    assert status == 200 and state["id"] == thing_id
    status, _ = http_json("GET", f"{endpoint}/things/{thing_id}?rev=1", token="reader")
    assert status == 200
    status, _ = http_json(
        "GET", f"{endpoint}/things/{thing_id}?rev=banana", token="reader"
    )
    assert status == 400
    status, _ = http_json("GET", f"{endpoint}/things/ghost-thing", token="reader")
    assert status == 404
    status, history = http_json(
        "GET", f"{endpoint}/things/{thing_id}/history", token="reader"
    )
    assert status == 200 and set(history) == {"thingId", "revisions"}

    status, rejected = http_json(
        "PUT", f"{endpoint}/representation", body={}, token="reader"
    )
    assert status == 403
    status, _ = http_json("PUT", f"{endpoint}/representation", body={})
    assert status == 401

    status, _ = http_json("DELETE", f"{url}/sdts/{sdt_id}")
    assert status == 204
    status, gone = http_json("GET", f"{url}/sdts/{sdt_id}")
    assert status == 200 and gone["state"] == "DESTROYED"
    status, _ = http_json("DELETE", f"{url}/sdts/no-such-sdt")
    assert status == 404

    announce(7, "manager and instance endpoints return documented codes and shapes")
