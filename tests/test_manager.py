"""Lifecycle manager: HTTP contract, trace conformance, failure injection."""

import gc
import json
import re
import sys
import threading
import time
from dataclasses import replace

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from twinaudit import jsonhttp
from twinaudit.bom import Bom, delta_to_dict, diff_boms, parse_bom, serialize_bom
from twinaudit.forge import document_serial, link_to_profile
from twinaudit.instance.policy import DECISION_LOG_SIZE
from twinaudit.instance.representation import StoredRepresentation
from twinaudit.jsonhttp import (
    HttpError,
    JsonText,
    RequestRejected,
    SharedJsonServer,
    TransportUnavailable,
    http_json,
)
from twinaudit.manager import core as manager_core
from twinaudit.manager.core import text_digest
from twinaudit.manager.adapter import DataAdapter
from twinaudit.manager import (
    CREATE_STAGES,
    HeldText,
    ID_PATTERN,
    InProcessRuntime,
    ManagerClient,
    ManagerService,
    SdtManager,
    UPDATE_STAGES,
    is_subsequence,
)

from .test_instance import host_boms, linked_set
from .thing_oracle import canonical, thing_states_from_boms


class SabotageRuntime:
    """Wraps a real runtime; can fail deploys or poison instance tokens."""

    def __init__(self, inner: InProcessRuntime):
        self.inner = inner
        self.fail_deploy = False
        self.poison_tokens = False
        self.deployed: set[str] = set()

    def deploy_instance(self, sdt_id: str, tokens) -> str:
        if self.fail_deploy:
            raise RuntimeError("injected deploy failure")
        if self.poison_tokens:
            tokens = {"decoy": ("READ",)}
        endpoint = self.inner.deploy_instance(sdt_id, tokens)
        self.deployed.add(endpoint)
        return endpoint

    def destroy_instance(self, endpoint: str) -> None:
        self.inner.destroy_instance(endpoint)
        self.deployed.discard(endpoint)

    def instance_service(self, endpoint: str):
        return self.inner.instance_service(endpoint)


def health_status(endpoint):
    """The instance's /health status code, or None when nothing answers."""
    try:
        return http_json("GET", endpoint + "/health", timeout=5)[0]
    except TransportUnavailable:
        return None


class Env:
    def __init__(self):
        self.server = SharedJsonServer().start()
        self.runtime = InProcessRuntime(self.server)
        self.counter = 0
        self.mounted = []  # (prefix, manager) since the last release

    def make_manager(self, sabotage=False):
        runtime = SabotageRuntime(self.runtime) if sabotage else self.runtime
        manager = SdtManager(runtimes=[runtime])
        self.counter += 1
        prefix = f"/mgr{self.counter}"
        self.server.mount(prefix, ManagerService(manager))
        self.mounted.append((prefix, manager))
        client = ManagerClient(self.server.url_for(prefix))
        return manager, client, runtime

    def release(self):
        """Destroy every twin of the managers mounted since the last
        release, and unmount them, so that nothing of a finished test stays
        reachable from the shared server."""
        while self.mounted:
            prefix, manager = self.mounted.pop()
            for descriptor in manager.list_descriptors():
                if descriptor["state"] != "DESTROYED":
                    manager.handle_destroy(descriptor["sdtId"])
            self.server.unmount(prefix)

    def stop(self):
        self.server.stop()


_PROP_ENV = None


def setup_module(module):
    global _PROP_ENV
    _PROP_ENV = Env()


def teardown_module(module):
    if _PROP_ENV is not None:
        _PROP_ENV.stop()


@pytest.fixture(autouse=True)
def released_managers():
    """Each test's managers are released when it ends."""
    yield
    _PROP_ENV.release()


@pytest.fixture(scope="module")
def env():
    return _PROP_ENV


def bom_texts(host="web-01", profile="profile-a"):
    return [serialize_bom(b) for b in linked_set(host, profile)]


def create_payload(host="web-01"):
    return {"profileId": "profile-a", "boms": bom_texts(host)}


class TestAllocateId:
    def test_format_and_uniqueness(self, env):
        manager, _, _ = env.make_manager()
        first, second = manager.allocate_id(), manager.allocate_id()
        assert first != second
        assert re.fullmatch(ID_PATTERN, first)

    def test_million_draws_no_collision(self, env):
        manager, _, _ = env.make_manager()
        seen = set()
        pattern = re.compile(ID_PATTERN)
        for _ in range(1_000_000):
            seen.add(manager.allocate_id())
        assert len(seen) == 1_000_000
        sample = sorted(seen)[::200_000]
        assert all(pattern.fullmatch(s) for s in sample)


class TestCreate:
    def test_create_reaches_ready_and_is_queryable(self, env):
        manager, client, runtime = env.make_manager()
        descriptor = client.create("profile-a", bom_texts())
        assert descriptor["state"] == "READY"
        assert descriptor["representationVersion"] == 1
        assert re.fullmatch(ID_PATTERN, descriptor["sdtId"])
        assert health_status(descriptor["endpoint"]) == 200
        # the instance serves the WoT interface with a provisioned token
        tokens = {"operator": ["READ"]}
        described = client.create("profile-a", bom_texts("db-01"), options={"tokens": tokens})
        response = requests.get(
            described["endpoint"] + "/things",
            headers={"Authorization": "Bearer operator"},
            timeout=5,
        )
        assert response.status_code == 200
        assert "db-01" in response.json()["things"]

    def test_trace_matches_create_chain(self, env):
        manager, client, _ = env.make_manager()
        started = time.perf_counter()
        client.create("profile-a", bom_texts("trace-host"))
        elapsed = time.perf_counter() - started
        span = manager.tracer.last("create")
        assert is_subsequence(CREATE_STAGES, span.stages)
        durations = span.durations()
        assert [stage for stage, _ in durations] == span.stages
        assert all(seconds >= 0 for _, seconds in durations)
        # The stages tile the span from its opening to its last mark.
        assert sum(seconds for _, seconds in durations) == pytest.approx(
            span.times[-1] - span.opened
        )
        assert span.times[-1] - span.opened <= elapsed

    def test_trace_records_exact_stage_chains(self, env):
        manager, client, _ = env.make_manager()
        created = client.create("profile-a", bom_texts("chain-host"))
        client.update(created["sdtId"], expected_version=1, bom_texts=bom_texts("chain-host"))
        assert tuple(manager.tracer.last("create").stages) == CREATE_STAGES
        assert tuple(manager.tracer.last("update").stages) == UPDATE_STAGES

    def test_unparsable_bom_rejected_before_deploy(self, env):
        manager, client, runtime = env.make_manager(sabotage=True)
        live_before = set(runtime.deployed)
        with pytest.raises(Exception) as err:
            client.create("profile-a", ["{not json"])
        assert getattr(err.value, "status", None) == 400
        assert runtime.deployed == live_before
        assert manager.list_descriptors() == []

    def test_repeated_link_is_invalid(self, env):
        """Deltas key links by their URN; a manifest that repeats a link is
        refused before anything deploys."""
        manager, client, runtime = env.make_manager(sabotage=True)
        live_before = set(runtime.deployed)
        docs = [json.loads(text) for text in bom_texts("repeated-link-host")]
        manifest = next(doc for doc in docs if "externalReferences" in doc)
        manifest["externalReferences"].append(manifest["externalReferences"][0])
        with pytest.raises(Exception) as err:
            client.create("profile-a", [json.dumps(doc) for doc in docs])
        assert (err.value.status, err.value.code) == (400, "invalid_bom")
        assert runtime.deployed == live_before
        assert manager.list_descriptors() == []

    def test_empty_token_name_rejected_before_deploy(self, env):
        manager, client, runtime = env.make_manager(sabotage=True)
        live_before = set(runtime.deployed)
        with pytest.raises(RequestRejected) as err:
            client.create("profile-a", bom_texts(), options={"tokens": {"": ["READ"]}})
        assert (err.value.status, err.value.code) == (400, "bad_request")
        assert runtime.deployed == live_before
        assert manager.list_descriptors() == []

    def test_empty_boms_rejected(self, env):
        _, client, _ = env.make_manager()
        with pytest.raises(Exception) as err:
            client.create("profile-a", [])
        assert getattr(err.value, "status", None) == 400

    def test_deploy_failure_leaves_error_descriptor_and_no_instance(self, env):
        manager, client, runtime = env.make_manager(sabotage=True)
        runtime.fail_deploy = True
        with pytest.raises(Exception) as err:
            client.create("profile-a", bom_texts())
        assert getattr(err.value, "status", None) == 502
        assert getattr(err.value, "code", None) == "deploy"
        assert runtime.deployed == set()
        (descriptor,) = manager.list_descriptors()
        assert (descriptor["state"], descriptor["error"]) == ("ERROR", "deploy")

    def test_representation_failure_tears_instance_down(self, env):
        manager, client, runtime = env.make_manager(sabotage=True)
        runtime.poison_tokens = True
        with pytest.raises(Exception) as err:
            client.create("profile-a", bom_texts())
        assert getattr(err.value, "code", None) == "representation"
        assert runtime.deployed == set()  # no orphans
        (descriptor,) = manager.list_descriptors()
        assert (descriptor["state"], descriptor["error"]) == ("ERROR", "representation")
        assert descriptor["endpoint"] is None


class TestUpdate:
    def test_empty_update_bumps_version_only(self, env):
        manager, client, runtime = env.make_manager()
        created = client.create("profile-a", bom_texts("upd-host"))
        sdt_id = created["sdtId"]
        result = client.update(sdt_id, expected_version=1)
        assert result["representationVersion"] == 2
        service = runtime.instance_service(created["endpoint"])
        rep = service.representation()
        assert rep.current_version == 2
        assert all(len(rep.history(t)) == 1 for t in rep.thing_ids())
        span = manager.tracer.last("update")
        assert is_subsequence(UPDATE_STAGES, span.stages)

    def test_stale_version_conflicts_without_change(self, env):
        manager, client, _ = env.make_manager()
        created = client.create("profile-a", bom_texts("stale-host"))
        sdt_id = created["sdtId"]
        client.update(sdt_id, expected_version=1)
        with pytest.raises(Exception) as err:
            client.update(sdt_id, expected_version=1)
        assert getattr(err.value, "status", None) == 409
        assert getattr(err.value, "code", None) == "version_conflict"
        assert client.get(sdt_id)["representationVersion"] == 2
        assert client.get(sdt_id)["state"] == "READY"

    def test_missing_version_precondition(self, env):
        _, client, _ = env.make_manager()
        created = client.create("profile-a", bom_texts("nover-host"))
        with pytest.raises(Exception) as err:
            client.update(created["sdtId"], expected_version=None)
        assert getattr(err.value, "status", None) == 400

    def test_unknown_id(self, env):
        _, client, _ = env.make_manager()
        with pytest.raises(Exception) as err:
            client.update("f" * 32, expected_version=1)
        assert getattr(err.value, "status", None) == 404

    def test_replacement_document_updates_things(self, env):
        from twinaudit.forge import build_sbom
        from .test_forge import software_record

        _, client, runtime = env.make_manager()
        created = client.create("profile-a", bom_texts("repl-host"))
        new_sbom = replace(
            build_sbom(
                "repl-host",
                [software_record("repl-host", "flask", "3.0.0", "dependency", "requirements.txt")],
            ),
            version=2,
        )
        client.update(created["sdtId"], expected_version=1, bom_texts=[serialize_bom(new_sbom)])
        service = runtime.instance_service(created["endpoint"])
        state = json.loads(service.representation().latest("repl-host"))
        versions = [e["version"] for e in state["properties"]["software"]]
        assert versions == ["3.0.0"]
        assert len(service.representation().history("repl-host")) == 2

    def test_certificate_with_naive_and_aware_validity_is_invalid(self, env):
        """Comparing a naive and an aware timestamp raised TypeError inside
        validation, which answered 500."""
        _, client, _ = env.make_manager()
        docs = [json.loads(text) for text in bom_texts("naive-cert-host")]
        certs = [
            comp["cryptoProperties"]["certificateProperties"]
            for doc in docs
            for comp in doc["components"]
            if "certificateProperties" in comp.get("cryptoProperties", {})
        ]
        assert certs
        for cert in certs:
            cert["notValidBefore"] = "2024-01-01"
            cert["notValidAfter"] = "2025-01-01T00:00:00Z"
        with pytest.raises(Exception) as err:
            client.create("profile-a", [json.dumps(doc) for doc in docs])
        assert (err.value.status, err.value.code) == (400, "invalid_bom")

    def test_malformed_cipher_suites_are_invalid(self, env):
        """A non-object cipher suite, or a non-string algorithm in one, was
        dropped without a word and the document accepted with data lost."""
        _, client, _ = env.make_manager()
        docs = [json.loads(text) for text in bom_texts("cipher-suite-host")]

        def create(suites):
            protocol = {
                "bom-ref": "protocol:tls", "type": "cryptographic-asset", "name": "tls",
                "cryptoProperties": {"assetType": "protocol", "protocolProperties": {
                    "version": "1.3", "cipherSuites": suites}},
            }
            texts = [json.dumps(doc) for doc in docs[:-1]]
            last = {**docs[-1], "components": [*docs[-1]["components"], protocol]}
            return client.create("profile-a", [*texts, json.dumps(last)])

        client.destroy(create([{"algorithms": ["TLS_AES_128_GCM_SHA256"]}])["sdtId"])
        for suites in ([5], [{"algorithms": [7, "TLS_AES_128_GCM_SHA256"]}]):
            with pytest.raises(Exception) as err:
                create(suites)
            assert (err.value.status, err.value.code) == (400, "invalid_bom")

    def test_update_creating_a_duplicate_is_invalid(self, env):
        """An update re-projects only the subjects it touches, yet a document
        that repeats another's (subject, kind) anywhere in the set is
        refused, whether a delta moves it or a payload document adds it."""
        _, client, _ = env.make_manager()
        a_sbom, a_cbom = host_boms("dup-a")
        b_sbom, b_cbom = host_boms("dup-b")
        created = client.create(
            "profile-a",
            [serialize_bom(b) for b in link_to_profile([a_sbom, a_cbom, b_sbom, b_cbom], "profile-a")],
        )
        moved = replace(a_sbom, version=2, metadata=replace(a_sbom.metadata, subject_name="dup-b"))
        added = replace(b_sbom, serial_number=document_serial("sbom", "dup-c"))
        for payload in (
            {"deltas": [delta_to_dict(diff_boms(a_sbom, moved))]},
            {"bom_texts": [serialize_bom(added)]},
        ):
            with pytest.raises(Exception) as err:
                client.update(created["sdtId"], expected_version=1, **payload)
            assert (err.value.status, err.value.code) == (400, "invalid_bom")
        descriptor = client.get(created["sdtId"])
        assert (descriptor["state"], descriptor["representationVersion"]) == ("READY", 1)

    def test_malformed_delta_lists_are_invalid(self, env):
        _, client, _ = env.make_manager()
        texts = bom_texts("badlist-host")
        created = client.create("profile-a", texts)
        base = delta_to_dict(diff_boms(*[parse_bom(texts[-1])] * 2))
        for fields in ({"componentsRemoved": "ab"}, {"componentsRemoved": 5}):
            with pytest.raises(Exception) as err:
                client.update(created["sdtId"], expected_version=1, deltas=[{**base, **fields}])
            assert (err.value.status, err.value.code) == (400, "invalid_delta")
        assert client.get(created["sdtId"])["representationVersion"] == 1

    @pytest.mark.parametrize(
        "fields",
        [
            lambda bom: {"dependenciesAdded": [{"ref": "no-such-ref", "dependsOn": []}]},
            lambda bom: {"vulnerabilitiesAdded": [{
                "id": "NOT-A-CVE", "ratings": [{"score": 42, "severity": "critical"}],
                "affects": [{"ref": bom.components[0].bom_ref}]}]},
            lambda bom: {"componentsAdded": [{"bom-ref": "", "type": "library", "name": "x"}]},
            lambda bom: {"newVersion": 0},
            lambda bom: {"newVersion": "x"},
            lambda bom: {"newVersion": True},
            lambda bom: {"metadataTo": {
                "component": {"type": "device", "name": bom.metadata.subject_name},
                "properties": [{"name": "twinaudit:owner", "value": "ops"}]}},
            lambda bom: {"metadataTo": {"component": {"type": "device", "name": 5}}},
        ],
        ids=[
            "dangling-dependency", "bad-cve-and-score", "empty-bom-ref", "new-version-0",
            "new-version-str", "new-version-bool", "reserved-property", "subject-name-int",
        ],
    )
    def test_delta_making_an_invalid_document_is_invalid(self, env, fields):
        """A delta whose result validate_bom refuses answers 400, and the
        twin stays ready at its version."""
        _, client, _ = env.make_manager()
        texts = bom_texts("invalid-delta-host")
        created = client.create("profile-a", texts)
        bom = next(b for b in map(parse_bom, texts) if b.components)
        base = {"baseSerial": bom.serial_number, "baseVersion": bom.version,
                "newVersion": bom.version + 1}
        with pytest.raises(Exception) as err:
            client.update(created["sdtId"], expected_version=1, deltas=[{**base, **fields(bom)}])
        assert (err.value.status, err.value.code) == (400, "invalid_delta")
        descriptor = client.get(created["sdtId"])
        assert (descriptor["state"], descriptor["representationVersion"]) == ("READY", 1)

    def test_delta_not_raising_the_version_is_invalid(self, env):
        """A BOM-Link urn:cdx:<serial>/<version> names one content: a delta
        that changes a document at its version, or to a lower one, answers
        400, and the twin stays ready at its version with the document as
        it was."""
        manager, client, _ = env.make_manager()
        texts = bom_texts("version-identity-host")
        sdt_id = client.create("profile-a", texts)["sdtId"]
        v1 = next(b for b in map(parse_bom, texts) if b.components)
        v2 = replace(v1, version=2, components=v1.components[1:])
        client.update(sdt_id, expected_version=1, deltas=[delta_to_dict(diff_boms(v1, v2))])
        for new in (replace(v1, version=2), v1):
            with pytest.raises(Exception) as err:
                client.update(sdt_id, expected_version=2, deltas=[delta_to_dict(diff_boms(v2, new))])
            assert (err.value.status, err.value.code) == (400, "invalid_delta")
            descriptor = client.get(sdt_id)
            assert (descriptor["state"], descriptor["representationVersion"]) == ("READY", 2)
            assert manager._records[sdt_id].boms[v1.serial_number] == v2

    def test_unknown_delta_fields_are_invalid(self, env):
        """A misspelt field, or the retired linksTo, was dropped: the delta
        applied as empty, and the twin took a version without the change."""
        manager, client, _ = env.make_manager()
        texts = bom_texts("unknown-field-host")
        sdt_id = client.create("profile-a", texts)["sdtId"]
        bom = next(b for b in map(parse_bom, texts) if b.components)
        base = {"baseSerial": bom.serial_number, "baseVersion": bom.version,
                "newVersion": bom.version + 1}
        for fields in ({"componentsAdde": [{"x": 1}]}, {"linksTo": []}):
            with pytest.raises(Exception) as err:
                client.update(sdt_id, expected_version=1, deltas=[{**base, **fields}])
            assert (err.value.status, err.value.code) == (400, "invalid_delta")
            descriptor = client.get(sdt_id)
            assert (descriptor["state"], descriptor["representationVersion"]) == ("READY", 1)
            assert manager._records[sdt_id].boms[bom.serial_number] == bom

    @pytest.mark.parametrize("section", ["links", "dependencies"])
    def test_unknown_fields_inside_delta_entries_are_invalid(self, env, section):
        """An added link or dependency that carries a field outside the
        modeled subset was applied with the field dropped; it answers 400
        like a component's unknown field, and the twin stays ready at its
        version. The same entry without the field applies."""
        manager, client, _ = env.make_manager()
        texts = bom_texts(f"entry-field-{section}")
        sdt_id = client.create("profile-a", texts)["sdtId"]
        boms = list(map(parse_bom, texts))
        if section == "links":
            bom = next(b for b in boms if b.links)
            link = replace(bom.links[0], target_version=bom.links[0].target_version + 1)
            entry = {"type": "bom", "url": link.render()}
        else:
            bom = next(b for b in boms if len(b.components) > 1 and not b.dependencies)
            entry = {"ref": bom.components[0].bom_ref, "dependsOn": [bom.components[1].bom_ref]}
        base = {"baseSerial": bom.serial_number, "baseVersion": bom.version,
                "newVersion": bom.version + 1}
        with pytest.raises(Exception) as err:
            client.update(sdt_id, expected_version=1,
                          deltas=[{**base, f"{section}Added": [{**entry, "comment": "x"}]}])
        assert (err.value.status, err.value.code) == (400, "invalid_delta")
        descriptor = client.get(sdt_id)
        assert (descriptor["state"], descriptor["representationVersion"]) == ("READY", 1)
        assert manager._records[sdt_id].boms[bom.serial_number] == bom
        client.update(sdt_id, expected_version=1, deltas=[{**base, f"{section}Added": [entry]}])
        assert client.get(sdt_id)["representationVersion"] == 2

    def test_document_not_raising_the_version_must_equal_the_stored_one(self, env):
        """A BOM-Link urn:cdx:<serial>/<version> names one content: a full
        document that changes a stored one at its version, or at a lower
        one, answers 400, and the twin stays ready at its version. The
        stored document, sent again unchanged, is accepted."""
        manager, client, _ = env.make_manager()
        texts = bom_texts("full-identity-host")
        sdt_id = client.create("profile-a", texts)["sdtId"]
        client.update(sdt_id, expected_version=1, bom_texts=texts)
        v1 = next(b for b in map(parse_bom, texts) if len(b.components) > 1)
        v2 = replace(v1, version=2, components=v1.components[1:])
        client.update(sdt_id, expected_version=2, bom_texts=[serialize_bom(v2)])
        for new in (replace(v1, version=2), replace(v1, components=v2.components), v1):
            with pytest.raises(Exception) as err:
                client.update(sdt_id, expected_version=3, bom_texts=[serialize_bom(new)])
            assert (err.value.status, err.value.code) == (400, "invalid_bom")
            descriptor = client.get(sdt_id)
            assert (descriptor["state"], descriptor["representationVersion"]) == ("READY", 3)
            assert manager._records[sdt_id].boms[v1.serial_number] == v2

    def test_moved_document_leaves_its_old_subject(self, env):
        """A delta that moves a document to another subject re-projects the
        subject it left as well as the one it joined."""
        _, client, runtime = env.make_manager()
        a_sbom, a_cbom = host_boms("move-a")
        _, b_cbom = host_boms("move-b")
        created = client.create(
            "profile-a",
            [serialize_bom(b) for b in link_to_profile([a_sbom, a_cbom, b_cbom], "profile-a")],
        )
        moved = replace(a_sbom, version=2, metadata=replace(a_sbom.metadata, subject_name="move-b"))
        client.update(
            created["sdtId"], expected_version=1, deltas=[delta_to_dict(diff_boms(a_sbom, moved))]
        )
        rep = runtime.instance_service(created["endpoint"]).representation()
        assert "software" not in json.loads(rep.latest("move-a"))["properties"]
        assert json.loads(rep.latest("move-b"))["properties"]["software"]

    def test_an_update_leaving_a_subject_with_no_document_is_invalid(self, env):
        """An instance drops no thing: a delta or a text that moves a
        subject's only document to another subject answers 400, and the
        twin keeps its holds, its version and its READY state."""
        manager, client, _ = env.make_manager()
        a_sbom = host_boms("move-a")[0]
        b_cbom = host_boms("move-b")[1]
        sdt_id = client.create(
            "profile-a", [serialize_bom(b) for b in link_to_profile([a_sbom, b_cbom], "profile-a")]
        )["sdtId"]
        record = manager._records[sdt_id]
        before = holds(manager), thing_holds(manager), dict(record.things), dict(record.boms)
        moved = replace(a_sbom, version=2, metadata=replace(a_sbom.metadata, subject_name="move-b"))
        for body in ({"expectedVersion": 1, "deltas": [delta_to_dict(diff_boms(a_sbom, moved))]},
                     {"expectedVersion": 1, "boms": [serialize_bom(moved)]}):
            status, answer = http_json("PUT", f"{client.base_url}/sdts/{sdt_id}", body)
            assert (status, answer) == (400, {
                "code": "invalid_bom",
                "message": "update leaves thing 'move-a' with no document"})
            assert (holds(manager), thing_holds(manager), record.things, record.boms) == before
            descriptor = client.get(sdt_id)
            assert (descriptor["state"], descriptor["representationVersion"]) == ("READY", 1)


class TestDestroy:
    def test_destroy_is_terminal_and_idempotent(self, env):
        manager, client, runtime = env.make_manager()
        created = client.create("profile-a", bom_texts("gone-host"))
        sdt_id, endpoint = created["sdtId"], created["endpoint"]
        assert health_status(endpoint) == 200
        client.destroy(sdt_id)
        assert health_status(endpoint) != 200
        assert client.get(sdt_id)["state"] == "DESTROYED"
        client.destroy(sdt_id)  # second call: no-op success
        assert client.get(sdt_id)["state"] == "DESTROYED"

    def test_destroyed_twins_release_their_documents(self, env):
        manager, client, _ = env.make_manager()
        texts = bom_texts("cycled-host")
        ids = []
        for _ in range(30):
            sdt_id = client.create("profile-a", texts)["sdtId"]
            client.destroy(sdt_id)
            ids.append(sdt_id)
        live = client.create("profile-a", texts)["sdtId"]
        assert all(manager._records[i].boms == {} for i in ids)
        assert len(manager._records[live].boms) == len(texts)
        # The descriptors stay: GET shows DESTROYED and DELETE is idempotent.
        assert {client.get(i)["state"] for i in ids} == {"DESTROYED"}
        client.destroy(ids[0])

    def test_update_after_destroy_rejected(self, env):
        _, client, _ = env.make_manager()
        created = client.create("profile-a", bom_texts("dead-host"))
        client.destroy(created["sdtId"])
        with pytest.raises(Exception) as err:
            client.update(created["sdtId"], expected_version=1)
        assert getattr(err.value, "status", None) in (404, 409)

    def test_destroy_unknown(self, env):
        _, client, _ = env.make_manager()
        with pytest.raises(Exception) as err:
            client.destroy("0" * 32)
        assert getattr(err.value, "status", None) == 404


class TestBoundedMemory:
    def test_destroyed_twins_leave_bounded_tombstones(self, env, monkeypatch):
        """The registry keeps the latest TOMBSTONES destroyed descriptors:
        those still GET as DESTROYED and DELETE stays a no-op; older ids
        answer 404 like unknown ones."""
        monkeypatch.setattr(manager_core, "TOMBSTONES", 3)
        manager, client, _ = env.make_manager()
        texts = bom_texts("tombstone-host")
        live = client.create("profile-a", texts)["sdtId"]
        ids, sizes = [], []
        for _ in range(9):
            sdt_id = client.create("profile-a", texts)["sdtId"]
            client.destroy(sdt_id)
            ids.append(sdt_id)
            sizes.append(len(client.list()))
        assert sizes == [2, 3, 4, 4, 4, 4, 4, 4, 4]
        for sdt_id in ids[-3:]:
            assert client.get(sdt_id)["state"] == "DESTROYED"
            client.destroy(sdt_id)  # no-op
        assert client.get(live)["state"] == "READY"
        for sdt_id in ids[:-3]:
            for call in (client.get, client.destroy):
                with pytest.raises(Exception) as err:
                    call(sdt_id)
                assert getattr(err.value, "status", None) == 404

    def test_trace_and_access_logs_stay_bounded(self, env):
        """A long-lived manager keeps one trace span per kind, and each
        instance keeps only its latest access decisions."""
        manager, _, runtime = env.make_manager()
        created = manager.handle_create(create_payload("long-lived-host"))
        decisions = runtime.instance_service(created["endpoint"]).policy.decisions
        updates = 2 * DECISION_LOG_SIZE
        for version in range(1, updates + 1):
            manager.handle_update(created["sdtId"], {"expectedVersion": version})
        assert manager.get_descriptor(created["sdtId"])["representationVersion"] == updates + 1
        assert len(decisions) == DECISION_LOG_SIZE
        assert sorted(manager.tracer._latest) == ["create", "update"]
        assert is_subsequence(UPDATE_STAGES[1:-1], manager.tracer.last("update").stages)


class TestInProcessDelivery:
    """The manager hands states to its instances through the runtime."""

    def test_manager_sends_no_http_to_its_instances(self, env, monkeypatch):
        manager, _, _ = env.make_manager()

        def no_http(*args, **kwargs):
            raise AssertionError(f"unexpected HTTP request: {args}")

        monkeypatch.setattr(jsonhttp, "http_json", no_http)
        created = manager.handle_create(create_payload("inproc-host"))
        result = manager.handle_update(created["sdtId"], {"expectedVersion": 1})
        assert result["representationVersion"] == 2
        assert manager.footprint(created["sdtId"]) > 0
        manager.handle_destroy(created["sdtId"])

    def test_vanished_instance_is_unreachable(self, env):
        manager, _, runtime = env.make_manager()
        created = manager.handle_create(create_payload("vanish-host"))
        sdt_id = created["sdtId"]
        runtime.destroy_instance(created["endpoint"])  # behind the manager's back
        with pytest.raises(HttpError) as err:
            manager.footprint(sdt_id)
        assert (err.value.status, err.value.code) == (502, "unreachable")
        with pytest.raises(HttpError) as err:
            manager.handle_update(sdt_id, {"expectedVersion": 1})
        assert (err.value.status, err.value.code) == (502, "unreachable")
        descriptor = manager.get_descriptor(sdt_id)
        assert (descriptor["state"], descriptor["error"]) == ("ERROR", "unreachable")
        manager.handle_destroy(sdt_id)

    def test_instance_failure_on_create_leaves_no_instance(self, env, monkeypatch):
        manager, _, _ = env.make_manager()

        def broken_build(*args, **kwargs):
            raise RuntimeError("injected build failure")

        monkeypatch.setattr(StoredRepresentation, "build", broken_build)
        mounts_before = env.server.mounts()
        with pytest.raises(HttpError) as err:
            manager.handle_create(create_payload("broken-host"))
        assert (err.value.status, err.value.code) == (502, "representation")
        assert env.server.mounts() == mounts_before
        (descriptor,) = manager.list_descriptors()
        assert (descriptor["state"], descriptor["error"]) == ("ERROR", "representation")
        assert descriptor["endpoint"] is None


class TestHttpContract:
    """Status codes and JSON shapes over the wire, per endpoint."""

    def test_post_sdts_201_shape(self, env):
        _, client, _ = env.make_manager()
        url = client.base_url + "/sdts"
        response = requests.post(url, json=create_payload("wire-host"), timeout=10)
        assert response.status_code == 201
        body = response.json()
        assert {"sdtId", "state", "endpoint"} <= set(body)
        assert body["state"] == "READY"

    def test_put_sdts_200_and_409(self, env):
        _, client, _ = env.make_manager()
        created = client.create("profile-a", bom_texts("wire2-host"))
        url = f"{client.base_url}/sdts/{created['sdtId']}"
        ok = requests.put(url, json={"expectedVersion": 1}, timeout=10)
        assert ok.status_code == 200
        assert set(ok.json()) == {"sdtId", "representationVersion"}
        stale = requests.put(url, json={"expectedVersion": 1}, timeout=10)
        assert stale.status_code == 409
        assert {"code", "message"} <= set(stale.json())

    def test_delete_204_and_404(self, env):
        _, client, _ = env.make_manager()
        created = client.create("profile-a", bom_texts("wire3-host"))
        response = requests.delete(f"{client.base_url}/sdts/{created['sdtId']}", timeout=10)
        assert response.status_code == 204
        assert response.content == b""
        missing = requests.delete(f"{client.base_url}/sdts/{'9' * 32}", timeout=10)
        assert missing.status_code == 404
        assert missing.json()["code"] == "not_found"

    def test_get_list_and_one(self, env):
        _, client, _ = env.make_manager()
        empty = requests.get(client.base_url + "/sdts", timeout=10)
        assert empty.status_code == 200 and empty.json() == {"sdts": []}
        created = client.create("profile-a", bom_texts("wire4-host"))
        listing = requests.get(client.base_url + "/sdts", timeout=10)
        assert [d["sdtId"] for d in listing.json()["sdts"]] == [created["sdtId"]]
        one = requests.get(f"{client.base_url}/sdts/{created['sdtId']}", timeout=10)
        assert one.status_code == 200
        expected_fields = {
            "sdtId",
            "state",
            "profileId",
            "createdAt",
            "updatedAt",
            "endpoint",
            "representationVersion",
        }
        assert expected_fields <= set(one.json())
        missing = requests.get(f"{client.base_url}/sdts/{'8' * 32}", timeout=10)
        assert missing.status_code == 404

    def test_instance_endpoints_over_the_wire(self, env):
        _, client, _ = env.make_manager()
        created = client.create(
            "profile-a", bom_texts("wire5-host"), options={"tokens": {"reader": ["READ"]}}
        )
        endpoint = created["endpoint"]
        auth = {"Authorization": "Bearer reader"}
        health = requests.get(endpoint + "/health", timeout=10)
        assert health.status_code == 200
        things = requests.get(endpoint + "/things", headers=auth, timeout=10)
        assert things.status_code == 200
        thing_id = "wire5-host"
        one = requests.get(f"{endpoint}/things/{thing_id}", headers=auth, timeout=10)
        assert one.status_code == 200
        assert set(one.json()) == {"id", "title", "properties", "links"}
        history = requests.get(f"{endpoint}/things/{thing_id}/history", headers=auth, timeout=10)
        assert history.status_code == 200
        denied = requests.get(endpoint + "/things", timeout=10)
        assert denied.status_code == 401
        wrong = requests.get(
            endpoint + "/things", headers={"Authorization": "Bearer fake"}, timeout=10
        )
        assert wrong.status_code == 401
        no_scope = requests.get(endpoint + "/representation", headers=auth, timeout=10)
        assert no_scope.status_code == 403
        gone = requests.get(f"{endpoint}/things/ghost", headers=auth, timeout=10)
        assert gone.status_code == 404

    def test_footprint_route(self, env):
        _, client, _ = env.make_manager()
        created = client.create("profile-a", bom_texts("wire6-host"))
        footprint = client.footprint(created["sdtId"])
        assert footprint > 0
        client.destroy(created["sdtId"])
        with pytest.raises(Exception) as err:
            client.footprint(created["sdtId"])
        assert getattr(err.value, "status", None) == 409


MISSING = object()  # a field left out of the body

# JSON values of every type; each field below draws the wrongly typed ones.
any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _not_json(text):
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


# Strings a BOM list may hold that parse to no document: not JSON at all, or
# JSON that is no CycloneDX object.
bad_bom_texts = st.text(max_size=12).filter(_not_json) | st.sampled_from(
    ["{}", "[]", "5", '"x"', "null", '{"bomFormat": "CycloneDX"}']
)


@st.composite
def bad_bom_lists(draw, valid):
    """A truthy `boms` value that is not a list of documents: a non-list, or
    the valid list with one entry replaced by a non-string or a bad text."""
    if draw(st.booleans()):
        return draw(any_json.filter(lambda v: v and not isinstance(v, list)))
    entries = list(valid)
    bad = draw(any_json.filter(lambda v: not isinstance(v, str)) | bad_bom_texts)
    entries[draw(st.integers(0, len(entries) - 1))] = bad
    return entries


bad_options = any_json.filter(lambda v: v is not None and not isinstance(v, dict)) | st.one_of(
    any_json.filter(lambda v: v and not isinstance(v, dict)).map(lambda v: {"tokens": v}),
    st.just({"tokens": {"": ["READ"]}}),
    any_json.filter(lambda v: not isinstance(v, list)).map(lambda v: {"tokens": {"t": v}}),
    st.lists(any_json, max_size=2).map(lambda v: {"tokens": {"t": [*v, "NO-SUCH-SCOPE"]}}),
)

bad_deltas = any_json.filter(lambda v: v and not isinstance(v, list)) | st.lists(
    any_json, min_size=1, max_size=2
)


@st.composite
def malformed_bodies(draw, fields):
    """A body with at least one field from `fields` ({name: (valid, bad)})
    malformed, or no object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(any_json.filter(lambda v: not isinstance(v, dict)))
    broken = draw(st.sets(st.sampled_from(sorted(fields)), min_size=1))
    body = {}
    for name, (valid, bad) in fields.items():
        value = draw(bad if name in broken else valid)
        if value is not MISSING:
            body[name] = value
    return body


class TestMalformedBodies:
    """Every malformed create or update body gets a 4xx JSON error."""

    @staticmethod
    def assert_refused(status, body):
        assert 400 <= status < 500, (status, body)
        assert isinstance(body, dict) and set(body) == {"code", "message"}, body
        assert isinstance(body["code"], str) and isinstance(body["message"], str)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_create(self, data):
        manager, client, runtime = self.create_env
        texts = self.texts
        body = data.draw(
            malformed_bodies(
                {
                    "profileId": (
                        st.just("profile-a"),
                        st.just(MISSING) | st.just("") | any_json.filter(
                            lambda v: not isinstance(v, str)
                        ),
                    ),
                    "boms": (
                        st.just(texts),
                        st.just(MISSING) | st.just([]) | bad_bom_lists(texts),
                    ),
                    "options": (st.just(MISSING) | st.just(None), bad_options),
                }
            )
        )
        status, payload = http_json("POST", client.base_url + "/sdts", body)
        self.assert_refused(status, payload)
        assert runtime.deployed == set() and manager.list_descriptors() == []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_update(self, data):
        manager, client, _ = self.update_env
        body = data.draw(
            malformed_bodies(
                {
                    "expectedVersion": (
                        st.just(1),
                        st.just(MISSING) | any_json.filter(
                            lambda v: not isinstance(v, int) or isinstance(v, bool)
                        ),
                    ),
                    "boms": (st.just(MISSING) | st.just(self.texts), bad_bom_lists(self.texts)),
                    "deltas": (st.just(MISSING) | st.just([]), bad_deltas),
                }
            )
        )
        status, payload = http_json("PUT", f"{client.base_url}/sdts/{self.sdt_id}", body)
        self.assert_refused(status, payload)
        descriptor = manager.get_descriptor(self.sdt_id)
        assert (descriptor["state"], descriptor["representationVersion"]) == ("READY", 1)

    def setup_method(self, method):
        # Per test, as the managers are released when each test ends.
        self.texts = bom_texts("malformed-host")
        self.create_env = _PROP_ENV.make_manager(sabotage=True)
        self.update_env = _PROP_ENV.make_manager()
        self.sdt_id = self.update_env[1].create("profile-a", self.texts)["sdtId"]

    def teardown_method(self, method):
        del self.create_env, self.update_env


class TestListOrdering:
    def test_list_sorted_by_creation(self, env):
        manager, client, _ = env.make_manager()
        ids = [client.create("profile-a", bom_texts(f"order-{i}"))["sdtId"] for i in range(3)]
        listed = [d["sdtId"] for d in manager.list_descriptors()]
        assert listed == ids


OPS = st.sampled_from(
    ["create", "create_fail_deploy", "create_fail_push", "update", "update_stale", "destroy"]
)


class TestLifecycleProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(OPS, min_size=1, max_size=8), st.randoms(use_true_random=False))
    def test_no_orphans_and_gapfree_versions(self, ops, rng):
        """Random op interleavings with failure injection keep the registry
        and the runtime consistent; versions per id count 1..n without gaps."""
        runtime = SabotageRuntime(_PROP_ENV.runtime)
        manager = SdtManager(runtimes=[runtime])
        ids: list[str] = []
        versions: dict[str, int] = {}

        for op in ops:
            target = rng.choice(ids) if ids else None
            try:
                if op == "create":
                    descriptor = manager.handle_create(create_payload(f"h{len(ids)}"))
                    ids.append(descriptor["sdtId"])
                    versions[descriptor["sdtId"]] = 1
                elif op == "create_fail_deploy":
                    runtime.fail_deploy = True
                    try:
                        manager.handle_create(create_payload("hx"))
                    except HttpError:
                        pass
                    runtime.fail_deploy = False
                elif op == "create_fail_push":
                    runtime.poison_tokens = True
                    try:
                        manager.handle_create(create_payload("hy"))
                    except HttpError:
                        pass
                    runtime.poison_tokens = False
                elif op == "update" and target:
                    expected = versions.get(target, 1)
                    result = manager.handle_update(target, {"expectedVersion": expected})
                    assert result["representationVersion"] == expected + 1
                    versions[target] = expected + 1
                elif op == "update_stale" and target:
                    try:
                        manager.handle_update(target, {"expectedVersion": 999})
                    except HttpError as err:
                        assert err.status in (409,)
                elif op == "destroy" and target:
                    manager.handle_destroy(target)
                    versions.pop(target, None)
            except HttpError as err:
                # updates/destroys against destroyed ids are rejected cleanly
                assert err.status in (404, 409)

            live = set(runtime.deployed)
            expected_live = {
                d["endpoint"]
                for d in manager.list_descriptors()
                if d["state"] in ("READY", "UPDATING") and d["endpoint"]
            }
            assert live == expected_live

        # cleanup so the shared server does not accumulate mounts
        for descriptor in manager.list_descriptors():
            try:
                manager.handle_destroy(descriptor["sdtId"])
            except HttpError:
                pass
        assert runtime.deployed == set()

    def test_concurrent_updates_serialize(self, env):
        manager, client, _ = env.make_manager()
        created = client.create("profile-a", bom_texts("conc-host"))
        sdt_id = created["sdtId"]
        successes: list[int] = []
        lock = threading.Lock()

        def worker():
            for _ in range(6):
                current = client.get(sdt_id)["representationVersion"]
                try:
                    result = client.update(sdt_id, expected_version=current)
                except Exception:
                    continue
                with lock:
                    successes.append(result["representationVersion"])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        final = client.get(sdt_id)["representationVersion"]
        assert sorted(successes) == list(range(2, final + 1))


def holds(manager):
    """The manager's shared table: each text with the number of twins holding it."""
    with manager._registry_lock:
        return {text: entry.holders for text, entry in manager._shared.items()}


def thing_holds(manager):
    """The manager's thing table: each key (a subject's document texts) with
    the number of twins holding it."""
    with manager._registry_lock:
        return {key: entry.holders for key, entry in manager._shared_things.items()}


def live(kind=Bom):
    """The number of objects of exactly that type alive in the process."""
    gc.collect()
    return sum(type(o) is kind for o in gc.get_objects())


def thing_key(record, subject):
    """The texts of the subject's documents in serial order, or None when
    it has none or one of them holds no text."""
    serials = sorted(s for s, b in record.boms.items() if b.metadata.subject_name == subject)
    if serials and all(s in record.texts for s in serials):
        return tuple(record.texts[s] for s in serials)
    return None


@pytest.fixture()
def projections(monkeypatch):
    """The subjects of each DataAdapter.process call, in call order."""
    seen = []
    process = DataAdapter.process

    def counting(self, boms):
        states = process(self, boms)
        seen.append(sorted(states))
        return states

    monkeypatch.setattr(DataAdapter, "process", counting)
    return seen


@pytest.fixture()
def parses(monkeypatch):
    """The texts the manager parses, in call order."""
    seen = []
    parse = manager_core.parse_bom

    def counting(text, **kwargs):
        seen.append(text)
        return parse(text, **kwargs)

    monkeypatch.setattr(manager_core, "parse_bom", counting)
    return seen


def linked_texts(*hosts):
    """The serialized documents of the hosts, linked to profile-a's manifest."""
    return [serialize_bom(b) for b in link_to_profile(
        [bom for host in hosts for bom in host_boms(host)], "profile-a")]


class TestSharedDocuments:
    """Twins that hold one document text share its one parsed Bom, and the
    table holds a text only while some live twin holds it."""

    def test_a_create_parses_only_the_texts_no_live_twin_holds(self, env, parses):
        manager, _, runtime = env.make_manager()
        one, two = linked_texts("share-a"), linked_texts("share-a", "share-b")
        first = manager.handle_create({"profileId": "profile-a", "boms": one})
        assert parses == one
        del parses[:]
        second = manager.handle_create({"profileId": "profile-a", "boms": two})
        # The hosts' documents of share-a are shared; the manifest differs.
        assert sorted(parses) == sorted(set(two) - set(one))
        a, b = (manager._records[d["sdtId"]] for d in (first, second))
        for serial, bom in a.boms.items():
            if serial in b.boms and a.texts[serial] in two:
                assert b.boms[serial] is bom and b.texts[serial] is a.texts[serial]
        assert holds(manager) == {text: 1 + (text in one and text in two)
                                  for text in one + two}
        rep = runtime.instance_service(second["endpoint"]).representation()
        assert {t: rep.latest(t) for t in rep.thing_ids()} == {
            t: canonical(s) for t, s in thing_states_from_boms(map(parse_bom, two)).items()}
        manager.handle_destroy(first["sdtId"])
        assert holds(manager) == dict.fromkeys(two, 1)
        manager.handle_destroy(second["sdtId"])
        assert holds(manager) == {}

    def test_failed_creates_leave_the_table_as_it_was(self, env):
        manager, _, runtime = env.make_manager(sabotage=True)
        texts = linked_texts("fail-a")
        manager.handle_create({"profileId": "profile-a", "boms": texts})
        before, things = holds(manager), thing_holds(manager)
        sbom = host_boms("fail-b")[0]
        twin_sbom = replace(sbom, serial_number=document_serial("sbom", "fail-c"))
        other = linked_texts("fail-b")
        refused = [
            ([*texts, texts[1]], "duplicate serial number"),  # held texts
            ([*other, other[1]], "duplicate serial number"),  # texts no twin holds
            ([*other, serialize_bom(twin_sbom)], "duplicate SBOM document"),  # projection
        ]
        for boms, message in refused:
            with pytest.raises(HttpError) as err:
                manager.handle_create({"profileId": "profile-a", "boms": boms})
            assert (err.value.status, err.value.code) == (400, "invalid_bom")
            assert message in err.value.message
            assert holds(manager) == before
            assert thing_holds(manager) == things
        for flag, code in (("fail_deploy", "deploy"), ("poison_tokens", "representation")):
            setattr(runtime, flag, True)
            for boms in (texts, other):
                with pytest.raises(HttpError) as err:
                    manager.handle_create({"profileId": "profile-a", "boms": boms})
                assert (err.value.status, err.value.code) == (502, code)
                assert holds(manager) == before
                assert thing_holds(manager) == things
            setattr(runtime, flag, False)

    def test_refused_updates_leave_every_hold(self, env, monkeypatch):
        manager, _, _ = env.make_manager()
        texts = linked_texts("refuse-a")
        keep = manager.handle_create({"profileId": "profile-a", "boms": texts})["sdtId"]
        sdt_id = manager.handle_create({"profileId": "profile-a", "boms": texts})["sdtId"]
        before, record = (holds(manager), thing_holds(manager)), manager._records[sdt_id]
        boms, held, things = dict(record.boms), dict(record.texts), dict(record.things)
        v1 = parse_bom(texts[1])
        v2 = replace(v1, version=2, components=v1.components[1:])
        delta = delta_to_dict(diff_boms(v1, v2))

        def rejecting(*args):
            raise RequestRejected(409, "version_conflict", "injected")

        refusals = [
            ({"expectedVersion": 2, "boms": [serialize_bom(v2)]}, "version_conflict"),
            ({"expectedVersion": 1, "deltas": [{**delta, "baseVersion": 2, "newVersion": 3}]},
             "delta_mismatch"),
            ({"expectedVersion": 1, "boms": [serialize_bom(v2)]}, "update_rejected"),
            ({"expectedVersion": 1, "deltas": [delta]}, "update_rejected"),
        ]
        for payload, code in refusals:
            with monkeypatch.context() as patch:
                if code == "update_rejected":
                    patch.setattr(manager._adapter, "push", rejecting)
                with pytest.raises(HttpError) as err:
                    manager.handle_update(sdt_id, payload)
            assert (err.value.status, err.value.code) == (409, code)
            assert (holds(manager), thing_holds(manager)) == before
            assert (record.boms, record.texts, record.things) == (boms, held, things)
            assert manager.get_descriptor(sdt_id)["representationVersion"] == 1
        assert manager._records[keep].boms == boms

    def test_an_update_releases_what_it_replaces(self, env):
        """A text replaced by another or by a delta is let go, and a text and
        a delta for one serial leave the twin holding the delta's result; the
        other twin's shared Bom stays as parse_bom gives it."""
        manager, _, _ = env.make_manager()
        texts = linked_texts("replace-a")
        keep = manager.handle_create({"profileId": "profile-a", "boms": texts})["sdtId"]
        sdt_id = manager.handle_create({"profileId": "profile-a", "boms": texts})["sdtId"]
        record = manager._records[sdt_id]
        v1 = parse_bom(texts[1])
        v2 = replace(v1, version=2, components=v1.components[1:])
        v3 = replace(v1, version=3)
        manager.handle_update(sdt_id, {"expectedVersion": 1, "boms": [serialize_bom(v2)]})
        assert holds(manager) == {**dict.fromkeys(texts, 2), texts[1]: 1, serialize_bom(v2): 1}
        assert record.boms[v1.serial_number] == v2
        manager.handle_update(sdt_id, {"expectedVersion": 2,
                                       "deltas": [delta_to_dict(diff_boms(v2, v3))]})
        assert holds(manager) == {**dict.fromkeys(texts, 2), texts[1]: 1}
        assert v1.serial_number not in record.texts
        assert record.boms[v1.serial_number] == v3
        # A text and a delta for one serial: the twin holds the delta's
        # result, and the shared Bom the delta started from stays as it was.
        shared = manager._shared[texts[1]].value
        v4 = replace(v1, version=4, components=v1.components[1:])
        manager.handle_update(keep, {"expectedVersion": 1, "boms": [texts[1]],
                                     "deltas": [delta_to_dict(diff_boms(v1, v4))]})
        assert holds(manager) == dict.fromkeys(texts[:1] + texts[2:], 2)
        assert v1.serial_number not in manager._records[keep].texts
        assert manager._records[keep].boms[v1.serial_number] == v4
        assert shared == v1 == parse_bom(texts[1])
        manager.handle_destroy(keep)
        manager.handle_destroy(sdt_id)
        assert holds(manager) == {}

    def test_destroyed_twins_past_the_tombstones_hold_nothing(self, env):
        manager, _, _ = env.make_manager()
        payloads = [linked_texts("roll-a"), linked_texts("roll-a", "roll-b")]
        revised = serialize_bom(replace(parse_bom(payloads[0][1]), version=2))
        before = live(Bom), live(manager_core._Shared), live(JsonText)
        for cycle in range(manager_core.TOMBSTONES + 6):
            ids = [manager.handle_create({"profileId": "profile-a", "boms": texts})["sdtId"]
                   for texts in payloads]
            if cycle % 2:
                manager.handle_update(ids[0], {"expectedVersion": 1, "boms": [revised]})
            for sdt_id in ids:
                manager.handle_destroy(sdt_id)
            assert holds(manager) == {} and thing_holds(manager) == {}
        assert len(manager._records) == manager_core.TOMBSTONES
        assert (live(Bom), live(manager_core._Shared), live(JsonText)) == before

    def test_concurrent_creates_of_one_payload_count_both_twins(self, env, monkeypatch):
        """Both creates miss the table and parse; the second to commit takes
        the first's Bom, and each text counts two holders."""
        manager, _, _ = env.make_manager()
        texts = linked_texts("race-a")
        barrier = threading.Barrier(2, timeout=10)
        parse, waited = manager_core.parse_bom, threading.local()

        def meeting(text, **kwargs):
            if not getattr(waited, "done", False):
                waited.done = True
                barrier.wait()
            return parse(text, **kwargs)

        monkeypatch.setattr(manager_core, "parse_bom", meeting)
        created = []
        threads = [
            threading.Thread(target=lambda: created.append(
                manager.handle_create({"profileId": "profile-a", "boms": texts})))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        a, b = (manager._records[d["sdtId"]] for d in created)
        assert holds(manager) == dict.fromkeys(texts, 2)
        assert thing_holds(manager) == dict.fromkeys(a.things.values(), 2)
        assert all(b.boms[serial] is bom for serial, bom in a.boms.items())
        for descriptor in created:
            manager.handle_destroy(descriptor["sdtId"])
        assert holds(manager) == {}

    def test_threads_sharing_documents_lose_no_hold(self, env, monkeypatch):
        """More threads than cores create, update and destroy twins that
        share documents with a standing twin, switching often and yielding
        as a new entry is made: a lost increment or decrement would leave a
        count other than the standing twin's one, or drop a text it still
        holds."""

        class Yielding(manager_core._Shared):
            def __init__(self, *args):
                time.sleep(0)
                super().__init__(*args)

        monkeypatch.setattr(manager_core, "_Shared", Yielding)
        manager, _, _ = env.make_manager()
        one, two = linked_texts("stress-a"), linked_texts("stress-a", "stress-b")
        standing = manager.handle_create({"profileId": "profile-a", "boms": two})["sdtId"]
        v1 = parse_bom(one[1])
        revised = serialize_bom(replace(v1, version=2, components=v1.components[1:]))
        errors = []

        def worker(texts):
            try:
                for _ in range(15):
                    sdt_id = manager.handle_create({"profileId": "profile-a", "boms": texts})["sdtId"]
                    manager.handle_update(sdt_id, {"expectedVersion": 1, "boms": [revised]})
                    manager.handle_destroy(sdt_id)
            except Exception as err:  # reported below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=((one, two)[i % 2],)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert holds(manager) == dict.fromkeys(two, 1)
        assert thing_holds(manager) == dict.fromkeys(manager._records[standing].things.values(), 1)


class TestSharedThings:
    """Twins whose subject holds the same document texts share its one thing
    text, projected once; the table holds a key only while some live twin
    holds every document of that subject as a text."""

    def test_a_create_projects_only_the_subjects_no_live_twin_holds(self, env, projections):
        manager, _, runtime = env.make_manager()
        one, two = linked_texts("thing-a"), linked_texts("thing-a", "thing-b")
        first = manager.handle_create({"profileId": "profile-a", "boms": one})
        # In another order: a key does not depend on the payload's order.
        second = manager.handle_create({"profileId": "profile-a", "boms": two[::-1]})
        # thing-a's documents are held; the manifest lists another host.
        assert projections == [["profile-a", "thing-a"], ["profile-a", "thing-b"]]
        a, b = (manager._records[d["sdtId"]] for d in (first, second))
        assert a.things["thing-a"] is b.things["thing-a"]
        assert thing_holds(manager) == {a.things["profile-a"]: 1, a.things["thing-a"]: 2,
                                        b.things["profile-a"]: 1, b.things["thing-b"]: 1}
        for record in (a, b):
            assert record.things == {t: thing_key(record, t) for t in record.things}
        reps = [runtime.instance_service(d["endpoint"]).representation() for d in (first, second)]
        assert reps[0].latest("thing-a") is reps[1].latest("thing-a")
        assert {t: reps[1].latest(t) for t in reps[1].thing_ids()} == {
            t: canonical(s) for t, s in thing_states_from_boms(map(parse_bom, two)).items()}
        manager.handle_destroy(first["sdtId"])
        assert thing_holds(manager) == dict.fromkeys(b.things.values(), 1)
        manager.handle_destroy(second["sdtId"])
        assert thing_holds(manager) == {}

    def test_an_update_naming_an_unknown_subject_is_a_bad_request(self, env, projections):
        """A text or a delta whose document names a subject the twin has no
        thing for is refused before it is projected, and holds nothing."""
        manager, client, _ = env.make_manager()
        texts = linked_texts("known-a")
        sdt_id = client.create("profile-a", texts)["sdtId"]
        before = holds(manager), thing_holds(manager), dict(manager._records[sdt_id].things)
        del projections[:]
        sbom = host_boms("known-b")[0]
        known = parse_bom(texts[0])
        moved = replace(known, version=2,
                        metadata=replace(known.metadata, subject_name="known-b"))
        for body in ({"expectedVersion": 1, "boms": [serialize_bom(sbom)]},
                     {"expectedVersion": 1, "deltas": [delta_to_dict(diff_boms(known, moved))]}):
            status, answer = http_json("PUT", f"{client.base_url}/sdts/{sdt_id}", body)
            assert (status, answer) == (400, {
                "code": "unknown_thing",
                "message": "update references unknown thing 'known-b'"})
            assert projections == []
            assert (holds(manager), thing_holds(manager),
                    manager._records[sdt_id].things) == before
            descriptor = client.get(sdt_id)
            assert (descriptor["state"], descriptor["representationVersion"]) == ("READY", 1)

    def test_updates_hold_the_things_they_project(self, env, projections):
        """A text update re-projects its subject only and holds the new key,
        letting the old one go; a delta leaves the subject holding nothing
        until a text revises it again."""
        manager, _, _ = env.make_manager()
        texts = linked_texts("revise-a", "revise-b")
        keep = manager.handle_create({"profileId": "profile-a", "boms": texts})["sdtId"]
        sdt_id = manager.handle_create({"profileId": "profile-a", "boms": texts})["sdtId"]
        record, kept = manager._records[sdt_id], manager._records[keep].things
        v1 = parse_bom(texts[0])
        subject = v1.metadata.subject_name
        v2 = replace(v1, version=2, components=v1.components[1:])
        del projections[:]
        manager.handle_update(sdt_id, {"expectedVersion": 1, "boms": [serialize_bom(v2)]})
        assert projections == [[subject]]
        assert record.things[subject] == thing_key(record, subject) != kept[subject]
        assert thing_holds(manager) == {**dict.fromkeys(kept.values(), 2),
                                        kept[subject]: 1, record.things[subject]: 1}
        manager.handle_update(sdt_id, {"expectedVersion": 2,
                                       "deltas": [delta_to_dict(diff_boms(v2, replace(v1, version=3)))]})
        assert record.things[subject] is None
        assert thing_holds(manager) == {**dict.fromkeys(kept.values(), 2), kept[subject]: 1}
        # A later text of the same serial holds the subject's thing again,
        # sharing the other twin's text once the two hold the same documents.
        manager.handle_update(keep, {"expectedVersion": 1,
                                     "boms": [serialize_bom(replace(v1, version=4))]})
        manager.handle_update(sdt_id, {"expectedVersion": 3,
                                       "boms": [serialize_bom(replace(v1, version=4))]})
        assert record.things == manager._records[keep].things
        assert thing_holds(manager) == dict.fromkeys(record.things.values(), 2)
        manager.handle_destroy(keep)
        manager.handle_destroy(sdt_id)
        assert thing_holds(manager) == {}

    def test_locks_are_taken_record_first(self, env, monkeypatch):
        """No record's lock is taken while the registry lock is held, and
        the tables change only under the committing record's lock."""
        manager, client, _ = env.make_manager()
        registry, checked = manager._registry_lock, []

        class Ordered:
            def __init__(self, lock):
                self.lock = lock

            def __enter__(self):
                assert not registry._is_owned()
                checked.append(self)
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

            def _is_owned(self):
                return self.lock._is_owned()

        record_type, commit = manager_core._SdtRecord, manager._commit

        def ordered_record(**fields):
            record = record_type(**fields)
            record.lock = Ordered(record.lock)
            return record

        def committing(record, *args):
            assert record.lock._is_owned()
            return commit(record, *args)

        monkeypatch.setattr(manager_core, "_SdtRecord", ordered_record)
        monkeypatch.setattr(manager, "_commit", committing)
        texts = linked_texts("order-a")
        first = client.create("profile-a", texts)["sdtId"]
        second = client.create("profile-a", texts)["sdtId"]
        v1 = parse_bom(texts[0])
        client.update(first, 1, bom_texts=[serialize_bom(replace(v1, version=2))])
        client.footprint(second)
        client.destroy(first)
        client.destroy(second)
        assert len(checked) >= 6 and thing_holds(manager) == {}


class UnsharedManager(SdtManager):
    """The manager without its table: every text is parsed."""

    def _parse_boms(self, texts, **kwargs):
        shared, self._shared = self._shared, {}
        try:
            return super()._parse_boms(texts, **kwargs)
        finally:
            self._shared = shared


HOSTS = ("prop-a", "prop-b")


def revision(host, kind, version):
    """Version `version` of one of a host's two documents; each version
    names one content."""
    bom = host_boms(host)[kind]
    if kind == 0 and version % 2 == 0:
        bom = replace(bom, components=bom.components[1:])
    return replace(bom, version=version)


HOST_SETS = st.sampled_from([HOSTS[:1], HOSTS, HOSTS[1:]])
# A create's second field repeats one of its documents (0 or 1 times).
CREATES = st.tuples(st.just("create"), HOST_SETS, st.integers(0, 1))
UPDATES = st.tuples(st.sampled_from(["text", "delta"]), st.integers(0, 7), st.sampled_from(HOSTS),
                    st.integers(0, 1), st.integers(1, 4))
SHARE_OPS = st.one_of(
    CREATES,
    UPDATES,
    UPDATES,
    st.tuples(st.sampled_from(["stale", "destroy"]), st.integers(0, 7)),
    st.tuples(st.just("garbled"), st.integers(0, 7), st.integers(0, 400)),
)


VOLATILE = ("sdtId", "createdAt", "updatedAt", "endpoint")


class TestSharedDocumentsProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.just("create"), HOST_SETS, st.just(0)), st.lists(SHARE_OPS, max_size=12))
    def test_the_table_changes_no_answer(self, first, ops):
        """Creates and updates answer the same, leave the same descriptors
        and give the same thing texts with the table as on managers that
        parse every text and share nothing; the thing texts are the
        oracle's, and the table counts the live twins holding each text."""
        shared = SdtManager(runtimes=[_PROP_ENV.runtime])
        references: list[SdtManager] = []  # one per twin
        ids: list[tuple[str, str]] = []  # (id on `shared`, id on its reference)

        def answer(call, sdt_id=""):
            try:
                doc = call()
            except HttpError as err:
                return err.status, err.code, err.message.replace(sdt_id, "<id>")
            return {k: v for k, v in doc.items() if k not in VOLATILE}

        def things(manager, sdt_id):
            descriptor = manager.get_descriptor(sdt_id)
            if descriptor["state"] != "READY":
                return None
            service = _PROP_ENV.runtime.instance_service(descriptor["endpoint"])
            rep = service.representation()
            return {t: rep.latest(t) for t in rep.thing_ids()}

        def check(index):
            """The twin's descriptor and thing texts on both sides, and the
            table's counts over every twin."""
            (s, r), reference = ids[index], references[index]
            assert answer(lambda: shared.get_descriptor(s)) == answer(
                lambda: reference.get_descriptor(r))
            got = things(shared, s)
            assert got == things(reference, r)
            record = shared._records[s]
            if got is not None:
                assert got == {t: canonical(state) for t, state in
                               thing_states_from_boms(record.boms.values()).items()}
                assert set(got) == set(record.things)
                for subject, key in record.things.items():
                    if key is not None:
                        assert shared._shared_things[key].value == got[subject]
            counts: dict[str, int] = {}
            thing_counts: dict[tuple[str, ...], int] = {}
            for twin in (shared._records[i] for i, _ in ids):
                for serial, text in twin.texts.items():
                    assert shared._shared[text].value is twin.boms[serial]
                    assert twin.boms[serial] == parse_bom(text, strict=False)
                    counts[text] = counts.get(text, 0) + 1
                for subject, key in twin.things.items():
                    assert key == thing_key(twin, subject)
                    if key is not None:
                        thing_counts[key] = thing_counts.get(key, 0) + 1
            assert holds(shared) == counts
            assert thing_holds(shared) == thing_counts

        try:
            for kind, *args in [first, *ops]:
                if kind == "create":
                    texts = linked_texts(*args[0])
                    payload = {"profileId": "profile-a", "boms": texts + texts[1:2] * args[1]}
                    reference = UnsharedManager(runtimes=[_PROP_ENV.runtime])
                    got = [answer(lambda m=m: m.handle_create(payload)) for m in (shared, reference)]
                    assert got[0] == got[1]
                    if isinstance(got[0], dict):
                        references.append(reference)
                        ids.append(tuple(m.list_descriptors()[-1]["sdtId"]
                                         for m in (shared, reference)))
                        check(len(ids) - 1)
                    continue
                if not ids:
                    continue
                index = args[0] % len(ids)
                pair = list(zip((shared, references[index]), ids[index]))
                record = references[index]._records[ids[index][1]]
                version = record.descriptor.representation_version
                if kind == "destroy":
                    payload = None
                elif kind == "stale":
                    payload = {"expectedVersion": version + 1}
                elif kind == "garbled":
                    text = linked_texts(HOSTS[0])[1]
                    cut = args[1] % len(text)
                    payload = {"expectedVersion": version, "boms": [text[:cut] + text[cut + 1:]]}
                elif kind == "text":
                    payload = {"expectedVersion": version, "boms": [serialize_bom(revision(*args[1:]))]}
                else:
                    new = revision(*args[1:])
                    base = record.boms.get(new.serial_number, new)
                    payload = {"expectedVersion": version,
                               "deltas": [delta_to_dict(diff_boms(base, new))]}
                if payload is None:
                    got = [answer(lambda m=m, i=i: m.handle_destroy(i) or {}, i) for m, i in pair]
                else:
                    got = [answer(lambda m=m, i=i: m.handle_update(i, payload), i) for m, i in pair]
                assert got[0] == got[1]
                check(index)
        finally:
            for manager in (shared, *references):
                for descriptor in manager.list_descriptors():
                    manager.handle_destroy(descriptor["sdtId"])
        assert holds(shared) == {} and thing_holds(shared) == {}


def named(texts, positions=None):
    """The create items of these texts: each at `positions` (default: all)
    as its {"sha256": digest}, the others as text."""
    return [{"sha256": text_digest(t)} if positions is None or i in positions else t
            for i, t in enumerate(texts)]


def twin_state(manager, sdt_id):
    """What a twin holds: its documents, their texts and thing keys, its
    thing texts on the instance, and the manager's tables."""
    record = manager._records[sdt_id]
    rep = _PROP_ENV.runtime.instance_service(record.descriptor.endpoint).representation()
    for serial, text in record.texts.items():
        assert manager._shared[text].value is record.boms[serial]
    return (dict(record.boms), dict(record.texts), dict(record.things),
            {t: rep.latest(t) for t in rep.thing_ids()}, holds(manager), thing_holds(manager))


# A create of a payload: the hosts, the SBOM version of each host (version
# 2 drops a component), and the positions it names by digest.
DIGEST_CREATES = st.tuples(st.just("create"), HOST_SETS,
                           st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           st.sets(st.integers(0, 4)), st.booleans())
DIGEST_OPS = st.one_of(
    DIGEST_CREATES,
    DIGEST_CREATES,
    st.tuples(st.just("update"), st.integers(0, 7), st.sampled_from(HOSTS)),
    st.tuples(st.just("destroy"), st.integers(0, 7)),
)


class TestDigestCreates:
    """A create may name a document a live twin holds by the sha256 of its
    text instead of sending the text."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(DIGEST_OPS, min_size=1, max_size=8))
    def test_named_documents_answer_as_their_texts(self, ops):
        """On one manager with live twins, a create that names some of its
        documents by digest answers as the create that sends every text,
        and leaves the same documents, thing texts and table holds. A
        digest no live twin holds is refused, listing the missing digests,
        and changes nothing; sent again with those texts, the create goes
        through."""
        manager = SdtManager(runtimes=[_PROP_ENV.runtime])
        live: list[str] = []
        try:
            for kind, *args in ops:
                if kind == "destroy" and live:
                    manager.handle_destroy(live.pop(args[0] % len(live)))
                elif kind == "update" and live:
                    sdt_id = live[args[0] % len(live)]
                    record = manager._records[sdt_id]
                    serial = document_serial("sbom", args[1])
                    if serial in record.boms:
                        text = serialize_bom(revision(args[1], 0, record.boms[serial].version + 1))
                        manager.handle_update(sdt_id, {
                            "expectedVersion": record.descriptor.representation_version,
                            "boms": [text]})
                elif kind == "create":
                    hosts, versions, positions, keep = args
                    texts = [serialize_bom(b) for b in link_to_profile(
                        [revision(h, 0, v) for h, v in zip(hosts, versions)]
                        + [revision(h, 1, 1) for h in hosts], "profile-a")]
                    items = named(texts, positions)
                    before = holds(manager), thing_holds(manager), manager.list_descriptors()
                    unheld = [text_digest(t) for i, t in enumerate(texts)
                              if i in positions and t not in before[0]]
                    try:
                        mixed = manager.handle_create({"profileId": "profile-a", "boms": items})
                    except HttpError as err:
                        assert unheld
                        assert (err.status, err.code, err.missing) == (
                            409, "unknown_digest", tuple(dict.fromkeys(unheld)))
                        assert (holds(manager), thing_holds(manager),
                                manager.list_descriptors()) == before
                        items = [texts[i] if isinstance(item, dict)
                                 and item["sha256"] in err.missing else item
                                 for i, item in enumerate(items)]
                        mixed = manager.handle_create({"profileId": "profile-a", "boms": items})
                    else:
                        assert not unheld
                    state = twin_state(manager, mixed["sdtId"])
                    manager.handle_destroy(mixed["sdtId"])
                    assert holds(manager) == before[0] and thing_holds(manager) == before[1]
                    full = manager.handle_create({"profileId": "profile-a", "boms": texts})
                    assert {k: v for k, v in mixed.items() if k not in VOLATILE} == {
                        k: v for k, v in full.items() if k not in VOLATILE}
                    assert twin_state(manager, full["sdtId"]) == state
                    if keep:
                        live.append(full["sdtId"])
                    else:
                        manager.handle_destroy(full["sdtId"])
        finally:
            for sdt_id in live:
                manager.handle_destroy(sdt_id)
        assert holds(manager) == {} and thing_holds(manager) == {}
        assert manager._shared._digests == {} and manager._shared._unhashed == {}

    def test_a_destroy_between_resolve_and_commit_keeps_the_holds(self, env, monkeypatch):
        """The create holds the text and Bom its digests resolved to; when a
        destroy of their only holder drops them before the create commits,
        the commit enters them again."""
        manager, _, runtime = env.make_manager()
        texts = linked_texts("resolve-a")
        holder = manager.handle_create({"profileId": "profile-a", "boms": texts})["sdtId"]
        resolved, destroyed = threading.Event(), threading.Event()
        parse = manager._parse_boms

        def resolving(items, **kwargs):
            parsed = parse(items, **kwargs)
            resolved.set()
            assert destroyed.wait(10)
            return parsed

        monkeypatch.setattr(manager, "_parse_boms", resolving)
        created, errors = [], []

        def create():
            try:
                payload = {"profileId": "profile-a", "boms": named(texts)}
                created.append(manager.handle_create(payload))
            except Exception as err:  # reported below
                errors.append(err)

        thread = threading.Thread(target=create)
        thread.start()
        assert resolved.wait(10)
        manager.handle_destroy(holder)
        assert holds(manager) == {} and thing_holds(manager) == {}
        destroyed.set()
        thread.join(timeout=30)
        assert not thread.is_alive() and errors == []
        (descriptor,) = created
        assert descriptor["state"] == "READY"
        record = manager._records[descriptor["sdtId"]]
        assert holds(manager) == dict.fromkeys(texts, 1)
        assert thing_holds(manager) == dict.fromkeys(record.things.values(), 1)
        rep = runtime.instance_service(descriptor["endpoint"]).representation()
        assert {t: rep.latest(t) for t in rep.thing_ids()} == {
            t: canonical(s) for t, s in thing_states_from_boms(map(parse_bom, texts)).items()}
        monkeypatch.setattr(manager, "_parse_boms", parse)
        again = manager.handle_create({"profileId": "profile-a", "boms": named(texts)})
        assert holds(manager) == dict.fromkeys(texts, 2)
        for sdt_id in (descriptor["sdtId"], again["sdtId"]):
            manager.handle_destroy(sdt_id)
        assert holds(manager) == {} and manager._shared._digests == {}

    def test_a_held_text_with_a_lone_surrogate_is_named_too(self, env):
        """JSON can carry a lone surrogate, which UTF-8 cannot encode; the
        text is hashed as it stands, and lookups by digest keep working."""
        manager, client, _ = env.make_manager()
        texts = linked_texts("surrogate-a")
        odd = [texts[0], texts[1].replace('"flask"', '"fl\ud800sk"'), *texts[2:]]
        for payload, expected in ((odd, (201, "READY")), (named(odd), (201, "READY")),
                                  (named(texts), (409, "unknown_digest"))):
            status, answer = http_json("POST", client.base_url + "/sdts",
                                       {"profileId": "profile-a", "boms": payload})
            assert (status, answer.get("state", answer.get("code"))) == expected
        assert holds(manager) == dict.fromkeys(odd, 2)

    def test_refused_digests_change_nothing(self, env):
        manager, client, runtime = env.make_manager(sabotage=True)
        texts = linked_texts("refused-a")
        sdt_id = client.create("profile-a", texts)["sdtId"]
        before = (holds(manager), thing_holds(manager), manager.list_descriptors(),
                  set(runtime.deployed))
        digest = text_digest(texts[1])
        for item in ({"sha256": digest.upper()}, {"sha256": digest[:-1]}, {"sha256": digest + "0"},
                     {"sha256": 5}, {"sha256": digest, "text": texts[1]}, {}, 5, None, [digest]):
            status, answer = http_json("POST", client.base_url + "/sdts",
                                       {"profileId": "profile-a", "boms": [texts[0], item]})
            assert (status, answer["code"]) == (400, "bad_request")
            assert set(answer) == {"code", "message"}
        unknown = text_digest(texts[1] + " ")
        status, answer = http_json("POST", client.base_url + "/sdts", {
            "profileId": "profile-a", "boms": [*named(texts[:2]), {"sha256": unknown}, texts[2]]})
        assert (status, answer["code"], answer["missing"]) == (409, "unknown_digest", [unknown])
        assert set(answer) == {"code", "message", "missing"}
        assert (holds(manager), thing_holds(manager), manager.list_descriptors(),
                set(runtime.deployed)) == before
        # An update still takes texts only.
        status, answer = http_json("PUT", f"{client.base_url}/sdts/{sdt_id}",
                                   {"expectedVersion": 1, "boms": named(texts[1:2])})
        assert (status, answer["code"]) == (400, "invalid_bom")
        assert (holds(manager), manager.list_descriptors()) == (before[0], before[2])

    def test_a_client_resends_what_the_manager_lacks(self, env, monkeypatch):
        """A HeldText goes as its digest: one miss costs one more request
        with the missing texts, and a digest lost to a destroy in between
        costs a third request with every text."""
        manager, client, _ = env.make_manager()
        one, two = linked_texts("resend-a"), linked_texts("resend-a", "resend-b")
        three = linked_texts("resend-a", "resend-b", "resend-c")
        first = client.create("profile-a", one)["sdtId"]
        bodies = []
        handle_create = manager.handle_create

        def recording(payload, span=None):
            bodies.append(payload["boms"])
            return handle_create(payload, span)

        monkeypatch.setattr(manager, "handle_create", recording)
        held = [HeldText(t) for t in two]
        second = client.create("profile-a", held)["sdtId"]
        kept = {i for i, t in enumerate(two) if t in one}
        assert bodies == [named(two), named(two, kept)]
        assert held == two and all(type(t) is HeldText for t in held)
        client.destroy(first)
        del bodies[:]

        def destroying(payload, span=None):
            if len(bodies) == 1:
                manager.handle_destroy(second)
            return recording(payload, span)

        monkeypatch.setattr(manager, "handle_create", destroying)
        third = client.create("profile-a", [HeldText(t) for t in three])
        kept = {i for i, t in enumerate(three) if t in two}
        assert bodies == [named(three), named(three, kept), three]
        assert third["state"] == "READY" and holds(manager) == dict.fromkeys(three, 1)
        del bodies[:]
        client.create("profile-a", three)
        assert bodies == [three]
