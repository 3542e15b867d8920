"""Twin instance: representation history, access policy, service routes."""

import http.client
import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinaudit.bom import BomKind, BomLink
from twinaudit.forge import (
    build_cbom,
    build_graph,
    build_sbom,
    document_serial,
    link_to_profile,
    profile_manifest,
)
from twinaudit.instance import (
    AccessPolicy,
    InstanceService,
    RepresentationError,
    Scope,
    StoredRepresentation,
    UnknownThing,
    VersionConflict,
    thing_texts_from_boms,
)
from twinaudit.jsonhttp import ApiRequest, HttpError, JsonText, SharedJsonServer, http_json

from .strategies import boms, order_trap_documents
from .test_forge import algo_record, certificate_record, software_record
from .thing_oracle import canonical, thing_states_from_boms


def host_boms(host="web-01"):
    sbom = build_sbom(
        host,
        [
            software_record(host, "flask", "2.0.1", "dependency", "requirements.txt"),
            software_record(host, "jinja2", "2.11.2", "dependency", "requirements.txt"),
        ],
    )
    records = [algo_record(host, "AES-256", "AES"), certificate_record(host)]
    cbom = build_cbom(host, build_graph(records), records)
    return [sbom, cbom]


def linked_set(host="web-01", profile="profile-a"):
    return link_to_profile(host_boms(host), profile)


def projected_states(documents):
    """Each thing's projected text, decoded as a client would."""
    return {thing: json.loads(text) for thing, text in thing_texts_from_boms(documents).items()}


def unique_documents(documents):
    """The first document of each (subject kind, subject, kind)."""
    unique = {}
    for bom in documents:
        meta = bom.metadata
        unique.setdefault((meta.subject_kind, meta.subject_name, bom.kind), bom)
    return list(unique.values())


class TestThingStates:
    def test_single_host_set_yields_host_and_manifest_things(self):
        states = projected_states(linked_set())
        assert set(states) == {"web-01", "profile-a"}
        assert states["web-01"]["id"] == "web-01"
        assert states["profile-a"]["properties"]["documents"]

    def test_every_component_reachable_exactly_once(self):
        boms = linked_set()
        states = projected_states(boms)
        found = []
        for state in states.values():
            for key, entries in state["properties"].items():
                if key == "documents":
                    continue
                if isinstance(entries, list):
                    found.extend(
                        (e["name"], e.get("version", "")) for e in entries if "name" in e
                    )
        expected = [(c.name, c.version) for b in boms for c in b.components]
        assert sorted(found) == sorted(expected)

    def test_certificate_property_count(self):
        states = projected_states(host_boms())
        assert len(states["web-01"]["properties"]["certificates"]) == 1

    def test_links_rendered(self):
        states = projected_states(linked_set())
        assert all(link.startswith("urn:cdx:") for link in states["profile-a"]["links"])
        assert len(states["profile-a"]["links"]) == 2
        assert states["web-01"]["links"] == []

    def test_links_of_a_700_host_manifest(self):
        """A 700-host run's manifest holds 1,401 links; a profile's SBOM and
        CBOM documents that share links list each once, sorted, as the
        list-membership dedup this replaced did."""
        links = tuple(
            BomLink(target_serial=document_serial("host", f"h{i}"), target_version=1 + i % 3)
            for i in range(1401)
        )
        manifest = profile_manifest("profile-big", links)
        overlap = replace(manifest, kind=BomKind.CBOM, links=links[700:] + links[:10])
        expected = []
        for link in manifest.links + overlap.links:
            if link.render() not in expected:
                expected.append(link.render())
        state = projected_states([manifest, overlap])["profile-big"]
        assert json.dumps(state["links"]) == json.dumps(sorted(expected))
        assert len(state["links"]) == 1401

    def test_duplicate_host_document_rejected(self):
        sbom = host_boms()[0]
        with pytest.raises(
            RepresentationError, match="^duplicate SBOM document for subject 'web-01'$"
        ):
            thing_texts_from_boms([sbom, sbom])

    def test_empty_rejected(self):
        with pytest.raises(RepresentationError):
            StoredRepresentation.build({})

    def test_vulnerability_projection(self):
        import json as _json

        from twinaudit.forge import enrich_with_vulnerabilities
        from twinaudit.vulnstore import VulnerabilityStore

        store = VulnerabilityStore()
        store.ingest_lines(
            [
                _json.dumps(
                    {
                        "cve": "CVE-2023-30861",
                        "summary": "cookie issue",
                        "cvss": {"score": 7.5, "vector": "V"},
                        "affects": [{"name": "flask", "introduced": "0", "fixed": "2.3.3"}],
                    }
                )
            ]
        )
        sbom = enrich_with_vulnerabilities(host_boms()[0], store)
        states = projected_states([sbom])
        vulns = states["web-01"]["properties"]["vulnerabilities"]
        assert [v["cve"] for v in vulns] == ["CVE-2023-30861"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(boms(max_components=4), max_size=4), order_trap_documents())
    def test_property_lists_follow_json_key_order(self, documents, traps):
        """Exported property lists keep the order of their sort_keys JSON text."""
        for state in projected_states(unique_documents(traps + documents)).values():
            for entries in state["properties"].values():
                keys = [json.dumps(item, sort_keys=True) for item in entries]
                assert keys == sorted(keys)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(boms(max_components=4), max_size=4), order_trap_documents())
    def test_texts_equal_the_canonical_dict_projection(self, documents, traps):
        """Each thing's text is the canonical encoding of the plain dict
        projection's state, byte for byte."""
        unique = unique_documents(traps + documents)
        texts = thing_texts_from_boms(unique)
        states = thing_states_from_boms(unique)
        assert list(texts) == list(states)
        for thing, text in texts.items():
            assert isinstance(text, JsonText)
            assert text == canonical(states[thing])


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def tick(self, step=1.0):
        self.now += step
        return self.now

    def __call__(self):
        return self.now


def simple_states(marker: int) -> dict:
    return {
        "host-a": {"id": "host-a", "title": "a", "properties": {"n": marker}, "links": []},
        "host-b": {"id": "host-b", "title": "b", "properties": {"n": 0}, "links": []},
    }


class TestStoredRepresentation:
    def test_build_initializes_revision_one(self):
        rep = StoredRepresentation.build(simple_states(1))
        assert rep.current_version == 1
        assert rep.thing_ids() == ["host-a", "host-b"]
        assert rep.history("host-a") [0][0] == 1

    def test_update_appends_only_changed_things(self):
        rep = StoredRepresentation.build(simple_states(1))
        revised = rep.apply_update(simple_states(2), 2)
        assert revised == 1
        assert len(rep.history("host-a")) == 2
        assert len(rep.history("host-b")) == 1
        assert rep.current_version == 2

    def test_identical_update_appends_nothing(self):
        rep = StoredRepresentation.build(simple_states(1))
        assert rep.apply_update(simple_states(1), 2) == 0
        assert rep.current_version == 2
        assert len(rep.history("host-a")) == 1

    def test_version_gap_rejected(self):
        rep = StoredRepresentation.build(simple_states(1))
        with pytest.raises(VersionConflict):
            rep.apply_update(simple_states(2), 3)
        assert rep.current_version == 1

    def test_unknown_thing_rejected_atomically(self):
        rep = StoredRepresentation.build(simple_states(1))
        bad = simple_states(2)
        bad["host-z"] = {"id": "host-z", "title": "z", "properties": {}, "links": []}
        with pytest.raises(UnknownThing):
            rep.apply_update(bad, 2)
        # nothing applied, not even the known things
        assert rep.current_version == 1
        assert len(rep.history("host-a")) == 1
        assert json.loads(rep.latest("host-a"))["properties"]["n"] == 1

    def test_old_revisions_stay_readable(self):
        rep = StoredRepresentation.build(simple_states(1))
        rep.apply_update(simple_states(2), 2)
        rep.apply_update(simple_states(3), 3)
        assert json.loads(rep.at_revision("host-a", 1))["properties"]["n"] == 1
        assert json.loads(rep.at_revision("host-a", 2))["properties"]["n"] == 2
        assert json.loads(rep.at_revision("host-a", 3))["properties"]["n"] == 3
        with pytest.raises(UnknownThing):
            rep.at_revision("host-a", 4)

    def test_timestamp_query(self):
        clock = FakeClock()
        rep = StoredRepresentation.build(simple_states(1), clock=clock)
        clock.tick(10)
        rep.apply_update(simple_states(2), 2)
        assert json.loads(rep.at_time("host-a", 100.0))["properties"]["n"] == 1
        assert json.loads(rep.at_time("host-a", 105.0))["properties"]["n"] == 1
        assert json.loads(rep.at_time("host-a", 110.0))["properties"]["n"] == 2
        with pytest.raises(UnknownThing):
            rep.at_time("host-a", 99.9)

    def test_caller_mutation_cannot_corrupt_history(self):
        states = simple_states(1)
        rep = StoredRepresentation.build(states)
        states["host-a"]["properties"]["n"] = 999
        assert json.loads(rep.latest("host-a"))["properties"]["n"] == 1
        read = json.loads(rep.latest("host-a"))
        read["properties"]["n"] = 888
        assert json.loads(rep.latest("host-a"))["properties"]["n"] == 1

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(["host-a", "host-b"]),
                st.integers(min_value=0, max_value=5),
                max_size=2,
            ),
            max_size=12,
        )
    )
    def test_history_immutability_property(self, updates):
        """Stored texts already read never change under further updates, nor
        when a decoded read or a pushed dict is mutated; a re-push of the same
        states with keys in another order appends no revision."""
        rep = StoredRepresentation.build(simple_states(0))
        frozen: dict[tuple[str, int], str] = {}
        version = 1
        for update in updates:
            states = {
                tid: {"id": tid, "title": tid[-1], "properties": {"n": n}, "links": []}
                for tid, n in update.items()
            }
            version += 1
            rep.apply_update(states, version)
            reordered = {
                tid: {"links": [], "properties": {"n": n}, "title": tid[-1], "id": tid}
                for tid, n in reversed(update.items())
            }
            before = {tid: rep.history(tid) for tid in rep.thing_ids()}
            version += 1
            assert rep.apply_update(reordered, version) == 0
            assert {tid: rep.history(tid) for tid in rep.thing_ids()} == before
            for state in states.values():
                state["properties"]["n"] = -1
                state["links"].append("mutated")
            for tid in rep.thing_ids():
                json.loads(rep.latest(tid))["properties"]["n"] = -2
                for revision, _ in rep.history(tid):
                    text = rep.at_revision(tid, revision)
                    key = (tid, revision)
                    if key in frozen:
                        assert text == frozen[key]
                    else:
                        frozen[key] = text
                    snap = json.loads(text)
                    snap["properties"]["n"] = -3
                    snap["links"].append("mutated")
        for tid in rep.thing_ids():
            revisions = [r for r, _ in rep.history(tid)]
            assert revisions == list(range(1, len(revisions) + 1))


def make_service(states=None, tokens=None):
    policy = AccessPolicy(
        tokens
        if tokens is not None
        else {
            "tok-read": (Scope.READ,),
            "tok-write": (Scope.WRITE_REPRESENTATION,),
            "tok-admin": (Scope.ADMIN,),
        }
    )
    service = InstanceService("a" * 32, policy)
    if states is not None:
        put(service, "tok-write", {"version": 1, "things": states})
    return service


def call(service, method, path, token=None, query=None, body=None):
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    try:
        status, payload = service.dispatch(
            ApiRequest(method=method, path=path, query=query or {}, headers=headers, body=body)
        )
    except HttpError as err:
        return err.status, {"code": err.code, "message": err.message}
    # A thing state comes as its stored JSON text; decode it as a client would.
    if isinstance(payload, JsonText):
        payload = json.loads(payload)
    return status, payload


def put(service, token, body):
    return call(service, "PUT", "/representation", token=token, body=body)


class TestInstanceService:
    def test_health_unauthenticated(self):
        status, payload = call(make_service(), "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"

    def test_default_deny_unknown_token(self):
        service = make_service(simple_states(1))
        status, payload = call(service, "GET", "/things", token="nope")
        assert (status, payload["code"]) == (401, "unauthorized")
        status, payload = call(service, "GET", "/things")
        assert status == 401

    def test_scope_enforcement(self):
        service = make_service(simple_states(1))
        assert call(service, "GET", "/things", token="tok-read")[0] == 200
        # READ token cannot write
        status, payload = put(service, "tok-read", {"version": 2, "things": {}})
        assert (status, payload["code"]) == (403, "forbidden")
        # WRITE token cannot read things
        assert call(service, "GET", "/things", token="tok-write")[0] == 403
        # ADMIN export needs ADMIN
        assert call(service, "GET", "/representation", token="tok-read")[0] == 403
        assert call(service, "GET", "/representation", token="tok-admin")[0] == 200

    def test_every_route_passes_through_authorize(self):
        service = make_service(simple_states(1))
        before = len(service.policy.decisions)
        routes = [
            ("GET", "/things", None),
            ("GET", "/things/host-a", None),
            ("GET", "/things/host-a/history", None),
            ("GET", "/representation", None),
            ("PUT", "/representation", {"version": 2, "things": {}}),
        ]
        for method, path, body in routes:
            call(service, method, path, token="tok-read", body=body)
        assert len(service.policy.decisions) == before + len(routes)

    def test_thing_query_revisions(self):
        service = make_service(simple_states(1))
        put(service, "tok-write", {"version": 2, "things": simple_states(2)})
        status, latest = call(service, "GET", "/things/host-a", token="tok-read")
        assert (status, latest["properties"]["n"]) == (200, 2)
        status, old = call(
            service, "GET", "/things/host-a", token="tok-read", query={"rev": "1"}
        )
        assert (status, old["properties"]["n"]) == (200, 1)
        assert call(service, "GET", "/things/host-a", token="tok-read", query={"rev": "9"})[0] == 404
        assert call(service, "GET", "/things/nope", token="tok-read")[0] == 404
        assert (
            call(service, "GET", "/things/host-a", token="tok-read", query={"rev": "x"})[0] == 400
        )

    def test_history_route(self):
        service = make_service(simple_states(1))
        put(service, "tok-write", {"version": 2, "things": simple_states(2)})
        status, payload = call(service, "GET", "/things/host-a/history", token="tok-read")
        assert status == 200
        assert [r["revision"] for r in payload["revisions"]] == [1, 2]

    def test_put_version_conflicts(self):
        service = make_service()
        # first push must be version 1
        status, payload = put(service, "tok-write", {"version": 3, "things": simple_states(1)})
        assert (status, payload["code"]) == (409, "version_conflict")
        assert put(service, "tok-write", {"version": 1, "things": simple_states(1)})[0] == 200
        status, payload = put(service, "tok-write", {"version": 5, "things": simple_states(2)})
        assert (status, payload["code"]) == (409, "version_conflict")

    def test_put_unknown_thing(self):
        service = make_service(simple_states(1))
        bad = {"host-z": {"id": "host-z", "title": "z", "properties": {}, "links": []}}
        status, payload = put(service, "tok-write", {"version": 2, "things": bad})
        assert (status, payload["code"]) == (400, "unknown_thing")

    def test_non_object_states_rejected_atomically(self):
        service = make_service()
        status, payload = put(service, "tok-write", {"version": 1, "things": {"h": 5, "g": [1]}})
        assert (status, payload["code"]) == (400, "invalid_representation")
        assert call(service, "GET", "/things", token="tok-read")[0] == 404
        assert put(service, "tok-write", {"version": 1, "things": simple_states(1)})[0] == 200
        bad = simple_states(2)
        bad["host-b"] = "state"
        status, payload = put(service, "tok-write", {"version": 2, "things": bad})
        assert (status, payload["code"]) == (400, "invalid_representation")
        # nothing applied, not even the valid host-a state or the version
        rep = service.representation()
        assert rep.current_version == 1
        assert len(rep.history("host-a")) == 1
        status, thing = call(service, "GET", "/things/host-a", token="tok-read")
        assert (status, thing["properties"]["n"]) == (200, 1)

    def test_things_before_representation(self):
        service = make_service()
        status, payload = call(service, "GET", "/things", token="tok-read")
        assert (status, payload["code"]) == (404, "no_representation")

    def test_wot_shape(self):
        states = thing_texts_from_boms(linked_set())
        service = make_service(states)
        _, thing = call(service, "GET", "/things/web-01", token="tok-read")
        assert set(thing) == {"id", "title", "properties", "links"}


def canonical_bytes(state):
    """The canonical text a revision is stored as, encoded independently."""
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode("ascii")


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
THINGS = ("host-a", "host-b")


def served_state(thing_id, value):
    return {"id": thing_id, "title": thing_id[-1], "properties": {"v": value}, "links": []}


class TestServedThingReads:
    """Thing reads over a live server are the stored canonical text."""

    @settings(max_examples=60, deadline=None)
    @given(
        first=st.fixed_dictionaries({tid: json_values for tid in THINGS}),
        updates=st.lists(st.dictionaries(st.sampled_from(THINGS), json_values), max_size=5),
    )
    def test_reads_are_the_stored_text_byte_for_byte(self, first, updates):
        service = make_service()
        prefix = f"/sdt-{next(self.mounts)}"
        url = self.server.mount(prefix, service)
        host, port = self.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        auth = {"Authorization": "Bearer tok-read"}

        def raw_get(path):
            connection.request("GET", prefix + path, headers=auth)
            response = connection.getresponse()
            assert response.getheader("Content-Type") == "application/json"
            return response.status, response.read()

        try:
            # Each thing's pushed states, one per revision the model expects.
            pushed = {tid: [] for tid in THINGS}
            for version, update in enumerate([first, *updates], start=1):
                states = {tid: served_state(tid, value) for tid, value in update.items()}
                status, _ = http_json(
                    "PUT", url + "/representation", {"version": version, "things": states},
                    token="tok-write",
                )
                assert status == 200
                for tid, state in states.items():
                    if not pushed[tid] or canonical_bytes(state) != canonical_bytes(pushed[tid][-1]):
                        pushed[tid].append(state)

            rep = service.representation()
            for tid in THINGS:
                history = rep.history(tid)
                assert [revision for revision, _ in history] == list(range(1, len(pushed[tid]) + 1))
                reads = [(f"/things/{tid}", pushed[tid][-1])]
                for revision, timestamp in history:
                    state = pushed[tid][revision - 1]
                    assert rep.at_revision(tid, revision) == canonical_bytes(state).decode("ascii")
                    # ?at=T answers the newest revision stamped at or before T.
                    newest = max(r for r, t in history if t <= timestamp)
                    reads += [
                        (f"/things/{tid}?rev={revision}", state),
                        (f"/things/{tid}?at={timestamp!r}", pushed[tid][newest - 1]),
                    ]
                for path, state in reads:
                    status, body = raw_get(path)
                    assert status == 200
                    assert body == canonical_bytes(state)
                    assert json.loads(body) == state
                    # Every read of one revision is the same bytes.
                    assert raw_get(path)[1] == body
        finally:
            connection.close()
            self.server.unmount(prefix)

    @pytest.mark.parametrize("query,message", [
        ("rev=", "rev must be an integer"),
        ("at=", "at must be a finite timestamp"),
        ("at=nan", "at must be a finite timestamp"),
        ("at=inf", "at must be a finite timestamp"),
        ("at=-inf", "at must be a finite timestamp"),
        ("rev=1&rev=2", "a query parameter is repeated"),
        ("at=1&at=1", "a query parameter is repeated"),
    ], ids=["blank-rev", "blank-at", "nan-at", "inf-at", "minus-inf-at", "repeated-rev",
            "repeated-at"])
    def test_a_bad_query_is_a_400_not_the_latest_state(self, query, message):
        service = make_service(simple_states(1))
        prefix = f"/sdt-{next(self.mounts)}"
        url = self.server.mount(prefix, service)
        try:
            assert http_json("GET", f"{url}/things/host-a?rev=1", token="tok-read")[0] == 200
            status, body = http_json("GET", f"{url}/things/host-a?{query}", token="tok-read")
            assert (status, body) == (400, {"code": "bad_request", "message": message})
        finally:
            self.server.unmount(prefix)

    def test_the_authorization_field_name_has_any_case(self):
        """HTTP field names are case-insensitive (RFC 9110 section 5.1)."""
        service = make_service(simple_states(1))
        prefix = f"/sdt-{next(self.mounts)}"
        self.server.mount(prefix, service)
        host, port = self.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)

        def status(headers):
            connection.request("GET", prefix + "/things/host-a", headers=headers)
            response = connection.getresponse()
            body = json.loads(response.read())
            return response.status, body.get("code")

        try:
            for name in ("Authorization", "authorization", "AUTHORIZATION"):
                assert status({name: "Bearer tok-read"}) == (200, None), name
            assert status({}) == (401, "unauthorized")
            assert status({"Authorisation": "Bearer tok-read"}) == (401, "unauthorized")
        finally:
            connection.close()
            self.server.unmount(prefix)

    def test_dispatch_answers_a_thing_as_json_text(self):
        service = make_service(simple_states(1))
        request = ApiRequest(
            method="GET", path="/things/host-a", headers={"Authorization": "Bearer tok-read"}
        )
        status, payload = service.dispatch(request)
        assert status == 200 and isinstance(payload, JsonText)
        assert payload == canonical_bytes(simple_states(1)["host-a"]).decode("ascii")

    def test_a_state_sent_as_json_text_over_http_is_refused(self):
        """Only the in-process projection hands over finished text: a state
        that arrives as a JSON string is refused, on build and on update."""
        service = make_service()
        prefix = f"/sdt-{next(self.mounts)}"
        url = self.server.mount(prefix, service) + "/representation"
        text = canonical_bytes(served_state("host-a", 1)).decode("ascii")
        try:
            for version in (1, 2):
                status, body = http_json(
                    "PUT", url, {"version": version, "things": {"host-a": text}}, token="tok-write"
                )
                assert (status, body["code"]) == (400, "invalid_representation")
                assert body["message"] == "state of thing 'host-a' must be an object"
                if version == 1:
                    assert service.representation() is None
                    status, _ = http_json(
                        "PUT", url, {"version": 1, "things": {"host-a": json.loads(text)}},
                        token="tok-write",
                    )
                    assert status == 200
            assert service.representation().current_version == 1
            assert service.representation().latest("host-a") == text
        finally:
            self.server.unmount(prefix)

    @classmethod
    def setup_class(cls):
        cls.server = SharedJsonServer().start()
        cls.mounts = itertools.count()

    @classmethod
    def teardown_class(cls):
        cls.server.stop()


class TestAccessPolicy:
    def test_totality_over_arbitrary_tokens(self):
        policy = AccessPolicy({"t": (Scope.READ,)})
        for token, scope in itertools.product(
            [None, "", "t", "T", "zzz", "t" * 500], list(Scope)
        ):
            allowed = policy.authorize(token, scope)
            assert allowed == (token == "t" and scope == Scope.READ)

    def test_grant_requires_token(self):
        with pytest.raises(ValueError):
            AccessPolicy({"": (Scope.READ,)})
