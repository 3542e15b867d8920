"""Deployment benchmark harness: timing discipline, stats, failure policy."""

import csv
import gc
import io
import json
import statistics

import pytest

from twinaudit.bench import BenchError, BenchResult, run_benchmark
from twinaudit.bom import serialize_bom
from twinaudit.collect import HostSnapshot, scan_host
from twinaudit.fixtures.generator import generate
from twinaudit.forge import build_cbom, build_graph, build_sbom, link_to_profile
from twinaudit.jsonhttp import RequestRejected, TransportUnavailable
from twinaudit.manager import ManagerClient

from .test_ams import Env

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
def payload(tmp_path_factory):
    """(profile_id, serialized documents) for the single-host estate."""
    root = tmp_path_factory.mktemp("bench-fixture")
    manifest = generate("minimal", 3, root)
    docs = []
    for ref in manifest["snapshots"].values():
        bundle = scan_host(HostSnapshot.open(ref))
        docs.append(build_sbom(bundle.host, bundle.records))
        docs.append(build_cbom(bundle.host, build_graph(bundle.records), bundle.records))
    linked = link_to_profile(docs, manifest["profile_id"])
    return manifest["profile_id"], [serialize_bom(b) for b in linked]


class FlakyClient(ManagerClient):
    """Rejects create on chosen zero-based measured iterations."""

    def __init__(self, base_url, fail_on):
        super().__init__(base_url)
        self.fail_on = set(fail_on)
        self.calls = -1  # warmup consumes call 0 with warmup=1

    def create(self, profile_id, bom_texts, options=None):
        self.calls += 1
        if self.calls - 1 in self.fail_on:
            raise RequestRejected(503, "injected", "scheduled failure")
        return super().create(profile_id, bom_texts, options=options)


class TestRunBenchmark:
    def test_result_shape(self, env, payload):
        _, client = env.make_manager_client()
        profile_id, texts = payload
        result = run_benchmark(client, profile_id, texts, iterations=5)
        assert [index for index, _ in result.iterations] == [0, 1, 2, 3, 4]
        assert all(latency > 0 for _, latency in result.iterations)
        assert result.failures == []
        assert result.footprint_bytes > 0
        body = {"profileId": profile_id, "boms": texts}
        assert result.payload_bytes == len(json.dumps(body).encode("utf-8"))

    def test_cycles_leave_no_instances_behind(self, env, payload):
        _, client = env.make_manager_client()
        profile_id, texts = payload
        run_benchmark(client, profile_id, texts, iterations=3)
        # destroyed descriptors remain listed as tombstones; none stay live
        assert {item["state"] for item in client.list()} == {"DESTROYED"}

    def test_summary_recomputes_from_iterations(self, env, payload):
        _, client = env.make_manager_client()
        profile_id, texts = payload
        result = run_benchmark(client, profile_id, texts, iterations=6)
        values = result.latencies()
        summary = result.summary()
        assert summary["mean"] == statistics.fmean(values)
        assert summary["median"] == statistics.median(values)
        assert summary["min"] == min(values)
        assert summary["max"] == max(values)
        expected_cv = statistics.pstdev(values) / statistics.fmean(values)
        assert summary["coefficient_of_variation"] == expected_cv

    def test_cdf_sorted_and_monotone(self, env, payload):
        _, client = env.make_manager_client()
        profile_id, texts = payload
        result = run_benchmark(client, profile_id, texts, iterations=5)
        points = result.cdf()
        latencies = [latency for latency, _ in points]
        fractions = [fraction for _, fraction in points]
        assert latencies == sorted(latencies)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        assert len(points) == 5

    def test_csv_round_trips_exactly(self, env, payload):
        _, client = env.make_manager_client()
        profile_id, texts = payload
        result = run_benchmark(client, profile_id, texts, iterations=4)
        rows = list(csv.reader(io.StringIO(result.to_csv())))
        assert rows[0] == ["iteration", "latency_seconds"]
        parsed = [(int(index), float(latency)) for index, latency in rows[1:]]
        assert parsed == result.iterations  # str(float) round-trips exactly

    def test_single_iteration_degenerate_summary(self, env, payload):
        _, client = env.make_manager_client()
        profile_id, texts = payload
        result = run_benchmark(client, profile_id, texts, iterations=1)
        summary = result.summary()
        assert summary["mean"] == summary["min"] == summary["max"]
        assert summary["coefficient_of_variation"] == 0.0

    def test_zero_iterations_rejected(self, env, payload):
        _, client = env.make_manager_client()
        profile_id, texts = payload
        with pytest.raises(ValueError):
            run_benchmark(client, profile_id, texts, iterations=0)

    def test_failed_iteration_recorded_excluded_and_warned(self, env, payload):
        _, client = env.make_manager_client()
        profile_id, texts = payload
        flaky = FlakyClient(client.base_url, fail_on={2})
        with pytest.warns(UserWarning, match="iteration 2 failed"):
            result = run_benchmark(flaky, profile_id, texts, iterations=20)
        assert [index for index, _ in result.failures] == [2]
        assert [index for index, _ in result.iterations] == [
            i for i in range(20) if i != 2
        ]
        assert {item["state"] for item in flaky.list()} == {"DESTROYED"}

    def test_too_many_failures_abort(self, env, payload):
        _, client = env.make_manager_client()
        profile_id, texts = payload
        flaky = FlakyClient(client.base_url, fail_on={1, 3, 5})
        with pytest.warns(UserWarning):
            with pytest.raises(BenchError, match="of 10 iterations failed"):
                run_benchmark(flaky, profile_id, texts, iterations=10)

    def test_unreachable_manager_aborts(self, payload):
        profile_id, texts = payload
        client = ManagerClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.warns(UserWarning):
            with pytest.raises(BenchError):
                run_benchmark(client, profile_id, texts, iterations=2, warmup=0)

    def test_warmup_not_measured(self, env, payload):
        _, client = env.make_manager_client()
        profile_id, texts = payload
        calls = []

        class CountingClient(ManagerClient):
            def create(self, profile_id, bom_texts, options=None):
                calls.append("create")
                return super().create(profile_id, bom_texts, options=options)

        counting = CountingClient(client.base_url)
        result = run_benchmark(counting, profile_id, texts, iterations=3, warmup=2)
        assert len(calls) == 5
        assert len(result.iterations) == 3

    def test_warmup_runs_after_the_collection(self, env, payload, monkeypatch):
        # The collection leaves caches cold; warm-up creates after it keep
        # that cost out of the first measured iteration.
        _, client = env.make_manager_client()
        profile_id, texts = payload
        events = []
        collect = gc.collect

        def recording_collect(*args):
            events.append("collect")
            return collect(*args)

        class RecordingClient(ManagerClient):
            def create(self, profile_id, bom_texts, options=None):
                events.append("create" if not gc.isenabled() else "create-gc-on")
                return super().create(profile_id, bom_texts, options=options)

        monkeypatch.setattr(gc, "collect", recording_collect)
        gc_was_enabled = gc.isenabled()
        run_benchmark(
            RecordingClient(client.base_url), profile_id, texts, iterations=2, warmup=2
        )
        assert events == ["collect"] + ["create"] * 4
        assert gc.isenabled() == gc_was_enabled

    def test_build_payload_runs_inside_every_iteration(self, env, payload):
        _, client = env.make_manager_client()
        profile_id, texts = payload
        built = []

        def build():
            built.append(1)
            return texts

        result = run_benchmark(
            client, profile_id, texts, iterations=4, build_payload=build
        )
        assert len(built) == 4  # warmup reuses the pre-built payload
        assert len(result.iterations) == 4


class TestBenchResult:
    def test_empty_summary_rejected(self):
        result = BenchResult(iterations=[], payload_bytes=0, footprint_bytes=0)
        with pytest.raises(BenchError):
            result.summary()
