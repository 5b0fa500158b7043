"""End-to-end observability: trace trees, /debug/traces, Prometheus, logs.

The acceptance path for PR 9: a query served by a two-executor gateway
with ``explain="trace"`` must come back with ONE span tree — HTTP root,
broker, planner route, gateway scatter, and per-executor partition child
spans — all sharing a trace id, all with non-negative durations.
"""

from __future__ import annotations

import io
import json
from urllib import error, request

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.obs import validate_prometheus
from repro.service import DatasetRegistry, ServiceClient, ServiceError, make_service


def small_dataset() -> IncompleteDataset:
    rng = np.random.default_rng(23)
    sets = [rng.normal(size=(m, 2)) for m in (2, 3, 1, 2, 3, 1, 2, 2)]
    return IncompleteDataset(sets, [0, 1, 0, 1, 1, 0, 1, 0])


def get_raw(server, path: str):
    """GET, returning (status, content_type, body bytes)."""
    try:
        with request.urlopen(server.url + path, timeout=10) as response:
            return response.status, response.headers, response.read()
    except error.HTTPError as exc:
        return exc.code, exc.headers, exc.read()


def walk(record: dict):
    yield record
    for child in record.get("children", ()):
        yield from walk(child)


def span_names(record: dict) -> set[str]:
    return {span["name"] for span in walk(record)}


def assert_tree_consistent(record: dict) -> None:
    trace_id = record["trace_id"]
    for span in walk(record):
        assert span["trace_id"] == trace_id, f"{span['name']} left the trace"
        assert span["duration_ms"] >= 0.0, f"{span['name']} ran backwards"
        assert span["status"] in ("ok", "error")
    # every child's parent_id is its parent's span_id
    for span in walk(record):
        for child in span.get("children", ()):
            assert child["parent_id"] == span["span_id"]


# ---------------------------------------------------------------------------
# Single-process service
# ---------------------------------------------------------------------------


@pytest.fixture()
def service():
    registry = DatasetRegistry()
    registry.register("d", small_dataset(), k=2)
    server = make_service(registry, max_batch=8)
    client = ServiceClient(server.url)
    client.wait_until_ready()
    yield server, client
    server.close()


class TestExplainTrace:
    def test_query_embeds_one_consistent_tree(self, service):
        _, client = service
        response = client.query("d", point=[0.0, 0.0], explain="trace")
        trace = response["trace"]
        assert trace["name"] == "http.request"
        assert trace["attributes"]["path"] == "/query"
        assert_tree_consistent(trace)
        names = span_names(trace)
        assert {"http.request", "broker.query", "planner.route"} <= names
        # the HTTP root is still open while the response serializes
        assert trace.get("in_flight") is True

    def test_explain_true_has_no_trace_block(self, service):
        _, client = service
        response = client.query("d", point=[0.0, 0.0], explain=True)
        assert "explain" in response
        assert "trace" not in response

    def test_sql_explain_trace(self, service):
        server, client = service
        from repro.codd.codd_table import CoddTable, Null

        table = CoddTable(("a",), [(1,), (Null([1, 2]),)])
        response = client.sql(
            "SELECT a FROM t", codd_table=table, explain="trace"
        )
        trace = response["trace"]
        assert {"http.request", "broker.sql"} <= span_names(trace)
        assert_tree_consistent(trace)

    def test_batched_queries_link_to_the_batch_span(self, service):
        server, client = service
        # un-explained single points ride the micro-batch; their trace
        # adopts the detached broker.batch span's record
        response_trace = None
        for _ in range(3):
            client.query("d", point=[0.1, 0.1])
        # the batch span is detached, so it publishes its own root
        records = server.obs.tracer.buffer.list()
        batch_roots = [r for r in records if r["name"] == "broker.batch"]
        assert batch_roots, "no broker.batch root span published"
        assert batch_roots[-1]["attributes"]["n_points"] >= 1


class TestDebugTraces:
    def test_list_and_fetch_by_id(self, service):
        server, client = service
        client.query("d", point=[0.0, 0.0])
        traces = client.traces(limit=5)
        assert traces
        newest = traces[-1]
        fetched = client.traces(trace_id=newest["trace_id"])
        assert fetched["trace_id"] == newest["trace_id"]
        assert fetched["name"] == newest["name"]

    def test_unknown_trace_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client.traces(trace_id="deadbeefdeadbeef")
        assert err.value.status == 404

    def test_trace_id_header_round_trips(self, service):
        server, _ = service
        status, headers, body = get_raw(server, "/healthz")
        assert status == 200
        trace_id = headers["X-Trace-Id"]
        assert trace_id
        record = server.obs.tracer.buffer.get(trace_id)
        assert record is not None
        assert record["name"] == "http.request"

    def test_disabled_tracing_serves_empty_buffer(self):
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        server = make_service(registry, trace=False)
        try:
            client = ServiceClient(server.url)
            client.query("d", point=[0.0, 0.0])
            assert client.traces() == []
            # explain="trace" degrades gracefully: no trace block
            response = client.query("d", point=[0.0, 0.0], explain="trace")
            assert "trace" not in response
            # metrics stay on
            assert client.metrics()["broker"]["requests"] == 2
        finally:
            server.close()


class TestPrometheus:
    def test_scrape_parses_and_validates(self, service):
        server, client = service
        client.query("d", point=[0.0, 0.0])
        status, headers, body = get_raw(server, "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert validate_prometheus(text) > 0
        assert "repro_broker_requests_total" in text
        assert "repro_http_request_seconds_bucket" in text
        assert "repro_registry_datasets" in text

    def test_client_prometheus_format(self, service):
        _, client = service
        text = client.metrics(format="prometheus")
        assert isinstance(text, str)
        validate_prometheus(text)

    def test_json_metrics_unaffected_by_format_param(self, service):
        _, client = service
        payload = client.metrics()
        assert isinstance(payload, dict)
        assert "obs" in payload


class TestLogs:
    def test_access_log_emits_one_line_per_request(self):
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        server = make_service(registry, access_log=True)
        sink = io.StringIO()
        server.access_sink = sink
        try:
            client = ServiceClient(server.url)
            client.query("d", point=[0.0, 0.0])
            client.healthz()
        finally:
            server.close()
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        paths = [line["path"] for line in lines]
        assert "/query" in paths and "/healthz" in paths
        for line in lines:
            assert {"method", "path", "status", "duration_ms", "trace_id"} <= set(
                line
            )
            assert line["status"] == 200
            assert line["duration_ms"] >= 0.0

    def test_slow_query_log_fires_below_threshold_never(self):
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        # slow_ms=0.000001 → everything is slow; every request logs a line
        server = make_service(registry, slow_ms=0.000001)
        sink = io.StringIO()
        server.obs.tracer.slow_sink = sink
        try:
            client = ServiceClient(server.url)
            client.query("d", point=[0.0, 0.0])
        finally:
            server.close()
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert lines, "no slow-query line emitted"
        assert all(line["slow_query"] is True for line in lines)
        assert any(line["name"] == "http.request" for line in lines)
        assert server.obs.tracer.stats()["slow_queries"] >= 1


class TestHealthz:
    def test_single_process_is_plain_ok(self, service):
        _, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert "executors" not in health


# ---------------------------------------------------------------------------
# Two-executor gateway: the acceptance-criterion trace
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gateway_service():
    registry = DatasetRegistry()
    registry.register("gd", small_dataset(), k=2)
    server = make_service(registry, executors=2)
    client = ServiceClient(server.url)
    client.wait_until_ready()
    yield server, client
    server.close()


class TestGatewayTraces:
    def test_distributed_query_renders_one_tree(self, gateway_service):
        server, client = gateway_service
        response = client.query("gd", point=[0.0, 0.0], explain="trace")
        trace = response["trace"]
        assert_tree_consistent(trace)
        names = span_names(trace)
        assert {
            "http.request",
            "broker.query",
            "planner.route",
            "gateway.execute",
            "gateway.scatter",
            "gateway.gather",
            "executor.partition",
        } <= names, f"missing spans; got {sorted(names)}"
        # executor spans carry their partition and worker identity
        executor_spans = [
            s for s in walk(trace) if s["name"] == "executor.partition"
        ]
        assert executor_spans
        pids = {s["attributes"]["pid"] for s in executor_spans}
        executors = {s["attributes"]["executor"] for s in executor_spans}
        assert len(executors) == 2, "both executors should contribute spans"
        assert len(pids) == 2
        scatter = next(s for s in walk(trace) if s["name"] == "gateway.scatter")
        assert scatter["attributes"]["partitions_scattered"] >= 2

    def test_healthz_reports_executors(self, gateway_service):
        _, client = gateway_service
        health = client.healthz()
        assert health["status"] == "ok"
        assert len(health["executors"]) == 2
        for executor in health["executors"]:
            assert executor["alive"] is True
            assert executor["pid"]
            assert executor["restarts"] >= 0
            age = executor["last_heartbeat_age_s"]
            assert age is None or age >= 0.0

    def test_dead_executor_degrades_healthz_to_503(self):
        registry = DatasetRegistry()
        registry.register("gd", small_dataset(), k=2)
        server = make_service(registry, executors=2)
        try:
            client = ServiceClient(server.url)
            client.wait_until_ready()
            gateway = server.broker.gateway
            # stop the auto-respawn monitor so the degraded window is stable
            gateway._monitor_stop.set()
            if gateway._monitor is not None:
                gateway._monitor.join(timeout=5.0)
            victim = gateway._handles[0].process
            victim.terminate()
            victim.join(timeout=5.0)
            status, _, body = get_raw(server, "/healthz")
            assert status == 503
            payload = json.loads(body.decode("utf-8"))
            assert payload["status"] == "degraded"
            alive = [e["alive"] for e in payload["executors"]]
            assert alive.count(False) == 1
        finally:
            server.close()
