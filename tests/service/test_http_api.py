"""The HTTP JSON API: round trips, observability, and structured errors."""

from __future__ import annotations

import json
import socket
from urllib import error, parse, request

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.service import DatasetRegistry, ServiceClient, ServiceError, make_service


def small_dataset() -> IncompleteDataset:
    rng = np.random.default_rng(11)
    sets = [rng.normal(size=(m, 2)) for m in (1, 3, 2, 2, 1, 3)]
    return IncompleteDataset(sets, [0, 1, 0, 1, 1, 0])


@pytest.fixture(scope="module")
def service():
    registry = DatasetRegistry()
    registry.register("d", small_dataset(), k=2)
    registry.register_recipe("recipe", n_train=40, n_val=4, seed=0)
    server = make_service(registry, max_batch=8)
    client = ServiceClient(server.url)
    client.wait_until_ready()
    yield server, client
    server.close()


def test_make_service_failure_does_not_leak_executor_processes():
    """A broker-constructor failure after the gateway spawned must shut the
    executor processes down, not orphan them (max_batch=0 is rejected by
    QueryBroker *after* make_service built the Gateway)."""
    import multiprocessing
    import time

    before = {p.pid for p in multiprocessing.active_children()}
    with pytest.raises(ValueError):
        make_service(executors=2, max_batch=0, start=False)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        leaked = [
            p for p in multiprocessing.active_children()
            if p.pid not in before and p.name.startswith("repro-executor")
        ]
        if not leaked:
            break
        time.sleep(0.05)
    assert not leaked


def test_close_without_started_loop_does_not_deadlock():
    """make_service(start=False) followed by close() must return (the
    shutdown() handshake only applies to a running accept loop)."""
    from repro.service import DatasetRegistry as Registry, make_service as make

    server = make(Registry(), start=False)
    server.close()  # would previously block forever in BaseServer.shutdown()


def post_raw(server, path: str, body: bytes, content_type: str = "application/json"):
    """POST raw bytes, returning (status, parsed JSON body)."""
    req = request.Request(
        server.url + path,
        data=body,
        method="POST",
        headers={"Content-Type": content_type},
    )
    try:
        with request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def post_declaring_length(server, declared: str):
    """POST to /query over a raw socket with a forged ``Content-Length``
    and no body; returns (status, parsed JSON body, connection closed)."""
    url = parse.urlsplit(server.url)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.settimeout(5)
        sock.sendall(
            (
                "POST /query HTTP/1.1\r\n"
                f"Host: {url.netloc}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {declared}\r\n\r\n"
            ).encode("ascii")
        )
        response = b""
        while chunk := sock.recv(65536):  # a socket.timeout fails the test
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body.decode("utf-8")), b"connection: close" in head.lower()


class TestHappyPaths:
    def test_healthz(self, service):
        server, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["datasets"]) >= {"d", "recipe"}
        assert health["uptime_s"] >= 0

    def test_datasets_listing_and_detail(self, service):
        server, client = service
        names = {row["name"] for row in client.datasets()}
        assert {"d", "recipe"} <= names
        detail = client.dataset("d")
        assert detail["n_rows"] == 6
        assert detail["fingerprint"] == small_dataset().fingerprint()

    def test_register_dataset_round_trip(self, service):
        server, client = service
        local = small_dataset()
        created = client.register_dataset("shipped", local, k=2)
        assert created["fingerprint"] == local.fingerprint()
        counts = client.query("shipped", point=[0.0, 0.0], kind="counts")["values"][0]
        assert isinstance(counts, list) and sum(counts) == local.n_worlds()

    def test_register_recipe_round_trip(self, service):
        server, client = service
        created = client.register_recipe("recipe2", n_train=40, n_val=4, seed=1)
        assert created["supports_cleaning"]
        response = client.query("recipe2", points="validation", kind="certain_label")
        assert len(response["values"]) == 4

    def test_query_validation_set_uses_warm_prepared_state(self, service):
        server, client = service
        entry = server.registry.get("recipe")
        client.query("recipe", points="validation", kind="certain_label")
        assert entry.prepared is not None  # pinned by the query

    def test_clean_step_and_with_cleaned_query(self, service):
        server, client = service
        entry = server.registry.get("recipe")
        row = entry.dataset.uncertain_rows()[0]
        checkpoint = client.clean_step("recipe", row=row)  # oracle answers
        assert checkpoint["n_cleaned"] == 1
        assert checkpoint["fixed"] == {row: int(entry.gt_choice[row])}
        assert isinstance(checkpoint["cp_fraction"], float)
        served = client.query(
            "recipe", points="validation", kind="certain_label", with_cleaned=True
        )["values"]
        assert len(served) == 4

    def test_http_registration_inherits_server_execution_defaults(self, service):
        """Datasets registered over HTTP run with the operator's --backend
        and --n-jobs, same as the CLI-preloaded one."""
        server, client = service
        client.register_dataset("defaults-check", small_dataset(), k=2)
        entry = server.registry.get("defaults-check")
        assert entry.backend == server.broker.backend
        assert entry.n_jobs == server.broker.n_jobs

    def test_metrics_expose_broker_and_registry(self, service):
        server, client = service
        metrics = client.metrics()
        assert metrics["registry"]["n_datasets"] >= 2
        broker = metrics["broker"]
        assert broker["requests"] >= 1
        assert broker["cache"] is not None and "hit_rate" in broker["cache"]

    def test_big_integer_counts_survive_the_wire(self, service):
        server, client = service
        # 6 rows of up to 3 candidates → counts can exceed 2^53 with larger
        # datasets; json round-trips Python ints exactly either way. Register
        # a wider dataset to force genuinely big world counts.
        rng = np.random.default_rng(5)
        sets = [rng.normal(size=(9, 2)) for _ in range(20)]
        big = IncompleteDataset(sets, [i % 2 for i in range(20)])
        client.register_dataset("big", big, k=1)
        counts = client.query("big", point=[0.0, 0.0], kind="counts", k=1)["values"][0]
        assert sum(counts) == big.n_worlds()
        assert big.n_worlds() > 2**63  # definitely not a float round trip


class TestErrorPaths:
    def test_unknown_dataset_is_404(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.query("missing", point=[0.0, 0.0])
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_dataset"
        assert "missing" in excinfo.value.message

    def test_unknown_dataset_detail_is_404(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.dataset("missing")
        assert excinfo.value.status == 404

    def test_malformed_json_body_is_400(self, service):
        server, client = service
        status, payload = post_raw(server, "/query", b"{not json!")
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"
        assert "JSON" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "declared,status,code",
        [
            ("-1", 400, "malformed_payload"),
            ("abc", 400, "malformed_payload"),
            ("1000000000000", 413, "payload_too_large"),
        ],
    )
    def test_hostile_content_length_is_refused_promptly(
        self, service, declared, status, code
    ):
        # The server answers without reading the (absent) body and closes
        # the connection, so the handler thread is never pinned.
        server, client = service
        got_status, payload, closed = post_declaring_length(server, declared)
        assert got_status == status
        assert payload["error"]["code"] == code
        assert closed
        assert client.healthz()["status"] == "ok"

    def test_non_object_body_is_400(self, service):
        server, client = service
        status, payload = post_raw(server, "/query", b'"just a string"')
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"

    def test_missing_fields_are_400(self, service):
        server, client = service
        status, payload = post_raw(server, "/query", json.dumps({}).encode())
        assert status == 400
        assert "dataset" in payload["error"]["message"]
        status, payload = post_raw(
            server, "/query", json.dumps({"dataset": "d"}).encode()
        )
        assert status == 400
        assert "point" in payload["error"]["message"]

    def test_flavor_mismatch_is_structured_400(self, service):
        server, client = service
        # topk only supports kind='counts'; make_query's error must surface.
        with pytest.raises(ServiceError) as excinfo:
            client.query("d", point=[0.0, 0.0], flavor="topk", kind="check", label=0)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_query"
        assert "topk" in excinfo.value.message

    def test_backend_mismatch_is_plan_error_400(self, service):
        server, client = service
        # The incremental backend cannot serve the topk flavor.
        with pytest.raises(ServiceError) as excinfo:
            client.query(
                "d", point=[0.0, 0.0], flavor="topk", kind="counts",
                backend="incremental",
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "plan_error"

    def test_unknown_backend_is_plan_error_400(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.query("d", point=[0.0, 0.0], backend="bogus")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "plan_error"
        assert "bogus" in excinfo.value.message

    def test_multi_row_point_field_is_400_not_truncated(self, service):
        server, client = service
        status, payload = post_raw(
            server,
            "/query",
            json.dumps(
                {"dataset": "d", "point": [[0.0, 0.0], [1.0, 1.0]]}
            ).encode(),
        )
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"
        assert "single test point" in payload["error"]["message"]

    def test_row_pinned_to_two_candidates_is_400(self, service):
        server, client = service
        body = {"dataset": "d", "point": [0.0, 0.0], "pins": [[1, 0], [1, 2]]}
        status, payload = post_raw(server, "/query", json.dumps(body).encode())
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"
        assert "pinned to two candidates" in payload["error"]["message"]
        # Repeating the same pin is harmless.
        body["pins"] = [[1, 2], [1, 2]]
        status, payload = post_raw(server, "/query", json.dumps(body).encode())
        assert status == 200, payload

    def test_bad_point_shape_is_400(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.query("d", point=[0.0, 0.0, 0.0])  # dataset has 2 features
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_query"

    def test_duplicate_registration_is_409(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.register_dataset("d", small_dataset())
        assert excinfo.value.status == 409
        assert excinfo.value.code == "registry_conflict"

    def test_malformed_dataset_payload_is_400(self, service):
        server, client = service
        status, payload = post_raw(
            server,
            "/datasets",
            json.dumps({"name": "bad", "dataset": {"candidate_sets": []}}).encode(),
        )
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"

    def test_clean_step_without_val_set_is_400(self, service):
        # Not a conflict — just an invalid request against this dataset.
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.clean_step("d", row=1, candidate=0)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_request"
        assert "validation set" in excinfo.value.message

    def test_clean_step_bad_candidate_is_400(self, service):
        server, client = service
        entry = server.registry.get("recipe")
        row = entry.dataset.uncertain_rows()[-1]
        with pytest.raises(ServiceError) as excinfo:
            client.clean_step("recipe", row=row, candidate=999)
        assert excinfo.value.status == 400

    def test_unknown_routes_are_404(self, service):
        server, client = service
        status, payload = post_raw(server, "/nope", b"{}")
        assert status == 404 and payload["error"]["code"] == "not_found"
        with pytest.raises(error.HTTPError) as excinfo:
            request.urlopen(server.url + "/nope", timeout=10)
        assert excinfo.value.code == 404

    def test_overload_is_429_with_retry_after(self, service, monkeypatch):
        """Admission rejection must surface as 429 + Retry-After over HTTP."""
        import threading

        server, client = service
        broker = server.broker
        # Throttle the running broker to one in-flight request and hold that
        # request's flush open; the next request must be shed.
        monkeypatch.setattr(broker, "max_pending", 1)
        entered, release = threading.Event(), threading.Event()
        execute = broker._execute

        def held(*args):
            entered.set()
            assert release.wait(timeout=10.0)
            return execute(*args)

        monkeypatch.setattr(broker, "_execute", held)
        background: dict[str, object] = {}

        def slow() -> None:
            background["response"] = client.query("d", point=[9.0, 9.0], kind="counts")

        thread = threading.Thread(target=slow)
        thread.start()
        try:
            assert entered.wait(timeout=10.0)
            body = json.dumps({"dataset": "d", "point": [8.0, 8.0]}).encode()
            with pytest.raises(error.HTTPError) as excinfo:
                request.urlopen(
                    request.Request(server.url + "/query", data=body, method="POST"),
                    timeout=10,
                )
            assert excinfo.value.code == 429
            assert float(excinfo.value.headers["Retry-After"]) > 0
            assert json.loads(excinfo.value.read())["error"]["code"] == "overloaded"
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert background["response"]["values"]
