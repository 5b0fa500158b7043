"""Non-finite payloads must be rejected at the wire, on every endpoint.

``json.loads`` happily produces ``nan`` and ``inf`` (the literals
``NaN`` / ``Infinity`` are non-standard but parsed, and ``1e999``
overflows ``float64`` to ``inf``). A NaN that slips into a test point,
an appended candidate row, or a Codd cell poisons every similarity
comparison downstream — silently wrong answers under an exactness
guarantee. The contract is a clean 400 ``malformed_payload`` instead,
from every endpoint that decodes numeric matrices or cells.
"""

from __future__ import annotations

import json
from urllib import error, request

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.service import DatasetRegistry, ServiceClient, make_service
from repro.service.wire import (
    WireError,
    decode_codd_fixes,
    decode_codd_table,
    decode_matrix,
)


def small_dataset() -> IncompleteDataset:
    rng = np.random.default_rng(23)
    sets = [rng.normal(size=(m, 2)) for m in (1, 3, 2, 2, 1, 3)]
    return IncompleteDataset(sets, [0, 1, 0, 1, 1, 0])


@pytest.fixture(scope="module")
def service():
    registry = DatasetRegistry()
    registry.register("d", small_dataset(), k=2)
    server = make_service(registry, max_batch=8)
    client = ServiceClient(server.url)
    client.wait_until_ready()
    yield server, client
    server.close()


def send_raw(server, path: str, body: str, method: str = "POST"):
    """Send a raw JSON string (it may contain NaN/Infinity literals)."""
    req = request.Request(
        server.url + path,
        data=body.encode("utf-8"),
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


NON_FINITE_MATRICES = (
    "[[NaN, 1.0]]",
    "[[-Infinity, 1.0]]",
    "[[1e999, 1.0]]",  # float64 overflow → inf, the ISSUE's literal case
)


class TestDecodeMatrixUnit:
    def test_nan_rejected(self):
        with pytest.raises(WireError, match="finite"):
            decode_matrix([[float("nan"), 1.0]], "points")

    def test_infinities_rejected(self):
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(WireError, match="finite"):
                decode_matrix([[bad, 1.0]], "points")

    def test_float64_overflow_string_rejected(self):
        # np.asarray(..., float64) parses "1e999" to inf — still rejected.
        with pytest.raises(WireError, match="finite"):
            decode_matrix([["1e999", 1.0]], "points")

    def test_finite_matrix_passes(self):
        matrix = decode_matrix([[1.0, -2.5]], "points")
        assert matrix.shape == (1, 2)

    def test_codd_table_nan_cell_rejected(self):
        table = {"schema": ["a"], "rows": [[float("nan")]]}
        with pytest.raises(WireError, match="finite"):
            decode_codd_table(table)

    def test_codd_table_nan_in_null_domain_rejected(self):
        table = {"schema": ["a"], "rows": [[{"null": [1.0, float("inf")]}]]}
        with pytest.raises(WireError, match="finite"):
            decode_codd_table(table)

    def test_codd_fix_infinite_value_rejected(self):
        with pytest.raises(WireError, match="finite"):
            decode_codd_fixes([{"row": 0, "column": 0, "value": float("inf")}])


class TestQueryEndpoint:
    @pytest.mark.parametrize("matrix", NON_FINITE_MATRICES)
    def test_points_matrix_is_400(self, service, matrix):
        server, _ = service
        body = f'{{"dataset": "d", "points": {matrix}, "kind": "counts"}}'
        status, payload = send_raw(server, "/query", body)
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"

    def test_single_point_nan_is_400(self, service):
        server, _ = service
        status, payload = send_raw(
            server, "/query", '{"dataset": "d", "point": [NaN, 0.0]}'
        )
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"


class TestSqlEndpoint:
    def test_inline_table_nan_cell_is_400(self, service):
        server, _ = service
        body = (
            '{"query": "SELECT a FROM t", '
            '"codd_table": {"schema": ["a"], "rows": [[NaN]]}}'
        )
        status, payload = send_raw(server, "/sql", body)
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"

    def test_inline_table_infinite_null_domain_is_400(self, service):
        server, _ = service
        body = (
            '{"query": "SELECT a FROM t", '
            '"codd_table": {"schema": ["a"], '
            '"rows": [[{"null": [1.0, Infinity]}]]}}'
        )
        status, payload = send_raw(server, "/sql", body)
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"


class TestPatchEndpoint:
    def test_row_append_nan_candidates_is_400(self, service):
        server, _ = service
        body = (
            '{"deltas": [{"op": "row_append", '
            '"candidates": [[NaN, 1.0]], "label": 0}]}'
        )
        status, payload = send_raw(server, "/datasets/d", body, method="PATCH")
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"

    def test_row_append_overflow_candidates_is_400(self, service):
        server, _ = service
        body = (
            '{"deltas": [{"op": "row_append", '
            '"candidates": [[1e999, 1.0]], "label": 0}]}'
        )
        status, payload = send_raw(server, "/datasets/d", body, method="PATCH")
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"

    def test_rejected_delta_leaves_the_dataset_untouched(self, service):
        server, client = service
        before = client.dataset("d")
        send_raw(
            server,
            "/datasets/d",
            '{"deltas": [{"op": "row_append", "candidates": [[Infinity]], "label": 0}]}',
            method="PATCH",
        )
        after = client.dataset("d")
        assert after["fingerprint"] == before["fingerprint"]
        assert after["version"] == before["version"]
