"""``serve``: the online CP path over HTTP, driven by an open loop.

``repro serve`` runs with its defaults in its own process. The benchmark's
client sends single-point ``counts`` and ``certain_label`` reads on a
``supreme`` dataset at a constant rate from two sender threads, with a
fixed share of repeated hot points and a ~5% share of ``PATCH``
``CellRepair`` writes. Each request is timed from when it was due, so a
stall is charged to the requests it delays. A write purges cached reads.
"""

from __future__ import annotations

import math
import sys
import threading
import time

import numpy as np

from benchstats import (
    FailureCount,
    OpenLoopSchedule,
    SpanRecorder,
    latencies_with_failures,
    median,
    percentile,
)
from harness import (
    ROOT,
    SpeedProbe,
    WorkloadResult,
    class_summary,
    report_classes,
    require,
    timed_setups,
)
from server import ServerProcess, http_self_ms, request_trees

from repro import DeltaMaintainedState, execute_query, make_query
from repro.core.deltas import CellRepair, apply_delta_to_dataset
from repro.core.scan import compute_scan_order
from repro.data.task import build_cleaning_task
from repro.service import ServiceClient
from repro.service.client import ServiceError
from repro.service.wire import decode_matrix, decode_values, encode_values

NAME = "bench"
SIZES = {"n_train": 1000, "n_val": 8, "k": 3, "hot_points": 8}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Requests per second, fixed so that the reference core runs at about
#: half utilisation. Never derived from a measurement.
RATE = 14.0
PATCH_SHARE = 0.05
HOT_SHARE = 0.2
SENDERS = 2
CHECK_READS = 16
REPLAY_POINTS = 24
TIMEOUT_S = 30.0


def _plan(task, seed: int, n_requests: int, first_row: int):
    """The seeded request mix: ``("patch", delta)`` or ``("query", kind, point)``."""
    rng = np.random.default_rng(seed + 11)
    dataset = task.incomplete
    rows = [r for r in rng.permutation(dataset.uncertain_rows()).tolist() if r != first_row]
    counts = dataset.candidate_counts()
    hot = task.test_X[: SIZES["hot_points"]]
    fresh = iter(task.test_X[SIZES["hot_points"] + 1:])
    plan = []
    for _ in range(n_requests):
        if rng.random() < PATCH_SHARE and rows:
            row = rows.pop()
            plan.append(("patch", CellRepair(row, int(rng.integers(int(counts[row]))))))
            continue
        kind = "counts" if rng.random() < 0.5 else "certain_label"
        point = hot[int(rng.integers(len(hot)))] if rng.random() < HOT_SHARE else next(fresh)
        plan.append(("query", kind, point))
    return plan


def _setup(client: ServiceClient, seed: int, n_requests: int):
    task = build_cleaning_task("supreme", seed=seed, n_train=SIZES["n_train"],
                               n_val=SIZES["n_val"],
                               n_test=SIZES["hot_points"] + 1 + n_requests)
    client.register_dataset(NAME, task.incomplete, k=SIZES["k"], val_X=task.val_X,
                            replace=True)
    # Warm-up: one read of each kind on a point the load never sends, and
    # the first PATCH, which builds the delta-maintained state.
    warm = task.test_X[SIZES["hot_points"]]
    for kind in ("counts", "certain_label"):
        client.query(NAME, point=warm, kind=kind)
    first = CellRepair(task.incomplete.uncertain_rows()[0], 0)
    version = client.patch(NAME, deltas=[first])["version"]
    return {"task": task, "deltas": {version: first}, "first_row": first.row}


def _send(client, op):
    if op[0] == "patch":
        return client.patch(NAME, deltas=[op[1]])
    return client.query(NAME, point=op[2], kind=op[1])


def _load(client, plan, seconds: float, probe: SpeedProbe, rec: SpanRecorder | None):
    """Send ``plan`` open loop at ``RATE`` for ``seconds``; return per-request records."""
    n = min(len(plan), int(RATE * seconds))
    schedule = OpenLoopSchedule(RATE, n, time.perf_counter() + 0.05)
    failures = FailureCount()
    outcomes: dict[int, tuple] = {}
    lock = threading.Lock()

    def sender():
        while (index := schedule.claim()) is not None:
            delay = schedule.due(index) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            op = plan[index]
            failures.attempt()
            sent = time.perf_counter()
            try:
                if rec is None:
                    response = _send(client, op)
                else:
                    with rec.span(f"serve.{op[0]}", request_id=f"r{index}"):
                        response = _send(client, op)
                ok = True
            except ServiceError as exc:
                failures.fail(f"http {exc.status}")
                response, ok = None, False
            except Exception as exc:  # noqa: BLE001 — timeouts, resets, bad replies
                failures.fail(type(exc).__name__)
                print(f"request {index} failed: {exc!r}", file=sys.stderr)
                response, ok = None, False
            done = time.perf_counter()
            schedule.record(index, sent, done)
            probe.sample()
            with lock:
                outcomes[index] = (op, ok, response, probe.scale())

    start_wall = time.time()
    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    latency = {"query": [], "patch": []}
    raw_query = []
    n_failed = {"query": 0, "patch": 0}
    for index, (op, ok, _response, scale) in outcomes.items():
        if ok:
            raw = schedule.latency(index) * 1000.0
            latency[op[0]].append(raw * scale)
            if op[0] == "query":
                raw_query.append(raw)
        else:
            n_failed[op[0]] += 1
    latency = {kind: latencies_with_failures(values, n_failed[kind])
               for kind, values in latency.items()}
    last_done = max(rec_[2] for rec_ in schedule.records.values())
    return {
        "latency": latency,
        "raw_query": raw_query,
        "outcomes": outcomes,
        "failures": failures,
        "lateness_ms": [x * 1000.0 for x in schedule.lateness()],
        "completed_per_s": (n - failures.failed) / (last_done - schedule.start),
        "start_wall": start_wall,
    }


def _replica_at(base, deltas: dict, version: int):
    """The dataset at entry ``version``: registration is version 1 and each
    delta bumps it by one."""
    dataset = base
    for v in range(2, version + 1):
        dataset = apply_delta_to_dataset(dataset, deltas[v])
    return dataset


def _record_patches(state, runs) -> None:
    for run in runs:
        for op, ok, response, _ in run["outcomes"].values():
            if op[0] == "patch" and ok:
                state["deltas"][response["version"]] = op[1]
    versions = sorted(state["deltas"])
    require(versions == list(range(2, 2 + len(versions))),
            f"PATCH versions are not consecutive: {versions}")


def _check(state, runs, seed: int) -> None:
    """Sampled reads equal in-process ``execute_query`` on a local replica
    at the response's version."""
    rng = np.random.default_rng(seed + 13)
    reads = [(op, response) for run in runs for op, ok, response, _ in run["outcomes"].values()
             if ok and op[0] == "query"]
    require(len(reads) > 0, "no query succeeded")
    base = state["task"].incomplete
    for j in rng.choice(len(reads), size=min(CHECK_READS, len(reads)), replace=False):
        op, response = reads[j]
        dataset = _replica_at(base, state["deltas"], response["version"])
        local = execute_query(make_query(dataset, op[2], kind=op[1], k=SIZES["k"])).values
        require(response["values"] == local,
                f"served {op[1]} at version {response['version']} differs from execute_query")


def _walk(node, name, out):
    if node["name"] == name:
        out.append(node)
    for child in node.get("children", ()):
        _walk(child, name, out)
    return out


def _server_layers(client: ServiceClient, since_wall: float) -> dict:
    """Per-layer numbers from the server's own span trees (``/debug/traces``)."""
    http_self, wait, batch_points, cache_hits, execute, patch = [], [], [], [], [], []
    for root in request_trees(client, since_wall, ("/query", f"/datasets/{NAME}")):
        http_self.append(http_self_ms(root))
        for query in _walk(root, "broker.query", []):
            cache_hits.append(bool(query.get("attributes", {}).get("cache_hit")))
            for batch in _walk(query, "broker.batch", []):
                wait.append((batch["start_time"] - query["start_time"]) * 1000.0)
                batch_points.append(batch.get("attributes", {}).get("n_points", 0))
        execute.extend(s["duration_ms"] for s in _walk(root, "planner.execute_query", []))
        patch.extend(s["duration_ms"] for s in _walk(root, "broker.patch", []))
    return {
        "service.http.self_ms": median(http_self),
        "service.broker.wait_ms": median(wait),
        "service.broker.batch_points": (sum(batch_points) / len(batch_points)
                                        if batch_points else math.nan),
        "service.broker.cache_hit_frac": (sum(cache_hits) / len(cache_hits)
                                          if cache_hits else math.nan),
        "core.planner.execute_ms": median(execute),
        "service.broker.patch_ms": median(patch),
    }


def _replay_layers(state, traced, rec: SpanRecorder) -> None:
    """Time the scan, wire and delta layers on the traced half's own inputs."""
    base = state["task"].incomplete
    reads = [(op, response) for op, ok, response, _ in traced["outcomes"].values()
             if ok and op[0] == "query"][:REPLAY_POINTS]
    for op, response in reads:
        dataset = _replica_at(base, state["deltas"], response["version"])
        with rec.span("core.scan.order"):
            compute_scan_order(dataset, op[2])
        with rec.span("service.wire.encode"):
            encoded = encode_values(response["values"])
        with rec.span("service.wire.decode"):
            decode_matrix(np.asarray(op[2]).tolist(), "point")
            decode_values(encoded, response["kind"], response["flavor"])
    maintained = DeltaMaintainedState(base, state["task"].val_X, k=SIZES["k"])
    for version in sorted(state["deltas"]):
        with rec.span("core.deltas.apply"):
            maintained.apply(state["deltas"][version])


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    probe = SpeedProbe()
    result = WorkloadResult()
    n_requests = int(RATE * seconds) + 1
    with ServerProcess(ROOT) as server:
        client = ServiceClient(server.url, timeout=TIMEOUT_S)
        client.wait_until_ready(timeout=30)
        setup_s, state = timed_setups(lambda: _setup(client, seed, n_requests), probe,
                                      repeats=SETUP_REPEATS)
        plan = _plan(state["task"], seed, n_requests, state["first_row"])
        if not trace:
            runs = [_load(client, plan, seconds, probe, None)]
        else:
            rec = SpanRecorder()
            half = len(plan) // 2
            runs = [_load(client, plan[:half], seconds / 2, probe, None)]
            runs.append(_load(client, plan[half:], seconds / 2, probe, rec))
            server_layers = _server_layers(client, runs[1]["start_wall"])
        peak_rss = server.peak_rss_mb()
    _record_patches(state, runs)
    _check(state, runs, seed)

    main = runs[0]
    result.attempted = sum(r["failures"].attempted for r in runs)
    result.failed = sum(r["failures"].failed for r in runs)
    p50, tail, rows = class_summary(main["latency"])
    result.end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "ops_per_s": (main["completed_per_s"], "1/s"),
    }
    result.report.append(
        f"serve: repro serve defaults, open loop {RATE:g} req/s from {SENDERS} senders; "
        f"supreme N={SIZES['n_train']}, {HOT_SHARE:.0%} hot points, {PATCH_SHARE:.0%} PATCH"
    )
    report_classes(result, rows, "")
    result.line("raw_query_p50_ms", median(main["raw_query"]), "ms",
                "wall clock, not scaled by the speed probe")
    result.line("failed_frac", main["failures"].failed_frac, "ratio",
                str(main["failures"].reasons or ""))
    if trace:
        traced = runs[1]
        result.spans = rec
        _replay_layers(state, traced, rec)
        layers = dict(server_layers)
        layers.update({
            "core.scan.order_ms": median(rec.self_ms("core.scan.order")),
            "service.wire.encode_ms": median(rec.self_ms("service.wire.encode")),
            "service.wire.decode_ms": median(rec.self_ms("service.wire.decode")),
            "core.deltas.apply_ms": median(rec.self_ms("core.deltas.apply")),
            "loadgen.late_p95_ms": percentile(traced["lateness_ms"], 95),
            "failed_frac": traced["failures"].failed_frac,
            "obs.overhead_frac": (median(traced["latency"]["query"])
                                  / median(main["latency"]["query"]) - 1.0),
        })
        units = {"service.broker.batch_points": "points"}
        result.layers = {
            name: (value, units.get(name, "ratio" if name.endswith("_frac") else "ms"))
            for name, value in layers.items()
        }
    return result
