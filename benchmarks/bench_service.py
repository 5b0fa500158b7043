"""Benchmark: the service broker's group commit, alone and under load.

Group commit makes two claims, and each arm checks one over the same
points (result caching off, so every request really executes):

* **one caller** — a lone client never waits for company: a read whose
  query family is idle executes at once. Single-point certainty queries
  alternate between a per-request broker (``max_batch=1``) and a
  group-commit broker; the bar is a group-commit p50 latency **no worse
  than 1.2x** the per-request p50. A timer-window broker fails it by the
  length of its window.
* **16 callers** — concurrent reads of one query family coalesce: the
  reads that queue behind a running flush share the next planner call.
  The bar is **fewer planner calls than requests** under 16 client
  threads; wall-clock for both dispatch modes is reported, not gated.

Per-point values must be bit-identical between the modes and to a direct
planner execution — batching is a latency/throughput decision, never a
semantic one.

Emits ``BENCH_service.json``. Run as a script::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke] [--output PATH]

``--smoke`` shrinks the workload to a few seconds for CI.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import threading
import time

import numpy as np

from conftest import bench_output_path, write_bench_report
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.service import DatasetRegistry, QueryBroker
from repro.utils.tables import format_table

DEFAULT_OUTPUT = bench_output_path("service")

N_THREADS = 16

_WORKLOADS = {
    "smoke": dict(n_train=100, n_points=128, max_batch=16),
    "default": dict(n_train=150, n_points=256, max_batch=32),
}

#: The one-caller bar: group-commit p50 over per-request p50.
MAX_SOLO_RATIO = 1.2


def _broker(registry: DatasetRegistry, max_batch: int, n_points: int) -> QueryBroker:
    return QueryBroker(
        registry,
        max_batch=max_batch,
        max_pending=4 * n_points,
        cache=False,  # every request must actually execute
    )


def _ask(broker: QueryBroker, point: np.ndarray):
    return broker.query("bench", point, kind="certain_label")["values"][0]


def _solo_load(
    registry: DatasetRegistry, points: np.ndarray, max_batch: int
) -> tuple[list[float], list[float], list]:
    """One caller, alternating per-request and group-commit reads of each
    point; return (per-request seconds, group-commit seconds, values)."""
    per_request = _broker(registry, 1, len(points))
    grouped = _broker(registry, max_batch, len(points))
    t_request, t_grouped, values = [], [], []
    for point in points:
        start = time.perf_counter()
        value = _ask(per_request, point)
        t_request.append(time.perf_counter() - start)
        start = time.perf_counter()
        values.append(_ask(grouped, point))
        t_grouped.append(time.perf_counter() - start)
        assert values[-1] == value, "group-commit value diverged from per-request"
    assert grouped.metrics()["coalesced_batches"] == 0, "a lone caller coalesced"
    per_request.close()
    grouped.close()
    return t_request, t_grouped, values


def _client_load(
    registry: DatasetRegistry, points: np.ndarray, max_batch: int
) -> tuple[float, list, dict]:
    """Run the 16-thread single-point workload; return (seconds, values, metrics)."""
    broker = _broker(registry, max_batch, len(points))
    values: list = [None] * len(points)

    def worker(indices: range) -> None:
        for index in indices:
            values[index] = _ask(broker, points[index])

    threads = [
        threading.Thread(target=worker, args=(range(t, len(points), N_THREADS),))
        for t in range(N_THREADS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    metrics = broker.metrics()
    broker.close()
    return elapsed, values, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny workload for CI (a few seconds)"
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    scale = "smoke" if args.smoke else "default"
    size = _WORKLOADS[scale]

    registry = DatasetRegistry()
    entry = registry.register_recipe(
        "bench", recipe="supreme", n_train=size["n_train"], n_val=8, seed=1
    )
    rng = np.random.default_rng(7)
    points = rng.normal(size=(size["n_points"], entry.dataset.n_features)) * 0.5
    n = len(points)

    solo_request, solo_grouped, values_solo = _solo_load(
        registry, points, size["max_batch"]
    )
    t_request, values_request, metrics_request = _client_load(registry, points, 1)
    t_batched, values_batched, metrics_batched = _client_load(
        registry, points, size["max_batch"]
    )

    assert values_batched == values_request == values_solo, (
        "group-commit values diverged from per-request dispatch"
    )
    # And both must match a direct single-call planner execution.
    direct = execute_query(
        make_query(entry.dataset, points, kind="certain_label", k=entry.k),
        options=ExecutionOptions(cache=False),
    ).values
    assert values_request == direct, "served values diverged from execute_query"

    p50_request = float(np.median(solo_request)) * 1000.0
    p50_grouped = float(np.median(solo_grouped)) * 1000.0
    solo_ratio = p50_grouped / p50_request
    planner_calls = metrics_batched["batches_executed"]
    report = {
        "benchmark": "service",
        "scale": scale,
        "workload": {
            "recipe": "supreme",
            "n_train": entry.dataset.n_rows,
            "n_points": n,
            "n_threads": N_THREADS,
            "kind": "certain_label",
        },
        "one_caller": {
            "per_request_p50_ms": p50_request,
            "group_commit_p50_ms": p50_grouped,
            "ratio": solo_ratio,
            "bar": MAX_SOLO_RATIO,
        },
        "per_request": {
            "seconds": t_request,
            "queries_per_sec": n / t_request,
            "batches_executed": metrics_request["batches_executed"],
        },
        "group_commit": {
            "max_batch": size["max_batch"],
            "seconds": t_batched,
            "queries_per_sec": n / t_batched,
            "batches_executed": planner_calls,
            "coalesced_batches": metrics_batched["coalesced_batches"],
            "max_batch_size": metrics_batched["max_batch_size"],
        },
        "speedup": t_request / t_batched,
        "values_bit_identical": True,
    }
    write_bench_report(args.output, report)

    print(
        format_table(
            ["dispatch", "one-caller p50 ms", "planner calls", "seconds", "queries/sec"],
            [
                [
                    "per-request",
                    f"{p50_request:.3f}",
                    str(metrics_request["batches_executed"]),
                    f"{t_request:.3f}",
                    f"{n / t_request:.0f}",
                ],
                [
                    f"group commit (<= {size['max_batch']})",
                    f"{p50_grouped:.3f}",
                    str(planner_calls),
                    f"{t_batched:.3f}",
                    f"{n / t_batched:.0f}",
                ],
            ],
            title=(
                f"{n} single-point certainty queries: one caller, then "
                f"{N_THREADS} client threads ({scale} scale)"
            ),
        )
    )

    failures = []
    if solo_ratio > MAX_SOLO_RATIO:
        failures.append(
            f"one caller's group-commit p50 is {solo_ratio:.2f}x per-request; "
            f"the bar is {MAX_SOLO_RATIO}x"
        )
    if planner_calls >= n:
        failures.append(
            f"{N_THREADS} callers made {planner_calls} planner calls for {n} "
            "requests; group commit must coalesce"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
