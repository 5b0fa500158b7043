"""Benchmark: tracing + metrics overhead on the serving hot path.

PR 9 threads a span tree and typed metrics through every layer of the
broker. The design bar is that observability is effectively free: the
same 16-thread single-point workload ``bench_service.py`` uses, run
twice —

* **tracing off** — ``Observability(enabled=False)``: instrumented code
  hits the ``NULL_SPAN`` fast path (metrics still count, as in
  production when tracing is disabled);
* **tracing on** — every request builds its full span tree and publishes
  it to the ring buffer.

Each mode runs ``REPEATS`` times and keeps its best wall-clock (min is
the standard noise filter for throughput benchmarks). The acceptance
bar: tracing costs **<= 5%** throughput, and values stay bit-identical.

Emits ``BENCH_obs.json``. Run as a script::

    PYTHONPATH=src python benchmarks/bench_obs.py [--smoke] [--output PATH]

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
from repro.obs import Observability
from repro.service import DatasetRegistry, QueryBroker
from repro.utils.tables import format_table

DEFAULT_OUTPUT = bench_output_path("obs")

N_THREADS = 16
REPEATS = 3
OVERHEAD_BAR = 0.05

_WORKLOADS = {
    "smoke": dict(n_train=100, n_points=128, max_batch=16),
    "default": dict(n_train=150, n_points=256, max_batch=32),
}


def _client_load(
    registry: DatasetRegistry,
    points: np.ndarray,
    max_batch: int,
    trace: bool,
) -> tuple[float, list, dict]:
    """One 16-thread run; returns (seconds, values, tracer stats)."""
    obs = Observability(enabled=trace)
    broker = QueryBroker(
        registry,
        max_batch=max_batch,
        max_pending=4 * len(points),
        cache=False,  # every request must actually execute
        obs=obs,
    )
    values: list = [None] * len(points)

    def worker(indices: range) -> None:
        for index in indices:
            values[index] = broker.query(
                "bench", points[index], kind="certain_label"
            )["values"][0]

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
    stats = obs.tracer.stats()
    broker.close()
    return elapsed, values, stats


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

    # one throwaway pass warms numba/numpy caches shared by both modes
    _client_load(registry, points[:16], size["max_batch"], trace=False)

    best: dict[bool, float] = {}
    values: dict[bool, list] = {}
    stats: dict[bool, dict] = {}
    for _ in range(REPEATS):
        # alternate modes so drift (thermal, cache) hits both equally
        for trace in (False, True):
            elapsed, run_values, run_stats = _client_load(
                registry, points, size["max_batch"], trace=trace
            )
            if trace not in best or elapsed < best[trace]:
                best[trace] = elapsed
            values[trace] = run_values
            stats[trace] = run_stats

    assert values[True] == values[False], (
        "tracing changed served values — it must be observation only"
    )
    assert stats[True]["published"] > 0, "tracing on but no traces published"
    assert stats[False]["published"] == 0, "tracing off but traces published"

    n = len(points)
    overhead = best[True] / best[False] - 1.0
    report = {
        "benchmark": "obs",
        "scale": scale,
        "workload": {
            "recipe": "supreme",
            "n_train": entry.dataset.n_rows,
            "n_points": n,
            "n_threads": N_THREADS,
            "kind": "certain_label",
            "repeats": REPEATS,
        },
        "tracing_off": {
            "seconds": best[False],
            "queries_per_sec": n / best[False],
        },
        "tracing_on": {
            "seconds": best[True],
            "queries_per_sec": n / best[True],
            "traces_published": stats[True]["published"],
        },
        "overhead": overhead,
        "overhead_bar": OVERHEAD_BAR,
        "values_bit_identical": True,
    }
    write_bench_report(args.output, report)

    print(
        format_table(
            ["mode", "seconds (best of {})".format(REPEATS), "queries/sec", "overhead"],
            [
                [
                    "tracing off",
                    f"{best[False]:.3f}",
                    f"{n / best[False]:.0f}",
                    "—",
                ],
                [
                    "tracing on",
                    f"{best[True]:.3f}",
                    f"{n / best[True]:.0f}",
                    f"{overhead:+.1%}",
                ],
            ],
            title=(
                f"{n} single-point certainty queries from {N_THREADS} client "
                f"threads ({scale} scale)"
            ),
        )
    )

    if overhead > OVERHEAD_BAR:
        print(
            f"FAIL: tracing + metrics cost {overhead:.1%} throughput; "
            f"the bar is {OVERHEAD_BAR:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
