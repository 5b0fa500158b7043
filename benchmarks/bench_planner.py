"""Benchmark: the unified query planner's backends.

Two measurements, emitted both as a human-readable table and as
machine-readable JSON (``BENCH_planner.json``):

1. **Cleaning-session steps/sec** — a fixed pin sequence is replayed
   against the same validation set, re-querying exact Q2 counts after
   every pin (the certainty-check workload of a cleaning session), once
   on the ``incremental`` backend (maintained counts, delta updates) and
   once on the ``sequential`` backend (full recount per step). The
   acceptance bar is a >=2x steps/sec advantage for the incremental
   backend, with bit-identical counts at every step.
2. **Batch-vs-sequential speedup per task flavor** — for each of the five
   flavors (binary, multiclass, weighted, topk, label_uncertainty) the
   same query set runs on the ``sequential`` and ``batch`` backends
   (results verified identical); the ratio shows how much of the PR-1
   batch treatment each flavor now inherits through the planner.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_planner.py [--smoke] [--output PATH]

``--smoke`` shrinks the workload to a few seconds for CI.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

from conftest import bench_output_path, write_bench_report
from repro.core.label_uncertainty import LabelUncertainDataset
from repro.core.planner import (
    ExecutionOptions,
    IncrementalBackend,
    execute_query,
    get_backend,
    make_query,
)
from repro.data.task import build_cleaning_task
from repro.utils.tables import format_table

DEFAULT_OUTPUT = bench_output_path("planner")

_WORKLOADS = {
    # (n_train, n_val, max cleaning steps, flavor query points)
    "smoke": dict(n_train=60, n_val=12, steps=6, n_flavor_points=8),
    "default": dict(n_train=150, n_val=32, steps=10, n_flavor_points=24),
}


def _time(fn, repeats: int = 1):
    """Best-of-``repeats`` wall clock and the (stable) result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ---------------------------------------------------------------------------
# 1. Cleaning-session steps/sec: incremental vs full recount
# ---------------------------------------------------------------------------


def bench_cleaning_steps(task, steps: int) -> dict:
    dataset, val_X, k = task.incomplete, task.val_X, task.k
    pin_sequence = [
        (row, int(task.gt_choice[row])) for row in dataset.uncertain_rows()
    ][:steps]

    def run(backend_name: str) -> tuple[float, list]:
        # A fresh incremental backend per run: the timing must include the
        # state build, exactly as a fresh cleaning session would pay it.
        backend = (
            IncrementalBackend() if backend_name == "incremental" else None
        )
        trace = []
        pins: dict[int, int] = {}
        start = time.perf_counter()
        for row, cand in pin_sequence:
            pins[row] = cand
            query = make_query(dataset, val_X, kind="counts", k=k, pins=pins)
            if backend is not None:
                trace.append(backend.execute(query)[0])
            else:
                trace.append(
                    execute_query(
                        query, backend=backend_name,
                        options=ExecutionOptions(cache=False),
                    ).values
                )
        return time.perf_counter() - start, trace

    t_incremental, trace_incremental = run("incremental")
    t_full, trace_full = run("sequential")
    assert trace_incremental == trace_full, (
        "incremental counts diverged from the full recount"
    )

    n = len(pin_sequence)
    incremental_sps = n / t_incremental
    full_sps = n / t_full
    return {
        "steps": n,
        "n_val": int(val_X.shape[0]),
        "incremental_seconds": t_incremental,
        "full_recount_seconds": t_full,
        "incremental_steps_per_sec": incremental_sps,
        "full_recount_steps_per_sec": full_sps,
        "speedup": incremental_sps / full_sps,
    }


# ---------------------------------------------------------------------------
# 2. Batch-vs-sequential speedup per flavor
# ---------------------------------------------------------------------------


def _flavor_queries(task, n_points: int):
    dataset = task.incomplete
    test_X = task.val_X[:n_points]
    lu = LabelUncertainDataset.from_incomplete(
        dataset, flip_rows=dataset.uncertain_rows()[:2]
    )
    # The binary task recipes have two labels; the "multiclass" flavor on
    # the same dataset exercises the counting path without the MM shortcut.
    yield "binary", make_query(dataset, test_X, kind="counts", k=task.k)
    yield "multiclass", make_query(
        dataset, test_X, kind="counts", flavor="multiclass", k=task.k
    )
    yield "weighted", make_query(
        dataset, test_X, kind="counts", flavor="weighted", k=task.k
    )
    yield "topk", make_query(dataset, test_X, kind="counts", flavor="topk", k=task.k)
    yield "label_uncertainty", make_query(lu, test_X, kind="counts", k=task.k)


def bench_flavors(task, n_points: int, repeats: int) -> dict:
    out = {}
    options = ExecutionOptions(cache=False)
    for flavor, query in _flavor_queries(task, n_points):
        t_seq, seq = _time(
            lambda q=query: execute_query(q, backend="sequential", options=options).values,
            repeats,
        )
        t_batch, batch = _time(
            lambda q=query: execute_query(q, backend="batch", options=options).values,
            repeats,
        )
        assert batch == seq, f"batch backend diverged on flavor {flavor!r}"
        out[flavor] = {
            "n_points": query.n_points,
            "sequential_seconds": t_seq,
            "batch_seconds": t_batch,
            "speedup": t_seq / t_batch,
        }
    return out


# ---------------------------------------------------------------------------


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
    task = build_cleaning_task(
        "supreme", n_train=size["n_train"], n_val=size["n_val"], n_test=20, seed=1
    )

    session = bench_cleaning_steps(task, steps=size["steps"])
    flavors = bench_flavors(
        task, n_points=size["n_flavor_points"], repeats=1 if args.smoke else 2
    )

    report = {
        "benchmark": "planner",
        "scale": scale,
        "workload": {
            "recipe": "supreme",
            "n_train": task.incomplete.n_rows,
            "k": task.k,
        },
        "cleaning_session": session,
        "flavors": flavors,
        "backends": {
            name: {
                "batchable": get_backend(name).capabilities.batchable,
                "incremental": get_backend(name).capabilities.incremental,
            }
            for name in ("sequential", "batch", "incremental")
        },
    }

    write_bench_report(args.output, report)

    print(
        format_table(
            ["path", "steps/sec", "speedup"],
            [
                ["incremental backend", f"{session['incremental_steps_per_sec']:.2f}",
                 f"{session['speedup']:.2f}x"],
                ["full recount (sequential)", f"{session['full_recount_steps_per_sec']:.2f}",
                 "1.00x"],
            ],
            title=(
                f"Cleaning-session certainty checks — {session['steps']} pins, "
                f"{session['n_val']} validation points"
            ),
        )
    )
    print()
    print(
        format_table(
            ["flavor", "sequential s", "batch s", "speedup"],
            [
                [flavor, f"{row['sequential_seconds']:.3f}",
                 f"{row['batch_seconds']:.3f}", f"{row['speedup']:.2f}x"]
                for flavor, row in flavors.items()
            ],
            title=f"Batch backend vs sequential per task flavor ({scale} scale)",
        )
    )

    if session["speedup"] < 2.0:
        print(
            f"FAIL: incremental backend is only {session['speedup']:.2f}x over "
            "full recount; the bar is 2x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
