"""Benchmark: the sharded out-of-core backend vs the sequential reference.

Three measurements, emitted both as human-readable tables and as
machine-readable JSON (``BENCH_shards.json``):

1. **Speedup** — the exact Q2 counting query over a validation set larger
   than one tile, run once on the ``sequential`` backend (one prepared
   scan per point) and once on the ``sharded`` backend with 4 workers.
   The acceptance bar is a >=2x wall-clock advantage with bit-identical
   counts (the tuned scan kernel plus the streamed vectorised distance
   tiles deliver it even on a single CPU; the persistent fork pool adds
   on top where cores exist).
2. **Memory model** — the resident tile buffer vs the dense similarity
   matrix the batch backend would allocate, straight from the backend's
   execution stats, plus the tile grid that was streamed.
3. **Tiling invariance** — the same query re-run across adversarial tile
   shapes (single-candidate tiles through single-tile), asserting results
   stay bit-identical while the streamed tile count changes.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_shards.py [--smoke] [--output PATH]

``--smoke`` shrinks the workload to a few seconds for CI.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from conftest import bench_output_path, write_bench_report
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.core.shards import ShardedBackend
from repro.data.task import build_cleaning_task
from repro.utils.tables import format_table

DEFAULT_OUTPUT = bench_output_path("shards")

_WORKLOADS = {
    # tile_rows chosen so the validation set spans several row tiles: the
    # acceptance bar is explicitly about a workload larger than one tile.
    "smoke": dict(n_train=120, n_val=32, tile_rows=8, tile_candidates=128),
    "default": dict(n_train=150, n_val=48, tile_rows=8, tile_candidates=256),
}

N_JOBS = 4


def bench_speedup(task, tile_rows: int, tile_candidates: int, repeats: int) -> dict:
    query = make_query(task.incomplete, task.val_X, kind="counts", k=task.k)

    def run(backend: str, options: ExecutionOptions):
        best, values = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            values = execute_query(query, backend=backend, options=options).values
            best = min(best, time.perf_counter() - start)
        return best, values

    t_seq, seq = run("sequential", ExecutionOptions(cache=False))
    t_sharded, sharded = run(
        "sharded",
        ExecutionOptions(
            cache=False,
            n_jobs=N_JOBS,
            tile_rows=tile_rows,
            tile_candidates=tile_candidates,
        ),
    )
    assert sharded == seq, "sharded counts diverged from the sequential reference"
    return {
        "n_points": query.n_points,
        "n_candidates": int(query.workload_size() / max(query.n_points, 1)),
        "n_jobs": N_JOBS,
        "tile_rows": tile_rows,
        "tile_candidates": tile_candidates,
        "sequential_seconds": t_seq,
        "sharded_seconds": t_sharded,
        "speedup": t_seq / t_sharded,
    }


def bench_memory_model(task, tile_rows: int, tile_candidates: int) -> dict:
    backend = ShardedBackend(tile_rows=tile_rows, tile_candidates=tile_candidates)
    query = make_query(task.incomplete, task.val_X, kind="counts", k=task.k)
    _, stats = backend.execute(query, ExecutionOptions(cache=False))
    stats["resident_fraction"] = stats["tile_buffer_bytes"] / stats["dense_bytes"]
    return stats


def bench_tiling_invariance(task) -> dict:
    query = make_query(task.incomplete, task.val_X, kind="counts", k=task.k)
    reference = execute_query(
        query, backend="sequential", options=ExecutionOptions(cache=False)
    ).values
    rows = []
    for tile_rows, tile_candidates in ((1, 1), (4, 32), (1_000_000, 1_000_000)):
        backend = ShardedBackend(tile_rows=tile_rows, tile_candidates=tile_candidates)
        values, stats = backend.execute(query, ExecutionOptions(cache=False))
        assert values == reference, (
            f"tiling {tile_rows}x{tile_candidates} changed the results"
        )
        rows.append(
            {
                "tile_rows": stats["tile_rows"],
                "tile_candidates": stats["tile_candidates"],
                "n_tiles_streamed": stats["n_tiles_streamed"],
                "identical": True,
            }
        )
    return {"n_points": query.n_points, "configurations": rows}


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

    speedup = bench_speedup(
        task, size["tile_rows"], size["tile_candidates"], repeats=2
    )
    memory = bench_memory_model(task, size["tile_rows"], size["tile_candidates"])
    invariance = bench_tiling_invariance(task)

    report = {
        "benchmark": "shards",
        "scale": scale,
        "workload": {
            "recipe": "supreme",
            "n_train": task.incomplete.n_rows,
            "n_val": int(task.val_X.shape[0]),
            "k": task.k,
        },
        "speedup": speedup,
        "memory_model": memory,
        "tiling_invariance": invariance,
    }

    write_bench_report(args.output, report)

    print(
        format_table(
            ["backend", "seconds", "speedup"],
            [
                ["sequential", f"{speedup['sequential_seconds']:.3f}", "1.00x"],
                [
                    f"sharded (n_jobs={N_JOBS})",
                    f"{speedup['sharded_seconds']:.3f}",
                    f"{speedup['speedup']:.2f}x",
                ],
            ],
            title=(
                f"Exact Q2 counts, {speedup['n_points']} points over "
                f"{memory['n_row_tiles']} row tiles ({scale} scale)"
            ),
        )
    )
    print()
    print(
        format_table(
            ["quantity", "bytes"],
            [
                ["resident tile buffer", str(memory["tile_buffer_bytes"])],
                ["dense similarity matrix", str(memory["dense_bytes"])],
                ["resident fraction", f"{memory['resident_fraction']:.1%}"],
            ],
            title=(
                f"Memory model — {memory['n_row_tiles']}x"
                f"{memory['n_candidate_tiles']} tile grid, "
                f"{memory['n_tiles_streamed']} row tiles streamed"
            ),
        )
    )
    print()
    print(
        format_table(
            ["tile_rows", "tile_candidates", "row tiles streamed", "identical"],
            [
                [str(row["tile_rows"]), str(row["tile_candidates"]),
                 str(row["n_tiles_streamed"]), "yes"]
                for row in invariance["configurations"]
            ],
            title="Tiling invariance (all configurations bit-identical)",
        )
    )

    if speedup["speedup"] < 2.0:
        print(
            f"FAIL: sharded backend is only {speedup['speedup']:.2f}x over "
            "sequential; the bar is 2x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
