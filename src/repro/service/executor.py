"""The executor worker process of the partitioned serving topology.

One executor owns a set of partitions per dataset: contiguous row spans
(:class:`~repro.service.partition.RowPartition`), each held as ``(row
start, IncompleteDataset slice)``. The slice is built once at
registration from the candidate sets and labels the gateway ships, so its
stacked candidates — the one preparation input of every scan — are
prepared once and reused by every query against the partition. The
gateway (:mod:`repro.service.gateway`) talks to the executor over a
duplex :func:`multiprocessing.Pipe` with a strict request/response
discipline; :func:`executor_main` is the child-process entry point.

Two query operations exist, one per kind of input the planner's table
functions read (:data:`repro.core.planner.POINT_FUNCTIONS`):

* ``minmax`` — per-row min/max similarity tallies over the slice, from
  the one extremes fold :func:`repro.core.minmax.stream_extremes`, with
  the partition's pins collapsed to their pinned candidate. Only
  ``(n_points, n_rows_local)`` floats ride back.
* ``sims`` — :func:`~repro.core.scan.similarity_matrix` of the slice,
  with the partition's pins restricted in by ``restrict_row``. The
  gateway concatenates the blocks into the exact full similarity matrix.

Every reply echoes ``ok``; failures inside an operation are caught and
returned as ``{"ok": False, "error": ...}`` so one bad request cannot
kill the worker. A fingerprint mismatch returns ``{"ok": False,
"stale": True}`` — the gateway treats that as "my snapshot raced a
redistribute" and falls back to local execution for that query.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.kernels import resolve_kernel
from repro.core.minmax import stream_extremes
from repro.core.scan import similarity_matrix

__all__ = ["serve_executor", "executor_main"]


def serve_executor(conn, executor_id: int) -> None:
    """The executor request loop: recv one message, send one reply, repeat.

    Messages are dicts with an ``"op"`` key. Unknown ops and in-operation
    failures answer ``{"ok": False, "error": ...}``; a broken pipe (the
    gateway died) or a ``shutdown`` op ends the loop.
    """
    datasets: dict[str, dict[str, Any]] = {}
    n_requests = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        n_requests += 1
        try:
            reply = _handle(datasets, executor_id, n_requests, message)
        except Exception as exc:  # noqa: BLE001 — must answer, never die
            reply = {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        if message.get("op") == "shutdown":
            break


def _require_dataset(
    datasets: dict[str, dict[str, Any]], message: dict
) -> dict[str, Any] | dict:
    """The dataset state for a query op, or a structured failure reply."""
    name = message["name"]
    state = datasets.get(name)
    if state is None:
        return {"ok": False, "stale": True, "error": f"dataset {name!r} not prepared"}
    if state["fingerprint"] != message["fingerprint"]:
        return {
            "ok": False,
            "stale": True,
            "error": f"dataset {name!r} is at a different fingerprint",
        }
    return state


def _handle(
    datasets: dict[str, dict[str, Any]],
    executor_id: int,
    n_requests: int,
    message: dict,
) -> dict:
    op = message.get("op")
    if op == "ping" or op == "shutdown":
        return {
            "ok": True,
            "executor": executor_id,
            "pid": os.getpid(),
            "n_requests": n_requests,
            "datasets": {
                name: sorted(state["partitions"]) for name, state in datasets.items()
            },
        }
    if op == "register":
        partitions = {
            int(spec["partition_id"]): (
                int(spec["row_start"]),
                IncompleteDataset(spec["candidate_sets"], spec["labels"]),
            )
            for spec in message["partitions"]
        }
        datasets[message["name"]] = {
            "fingerprint": message["fingerprint"],
            "partitions": partitions,
        }
        return {"ok": True, "n_partitions": len(partitions)}
    if op == "drop":
        datasets.pop(message["name"], None)
        return {"ok": True}
    if op in ("minmax", "sims"):
        state = _require_dataset(datasets, message)
        if not state.get("ok", True):
            return state
        kernel = resolve_kernel(message.get("kernel"))
        test_X = np.asarray(message["test_X"], dtype=np.float64)
        # When the gateway is tracing ("trace": True in the request), each
        # partition's work is timed and shipped back as a plain-dict span
        # record; the gateway grafts these under its gather span so the
        # distributed query renders as one tree. Records are self-contained
        # (no Span objects cross the pipe) and ids are restamped on
        # adoption, so nothing about the parent trace needs to ride along.
        trace = bool(message.get("trace"))
        pins = dict(message.get("pins") or {})
        spans: list[dict] = []
        out: dict[int, Any] = {}
        for partition_id in message["partition_ids"]:
            partition = state["partitions"].get(int(partition_id))
            if partition is None:
                return {
                    "ok": False,
                    "stale": True,
                    "error": f"partition {partition_id} not prepared here",
                }
            row_start, dataset = partition
            local = {
                row - row_start: cand
                for row, cand in pins.items()
                if 0 <= row - row_start < dataset.n_rows
            }
            started = time.perf_counter() if trace else 0.0
            wall = time.time() if trace else 0.0
            if op == "minmax":
                out[int(partition_id)] = stream_extremes(dataset, test_X, kernel, local)
            else:
                for row, cand in sorted(local.items()):
                    dataset = dataset.restrict_row(row, cand)
                out[int(partition_id)] = similarity_matrix(dataset, test_X, kernel)
            if trace:
                spans.append(
                    {
                        "name": "executor.partition",
                        "start_time": wall,
                        "duration_ms": max(
                            time.perf_counter() - started, 0.0
                        )
                        * 1000.0,
                        "status": "ok",
                        "attributes": {
                            "executor": executor_id,
                            "pid": os.getpid(),
                            "partition": int(partition_id),
                            "op": op,
                            "n_rows": dataset.n_rows,
                            "n_candidates": int(dataset.stacked_candidates()[0].shape[0]),
                            "n_points": int(test_X.shape[0]),
                        },
                        "children": [],
                    }
                )
        reply = {"ok": True, "partitions": out}
        if trace:
            reply["spans"] = spans
        return reply
    return {"ok": False, "error": f"unknown op {op!r}"}


def executor_main(conn, executor_id: int) -> None:
    """Child-process entry point (the ``Process`` target)."""
    try:
        serve_executor(conn, executor_id)
    finally:
        try:
            conn.close()
        except OSError:
            pass
