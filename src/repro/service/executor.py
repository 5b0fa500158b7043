"""The executor worker process of the partitioned serving topology.

One executor owns a set of candidate-row partitions
(:class:`~repro.service.partition.RowPartition` spans) per dataset, each
with **shard-local prepared state**: the partition's candidate sets are
stacked into one matrix at registration time, so a query pays only the
kernel call and the tally fold — never the per-request stacking the
single-process batch path re-does on every flush. The gateway
(:mod:`repro.service.gateway`) talks to the executor over a duplex
:func:`multiprocessing.Pipe` with a strict request/response discipline;
:func:`executor_main` is the child-process entry point.

Two query operations exist, matching the gateway's two merge modes:

* ``minmax`` — per-row min/max similarity tallies over the partition's
  rows, folded candidate-block by candidate-block with
  :func:`repro.core.shards.merge_minmax_block` (the exact associative
  algebra), pins applied locally as ``lo == hi == pinned similarity``.
  Only ``(n_points, n_rows_local)`` floats ride back.
* ``sims`` — the raw kernel similarity block over the partition's stacked
  candidates (optionally with pinned rows restricted to their single
  pinned candidate, mirroring ``restrict_row``). The gateway concatenates
  blocks into the exact full similarity matrix and runs the ordinary scan
  decisions on it.

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

from repro.core.kernels import Kernel, resolve_kernel
from repro.core.shards import DEFAULT_TILE_CANDIDATES, merge_minmax_block

__all__ = ["ExecutorPartition", "serve_executor", "executor_main"]


class ExecutorPartition:
    """One partition's shard-local prepared state inside an executor.

    Holds the partition's candidate sets (rows ``[row_start, row_start +
    n_rows)`` of the dataset) plus the stacked matrix / offsets /
    stacked-position→local-row map built once at registration — the
    prepared state every query against this partition reuses.
    """

    __slots__ = (
        "partition_id",
        "row_start",
        "candidate_sets",
        "counts",
        "offsets",
        "stacked",
        "rows",
    )

    def __init__(
        self, partition_id: int, row_start: int, candidate_sets: list[np.ndarray]
    ) -> None:
        if not candidate_sets:
            raise ValueError("a partition needs at least one row")
        self.partition_id = int(partition_id)
        self.row_start = int(row_start)
        self.candidate_sets = [
            np.ascontiguousarray(cands, dtype=np.float64) for cands in candidate_sets
        ]
        self.counts = np.array([c.shape[0] for c in self.candidate_sets], dtype=np.int64)
        self.offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(self.counts)]
        )
        self.stacked = np.concatenate(self.candidate_sets, axis=0)
        self.rows = np.repeat(
            np.arange(len(self.candidate_sets), dtype=np.int64), self.counts
        )

    @property
    def n_rows(self) -> int:
        return len(self.candidate_sets)

    def _local_pins(self, pins: dict[int, int]) -> list[tuple[int, int]]:
        """The pins that land in this partition, as (local row, candidate)."""
        local = []
        for row, cand in sorted(pins.items()):
            offset = int(row) - self.row_start
            if 0 <= offset < self.n_rows:
                if not 0 <= int(cand) < int(self.counts[offset]):
                    raise IndexError(
                        f"pinned candidate {cand} out of range for row {row} "
                        f"with {int(self.counts[offset])} candidates"
                    )
                local.append((offset, int(cand)))
        return local

    def minmax_tallies(
        self,
        test_X: np.ndarray,
        kernel: Kernel,
        pins: dict[int, int],
        tile_candidates: int = DEFAULT_TILE_CANDIDATES,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row min/max similarity tallies for this partition's rows.

        The :func:`repro.core.shards.merge_minmax_block` fold over this
        partition's rows: bounded kernel blocks, the associative merge,
        pins applied as ``lo == hi``. The returned
        ``(n_points, n_rows)`` pair is ready for the gateway's
        concatenation merge.
        """
        n_points = test_X.shape[0]
        total = int(self.offsets[-1])
        mins = np.full((n_points, self.n_rows), np.inf)
        maxs = np.full((n_points, self.n_rows), -np.inf)
        pin_items = self._local_pins(pins)
        pin_positions = [
            int(self.offsets[offset]) + cand for offset, cand in pin_items
        ]
        pinned_sims = np.empty((n_points, len(pin_items)))
        step = max(int(tile_candidates), 1)
        for c0 in range(0, total, step):
            c1 = min(c0 + step, total)
            block = kernel.pairwise(self.stacked[c0:c1], test_X)
            merge_minmax_block(mins, maxs, block, self.rows, self.offsets, c0, c1)
            for slot, position in enumerate(pin_positions):
                if c0 <= position < c1:
                    pinned_sims[:, slot] = block[:, position - c0]
        for slot, (offset, _) in enumerate(pin_items):
            mins[:, offset] = pinned_sims[:, slot]
            maxs[:, offset] = pinned_sims[:, slot]
        return mins, maxs

    def sim_block(
        self,
        test_X: np.ndarray,
        kernel: Kernel,
        restrict: dict[int, int] | None = None,
    ) -> np.ndarray:
        """The raw similarity block over this partition's stacked candidates.

        With ``restrict``, rows pinned there contribute only their pinned
        candidate (the partition-local image of ``dataset.restrict_row``);
        the block's columns then follow the restricted dataset's stacked
        order. Slicing candidate rows never changes a similarity — each
        one is computed from that candidate's features alone — so the
        gateway's concatenation reproduces the single-process matrix
        bit for bit.
        """
        if restrict:
            local = dict(self._local_pins(restrict))
            if local:
                parts = [
                    cands[local[offset] : local[offset] + 1]
                    if offset in local
                    else cands
                    for offset, cands in enumerate(self.candidate_sets)
                ]
                return kernel.pairwise(np.concatenate(parts, axis=0), test_X)
        return kernel.pairwise(self.stacked, test_X)


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
            int(spec["partition_id"]): ExecutorPartition(
                int(spec["partition_id"]),
                int(spec["row_start"]),
                spec["candidate_sets"],
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
            started = time.perf_counter() if trace else 0.0
            wall = time.time() if trace else 0.0
            if op == "minmax":
                out[int(partition_id)] = partition.minmax_tallies(
                    test_X, kernel, dict(message.get("pins") or {})
                )
            else:
                out[int(partition_id)] = partition.sim_block(
                    test_X, kernel, restrict=message.get("restrict")
                )
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
                            "n_rows": partition.n_rows,
                            "n_candidates": int(partition.offsets[-1]),
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
