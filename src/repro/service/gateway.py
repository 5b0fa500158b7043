"""The partitioned serving gateway: scatter, gather, merge — exactly.

:class:`Gateway` is the front-end half of the multi-process serving
topology. It owns ``N`` executor worker processes
(:mod:`repro.service.executor`), each holding candidate-row partitions of
every distributed dataset with shard-local prepared state. Placement is
consistent-hash based (:class:`~repro.service.partition.HashRing` over
``"name/partition"`` keys with bounded load), so the partition → executor
map is deterministic and stable across gateway restarts.

A query scatters to the executors owning the dataset's partitions — one
pipe round trip per executor, issued concurrently — and the gateway
merges the per-partition results into the full answer:

* binary ``certain_label`` / ``check`` gather per-row **min/max tallies**
  (folded executor-side with the associative algebra of
  :func:`repro.core.shards.merge_minmax_block`), concatenate them across
  the disjoint row spans, and decide with the reference
  :func:`~repro.core.shards.binary_minmax_label` — bit-identical to the
  single-process MinMax path.
* every other flavor × kind gathers raw **similarity blocks** over each
  partition's stacked candidates; concatenation in partition order
  restores the exact global similarity matrix (each similarity depends
  only on its own candidate's features), and the gateway runs the very
  same scan decisions the in-process backends run.

Robustness is part of the contract, not an afterthought: every executor
request carries a timeout and a bounded retry budget; a dead or wedged
executor is SIGKILLed and respawned with its partitions re-prepared from
the gateway's authoritative copy, without touching in-flight requests on
surviving executors (per-executor locks, per-executor scatter threads). A
query that still cannot be served — or that races a redistribution
(stale fingerprint) — raises :class:`GatewayUnavailable`, which the
broker treats as "execute locally instead": partitioned serving degrades
to single-process serving, never to a wrong or dropped answer.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Any

import numpy as np

from repro.core.engine import counts_from_scan
from repro.core.label_uncertainty import label_uncertain_counts
from repro.core.planner import (
    CPQuery,
    QueryPlan,
    QueryResult,
    _conditioned_weights,
    _counts_to_kind,
    _restricted_dataset,
    _weighted_to_kind,
)
from repro.core.scan import scan_from_sims
from repro.core.shards import binary_minmax_label
from repro.core.topk_prob import topk_inclusion_counts
from repro.core.weighted import weighted_prediction_probabilities
from repro.obs import Observability
from repro.obs.tracing import trace_span
from repro.service.executor import executor_main
from repro.service.partition import (
    HashRing,
    RowPartition,
    merge_minmax_tallies,
    merge_sim_blocks,
    plan_row_partitions,
)
from repro.utils.validation import check_positive_int

__all__ = ["GatewayError", "GatewayUnavailable", "Gateway"]


class GatewayError(RuntimeError):
    """A partitioned execution failed in a way retries could not mask."""


class GatewayUnavailable(GatewayError):
    """The gateway cannot serve this query exactly right now.

    Raised on executor loss beyond the retry budget and on snapshot races
    (an executor's partitions are at a different dataset fingerprint than
    the query's). The broker's contract is to catch this and fall back to
    local single-process execution — same exact values, one process.
    """


class _ExecutorDown(RuntimeError):
    """Internal: one pipe round trip failed (dead/wedged executor)."""


class _ExecutorHandle:
    """The gateway-side state of one executor worker process."""

    __slots__ = (
        "executor_id",
        "process",
        "conn",
        "lock",
        "restarts",
        "requests",
        "errors",
        "latency_total_s",
        "last_latency_s",
        "last_seen",
    )

    def __init__(self, executor_id: int) -> None:
        self.executor_id = executor_id
        self.process = None
        self.conn = None
        self.lock = threading.RLock()
        self.restarts = -1  # first spawn brings it to 0
        self.requests = 0
        self.errors = 0
        self.latency_total_s = 0.0
        self.last_latency_s: float | None = None
        # Monotonic timestamp of the last proof of life (spawn, successful
        # round trip, or monitor observation); /healthz reports its age.
        self.last_seen: float | None = None


class _DistributedDataset:
    """The gateway's authoritative record of one distributed dataset.

    Keeps the candidate sets themselves (references, not copies) so a
    respawned executor's partitions can be re-prepared without consulting
    the registry.
    """

    __slots__ = ("name", "fingerprint", "partitions", "assignment", "candidate_sets")

    def __init__(
        self,
        name: str,
        fingerprint: str,
        partitions: tuple[RowPartition, ...],
        assignment: dict[int, int],
        candidate_sets: list[np.ndarray],
    ) -> None:
        self.name = name
        self.fingerprint = fingerprint
        self.partitions = partitions
        self.assignment = assignment
        self.candidate_sets = candidate_sets

    def specs_for(self, executor_id: int) -> list[dict]:
        """The ``register`` payload entries owned by ``executor_id``."""
        return [
            {
                "partition_id": partition.index,
                "row_start": partition.start,
                "candidate_sets": self.candidate_sets[partition.start : partition.stop],
            }
            for partition in self.partitions
            if self.assignment[partition.index] == executor_id
        ]


def _preferred_context():
    """Forkserver where available, spawn otherwise.

    Never plain ``fork``: respawns run at arbitrary times from
    request-handling threads (HTTP connection threads, the monitor), and
    forking a multithreaded parent can deadlock the child on locks held
    at fork time (malloc/BLAS/NumPy internals). ``forkserver`` forks from
    a dedicated single-threaded server process instead; preloading the
    executor module there pays the heavy imports once, not per respawn.
    """
    if "forkserver" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload(["repro.service.executor"])
        return context
    return multiprocessing.get_context("spawn")


class Gateway:
    """Partition-parallel query execution across executor worker processes.

    Parameters
    ----------
    n_executors:
        Worker processes to own (``>= 1``).
    partitions_per_executor:
        Target partitions per executor; a dataset is cut into
        ``n_executors * partitions_per_executor`` row spans (clamped to
        its row count). More than one per executor keeps the consistent
        placement balanced when membership changes.
    timeout_s:
        Per-request pipe timeout. A request that exceeds it marks the
        executor dead (it is killed and respawned).
    retries:
        Bounded retry budget per executor request *after* the first
        attempt; each retry respawns the executor first.
    monitor_interval_s:
        The health monitor's poll period: dead executors are respawned
        proactively, not just when a query trips over them. ``0``
        disables the monitor thread.
    obs:
        The :class:`~repro.obs.Observability` bundle the gateway reports
        into (shared with the broker/server by ``make_service``); a bare
        gateway creates its own.
    """

    def __init__(
        self,
        n_executors: int,
        partitions_per_executor: int = 2,
        timeout_s: float = 30.0,
        retries: int = 1,
        ring_replicas: int = 64,
        monitor_interval_s: float = 0.5,
        start: bool = True,
        obs: Observability | None = None,
    ) -> None:
        self.n_executors = check_positive_int(n_executors, "n_executors")
        self.partitions_per_executor = check_positive_int(
            partitions_per_executor, "partitions_per_executor"
        )
        if not timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.monitor_interval_s = float(monitor_interval_s)
        self._ctx = _preferred_context()
        self._ring = HashRing(range(self.n_executors), replicas=ring_replicas)
        self._handles = [_ExecutorHandle(i) for i in range(self.n_executors)]
        self._datasets: dict[str, _DistributedDataset] = {}
        self._datasets_lock = threading.Lock()
        self._dist_lock = threading.Lock()
        # Typed instruments replace the old _metrics_lock-guarded ints; the
        # legacy metrics() key set reads them back.
        self.obs = obs if obs is not None else Observability()
        m = self.obs.metrics
        self._c_queries = m.counter(
            "gateway_queries_total", help="queries executed partition-parallel"
        )
        self._c_scatters = m.counter("gateway_scatters_total")
        self._c_respawns = m.counter(
            "gateway_respawns_total", help="executor processes respawned"
        )
        self._c_stale = m.counter("gateway_stale_snapshots_total")
        self._c_unavailable = m.counter(
            "gateway_unavailable_total",
            help="queries abandoned to the local-planner fallback",
        )
        self._h_roundtrip = m.histogram(
            "gateway_roundtrip_seconds", help="one executor pipe round trip"
        )
        m.add_collector(self._collect_gauges)
        self._closed = False
        self._monitor_stop = threading.Event()
        self._monitor: threading.Thread | None = None
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every executor (idempotent) and the health monitor."""
        if self._closed:
            raise GatewayError("gateway is closed")
        for handle in self._handles:
            with handle.lock:
                if handle.process is None or not handle.process.is_alive():
                    self._respawn_locked(handle)
        if self.monitor_interval_s > 0 and self._monitor is None:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="gateway-monitor", daemon=True
            )
            self._monitor.start()

    def _respawn_locked(self, handle: _ExecutorHandle) -> None:
        """(Re)spawn one executor; caller holds ``handle.lock``.

        Kills any previous incarnation, opens a fresh pipe, and re-prepares
        every partition the consistent placement assigns to this executor
        from the gateway's authoritative candidate sets. Only this
        executor's lock is held — queries on surviving executors keep
        flowing while the respawn runs.
        """
        self._kill_locked(handle)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=executor_main,
            args=(child_conn, handle.executor_id),
            name=f"repro-executor-{handle.executor_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.restarts += 1
        handle.last_seen = time.monotonic()
        if handle.restarts > 0:
            self._c_respawns.inc()
        with self._datasets_lock:
            distributed = list(self._datasets.values())
        for dist in distributed:
            specs = dist.specs_for(handle.executor_id)
            if specs:
                self._roundtrip_locked(
                    handle,
                    {
                        "op": "register",
                        "name": dist.name,
                        "fingerprint": dist.fingerprint,
                        "partitions": specs,
                    },
                )

    def _kill_locked(self, handle: _ExecutorHandle) -> None:
        """Tear down one executor's process and pipe; caller holds its lock."""
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=5.0)
            handle.process = None

    def _monitor_loop(self) -> None:
        """Respawn dead executors proactively (detection without traffic)."""
        while not self._monitor_stop.wait(self.monitor_interval_s):
            for handle in self._handles:
                if self._closed:
                    return
                process = handle.process
                if process is not None and process.is_alive():
                    handle.last_seen = time.monotonic()
                if process is not None and not process.is_alive():
                    try:
                        with handle.lock:
                            if (
                                handle.process is not None
                                and not handle.process.is_alive()
                            ):
                                self._respawn_locked(handle)
                    except Exception:  # noqa: BLE001 — next query retries anyway
                        pass

    def close(self) -> None:
        """Shut every executor down. Idempotent; in-flight calls fail fast."""
        if self._closed:
            return
        self._closed = True
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for handle in self._handles:
            with handle.lock:
                if handle.conn is not None:
                    try:
                        handle.conn.send({"op": "shutdown"})
                    except (OSError, BrokenPipeError, ValueError):
                        pass
                self._kill_locked(handle)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _roundtrip_locked(self, handle: _ExecutorHandle, message: dict) -> dict:
        """One send/recv on the executor's pipe; caller holds its lock."""
        handle.requests += 1
        started = time.perf_counter()
        try:
            handle.conn.send(message)
            if not handle.conn.poll(self.timeout_s):
                raise _ExecutorDown(
                    f"executor {handle.executor_id} timed out after {self.timeout_s}s"
                )
            reply = handle.conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            handle.errors += 1
            raise _ExecutorDown(
                f"executor {handle.executor_id} pipe failed: {exc}"
            ) from exc
        except _ExecutorDown:
            handle.errors += 1
            raise
        elapsed = time.perf_counter() - started
        handle.last_latency_s = elapsed
        handle.latency_total_s += elapsed
        handle.last_seen = time.monotonic()
        self._h_roundtrip.observe(elapsed)
        return reply

    def _call(self, handle: _ExecutorHandle, message: dict) -> dict:
        """A request with bounded retry; failures respawn the executor."""
        if self._closed:
            raise GatewayUnavailable("gateway is closed")
        last_error: Exception | None = None
        for _ in range(self.retries + 1):
            with handle.lock:
                try:
                    if handle.process is None or not handle.process.is_alive():
                        self._respawn_locked(handle)
                    reply = self._roundtrip_locked(handle, message)
                except _ExecutorDown as exc:
                    last_error = exc
                    # A wedged-but-alive executor still owes this request its
                    # reply; reusing the pipe would read that stale reply as
                    # the answer to a *later* request. Kill under the lock so
                    # every subsequent attempt respawns with a fresh pipe.
                    self._kill_locked(handle)
                    continue
            if reply.get("ok"):
                return reply
            if reply.get("stale"):
                self._c_stale.inc()
                raise GatewayUnavailable(
                    f"stale snapshot on executor {handle.executor_id}: "
                    f"{reply.get('error')}"
                )
            raise GatewayError(
                f"executor {handle.executor_id} failed: {reply.get('error')}"
            )
        self._c_unavailable.inc()
        raise GatewayUnavailable(
            f"executor {handle.executor_id} unavailable after "
            f"{self.retries + 1} attempts: {last_error}"
        )

    # ------------------------------------------------------------------
    # Distribution
    # ------------------------------------------------------------------
    def ensure_distributed(
        self, name: str, dataset, fingerprint: str | None = None
    ) -> _DistributedDataset:
        """Distribute ``dataset`` under ``name`` if not already at this
        fingerprint; returns the (re)used distribution record."""
        if fingerprint is None:
            fingerprint = dataset.fingerprint()
        with self._datasets_lock:
            dist = self._datasets.get(name)
        if dist is not None and dist.fingerprint == fingerprint:
            return dist
        with self._dist_lock:
            with self._datasets_lock:
                dist = self._datasets.get(name)
            if dist is not None and dist.fingerprint == fingerprint:
                return dist
            return self._distribute(name, dataset, fingerprint)

    def _distribute(
        self, name: str, dataset, fingerprint: str
    ) -> _DistributedDataset:
        """Partition, place, and push one dataset; holds ``_dist_lock``."""
        candidate_sets = [dataset.candidates(row) for row in range(dataset.n_rows)]
        partitions = plan_row_partitions(
            dataset.n_rows, self.n_executors * self.partitions_per_executor
        )
        placement = self._ring.assign(
            [f"{name}/{partition.index}" for partition in partitions]
        )
        assignment = {
            partition.index: placement[f"{name}/{partition.index}"]
            for partition in partitions
        }
        dist = _DistributedDataset(
            name, fingerprint, partitions, assignment, candidate_sets
        )
        for handle in self._handles:
            specs = dist.specs_for(handle.executor_id)
            if specs:
                self._call(
                    handle,
                    {
                        "op": "register",
                        "name": name,
                        "fingerprint": fingerprint,
                        "partitions": specs,
                    },
                )
        # Commit only after every executor accepted its partitions: a push
        # that dies mid-way must not leave a record claiming the dataset is
        # distributed (queries would scatter into "not prepared" replies).
        # Respawn re-registration reads from committed records only, so a
        # respawn during the push simply retries this register afterwards.
        with self._datasets_lock:
            self._datasets[name] = dist
        return dist

    def drop(self, name: str) -> None:
        """Forget ``name`` everywhere (registry removal hook)."""
        with self._datasets_lock:
            dist = self._datasets.pop(name, None)
        if dist is None:
            return
        for handle in self._handles:
            try:
                self._call(handle, {"op": "drop", "name": name})
            except GatewayError:
                pass  # a dead executor forgets by dying

    # ------------------------------------------------------------------
    # Scatter/gather
    # ------------------------------------------------------------------
    def _scatter(
        self, dist: _DistributedDataset, op: str, payload: dict
    ) -> list[Any]:
        """Issue ``op`` to every executor owning a partition of ``dist``,
        concurrently, and return per-partition results in partition order."""
        self._c_scatters.inc()
        groups: dict[int, list[int]] = {}
        for partition in dist.partitions:
            groups.setdefault(dist.assignment[partition.index], []).append(
                partition.index
            )
        results: dict[int, Any] = {}
        failures: list[Exception] = []
        gather_lock = threading.Lock()
        # Gather threads attach their spans to the scatter span explicitly:
        # thread-local propagation does not cross threading.Thread.
        scatter_span = trace_span(
            "gateway.scatter",
            op=op,
            dataset=dist.name,
            partitions_scattered=len(dist.partitions),
            n_executors=len(groups),
        )

        def gather(executor_id: int, partition_ids: list[int]) -> None:
            message = {
                "op": op,
                "name": dist.name,
                "fingerprint": dist.fingerprint,
                "partition_ids": partition_ids,
                "trace": bool(scatter_span),
                **payload,
            }
            with trace_span(
                "gateway.gather",
                parent=scatter_span,
                executor=executor_id,
                n_partitions=len(partition_ids),
            ) as gspan:
                try:
                    reply = self._call(self._handles[executor_id], message)
                except Exception as exc:  # noqa: BLE001 — re-raised below
                    with gather_lock:
                        failures.append(exc)
                    return
                # Executor-side timings crossed the pipe as plain records;
                # grafting them here renders the distributed execution as
                # one tree.
                for record in reply.get("spans") or ():
                    gspan.adopt(record)
            with gather_lock:
                results.update(reply["partitions"])

        with scatter_span:
            items = sorted(groups.items())
            threads = [
                threading.Thread(target=gather, args=item, daemon=True)
                for item in items[1:]
            ]
            for thread in threads:
                thread.start()
            gather(*items[0])  # run one group on the calling thread
            for thread in threads:
                thread.join()
            scatter_span.set(failures=len(failures))
        if failures:
            for failure in failures:
                if isinstance(failure, GatewayUnavailable):
                    raise failure
            raise failures[0]
        return [results[partition.index] for partition in dist.partitions]

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute_query(
        self, name: str, query: CPQuery, fingerprint: str | None = None
    ) -> QueryResult:
        """Execute ``query`` partition-parallel; bit-identical to local.

        ``query.dataset`` is the authoritative content; it is distributed
        (or re-distributed, if its fingerprint moved) on first use. Raises
        :class:`GatewayUnavailable` when partitioned execution cannot
        proceed — the caller's cue to execute locally instead.
        """
        if self._closed:
            raise GatewayUnavailable("gateway is closed")
        dist = self.ensure_distributed(name, query.dataset, fingerprint)
        self._c_queries.inc()
        with trace_span(
            "gateway.execute",
            dataset=name,
            flavor=query.flavor,
            kind=query.kind,
            n_points=query.n_points,
            n_partitions=len(dist.partitions),
        ) as span:
            if query.flavor == "binary" and query.kind in ("certain_label", "check"):
                values, mode = self._execute_minmax(dist, query), "minmax"
            else:
                values, mode = self._execute_scan(dist, query), "scan"
            span.set(merge_mode=mode)
        n_owning = len({dist.assignment[p.index] for p in dist.partitions})
        plan = QueryPlan(
            backend="gateway",
            reason=(
                f"scatter-gathered over {len(dist.partitions)} partitions "
                f"on {n_owning} executors ({mode} merge)"
            ),
            cost=0.0,
        )
        stats = {
            "gateway": True,
            "merge_mode": mode,
            "n_partitions": len(dist.partitions),
            "n_executors": self.n_executors,
            "n_points": query.n_points,
        }
        return QueryResult(query=query, plan=plan, values=values, stats=stats)

    def _execute_minmax(
        self, dist: _DistributedDataset, query: CPQuery
    ) -> list:
        """Binary Q1 via gathered per-row min/max tallies (pins pre-applied)."""
        tallies = self._scatter(
            dist,
            "minmax",
            {
                "test_X": query.test_X,
                "kernel": query.kernel,
                "pins": query.pins_dict(),
            },
        )
        lo, hi = merge_minmax_tallies(tallies)
        labels = query.dataset.labels
        if lo.shape[1] != labels.shape[0]:
            raise GatewayError(
                f"merged tallies cover {lo.shape[1]} rows, dataset has "
                f"{labels.shape[0]}"
            )
        decisions = [
            binary_minmax_label(lo[index], hi[index], labels, query.k)
            for index in range(query.n_points)
        ]
        if query.kind == "certain_label":
            return decisions
        return [label == query.label for label in decisions]

    def _execute_scan(self, dist: _DistributedDataset, query: CPQuery) -> list:
        """Every other flavor × kind: gather similarity blocks, merge, scan.

        Mirrors :class:`~repro.core.shards.ShardedBackend`'s flavor
        dispatch: same scan construction, same per-point evaluators, same
        kind conversions — only the similarity matrix arrives partition by
        partition instead of being computed here.
        """
        flavor = query.flavor
        pins = query.pins_dict()
        restricted = None
        if flavor in ("binary", "multiclass", "weighted"):
            scan_dataset = query.dataset
            restrict = None
        elif flavor == "topk":
            restricted = _restricted_dataset(query)
            scan_dataset = restricted
            restrict = pins or None
        else:  # label_uncertainty
            restricted = _restricted_dataset(query)
            scan_dataset = restricted.feature_dataset
            restrict = pins or None
        sims = merge_sim_blocks(
            self._scatter(
                dist,
                "sims",
                {"test_X": query.test_X, "kernel": query.kernel, "restrict": restrict},
            )
        )
        n_candidates = scan_dataset.stacked_candidates()[1].shape[0]
        if sims.shape[1] != n_candidates:
            raise GatewayError(
                f"merged similarity blocks cover {sims.shape[1]} candidates, "
                f"the scan layout expects {n_candidates}"
            )
        scans = (
            scan_from_sims(scan_dataset, sims[index]) for index in range(query.n_points)
        )
        if flavor in ("binary", "multiclass"):
            n_labels = query.dataset.n_labels
            per_point = [
                counts_from_scan(scan, query.k, n_labels, pins) for scan in scans
            ]
            return _counts_to_kind(query, per_point)
        if flavor == "weighted":
            weights = _conditioned_weights(query)
            probs = [
                weighted_prediction_probabilities(
                    query.dataset,
                    query.test_X[index],
                    k=query.k,
                    weights=weights,
                    kernel=query.kernel,
                    scan=scan,
                )
                for index, scan in enumerate(scans)
            ]
            return _weighted_to_kind(query, probs)
        if flavor == "topk":
            return [
                topk_inclusion_counts(
                    restricted,
                    query.test_X[index],
                    k=query.k,
                    kernel=query.kernel,
                    scan=scan,
                )
                for index, scan in enumerate(scans)
            ]
        per_point = [
            label_uncertain_counts(
                restricted,
                query.test_X[index],
                k=query.k,
                kernel=query.kernel,
                scan=scan,
            )
            for index, scan in enumerate(scans)
        ]
        return _counts_to_kind(query, per_point)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def ping(self) -> list[dict]:
        """One health round trip per executor (respawning dead ones)."""
        return [
            self._call(handle, {"op": "ping"}) for handle in self._handles
        ]

    def describe_dataset(self, name: str) -> dict | None:
        """The partition layout of ``name`` (for registry entries), if any."""
        with self._datasets_lock:
            dist = self._datasets.get(name)
        if dist is None:
            return None
        return {
            "fingerprint": dist.fingerprint,
            "n_partitions": len(dist.partitions),
            "partitions": [
                {
                    "partition": partition.index,
                    "rows": [partition.start, partition.stop],
                    "executor": dist.assignment[partition.index],
                }
                for partition in dist.partitions
            ],
        }

    def metrics(self) -> dict:
        """Per-executor health/latency/partition counters for ``/metrics``."""
        with self._datasets_lock:
            distributed = list(self._datasets.values())
        owned: dict[int, int] = {
            handle.executor_id: 0 for handle in self._handles
        }
        for dist in distributed:
            for partition in dist.partitions:
                owned[dist.assignment[partition.index]] += 1
        executors = {}
        for handle in self._handles:
            process = handle.process
            requests = handle.requests
            executors[str(handle.executor_id)] = {
                "pid": process.pid if process is not None else None,
                "alive": bool(process is not None and process.is_alive()),
                "restarts": max(handle.restarts, 0),
                "requests": requests,
                "errors": handle.errors,
                "partitions": owned[handle.executor_id],
                "last_latency_s": handle.last_latency_s,
                "avg_latency_s": (
                    handle.latency_total_s / requests if requests else None
                ),
            }
        totals = {
            "queries": self._c_queries.value,
            "scatters": self._c_scatters.value,
            "respawns": self._c_respawns.value,
            "stale_snapshots": self._c_stale.value,
            "unavailable": self._c_unavailable.value,
        }
        return {
            "n_executors": self.n_executors,
            "partitions_per_executor": self.partitions_per_executor,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            **totals,
            "executors": executors,
            "datasets": {
                dist.name: {
                    "fingerprint": dist.fingerprint,
                    "n_partitions": len(dist.partitions),
                }
                for dist in distributed
            },
        }

    def health(self) -> dict:
        """Per-executor readiness for ``/healthz``.

        ``status`` is ``"ok"`` only while every executor process is
        alive; a dead executor awaiting respawn degrades the whole
        gateway (the broker still serves exactly via local fallback, but
        an operator or load balancer should know capacity is reduced).
        """
        now = time.monotonic()
        executors = []
        degraded = False
        for handle in self._handles:
            process = handle.process
            alive = bool(process is not None and process.is_alive())
            if not alive:
                degraded = True
            executors.append(
                {
                    "executor_id": handle.executor_id,
                    "pid": process.pid if process is not None else None,
                    "alive": alive,
                    "restarts": max(handle.restarts, 0),
                    "last_heartbeat_age_s": (
                        now - handle.last_seen
                        if handle.last_seen is not None
                        else None
                    ),
                }
            )
        return {
            "status": "degraded" if degraded else "ok",
            "n_executors": self.n_executors,
            "executors": executors,
        }

    def _collect_gauges(self, metrics) -> None:
        """Metrics collector: executor liveness levels at snapshot time."""
        alive = sum(
            1
            for handle in self._handles
            if handle.process is not None and handle.process.is_alive()
        )
        metrics.gauge(
            "gateway_executors_alive", help="live executor processes"
        ).set(alive)
        metrics.gauge("gateway_executors_total").set(self.n_executors)

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
