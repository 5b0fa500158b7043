"""Batch CP query preparation, worker fan-out and result caching.

This module is the substrate the planner's backends share
(:mod:`repro.core.planner`):

* :class:`PreparedBatch` is the prepared state of a whole test set: the
  ``(T, P)`` candidate-similarity matrix comes from one
  :func:`~repro.core.scan.similarity_matrix` call over the dataset's
  cached stacked candidate matrix (the one preparation path, filled in
  bounded kernel blocks, see :mod:`repro.core.scan`), and per-point scan
  orders and :class:`~repro.core.prepared.PreparedQuery` views are derived
  from its rows on demand.
* :data:`MEMORY_BUDGET_BYTES` bounds the similarity state the planner's
  ``batch`` backend holds: a test matrix whose dense ``(T, P)`` matrix
  would exceed it is evaluated in row chunks of :func:`budget_rows` points
  instead of one prepared batch.
* :func:`fanout_map` fans per-point work out across a ``multiprocessing``
  worker pool: ``n_jobs`` forked workers pull index chunks from a shared
  task queue, inheriting the prepared arrays read-only through
  copy-on-write fork memory, so nothing is pickled per task except the
  tiny result values.
* :data:`QueryResultCache`, an alias of :class:`repro.utils.lru.LRU`,
  holds results keyed by ``(dataset fingerprint, test-point hash, k,
  kernel, pins, ...)``. Repeated queries — the common case in CPClean's
  sequential cleaning loop, which re-checks validation certainty round
  after round — are served without recomputation, and any change to the
  dataset changes its
  :meth:`~repro.core.dataset.IncompleteDataset.fingerprint`, so stale
  entries can never be returned.
* :class:`BatchQueryExecutor`, :func:`batch_q2_counts` and
  :func:`batch_certain_labels` are the direct entry points of the
  planner's ``batch`` backend for the plain counting flavors.

All outputs are verified bit-identical to the sequential backend
(``tests/core/test_batch_engine.py``); ``benchmarks/bench_batch_engine.py``
measures the speedup on Table 2-style workloads.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from collections.abc import Callable, Iterable, Mapping
from typing import Any

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.prepared import PreparedQuery
from repro.core.scan import ScanOrder, scan_from_sims, similarity_matrix
from repro.utils.lru import LRU
from repro.utils.validation import check_matrix, check_positive_int

__all__ = [
    "MEMORY_BUDGET_BYTES",
    "budget_rows",
    "QueryResultCache",
    "PreparedBatch",
    "BatchQueryExecutor",
    "batch_q2_counts",
    "batch_certain_labels",
    "fanout_map",
    "resolve_n_jobs",
    "kernel_cache_key",
]

#: The batch backend's result cache: the one :class:`~repro.utils.lru.LRU`,
#: under the name it has always been exported as.
QueryResultCache = LRU

#: Bytes of ``(T, P)`` similarity state the batch backend holds at once.
MEMORY_BUDGET_BYTES = 64 * 1024 * 1024


def budget_rows(n_points: int, n_candidates: int) -> int:
    """Test points per similarity chunk under :data:`MEMORY_BUDGET_BYTES`.

    ``n_points`` when the dense ``(n_points, n_candidates)`` float matrix
    fits the budget, else as many rows as fit (at least one).
    """
    if n_points * n_candidates * 8 <= MEMORY_BUDGET_BYTES:
        return n_points
    return max(1, MEMORY_BUDGET_BYTES // (8 * n_candidates))


# ---------------------------------------------------------------------------
# Worker-pool plumbing
# ---------------------------------------------------------------------------

#: State handed to forked workers. Set by :func:`fanout_map` in the parent
#: immediately before the fork so children inherit it through copy-on-write
#: memory; never pickled, never mutated by workers. Guarded by
#: ``_FANOUT_LOCK`` so concurrent fan-outs (e.g. two executors on different
#: threads) cannot read each other's state.
_FANOUT_STATE: Any = None
_FANOUT_LOCK = threading.Lock()


def get_fanout_state() -> Any:
    """The shared read-only state of the current :func:`fanout_map` call."""
    return _FANOUT_STATE


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` request: ``None``/negative means all CPUs."""
    if n_jobs is None or n_jobs < 0:
        return os.cpu_count() or 1
    if n_jobs == 0:
        raise ValueError("n_jobs must be positive, negative (all CPUs) or None")
    return n_jobs


def fanout_map(
    worker: Callable[[Any], Any],
    items: Iterable[Any],
    n_jobs: int | None = 1,
    state: Any = None,
    chunksize: int | None = None,
) -> list[Any]:
    """Apply ``worker`` to every item, optionally across forked processes.

    ``worker`` must be a module-level function; it reads the shared
    ``state`` through :func:`get_fanout_state` (workers inherit it via
    fork, so large arrays are shared read-only rather than pickled). Items
    are distributed in chunks through ``imap_unordered`` — idle workers
    steal the next chunk off the shared queue, so an unlucky chunk of slow
    queries cannot stall the whole batch. Results are returned in
    completion order; workers should tag results with their item when the
    caller needs to reassemble.

    Falls back to an in-process loop when ``n_jobs == 1``, when there is
    nothing to parallelise over, or when the platform cannot fork safely.
    Sharing-by-inheritance is only sound under the ``fork`` start method,
    and bare fork-without-exec is only reliable on Linux (on macOS,
    forked children of a process that has touched Accelerate/Objective-C
    runtimes can abort — the reason CPython made ``spawn`` the default
    there), so the pool is gated to Linux with ``fork`` available.

    Concurrent :func:`fanout_map` calls from different threads are
    serialised on an internal lock — the state hand-off is a process-wide
    slot, and two interleaved fan-outs must not see each other's state.
    """
    items = list(items)
    n_jobs = resolve_n_jobs(n_jobs)
    use_pool = (
        n_jobs > 1
        and len(items) > 1
        and sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
    )
    global _FANOUT_STATE
    with _FANOUT_LOCK:
        _FANOUT_STATE = state
        try:
            if not use_pool:
                return [worker(item) for item in items]
            context = multiprocessing.get_context("fork")
            n_workers = min(n_jobs, len(items))
            if chunksize is None:
                # ~4 chunks per worker: coarse enough to amortise queue
                # trips, fine enough that work can be stolen when chunks
                # are uneven.
                chunksize = max(1, -(-len(items) // (n_workers * 4)))
            with context.Pool(processes=n_workers) as pool:
                return list(pool.imap_unordered(worker, items, chunksize=chunksize))
        finally:
            _FANOUT_STATE = None


# ---------------------------------------------------------------------------
# PreparedBatch: the vectorised prepared layer
# ---------------------------------------------------------------------------


class PreparedBatch:
    """Shared prepared state for CP queries against an entire test set.

    The candidate-similarity matrix for *all* test points is computed in
    one :func:`~repro.core.scan.similarity_matrix` call over the dataset's
    stacked candidates;
    per-point scan orders and :class:`PreparedQuery` views are built from
    its rows on demand and cached (this is how
    :class:`repro.cleaning.sequential.CleaningSession` gets its queries).
    A point's scan equals ``compute_scan_order(dataset, test_X[i],
    kernel)``: the kernels reduce every candidate row on its own, so a row
    of the stacked matrix has the same bits as a one-point computation.
    """

    def __init__(
        self,
        dataset: IncompleteDataset,
        test_X: np.ndarray,
        k: int = 3,
        kernel: Kernel | str | None = None,
        sims_matrix: np.ndarray | None = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        if self.k > dataset.n_rows:
            raise ValueError(
                f"k={self.k} exceeds the number of training rows {dataset.n_rows}"
            )
        self.dataset = dataset
        self.kernel = resolve_kernel(kernel)
        self.test_X = check_matrix(test_X, "test_X", n_cols=dataset.n_features)
        if sims_matrix is None:
            self.sims_matrix = similarity_matrix(dataset, self.test_X, self.kernel)
        else:
            # A caller-computed similarity matrix (the delta layer's
            # maintained blocks), so no kernel work is repeated. The caller
            # owns correctness of the values; the shape contract is
            # enforced here.
            sims_matrix = np.asarray(sims_matrix, dtype=np.float64)
            expected = (self.test_X.shape[0], int(dataset.stacked_candidates()[4][-1]))
            if sims_matrix.shape != expected:
                raise ValueError(
                    f"sims_matrix must have shape {expected}, got {sims_matrix.shape}"
                )
            self.sims_matrix = sims_matrix
        self._scans: list[ScanOrder | None] = [None] * self.n_points
        self._queries: list[PreparedQuery | None] = [None] * self.n_points

    @property
    def n_points(self) -> int:
        """Number of test points in the batch."""
        return int(self.test_X.shape[0])

    def fingerprint(self) -> str:
        """The underlying dataset's content fingerprint (cache-key component)."""
        return self.dataset.fingerprint()

    # ------------------------------------------------------------------
    def scan(self, index: int) -> ScanOrder:
        """The scan order of test point ``index`` (built lazily, cached)."""
        scan = self._scans[index]
        if scan is None:
            scan = scan_from_sims(self.dataset, self.sims_matrix[index])
            self._scans[index] = scan
        return scan

    def query(self, index: int) -> PreparedQuery:
        """A :class:`PreparedQuery` for test point ``index`` (cached).

        The instance is indistinguishable from
        ``PreparedQuery(dataset, test_X[index], k, kernel)`` but is built
        from the shared prepared state, skipping the similarity pass.
        """
        query = self._queries[index]
        if query is None:
            query = PreparedQuery(
                self.dataset,
                self.test_X[index],
                k=self.k,
                kernel=self.kernel,
                sims=self.sims_matrix[index],
                scan=self.scan(index),
            )
            self._queries[index] = query
        return query

    def queries(self) -> list[PreparedQuery]:
        """All per-point prepared queries (building any not yet materialised)."""
        return [self.query(index) for index in range(self.n_points)]


# ---------------------------------------------------------------------------
# BatchQueryExecutor: cache + fan-out on top of PreparedBatch
# ---------------------------------------------------------------------------


def kernel_cache_key(kernel: Kernel) -> str | None:
    """A cache-key component identifying the kernel *by value*, or ``None``.

    The key always includes the kernel's concrete class (a subclass that
    merely inherits its parent's parameterised ``__repr__`` must not alias
    the parent's entries — it may compute different similarities). The
    built-in kernels have deterministic value-based reprs
    (``RBFKernel(gamma=2.0)``), so two equal-parameter instances share a
    key. A user-defined kernel that keeps ``object.__repr__`` would be
    keyed by its memory address — and a recycled address could alias two
    different kernels into one cache entry — so such a kernel has no key:
    ``None`` means "uncacheable", and every cache skips the query instead
    of storing entries nothing can ever hit.

    The contract for custom kernels that *do* define ``__repr__``: the
    repr must encode every parameter that changes the similarity values
    (as the built-ins do). Two kernels of the same class whose reprs are
    equal are treated as interchangeable by any shared cache.
    """
    cls = type(kernel)
    if cls.__repr__ is object.__repr__:
        return None
    return f"{cls.__module__}.{cls.__qualname__}:{kernel!r}"


class BatchQueryExecutor:
    """Counts and certain labels for a whole test set: vectorised, parallel, cached.

    A direct handle on the planner's ``batch`` backend for the plain
    counting flavors, bound to one prepared test set.

    Parameters
    ----------
    dataset, test_X, k, kernel:
        The query family, as in :class:`PreparedQuery` (ignored when
        ``prepared`` is given).
    n_jobs:
        Worker processes for the per-point fan-out. ``1`` (default) runs
        in-process; ``None`` or negative uses all CPUs. Parallelism
        requires Linux with the ``fork`` start method and silently
        degrades to in-process execution elsewhere.
    cache:
        ``True`` (default) gives the executor a private
        :class:`QueryResultCache`; pass an instance to share one across
        executors, or ``False``/``None`` to disable result caching.
    prepared:
        An existing :class:`PreparedBatch` to execute against (shares the
        distance matrix with other consumers, e.g. a cleaning session).
    """

    def __init__(
        self,
        dataset: IncompleteDataset | None = None,
        test_X: np.ndarray | None = None,
        k: int = 3,
        kernel: Kernel | str | None = None,
        n_jobs: int | None = 1,
        cache: QueryResultCache | bool | None = True,
        prepared: PreparedBatch | None = None,
    ) -> None:
        if prepared is None:
            if dataset is None or test_X is None:
                raise ValueError("provide either (dataset, test_X) or prepared")
            prepared = PreparedBatch(dataset, test_X, k=k, kernel=kernel)
        self.prepared = prepared
        self.dataset = prepared.dataset
        self.k = prepared.k
        self.kernel = prepared.kernel
        self.n_jobs = resolve_n_jobs(n_jobs)
        if cache is True:
            cache = QueryResultCache()
        self.cache = cache if isinstance(cache, QueryResultCache) else None

    @property
    def n_points(self) -> int:
        """Number of test points in the batch."""
        return self.prepared.n_points

    def _execute(
        self, kind: str, fixed: Mapping[int, int] | None, prune: bool, scan_kernel: str | None
    ) -> list:
        from repro.core.planner import ExecutionOptions, execute_query, make_query

        query = make_query(
            self.dataset,
            self.prepared.test_X,
            kind=kind,
            k=self.k,
            kernel=self.kernel,
            pins=fixed,
        )
        options = ExecutionOptions(
            n_jobs=self.n_jobs,
            # An empty QueryResultCache is falsy (it has __len__), so the
            # None check must be explicit.
            cache=self.cache if self.cache is not None else False,
            prepared=self.prepared,
            prune="on" if prune else "off",
            scan_kernel=scan_kernel or "auto",
        )
        return execute_query(query, backend="batch", options=options).values

    def counts(
        self, fixed: Mapping[int, int] | None = None, prune: bool = False
    ) -> list[list[int]]:
        """Exact Q2 counts for every test point, with ``fixed`` rows pinned.

        Equivalent to ``[PreparedQuery(...).counts(fixed) for t in test_X]``
        (bit-identical, tested). ``prune=True`` runs the
        irrelevant-candidate pruning pass per point first (see
        :mod:`repro.core.pruning`); counts are unchanged.
        """
        return self._execute("counts", fixed, prune, None)

    def certain_labels(
        self,
        fixed: Mapping[int, int] | None = None,
        prune: bool = False,
        scan_kernel: str | None = None,
    ) -> list[int | None]:
        """The CP'ed label (or ``None``) of every test point.

        The MM check for binary labels, Q2 counts (or, with ``prune``, the
        pruned early-terminating decision scan) otherwise — the same
        answers as the sequential path, bit for bit.
        """
        return self._execute("certain_label", fixed, prune, scan_kernel)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def batch_q2_counts(
    dataset: IncompleteDataset,
    test_X: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
    n_jobs: int | None = 1,
    cache: QueryResultCache | bool | None = False,
) -> list[list[int]]:
    """Q2 counts for every row of ``test_X`` through the batch engine.

    One-shot counterpart of ``[q2_counts(dataset, t, k) for t in test_X]``
    with identical results; see :class:`BatchQueryExecutor` for the knobs.
    """
    return BatchQueryExecutor(
        dataset, test_X, k=k, kernel=kernel, n_jobs=n_jobs, cache=cache
    ).counts()


def batch_certain_labels(
    dataset: IncompleteDataset,
    test_X: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
    n_jobs: int | None = 1,
    cache: QueryResultCache | bool | None = False,
) -> list[int | None]:
    """The CP'ed label (or ``None``) for every row of ``test_X``.

    One-shot counterpart of ``[certain_label(dataset, t, k) for t in
    test_X]`` with identical results.
    """
    return BatchQueryExecutor(
        dataset, test_X, k=k, kernel=kernel, n_jobs=n_jobs, cache=cache
    ).certain_labels()
