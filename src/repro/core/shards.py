"""Sharded out-of-core CP query execution: bounded tiles, persistent workers.

Every backend before this one materialises the full candidate-distance
state for a query in one process's memory: ``PreparedBatch`` holds the
dense ``(T, P)`` similarity matrix for ``T`` test points over ``P``
stacked candidates, and the sequential path holds one full ``P``-row per
point. That caps the dataset sizes the screening and cleaning loops can
serve. This module is the execution layer that removes the cap, the same
move ProvSQL-style provenance engines make when exact counting must scale:
**tile the evaluation over bounded memory and merge exactly**.

* :func:`plan_tiles` / :class:`TilePlan` split the test-point × candidate
  space into a grid of tiles: at most ``tile_rows`` test points and
  ``tile_candidates`` stacked candidates are resident at once.
* :class:`ShardedExecutor` streams one query family through that grid.
  Per row tile it fills a **shared-memory** similarity buffer candidate
  tile by candidate tile (one bounded ``kernel.pairwise`` call each) and
  evaluates the tile's points straight off the buffer rows. With
  ``n_jobs > 1`` the per-point evaluations run on a
  **persistent** forked worker pool: the pool is created once per
  execution, the buffer is an anonymous shared mapping
  (``multiprocessing.RawArray``) created before the fork, so every tile
  the parent writes is immediately visible to all workers — the hand-off
  is zero-copy and nothing is pickled per task but a
  ``(global index, buffer row)`` pair. For consumers that want the
  familiar prepared interface over an out-of-core slice,
  :meth:`ShardedExecutor.tile_batch` wraps a streamed tile in a zero-copy
  :class:`~repro.core.batch_engine.PreparedBatch` (the new
  ``sims_matrix=`` hand-off).
* :class:`ShardedBackend` plugs the executor into the planner registry
  under the name ``"sharded"``, serving **all five task flavors** and all
  three kinds through the planner's per-point dispatch table
  (:data:`repro.core.planner.POINT_FUNCTIONS`). Its cost model prefers
  tiled execution once the dense similarity matrix would exceed
  ``memory_budget_bytes``, and defers to the ``batch`` backend below that
  threshold.
* :func:`merge_minmax_block` / :func:`binary_minmax_label` are the exact
  min/max tally-merge algebra the partitioned service gateway uses to
  decide binary certainty from per-row extremes merged across processes.

Memory model: the resident similarity state is one ``tile_rows × P``
buffer (a point's table function reads its full candidate row) plus the
``tile_rows × tile_candidates`` kernel block being filled. Table functions
that only need per-row extremes (binary certainty, see
:data:`repro.core.planner.EXTREME_FUNCTIONS`) stream ``tile_rows × N``
min/max tallies instead of the ``P``-wide buffer
(:meth:`ShardedExecutor.map_extremes`).
Tiling is a layout decision, never a semantic one: every value is
bit-identical to the sequential reference for any ``tile_rows``,
``tile_candidates`` and ``n_jobs`` (``tests/core/test_shards.py`` and the
differential harness in ``tests/core/test_backend_differential.py`` hold
the matrix; ``benchmarks/bench_shards.py`` measures the speedups).
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.batch_engine import (
    PreparedBatch,
    QueryResultCache,
    resolve_n_jobs,
)
from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.minmax import extreme_winners
from repro.core.planner import (
    EXTREME_FUNCTIONS,
    FLAVORS,
    KINDS,
    Backend,
    BackendCapabilities,
    ExecutionOptions,
    _execute_points,
    register_backend,
)
from repro.utils.validation import check_matrix, check_positive_int

__all__ = [
    "DEFAULT_TILE_ROWS",
    "DEFAULT_TILE_CANDIDATES",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "TilePlan",
    "plan_tiles",
    "merge_minmax_block",
    "binary_minmax_label",
    "ShardedExecutor",
    "ShardedBackend",
]

#: Default test points resident per tile.
DEFAULT_TILE_ROWS = 32

#: Default stacked candidates per kernel block.
DEFAULT_TILE_CANDIDATES = 4096

#: Dense-similarity-matrix size above which the cost model prefers tiling.
DEFAULT_MEMORY_BUDGET_BYTES = 64 * 1024 * 1024


# ---------------------------------------------------------------------------
# Tile planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TilePlan:
    """The tile grid over one query's test-point × candidate space.

    ``tile_rows`` / ``tile_candidates`` are the *effective* (clamped) tile
    edges; the spans partition both axes exactly, so every (point,
    candidate) pair belongs to exactly one tile regardless of whether the
    boundaries align with a dataset row's candidate segment.
    """

    n_points: int
    n_candidates: int
    tile_rows: int
    tile_candidates: int

    @staticmethod
    def _spans(total: int, size: int) -> tuple[tuple[int, int], ...]:
        return tuple(
            (start, min(start + size, total)) for start in range(0, total, size)
        )

    @property
    def row_tiles(self) -> tuple[tuple[int, int], ...]:
        """``(start, stop)`` spans over the test points."""
        return self._spans(self.n_points, self.tile_rows)

    @property
    def candidate_tiles(self) -> tuple[tuple[int, int], ...]:
        """``(start, stop)`` spans over the stacked candidate order."""
        return self._spans(self.n_candidates, self.tile_candidates)

    @property
    def n_row_tiles(self) -> int:
        return len(self.row_tiles)

    @property
    def n_candidate_tiles(self) -> int:
        return len(self.candidate_tiles)

    @property
    def n_tiles(self) -> int:
        """Total kernel blocks the grid produces."""
        return self.n_row_tiles * self.n_candidate_tiles

    @property
    def tile_buffer_bytes(self) -> int:
        """Bytes of the resident per-row-tile similarity buffer."""
        return self.tile_rows * self.n_candidates * 8

    @property
    def dense_bytes(self) -> int:
        """Bytes the dense (untiled) similarity matrix would occupy."""
        return self.n_points * self.n_candidates * 8


def plan_tiles(
    n_points: int,
    n_candidates: int,
    tile_rows: int = DEFAULT_TILE_ROWS,
    tile_candidates: int = DEFAULT_TILE_CANDIDATES,
) -> TilePlan:
    """Build the :class:`TilePlan` for a workload, validating the knobs.

    Tile edges must be positive; edges larger than the workload collapse to
    one tile on that axis (so any configuration is valid for any dataset).
    """
    if n_points < 0 or n_candidates < 0:
        raise ValueError("n_points and n_candidates must be non-negative")
    tile_rows = check_positive_int(tile_rows, "tile_rows")
    tile_candidates = check_positive_int(tile_candidates, "tile_candidates")
    return TilePlan(
        n_points=n_points,
        n_candidates=n_candidates,
        tile_rows=min(tile_rows, max(n_points, 1)),
        tile_candidates=min(tile_candidates, max(n_candidates, 1)),
    )


# ---------------------------------------------------------------------------
# The exact min/max tally-merge algebra
# ---------------------------------------------------------------------------
#
# These two helpers are the whole of the MinMax "tally" contract: fold
# similarity blocks into per-row extreme tallies (merge), decide Q1 from
# the merged extremes (decision). They are shared by the tile-streaming
# executor below and the partitioned service gateway
# (:mod:`repro.service.gateway`), which merges tallies produced in
# *different processes* — the algebra is what makes that merge lossless.


def merge_minmax_block(
    mins: np.ndarray,
    maxs: np.ndarray,
    block: np.ndarray,
    rows: np.ndarray,
    offsets: np.ndarray,
    c0: int,
    c1: int,
) -> None:
    """Fold one candidate-block of similarities into running min/max tallies.

    ``block`` holds similarities for stacked-candidate positions
    ``[c0, c1)`` (shape ``(n_points, c1 - c0)``); ``rows`` maps each
    stacked position to its dataset row and ``offsets`` is the row →
    first-stacked-position table. ``mins`` / ``maxs`` (shape
    ``(n_points, n_rows)``) are updated in place for the rows the block
    touches. The merge is exact for any block boundaries: min and max are
    associative and commutative, so min-of-mins / max-of-maxes over a row's
    segments equals the min/max over the whole row — no floating-point
    reordering is introduced.
    """
    first = int(rows[c0])
    last = int(rows[c1 - 1])
    starts = (np.maximum(offsets[first : last + 1], c0) - c0).astype(np.intp)
    np.minimum(
        mins[:, first : last + 1],
        np.minimum.reduceat(block, starts, axis=1),
        out=mins[:, first : last + 1],
    )
    np.maximum(
        maxs[:, first : last + 1],
        np.maximum.reduceat(block, starts, axis=1),
        out=maxs[:, first : last + 1],
    )


def binary_minmax_label(
    lo: np.ndarray, hi: np.ndarray, labels: np.ndarray, k: int
) -> int | None:
    """The Q1 verdict for one point from merged per-row extreme tallies.

    ``lo`` / ``hi`` are the per-row min/max similarities (pins already
    applied as ``lo == hi == pinned similarity``). Binary label spaces
    only; the decision is :func:`~repro.core.minmax.extreme_winners`, the
    one MinMax check, so the verdict is bit-identical to every backend's.
    """
    winners = extreme_winners(lo, hi, labels, k, 2)
    return winners[0] if len(winners) == 1 else None


# ---------------------------------------------------------------------------
# The persistent-pool plumbing
# ---------------------------------------------------------------------------

#: The executor context of the active pooled run. Set in the parent before
#: the pool forks so workers inherit it; the similarity buffer inside it is
#: an anonymous *shared* mapping, so tiles the parent writes after the fork
#: are visible to every worker without copies or pickling. Guarded by
#: ``_SHARD_LOCK`` for the pool's whole lifetime so two concurrent sharded
#: executions cannot see each other's state.
_SHARD_STATE: Any = None
_SHARD_LOCK = threading.Lock()


def _shard_point_worker(task: tuple[int, int]) -> tuple[int, Any]:
    """Pool worker: evaluate one test point from the shared tile buffer."""
    global_index, buffer_row = task
    buffer, evaluate = _SHARD_STATE
    return global_index, evaluate(global_index, buffer[buffer_row])


# ---------------------------------------------------------------------------
# The tile-streaming executor
# ---------------------------------------------------------------------------


class ShardedExecutor:
    """Streams one ``(dataset, test matrix, k, kernel)`` family tile by tile.

    The executor owns the tile grid and the streaming loops; what to do
    with each point is injected as ``evaluate(index, sims)`` over the
    point's candidate-order similarity row.
    Only the requested point indices are evaluated and only their row tiles
    are streamed — a fully cached tile costs nothing.
    """

    def __init__(
        self,
        dataset: IncompleteDataset,
        test_X: np.ndarray,
        k: int = 3,
        kernel: Kernel | str | None = None,
        tile_rows: int = DEFAULT_TILE_ROWS,
        tile_candidates: int = DEFAULT_TILE_CANDIDATES,
        n_jobs: int | None = 1,
    ) -> None:
        self.dataset = dataset
        self.k = check_positive_int(k, "k")
        if self.k > dataset.n_rows:
            raise ValueError(
                f"k={self.k} exceeds the number of training rows {dataset.n_rows}"
            )
        self.kernel = resolve_kernel(kernel)
        self.test_X = check_matrix(test_X, "test_X", n_cols=dataset.n_features)
        self._stacked = dataset.stacked_candidates()[0]
        self.plan = plan_tiles(
            int(self.test_X.shape[0]),
            int(self._stacked.shape[0]),
            tile_rows=tile_rows,
            tile_candidates=tile_candidates,
        )
        self.n_jobs = resolve_n_jobs(n_jobs)
        #: Row tiles actually streamed (observability; benchmarks assert on it).
        self.n_tiles_streamed = 0

    @property
    def n_points(self) -> int:
        return self.plan.n_points

    # ------------------------------------------------------------------
    def _fill_tile(self, view: np.ndarray, r0: int, r1: int) -> None:
        """Fill ``view`` with the tile's similarities, one bounded block at a time."""
        tile_X = self.test_X[r0:r1]
        for c0, c1 in self.plan.candidate_tiles:
            view[:, c0:c1] = self.kernel.pairwise(self._stacked[c0:c1], tile_X)

    def _tiles_with(
        self, indices: Iterable[int]
    ) -> list[tuple[tuple[int, int], list[int]]]:
        """The row tiles containing ``indices``, each with its members."""
        size = self.plan.tile_rows
        groups: dict[int, list[int]] = {}
        for index in sorted(set(indices)):
            if not 0 <= index < self.n_points:
                raise IndexError(
                    f"point index {index} out of range for {self.n_points} points"
                )
            groups.setdefault(index // size, []).append(index)
        out = []
        for tile_index in sorted(groups):
            r0 = tile_index * size
            r1 = min(r0 + size, self.n_points)
            out.append(((r0, r1), groups[tile_index]))
        return out

    # ------------------------------------------------------------------
    def map_points(
        self,
        evaluate: Callable[[int, np.ndarray], Any],
        indices: Iterable[int],
    ) -> dict[int, Any]:
        """``evaluate(index, sims)`` for each requested point, tile-streamed.

        The similarity row handed to ``evaluate`` is bit-identical to the
        point's row of a dense one-call similarity matrix (candidate tiling
        never splits the per-element feature reduction). With
        ``n_jobs > 1`` on a platform that can fork, evaluations run on a
        persistent worker pool reading the shared tile buffer; otherwise in
        process, off a private buffer. Results are identical either way.
        """
        tiles = self._tiles_with(indices)
        if not tiles:
            return {}
        n_missing = sum(len(members) for _, members in tiles)
        use_pool = (
            self.n_jobs > 1
            and n_missing > 1
            and sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods()
        )
        if not use_pool:
            return self._map_in_process(evaluate, tiles)
        return self._map_pooled(evaluate, tiles, n_missing)

    def _map_in_process(self, evaluate, tiles) -> dict[int, Any]:
        results: dict[int, Any] = {}
        buffer = np.empty((self.plan.tile_rows, self.plan.n_candidates))
        for (r0, r1), members in tiles:
            view = buffer[: r1 - r0]
            self._fill_tile(view, r0, r1)
            for index in members:
                results[index] = evaluate(index, view[index - r0])
            self.n_tiles_streamed += 1
        return results

    def map_extremes(
        self,
        decide: Callable[[int, np.ndarray, np.ndarray], Any],
        indices: Iterable[int],
        fixed: Mapping[int, int],
    ) -> dict[int, Any]:
        """``decide(index, mins, maxs)`` per requested point from streamed tallies.

        For table functions that read a similarity row only through its
        per-row extremes (:data:`repro.core.planner.EXTREME_FUNCTIONS`). Per
        candidate tile the block's row extremes are merged into running
        ``tile_rows × N`` min/max tallies (:func:`merge_minmax_block`, exact
        since min and max are associative), and a pinned row collapses to
        its pinned candidate's similarity, as in
        :func:`~repro.core.minmax.row_extremes`. The ``P``-wide similarity
        row is never materialised. Runs in process.
        """
        _, rows, _, counts, offsets = self.dataset.stacked_candidates()
        pins = sorted(fixed.items())
        for row, cand in pins:
            if not 0 <= row < self.dataset.n_rows:
                raise IndexError(
                    f"pinned row {row} out of range for {self.dataset.n_rows} rows"
                )
            if not 0 <= cand < int(counts[row]):
                raise IndexError(
                    f"pinned candidate {cand} out of range for row {row} "
                    f"with {int(counts[row])} candidates"
                )
        positions = [int(offsets[row]) + cand for row, cand in pins]
        results: dict[int, Any] = {}
        for (r0, r1), members in self._tiles_with(indices):
            mins = np.full((r1 - r0, self.dataset.n_rows), np.inf)
            maxs = np.full((r1 - r0, self.dataset.n_rows), -np.inf)
            pinned = np.empty((r1 - r0, len(pins)))
            for c0, c1 in self.plan.candidate_tiles:
                block = self.kernel.pairwise(self._stacked[c0:c1], self.test_X[r0:r1])
                merge_minmax_block(mins, maxs, block, rows, offsets, c0, c1)
                for slot, position in enumerate(positions):
                    if c0 <= position < c1:
                        pinned[:, slot] = block[:, position - c0]
            # After the merge: a pinned row's segment may span several blocks.
            for slot, (row, _) in enumerate(pins):
                mins[:, row] = maxs[:, row] = pinned[:, slot]
            for index in members:
                results[index] = decide(index, mins[index - r0], maxs[index - r0])
            self.n_tiles_streamed += 1
        return results

    def tile_batch(self, r0: int, r1: int) -> PreparedBatch:
        """A zero-copy :class:`PreparedBatch` over one streamed row tile.

        Fills a fresh buffer for test points ``[r0, r1)`` and wraps it via
        ``sims_matrix=`` — nothing recomputed, nothing copied. This is the
        hand-off for consumers that want the familiar prepared interface
        (per-point queries, row similarities) over an out-of-core slice;
        the executor's own paths build scans straight off the buffer.
        """
        if not 0 <= r0 < r1 <= self.n_points:
            raise IndexError(
                f"tile [{r0}, {r1}) out of range for {self.n_points} points"
            )
        sims = np.empty((r1 - r0, self.plan.n_candidates))
        self._fill_tile(sims, r0, r1)
        return PreparedBatch(
            self.dataset,
            self.test_X[r0:r1],
            k=self.k,
            kernel=self.kernel,
            sims_matrix=sims,
        )

    def _map_pooled(self, evaluate, tiles, n_missing: int) -> dict[int, Any]:
        global _SHARD_STATE
        results: dict[int, Any] = {}
        with _SHARD_LOCK:
            # An anonymous shared mapping: created before the fork, written
            # by the parent per tile, read by every worker — zero-copy.
            raw = multiprocessing.RawArray(
                "d", self.plan.tile_rows * self.plan.n_candidates
            )
            buffer = np.frombuffer(raw, dtype=np.float64).reshape(
                self.plan.tile_rows, self.plan.n_candidates
            )
            _SHARD_STATE = (buffer, evaluate)
            context = multiprocessing.get_context("fork")
            n_workers = min(self.n_jobs, n_missing)
            pool = context.Pool(processes=n_workers)
            try:
                for (r0, r1), members in tiles:
                    self._fill_tile(buffer[: r1 - r0], r0, r1)
                    tasks = [(index, index - r0) for index in members]
                    # ~4 chunks per worker, as in fanout_map: coarse enough
                    # to amortise queue trips, fine enough to steal work.
                    chunksize = max(1, -(-len(tasks) // (n_workers * 4)))
                    for index, value in pool.imap_unordered(
                        _shard_point_worker, tasks, chunksize=chunksize
                    ):
                        results[index] = value
                    self.n_tiles_streamed += 1
            finally:
                pool.close()
                pool.join()
                _SHARD_STATE = None
        return results


# ---------------------------------------------------------------------------
# The planner backend
# ---------------------------------------------------------------------------

class ShardedBackend(Backend):
    """Tile-streaming out-of-core execution behind the registry name ``sharded``.

    Serves all five task flavors and all three kinds through the planner's
    per-point dispatch table, with results bit-identical to every other
    backend. Each point's table function reads its similarity row straight
    off the streamed tile buffer (pooled across ``n_jobs`` workers); binary
    certainty reads streamed per-row min/max tallies instead.
    Results are cached per point in a fingerprint-keyed LRU, so a cleaning
    session's repeated queries skip their tiles entirely.

    ``tile_rows`` / ``tile_candidates`` are defaults a query can override
    through :class:`ExecutionOptions`; ``memory_budget_bytes`` is the
    dense-matrix size above which :meth:`estimate_cost` prefers this
    backend over the dense ``batch`` path.
    """

    name = "sharded"
    capabilities = BackendCapabilities(
        flavors=frozenset(FLAVORS),
        kinds=frozenset(KINDS),
        batchable=True,
        incremental=False,
        exact=True,
        algorithms=frozenset({"auto", "engine"}),
    )

    def __init__(
        self,
        tile_rows: int = DEFAULT_TILE_ROWS,
        tile_candidates: int = DEFAULT_TILE_CANDIDATES,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
        cache_size: int = 4096,
    ) -> None:
        self.tile_rows = check_positive_int(tile_rows, "tile_rows")
        self.tile_candidates = check_positive_int(tile_candidates, "tile_candidates")
        self.memory_budget_bytes = check_positive_int(
            memory_budget_bytes, "memory_budget_bytes"
        )
        self.cache = QueryResultCache(maxsize=cache_size)

    # ------------------------------------------------------------------
    def _tiling(self, options: ExecutionOptions) -> tuple[int, int]:
        tile_rows = (
            self.tile_rows
            if options.tile_rows is None
            else check_positive_int(options.tile_rows, "tile_rows")
        )
        tile_candidates = (
            self.tile_candidates
            if options.tile_candidates is None
            else check_positive_int(options.tile_candidates, "tile_candidates")
        )
        return tile_rows, tile_candidates

    def estimate_cost(self, query, options):
        jobs = min(resolve_n_jobs(options.n_jobs), max(query.n_points, 1))
        per_point = query.workload_size() / max(query.n_points, 1)
        if query.workload_size() * 8 > self.memory_budget_bytes:
            cost = per_point * (0.55 + 0.45 * query.n_points / jobs)
            return cost, "dense distance state exceeds the memory budget; tile it"
        cost = per_point * (0.7 + 0.5 * query.n_points / jobs)
        return cost, "tile streaming (dense state fits in memory)"

    def _resolve_cache(self, options: ExecutionOptions) -> QueryResultCache | None:
        if options.cache is True:
            return self.cache
        if isinstance(options.cache, QueryResultCache):
            return options.cache
        return None

    # ------------------------------------------------------------------
    def execute(self, query, options=None):
        options = options or ExecutionOptions()
        tile_rows, tile_candidates = self._tiling(options)
        streamed: list[ShardedExecutor] = []

        def evaluate(task, fn, missing):
            executor = ShardedExecutor(
                task.dataset,
                query.test_X,
                k=query.k,
                kernel=query.kernel,
                tile_rows=tile_rows,
                tile_candidates=tile_candidates,
                n_jobs=options.n_jobs,
            )
            streamed.append(executor)
            decide = EXTREME_FUNCTIONS.get(fn)
            if decide is not None:
                return executor.map_extremes(
                    lambda index, mins, maxs: decide(task, index, mins, maxs),
                    missing,
                    task.fixed,
                )
            return executor.map_points(
                lambda index, sims: fn(task, index, sims), missing
            )

        task, values, stats = _execute_points(
            query, options, self._resolve_cache(options), evaluate
        )
        # Every point may have been cache-served, with no executor built
        # (and no candidates stacked): derive the grid for the stats directly.
        plan = plan_tiles(
            query.n_points,
            int(np.sum(task.dataset.candidate_counts())),
            tile_rows=tile_rows,
            tile_candidates=tile_candidates,
        )
        tiling = dict(
            n_points=plan.n_points,
            n_candidates=plan.n_candidates,
            tile_rows=plan.tile_rows,
            tile_candidates=plan.tile_candidates,
            n_row_tiles=plan.n_row_tiles,
            n_candidate_tiles=plan.n_candidate_tiles,
            n_tiles_streamed=sum(e.n_tiles_streamed for e in streamed),
            tile_buffer_bytes=plan.tile_buffer_bytes,
            dense_bytes=plan.dense_bytes,
        )
        # The prune counters (with their own per-point n_points) win.
        return values, {**tiling, **stats}


register_backend(ShardedBackend())
