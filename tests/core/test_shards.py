"""The sharded out-of-core execution layer.

Covers the tile grid (exact partition for any boundary alignment), the
determinism guarantees (results independent of ``n_jobs``, ``tile_rows``
and ``tile_candidates``, including tiles smaller and larger than the
dataset), the exact per-tile min/max merge, the zero-copy PreparedBatch
tile, the result cache, the cost model's memory threshold, and knob
validation. The cross-backend value checks live in
``tests/core/test_backend_differential.py``.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.core.batch_engine import PreparedBatch
from repro.core.dataset import IncompleteDataset
from repro.core.planner import (
    ExecutionOptions,
    execute_query,
    get_backend,
    make_query,
)
from repro.core.minmax import extreme_winners, row_extremes
from repro.core.shards import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    ShardedBackend,
    ShardedExecutor,
    TilePlan,
    plan_tiles,
)
from repro.service.executor import serve_executor
from repro.service.partition import merge_minmax_tallies


def dataset_with_ragged_rows(seed: int = 0, n_rows: int = 8, n_labels: int = 2):
    rng = np.random.default_rng(seed)
    sets = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n_rows)]
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[0] = 0
    labels[1] = n_labels - 1
    return IncompleteDataset(sets, labels)


class TestTilePlan:
    def test_partitions_both_axes_exactly(self):
        plan = plan_tiles(10, 23, tile_rows=3, tile_candidates=7)
        assert plan.row_tiles == ((0, 3), (3, 6), (6, 9), (9, 10))
        assert plan.candidate_tiles == ((0, 7), (7, 14), (14, 21), (21, 23))
        assert plan.n_tiles == plan.n_row_tiles * plan.n_candidate_tiles == 16

    def test_oversized_tiles_collapse_to_one(self):
        plan = plan_tiles(4, 9, tile_rows=1000, tile_candidates=1000)
        assert plan.row_tiles == ((0, 4),)
        assert plan.candidate_tiles == ((0, 9),)
        assert plan.tile_rows == 4 and plan.tile_candidates == 9

    def test_empty_point_axis(self):
        plan = plan_tiles(0, 9, tile_rows=4, tile_candidates=4)
        assert plan.row_tiles == ()
        assert plan.dense_bytes == 0

    def test_memory_accounting(self):
        plan = plan_tiles(100, 50, tile_rows=10, tile_candidates=25)
        assert plan.tile_buffer_bytes == 10 * 50 * 8
        assert plan.dense_bytes == 100 * 50 * 8

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_non_positive_tile_edges_rejected(self, bad):
        with pytest.raises(ValueError, match="tile_rows"):
            plan_tiles(4, 9, tile_rows=bad)
        with pytest.raises(ValueError, match="tile_candidates"):
            plan_tiles(4, 9, tile_candidates=bad)


class TestDeterminism:
    """Sharded results never depend on tiling or parallelism."""

    # Boundary-adversarial configurations: tiles of one candidate (every
    # row segment split), tiles of three (misaligned with the ragged
    # segments), tiles the exact dataset size, and tiles far larger.
    TILE_CONFIGS = [(1, 1), (1, 3), (2, 3), (3, 5), (8, 10_000), (10_000, 1), (10_000, 10_000)]

    def reference(self, query):
        return execute_query(
            query, backend="sequential", options=ExecutionOptions(cache=False)
        ).values

    @pytest.mark.parametrize("tile_rows,tile_candidates", TILE_CONFIGS)
    @pytest.mark.parametrize("kind", ["counts", "certain_label"])
    def test_tile_boundaries_binary(self, tile_rows, tile_candidates, kind):
        dataset = dataset_with_ragged_rows(1)
        test_X = np.random.default_rng(1).normal(size=(5, 2))
        pins = {dataset.uncertain_rows()[0]: 0}
        query = make_query(dataset, test_X, kind=kind, k=2, pins=pins)
        values = execute_query(
            query,
            backend="sharded",
            options=ExecutionOptions(
                cache=False, tile_rows=tile_rows, tile_candidates=tile_candidates
            ),
        ).values
        assert values == self.reference(query)

    @pytest.mark.parametrize("tile_rows,tile_candidates", TILE_CONFIGS)
    def test_tile_boundaries_multiclass(self, tile_rows, tile_candidates):
        dataset = dataset_with_ragged_rows(2, n_labels=3)
        test_X = np.random.default_rng(2).normal(size=(4, 2))
        query = make_query(dataset, test_X, kind="counts", k=2)
        values = execute_query(
            query,
            backend="sharded",
            options=ExecutionOptions(
                cache=False, tile_rows=tile_rows, tile_candidates=tile_candidates
            ),
        ).values
        assert values == self.reference(query)

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_n_jobs_does_not_change_results(self, n_jobs):
        dataset = dataset_with_ragged_rows(3, n_rows=10, n_labels=3)
        test_X = np.random.default_rng(3).normal(size=(7, 2))
        query = make_query(dataset, test_X, kind="counts", k=3)
        values = execute_query(
            query,
            backend="sharded",
            options=ExecutionOptions(
                cache=False, n_jobs=n_jobs, tile_rows=3, tile_candidates=4
            ),
        ).values
        assert values == self.reference(query)

    def test_pooled_and_in_process_agree_on_every_flavor(self):
        from repro.core.label_uncertainty import LabelUncertainDataset

        dataset = dataset_with_ragged_rows(4, n_rows=9)
        lu = LabelUncertainDataset.from_incomplete(dataset, flip_rows=[0, 3])
        test_X = np.random.default_rng(4).normal(size=(6, 2))
        queries = {
            flavor: make_query(dataset, test_X, kind="counts", flavor=flavor, k=2)
            # "multiclass" on the binary dataset still exercises the full
            # counting path (no MM shortcut for kind="counts" anyway).
            for flavor in ("binary", "multiclass", "weighted", "topk")
        }
        queries["label_uncertainty"] = make_query(lu, test_X, kind="counts", k=2)
        for flavor, query in queries.items():
            runs = [
                execute_query(
                    query,
                    backend="sharded",
                    options=ExecutionOptions(
                        cache=False, n_jobs=jobs, tile_rows=2, tile_candidates=5
                    ),
                ).values
                for jobs in (1, 3)
            ]
            assert runs[0] == runs[1] == self.reference(query), flavor


def streamed_extremes(dataset, test_X, pins, tile_rows, tile_candidates):
    """Per-point ``(mins, maxs)`` tallies as the executor streams them."""
    executor = ShardedExecutor(
        dataset, test_X, k=2, tile_rows=tile_rows, tile_candidates=tile_candidates
    )
    return executor.map_extremes(
        lambda index, mins, maxs: (mins.copy(), maxs.copy()),
        range(len(test_X)),
        pins,
    )


def executor_minmax(dataset, test_X, pins, cuts):
    """The executor ``minmax`` reply over partitions cut at ``cuts``.

    Runs the executor request loop on a thread over a real pipe: one
    ``register`` of the row slices, one ``minmax`` across all of them.
    """
    bounds = [0, *cuts, dataset.n_rows]
    specs = [
        {
            "partition_id": index,
            "row_start": start,
            "candidate_sets": [dataset.candidates(row) for row in range(start, stop)],
            "labels": dataset.labels[start:stop],
        }
        for index, (start, stop) in enumerate(zip(bounds, bounds[1:]))
    ]
    conn, child = multiprocessing.Pipe()
    worker = threading.Thread(target=serve_executor, args=(child, 0), daemon=True)
    worker.start()
    try:
        conn.send({"op": "register", "name": "d", "fingerprint": "f", "partitions": specs})
        assert conn.recv()["ok"]
        conn.send(
            {
                "op": "minmax",
                "name": "d",
                "fingerprint": "f",
                "partition_ids": [spec["partition_id"] for spec in specs],
                "test_X": test_X,
                "kernel": None,
                "pins": pins,
            }
        )
        reply = conn.recv()
        conn.send({"op": "shutdown"})
        conn.recv()
    finally:
        worker.join(timeout=10)
        conn.close()
    assert not worker.is_alive()
    return reply, len(specs)


def certain_from_extremes(mins, maxs, labels, k):
    winners = extreme_winners(mins, maxs, labels, k, 2)
    return winners[0] if len(winners) == 1 else None


class TestMinMaxMerge:
    """The streamed min/max path: exact merging, no full similarity row."""

    @pytest.mark.parametrize("tile_rows,tile_candidates", [(1, 1), (2, 3), (8, 1000)])
    def test_merged_extremes_match_dense(self, tile_rows, tile_candidates):
        dataset = dataset_with_ragged_rows(5)
        test_X = np.random.default_rng(5).normal(size=(4, 2))
        streamed = streamed_extremes(dataset, test_X, {}, tile_rows, tile_candidates)
        dense = PreparedBatch(dataset, test_X, k=2).sims_matrix
        offsets = dataset.stacked_candidates()[4]
        for i in range(4):
            lo, hi = row_extremes(dense[i], offsets)
            assert np.array_equal(lo, streamed[i][0])
            assert np.array_equal(hi, streamed[i][1])
        labels = [
            certain_from_extremes(*streamed[i], dataset.labels, 2) for i in range(4)
        ]
        reference = execute_query(
            make_query(dataset, test_X, kind="certain_label", k=2),
            backend="sequential",
        ).values
        assert labels == reference

    @pytest.mark.parametrize("tile_candidates", [1, 2, 1000])
    def test_pinned_rows_override_extremes(self, tile_candidates):
        # Small tiles split pinned rows' segments: blocks after the one
        # holding the pinned candidate must not widen its interval again.
        dataset = dataset_with_ragged_rows(6)
        test_X = np.random.default_rng(6).normal(size=(3, 2))
        pins = {row: 0 for row in dataset.uncertain_rows()[:2]}
        streamed = streamed_extremes(dataset, test_X, pins, 2, tile_candidates)
        dense = PreparedBatch(dataset, test_X, k=2).sims_matrix
        offsets = dataset.stacked_candidates()[4]
        for i in range(3):
            lo, hi = row_extremes(dense[i], offsets, pins)
            assert np.array_equal(lo, streamed[i][0])
            assert np.array_equal(hi, streamed[i][1])
        query = make_query(dataset, test_X, kind="certain_label", k=2, pins=pins)
        reference = execute_query(query, backend="sequential").values
        assert [certain_from_extremes(*streamed[i], dataset.labels, 2)
                for i in range(3)] == reference
        sharded = execute_query(
            query,
            backend="sharded",
            options=ExecutionOptions(
                cache=False, tile_rows=2, tile_candidates=tile_candidates
            ),
        ).values
        assert sharded == reference

    @pytest.mark.parametrize("cuts", [(3,), (2, 5), (1, 2, 3, 4, 5, 6, 7)])
    def test_executor_tallies_match_dense(self, cuts):
        # The executor op runs the same fold over row slices; pins land in
        # more than one partition and map to slice-local rows.
        dataset = dataset_with_ragged_rows(10)
        test_X = np.random.default_rng(10).normal(size=(3, 2))
        dirty = dataset.uncertain_rows()
        pins = {dirty[0]: 0, dirty[-1]: 1}
        assert sum(1 for cut in cuts if dirty[0] < cut <= dirty[-1]) >= 1
        reply, n_partitions = executor_minmax(dataset, test_X, pins, cuts)
        assert reply["ok"], reply.get("error")
        mins, maxs = merge_minmax_tallies(
            [reply["partitions"][index] for index in range(n_partitions)]
        )
        dense = PreparedBatch(dataset, test_X, k=2).sims_matrix
        lo, hi = row_extremes(dense, dataset.stacked_candidates()[4], pins)
        assert np.array_equal(mins, lo)
        assert np.array_equal(maxs, hi)

    def test_executor_rejects_out_of_range_pin(self):
        dataset = dataset_with_ragged_rows(10)
        row = dataset.uncertain_rows()[-1]
        reply, _ = executor_minmax(dataset, np.zeros((1, 2)), {row: 99}, (3,))
        assert not reply["ok"]
        assert reply["error"].startswith("IndexError")
        assert "out of range" in reply["error"]

    def test_binary_decisions_never_build_full_rows(self, monkeypatch):
        dataset = dataset_with_ragged_rows(9)
        test_X = np.random.default_rng(9).normal(size=(5, 2))
        reference = {
            kind: execute_query(
                make_query(dataset, test_X, kind=kind, k=2, label=0),
                backend="sequential",
            ).values
            for kind in ("certain_label", "check")
        }

        def no_full_rows(*args, **kwargs):
            raise AssertionError("a binary decision streamed P-wide rows")

        monkeypatch.setattr(ShardedExecutor, "map_points", no_full_rows)
        for kind, values in reference.items():
            streamed = execute_query(
                make_query(dataset, test_X, kind=kind, k=2, label=0),
                backend="sharded",
                options=ExecutionOptions(cache=False, tile_rows=2, tile_candidates=3),
            ).values
            assert streamed == values

    def test_multiclass_decisions_match(self):
        # Multiclass decisions never take the MinMax check; the streamed
        # decisions still match the sequential reference.
        dataset = dataset_with_ragged_rows(7, n_labels=3)
        test_X = np.random.default_rng(7).normal(size=(3, 2))
        query = make_query(dataset, test_X, kind="certain_label", k=1)
        streamed = execute_query(
            query,
            backend="sharded",
            options=ExecutionOptions(cache=False, tile_rows=2, tile_candidates=2),
        ).values
        assert streamed == execute_query(query, backend="sequential").values

    def test_out_of_range_pin_rejected(self):
        dataset = dataset_with_ragged_rows(8)
        with pytest.raises(IndexError, match="out of range"):
            streamed_extremes(dataset, np.zeros((1, 2)), {0: 99}, 1, 1)
        with pytest.raises(IndexError, match="out of range"):
            make_query(dataset, np.zeros((1, 2)), kind="certain_label", k=1, pins={0: 99})

    def test_negative_pinned_row_rejected(self):
        # numpy's negative indexing must not let row=-1 slip through to the
        # last row's similarities.
        dataset = dataset_with_ragged_rows(8)
        with pytest.raises(IndexError, match="pinned row -1"):
            streamed_extremes(dataset, np.zeros((1, 2)), {-1: 0}, 1, 1)
        with pytest.raises(IndexError, match="pinned row -1"):
            make_query(dataset, np.zeros((1, 2)), kind="certain_label", k=1, pins={-1: 0})


class TestZeroCopyTile:
    def test_prepared_batch_accepts_precomputed_sims(self):
        dataset = dataset_with_ragged_rows(9)
        test_X = np.random.default_rng(9).normal(size=(3, 2))
        dense = PreparedBatch(dataset, test_X, k=2)
        tile = PreparedBatch(
            dataset, test_X, k=2, sims_matrix=dense.sims_matrix
        )
        assert tile.sims_matrix is dense.sims_matrix  # no copy
        for index in range(3):
            assert np.array_equal(tile.scan(index).rows, dense.scan(index).rows)
            assert np.array_equal(tile.scan(index).sims, dense.scan(index).sims)

    def test_prepared_batch_rejects_misshaped_sims(self):
        dataset = dataset_with_ragged_rows(10)
        test_X = np.zeros((2, 2))
        with pytest.raises(ValueError, match="sims_matrix"):
            PreparedBatch(dataset, test_X, k=1, sims_matrix=np.zeros((2, 3)))

    def test_executor_tile_batch_matches_dense_prepared(self):
        dataset = dataset_with_ragged_rows(17)
        test_X = np.random.default_rng(17).normal(size=(5, 2))
        executor = ShardedExecutor(
            dataset, test_X, k=2, tile_rows=2, tile_candidates=3
        )
        dense = PreparedBatch(dataset, test_X, k=2)
        tile = executor.tile_batch(2, 4)
        assert np.array_equal(tile.sims_matrix, dense.sims_matrix[2:4])
        for local, global_index in enumerate(range(2, 4)):
            assert tile.query(local).counts({}) == dense.query(global_index).counts({})
        with pytest.raises(IndexError, match="out of range"):
            executor.tile_batch(4, 9)


class TestBackendBehaviour:
    def test_only_needed_tiles_are_streamed(self):
        backend = ShardedBackend(tile_rows=2)
        dataset = dataset_with_ragged_rows(11)
        test_X = np.random.default_rng(11).normal(size=(6, 2))
        query = make_query(dataset, test_X, kind="counts", k=2)
        _, stats = backend.execute(query, ExecutionOptions(cache=True))
        assert stats["n_tiles_streamed"] == 3
        _, stats = backend.execute(query, ExecutionOptions(cache=True))
        # Every point was cache-served: no tile streamed the second time.
        assert stats["n_tiles_streamed"] == 0

    def test_cost_model_prefers_tiling_above_memory_budget(self):
        small_budget = ShardedBackend(memory_budget_bytes=1)
        batch = get_backend("batch")
        dataset = dataset_with_ragged_rows(12)
        test_X = np.random.default_rng(12).normal(size=(8, 2))
        query = make_query(dataset, test_X, kind="counts", k=2)
        options = ExecutionOptions()
        over_budget, reason = small_budget.estimate_cost(query, options)
        assert "memory budget" in reason
        assert over_budget < batch.estimate_cost(query, options)[0]
        # Under the (default, generous) budget the dense batch path wins.
        roomy = ShardedBackend(memory_budget_bytes=DEFAULT_MEMORY_BUDGET_BYTES)
        under_budget, _ = roomy.estimate_cost(query, options)
        assert under_budget > batch.estimate_cost(query, options)[0]

    def test_registered_default_instance(self):
        backend = get_backend("sharded")
        assert isinstance(backend, ShardedBackend)
        caps = backend.capabilities
        assert caps.batchable and caps.exact and not caps.incremental
        assert caps.flavors == frozenset(
            {"binary", "multiclass", "weighted", "topk", "label_uncertainty"}
        )

    def test_empty_test_set(self):
        dataset = dataset_with_ragged_rows(13)
        query = make_query(dataset, np.zeros((0, 2)), k=1)
        assert execute_query(query, backend="sharded").values == []

    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive_option_knobs_rejected(self, bad):
        backend = ShardedBackend()
        dataset = dataset_with_ragged_rows(14)
        query = make_query(dataset, np.zeros((2, 2)), k=1)
        with pytest.raises(ValueError, match="tile_rows"):
            backend.execute(query, ExecutionOptions(tile_rows=bad))
        with pytest.raises(ValueError, match="tile_candidates"):
            backend.execute(query, ExecutionOptions(tile_candidates=bad))

    @pytest.mark.parametrize("bad", [0, -2])
    def test_non_positive_constructor_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            ShardedBackend(tile_rows=bad)
        with pytest.raises(ValueError):
            ShardedBackend(tile_candidates=bad)

    def test_executor_rejects_out_of_range_indices(self):
        dataset = dataset_with_ragged_rows(15)
        executor = ShardedExecutor(dataset, np.zeros((2, 2)), k=1)
        with pytest.raises(IndexError, match="out of range"):
            executor.map_points(lambda index, sims: None, [5])

    def test_plan_is_observable(self):
        executor = ShardedExecutor(
            dataset_with_ragged_rows(16),
            np.zeros((5, 2)),
            k=1,
            tile_rows=2,
            tile_candidates=4,
        )
        assert isinstance(executor.plan, TilePlan)
        assert executor.plan.n_points == 5
        assert executor.plan.tile_rows == 2
