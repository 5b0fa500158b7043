"""Unit tests for the MM (MinMax) algorithm."""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.core import scan
from repro.core.bruteforce import brute_force_counts
from repro.core.dataset import IncompleteDataset
from repro.core.minmax import (
    extreme_winners,
    extreme_world_similarities,
    minmax_check,
    minmax_checks_all,
    predictable_labels,
    row_extremes,
    stream_extremes,
)
from repro.core.planner import execute_query, make_query
from repro.core.scan import similarity_matrix
from repro.service.executor import serve_executor
from repro.service.partition import merge_minmax_tallies
from tests.conftest import random_incomplete_dataset


class TestExtremeWorlds:
    def test_target_rows_use_max_similarity(self):
        mins, maxs = np.array([0.1, 0.2]), np.array([0.9, 0.5])
        labels = np.array([0, 1])
        extreme = extreme_world_similarities(mins, maxs, labels, target_label=0)
        assert extreme[0] == 0.9  # label 0 row: max
        assert extreme[1] == 0.2  # other row: min

    def test_extreme_world_dominates_all_worlds(self):
        """Lemma B.1: E_l maximises label-l's vote chances over all worlds."""
        rng = np.random.default_rng(0)
        from repro.core.kernels import NegativeEuclideanKernel
        from repro.core.knn import majority_label, top_k_rows
        from repro.core.minmax import row_extremes
        from repro.core.scan import similarity_matrix
        from repro.core.worlds import iter_worlds

        kernel = NegativeEuclideanKernel()
        for _ in range(10):
            dataset = random_incomplete_dataset(rng, n_labels=2)
            t = rng.normal(size=dataset.n_features)
            sims = similarity_matrix(dataset, t[None, :], kernel)[0]
            mins, maxs = row_extremes(sims, dataset.stacked_candidates()[4])
            for target in (0, 1):
                extreme = extreme_world_similarities(mins, maxs, dataset.labels, target)
                extreme_predicts = (
                    majority_label(dataset.labels[top_k_rows(extreme, 1)], 2) == target
                )
                some_world_predicts = False
                for _choice, features in iter_worlds(dataset):
                    from repro.core.knn import KNNClassifier

                    clf = KNNClassifier(k=1).fit(features, dataset.labels)
                    if clf.predict_one(t) == target:
                        some_world_predicts = True
                        break
                assert extreme_predicts == some_world_predicts


class TestMinmaxVsBruteForce:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_q1_matches_enumeration(self, k):
        rng = np.random.default_rng(42 + k)
        for _ in range(20):
            dataset = random_incomplete_dataset(rng, n_labels=2)
            t = rng.normal(size=dataset.n_features)
            counts = brute_force_counts(dataset, t, k=k)
            total = sum(counts)
            for label in (0, 1):
                assert minmax_check(dataset, t, label, k=k) == (counts[label] == total)

    def test_checks_all_has_at_most_one_true(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            dataset = random_incomplete_dataset(rng, n_labels=2)
            t = rng.normal(size=dataset.n_features)
            result = minmax_checks_all(dataset, t, k=3)
            assert sum(result) <= 1

    def test_certain_dataset_is_detected(self):
        # All rows of one label: prediction trivially certain.
        dataset = IncompleteDataset(
            [np.array([[0.0], [1.0]]), np.array([[2.0], [3.0]]), np.array([[1.5]])],
            labels=[1, 1, 1],
        )
        assert minmax_check(dataset, np.array([0.0]), 1, k=1)
        assert minmax_checks_all(dataset, np.array([0.0]), k=1) == [False, True]


class TestMulticlassGuard:
    def test_multiclass_rejected_by_default(self):
        rng = np.random.default_rng(9)
        dataset = random_incomplete_dataset(rng, n_labels=3)
        t = rng.normal(size=dataset.n_features)
        with pytest.raises(ValueError, match="binary"):
            minmax_check(dataset, t, 0, k=1)

    def test_multiclass_heuristic_is_sound_as_necessary_condition(self):
        """With allow_multiclass, E_l predicting l is implied by existence."""
        rng = np.random.default_rng(10)
        for _ in range(10):
            dataset = random_incomplete_dataset(rng, n_labels=3)
            t = rng.normal(size=dataset.n_features)
            counts = brute_force_counts(dataset, t, k=1)
            winners = predictable_labels(dataset, t, k=1, allow_multiclass=True)
            for label, count in enumerate(counts):
                if count > 0 and counts[label] == sum(counts):
                    # A certainly-predicted label must survive the heuristic.
                    assert winners == [label] or label in winners

    def test_label_out_of_range(self):
        rng = np.random.default_rng(11)
        dataset = random_incomplete_dataset(rng, n_labels=2)
        t = rng.normal(size=dataset.n_features)
        with pytest.raises(ValueError, match="label"):
            minmax_check(dataset, t, 5, k=1)


def dataset_with_ragged_rows(seed: int = 0, n_rows: int = 8, n_labels: int = 2):
    rng = np.random.default_rng(seed)
    sets = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n_rows)]
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[0] = 0
    labels[1] = n_labels - 1
    return IncompleteDataset(sets, labels)


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


class TestStreamedExtremes:
    """The streamed min/max fold: exact merging over any block boundaries."""

    @pytest.mark.parametrize("block_candidates", [1, 3, None])
    def test_streamed_extremes_match_dense(self, monkeypatch, block_candidates):
        dataset = dataset_with_ragged_rows(5)
        test_X = np.random.default_rng(5).normal(size=(4, 2))
        dense = similarity_matrix(dataset, test_X)
        if block_candidates is not None:
            monkeypatch.setattr(
                scan, "SIMILARITY_BLOCK_ELEMENTS", block_candidates * test_X.size
            )
        mins, maxs = stream_extremes(dataset, test_X, None, {})
        lo, hi = row_extremes(dense, dataset.stacked_candidates()[4])
        assert np.array_equal(mins, lo) and np.array_equal(maxs, hi)
        labels = [certain_from_extremes(mins[i], maxs[i], dataset.labels, 2) for i in range(4)]
        reference = execute_query(
            make_query(dataset, test_X, kind="certain_label", k=2), backend="sequential"
        ).values
        assert labels == reference

    @pytest.mark.parametrize("block_candidates", [1, 2, None])
    def test_pinned_rows_override_extremes(self, monkeypatch, block_candidates):
        # Small blocks split pinned rows' segments: blocks after the one
        # holding the pinned candidate must not widen its interval again.
        dataset = dataset_with_ragged_rows(6)
        test_X = np.random.default_rng(6).normal(size=(3, 2))
        pins = {row: 0 for row in dataset.uncertain_rows()[:2]}
        dense = similarity_matrix(dataset, test_X)
        if block_candidates is not None:
            monkeypatch.setattr(
                scan, "SIMILARITY_BLOCK_ELEMENTS", block_candidates * test_X.size
            )
        mins, maxs = stream_extremes(dataset, test_X, None, pins)
        lo, hi = row_extremes(dense, dataset.stacked_candidates()[4], pins)
        assert np.array_equal(mins, lo) and np.array_equal(maxs, hi)
        query = make_query(dataset, test_X, kind="certain_label", k=2, pins=pins)
        reference = execute_query(query, backend="sequential").values
        assert [
            certain_from_extremes(mins[i], maxs[i], dataset.labels, 2) for i in range(3)
        ] == reference

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
        dense = similarity_matrix(dataset, test_X)
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

    def test_out_of_range_pin_rejected(self):
        dataset = dataset_with_ragged_rows(8)
        with pytest.raises(IndexError, match="out of range"):
            stream_extremes(dataset, np.zeros((1, 2)), None, {0: 99})
        with pytest.raises(IndexError, match="out of range"):
            make_query(dataset, np.zeros((1, 2)), kind="certain_label", k=1, pins={0: 99})

    def test_negative_pinned_row_rejected(self):
        # numpy's negative indexing must not let row=-1 slip through to the
        # last row's similarities.
        dataset = dataset_with_ragged_rows(8)
        with pytest.raises(IndexError, match="pinned row -1"):
            stream_extremes(dataset, np.zeros((1, 2)), None, {-1: 0})
        with pytest.raises(IndexError, match="pinned row -1"):
            make_query(dataset, np.zeros((1, 2)), kind="certain_label", k=1, pins={-1: 0})
