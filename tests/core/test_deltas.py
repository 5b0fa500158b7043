"""Unit tests for the delta-maintenance layer (:mod:`repro.core.deltas`).

The sequence-level bit-identity guarantees live in
``tests/fuzz/test_update_sequences.py``; this file pins the unit
semantics — the delta vocabulary, the irrelevance (provenance) rule, the
per-delta reports, the warm-state handoff and every validation error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.deltas import (
    CellRepair,
    DeltaMaintainedState,
    RowAppend,
    RowDelete,
    apply_delta_to_dataset,
)
from repro.core.pruning import dominated_mask, prune_mask
from repro.core.queries import q2_counts


def small_dataset() -> IncompleteDataset:
    # Rows 0 and 1 are dirty (2 candidates each), rows 2 and 3 are clean.
    return IncompleteDataset(
        [
            np.array([[0.0, 0.0], [6.0, 6.0]]),
            np.array([[10.0, 10.0], [4.0, 4.0]]),
            np.array([[1.0, 1.0]]),
            np.array([[9.0, 9.0]]),
        ],
        labels=[0, 1, 0, 1],
    )


def probe_points() -> np.ndarray:
    return np.array([[0.5, 0.5], [9.5, 9.5], [5.0, 5.0]])


class TestDeltaVocabulary:
    def test_apply_delta_to_dataset_matches_dataset_methods(self):
        dataset = small_dataset()
        repaired = apply_delta_to_dataset(dataset, CellRepair(0, 1))
        assert repaired.fingerprint() == dataset.restrict_row(0, 1).fingerprint()

        new_row = np.array([[2.0, 2.0], [3.0, 3.0]])
        appended = apply_delta_to_dataset(dataset, RowAppend(new_row, 1))
        assert appended.fingerprint() == dataset.append_row(new_row, 1).fingerprint()

        deleted = apply_delta_to_dataset(dataset, RowDelete(1))
        assert deleted.fingerprint() == dataset.delete_row(1).fingerprint()

    def test_apply_delta_to_dataset_rejects_unknown_type(self):
        with pytest.raises(TypeError, match="unknown delta type"):
            apply_delta_to_dataset(small_dataset(), object())


class TestIrrelevanceRule:
    def test_dominating_rows_counts_strictly_greater_mins(self):
        mins = np.array([[0.9, 0.5, 0.3, 0.5]])

        def n_dominating(best: float) -> int:
            return sum(
                bool(dominated_mask(mins, np.array([best]), k)[0]) for k in range(1, 6)
            )

        assert n_dominating(0.5) == 1  # ties do not dominate
        assert n_dominating(0.2) == 4
        assert n_dominating(0.9) == 0

    def test_row_is_irrelevant_excludes_the_row_itself(self):
        # Row 0's own min ties its best, but a row never dominates itself.
        mins = np.array([0.7, 0.8, 0.1])
        maxs = np.array([0.7, 0.9, 0.5])
        assert not prune_mask(mins, maxs, k=2)[0]
        # With k=1 the single other dominator (row 1) suffices.
        assert prune_mask(mins, maxs, k=1)[0]

    def test_irrelevant_row_never_in_provenance(self):
        dataset = small_dataset()
        state = DeltaMaintainedState(dataset, probe_points(), k=1)
        # For the point at (0.5, 0.5), row 3 at (9, 9) is hopeless: rows 2
        # and 0 both guarantee a closer neighbour, so with k=1 its choice
        # can never matter.
        assert 3 not in state.provenance(0)


class TestDeltaApplication:
    def test_repair_matches_fresh_q2_counts(self):
        dataset = small_dataset()
        points = probe_points()
        state = DeltaMaintainedState(dataset, points, k=3)
        state.apply(CellRepair(0, 0))
        restricted = dataset.restrict_row(0, 0)
        for i, point in enumerate(points):
            assert state.counts(i) == q2_counts(restricted, point, k=3)

    def test_append_matches_fresh_q2_counts(self):
        dataset = small_dataset()
        points = probe_points()
        state = DeltaMaintainedState(dataset, points, k=3)
        new_row = np.array([[2.0, 2.0], [7.0, 7.0], [5.0, 5.0]])
        state.apply(RowAppend(new_row, 0))
        grown = dataset.append_row(new_row, 0)
        for i, point in enumerate(points):
            assert state.counts(i) == q2_counts(grown, point, k=3)

    def test_delete_matches_fresh_q2_counts(self):
        dataset = small_dataset()
        points = probe_points()
        state = DeltaMaintainedState(dataset, points, k=3)
        state.apply(RowDelete(1))
        shrunk = dataset.delete_row(1)
        for i, point in enumerate(points):
            assert state.counts(i) == q2_counts(shrunk, point, k=3)

    def test_append_can_grow_the_label_space(self):
        dataset = small_dataset()
        state = DeltaMaintainedState(dataset, probe_points(), k=3)
        state.apply(RowAppend(np.array([[5.0, 5.0]]), 2))  # new label
        assert state.dataset.n_labels == 3
        grown = dataset.append_row(np.array([[5.0, 5.0]]), 2)
        assert state.counts_all() == [
            q2_counts(grown, point, k=3) for point in probe_points()
        ]
        assert all(len(counts) == 3 for counts in state.counts_all())

    def test_repair_of_clean_row_is_a_counted_noop(self):
        dataset = small_dataset()
        state = DeltaMaintainedState(dataset, probe_points(), k=3)
        before = state.counts_all()
        report = state.apply(CellRepair(2, 0))  # row 2 has one candidate
        assert state.counts_all() == before
        assert report["n_recomputed"] == 0
        assert report["n_pruned"] == state.n_points

    def test_apply_many_returns_one_report_per_delta(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        reports = state.apply_many([CellRepair(0, 0), RowDelete(3)])
        assert [r["op"] for r in reports] == ["cell_repair", "row_delete"]
        assert [r["version"] for r in reports] == [1, 2]
        state.verify()

    def test_reports_partition_points_into_pruned_and_recomputed(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=1)
        report = state.apply(CellRepair(0, 0))
        assert report["n_pruned"] + report["n_recomputed"] == state.n_points
        assert sorted(report["touched_points"]) == report["touched_points"]
        assert len(report["touched_points"]) == report["n_recomputed"]
        # The running totals accumulate what the reports said.
        assert state.n_pruned == report["n_pruned"]
        assert state.n_recomputed == report["n_recomputed"]

    def test_version_increments_per_delta(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        assert state.version == 0
        state.apply(CellRepair(0, 1))
        assert state.version == 1
        state.apply(RowDelete(0))
        assert state.version == 2


class TestValidation:
    def test_k_must_fit_the_dataset(self):
        with pytest.raises(ValueError, match="exceeds the number of training rows"):
            DeltaMaintainedState(small_dataset(), probe_points(), k=5)

    def test_repair_row_out_of_range(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        with pytest.raises(IndexError, match="row 9 out of range"):
            state.apply(CellRepair(9, 0))

    def test_repair_candidate_out_of_range(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        with pytest.raises(IndexError, match="candidate 5 out of range"):
            state.apply(CellRepair(0, 5))

    def test_delete_cannot_drop_below_k(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=4)
        with pytest.raises(ValueError, match="cannot delete row 0"):
            state.apply(RowDelete(0))

    def test_delete_row_out_of_range(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        with pytest.raises(IndexError, match="row 7 out of range"):
            state.apply(RowDelete(7))

    def test_unknown_delta_type_rejected(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        with pytest.raises(TypeError, match="unknown delta type"):
            state.apply("not a delta")

    def test_sims_matrix_shape_checked(self):
        with pytest.raises(ValueError, match="sims_matrix must have shape"):
            DeltaMaintainedState(
                small_dataset(),
                probe_points(),
                k=2,
                sims_matrix=np.zeros((3, 2)),
            )

    def test_test_points_shape_checked(self):
        with pytest.raises(ValueError, match="test_points must have shape"):
            DeltaMaintainedState(small_dataset(), np.zeros((2, 5)), k=2)


class TestWarmStateHandoff:
    def test_sims_matrix_is_bit_identical_to_pairwise(self):
        dataset = small_dataset()
        points = probe_points()
        state = DeltaMaintainedState(dataset, points, k=3)
        state.apply(RowAppend(np.array([[3.0, 3.0], [6.0, 6.0]]), 0))
        state.apply(CellRepair(1, 1))
        current = state.dataset
        stacked = np.concatenate(
            [current.candidates(i) for i in range(current.n_rows)], axis=0
        )
        expected = state.kernel.pairwise(stacked, points)
        assert np.array_equal(state.sims_matrix(), expected)

    def test_prepared_batch_answers_like_a_cold_one(self):
        from repro.core.batch_engine import PreparedBatch

        dataset = small_dataset()
        points = probe_points()
        state = DeltaMaintainedState(dataset, points, k=3)
        state.apply(CellRepair(0, 0))
        warm = state.prepared_batch()
        cold = PreparedBatch(state.dataset, points, k=3, kernel=state.kernel)
        for i in range(len(points)):
            assert warm.query(i).counts() == cold.query(i).counts()

    def test_accepts_precomputed_sims_matrix(self):
        dataset = small_dataset()
        points = probe_points()
        cold = DeltaMaintainedState(dataset, points, k=3)
        warm = DeltaMaintainedState(
            dataset, points, k=3, sims_matrix=cold.sims_matrix()
        )
        assert warm.counts_all() == cold.counts_all()

    def test_verify_detects_corruption(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=3)
        state.verify()  # clean state passes
        state._counts[0][0] += 1
        with pytest.raises(AssertionError, match="maintained counts diverged"):
            state.verify()
