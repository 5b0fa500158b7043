"""Pins through the delta engine vs. fresh recomputation.

The ``incremental`` planner backend keeps one
:class:`~repro.core.deltas.DeltaMaintainedState` per query family and
applies every new pin as a :class:`~repro.core.deltas.CellRepair`. These
tests hold both layers to a fresh recount: the state directly, and the
backend across growing pin sets, with pruning on and off.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import IncompleteDataset
from repro.core.deltas import CellRepair, DeltaMaintainedState
from repro.core.entropy import prediction_entropy
from repro.core.planner import (
    ExecutionOptions,
    IncrementalBackend,
    execute_query,
    make_query,
)
from repro.core.prepared import PreparedQuery
from tests.conftest import random_incomplete_dataset


def make_state(
    rng: np.random.Generator, n_points: int = 4, k: int = 3, n_labels: int = 2
) -> tuple[DeltaMaintainedState, IncompleteDataset, np.ndarray]:
    dataset = random_incomplete_dataset(rng, n_rows=8, n_labels=n_labels)
    points = rng.normal(size=(n_points, dataset.n_features))
    return DeltaMaintainedState(dataset, points, k=k), dataset, points


def pinned_counts(backend, dataset, points, k, pins, prune="auto") -> list[list[int]]:
    query = make_query(dataset, points, kind="counts", k=k, pins=pins)
    values, _ = backend.execute(query, ExecutionOptions(prune=prune))
    return values


def fresh_counts(dataset, points, k, pins) -> list[list[int]]:
    query = make_query(dataset, points, kind="counts", k=k, pins=pins)
    return execute_query(
        query, backend="sequential", options=ExecutionOptions(prune="off", cache=False)
    ).values


class TestConstruction:
    def test_initial_counts_match_prepared_query(self, rng: np.random.Generator) -> None:
        state, dataset, points = make_state(rng)
        backend_counts = pinned_counts(IncrementalBackend(), dataset, points, 3, {})
        for i in range(points.shape[0]):
            expected = PreparedQuery(dataset, points[i], k=3).counts()
            assert state.counts(i) == expected
            assert backend_counts[i] == expected

    def test_single_point_vector_accepted(self, rng: np.random.Generator) -> None:
        dataset = random_incomplete_dataset(rng)
        state = DeltaMaintainedState(dataset, np.zeros(dataset.n_features), k=1)
        assert state.n_points == 1
        point = np.zeros(dataset.n_features)
        assert len(pinned_counts(IncrementalBackend(), dataset, point, 1, {})) == 1

    def test_shape_mismatch_rejected(self, rng: np.random.Generator) -> None:
        dataset = random_incomplete_dataset(rng, n_features=2)
        with pytest.raises(ValueError, match="shape"):
            DeltaMaintainedState(dataset, np.zeros((3, 5)), k=1)

    def test_counts_returns_copy(self, rng: np.random.Generator) -> None:
        state, _, _ = make_state(rng)
        state.counts(0).append(999)
        assert len(state.counts(0)) == state.dataset.n_labels


class TestPinning:
    def test_pin_matches_fresh_scan_after_every_step(self, rng: np.random.Generator) -> None:
        state, dataset, points = make_state(rng, n_points=5)
        backend = IncrementalBackend()
        pins: dict[int, int] = {}
        for row in dataset.uncertain_rows():
            cand = int(rng.integers(dataset.candidate_counts()[row]))
            pins[row] = cand
            state.apply(CellRepair(row, cand))
            state.verify()  # raises on divergence
            assert pinned_counts(backend, dataset, points, 3, pins) == fresh_counts(
                dataset, points, 3, pins
            )
        assert backend.n_rebuilds == 1

    def test_double_pin_rejected(self, rng: np.random.Generator) -> None:
        # A repaired row has one candidate left: a second repair can only
        # name it (a no-op), any other candidate is out of range.
        state, dataset, _ = make_state(rng)
        row = dataset.uncertain_rows()[0]
        state.apply(CellRepair(row, 0))
        before = state.counts_all()
        state.apply(CellRepair(row, 0))
        assert state.counts_all() == before
        with pytest.raises(IndexError, match="out of range"):
            state.apply(CellRepair(row, 1))

    def test_contradicting_pin_rebuilds_backend_state(self, rng: np.random.Generator) -> None:
        _, dataset, points = make_state(rng)
        row = dataset.uncertain_rows()[0]
        backend = IncrementalBackend()
        pinned_counts(backend, dataset, points, 3, {row: 0})
        assert pinned_counts(backend, dataset, points, 3, {row: 1}) == fresh_counts(
            dataset, points, 3, {row: 1}
        )
        assert backend.n_rebuilds == 2

    def test_out_of_range_candidate_rejected(self, rng: np.random.Generator) -> None:
        state, dataset, points = make_state(rng)
        row = dataset.uncertain_rows()[0]
        with pytest.raises(IndexError, match="out of range"):
            state.apply(CellRepair(row, 99))
        with pytest.raises(IndexError, match="out of range"):
            make_query(dataset, points, kind="counts", k=3, pins={row: 99})

    def test_pin_many_applies_in_order(self, rng: np.random.Generator) -> None:
        state, dataset, points = make_state(rng)
        pins = [(row, 0) for row in dataset.uncertain_rows()]
        state.apply_many([CellRepair(row, cand) for row, cand in pins])
        state.verify()
        # A cold backend restricts the whole pin set in before counting.
        assert pinned_counts(IncrementalBackend(), dataset, points, 3, dict(pins)) == (
            fresh_counts(dataset, points, 3, dict(pins))
        )

    def test_pinning_certain_row_is_noop_for_counts(self, rng: np.random.Generator) -> None:
        state, dataset, points = make_state(rng)
        certain = dataset.certain_rows()
        if not certain:
            pytest.skip("no certain rows in this draw")
        before = state.counts_all()
        state.apply(CellRepair(certain[0], 0))
        assert state.counts_all() == before
        backend = IncrementalBackend()
        assert pinned_counts(backend, dataset, points, 3, {certain[0]: 0}) == before

    def test_all_rows_pinned_gives_single_world(self, rng: np.random.Generator) -> None:
        state, dataset, _ = make_state(rng, n_points=3, k=1)
        for row in range(dataset.n_rows):
            state.apply(CellRepair(row, 0))
        for i in range(3):
            counts = state.counts(i)
            assert sum(counts) == 1
            assert state.certain_label(i) is not None
            assert prediction_entropy(counts) == 0.0

    def test_fixed_property_is_a_copy(self, rng: np.random.Generator) -> None:
        # Mutating a query's pin mapping must not reach the maintained state.
        _, dataset, points = make_state(rng)
        row = dataset.uncertain_rows()[0]
        backend = IncrementalBackend()
        query = make_query(dataset, points, kind="counts", k=3, pins={row: 0})
        first, _ = backend.execute(query)
        query.pins_dict()[row] = 1
        second, _ = backend.execute(query)
        assert second == first
        assert backend.n_rebuilds == 1 and backend.n_reuses == 1


class TestDerivedQuantities:
    def test_mean_entropy_zero_when_all_certain(self, rng: np.random.Generator) -> None:
        _, dataset, points = make_state(rng, n_points=2, k=1)
        pins = {row: 0 for row in range(dataset.n_rows)}
        counts = pinned_counts(IncrementalBackend(), dataset, points, 1, pins)
        assert sum(prediction_entropy(c) for c in counts) == 0.0
        labels = execute_query(
            make_query(dataset, points, kind="certain_label", k=1, pins=pins),
            backend="incremental",
        ).values
        assert None not in labels

    def test_certain_labels_consistent_with_counts(self, rng: np.random.Generator) -> None:
        state, _, _ = make_state(rng, n_points=6)
        for i, label in enumerate(state.certain_labels()):
            counts = state.counts(i)
            if label is None:
                assert sum(1 for c in counts if c > 0) > 1
            else:
                assert counts[label] == sum(counts)

    def test_entropy_never_increases_in_expectation_to_zero(self, rng: np.random.Generator) -> None:
        # Entropy for a specific pin sequence can fluctuate, but the final
        # fully-pinned state is deterministic, hence zero entropy.
        state, dataset, _ = make_state(rng, n_points=3)
        for row in dataset.uncertain_rows():
            state.apply(CellRepair(row, 0))
        assert sum(prediction_entropy(c) for c in state.counts_all()) == pytest.approx(0.0)


class TestPruningRule:
    def test_far_away_dirty_row_is_pruned(self) -> None:
        # Nine tight rows around the test point, one dirty row far away:
        # pinning the far row must be pruned for k=3.
        near = [np.array([[0.1 * i, 0.0]]) for i in range(9)]
        far = np.array([[50.0, 50.0], [60.0, 60.0], [70.0, 70.0]])
        dataset = IncompleteDataset(near + [far], labels=[0, 1] * 5)
        state = DeltaMaintainedState(dataset, np.zeros(2), k=3)
        before = state.counts(0)
        state.apply(CellRepair(9, 1))
        assert state.n_pruned == 1
        assert state.n_recomputed == 0
        assert state.counts(0) == [c // 3 for c in before]
        state.verify()
        backend = IncrementalBackend()
        pinned_counts(backend, dataset, np.zeros(2), 3, {})
        query = make_query(dataset, np.zeros(2), kind="counts", k=3, pins={9: 1})
        _, stats = backend.execute(query)
        assert stats["n_rows_skipped"] == 1 and stats["n_recomputed"] == 0

    def test_nearby_dirty_row_is_recomputed(self) -> None:
        near_dirty = np.array([[0.0, 0.0], [0.2, 0.0]])
        others = [np.array([[1.0 * (i + 1), 0.0]]) for i in range(5)]
        dataset = IncompleteDataset([near_dirty] + others, labels=[0, 1, 0, 1, 0, 1])
        state = DeltaMaintainedState(dataset, np.zeros(2), k=3)
        state.apply(CellRepair(0, 0))
        assert state.n_recomputed == 1
        state.verify()
        backend = IncrementalBackend()
        pinned_counts(backend, dataset, np.zeros(2), 3, {})
        query = make_query(dataset, np.zeros(2), kind="counts", k=3, pins={0: 0})
        _, stats = backend.execute(query)
        assert stats["n_rows_skipped"] == 0 and stats["n_recomputed"] == 1


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=3),
        n_labels=st.integers(min_value=2, max_value=3),
    )
    def test_random_pin_sequences_stay_exact(self, seed: int, k: int, n_labels: int) -> None:
        rng = np.random.default_rng(seed)
        dataset = random_incomplete_dataset(rng, n_rows=6, n_labels=n_labels)
        points = rng.normal(size=(3, dataset.n_features))
        pruned, unpruned = IncrementalBackend(), IncrementalBackend()
        rows = dataset.uncertain_rows()
        rng.shuffle(rows)
        pins: dict[int, int] = {}
        for row in rows:
            pins[row] = int(rng.integers(dataset.candidate_counts()[row]))
            on = pinned_counts(pruned, dataset, points, k, pins, prune="on")
            off = pinned_counts(unpruned, dataset, points, k, pins, prune="off")
            assert on == off  # prune on/off identity
        # Final counts must equal a from-scratch query on the pinned dataset.
        restricted = dataset
        for row, cand in pins.items():
            restricted = restricted.restrict_row(row, cand)
        final = pinned_counts(pruned, dataset, points, k, pins)
        for i in range(3):
            assert final[i] == PreparedQuery(restricted, points[i], k=k).counts()
