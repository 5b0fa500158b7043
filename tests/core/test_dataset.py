"""Unit tests for the incomplete-dataset data model."""

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset


def simple_dataset() -> IncompleteDataset:
    return IncompleteDataset(
        [np.array([[0.0, 0.0]]), np.array([[1.0, 1.0], [2.0, 2.0]])],
        labels=[0, 1],
    )


class TestConstruction:
    def test_basic_shape_accessors(self):
        ds = simple_dataset()
        assert ds.n_rows == 2
        assert len(ds) == 2
        assert ds.n_features == 2
        assert ds.n_labels == 2

    def test_candidate_counts(self):
        ds = simple_dataset()
        assert ds.candidate_counts().tolist() == [1, 2]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            IncompleteDataset([], labels=[])

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            IncompleteDataset([np.zeros((1, 2))], labels=[0, 1])

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            IncompleteDataset([np.zeros((1, 2))], labels=[-1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            IncompleteDataset([np.zeros((1, 2)), np.zeros((1, 3))], labels=[0, 1])

    def test_nan_candidates_rejected(self):
        bad = np.array([[np.nan, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            IncompleteDataset([bad], labels=[0])

    def test_candidates_are_read_only(self):
        ds = simple_dataset()
        with pytest.raises(ValueError):
            ds.candidates(0)[0, 0] = 99.0

    def test_input_mutation_does_not_leak(self):
        source = np.array([[1.0, 1.0]])
        ds = IncompleteDataset([source], labels=[0])
        source[0, 0] = 42.0
        assert ds.candidates(0)[0, 0] == 1.0


class TestUncertainty:
    def test_certainty_flags(self):
        ds = simple_dataset()
        assert ds.is_certain(0)
        assert not ds.is_certain(1)
        assert ds.certain_rows() == [0]
        assert ds.uncertain_rows() == [1]
        assert ds.n_uncertain == 1

    def test_world_count(self):
        ds = IncompleteDataset(
            [np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((1, 1))], labels=[0, 1, 0]
        )
        assert ds.n_worlds() == 6

    def test_world_count_is_exact_bigint(self):
        ds = IncompleteDataset([np.zeros((2, 1))] * 70, labels=[0, 1] * 35)
        assert ds.n_worlds() == 2**70

    def test_from_complete(self):
        features = np.arange(6, dtype=float).reshape(3, 2)
        ds = IncompleteDataset.from_complete(features, [0, 1, 0])
        assert ds.n_worlds() == 1
        assert ds.uncertain_rows() == []


class TestDerivation:
    def test_with_row_fixed(self):
        ds = simple_dataset()
        fixed = ds.with_row_fixed(1, np.array([2.0, 2.0]))
        assert fixed.is_certain(1)
        assert fixed.candidates(1).tolist() == [[2.0, 2.0]]
        # original unchanged
        assert not ds.is_certain(1)

    def test_with_row_fixed_rejects_foreign_value(self):
        ds = simple_dataset()
        with pytest.raises(ValueError, match="not among"):
            ds.with_row_fixed(1, np.array([9.0, 9.0]))

    def test_restrict_row(self):
        ds = simple_dataset()
        restricted = ds.restrict_row(1, 0)
        assert restricted.candidates(1).tolist() == [[1.0, 1.0]]

    def test_restrict_row_out_of_range(self):
        ds = simple_dataset()
        with pytest.raises(IndexError):
            ds.restrict_row(1, 5)

    def test_world_materialisation(self):
        ds = simple_dataset()
        world = ds.world([0, 1])
        assert world.tolist() == [[0.0, 0.0], [2.0, 2.0]]

    def test_world_choice_length_checked(self):
        ds = simple_dataset()
        with pytest.raises(ValueError, match="length"):
            ds.world([0])

    def test_world_choice_range_checked(self):
        ds = simple_dataset()
        with pytest.raises(IndexError):
            ds.world([0, 7])


class TestFingerprint:
    def test_equal_content_equal_fingerprint_however_built(self):
        ds = simple_dataset()
        direct = IncompleteDataset(
            [np.array([[0.0, 0.0]]), np.array([[2.0, 2.0]])], labels=[0, 1]
        )
        assert ds.restrict_row(1, 1).fingerprint() == direct.fingerprint()
        assert ds.with_row_fixed(1, [2.0, 2.0]).fingerprint() == direct.fingerprint()
        assert ds.fingerprint() == simple_dataset().fingerprint()
        assert ds.fingerprint() != direct.fingerprint()

    def test_same_block_split_differently_differs(self):
        block = np.arange(8, dtype=np.float64).reshape(4, 2)
        one_three = IncompleteDataset([block[:1], block[1:]], labels=[0, 1])
        three_one = IncompleteDataset([block[:3], block[3:]], labels=[0, 1])
        assert one_three.stacked_candidates()[0].tobytes() == (
            three_one.stacked_candidates()[0].tobytes()
        )
        assert one_three.fingerprint() != three_one.fingerprint()

    def test_changed_label_differs(self):
        sets = [np.array([[0.0, 0.0]]), np.array([[1.0, 1.0], [2.0, 2.0]])]
        assert (
            IncompleteDataset(sets, labels=[0, 1]).fingerprint()
            != IncompleteDataset(sets, labels=[1, 1]).fingerprint()
        )
