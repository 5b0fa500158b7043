"""Unit tests for the MM (MinMax) algorithm."""

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_counts
from repro.core.dataset import IncompleteDataset
from repro.core.minmax import (
    extreme_world_similarities,
    minmax_check,
    minmax_checks_all,
    predictable_labels,
)
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
