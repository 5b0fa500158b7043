"""Unit tests for the shared scan-order infrastructure."""

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.scan import compute_scan_order, similarity_matrix
from tests.conftest import random_incomplete_dataset


def row_similarities(dataset, t, kernel=None):
    """Per-row similarity views of one point, split from the stacked row."""
    sims = similarity_matrix(dataset, np.asarray(t)[None, :], kernel)[0]
    return np.split(sims, dataset.stacked_candidates()[4][1:-1])


class TestCandidateSimilarities:
    def test_one_vector_per_row(self):
        rng = np.random.default_rng(0)
        dataset = random_incomplete_dataset(rng)
        sims = row_similarities(dataset, rng.normal(size=dataset.n_features))
        assert len(sims) == dataset.n_rows
        for row, row_sims in enumerate(sims):
            assert row_sims.shape == (dataset.candidates(row).shape[0],)

    def test_matches_kernel_directly(self):
        from repro.core.kernels import NegativeEuclideanKernel

        rng = np.random.default_rng(1)
        dataset = random_incomplete_dataset(rng)
        t = rng.normal(size=dataset.n_features)
        kernel = NegativeEuclideanKernel()
        sims = row_similarities(dataset, t, kernel)
        for row in range(dataset.n_rows):
            expected = kernel.similarities(dataset.candidates(row), t)
            assert np.array_equal(sims[row], expected)


class TestScanOrder:
    def test_covers_every_candidate_once(self):
        rng = np.random.default_rng(2)
        dataset = random_incomplete_dataset(rng)
        scan = compute_scan_order(dataset, rng.normal(size=dataset.n_features))
        pairs = list(zip(scan.rows.tolist(), scan.cands.tolist()))
        assert len(pairs) == sum(dataset.candidate_counts())
        assert len(set(pairs)) == len(pairs)

    def test_similarities_non_decreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dataset = random_incomplete_dataset(rng)
            scan = compute_scan_order(dataset, rng.normal(size=dataset.n_features))
            assert np.all(np.diff(scan.sims) >= 0)

    def test_tie_break_smaller_pair_is_more_similar(self):
        # Three candidates at the exact same distance from t: the scan must
        # place larger (row, cand) pairs first (less similar).
        dataset = IncompleteDataset(
            [np.array([[1.0], [-1.0]]), np.array([[1.0]])], labels=[0, 1]
        )
        scan = compute_scan_order(dataset, np.array([0.0]))
        pairs = list(zip(scan.rows.tolist(), scan.cands.tolist()))
        assert pairs == [(1, 0), (0, 1), (0, 0)]

    def test_metadata_matches_dataset(self):
        rng = np.random.default_rng(4)
        dataset = random_incomplete_dataset(rng)
        scan = compute_scan_order(dataset, rng.normal(size=dataset.n_features))
        assert np.array_equal(scan.row_labels, dataset.labels)
        assert np.array_equal(scan.row_counts, dataset.candidate_counts())
        assert scan.n_rows == dataset.n_rows
        assert scan.n_candidates == int(dataset.candidate_counts().sum())


class TestTiesDoNotBreakEngines:
    def test_heavily_tied_instances_still_exact(self):
        """Integer-grid candidates produce many exact similarity ties; all
        engines must still agree with brute force (the deterministic total
        order resolves every tie consistently)."""
        from repro.core.bruteforce import brute_force_counts
        from repro.core.engine import sortscan_counts
        from repro.core.sortscan_tree import sortscan_counts_tree

        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(3, 6))
            sets = [
                rng.integers(-1, 2, size=(int(rng.integers(1, 4)), 1)).astype(float)
                for _ in range(n)
            ]
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            dataset = IncompleteDataset(sets, labels)
            t = np.array([0.0])
            for k in (1, 2):
                expected = brute_force_counts(dataset, t, k=k)
                assert sortscan_counts(dataset, t, k=k) == expected
                assert sortscan_counts_tree(dataset, t, k=k) == expected

    def test_duplicate_candidates_within_a_row(self):
        """Identical candidate values are legal (they weight the world count)."""
        from repro.core.bruteforce import brute_force_counts
        from repro.core.engine import sortscan_counts

        dataset = IncompleteDataset(
            [np.array([[1.0], [1.0], [3.0]]), np.array([[2.0]])], labels=[0, 1]
        )
        t = np.array([0.0])
        expected = brute_force_counts(dataset, t, k=1)
        assert sortscan_counts(dataset, t, k=1) == expected
        assert sum(expected) == 3
