"""Unit tests for the similarity kernels."""

import numpy as np
import pytest

from repro.core.kernels import (
    CosineKernel,
    LinearKernel,
    NegativeEuclideanKernel,
    RBFKernel,
    resolve_kernel,
)


class TestNegativeEuclidean:
    def test_zero_distance_is_max_similarity(self):
        kernel = NegativeEuclideanKernel()
        assert kernel(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_monotone_in_distance(self):
        kernel = NegativeEuclideanKernel()
        t = np.zeros(2)
        near = kernel(np.array([1.0, 0.0]), t)
        far = kernel(np.array([5.0, 0.0]), t)
        assert near > far

    def test_matches_numpy_norm(self):
        kernel = NegativeEuclideanKernel()
        rng = np.random.default_rng(0)
        x, t = rng.normal(size=3), rng.normal(size=3)
        assert kernel(x, t) == pytest.approx(-np.linalg.norm(x - t))

    def test_vectorised_matches_scalar(self):
        kernel = NegativeEuclideanKernel()
        rng = np.random.default_rng(1)
        candidates, t = rng.normal(size=(5, 3)), rng.normal(size=3)
        sims = kernel.similarities(candidates, t)
        for i in range(5):
            assert sims[i] == pytest.approx(kernel(candidates[i], t))


class TestRBF:
    def test_self_similarity_is_one(self):
        kernel = RBFKernel(gamma=0.5)
        assert kernel(np.ones(2), np.ones(2)) == pytest.approx(1.0)

    def test_bounded_in_unit_interval(self):
        kernel = RBFKernel(gamma=2.0)
        rng = np.random.default_rng(2)
        sims = kernel.similarities(rng.normal(size=(20, 3)), rng.normal(size=3))
        assert np.all(sims > 0) and np.all(sims <= 1)

    def test_same_ranking_as_euclidean(self):
        rng = np.random.default_rng(3)
        candidates, t = rng.normal(size=(10, 3)), rng.normal(size=3)
        rbf = RBFKernel(gamma=1.3).similarities(candidates, t)
        euc = NegativeEuclideanKernel().similarities(candidates, t)
        assert np.array_equal(np.argsort(rbf), np.argsort(euc))

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            RBFKernel(gamma=0.0)


class TestLinearAndCosine:
    def test_linear_is_dot_product(self):
        kernel = LinearKernel()
        assert kernel(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(11.0)

    def test_cosine_is_scale_invariant(self):
        kernel = CosineKernel()
        x, t = np.array([1.0, 2.0]), np.array([2.0, 1.0])
        assert kernel(x, t) == pytest.approx(kernel(10.0 * x, t))

    def test_cosine_zero_vector_guard(self):
        kernel = CosineKernel()
        assert kernel(np.zeros(2), np.array([1.0, 0.0])) == 0.0


class TestResolver:
    def test_default_is_negative_euclidean(self):
        assert isinstance(resolve_kernel(None), NegativeEuclideanKernel)

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("euclidean", NegativeEuclideanKernel),
            ("rbf", RBFKernel),
            ("linear", LinearKernel),
            ("cosine", CosineKernel),
        ],
    )
    def test_resolve_by_name(self, name, cls):
        assert isinstance(resolve_kernel(name), cls)

    def test_passthrough_instance(self):
        kernel = RBFKernel(gamma=9.0)
        assert resolve_kernel(kernel) is kernel

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("chebyshev")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            resolve_kernel(42)


class TestPositionIndependence:
    """A candidate's similarity must not depend on where it sits.

    Imputed candidate sets repeat the same vector across rows; if a kernel
    gave a repeated vector different bits at different matrix positions,
    per-row and stacked preparation would sort ties differently and the
    backends would return different exact counts.
    """

    @pytest.mark.parametrize(
        "kernel",
        [NegativeEuclideanKernel(), RBFKernel(0.5), LinearKernel(), CosineKernel()],
        ids=repr,
    )
    def test_repeated_vector_gets_identical_similarities(self, kernel):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            d = int(rng.integers(2, 40))
            candidates = rng.normal(size=(int(rng.integers(8, 80)), d))
            vector = rng.normal(size=d)
            positions = rng.choice(candidates.shape[0], size=5, replace=False)
            candidates[positions] = vector
            test_X = rng.normal(size=(3, d))
            pairwise = kernel.pairwise(candidates, test_X)
            for i, t in enumerate(test_X):
                alone = kernel.similarities(vector[None, :], t)[0]
                row = kernel.similarities(candidates, t)
                assert np.all(row[positions] == alone)
                assert np.all(pairwise[i, positions] == alone)
                assert np.array_equal(pairwise[i], row)
