"""Similarity kernels ``kappa(x, t)`` for the KNN substrate (paper §3, Fig. 5).

The paper's KNN classifier ranks training examples by *similarity* to the
test example: larger is closer. The evaluation uses Euclidean distance, which
we expose as :class:`NegativeEuclideanKernel` (similarity = ``-distance`` so
that "top-K largest similarity" matches "K nearest neighbours"). RBF, linear
(dot-product) and cosine kernels are provided as the other textbook choices
the paper mentions.

Every kernel implements ``similarities(candidates, t)`` mapping a ``(m, d)``
candidate matrix to an ``(m,)`` similarity vector; ``__call__`` on a pair of
single vectors is provided for convenience. For batch workloads
(:mod:`repro.core.batch_engine`) kernels also expose
``pairwise(candidates, test_X)`` which computes the whole ``(T, m)``
similarity matrix in one vectorised call; the built-in kernels override it
with broadcasting implementations.

Every built-in kernel reduces each candidate row on its own (``einsum`` over
the feature axis, never a BLAS matrix product), so a candidate's similarity
depends only on its own values — not on which other candidates share the
call or where it sits in the matrix. That is what makes a similarity row
taken from the stacked candidate matrix bit-identical to one computed for a
single row's candidate set, and scan orders identical across backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.validation import check_matrix, check_vector

__all__ = [
    "Kernel",
    "NegativeEuclideanKernel",
    "RBFKernel",
    "LinearKernel",
    "CosineKernel",
    "resolve_kernel",
]


class Kernel(ABC):
    """A similarity function; larger values mean "more similar"."""

    @abstractmethod
    def similarities(self, candidates: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Similarity of each row of ``candidates`` (``(m, d)``) to ``t`` (``(d,)``)."""

    def pairwise(self, candidates: np.ndarray, test_X: np.ndarray) -> np.ndarray:
        """Similarity matrix of shape ``(T, m)`` for a whole test set at once.

        Entry ``[i, j]`` equals ``similarities(candidates, test_X[i])[j]``.
        The default loops over test points; concrete kernels override it
        with a single broadcast computation.
        """
        candidates = check_matrix(candidates, "candidates")
        test_X = check_matrix(test_X, "test_X", n_cols=candidates.shape[1])
        if test_X.shape[0] == 0:
            return np.empty((0, candidates.shape[0]), dtype=np.float64)
        return np.stack([self.similarities(candidates, t) for t in test_X], axis=0)

    def __call__(self, x: np.ndarray, t: np.ndarray) -> float:
        x = check_vector(x, "x")
        return float(self.similarities(x.reshape(1, -1), t)[0])


class NegativeEuclideanKernel(Kernel):
    """``kappa(x, t) = -||x - t||_2`` — the paper's evaluation kernel."""

    def similarities(self, candidates: np.ndarray, t: np.ndarray) -> np.ndarray:
        candidates = check_matrix(candidates, "candidates")
        t = check_vector(t, "t", length=candidates.shape[1])
        diff = candidates - t[None, :]
        return -np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def pairwise(self, candidates: np.ndarray, test_X: np.ndarray) -> np.ndarray:
        candidates = check_matrix(candidates, "candidates")
        test_X = check_matrix(test_X, "test_X", n_cols=candidates.shape[1])
        diff = candidates[None, :, :] - test_X[:, None, :]
        return -np.sqrt(np.einsum("tij,tij->ti", diff, diff))

    def __repr__(self) -> str:
        return "NegativeEuclideanKernel()"


class RBFKernel(Kernel):
    """``kappa(x, t) = exp(-gamma * ||x - t||^2)`` (Gaussian kernel)."""

    def __init__(self, gamma: float = 1.0) -> None:
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)

    def similarities(self, candidates: np.ndarray, t: np.ndarray) -> np.ndarray:
        candidates = check_matrix(candidates, "candidates")
        t = check_vector(t, "t", length=candidates.shape[1])
        diff = candidates - t[None, :]
        return np.exp(-self.gamma * np.einsum("ij,ij->i", diff, diff))

    def pairwise(self, candidates: np.ndarray, test_X: np.ndarray) -> np.ndarray:
        candidates = check_matrix(candidates, "candidates")
        test_X = check_matrix(test_X, "test_X", n_cols=candidates.shape[1])
        diff = candidates[None, :, :] - test_X[:, None, :]
        return np.exp(-self.gamma * np.einsum("tij,tij->ti", diff, diff))

    def __repr__(self) -> str:
        return f"RBFKernel(gamma={self.gamma})"


class LinearKernel(Kernel):
    """``kappa(x, t) = <x, t>`` (dot product)."""

    def similarities(self, candidates: np.ndarray, t: np.ndarray) -> np.ndarray:
        candidates = check_matrix(candidates, "candidates")
        t = check_vector(t, "t", length=candidates.shape[1])
        # A per-row reduction, not ``candidates @ t``: BLAS may reduce a row
        # differently depending on where it sits in the matrix.
        return np.einsum("ij,j->i", candidates, t)

    def __repr__(self) -> str:
        return "LinearKernel()"


class CosineKernel(Kernel):
    """``kappa(x, t) = <x, t> / (||x|| * ||t||)`` with zero-vector guard."""

    def similarities(self, candidates: np.ndarray, t: np.ndarray) -> np.ndarray:
        candidates = check_matrix(candidates, "candidates")
        t = check_vector(t, "t", length=candidates.shape[1])
        t_norm = np.linalg.norm(t)
        cand_norms = np.linalg.norm(candidates, axis=1)
        denom = cand_norms * t_norm
        # A zero vector is equally dissimilar to everything.
        safe = np.where(denom > 0.0, denom, 1.0)
        sims = np.einsum("ij,j->i", candidates, t) / safe
        return np.where(denom > 0.0, sims, 0.0)

    def __repr__(self) -> str:
        return "CosineKernel()"


_KERNELS_BY_NAME = {
    "euclidean": NegativeEuclideanKernel,
    "rbf": RBFKernel,
    "linear": LinearKernel,
    "cosine": CosineKernel,
}


def resolve_kernel(kernel: Kernel | str | None) -> Kernel:
    """Accept a :class:`Kernel`, a name, or ``None`` (paper default kernel)."""
    if kernel is None:
        return NegativeEuclideanKernel()
    if isinstance(kernel, Kernel):
        return kernel
    if isinstance(kernel, str):
        try:
            return _KERNELS_BY_NAME[kernel]()
        except KeyError:
            raise ValueError(
                f"unknown kernel {kernel!r}; available: {sorted(_KERNELS_BY_NAME)}"
            ) from None
    raise TypeError(f"kernel must be a Kernel, str or None, got {type(kernel).__name__}")
