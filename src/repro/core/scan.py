"""Shared similarity/scan-order infrastructure for the SS-family algorithms.

Every SortScan variant starts the same way: compute the similarity of all
candidates to the test example and sort them in increasing similarity (paper
§3.1, "sort and scan"). This module computes that structure once so the
faithful Algorithm-1 implementation, the fast incremental engine, the SS-DC
tree and the CPClean entropy engine all share a single, consistent total
order.

There is one preparation path: similarities always come from
``kernel.pairwise`` over the dataset's cached stacked candidate matrix
(:meth:`~repro.core.dataset.IncompleteDataset.stacked_candidates`), whether
for one test point or a whole test matrix, and :func:`scan_from_sims` sorts
a candidate-order similarity row into a :class:`ScanOrder`. The kernel runs
over bounded candidate blocks (:func:`similarity_blocks`, at most
:data:`SIMILARITY_BLOCK_ELEMENTS` broadcast elements each), so a large
test matrix never materialises a ``T × P × d`` temporary; the kernels
reduce every candidate on its own, so blocking never changes a bit.

The total order extends the tie-break of :mod:`repro.core.knn`: candidates
are ranked by ``(similarity, row index desc, candidate index desc)`` in scan
(ascending) direction, so that among equal similarities the candidate with
the *smaller* ``(row, candidate)`` pair counts as *more* similar — the
paper's "break a tie by favoring a smaller i and j".
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel, resolve_kernel
from repro.utils.validation import check_matrix, check_vector

__all__ = [
    "SIMILARITY_BLOCK_ELEMENTS",
    "ScanOrder",
    "compute_scan_order",
    "compute_scan_orders",
    "scan_from_sims",
    "similarity_blocks",
    "similarity_matrix",
    "sorted_scan",
]

#: Upper bound on the ``T × C × d`` elements one ``kernel.pairwise`` block
#: broadcasts (``T`` test points, ``C`` candidates, ``d`` features).
SIMILARITY_BLOCK_ELEMENTS = 2**20


@dataclass(frozen=True)
class ScanOrder:
    """All candidates of a dataset sorted by increasing similarity to ``t``.

    Attributes
    ----------
    rows:
        Row index of each candidate, in scan order (``(P,)`` where ``P`` is
        the total number of candidates).
    cands:
        Candidate index *within its row* of each candidate, in scan order.
    sims:
        Similarity values in scan order (non-decreasing).
    row_labels:
        Label of each dataset row (``(N,)``), cached here for the engines.
    row_counts:
        Candidate-set size ``m_i`` per row (``(N,)``).
    """

    rows: np.ndarray
    cands: np.ndarray
    sims: np.ndarray
    row_labels: np.ndarray
    row_counts: np.ndarray

    @property
    def n_candidates(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_rows(self) -> int:
        return int(self.row_counts.shape[0])


def scan_from_sims(dataset: IncompleteDataset, sims: np.ndarray) -> ScanOrder:
    """Sort one candidate-order similarity row of ``dataset`` into a scan."""
    _, rows, cands, counts, _ = dataset.stacked_candidates()
    return sorted_scan(sims, rows, cands, dataset.labels, counts)


def sorted_scan(
    sims: np.ndarray,
    rows: np.ndarray,
    cands: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
) -> ScanOrder:
    """The scan of candidate positions given as parallel arrays.

    Ascending similarity; among ties the larger (row, cand) pair comes
    first so the smaller pair is treated as more similar (it sits later in
    the scan). lexsort uses the last key as the primary key. The order is
    total, so sorting any subset of positions yields the subsequence of
    the full scan — what the pruning and delta layers rely on.
    """
    order = np.lexsort((-cands, -rows, sims))
    return ScanOrder(
        rows=rows[order],
        cands=cands[order],
        sims=sims[order],
        row_labels=labels,
        row_counts=counts,
    )


def similarity_blocks(
    dataset: IncompleteDataset, test_X: np.ndarray, kernel: Kernel | str | None = None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(c0, c1, block)`` per bounded candidate block of ``test_X``'s similarities.

    ``block`` is ``kernel.pairwise`` over stacked candidates ``[c0, c1)``,
    shape ``(T, c1 - c0)``. Each block covers as many candidates ``C`` as
    keep ``T × C × d`` within :data:`SIMILARITY_BLOCK_ELEMENTS` (at least
    one); the spans partition the stacked order, whatever the row segments.
    """
    kernel = resolve_kernel(kernel)
    test_X = np.asarray(test_X, dtype=np.float64)  # pairwise validates it
    stacked = dataset.stacked_candidates()[0]
    n_candidates = stacked.shape[0]
    step = max(1, SIMILARITY_BLOCK_ELEMENTS // max(1, test_X.size))
    for c0 in range(0, n_candidates, step):
        c1 = min(c0 + step, n_candidates)
        yield c0, c1, kernel.pairwise(stacked[c0:c1], test_X)


def similarity_matrix(
    dataset: IncompleteDataset, test_X: np.ndarray, kernel: Kernel | str | None = None
) -> np.ndarray:
    """The ``(T, P)`` candidate-order similarity matrix of ``test_X``.

    Filled block by block from :func:`similarity_blocks` into one
    preallocated array — bit-identical to one dense ``pairwise`` call.
    """
    test_X = check_matrix(test_X, "test_X", n_cols=dataset.n_features)
    out = np.empty((test_X.shape[0], int(dataset.stacked_candidates()[4][-1])))
    for c0, c1, block in similarity_blocks(dataset, test_X, kernel):
        out[:, c0:c1] = block
    return out


def compute_scan_order(
    dataset: IncompleteDataset, t: np.ndarray, kernel: Kernel | str | None = None
) -> ScanOrder:
    """Sort all candidates of ``dataset`` by increasing similarity to ``t``.

    Cost is ``O(N M log(N M))`` — the sort term in the paper's complexity
    analysis of SS.
    """
    t = check_vector(t, "t", length=dataset.n_features)
    return scan_from_sims(dataset, similarity_matrix(dataset, t[None, :], kernel)[0])


def compute_scan_orders(
    dataset: IncompleteDataset,
    test_X: np.ndarray,
    kernel: Kernel | str | None = None,
) -> list[ScanOrder]:
    """Scan orders for a whole test matrix from one similarity computation.

    The same :class:`ScanOrder` per point as :func:`compute_scan_order`.
    """
    return [scan_from_sims(dataset, row) for row in similarity_matrix(dataset, test_X, kernel)]
