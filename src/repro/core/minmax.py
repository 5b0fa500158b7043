"""MM (MinMax) — the paper's Algorithm 2 for the checking query Q1.

For binary classification, whether *some* possible world predicts label ``l``
can be decided by examining a single greedily constructed world, the
*l-extreme world* ``E_l``: every row with label ``l`` picks its candidate
**most** similar to the test example, every other row picks its candidate
**least** similar. Lemma B.2 shows ``E_l`` predicts ``l`` iff some world
does, so

    ``Q1(D, t, l)  <=>  E_l predicts l  and  no E_{l'} (l' != l) predicts l'``.

The construction costs ``O(N M)`` and the KNN evaluations ``O(N log K)`` —
the row labelled "MM" in the paper's Figure 4.

The correctness proof only holds for ``|Y| = 2`` (a third label can slip into
the top-K when a non-``l`` row is pushed down); by default this module
refuses multi-class datasets. ``allow_multiclass=True`` exposes the
construction anyway for experimentation (it is then only a *necessary*
condition, not sufficient), mirroring the discussion in Appendix B.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel
from repro.core.knn import majority_label, top_k_rows
from repro.core.scan import similarity_matrix
from repro.utils.validation import check_positive_int, check_vector

__all__ = [
    "minmax_check",
    "minmax_checks_all",
    "extreme_world_similarities",
    "extreme_winners",
    "predictable_labels",
    "row_extremes",
]


def row_extremes(
    sims: np.ndarray, offsets: np.ndarray, fixed: Mapping[int, int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(min, max)`` candidate similarity of candidate-order rows.

    ``sims`` is one similarity row ``(P,)`` or a matrix ``(T, P)`` of them;
    the result has shape ``(N,)`` or ``(T, N)``. ``offsets`` are the row
    segment boundaries of
    :meth:`~repro.core.dataset.IncompleteDataset.stacked_candidates`; a
    pinned row's interval collapses to its pinned candidate's similarity.
    """
    starts = offsets[:-1]
    mins = np.minimum.reduceat(sims, starts, axis=-1)
    maxs = np.maximum.reduceat(sims, starts, axis=-1)
    for row, cand in (fixed or {}).items():
        m_row = int(offsets[row + 1] - offsets[row])
        if not 0 <= cand < m_row:
            raise IndexError(
                f"fixed candidate {cand} out of range for row {row} "
                f"with {m_row} candidates"
            )
        mins[..., row] = maxs[..., row] = sims[..., int(offsets[row]) + cand]
    return mins, maxs


def extreme_world_similarities(
    mins: np.ndarray, maxs: np.ndarray, labels: np.ndarray, target_label: int
) -> np.ndarray:
    """Row similarities of the ``target_label``-extreme world (Eq. B.1).

    Rather than materialising the world's feature vectors, the KNN decision
    only needs each row's similarity: the max over candidates for rows with
    the target label, the min for all other rows.
    """
    return np.where(labels == target_label, maxs, mins)


def extreme_winners(
    mins: np.ndarray, maxs: np.ndarray, labels: np.ndarray, k: int, n_labels: int
) -> list[int]:
    """Labels ``l`` whose l-extreme world predicts ``l`` — every MinMax check."""
    winners = []
    for target in range(n_labels):
        top = top_k_rows(extreme_world_similarities(mins, maxs, labels, target), k)
        if majority_label(labels[top], tally_size=n_labels) == target:
            winners.append(target)
    return winners


def predictable_labels(
    dataset: IncompleteDataset,
    t: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
    allow_multiclass: bool = False,
) -> list[int]:
    """Labels ``l`` whose l-extreme world predicts ``l``.

    For binary datasets this is exactly the set of labels some possible
    world predicts (Lemma B.2).
    """
    k = check_positive_int(k, "k")
    if k > dataset.n_rows:
        raise ValueError(f"k={k} exceeds the number of training rows {dataset.n_rows}")
    n_labels = dataset.n_labels
    if n_labels > 2 and not allow_multiclass:
        raise ValueError(
            "the MM algorithm is only proven correct for binary classification "
            "(|Y| = 2); use the SS counting engine for multi-class Q1, or pass "
            "allow_multiclass=True to use MM as a heuristic"
        )
    t = check_vector(t, "t", length=dataset.n_features)
    sims = similarity_matrix(dataset, t[None, :], kernel)[0]
    mins, maxs = row_extremes(sims, dataset.stacked_candidates()[4])
    return extreme_winners(mins, maxs, dataset.labels, k, n_labels)


def minmax_check(
    dataset: IncompleteDataset,
    t: np.ndarray,
    label: int,
    k: int = 3,
    kernel: Kernel | str | None = None,
) -> bool:
    """``Q1(D, t, label)`` via MM: true iff every world predicts ``label``."""
    if not 0 <= label < dataset.n_labels:
        raise ValueError(f"label {label} outside the label space of size {dataset.n_labels}")
    return predictable_labels(dataset, t, k=k, kernel=kernel) == [label]


def minmax_checks_all(
    dataset: IncompleteDataset,
    t: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
) -> list[bool]:
    """The Boolean vector ``r`` of Algorithm 2: ``r[y] = Q1(D, t, y)``.

    At most one entry can be true; all entries are false iff the test point
    cannot be certainly predicted.
    """
    winners = predictable_labels(dataset, t, k=k, kernel=kernel)
    result = [False] * dataset.n_labels
    if len(winners) == 1:
        result[winners[0]] = True
    return result
