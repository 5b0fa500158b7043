"""The incomplete-dataset data model (paper §2, Definitions 1-2).

An :class:`IncompleteDataset` is the paper's ``D = {(C_i, y_i)}``: each
training example ``i`` has a finite *candidate set* ``C_i`` of possible
feature vectors and a known class label ``y_i``. A row with a single
candidate is *certain* (clean); a row with several candidates is *uncertain*
(dirty). The cross product of all candidate choices induces the set of
possible worlds (see :mod:`repro.core.worlds`).

Candidate sets are ragged: each row may have a different number of
candidates. The paper's uniform-``M`` setting is the special case in which
every dirty row has exactly ``M`` candidates.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence

import numpy as np

from repro.utils.validation import check_matrix

__all__ = ["IncompleteDataset"]


class IncompleteDataset:
    """An incomplete training set ``D = {(C_i, y_i)}``.

    Parameters
    ----------
    candidate_sets:
        A sequence of ``N`` arrays; entry ``i`` has shape ``(m_i, d)`` and
        lists the candidate feature vectors of row ``i``. ``m_i >= 1``.
    labels:
        Integer class labels of shape ``(N,)``; labels are assumed to be
        ``0 .. n_labels-1`` (use :meth:`from_arrays` helpers upstream to
        encode arbitrary labels).

    Notes
    -----
    Instances are treated as immutable by the query engines; the cleaning
    code derives new datasets via :meth:`with_row_fixed` /
    :meth:`restrict_row` instead of mutating in place.
    """

    def __init__(self, candidate_sets: Sequence[np.ndarray], labels: Sequence[int]) -> None:
        if len(candidate_sets) == 0:
            raise ValueError("an incomplete dataset needs at least one row")
        labels_arr = np.asarray(labels, dtype=np.int64)
        if labels_arr.ndim != 1 or labels_arr.shape[0] != len(candidate_sets):
            raise ValueError(
                f"labels must be a vector of length {len(candidate_sets)}, "
                f"got shape {labels_arr.shape}"
            )
        if labels_arr.min() < 0:
            raise ValueError("labels must be non-negative integers")

        dim = check_matrix(candidate_sets[0], "candidate_sets[0]").shape[1]
        matrices = [np.asarray(cand, dtype=np.float64) for cand in candidate_sets]
        for i, matrix in enumerate(matrices):
            if matrix.ndim != 2 or matrix.shape[1] != dim:
                check_matrix(matrix, f"candidate_sets[{i}]", n_cols=dim)  # raises
            if matrix.shape[0] < 1:
                raise ValueError(f"candidate_sets[{i}] must contain at least one candidate")
        # One copy and one finiteness check for every row: the rows are
        # read-only views into this block, which is also the stacked
        # candidate matrix of :meth:`stacked_candidates`.
        block = np.concatenate(matrices, axis=0)
        if not np.all(np.isfinite(block)):
            bad = next(i for i, m in enumerate(matrices) if not np.all(np.isfinite(m)))
            raise ValueError(f"candidate_sets[{bad}] must be finite (no NaN/inf values)")
        block.setflags(write=False)
        counts = np.array([matrix.shape[0] for matrix in matrices], dtype=np.int64)
        offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
        bounds = offsets.tolist()
        counts.setflags(write=False)
        offsets.setflags(write=False)

        self._candidate_sets = [block[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        self._block = block
        self._counts = counts
        self._offsets = offsets
        self._labels = labels_arr.copy()
        self._labels.setflags(write=False)
        self._dim = dim
        self._fingerprint: str | None = None
        self._stacked: tuple[np.ndarray, ...] | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of training examples ``N``."""
        return len(self._candidate_sets)

    @property
    def n_features(self) -> int:
        """Feature dimensionality ``d``."""
        return self._dim

    @property
    def labels(self) -> np.ndarray:
        """Read-only label vector of shape ``(N,)``."""
        return self._labels

    @property
    def n_labels(self) -> int:
        """Size of the label space ``|Y|`` (``max label + 1``)."""
        return int(self._labels.max()) + 1

    def candidates(self, row: int) -> np.ndarray:
        """The candidate set ``C_row`` as a read-only ``(m_row, d)`` array."""
        return self._candidate_sets[row]

    def candidate_counts(self) -> np.ndarray:
        """Vector of candidate-set sizes ``m_i`` for every row."""
        return self._counts.copy()

    def label_of(self, row: int) -> int:
        """The (certain) label ``y_row``."""
        return int(self._labels[row])

    def is_certain(self, row: int) -> bool:
        """True iff row ``row`` has exactly one candidate."""
        return self._candidate_sets[row].shape[0] == 1

    def uncertain_rows(self) -> list[int]:
        """Indices of rows with more than one candidate (dirty rows)."""
        return [i for i, c in enumerate(self._candidate_sets) if c.shape[0] > 1]

    def certain_rows(self) -> list[int]:
        """Indices of rows with exactly one candidate (clean rows)."""
        return [i for i, c in enumerate(self._candidate_sets) if c.shape[0] == 1]

    @property
    def n_uncertain(self) -> int:
        """Number of dirty rows."""
        return len(self.uncertain_rows())

    def n_worlds(self) -> int:
        """Exact number of possible worlds ``|I_D| = prod_i m_i`` (big int)."""
        return math.prod(int(c.shape[0]) for c in self._candidate_sets)

    def fingerprint(self) -> str:
        """A content hash of the dataset (candidates + labels), hex-encoded.

        Two datasets with identical candidate sets and labels share a
        fingerprint; any change to a candidate value, a candidate-set size
        or a label produces a different one. Instances are immutable, so
        the hash is computed once and cached — the batch engine uses it to
        key its cross-query result cache
        (:class:`repro.core.batch_engine.QueryResultCache`).
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(np.int64(self.n_rows).tobytes())
            digest.update(self._labels.tobytes())
            for candidates in self._candidate_sets:
                digest.update(np.int64(candidates.shape[0]).tobytes())
                digest.update(np.ascontiguousarray(candidates).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def stacked_candidates(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every candidate set flattened into one matrix, with its index arrays.

        Returns ``(stacked, rows, cands, counts, offsets)``: the ``(P, d)``
        matrix of all candidates (rows grouped, candidates in row order),
        each stacked position's row index and candidate index, the
        per-row candidate count ``m_i``, and the ``(N + 1,)`` segment
        boundaries (row ``i`` occupies ``offsets[i]:offsets[i + 1]``). This
        is the one preparation input of every scan: similarities come from
        a single ``kernel.pairwise(stacked, X)`` call. ``stacked`` is the
        block the rows are views of, so it costs no copy; the index arrays
        are built once, cached and read-only.
        """
        if self._stacked is None:
            rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), self._counts)
            cands = np.arange(self._block.shape[0], dtype=np.int64) - self._offsets[rows]
            rows.setflags(write=False)
            cands.setflags(write=False)
            self._stacked = (self._block, rows, cands, self._counts, self._offsets)
        return self._stacked

    def __reduce__(self):
        # Pickles carry the candidate sets and labels only; unpickling
        # re-runs the constructor, which rebuilds the shared block.
        return (type(self), (self._candidate_sets, self._labels))

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"IncompleteDataset(n_rows={self.n_rows}, n_features={self.n_features}, "
            f"n_labels={self.n_labels}, n_uncertain={self.n_uncertain})"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_complete(cls, features: np.ndarray, labels: Sequence[int]) -> "IncompleteDataset":
        """Wrap a complete dataset: every row gets a singleton candidate set."""
        matrix = check_matrix(features, "features")
        return cls([matrix[i : i + 1] for i in range(matrix.shape[0])], labels)

    # ------------------------------------------------------------------
    # Derivation (used by cleaning)
    # ------------------------------------------------------------------
    def with_row_fixed(self, row: int, value: np.ndarray) -> "IncompleteDataset":
        """A copy of the dataset in which row ``row`` is certain with ``value``.

        ``value`` must be one of the row's candidates (the *valid dataset*
        assumption of §2: the true value is always in the candidate set).
        """
        value = np.asarray(value, dtype=np.float64).reshape(-1)
        if value.shape[0] != self._dim:
            raise ValueError(f"value must have {self._dim} features, got {value.shape[0]}")
        if not any(np.array_equal(value, cand) for cand in self._candidate_sets[row]):
            raise ValueError(
                f"value is not among the {self._candidate_sets[row].shape[0]} "
                f"candidates of row {row} (the dataset would become invalid)"
            )
        sets = list(self._candidate_sets)
        sets[row] = value.reshape(1, -1)
        return IncompleteDataset(sets, self._labels)

    def restrict_row(self, row: int, candidate_index: int) -> "IncompleteDataset":
        """A copy with row ``row`` restricted to its ``candidate_index``-th candidate."""
        cands = self._candidate_sets[row]
        if not 0 <= candidate_index < cands.shape[0]:
            raise IndexError(
                f"candidate_index {candidate_index} out of range for row {row} "
                f"with {cands.shape[0]} candidates"
            )
        sets = list(self._candidate_sets)
        sets[row] = cands[candidate_index : candidate_index + 1]
        return IncompleteDataset(sets, self._labels)

    def append_row(self, candidates: np.ndarray, label: int) -> "IncompleteDataset":
        """A copy with a new row appended (candidate set + certain label).

        The row lands at index ``n_rows``; existing indices are unchanged.
        Used by :class:`repro.core.deltas.RowAppend`.
        """
        matrix = check_matrix(candidates, "candidates", n_cols=self._dim)
        if matrix.shape[0] < 1:
            raise ValueError("an appended row needs at least one candidate")
        label = int(label)
        if label < 0:
            raise ValueError(f"labels must be non-negative integers, got {label}")
        sets = list(self._candidate_sets) + [matrix]
        labels = np.append(self._labels, np.int64(label))
        return IncompleteDataset(sets, labels)

    def delete_row(self, row: int) -> "IncompleteDataset":
        """A copy with row ``row`` removed (later rows shift down by one).

        Used by :class:`repro.core.deltas.RowDelete`.
        """
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range for {self.n_rows} rows")
        if self.n_rows == 1:
            raise ValueError("cannot delete the last row of a dataset")
        sets = [c for i, c in enumerate(self._candidate_sets) if i != row]
        labels = np.delete(self._labels, row)
        return IncompleteDataset(sets, labels)

    def world(self, choice: Sequence[int]) -> np.ndarray:
        """Materialise the possible world selecting ``choice[i]`` from ``C_i``.

        Returns the ``(N, d)`` feature matrix of the world; labels are shared
        across worlds and available via :attr:`labels`.
        """
        if len(choice) != self.n_rows:
            raise ValueError(f"choice must have length {self.n_rows}, got {len(choice)}")
        rows = []
        for i, j in enumerate(choice):
            cands = self._candidate_sets[i]
            if not 0 <= j < cands.shape[0]:
                raise IndexError(f"choice[{i}]={j} out of range (row has {cands.shape[0]} candidates)")
            rows.append(cands[j])
        return np.stack(rows, axis=0)
