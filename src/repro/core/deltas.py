"""Delta maintenance of CP state: O(Δ) updates instead of full recompute.

The paper's cleaning loop is inherently incremental — every repaired cell
*restricts* a candidate set — and live serving adds two more write shapes:
appending freshly labelled rows and retiring rows. This module defines the
three deltas and a maintained state that absorbs them without re-running
the kernel or re-counting every validation point:

* :class:`CellRepair` — restrict a row to one of its candidates (the
  physical form of a cleaning pin);
* :class:`RowAppend` — add a new (candidate set, label) training row;
* :class:`RowDelete` — remove a training row.

The maintenance rule is the domination rule of :mod:`repro.core.pruning`,
applied to all three delta kinds via a *provenance* annotation. For every
test point the state knows its **support set**: the rows whose candidate
choice can possibly change the point's prediction (a row is outside the
support set iff at least ``k`` other rows have a guaranteed minimum
similarity strictly above the row's best possible similarity — then the
top-K is filled without it in every world). Each maintained Q2 count
vector is thereby annotated with the rows it truly depends on, and a delta
touching row ``r`` splits the points into:

* points with ``r`` **outside** the support set — the count vector
  transforms by an exact big-integer scalar (divide by ``m_r`` for a
  repair or delete, multiply by ``m_new`` for an append); the certain
  label is untouched;
* points with ``r`` **inside** the support set — recounted with one scan
  each, from maintained similarities (no kernel work).

Similarities are maintained per row as ``(n_points, m_row)`` blocks, split
from one ``pairwise`` call over the dataset's stacked candidates. The
built-in kernels reduce each candidate row on its own, whatever other
candidates share the call (see :mod:`repro.core.kernels`), so a block
computed for an appended row alone is bit-identical to the corresponding
slice of a from-scratch pairwise over the whole stacked candidate matrix —
which is what makes every
maintained count provably equal to a full recompute
(``tests/fuzz/test_update_sequences.py`` holds the state to that standard
over random delta interleavings).

:meth:`DeltaMaintainedState.prepared_batch` reassembles a
:class:`~repro.core.batch_engine.PreparedBatch` from the maintained blocks
— a concatenation, not a kernel call — which is how
:class:`repro.service.registry.DatasetEntry` keeps warm prepared state
across ``PATCH`` traffic and how
:meth:`repro.cleaning.sequential.CleaningSession.apply_repair` turns a
hypothetical pin into a physical repair without re-preparing. The
planner's ``incremental`` backend keeps one state per query family and
applies every new pin as a :class:`CellRepair` — a pinned row has one
candidate, so restricting it cannot change any tie-break.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.batch_engine import PreparedBatch
from repro.core.dataset import IncompleteDataset
from repro.core.engine import counts_from_scan
from repro.core.entropy import certain_label_from_counts
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.minmax import row_extremes
from repro.core.pruning import (
    accumulate_prune_stats,
    dominated_mask,
    empty_prune_stats,
    prune_mask,
    pruned_counts_from_sims,
)
from repro.core.scan import scan_from_sims, similarity_matrix
from repro.utils.validation import check_matrix, check_positive_int

__all__ = [
    "CellRepair",
    "RowAppend",
    "RowDelete",
    "Delta",
    "apply_delta_to_dataset",
    "DeltaMaintainedState",
]


# ---------------------------------------------------------------------------
# The delta vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellRepair:
    """Restrict ``row`` to its ``candidate``-th value (a physical repair)."""

    row: int
    candidate: int


@dataclass(frozen=True, eq=False)
class RowAppend:
    """Append a new training row with candidate set ``candidates`` / ``label``."""

    candidates: np.ndarray
    label: int


@dataclass(frozen=True)
class RowDelete:
    """Remove training row ``row`` (later rows shift down by one)."""

    row: int


Delta = CellRepair | RowAppend | RowDelete


def apply_delta_to_dataset(dataset: IncompleteDataset, delta: Delta) -> IncompleteDataset:
    """The pure dataset-level effect of one delta (no maintained state)."""
    if isinstance(delta, CellRepair):
        return dataset.restrict_row(delta.row, delta.candidate)
    if isinstance(delta, RowAppend):
        return dataset.append_row(delta.candidates, delta.label)
    if isinstance(delta, RowDelete):
        return dataset.delete_row(delta.row)
    raise TypeError(f"unknown delta type {type(delta).__name__}")


def _exact_scale(counts: list[int], numer: int, denom: int) -> list[int]:
    """``counts * numer / denom`` with the division proven exact."""
    if denom == 1:
        return [c * numer for c in counts]
    scaled = [c * numer // denom for c in counts]
    if [c * denom for c in scaled] != [c * numer for c in counts]:
        raise AssertionError(
            f"internal error: pruned counts not divisible by {denom}"
        )
    return scaled


# ---------------------------------------------------------------------------
# The maintained state
# ---------------------------------------------------------------------------


class DeltaMaintainedState:
    """Exact Q2 counts for many test points, maintained across deltas.

    Parameters
    ----------
    dataset:
        The incomplete training set. Deltas derive new (immutable)
        datasets; :attr:`dataset` always names the current version.
    test_points:
        The points whose counts are maintained, shape ``(n_points, d)``.
    k, kernel:
        KNN parameters, as for :func:`repro.core.queries.q2_counts`.
    sims_matrix:
        Optional precomputed ``(n_points, total_candidates)`` similarity
        matrix (e.g. from an existing
        :class:`~repro.core.batch_engine.PreparedBatch`) to skip the
        initial kernel call. Must describe exactly ``(dataset,
        test_points, kernel)``.
    prune:
        With ``True`` every recount runs through the certificate pruning
        pass of :mod:`repro.core.pruning` (the same pass every backend
        uses), so only the kept rows reach the counting kernel. Counts stay
        bit-identical (:meth:`verify` still passes) and ``prune_stats``
        accumulates the telemetry.
    """

    def __init__(
        self,
        dataset: IncompleteDataset,
        test_points: Sequence[np.ndarray] | np.ndarray,
        k: int = 3,
        kernel: Kernel | str | None = None,
        *,
        sims_matrix: np.ndarray | None = None,
        prune: bool = False,
    ) -> None:
        self.k = check_positive_int(k, "k")
        if self.k > dataset.n_rows:
            raise ValueError(
                f"k={self.k} exceeds the number of training rows {dataset.n_rows}"
            )
        self.dataset = dataset
        self.kernel = resolve_kernel(kernel)
        points = np.asarray(test_points, dtype=np.float64)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.ndim != 2 or points.shape[1] != dataset.n_features:
            raise ValueError(
                f"test_points must have shape (n_points, {dataset.n_features}), "
                f"got {points.shape}"
            )
        self._points = points
        offsets = dataset.stacked_candidates()[4]
        if sims_matrix is None:
            sims_matrix = similarity_matrix(dataset, points, self.kernel)
        else:
            sims_matrix = np.asarray(sims_matrix, dtype=np.float64)
            expected = (points.shape[0], int(offsets[-1]))
            if sims_matrix.shape != expected:
                raise ValueError(
                    f"sims_matrix must have shape {expected}, got {sims_matrix.shape}"
                )
        # Per-row (n_points, m_row) similarity blocks — the maintained form.
        self._row_sims: list[np.ndarray] = [
            block.copy() for block in np.split(sims_matrix, offsets[1:-1], axis=1)
        ]
        self._mins, self._maxs = row_extremes(sims_matrix, offsets)
        self.prune = bool(prune)
        self.prune_stats = empty_prune_stats()
        self._counts: list[list[int]] = [
            self._recount(point, sims_matrix[point]) for point in range(self.n_points)
        ]
        self.version = 0
        self.n_pruned = 0
        self.n_recomputed = 0

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Number of maintained test points."""
        return int(self._points.shape[0])

    @property
    def test_points(self) -> np.ndarray:
        """The maintained test matrix (``(n_points, d)``)."""
        return self._points

    def counts(self, point: int) -> list[int]:
        """Current Q2 counts of test point ``point``."""
        return list(self._counts[point])

    def counts_all(self) -> list[list[int]]:
        """Current Q2 counts of every maintained point (copies, point order)."""
        return [list(c) for c in self._counts]

    def certain_label(self, point: int) -> int | None:
        """The CP'ed label of point ``point``, or ``None``."""
        return certain_label_from_counts(self._counts[point])

    def certain_labels(self) -> list[int | None]:
        """CP'ed label per point (``None`` where not certain)."""
        return [certain_label_from_counts(c) for c in self._counts]

    def provenance(self, point: int) -> frozenset[int]:
        """The support set of ``point``: rows its counts truly depend on.

        A delta touching a row *outside* this set transforms the point's
        counts by an exact scalar and cannot change its certain label —
        the annotation the surgical invalidation in
        :mod:`repro.service.registry` keys on.
        """
        relevant = ~prune_mask(self._mins[point], self._maxs[point], self.k)
        return frozenset(int(r) for r in np.nonzero(relevant)[0])

    def _irrelevant_mask(self, row: int) -> np.ndarray:
        """Per-point: is ``row`` outside the support set? (``(n_points,)``)"""
        return dominated_mask(self._mins, self._maxs[:, row], self.k)

    # ------------------------------------------------------------------
    # Counting from maintained similarities
    # ------------------------------------------------------------------
    def _recount(self, point: int, sims: np.ndarray | None = None) -> list[int]:
        """One fresh count for ``point`` from its similarity row.

        ``sims`` is the point's candidate-order row (reassembled from the
        maintained blocks when not given). With :attr:`prune` on the count
        runs through the certificate pass of :mod:`repro.core.pruning`;
        either way it is the production kernel on the same scan a full
        recompute would build.
        """
        if sims is None:
            sims = np.concatenate([block[point] for block in self._row_sims])
        n_labels = self.dataset.n_labels
        if not self.prune:
            return counts_from_scan(scan_from_sims(self.dataset, sims), self.k, n_labels)
        counts, stats = pruned_counts_from_sims(self.dataset, sims, self.k, n_labels)
        accumulate_prune_stats(self.prune_stats, stats)
        return counts

    def _resize_labels(
        self, counts: list[int], new_n_labels: int, point: int
    ) -> list[int]:
        """Adjust a pruned count vector when a delta changes the label space.

        Appends extend with zero-count labels; deletes drop trailing labels
        that (provably, for a pruned point) never won a world.
        """
        if new_n_labels > len(counts):
            return counts + [0] * (new_n_labels - len(counts))
        if new_n_labels < len(counts):
            if any(counts[new_n_labels:]):
                raise AssertionError(
                    f"internal error: dropped label has non-zero count at "
                    f"point {point}: {counts}"
                )
            return counts[:new_n_labels]
        return counts

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def apply(self, delta: Delta) -> dict:
        """Apply one delta; returns a report of what the update touched.

        The report maps ``op`` (delta kind), ``row``, ``version`` (the
        state's version after the delta), ``n_pruned`` / ``n_recomputed``
        (points handled by the scalar rule vs recounted this delta) and
        ``touched_points`` (the recounted point indices — exactly the
        points whose provenance contained the touched row).
        """
        if isinstance(delta, CellRepair):
            report = self._apply_repair(delta.row, delta.candidate)
        elif isinstance(delta, RowAppend):
            report = self._apply_append(delta.candidates, delta.label)
        elif isinstance(delta, RowDelete):
            report = self._apply_delete(delta.row)
        else:
            raise TypeError(f"unknown delta type {type(delta).__name__}")
        self.version += 1
        report["version"] = self.version
        return report

    def apply_many(self, deltas: Sequence[Delta]) -> list[dict]:
        """Apply several deltas in order; one report per delta."""
        return [self.apply(delta) for delta in deltas]

    def _apply_repair(self, row: int, candidate: int) -> dict:
        if not 0 <= row < self.dataset.n_rows:
            raise IndexError(f"row {row} out of range for {self.dataset.n_rows} rows")
        m_row = self._row_sims[row].shape[1]
        if not 0 <= candidate < m_row:
            raise IndexError(
                f"candidate {candidate} out of range for row {row} "
                f"with {m_row} candidates"
            )
        irrelevant = self._irrelevant_mask(row)
        self.dataset = self.dataset.restrict_row(row, candidate)
        pinned = self._row_sims[row][:, candidate].copy()
        self._row_sims[row] = pinned.reshape(-1, 1)
        self._mins[:, row] = pinned
        self._maxs[:, row] = pinned
        touched: list[int] = []
        for point in range(self.n_points):
            if m_row == 1 or irrelevant[point]:
                self._counts[point] = _exact_scale(self._counts[point], 1, m_row)
                self.n_pruned += 1
            else:
                self._counts[point] = self._recount(point)
                touched.append(point)
                self.n_recomputed += 1
        return {
            "op": "cell_repair",
            "row": row,
            "n_pruned": self.n_points - len(touched),
            "n_recomputed": len(touched),
            "touched_points": touched,
        }

    def _apply_append(self, candidates: np.ndarray, label: int) -> dict:
        candidates = check_matrix(
            candidates, "candidates", n_cols=self.dataset.n_features
        )
        self.dataset = self.dataset.append_row(candidates, label)
        new_n_labels = self.dataset.n_labels
        m_new = candidates.shape[0]
        block = self.kernel.pairwise(candidates, self._points)
        new_maxs = block.max(axis=1)
        irrelevant = dominated_mask(self._mins, new_maxs, self.k)
        self._row_sims.append(block)
        self._mins = np.concatenate(
            [self._mins, block.min(axis=1)[:, None]], axis=1
        )
        self._maxs = np.concatenate([self._maxs, new_maxs[:, None]], axis=1)
        touched: list[int] = []
        for point in range(self.n_points):
            if irrelevant[point]:
                counts = self._resize_labels(
                    self._counts[point], new_n_labels, point
                )
                self._counts[point] = _exact_scale(counts, m_new, 1)
                self.n_pruned += 1
            else:
                self._counts[point] = self._recount(point)
                touched.append(point)
                self.n_recomputed += 1
        return {
            "op": "row_append",
            "row": self.dataset.n_rows - 1,
            "n_pruned": self.n_points - len(touched),
            "n_recomputed": len(touched),
            "touched_points": touched,
        }

    def _apply_delete(self, row: int) -> dict:
        if not 0 <= row < self.dataset.n_rows:
            raise IndexError(f"row {row} out of range for {self.dataset.n_rows} rows")
        if self.dataset.n_rows - 1 < self.k:
            raise ValueError(
                f"cannot delete row {row}: k={self.k} would exceed the "
                f"remaining {self.dataset.n_rows - 1} rows"
            )
        m_row = self._row_sims[row].shape[1]
        irrelevant = self._irrelevant_mask(row)
        self.dataset = self.dataset.delete_row(row)
        new_n_labels = self.dataset.n_labels
        del self._row_sims[row]
        self._mins = np.delete(self._mins, row, axis=1)
        self._maxs = np.delete(self._maxs, row, axis=1)
        touched: list[int] = []
        for point in range(self.n_points):
            if irrelevant[point]:
                counts = _exact_scale(self._counts[point], 1, m_row)
                self._counts[point] = self._resize_labels(
                    counts, new_n_labels, point
                )
                self.n_pruned += 1
            else:
                self._counts[point] = self._recount(point)
                touched.append(point)
                self.n_recomputed += 1
        return {
            "op": "row_delete",
            "row": row,
            "n_pruned": self.n_points - len(touched),
            "n_recomputed": len(touched),
            "touched_points": touched,
        }

    # ------------------------------------------------------------------
    # Warm-state handoff and verification
    # ------------------------------------------------------------------
    def sims_matrix(self) -> np.ndarray:
        """The maintained ``(n_points, total_candidates)`` similarity matrix.

        Bit-identical to ``kernel.pairwise(stacked_candidates, test_points)``
        on the current dataset — assembled from the maintained blocks, no
        kernel work.
        """
        return np.concatenate(self._row_sims, axis=1)

    def prepared_batch(self) -> PreparedBatch:
        """A :class:`~repro.core.batch_engine.PreparedBatch` for the current
        dataset version, built from maintained similarities (no kernel call)."""
        return PreparedBatch(
            self.dataset,
            self._points,
            k=self.k,
            kernel=self.kernel,
            sims_matrix=self.sims_matrix(),
        )

    def verify(self) -> None:
        """Cross-check every maintained count against a full recompute."""
        fresh = DeltaMaintainedState(
            self.dataset, self._points, k=self.k, kernel=self.kernel
        )
        sims = self.sims_matrix()
        if not np.array_equal(sims, fresh.sims_matrix()):
            raise AssertionError("maintained similarities diverged from recompute")
        for point in range(self.n_points):
            if self._counts[point] != fresh._counts[point]:
                raise AssertionError(
                    f"maintained counts diverged at point {point}: "
                    f"{self._counts[point]} != {fresh._counts[point]}"
                )
