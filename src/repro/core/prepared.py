"""Reusable per-test-point query state for cleaning workloads.

CPClean evaluates Q2 on *many* variants of the same incomplete dataset —
"what if row ``i`` were cleaned to candidate ``j``?" — against a fixed
validation point. Candidate feature values never change during cleaning
(cleaning only *restricts* candidate sets), so the similarity computation
and the global sort can be done once per test point and shared across all
variants. :class:`PreparedQuery` owns that shared state and answers:

* :meth:`counts` — Q2 counts with any set of rows pinned to one candidate;
* :meth:`counts_per_fixing` — for a target row, the Q2 counts of *every*
  "row fixed to candidate j" variant, all from a **single scan**: at each
  boundary position the target row is either already below the boundary
  (its hypothetical candidate was scanned earlier) or still above it, so
  per-variant results decompose into prefix sums of two per-position
  aggregates plus a boundary term at the variant's own position;
* :meth:`certain_label_minmax` — the MM check from the per-row extremes of
  the point's similarity row.

The point's similarities come from the one preparation path — a single
``kernel.pairwise`` call over the dataset's cached stacked candidates (or a
row of a :class:`~repro.core.batch_engine.PreparedBatch` matrix) — and
:meth:`counts` runs the production kernel
:func:`~repro.core.engine.counts_from_scan`.

This turns one CPClean candidate-selection step from
``O(n_dirty * M * |Dval|)`` full Q2 evaluations into
``O(n_dirty * |Dval|)`` single scans.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.engine import LabelPolynomials, counts_from_scan
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.minmax import extreme_winners, row_extremes
from repro.core.scan import ScanOrder, scan_from_sims, similarity_matrix
from repro.core.tally import tallies_with_prediction
from repro.utils.validation import check_positive_int, check_vector

__all__ = ["PreparedQuery"]


class PreparedQuery:
    """Cached similarity/sort state for CP queries against one test point."""

    def __init__(
        self,
        dataset: IncompleteDataset,
        t: np.ndarray,
        k: int = 3,
        kernel: Kernel | str | None = None,
        *,
        sims: np.ndarray | None = None,
        scan: ScanOrder | None = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        if self.k > dataset.n_rows:
            raise ValueError(f"k={self.k} exceeds the number of training rows {dataset.n_rows}")
        self.dataset = dataset
        self.kernel = resolve_kernel(kernel)
        self.n_labels = dataset.n_labels
        # `sims`/`scan` let a batch preparer (PreparedBatch) hand over the
        # point's row of its similarity matrix and its cached scan; they
        # must describe the same (dataset, t, kernel) the caller passes.
        if sims is None:
            t = check_vector(t, "t", length=dataset.n_features)
            sims = similarity_matrix(dataset, t[None, :], self.kernel)[0]
        self._sims = sims
        self._scan = scan if scan is not None else scan_from_sims(dataset, sims)
        self._offsets = dataset.stacked_candidates()[4]
        self._tallies = tallies_with_prediction(self.k, self.n_labels)

    # ------------------------------------------------------------------
    def _effective_counts(self, fixed: Mapping[int, int]) -> np.ndarray:
        counts = self._scan.row_counts.copy()
        for row, cand in fixed.items():
            if not 0 <= cand < counts[row]:
                raise IndexError(
                    f"fixed candidate {cand} out of range for row {row} "
                    f"with {counts[row]} candidates"
                )
            counts[row] = 1
        return counts

    def _is_active(self, fixed: Mapping[int, int], row: int, cand: int) -> bool:
        pinned = fixed.get(row)
        return pinned is None or pinned == cand

    # ------------------------------------------------------------------
    def counts(self, fixed: Mapping[int, int] | None = None) -> list[int]:
        """Q2 counts for the dataset with ``fixed`` rows pinned to a candidate.

        ``fixed`` maps row index to candidate index; unpinned rows keep
        their full candidate sets. With ``fixed=None`` this equals
        ``q2_counts(dataset, t)``.
        """
        return counts_from_scan(self._scan, self.k, self.n_labels, fixed)

    # ------------------------------------------------------------------
    def counts_per_fixing(
        self, target_row: int, fixed: Mapping[int, int] | None = None
    ) -> list[list[int]]:
        """Q2 counts of every "``target_row`` fixed to candidate j" variant.

        Returns one count vector per candidate of ``target_row`` (in
        candidate order), each identical to
        ``counts({**fixed, target_row: j})`` but all computed in a single
        scan. ``target_row`` must not itself be pinned in ``fixed``.
        """
        fixed = dict(fixed or {})
        if target_row in fixed:
            raise ValueError(f"target_row {target_row} is already pinned in `fixed`")
        scan = self._scan
        counts = self._effective_counts(fixed)
        n_target = int(counts[target_row])
        state = LabelPolynomials(
            scan.row_labels, counts, self.k, self.n_labels, skip_row=target_row
        )
        y_target = int(scan.row_labels[target_row])

        cum_in = [0] * self.n_labels
        cum_out = [0] * self.n_labels
        # Per target candidate: (snapshot of cum_in, snapshot of cum_out,
        # boundary-at-target contribution).
        snapshots: list[tuple[list[int], list[int], list[int]] | None] = [None] * n_target

        for position in range(scan.n_candidates):
            row = int(scan.rows[position])
            cand = int(scan.cands[position])
            if not self._is_active(fixed, row, cand):
                continue
            state.advance(row)
            if row == target_row:
                # Hypothetical boundary at (target_row, cand): the target is
                # in the top-K, all other rows contribute via the polynomials.
                boundary = [0] * self.n_labels
                coeffs = state.coefficients()
                for tally, winner in self._tallies:
                    if tally[y_target] < 1:
                        continue
                    support = 1
                    for label, slots in enumerate(tally):
                        want = slots - 1 if label == y_target else slots
                        support *= coeffs[label][want]
                        if support == 0:
                            break
                    boundary[winner] += support
                snapshots[cand] = (list(cum_in), list(cum_out), boundary)
                continue

            coeffs = state.coefficients_excluding(row)
            y_row = int(scan.row_labels[row])
            for tally, winner in self._tallies:
                if tally[y_row] < 1:
                    continue
                # Variant A: target below the boundary (contributes nothing).
                support = 1
                for label, slots in enumerate(tally):
                    want = slots - 1 if label == y_row else slots
                    support *= coeffs[label][want]
                    if support == 0:
                        break
                cum_out[winner] += support
                # Variant B: target above the boundary (occupies one slot of
                # its own label).
                if tally[y_target] < (2 if y_target == y_row else 1):
                    continue
                support = 1
                for label, slots in enumerate(tally):
                    want = slots - (label == y_row) - (label == y_target)
                    support *= coeffs[label][want]
                    if support == 0:
                        break
                cum_in[winner] += support

        expected_total = math.prod(
            int(m) for n, m in enumerate(counts) if n != target_row
        )
        results: list[list[int]] = []
        for cand in range(n_target):
            snap = snapshots[cand]
            if snap is None:
                raise RuntimeError(
                    f"candidate {cand} of row {target_row} never appeared in the scan"
                )
            in_before, out_before, boundary = snap
            variant = [
                in_before[label] + (cum_out[label] - out_before[label]) + boundary[label]
                for label in range(self.n_labels)
            ]
            if sum(variant) != expected_total:
                raise AssertionError(
                    f"internal error: variant counts sum to {sum(variant)}, "
                    f"expected {expected_total}"
                )
            results.append(variant)
        return results

    # ------------------------------------------------------------------
    def certain_label_minmax(self, fixed: Mapping[int, int] | None = None) -> int | None:
        """MM check (binary labels): the CP'ed label or ``None``.

        Uses the point's similarity row; ``fixed`` rows use their pinned
        candidate's similarity as both extreme.
        """
        if self.n_labels > 2:
            raise ValueError("the MinMax check is only valid for binary classification")
        mins, maxs = row_extremes(self._sims, self._offsets, fixed)
        winners = extreme_winners(mins, maxs, self._scan.row_labels, self.k, self.n_labels)
        return winners[0] if len(winners) == 1 else None
