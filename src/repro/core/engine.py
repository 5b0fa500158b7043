"""The fast incremental SortScan engine (the paper's "Efficient Implementation").

Same outputs as :func:`repro.core.sortscan.sortscan_counts_naive`, but instead
of recomputing the label-support DP from scratch for every boundary candidate,
the engine maintains, per label ``l``, the truncated generating polynomial

    ``P_l(z) = prod_{n: y_n = l} (alpha[n] + (m_n - alpha[n]) z)``

across the scan. Each scan step changes exactly one ``alpha[n]`` by one, so
``P_l`` is updated by dividing out the row's old linear factor and
multiplying in the new one — ``O(K)`` exact big-integer operations (see
:mod:`repro.core.polynomials` for why the truncated division is exact).

Rows with ``alpha[n] == 0`` have the factor ``m_n * z`` (they are *forced*
above the boundary); such factors cannot be divided out of a truncated
polynomial, so they are tracked separately as a per-label shift
(``forced_count``) and scalar multiplier (``forced_scale``).

The paper reaches ``O(K^2 log N)`` per step with the divide-and-conquer tree
(Appendix A.2, implemented in :mod:`repro.core.sortscan_tree`); the division
trick used here achieves ``O(K + |Gamma| |Y|)`` per step, which is strictly
better — both are validated against each other and against brute force.

The module holds the algorithm twice, on purpose: :class:`LabelPolynomials`
/ :func:`sortscan_counts` are the readable reference (timed by the
complexity experiments, and the substrate of ``counts_per_fixing``), while
:func:`counts_from_scan` is the one production kernel every backend counts
with — the same updates in the same order, restructured for speed.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import lru_cache

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel
from repro.core.polynomials import poly_div_linear, poly_mul_linear, poly_one
from repro.core.scan import ScanOrder, compute_scan_order
from repro.core.tally import tallies_with_prediction
from repro.utils.validation import check_positive_int

__all__ = ["counts_from_scan", "sortscan_counts", "LabelPolynomials"]


class LabelPolynomials:
    """Per-label generating polynomials maintained incrementally over a scan.

    This is the mutable state shared by the Q2 engine and the CPClean
    entropy engine. ``skip_row`` allows one row to be excluded from the
    polynomials entirely (used when reasoning about hypothetically cleaned
    rows).
    """

    def __init__(
        self,
        row_labels: np.ndarray,
        row_counts: np.ndarray,
        k: int,
        n_labels: int,
        skip_row: int | None = None,
    ) -> None:
        self.k = k
        self.n_labels = n_labels
        self.row_counts = row_counts
        self.row_labels = row_labels
        self.skip_row = skip_row
        self.alpha = np.zeros(row_labels.shape[0], dtype=np.int64)
        self.polys: list[list[int]] = [poly_one(k) for _ in range(n_labels)]
        self.forced_count = [0] * n_labels
        self.forced_scale = [1] * n_labels
        for n in range(row_labels.shape[0]):
            if skip_row is not None and n == skip_row:
                continue
            label = int(row_labels[n])
            self.forced_count[label] += 1
            self.forced_scale[label] *= int(row_counts[n])

    def advance(self, row: int) -> None:
        """Record that the next candidate of ``row`` passed the scan frontier."""
        self.alpha[row] += 1
        if self.skip_row is not None and row == self.skip_row:
            return
        label = int(self.row_labels[row])
        m = int(self.row_counts[row])
        a = int(self.alpha[row])
        if a == 1:
            # The row leaves the forced-above set and gains a real factor.
            self.forced_count[label] -= 1
            self.forced_scale[label] //= m
            self.polys[label] = poly_mul_linear(self.polys[label], 1, m - 1)
        else:
            self.polys[label] = poly_mul_linear(
                poly_div_linear(self.polys[label], a - 1, m - a + 1), a, m - a
            )

    def coefficients_excluding(self, row: int) -> list[list[int]]:
        """Full per-label tally coefficient arrays with ``row`` divided out.

        Entry ``[l][c]`` counts the ways for rows of label ``l`` (excluding
        ``row`` and the engine-wide ``skip_row``) to place exactly ``c``
        members above the current scan frontier. ``row`` must have
        ``alpha[row] >= 1`` (it is the boundary candidate's row, whose
        candidate was just advanced).
        """
        label_of_row = int(self.row_labels[row])
        arrays = []
        for label in range(self.n_labels):
            base = self.polys[label]
            if label == label_of_row and not (self.skip_row is not None and row == self.skip_row):
                a = int(self.alpha[row])
                m = int(self.row_counts[row])
                if a == 0:
                    raise RuntimeError("boundary row must have been advanced before exclusion")
                base = poly_div_linear(base, a, m - a)
            arrays.append(self._shifted(base, label))
        return arrays

    def coefficients(self) -> list[list[int]]:
        """Full per-label tally coefficient arrays (no extra exclusion)."""
        return [self._shifted(self.polys[label], label) for label in range(self.n_labels)]

    def _shifted(self, base: list[int], label: int) -> list[int]:
        """Apply the forced-above shift and scale to a raw polynomial."""
        shift = self.forced_count[label]
        scale = self.forced_scale[label]
        out = [0] * (self.k + 1)
        for c in range(self.k + 1):
            idx = c - shift
            if 0 <= idx <= self.k and base[idx]:
                out[c] = scale * base[idx]
        return out


def sortscan_counts(
    dataset: IncompleteDataset,
    t: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
    scan: ScanOrder | None = None,
) -> list[int]:
    """Q2 counts via the fast incremental engine.

    Returns ``r`` with ``r[y] = Q2(D, t, y)``; exact big-integer counts that
    sum to the number of possible worlds ``prod_i m_i``.
    """
    k = check_positive_int(k, "k")
    n = dataset.n_rows
    if k > n:
        raise ValueError(f"k={k} exceeds the number of training rows {n}")
    if scan is None:
        scan = compute_scan_order(dataset, t, kernel)

    n_labels = dataset.n_labels
    tallies = tallies_with_prediction(k, n_labels)
    state = LabelPolynomials(scan.row_labels, scan.row_counts, k, n_labels)
    result = [0] * n_labels

    for position in range(scan.n_candidates):
        i = int(scan.rows[position])
        state.advance(i)
        coeffs = state.coefficients_excluding(i)
        y_i = int(scan.row_labels[i])
        for tally, winner in tallies:
            if tally[y_i] < 1:
                continue
            support = 1
            for label, slots in enumerate(tally):
                want = slots - 1 if label == y_i else slots
                support *= coeffs[label][want]
                if support == 0:
                    break
            result[winner] += support

    expected_total = math.prod(int(m) for m in scan.row_counts)
    if sum(result) != expected_total:
        raise AssertionError(
            f"internal error: counts sum to {sum(result)} but there are "
            f"{expected_total} possible worlds"
        )
    return result


@lru_cache(maxsize=None)
def _tally_plans(
    k: int, n_labels: int
) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]:
    """Per boundary-row label: the tally loop, pre-resolved.

    ``plans[y]`` lists ``(winner, wants)`` for every tally with
    ``tally[y] >= 1``, where ``wants`` pairs each label with the
    coefficient index it must contribute (the boundary row's own label
    needs one slot fewer). Hoisting this out of the scan loop removes the
    per-position tally filtering of the reference engine.
    """
    plans = []
    for y in range(n_labels):
        plan = []
        for tally, winner in tallies_with_prediction(k, n_labels):
            if tally[y] < 1:
                continue
            wants = tuple(
                (label, slots - 1 if label == y else slots)
                for label, slots in enumerate(tally)
            )
            plan.append((winner, wants))
        plans.append(tuple(plan))
    return tuple(plans)


def counts_from_scan(
    scan: ScanOrder,
    k: int,
    n_labels: int,
    fixed: Mapping[int, int] | None = None,
) -> list[int]:
    """Q2 counts from a precomputed scan order — the production kernel.

    Every backend counts through this function. It is exactly the
    incremental algorithm of :class:`LabelPolynomials` /
    :func:`sortscan_counts` (same big-integer polynomial updates in the
    same order, so results are bit-identical), restructured for
    throughput: scan arrays are converted to plain
    Python lists once, the per-position tally loop uses the precomputed
    :func:`_tally_plans`, the linear-factor updates run in place on the
    coefficient lists (no per-step allocations or calls into
    :mod:`repro.core.polynomials`), and the forced-shift bookkeeping is
    applied on the fly instead of materialising shifted coefficient arrays
    at every boundary position. The truncated divisions are exact by
    construction (see :mod:`repro.core.polynomials`); the closing
    sum-over-worlds assertion would catch any violation. ``fixed`` pins
    rows to one candidate by skipping the row's other positions.
    """
    rows = scan.rows.tolist()
    cands = scan.cands.tolist()
    row_labels = scan.row_labels.tolist()
    counts = scan.row_counts.tolist()
    pinned: list[int] | None = None
    if fixed:
        pinned = [-1] * len(counts)
        for row, cand in fixed.items():
            if not 0 <= cand < counts[row]:
                raise IndexError(
                    f"fixed candidate {cand} out of range for row {row} "
                    f"with {counts[row]} candidates"
                )
            counts[row] = 1
            pinned[row] = cand

    plans = _tally_plans(k, n_labels)
    n = len(row_labels)
    alpha = [0] * n
    polys = [poly_one(k) for _ in range(n_labels)]
    forced_count = [0] * n_labels
    forced_scale = [1] * n_labels
    for i in range(n):
        forced_count[row_labels[i]] += 1
        forced_scale[row_labels[i]] *= counts[i]
    result = [0] * n_labels

    for pos in range(len(rows)):
        i = rows[pos]
        if pinned is not None:
            pin = pinned[i]
            if pin >= 0 and cands[pos] != pin:
                continue
        a = alpha[i] = alpha[i] + 1
        label_i = row_labels[i]
        m = counts[i]
        poly = polys[label_i]
        if a == 1:
            # The row leaves the forced-above set and gains a real factor:
            # poly *= (1 + (m-1) z), in place (descending, so each step
            # reads the not-yet-updated lower coefficient).
            forced_count[label_i] -= 1
            forced_scale[label_i] //= m
            b = m - 1
            for c in range(k, 0, -1):
                poly[c] += b * poly[c - 1]
        else:
            # poly = poly / ((a-1) + (m-a+1) z) * (a + (m-a) z), in place:
            # the exact truncated division runs ascending (each step reads
            # the already-updated lower coefficient), the multiplication
            # descending.
            a0 = a - 1
            b0 = m - a + 1
            poly[0] //= a0
            for c in range(1, k + 1):
                poly[c] = (poly[c] - b0 * poly[c - 1]) // a0
            b = m - a
            for c in range(k, 0, -1):
                poly[c] = a * poly[c] + b * poly[c - 1]
            poly[0] *= a
        # Coefficients with the boundary row's own factor divided out.
        b = m - a
        excluded = [0] * (k + 1)
        excluded[0] = prev = poly[0] // a
        for c in range(1, k + 1):
            excluded[c] = prev = (poly[c] - b * prev) // a
        for winner, wants in plans[label_i]:
            support = 1
            for label, want in wants:
                index = want - forced_count[label]
                if 0 <= index <= k:
                    base = excluded if label == label_i else polys[label]
                    coeff = base[index]
                    if coeff:
                        support *= forced_scale[label] * coeff
                        continue
                support = 0
                break
            if support:
                result[winner] += support

    expected_total = math.prod(counts)
    if sum(result) != expected_total:
        raise AssertionError(
            f"internal error: counts sum to {sum(result)} but there are "
            f"{expected_total} possible worlds"
        )
    return result
