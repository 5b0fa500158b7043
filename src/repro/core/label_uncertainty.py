"""CP queries when *labels* are uncertain too (an extension of Definition 1).

The paper's data model (Definition 1) fixes the label of every training row
and lets only the features vary. Real dirty data also has dubious labels;
this module extends the CP machinery to rows carrying a finite candidate
*label set* ``L_i`` alongside the candidate feature set ``C_i``. A possible
world now chooses one feature vector **and** one label per row, so there are
``prod_i m_i * |L_i|`` worlds.

Three query engines are provided, mirroring the feature-only trio:

* :func:`label_uncertain_counts_bruteforce` — world enumeration (oracle);
* :func:`label_uncertain_counts` — an exact SortScan-style counter: scan
  boundary candidates in similarity order; for each boundary ``(i, j)`` and
  boundary label ``y ∈ L_i``, a tally-vector DP absorbs each other row via

      ``dp'[γ] = α[n]·|L_n|·dp[γ] + Σ_{l ∈ L_n} (m_n - α[n])·dp[γ - e_l]``

  (stay below the boundary with any label, or claim a top-K slot with a
  specific label). Polynomial time, exponentially many worlds — the same
  punchline as the paper's Section 3.
* :func:`label_uncertain_minmax_check` — the MM generalisation for binary
  labels: the ``l``-extreme world gives every row the label ``l`` (when
  available) together with its most similar candidate, or the opposite
  label with its least similar candidate. The monotonicity argument of
  Lemma B.1 carries over because flipping a row towards ``l`` and raising
  its similarity can only help ``l``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Sequence

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.knn import majority_label, top_k_rows
from repro.core.minmax import row_extremes
from repro.core.scan import ScanOrder, compute_scan_order, similarity_matrix
from repro.core.tally import predicted_label
from repro.utils.validation import check_positive_int, check_vector

__all__ = [
    "LabelUncertainDataset",
    "label_uncertain_counts",
    "label_uncertain_counts_bruteforce",
    "label_uncertain_minmax_check",
    "label_uncertain_certain_label",
]


class LabelUncertainDataset:
    """An incomplete dataset whose labels are candidate *sets*.

    Parameters
    ----------
    candidate_sets:
        As for :class:`~repro.core.dataset.IncompleteDataset`: row ``i`` has
        an ``(m_i, d)`` array of possible feature vectors.
    label_sets:
        Sequence of non-empty label collections; ``label_sets[i]`` lists the
        possible labels of row ``i``. A singleton set recovers the paper's
        certain-label model.
    """

    def __init__(
        self,
        candidate_sets: Sequence[np.ndarray],
        label_sets: Sequence[Sequence[int]],
    ) -> None:
        if len(candidate_sets) != len(label_sets):
            raise ValueError(
                f"{len(candidate_sets)} candidate sets but {len(label_sets)} label sets"
            )
        labels: list[tuple[int, ...]] = []
        for i, label_set in enumerate(label_sets):
            values = tuple(dict.fromkeys(int(v) for v in label_set))
            if not values:
                raise ValueError(f"label_sets[{i}] is empty")
            if min(values) < 0:
                raise ValueError(f"label_sets[{i}] contains a negative label")
            labels.append(values)
        # Representative labels make the feature-side machinery reusable.
        self._features = IncompleteDataset(candidate_sets, [ls[0] for ls in labels])
        self._label_sets = tuple(labels)

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._features.n_rows

    @property
    def n_features(self) -> int:
        return self._features.n_features

    @property
    def label_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per-row candidate labels."""
        return self._label_sets

    @property
    def n_labels(self) -> int:
        """Size of the label space ``|Y|`` (``max possible label + 1``)."""
        return max(max(ls) for ls in self._label_sets) + 1

    @property
    def feature_dataset(self) -> IncompleteDataset:
        """The feature side as a plain incomplete dataset (labels are dummies)."""
        return self._features

    def candidates(self, row: int) -> np.ndarray:
        return self._features.candidates(row)

    def candidate_counts(self) -> np.ndarray:
        return self._features.candidate_counts()

    def has_certain_labels(self) -> bool:
        """True iff every label set is a singleton (the paper's model)."""
        return all(len(ls) == 1 for ls in self._label_sets)

    def restrict_row(self, row: int, candidate_index: int) -> "LabelUncertainDataset":
        """A new dataset with ``row`` pinned to one *feature* candidate.

        The row's label set is unchanged — pinning a feature repair does
        not resolve label uncertainty. Mirrors
        :meth:`IncompleteDataset.restrict_row`; this is how the planner
        applies pins to label-uncertain queries.
        """
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range for {self.n_rows} rows")
        candidates = self.candidates(row)
        if not 0 <= candidate_index < candidates.shape[0]:
            raise IndexError(
                f"candidate {candidate_index} out of range for row {row} "
                f"with {candidates.shape[0]} candidates"
            )
        sets = [
            candidates[candidate_index : candidate_index + 1]
            if i == row
            else self.candidates(i)
            for i in range(self.n_rows)
        ]
        return LabelUncertainDataset(sets, list(self._label_sets))

    def fingerprint(self) -> str:
        """Content hash over candidates *and* label sets (a sound cache key)."""
        digest = hashlib.sha256(self._features.fingerprint().encode("ascii"))
        digest.update(repr(self._label_sets).encode("ascii"))
        return digest.hexdigest()

    def n_worlds(self) -> int:
        """``prod_i m_i * |L_i|`` (big int)."""
        return self._features.n_worlds() * math.prod(len(ls) for ls in self._label_sets)

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"LabelUncertainDataset(n_rows={self.n_rows}, n_features={self.n_features}, "
            f"n_labels={self.n_labels}, n_worlds={self.n_worlds()})"
        )

    @classmethod
    def from_incomplete(
        cls, dataset: IncompleteDataset, flip_rows: Sequence[int] = (), n_labels: int | None = None
    ) -> "LabelUncertainDataset":
        """Lift a feature-incomplete dataset; rows in ``flip_rows`` may take any label."""
        n_labels = n_labels or dataset.n_labels
        flip = set(flip_rows)
        label_sets = [
            tuple(range(n_labels)) if i in flip else (dataset.label_of(i),)
            for i in range(dataset.n_rows)
        ]
        return cls([dataset.candidates(i) for i in range(dataset.n_rows)], label_sets)


# ----------------------------------------------------------------------
# Brute force oracle
# ----------------------------------------------------------------------
def label_uncertain_counts_bruteforce(
    dataset: LabelUncertainDataset,
    t: np.ndarray,
    k: int = 1,
    kernel: Kernel | str | None = None,
    max_worlds: int = 2_000_000,
) -> list[int]:
    """Q2 counts by enumerating every (feature, label) world."""
    k = check_positive_int(k, "k")
    n = dataset.n_rows
    if k > n:
        raise ValueError(f"k={k} exceeds the number of training rows {n}")
    if dataset.n_worlds() > max_worlds:
        raise ValueError(
            f"dataset has {dataset.n_worlds()} worlds, above the brute-force cap {max_worlds}"
        )
    kernel = resolve_kernel(kernel)
    t = check_vector(t, "t", length=dataset.n_features)
    n_labels = dataset.n_labels
    sims = [kernel.similarities(dataset.candidates(i), t) for i in range(n)]

    result = [0] * n_labels
    feature_choices = itertools.product(*(range(len(s)) for s in sims))
    for choice in feature_choices:
        world_sims = np.array([sims[i][j] for i, j in enumerate(choice)])
        top = top_k_rows(world_sims, k)
        # Labels of rows outside the top-K never matter: weight by the
        # number of free label choices instead of enumerating them.
        free = math.prod(
            len(dataset.label_sets[i]) for i in range(n) if i not in set(top.tolist())
        )
        for top_labels in itertools.product(*(dataset.label_sets[i] for i in top)):
            winner = majority_label(list(top_labels), tally_size=n_labels)
            result[winner] += free
    return result


# ----------------------------------------------------------------------
# Exact SortScan-style counter
# ----------------------------------------------------------------------
def label_uncertain_counts(
    dataset: LabelUncertainDataset,
    t: np.ndarray,
    k: int = 1,
    kernel: Kernel | str | None = None,
    scan: ScanOrder | None = None,
    until_mixed: bool = False,
    scan_stats: dict | None = None,
) -> list[int]:
    """Exact Q2 counts over all (feature, label) worlds in polynomial time.

    Complexity ``O(N^2 M |L| |Gamma| |Y|)`` with ``|Gamma| = C(|Y|+K-1, K)``
    tally vectors — the label-uncertain analogue of the paper's naive
    Algorithm 1 (the incremental-polynomial speed-up applies here too but is
    not needed at the extension's scale). ``scan`` optionally hands over a
    precomputed order for ``dataset.feature_dataset`` (the planner's batch
    backend shares one vectorised similarity pass this way).

    ``until_mixed`` is the Fig-9 early-termination hook for the decision
    kinds: counts only ever grow, so the moment two labels have support no
    certain label can exist and the scan stops. The returned counts are
    then *partial* — only their nonzero-set is meaningful. ``scan_stats``,
    when a dict is passed, receives ``positions_scanned`` and
    ``early_terminated``.
    """
    k = check_positive_int(k, "k")
    n = dataset.n_rows
    if k > n:
        raise ValueError(f"k={k} exceeds the number of training rows {n}")
    t = check_vector(t, "t", length=dataset.n_features)
    if scan is None:
        scan = compute_scan_order(dataset.feature_dataset, t, kernel)
    n_labels = dataset.n_labels
    label_sets = dataset.label_sets

    alpha = np.zeros(n, dtype=np.int64)
    result = [0] * n_labels
    positions_scanned = 0

    for position in range(scan.n_candidates):
        positions_scanned = position + 1
        i = int(scan.rows[position])
        alpha[i] += 1
        # dp maps a partial tally (counts per label among the *other* rows'
        # top-K members) to the number of (feature, label) choices realising
        # it with (i, j) as the K-th most similar example.
        dp: dict[tuple[int, ...], int] = {(0,) * n_labels: 1}
        for row in range(n):
            if row == i:
                continue
            below = int(alpha[row]) * len(label_sets[row])
            above = int(scan.row_counts[row]) - int(alpha[row])
            new_dp: dict[tuple[int, ...], int] = {}
            for tally, ways in dp.items():
                if below:
                    new_dp[tally] = new_dp.get(tally, 0) + ways * below
                if above:
                    used = sum(tally)
                    if used < k - 1:
                        for label in label_sets[row]:
                            bumped = list(tally)
                            bumped[label] += 1
                            key = tuple(bumped)
                            new_dp[key] = new_dp.get(key, 0) + ways * above
            dp = new_dp
            if not dp:
                break
        for tally, ways in dp.items():
            if sum(tally) != k - 1:
                continue
            for boundary_label in label_sets[i]:
                final = list(tally)
                final[boundary_label] += 1
                result[predicted_label(tuple(final))] += ways
        if until_mixed and sum(1 for count in result if count) >= 2:
            if scan_stats is not None:
                scan_stats["positions_scanned"] = positions_scanned
                scan_stats["early_terminated"] = True
            return result
    if scan_stats is not None:
        scan_stats["positions_scanned"] = positions_scanned
        scan_stats["early_terminated"] = False
    return result


# ----------------------------------------------------------------------
# MM check for binary labels
# ----------------------------------------------------------------------
def label_uncertain_minmax_check(
    dataset: LabelUncertainDataset,
    t: np.ndarray,
    label: int,
    k: int = 1,
    kernel: Kernel | str | None = None,
) -> bool:
    """Q1 for binary labels via ``l``-extreme worlds over features *and* labels.

    The ``l``-extreme world assigns a row the label ``l`` with its most
    similar candidate whenever ``l`` is in the row's label set, and the
    opposite label with its least similar candidate otherwise.
    """
    k = check_positive_int(k, "k")
    if dataset.n_labels > 2:
        raise ValueError("the MinMax check is only valid for binary classification")
    if k > dataset.n_rows:
        raise ValueError(f"k={k} exceeds the number of training rows {dataset.n_rows}")
    if not 0 <= label < 2:
        raise ValueError(f"label must be 0 or 1, got {label}")
    t = check_vector(t, "t", length=dataset.n_features)
    kernel = resolve_kernel(kernel)

    n = dataset.n_rows
    features = dataset.feature_dataset
    sims = similarity_matrix(features, t[None, :], kernel)[0]
    mins, maxs = row_extremes(sims, features.stacked_candidates()[4])

    def extreme_world_predicts(target: int) -> bool:
        world_sims = np.empty(n, dtype=np.float64)
        world_labels = np.empty(n, dtype=np.int64)
        for i in range(n):
            if target in dataset.label_sets[i]:
                world_labels[i] = target
                world_sims[i] = maxs[i]
            else:
                world_labels[i] = 1 - target
                world_sims[i] = mins[i]
        top = top_k_rows(world_sims, k)
        return majority_label(world_labels[top], tally_size=2) == target

    # label is CP'ed iff its own extreme world predicts it and the opposite
    # label's extreme world does not predict the opposite label.
    other = 1 - label
    return extreme_world_predicts(label) and not extreme_world_predicts(other)


def label_uncertain_certain_label(
    dataset: LabelUncertainDataset,
    t: np.ndarray,
    k: int = 1,
    kernel: Kernel | str | None = None,
) -> int | None:
    """The CP'ed label over (feature, label) worlds, or ``None``."""
    counts = label_uncertain_counts(dataset, t, k=k, kernel=kernel)
    total = sum(counts)
    for label, count in enumerate(counts):
        if count == total:
            return label
    return None
