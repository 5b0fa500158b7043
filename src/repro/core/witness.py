"""Witnesses of uncertainty: concrete worlds that disagree on a prediction.

Q1 says *whether* a test point is certainly predicted; when it is not, the
most convincing explanation is a pair of concrete possible worlds — two
full assignments of candidates — whose classifiers predict different
labels. This module extracts such a pair:

* for **binary** labels the ``l``-extreme worlds of the MM algorithm are
  exact witnesses: label ``l`` is predictable iff ``E_l`` predicts it
  (Lemma B.2), so the two extreme worlds *are* the disagreeing pair;
* for **multi-class** problems extreme worlds are only a heuristic seed
  (the MM equivalence fails for ``|Y| > 2``), so the search continues with
  deterministic sampling and, for small instances, exhaustive enumeration.

A witness is returned as two candidate-choice vectors (usable with
:meth:`IncompleteDataset.world`) plus the two predicted labels, so callers
can show a human the exact repairs that flip the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.knn import majority_label, top_k_rows
from repro.core.scan import similarity_matrix
from repro.core.worlds import iter_world_choices
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int, check_vector

__all__ = ["Witness", "find_witness"]

#: Enumerate exhaustively below this many worlds; sample above it.
_ENUMERATION_CAP = 4096


@dataclass(frozen=True)
class Witness:
    """Two worlds whose classifiers disagree on the test point.

    Attributes
    ----------
    choice_a / choice_b:
        Candidate index per row (pass to :meth:`IncompleteDataset.world`).
    label_a / label_b:
        The (distinct) predictions of the two worlds.
    """

    choice_a: tuple[int, ...]
    label_a: int
    choice_b: tuple[int, ...]
    label_b: int


def _predict(sims: list[np.ndarray], labels: np.ndarray, choice, k: int, n_labels: int) -> int:
    world_sims = np.array([sims[i][j] for i, j in enumerate(choice)])
    top = top_k_rows(world_sims, k)
    return majority_label(labels[top], tally_size=n_labels)


def _extreme_choice(sims: list[np.ndarray], labels: np.ndarray, target: int) -> tuple[int, ...]:
    choice = []
    for i, row_sims in enumerate(sims):
        if int(labels[i]) == target:
            choice.append(int(np.argmax(row_sims)))
        else:
            choice.append(int(np.argmin(row_sims)))
    return tuple(choice)


def find_witness(
    dataset: IncompleteDataset,
    t: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
    max_samples: int = 10_000,
    seed: int | np.random.Generator | None = 0,
) -> Witness | None:
    """A pair of disagreeing worlds for ``t``, or ``None`` if ``t`` is CP'ed.

    Exact (no false negatives) for binary labels and for instances with at
    most ``_ENUMERATION_CAP`` worlds; for larger multi-class instances the
    search is extreme-world seeds plus ``max_samples`` deterministic random
    worlds, and raises :class:`RuntimeError` if disagreement is *known* to
    exist (from the exact counting query) but no witness was sampled.
    """
    k = check_positive_int(k, "k")
    if k > dataset.n_rows:
        raise ValueError(f"k={k} exceeds the number of training rows {dataset.n_rows}")
    kernel = resolve_kernel(kernel)
    t = check_vector(t, "t", length=dataset.n_features)
    n_labels = dataset.n_labels
    labels = dataset.labels
    sims = np.split(
        similarity_matrix(dataset, t[None, :], kernel)[0],
        dataset.stacked_candidates()[4][1:-1],
    )

    # Seed worlds: each label's extreme world (exact for binary labels).
    seen: dict[int, tuple[int, ...]] = {}
    for target in range(n_labels):
        choice = _extreme_choice(sims, labels, target)
        label = _predict(sims, labels, choice, k, n_labels)
        seen.setdefault(label, choice)
        if len(seen) >= 2:
            return _pair(seen)
    if n_labels == 2:
        return None  # MM equivalence: one reachable label means CP'ed

    # Multi-class: exhaustive below the cap ...
    if dataset.n_worlds() <= _ENUMERATION_CAP:
        for choice in iter_world_choices(dataset, max_worlds=_ENUMERATION_CAP):
            label = _predict(sims, labels, choice, k, n_labels)
            seen.setdefault(label, tuple(int(j) for j in choice))
            if len(seen) >= 2:
                return _pair(seen)
        return None

    # ... sampled above it, cross-checked against the exact counting query.
    rng = ensure_rng(seed)
    counts = dataset.candidate_counts()
    for _ in range(max_samples):
        choice = tuple(int(rng.integers(m)) for m in counts)
        label = _predict(sims, labels, choice, k, n_labels)
        seen.setdefault(label, choice)
        if len(seen) >= 2:
            return _pair(seen)

    from repro.core.queries import q2_counts  # late import avoids a cycle

    exact = q2_counts(dataset, t, k=k, kernel=kernel)
    if sum(1 for c in exact if c > 0) > 1:
        raise RuntimeError(
            "the counting query proves disagreement exists, but no witness "
            f"was found in {max_samples} samples; raise max_samples"
        )
    return None


def _pair(seen: dict[int, tuple[int, ...]]) -> Witness:
    (label_a, choice_a), (label_b, choice_b) = sorted(seen.items())[:2]
    return Witness(choice_a=choice_a, label_a=label_a, choice_b=choice_b, label_b=label_b)
