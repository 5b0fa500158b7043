"""Probabilistic KNN queries: who is in the top-K, with what probability?

Section 2 of the paper contrasts certain predictions with the older
question of *KNN queries over probabilistic databases*: for each training
tuple, the probability that it belongs to the query point's top-K list.
The CP counting machinery answers that question exactly (and in polynomial
time) — this example shows the membership probabilities, the expected
label histogram of the top-K, and how both sharpen as rows get cleaned.

Run with::

    python examples/topk_membership.py
"""

import numpy as np

from repro.core import IncompleteDataset
from repro.core.deltas import CellRepair, DeltaMaintainedState
from repro.core.topk_prob import (
    expected_topk_label_histogram,
    most_uncertain_rows,
    topk_inclusion_probabilities,
)

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------------
# Ten rows around the origin; four of them dirty with three candidates each.
# ---------------------------------------------------------------------------
candidate_sets = []
for i in range(10):
    centre = rng.normal(scale=2.0, size=2)
    if i % 3 == 0:
        candidate_sets.append(centre + rng.normal(scale=1.5, size=(3, 2)))
    else:
        candidate_sets.append(centre.reshape(1, -1))
labels = [i % 2 for i in range(10)]
dataset = IncompleteDataset(candidate_sets, labels)
t = np.zeros(2)
K = 3

print(dataset)
probabilities = topk_inclusion_probabilities(dataset, t, k=K)
print(f"\nP(row in top-{K}) for t = {t.tolist()}:")
for row, p in enumerate(probabilities):
    dirty = "dirty" if not dataset.is_certain(row) else "clean"
    print(f"  row {row:2d} ({dirty}, label {dataset.label_of(row)}): {p} = {float(p):.3f}")

total = sum(probabilities)
assert total == K, "membership probabilities always sum to exactly K"
print(f"sum of probabilities = {total} (always exactly K)")

# ---------------------------------------------------------------------------
# The expected label histogram of the top-K: a smooth "how contested is
# this prediction" signal.
# ---------------------------------------------------------------------------
histogram = expected_topk_label_histogram(dataset, t, k=K)
print(f"\nexpected top-{K} label histogram: " + ", ".join(
    f"label {y}: {float(h):.3f}" for y, h in enumerate(histogram)
))

# ---------------------------------------------------------------------------
# Which dirty rows are the most undecided? Cleaning them first collapses
# the most membership uncertainty.
# ---------------------------------------------------------------------------
ranked = most_uncertain_rows(dataset, t, k=K)
print(f"\ndirty rows by membership uncertainty (most undecided first): {ranked}")

state = DeltaMaintainedState(dataset, t, k=K)
for row in ranked:
    state.apply(CellRepair(row, 0))  # pretend the first candidate is the truth
    sharpened = topk_inclusion_probabilities(state.dataset, t, k=K)
    undecided = sum(1 for p in sharpened if 0 < p < 1)
    print(
        f"  cleaned row {row} -> {undecided} rows still undecided, "
        f"counts now {state.counts(0)}"
    )

print(
    f"\ndelta maintenance: {state.n_pruned} pruned / "
    f"{state.n_recomputed} recomputed point-row pairs"
)
