"""Seeded random CP-query cases shared by the differential harnesses.

Extracted from ``tests/core/test_backend_differential.py`` so the planner
harness and the update-sequence harness draw from one generator. Every
function is a pure function of its inputs — the same seed always builds
the same case, so a failure report's seed replays it exactly.

Seeds below :data:`POOL_SEEDS_FROM` use the paper's default kernel
(negative Euclidean) on random 2-d candidates. The seeds from there on
cycle through the four built-in kernels and draw every candidate (in four
dimensions) from a small shared pool — the shape of imputed candidate
sets, where the same vector repeats across rows and exact similarity ties
are common. That is where a kernel whose bits depend on a candidate's
position in the matrix would make backends disagree.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.core.bruteforce import brute_force_counts
from repro.core.dataset import IncompleteDataset
from repro.core.label_uncertainty import (
    LabelUncertainDataset,
    label_uncertain_counts_bruteforce,
)
from repro.core.planner import make_query

__all__ = [
    "BACKENDS",
    "TIGHT_LIMITS",
    "SEEDS",
    "FLAVOR_CYCLE",
    "KERNEL_CYCLE",
    "random_dataset",
    "random_pins",
    "random_weights",
    "random_case",
]

#: The backends the harness differentiates (a capability-filtered subset
#: runs per query). Order matters only for error messages.
BACKENDS = ("sequential", "batch", "incremental")

#: ``(module constant, value)`` pairs that, monkeypatched, make the batch
#: backend evaluate one-row chunks whose kernel blocks hold one candidate,
#: so every multi-candidate row segment is split across blocks.
TIGHT_LIMITS = (
    ("repro.core.batch_engine.MEMORY_BUDGET_BYTES", 1),
    ("repro.core.scan.SIMILARITY_BLOCK_ELEMENTS", 1),
)

SEEDS = list(range(60))

#: Seeds from here on draw candidates from a small shared pool and cycle
#: the kernel; the seeds below keep the default kernel on random candidates.
POOL_SEEDS_FROM = 20

#: The built-in kernels, cycled in blocks of five pool seeds (one flavor cycle).
KERNEL_CYCLE = ("euclidean", "rbf", "linear", "cosine")

#: Flavor cycles with the seed so every flavor is guaranteed coverage in
#: any contiguous seed range of length >= 5; everything else is random.
FLAVOR_CYCLE = ("binary", "multiclass", "weighted", "topk", "label_uncertainty")


def random_dataset(
    rng: np.random.Generator, n_labels: int, pool: np.ndarray | None = None
) -> IncompleteDataset:
    """A small random 2-d dataset; with ``pool`` every candidate is a pool row."""
    n_rows = int(rng.integers(4, 8))
    if pool is None:
        sets = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n_rows)]
    else:
        sets = [
            pool[rng.choice(len(pool), size=int(rng.integers(1, 4)), replace=False)]
            for _ in range(n_rows)
        ]
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[0] = 0  # the label space is exactly as declared
    labels[1] = n_labels - 1
    return IncompleteDataset(sets, labels)


def random_pins(rng: np.random.Generator, dataset: IncompleteDataset) -> dict[int, int]:
    counts = dataset.candidate_counts()
    dirty = dataset.uncertain_rows()
    n_pins = int(rng.integers(0, len(dirty) + 1)) if dirty else 0
    chosen = rng.permutation(dirty)[:n_pins] if n_pins else []
    return {int(row): int(rng.integers(0, counts[int(row)])) for row in chosen}


def random_weights(
    rng: np.random.Generator, dataset: IncompleteDataset
) -> list[list[Fraction]]:
    weights = []
    for m in dataset.candidate_counts():
        raw = [Fraction(int(rng.integers(1, 6))) for _ in range(int(m))]
        total = sum(raw)
        weights.append([w / total for w in raw])
    return weights


def random_case(seed: int):
    """One seeded random query: ``(query, oracle_or_None, description)``."""
    rng = np.random.default_rng(seed)
    flavor = FLAVOR_CYCLE[seed % len(FLAVOR_CYCLE)]
    pooled = seed >= POOL_SEEDS_FROM
    block = (seed - POOL_SEEDS_FROM) // len(FLAVOR_CYCLE)
    kernel = KERNEL_CYCLE[block % len(KERNEL_CYCLE)] if pooled else KERNEL_CYCLE[0]
    n_labels = 2 if flavor in ("binary", "weighted") else int(rng.integers(2, 4))
    pool = rng.normal(size=(3, 4)) if pooled else None
    dataset = random_dataset(rng, n_labels, pool)
    k = int(rng.integers(1, min(4, dataset.n_rows) + 1))
    test_X = rng.normal(size=(int(rng.integers(1, 4)), dataset.n_features))
    pins = random_pins(rng, dataset)
    kind = "counts" if flavor == "topk" else str(
        rng.choice(["counts", "certain_label", "check"])
    )
    label = int(rng.integers(0, n_labels)) if kind == "check" else None
    kwargs = dict(kind=kind, flavor=flavor, k=k, kernel=kernel, pins=pins, label=label)

    oracle = None
    if flavor in ("binary", "multiclass"):
        query = make_query(dataset, test_X, **kwargs)
        if kind == "counts":
            restricted = dataset
            for row, cand in pins.items():
                restricted = restricted.restrict_row(row, cand)
            oracle = [brute_force_counts(restricted, t, k=k, kernel=kernel) for t in test_X]
    elif flavor == "weighted":
        kwargs["weights"] = random_weights(rng, dataset)
        query = make_query(dataset, test_X, **kwargs)
    elif flavor == "topk":
        query = make_query(
            dataset, test_X, kind="counts", flavor="topk", k=k, kernel=kernel, pins=pins
        )
    else:
        flip_rows = [
            int(row)
            for row in rng.permutation(dataset.n_rows)[: int(rng.integers(1, 3))]
        ]
        lu = LabelUncertainDataset.from_incomplete(dataset, flip_rows=flip_rows)
        query = make_query(lu, test_X, **kwargs)
        if kind == "counts":
            restricted = lu
            for row, cand in pins.items():
                restricted = restricted.restrict_row(row, cand)
            oracle = [
                label_uncertain_counts_bruteforce(restricted, t, k=k, kernel=kernel)
                for t in test_X
            ]
    description = (
        f"seed={seed} flavor={flavor} kind={kind} kernel={kernel} k={k} "
        f"pool={pool is not None} pins={pins}"
    )
    return query, oracle, description
