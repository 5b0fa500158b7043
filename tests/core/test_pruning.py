"""Unit tests for ``repro.core.pruning``: certificates, scan surgery, and
bit-identity of every pruned query path against its unpruned reference.

The fuzz half (world-enumeration soundness oracle, cross-backend
on/off identity) lives in ``tests/fuzz/test_pruning.py``; these tests
pin down the building blocks one at a time.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.entropy import certain_label_from_counts
from repro.core.label_uncertainty import LabelUncertainDataset, label_uncertain_counts
from repro.core.planner import (
    ExecutionOptions,
    PlanError,
    make_query,
    plan_query,
)
from repro.core.prepared import PreparedQuery
from repro.core.pruning import (
    accumulate_prune_stats,
    apply_pins_to_scan,
    certificate_from_intervals,
    dominated_mask,
    empty_prune_stats,
    interval_arrays,
    prune_mask,
    pruned_counts_from_scan,
    pruned_counts_from_sims,
    pruned_decision_from_scan,
    pruned_label_uncertain_counts,
    pruned_label_uncertain_decision,
    pruned_topk_counts_from_scan,
    pruned_weighted_decision,
    pruned_weighted_probabilities,
    restrict_scan,
)
from repro.core.scan import compute_scan_order, similarity_matrix
from repro.core.topk_prob import topk_inclusion_counts_from_scan
from repro.core.weighted import condition_weights, weighted_prediction_probabilities

SEEDS = list(range(15))


def random_problem(seed: int, n_labels: int | None = None, clustered: bool = False):
    """A random ``(dataset, t, k, pins)`` problem; ``clustered`` guarantees
    the certificate actually fires (tight candidate clusters, many rows)."""
    rng = np.random.default_rng(seed)
    n_labels = n_labels or int(rng.integers(2, 4))
    if clustered:
        n_rows = int(rng.integers(12, 20))
        centers = rng.normal(size=(n_rows, 2))
        sets = [
            center + 0.01 * rng.normal(size=(int(rng.integers(2, 4)), 2))
            for center in centers
        ]
    else:
        n_rows = int(rng.integers(4, 9))
        sets = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n_rows)]
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[0] = 0
    labels[1] = n_labels - 1
    dataset = IncompleteDataset(sets, labels)
    t = rng.normal(size=2)
    k = int(rng.integers(1, min(4, n_rows) + 1))
    counts = dataset.candidate_counts()
    dirty = dataset.uncertain_rows()
    chosen = rng.permutation(dirty)[: int(rng.integers(0, len(dirty) + 1))]
    pins = {int(row): int(rng.integers(0, counts[int(row)])) for row in chosen}
    return dataset, t, k, pins


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_prune_mask_matches_dominated_mask(seed):
    dataset, t, k, _ = random_problem(seed)
    scan = compute_scan_order(dataset, t, None)
    mins, maxs = interval_arrays(scan)
    mask = prune_mask(mins, maxs, k)
    for row in range(dataset.n_rows):
        others = np.delete(mins, row)
        assert mask[row] == (np.count_nonzero(others > maxs[row]) >= k)
        assert mask[row] == dominated_mask(mins[None, :], maxs[[row]], k)[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_certificate_verifies_and_keeps_at_least_k(seed):
    dataset, t, k, _ = random_problem(seed, clustered=True)
    scan = compute_scan_order(dataset, t, None)
    mins, maxs = interval_arrays(scan)
    cert = certificate_from_intervals(mins, maxs, k, scan.row_counts)
    cert.verify()
    assert cert.n_kept >= k
    assert cert.n_kept + cert.n_pruned == dataset.n_rows
    expected_scale = 1
    for row in cert.pruned_rows.tolist():
        expected_scale *= int(scan.row_counts[row])
    assert cert.scale == expected_scale


def test_certificate_fires_on_clustered_rows():
    dataset, t, k, _ = random_problem(3, clustered=True)
    scan = compute_scan_order(dataset, t, None)
    mins, maxs = interval_arrays(scan)
    cert = certificate_from_intervals(mins, maxs, k, scan.row_counts)
    assert cert.n_pruned > 0  # tight clusters must dominate far rows


def test_certificate_verify_detects_corruption():
    dataset, t, k, _ = random_problem(3, clustered=True)
    scan = compute_scan_order(dataset, t, None)
    mins, maxs = interval_arrays(scan)
    cert = certificate_from_intervals(mins, maxs, k, scan.row_counts)
    assert cert.n_pruned > 0
    swapped = type(cert)(
        k=cert.k,
        # Claim the pruned rows are kept and vice versa: domination breaks.
        keep_rows=cert.pruned_rows,
        pruned_rows=cert.keep_rows,
        scale=cert.scale,
        row_mins=cert.row_mins,
        row_maxs=cert.row_maxs,
    )
    with pytest.raises(AssertionError, match="certificate broken"):
        swapped.verify()


def test_certificate_rejects_bad_k():
    mins = np.zeros(3)
    maxs = np.ones(3)
    with pytest.raises(ValueError, match="out of range"):
        certificate_from_intervals(mins, maxs, 4, [1, 1, 1])


# ---------------------------------------------------------------------------
# Scan surgery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_restrict_scan_is_an_order_preserving_subsequence(seed):
    dataset, t, k, pins = random_problem(seed)
    scan = apply_pins_to_scan(compute_scan_order(dataset, t, None), pins)
    mins, maxs = interval_arrays(scan)
    cert = certificate_from_intervals(mins, maxs, k, scan.row_counts)
    reduced = restrict_scan(scan, cert.keep_rows)
    keep = set(cert.keep_rows.tolist())
    expected_sims = [
        float(sim) for row, sim in zip(scan.rows, scan.sims) if int(row) in keep
    ]
    assert [float(sim) for sim in reduced.sims] == expected_sims
    # Monotone re-indexing: relative row order within the scan is intact.
    remap = {int(row): new for new, row in enumerate(cert.keep_rows.tolist())}
    expected_rows = [remap[int(row)] for row in scan.rows if int(row) in keep]
    assert [int(row) for row in reduced.rows] == expected_rows


def test_apply_pins_to_scan_rejects_bad_candidate():
    dataset, t, _, _ = random_problem(0)
    scan = compute_scan_order(dataset, t, None)
    with pytest.raises(IndexError, match="out of range"):
        apply_pins_to_scan(scan, {0: 99})


# ---------------------------------------------------------------------------
# Pruned query paths vs their unpruned references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("clustered", (False, True))
def test_pruned_counts_bit_identical(seed, clustered):
    dataset, t, k, pins = random_problem(seed, clustered=clustered)
    reference = PreparedQuery(dataset, t, k=k).counts(pins or None)
    scan = compute_scan_order(dataset, t, None)
    counts, stats = pruned_counts_from_scan(scan, k, dataset.n_labels, pins or None)
    assert counts == reference
    assert stats["n_rows"] == dataset.n_rows
    assert stats["n_scanned"] + stats["n_pruned"] == stats["n_candidates"]


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_counts_from_sims_bit_identical(seed):
    dataset, t, k, pins = random_problem(seed, clustered=True)
    reference = PreparedQuery(dataset, t, k=k).counts(pins or None)
    sims_row = similarity_matrix(dataset, t[None, :])[0]
    counts, _ = pruned_counts_from_sims(
        dataset, sims_row, k, dataset.n_labels, pins or None
    )
    assert counts == reference


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("implementation", ("numpy", "python"))
def test_pruned_decision_matches_counts_verdict(seed, implementation):
    dataset, t, k, pins = random_problem(seed, clustered=True)
    reference = certain_label_from_counts(PreparedQuery(dataset, t, k=k).counts(pins or None))
    scan = compute_scan_order(dataset, t, None)
    decision, stats = pruned_decision_from_scan(
        scan, k, dataset.n_labels, pins or None, implementation=implementation
    )
    assert decision.certain_label == reference
    assert stats["n_scanned"] <= stats["n_candidates"] - stats["n_pruned"]


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_topk_counts_bit_identical(seed):
    dataset, t, k, pins = random_problem(seed, clustered=True)
    effective = apply_pins_to_scan(compute_scan_order(dataset, t, None), pins or None)
    reference = topk_inclusion_counts_from_scan(effective, k)
    counts, _ = pruned_topk_counts_from_scan(
        compute_scan_order(dataset, t, None), k, pins or None
    )
    assert counts == reference


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_weighted_probabilities_bit_identical(seed):
    dataset, t, k, pins = random_problem(seed, n_labels=2, clustered=True)
    rng = np.random.default_rng(seed + 99)
    weights = []
    for m in dataset.candidate_counts():
        raw = [Fraction(int(rng.integers(1, 6))) for _ in range(int(m))]
        total = sum(raw)
        weights.append([w / total for w in raw])
    conditioned = condition_weights(weights, pins) if pins else weights
    reference = weighted_prediction_probabilities(dataset, t, k=k, weights=conditioned)
    probabilities, _ = pruned_weighted_probabilities(dataset, t, conditioned, k)
    assert probabilities == reference
    decision, _ = pruned_weighted_decision(dataset, t, conditioned, k)
    certain = [label for label, p in enumerate(reference) if p == 1]
    assert decision.certain_label == (certain[0] if certain else None)


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_label_uncertain_counts_bit_identical(seed):
    dataset, t, k, _ = random_problem(seed, clustered=True)
    rng = np.random.default_rng(seed + 7)
    flip_rows = [
        int(row) for row in rng.permutation(dataset.n_rows)[: int(rng.integers(1, 3))]
    ]
    lu = LabelUncertainDataset.from_incomplete(dataset, flip_rows=flip_rows)
    reference = label_uncertain_counts(lu, t, k=k)
    counts, _ = pruned_label_uncertain_counts(lu, t, k)
    assert counts == reference
    verdict, _ = pruned_label_uncertain_decision(lu, t, k)
    assert verdict == certain_label_from_counts(reference)


# ---------------------------------------------------------------------------
# Stats plumbing
# ---------------------------------------------------------------------------


def test_accumulate_prune_stats():
    totals = empty_prune_stats()
    accumulate_prune_stats(
        totals,
        {"n_rows": 5, "n_rows_pruned": 3, "n_candidates": 10, "n_pruned": 6,
         "n_scanned": 4, "early_terminated": True},
    )
    accumulate_prune_stats(
        totals,
        {"n_rows": 5, "n_rows_pruned": 0, "n_candidates": 10, "n_pruned": 0,
         "n_scanned": 10, "early_terminated": False},
    )
    assert totals == {
        "n_rows": 10,
        "n_rows_pruned": 3,
        "n_candidates": 20,
        "n_pruned": 6,
        "n_scanned": 14,
        "n_points": 2,
        "n_early_terminated": 1,
    }


# ---------------------------------------------------------------------------
# ExecutionOptions validation and planning guards
# ---------------------------------------------------------------------------


def test_execution_options_reject_unknown_prune_mode():
    with pytest.raises(ValueError, match="prune must be one of"):
        ExecutionOptions(prune="sometimes")


def test_execution_options_reject_unknown_scan_kernel():
    with pytest.raises(ValueError, match="scan_kernel must be one of"):
        ExecutionOptions(scan_kernel="fortran")


def test_execution_options_accept_all_modes():
    for prune in ("auto", "on", "off"):
        for scan_kernel in ("auto", "numpy", "python"):
            ExecutionOptions(prune=prune, scan_kernel=scan_kernel)


def test_plan_rejects_prune_on_with_naive_algorithm():
    dataset, t, k, _ = random_problem(0)
    query = make_query(dataset, t, kind="counts", k=k, algorithm="naive")
    with pytest.raises(PlanError, match="prune"):
        plan_query(query, options=ExecutionOptions(prune="on"))
    # auto degrades gracefully: the naive path simply runs unpruned.
    plan_query(query, options=ExecutionOptions(prune="auto"))
