"""The differential property-test harness across every planner backend.

Seeded random :class:`~repro.core.planner.CPQuery` generation — random
datasets, kind × flavor × pins × weights × k — cross-checked across the
``sequential``, ``batch`` and ``incremental`` backends (whichever
declare themselves capable) and, for the counting flavors,
against the brute-force world-enumeration oracle. Any divergence between
two backends on any generated query is a bug in a certification system,
so the harness asserts **bit-identical** values, not approximate ones.

The harness is deliberately adversarial for the batch backend's bounded
memory: every case runs once with the default limits (one prepared batch,
one kernel block) and once under :data:`fuzz.cp_cases.TIGHT_LIMITS`
(one-row chunks, kernel blocks that split rows' candidate segments), so
blocking artefacts cannot hide behind friendly alignment.

The seeded case generators live in :mod:`fuzz.cp_cases`
(``tests/fuzz/cp_cases.py``), shared with the update-sequence harness.
"""

from __future__ import annotations

import numpy as np
import pytest

from fuzz.cp_cases import BACKENDS, SEEDS, TIGHT_LIMITS, random_case
from repro.core.planner import ExecutionOptions, capable_backends, execute_query


class TestDifferentialMatrix:
    """Every capable backend must agree bit for bit on every random query."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_backends_agree_and_match_oracle(self, seed, monkeypatch):
        query, oracle, description = random_case(seed)
        capable = [b.name for b in capable_backends(query) if b.name in BACKENDS]
        assert "sequential" in capable, description
        assert "batch" in capable, description

        reference = execute_query(
            query, backend="sequential", options=ExecutionOptions(cache=False)
        ).values
        if oracle is not None:
            assert reference == oracle, f"sequential diverged from oracle: {description}"

        options = ExecutionOptions(cache=False)
        for name in capable:
            if name == "sequential":
                continue
            values = execute_query(query, backend=name, options=options).values
            assert values == reference, f"{name} diverged: {description}"

        for target, value in TIGHT_LIMITS:
            monkeypatch.setattr(target, value)
        values = execute_query(query, backend="batch", options=options).values
        assert values == reference, f"batch under tight limits diverged: {description}"

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_cached_rerun_is_identical(self, seed, monkeypatch):
        """A second (cache-served) chunked batch run must replay the first exactly."""
        query, _, description = random_case(seed)
        for target, value in TIGHT_LIMITS:
            monkeypatch.setattr(target, value)
        options = ExecutionOptions(cache=True)
        first = execute_query(query, backend="batch", options=options).values
        second = execute_query(query, backend="batch", options=options).values
        assert second == first, description

    def test_generator_covers_every_flavor_and_kind(self):
        """The seed range must actually exercise the whole query space."""
        flavors = set()
        kinds = set()
        kernels = set()
        pinned = 0
        repeated = 0
        for seed in SEEDS:
            query, _, _ = random_case(seed)
            flavors.add(query.flavor)
            kinds.add(query.kind)
            kernels.add(type(query.kernel).__name__)
            pinned += bool(query.pins)
            dataset = getattr(query.dataset, "feature_dataset", query.dataset)
            stacked = dataset.stacked_candidates()[0]
            repeated += len(np.unique(stacked, axis=0)) < len(stacked)
        assert flavors == {"binary", "multiclass", "weighted", "topk", "label_uncertainty"}
        assert kinds == {"counts", "certain_label", "check"}
        assert kernels == {"NegativeEuclideanKernel", "RBFKernel", "LinearKernel", "CosineKernel"}
        assert pinned >= 5, "too few generated cases carry pins"
        assert repeated >= 10, "too few generated cases repeat a candidate vector"
