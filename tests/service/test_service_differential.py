"""Served CP answers must be bit-identical to in-process execution.

The service adds three lossy-looking layers on top of the planner — JSON
transport, micro-batch coalescing, and the TTL result cache — and this
harness holds all three to the repo's certification standard: for seeded
random queries covering every flavor × kind (datasets, pins, weights and
``k`` randomised like ``tests/core/test_backend_differential.py``), the
values that come back over HTTP must equal the values of a direct
:func:`~repro.core.planner.execute_query` call with ``==`` — exact big
ints, exact :class:`~fractions.Fraction`, no float laundering anywhere.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.label_uncertainty import LabelUncertainDataset
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.service import DatasetRegistry, ServiceClient, make_service

#: Flavor cycles with the seed → full coverage in any 5-seed range.
_FLAVOR_CYCLE = ("binary", "multiclass", "weighted", "topk", "label_uncertainty")

SEEDS = list(range(10))


def _random_dataset(rng: np.random.Generator, n_labels: int) -> IncompleteDataset:
    n_rows = int(rng.integers(4, 8))
    sets = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n_rows)]
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[0] = 0
    labels[1] = n_labels - 1
    return IncompleteDataset(sets, labels)


def random_case(seed: int) -> dict:
    """One seeded random service query: dataset + request parameters."""
    rng = np.random.default_rng(seed)
    flavor = _FLAVOR_CYCLE[seed % len(_FLAVOR_CYCLE)]
    n_labels = 2 if flavor in ("binary", "weighted") else int(rng.integers(2, 4))
    dataset = _random_dataset(rng, n_labels)
    k = int(rng.integers(1, min(4, dataset.n_rows) + 1))
    test_X = rng.normal(size=(int(rng.integers(1, 4)), 2))
    counts = dataset.candidate_counts()
    dirty = dataset.uncertain_rows()
    n_pins = int(rng.integers(0, len(dirty) + 1)) if dirty else 0
    chosen = rng.permutation(dirty)[:n_pins] if n_pins else []
    pins = {int(row): int(rng.integers(0, counts[int(row)])) for row in chosen}
    kind = "counts" if flavor == "topk" else str(
        rng.choice(["counts", "certain_label", "check"])
    )
    label = int(rng.integers(0, n_labels)) if kind == "check" else None

    weights = None
    if flavor == "weighted":
        weights = []
        for m in counts:
            raw = [Fraction(int(rng.integers(1, 6))) for _ in range(int(m))]
            total = sum(raw)
            weights.append([w / total for w in raw])
    if flavor == "label_uncertainty":
        flip_rows = [
            int(row)
            for row in rng.permutation(dataset.n_rows)[: int(rng.integers(1, 3))]
        ]
        dataset = LabelUncertainDataset.from_incomplete(dataset, flip_rows=flip_rows)

    return {
        "dataset": dataset,
        "test_X": test_X,
        "kind": kind,
        "flavor": flavor,
        "k": k,
        "pins": pins,
        "label": label,
        "weights": weights,
    }


@pytest.fixture(scope="module")
def service():
    server = make_service(DatasetRegistry(), max_batch=8)
    client = ServiceClient(server.url)
    client.wait_until_ready()
    yield server, client
    server.close()


def _direct_values(case: dict) -> list:
    query = make_query(
        case["dataset"],
        case["test_X"],
        kind=case["kind"],
        flavor=case["flavor"],
        k=case["k"],
        pins=case["pins"],
        label=case["label"],
        weights=case["weights"],
    )
    return execute_query(query, options=ExecutionOptions(cache=False)).values


class TestServedQueriesAreBitIdentical:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matrix_path_matches_direct_execution(self, service, seed):
        """The multi-point (direct dispatch) path, exact across the wire."""
        server, client = service
        case = random_case(seed)
        name = f"diff-m{seed}"
        client.register_dataset(name, case["dataset"], k=case["k"])
        response = client.query(
            name,
            points=case["test_X"],
            kind=case["kind"],
            flavor=case["flavor"],
            k=case["k"],
            pins=case["pins"],
            label=case["label"],
            weights=case["weights"],
        )
        direct = _direct_values(case)
        description = f"seed={seed} flavor={case['flavor']} kind={case['kind']}"
        assert response["values"] == direct, f"served diverged: {description}"
        _assert_same_types(response["values"], direct)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_point_micro_batched_path_matches(self, service, seed):
        """The coalescing single-point path, point by point."""
        server, client = service
        case = random_case(seed)
        name = f"diff-s{seed}"
        client.register_dataset(name, case["dataset"], k=case["k"])
        direct = _direct_values(case)
        for index in range(case["test_X"].shape[0]):
            response = client.query(
                name,
                point=case["test_X"][index],
                kind=case["kind"],
                flavor=case["flavor"],
                k=case["k"],
                pins=case["pins"],
                label=case["label"],
                weights=case["weights"],
            )
            assert response["values"][0] == direct[index], (
                f"seed={seed} point={index} diverged on the single-point path"
            )

    def test_generator_covers_every_flavor_and_kind(self):
        flavors = {random_case(seed)["flavor"] for seed in SEEDS}
        kinds = {random_case(seed)["kind"] for seed in SEEDS}
        assert flavors == set(_FLAVOR_CYCLE)
        assert kinds == {"counts", "certain_label", "check"}

    def test_cached_replay_is_identical(self, service):
        """A TTL-cache hit must replay the first answer exactly."""
        server, client = service
        case = random_case(2)  # weighted → Fractions, the hardest round trip
        name = "diff-cache"
        client.register_dataset(name, case["dataset"], k=case["k"])
        kwargs = dict(
            points=case["test_X"], kind=case["kind"], flavor=case["flavor"],
            k=case["k"], pins=case["pins"], label=case["label"],
            weights=case["weights"],
        )
        first = client.query(name, **kwargs)
        second = client.query(name, **kwargs)
        assert second["cached"]
        assert second["values"] == first["values"]
        _assert_same_types(second["values"], first["values"])


def _assert_same_types(served: list, direct: list) -> None:
    """`==` is necessary but not sufficient: 1 == Fraction(1) == True. Make
    sure the wire decoded back to the same *types* the planner produced."""
    def walk(a, b):
        assert type(a) is type(b), f"type drift: {type(a).__name__} vs {type(b).__name__}"
        if isinstance(a, list):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                walk(x, y)

    walk(served, direct)
