"""The unified planner: registry, planning, and the cross-backend matrix.

The load-bearing guarantee is the equivalence matrix: for random small
incomplete datasets, every task flavor × every capable backend must return
**bit-identical** values — including with pins applied mid-cleaning — and
the counting flavors must match the brute-force world enumeration.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_counts
from repro.core.dataset import IncompleteDataset
from repro.core.label_uncertainty import LabelUncertainDataset
from repro.core.planner import (
    Backend,
    BackendCapabilities,
    ExecutionOptions,
    IncrementalBackend,
    PlanError,
    backend_names,
    capable_backends,
    execute_query,
    get_backend,
    make_query,
    plan_query,
    register_backend,
)


def random_dataset(seed: int, n_rows: int = 6, n_labels: int = 2) -> IncompleteDataset:
    """A small random incomplete dataset with a mix of clean and dirty rows."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n_rows):
        m = int(rng.integers(1, 4))
        sets.append(rng.normal(size=(m, 2)))
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[0] = 0  # every label space size is as declared
    labels[1] = n_labels - 1
    return IncompleteDataset(sets, labels)


def some_pins(dataset: IncompleteDataset, seed: int, n_pins: int = 2) -> dict[int, int]:
    """Pins on the first dirty rows, as a mid-cleaning session would apply."""
    rng = np.random.default_rng(seed + 1000)
    counts = dataset.candidate_counts()
    pins = {}
    for row in dataset.uncertain_rows()[:n_pins]:
        pins[row] = int(rng.integers(0, counts[row]))
    return pins


def capable_names(query) -> list[str]:
    return [backend.name for backend in capable_backends(query)]


class TestRegistry:
    def test_default_backends_registered(self):
        assert backend_names() == ["sequential", "batch", "incremental", "sharded"]

    def test_get_backend_unknown_raises(self):
        with pytest.raises(PlanError, match="unknown backend"):
            get_backend("gpu")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(get_backend("batch"))

    def test_declared_capabilities(self):
        assert get_backend("incremental").capabilities.incremental
        assert get_backend("batch").capabilities.batchable
        assert get_backend("sharded").capabilities.batchable
        assert not get_backend("sequential").capabilities.batchable
        for name in backend_names():
            assert get_backend(name).capabilities.exact

    def test_custom_backend_registers_and_plans(self):
        class NullBackend(Backend):
            name = "null-test"
            capabilities = BackendCapabilities(flavors=frozenset({"binary"}))

            def estimate_cost(self, query, options):
                return float("inf"), "never picked automatically"

            def execute(self, query, options=None):
                return [None] * query.n_points, {}

        try:
            register_backend(NullBackend())
            dataset = random_dataset(0)
            query = make_query(dataset, np.zeros((2, 2)), k=1)
            assert "null-test" in capable_names(query)
            # auto never picks the infinite-cost backend ...
            assert plan_query(query).backend != "null-test"
            # ... but an explicit request runs it.
            assert execute_query(query, backend="null-test").values == [None, None]
        finally:
            from repro.core import planner

            planner._REGISTRY.pop("null-test", None)


class TestRegistryErrorPaths:
    """The registry's failure modes: precise errors, no partial state."""

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(PlanError) as excinfo:
            get_backend("gpu")
        message = str(excinfo.value)
        for name in ("sequential", "batch", "incremental", "sharded"):
            assert name in message

    def test_unknown_backend_raises_through_plan_and_execute(self):
        dataset = random_dataset(61)
        query = make_query(dataset, np.zeros((2, 2)), k=1)
        with pytest.raises(PlanError, match="unknown backend"):
            plan_query(query, backend="gpu")
        with pytest.raises(PlanError, match="unknown backend"):
            execute_query(query, backend="gpu")

    def test_capability_mismatch_flavor(self):
        dataset = random_dataset(62)
        query = make_query(dataset, np.zeros((2, 2)), k=1, flavor="weighted")
        with pytest.raises(PlanError, match="cannot serve"):
            plan_query(query, backend="incremental")

    @pytest.mark.parametrize("backend", ["batch", "incremental", "sharded"])
    def test_capability_mismatch_algorithm(self, backend):
        # Only the sequential backend honours the published algorithm
        # overrides; every other explicit request must fail loudly.
        dataset = random_dataset(63)
        query = make_query(dataset, np.zeros((2, 2)), k=1, algorithm="naive")
        with pytest.raises(PlanError, match="cannot serve"):
            plan_query(query, backend=backend)

    def test_mismatch_error_names_capabilities(self):
        dataset = random_dataset(64)
        query = make_query(dataset, np.zeros((2, 2)), k=1, flavor="weighted")
        with pytest.raises(PlanError, match="capabilities"):
            execute_query(query, backend="incremental")

    def test_double_registration_rejected_and_registry_intact(self):
        before = backend_names()
        with pytest.raises(ValueError, match="already registered"):
            register_backend(get_backend("sharded"))
        assert backend_names() == before

    def test_replace_reregisters_under_same_name(self):
        original = get_backend("sharded")
        try:
            from repro.core.shards import ShardedBackend

            replacement = ShardedBackend(tile_rows=2)
            assert register_backend(replacement, replace=True) is replacement
            assert get_backend("sharded") is replacement
        finally:
            register_backend(original, replace=True)
        assert get_backend("sharded") is original


class TestPlanning:
    def test_single_point_goes_sequential(self):
        dataset = random_dataset(1)
        plan = plan_query(make_query(dataset, np.zeros((1, 2)), k=2))
        assert plan.backend == "sequential"

    def test_batch_goes_parallel(self):
        dataset = random_dataset(2)
        plan = plan_query(make_query(dataset, np.zeros((8, 2)), k=2))
        assert plan.backend == "batch"
        assert dict(plan.considered)["sequential"] > plan.cost

    def test_warm_incremental_state_wins(self):
        backend = IncrementalBackend()
        dataset = random_dataset(3)
        test_X = np.zeros((4, 2))
        query = make_query(dataset, test_X, k=2)
        cold, _ = backend.estimate_cost(query, ExecutionOptions())
        backend.execute(query)
        warm, reason = backend.estimate_cost(query, ExecutionOptions())
        assert warm < cold
        assert "delta" in reason

    def test_explicit_incapable_backend_raises(self):
        dataset = random_dataset(4)
        query = make_query(dataset, np.zeros((2, 2)), k=1, flavor="weighted")
        with pytest.raises(PlanError, match="cannot serve"):
            plan_query(query, backend="incremental")

    def test_algorithm_override_forces_sequential(self):
        dataset = random_dataset(5)
        query = make_query(dataset, np.zeros((4, 2)), k=2, algorithm="tree")
        assert capable_names(query) == ["sequential"]
        assert plan_query(query).backend == "sequential"

    def test_empty_test_set_executes_to_nothing(self):
        dataset = random_dataset(6)
        query = make_query(dataset, np.zeros((0, 2)), k=2)
        assert execute_query(query).values == []


class TestMakeQuery:
    def test_flavor_inference(self):
        binary = random_dataset(7, n_labels=2)
        multi = random_dataset(7, n_labels=3)
        lu = LabelUncertainDataset.from_incomplete(binary, flip_rows=[0])
        assert make_query(binary, np.zeros((1, 2)), k=1).flavor == "binary"
        assert make_query(multi, np.zeros((1, 2)), k=1).flavor == "multiclass"
        assert make_query(lu, np.zeros((1, 2)), k=1).flavor == "label_uncertainty"
        weights = [[Fraction(1, m)] * m for m in binary.candidate_counts()]
        assert (
            make_query(binary, np.zeros((1, 2)), k=1, weights=weights).flavor
            == "weighted"
        )

    def test_invalid_combinations_rejected(self):
        dataset = random_dataset(8, n_labels=3)
        with pytest.raises(ValueError, match="binary"):
            make_query(dataset, np.zeros((1, 2)), k=1, flavor="binary")
        with pytest.raises(ValueError, match="topk"):
            make_query(dataset, np.zeros((1, 2)), k=1, flavor="topk", kind="certain_label")
        with pytest.raises(ValueError, match="label"):
            make_query(dataset, np.zeros((1, 2)), k=1, kind="check")
        with pytest.raises(IndexError):
            make_query(dataset, np.zeros((1, 2)), k=1, pins={0: 99})
        with pytest.raises(ValueError, match="exceeds"):
            make_query(dataset, np.zeros((1, 2)), k=99)


class TestEquivalenceMatrix:
    """Every capable backend must return bit-identical values."""

    SEEDS = [11, 12, 13]

    def assert_backends_agree(self, query, options=None, oracle=None):
        names = capable_names(query)
        assert names, f"no backend serves {query!r}"
        reference = None
        for name in names:
            values = execute_query(query, backend=name, options=options).values
            if reference is None:
                reference = (name, values)
            else:
                assert values == reference[1], (
                    f"{name} diverged from {reference[0]} on {query!r}"
                )
        if oracle is not None:
            assert reference[1] == oracle, f"backends diverge from oracle on {query!r}"
        return reference[1]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_labels", [2, 3])
    @pytest.mark.parametrize("kind", ["counts", "certain_label"])
    def test_counting_flavors(self, seed, n_labels, kind):
        dataset = random_dataset(seed, n_labels=n_labels)
        rng = np.random.default_rng(seed + 500)
        test_X = rng.normal(size=(3, 2))
        for pins in ({}, some_pins(dataset, seed)):
            query = make_query(dataset, test_X, kind=kind, k=2, pins=pins)
            oracle = None
            if kind == "counts":
                restricted = dataset
                for row, cand in pins.items():
                    restricted = restricted.restrict_row(row, cand)
                oracle = [brute_force_counts(restricted, t, k=2) for t in test_X]
            self.assert_backends_agree(query, oracle=oracle)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_check_kind(self, seed):
        dataset = random_dataset(seed, n_labels=2)
        test_X = np.random.default_rng(seed).normal(size=(3, 2))
        query = make_query(dataset, test_X, kind="check", label=1, k=2)
        values = self.assert_backends_agree(query)
        assert all(isinstance(v, bool) for v in values)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_weighted_flavor(self, seed):
        dataset = random_dataset(seed, n_labels=2)
        rng = np.random.default_rng(seed + 600)
        test_X = rng.normal(size=(3, 2))
        # A non-uniform exact prior per dirty row.
        weights = []
        for m in dataset.candidate_counts():
            m = int(m)
            raw = [Fraction(int(rng.integers(1, 5)), 1) for _ in range(m)]
            total = sum(raw)
            weights.append([w / total for w in raw])
        for pins in ({}, some_pins(dataset, seed)):
            query = make_query(
                dataset, test_X, kind="counts", flavor="weighted", k=2,
                weights=weights, pins=pins,
            )
            values = self.assert_backends_agree(query)
            assert all(sum(probs) == 1 for probs in values)
        # Uniform prior must reproduce the integer counts exactly.
        uniform = make_query(dataset, test_X, kind="counts", flavor="weighted", k=2)
        counts = make_query(dataset, test_X, kind="counts", k=2)
        n_worlds = dataset.n_worlds()
        probs = self.assert_backends_agree(uniform)
        exact = self.assert_backends_agree(counts)
        assert probs == [
            [Fraction(c, n_worlds) for c in point] for point in exact
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_topk_flavor(self, seed):
        dataset = random_dataset(seed, n_labels=2)
        test_X = np.random.default_rng(seed + 700).normal(size=(3, 2))
        for pins in ({}, some_pins(dataset, seed)):
            query = make_query(
                dataset, test_X, kind="counts", flavor="topk", k=2, pins=pins
            )
            values = self.assert_backends_agree(query)
            restricted = dataset
            for row, cand in pins.items():
                restricted = restricted.restrict_row(row, cand)
            for counts in values:
                assert sum(counts) == 2 * restricted.n_worlds()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_label_uncertainty_flavor(self, seed):
        dataset = random_dataset(seed, n_labels=2, n_rows=5)
        lu = LabelUncertainDataset.from_incomplete(dataset, flip_rows=[0, 2])
        test_X = np.random.default_rng(seed + 800).normal(size=(3, 2))
        for pins in ({}, some_pins(dataset, seed, n_pins=1)):
            query = make_query(lu, test_X, kind="counts", k=2, pins=pins)
            values = self.assert_backends_agree(query)
            restricted = lu
            for row, cand in pins.items():
                restricted = restricted.restrict_row(row, cand)
            for counts in values:
                assert sum(counts) == restricted.n_worlds()

    def test_incremental_pins_grow_across_calls(self):
        """The session workload: one state, pins applied one at a time."""
        dataset = random_dataset(21, n_labels=3)
        test_X = np.random.default_rng(21).normal(size=(4, 2))
        backend = IncrementalBackend()
        pins: dict[int, int] = {}
        for row in dataset.uncertain_rows():
            pins[row] = 0
            query = make_query(dataset, test_X, kind="counts", k=2, pins=pins)
            incremental, _ = backend.execute(query)
            sequential = execute_query(query, backend="sequential").values
            assert incremental == sequential
        assert backend.n_rebuilds == 1
        assert backend.n_reuses == len(pins) - 1


class TestCachingAndOptions:
    def test_batch_cache_serves_repeats(self):
        from repro.core.planner import BatchParallelBackend

        backend = BatchParallelBackend()
        dataset = random_dataset(31)
        test_X = np.random.default_rng(31).normal(size=(4, 2))
        query = make_query(dataset, test_X, kind="counts", k=2)
        first, _ = backend.execute(query, ExecutionOptions(cache=True))
        hits_before = backend.cache.hits
        second, _ = backend.execute(query, ExecutionOptions(cache=True))
        assert second == first
        assert backend.cache.hits >= hits_before + len(test_X)

    def test_prepared_handoff_is_used(self):
        from repro.core.batch_engine import PreparedBatch
        from repro.core.planner import BatchParallelBackend

        backend = BatchParallelBackend()
        dataset = random_dataset(32)
        test_X = np.random.default_rng(32).normal(size=(3, 2))
        prepared = PreparedBatch(dataset, test_X, k=2)
        options = ExecutionOptions(cache=False, prepared=prepared)
        query = make_query(dataset, test_X, kind="counts", k=2)
        values, _ = backend.execute(query, options)
        assert values == execute_query(query, backend="sequential").values
        assert not backend._prepared  # the handed-in batch was used, not rebuilt

    def test_n_jobs_does_not_change_results(self):
        dataset = random_dataset(33)
        test_X = np.random.default_rng(33).normal(size=(6, 2))
        query = make_query(dataset, test_X, kind="counts", k=2)
        single = execute_query(query, backend="batch", options=ExecutionOptions(n_jobs=1)).values
        multi = execute_query(query, backend="batch", options=ExecutionOptions(n_jobs=2)).values
        assert single == multi


class TestExecutionOptionsValidation:
    """Library callers get the same knob validation the CLI flags enforce."""

    def test_defaults_and_sentinels_accepted(self):
        ExecutionOptions()
        ExecutionOptions(n_jobs=None)
        ExecutionOptions(n_jobs=-1)  # the all-CPUs sentinel
        ExecutionOptions(n_jobs=4, tile_rows=8, tile_candidates=128)
        ExecutionOptions(n_jobs=np.int64(2))  # numpy integers are integers

    def test_zero_n_jobs_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            ExecutionOptions(n_jobs=0)

    def test_other_negative_n_jobs_rejected(self):
        # -1 is the conventional sentinel; -2 etc. used to silently mean
        # "all CPUs", which hid typos — exactly what the CLI flag rejects.
        with pytest.raises(ValueError, match="-1"):
            ExecutionOptions(n_jobs=-2)

    def test_non_integer_n_jobs_rejected(self):
        with pytest.raises(TypeError, match="n_jobs"):
            ExecutionOptions(n_jobs=2.5)
        with pytest.raises(TypeError, match="n_jobs"):
            ExecutionOptions(n_jobs=True)

    @pytest.mark.parametrize("knob", ["tile_rows", "tile_candidates"])
    def test_tile_bounds_must_be_positive(self, knob):
        with pytest.raises(ValueError, match=knob):
            ExecutionOptions(**{knob: 0})
        with pytest.raises(ValueError, match=knob):
            ExecutionOptions(**{knob: -3})
        with pytest.raises(TypeError, match=knob):
            ExecutionOptions(**{knob: 2.0})


class TestFrontDoorGuards:
    """The single-point front door must not silently mis-handle matrices."""

    def test_q2_counts_rejects_matrices(self):
        from repro.core.queries import q2_counts

        dataset = random_dataset(51)
        with pytest.raises(ValueError):
            q2_counts(dataset, np.zeros((2, 2)), k=1)

    def test_unknown_backend_rejected_even_on_minmax_shortcut(self):
        from repro.core.queries import certain_label, q1

        dataset = random_dataset(52, n_labels=2)  # binary: MM shortcut fires
        t = np.zeros(2)
        with pytest.raises(PlanError, match="unknown backend"):
            q1(dataset, t, 0, k=1, backend="gpu")
        with pytest.raises(PlanError, match="unknown backend"):
            certain_label(dataset, t, k=1, backend="gpu")


class TestSessionBackends:
    """A cleaning session must report identically on every backend."""

    def test_session_reports_identical_across_backends(self):
        from repro.cleaning.cp_clean import run_cp_clean
        from repro.cleaning.oracle import GroundTruthOracle
        from repro.data.task import build_cleaning_task

        task = build_cleaning_task("supreme", n_train=30, n_val=6, n_test=10, seed=3)
        oracle = GroundTruthOracle(task.gt_choice)
        reports = {
            name: run_cp_clean(
                task.incomplete, task.val_X, oracle, k=task.k, backend=name
            )
            for name in ("auto", "sequential", "batch", "incremental", "sharded")
        }
        reference = reports["auto"]
        for name, report in reports.items():
            assert report.final_fixed == reference.final_fixed, name
            assert report.cp_fraction_final == reference.cp_fraction_final, name
            assert [s.row for s in report.steps] == [s.row for s in reference.steps], name

    def test_session_rejects_unknown_backend(self):
        from repro.cleaning.sequential import CleaningSession

        dataset = random_dataset(41)
        with pytest.raises(PlanError, match="unknown backend"):
            CleaningSession(dataset, np.zeros((2, 2)), k=1, backend="gpu")
