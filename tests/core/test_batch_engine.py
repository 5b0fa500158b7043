"""Equivalence and caching tests for the parallel batch CP query engine.

The batch executor's contract is that it NEVER changes results — only how
fast they arrive. Every test here therefore compares against the sequential
per-point path (:class:`repro.core.prepared.PreparedQuery`) and demands
bit-identical output, across ``n_jobs`` values, cache states and pinned-row
mappings.
"""

import numpy as np
import pytest

from repro.cleaning.cp_clean import run_cp_clean
from repro.cleaning.oracle import GroundTruthOracle
from repro.cleaning.sequential import CleaningSession
from repro.core.batch_engine import (
    BatchQueryExecutor,
    PreparedBatch,
    QueryResultCache,
    batch_certain_labels,
    batch_q2_counts,
    fanout_map,
    resolve_n_jobs,
)
from repro.core.dataset import IncompleteDataset
from repro.core.prepared import PreparedQuery
from repro.core.queries import certain_label
from repro.core.scan import compute_scan_order, compute_scan_orders
from repro.core.screening import screen_dataset
from tests.conftest import random_incomplete_dataset


def _workload(seed=0, n_rows=24, n_val=6, n_labels=2, max_candidates=3):
    rng = np.random.default_rng(seed)
    dataset = random_incomplete_dataset(
        rng, n_rows=n_rows, n_labels=n_labels, max_candidates=max_candidates
    )
    # Regenerate until at least two rows are dirty (the tests pin rows).
    while len(dataset.uncertain_rows()) < 2:
        dataset = random_incomplete_dataset(
            rng, n_rows=n_rows, n_labels=n_labels, max_candidates=max_candidates
        )
    test_X = rng.normal(size=(n_val, dataset.n_features))
    return dataset, test_X


def _sequential_counts(dataset, test_X, k, fixed=None):
    return [PreparedQuery(dataset, t, k=k).counts(fixed) for t in test_X]


def _square(x):
    return x * x


class TestPreparedBatch:
    def test_scan_orders_match_per_point_path(self):
        dataset, test_X = _workload()
        batch = PreparedBatch(dataset, test_X, k=3)
        batched = compute_scan_orders(dataset, test_X)
        for i, t in enumerate(test_X):
            reference = compute_scan_order(dataset, t)
            for scan in (batch.scan(i), batched[i]):
                assert np.array_equal(scan.rows, reference.rows)
                assert np.array_equal(scan.cands, reference.cands)
                assert np.array_equal(scan.sims, reference.sims)

    def test_batch_built_queries_behave_like_fresh_ones(self):
        dataset, test_X = _workload(seed=3)
        batch = PreparedBatch(dataset, test_X, k=3)
        target = dataset.uncertain_rows()[0]
        for i, t in enumerate(test_X):
            fresh = PreparedQuery(dataset, t, k=3)
            from_batch = batch.query(i)
            assert from_batch.counts() == fresh.counts()
            assert from_batch.counts_per_fixing(target) == fresh.counts_per_fixing(target)
            assert from_batch.certain_label_minmax() == fresh.certain_label_minmax()

    def test_k_larger_than_rows_rejected(self):
        dataset, test_X = _workload(n_rows=4)
        with pytest.raises(ValueError, match="exceeds the number of training rows"):
            PreparedBatch(dataset, test_X, k=10)


class TestBatchCountsEquivalence:
    @pytest.mark.parametrize("n_labels", [2, 3])
    def test_counts_identical_to_sequential(self, n_labels):
        dataset, test_X = _workload(seed=1, n_labels=n_labels)
        expected = _sequential_counts(dataset, test_X, k=3)
        assert batch_q2_counts(dataset, test_X, k=3) == expected

    def test_counts_identical_with_n_jobs(self):
        dataset, test_X = _workload(seed=2)
        expected = _sequential_counts(dataset, test_X, k=3)
        assert batch_q2_counts(dataset, test_X, k=3, n_jobs=2) == expected
        assert batch_q2_counts(dataset, test_X, k=3, n_jobs=4) == expected

    def test_counts_identical_with_pinned_rows(self):
        dataset, test_X = _workload(seed=4)
        fixed = {row: 0 for row in dataset.uncertain_rows()[:2]}
        expected = _sequential_counts(dataset, test_X, k=3, fixed=fixed)
        executor = BatchQueryExecutor(dataset, test_X, k=3, cache=False)
        assert executor.counts(fixed) == expected
        parallel = BatchQueryExecutor(dataset, test_X, k=3, n_jobs=2, cache=False)
        assert parallel.counts(fixed) == expected

    def test_certain_labels_match_query_api(self):
        for n_labels in (2, 3):
            dataset, test_X = _workload(seed=5, n_labels=n_labels)
            expected = [certain_label(dataset, t, k=3) for t in test_X]
            assert batch_certain_labels(dataset, test_X, k=3) == expected

    def test_out_of_range_pin_rejected(self):
        dataset, test_X = _workload(seed=6)
        row = dataset.uncertain_rows()[0]
        executor = BatchQueryExecutor(dataset, test_X, k=3, cache=False)
        with pytest.raises(IndexError, match="out of range"):
            executor.counts({row: 99})
        # The binary MinMax path must reject bad pins too, not silently
        # read a neighbouring row's similarity.
        assert dataset.n_labels == 2
        with pytest.raises(IndexError, match="out of range"):
            executor.certain_labels({row: int(dataset.candidates(row).shape[0])})


class TestResultCache:
    def test_cache_hits_serve_identical_results(self):
        dataset, test_X = _workload(seed=7)
        executor = BatchQueryExecutor(dataset, test_X, k=3, cache=True)
        first = executor.counts()
        assert executor.cache.hits == 0
        second = executor.counts()
        assert second == first
        assert executor.cache.hits == len(test_X)
        # Cached results also match the sequential path, not just each other.
        assert second == _sequential_counts(dataset, test_X, k=3)

    def test_cache_hit_results_are_isolated_copies(self):
        dataset, test_X = _workload(seed=8)
        executor = BatchQueryExecutor(dataset, test_X, k=3, cache=True)
        first = executor.counts()
        first[0][0] = -12345  # corrupt the caller's copy
        assert executor.counts() == _sequential_counts(dataset, test_X, k=3)

    def test_distinct_pins_get_distinct_entries(self):
        dataset, test_X = _workload(seed=9)
        executor = BatchQueryExecutor(dataset, test_X, k=3, cache=True)
        row = dataset.uncertain_rows()[0]
        plain = executor.counts()
        pinned = executor.counts({row: 1})
        assert pinned == _sequential_counts(dataset, test_X, k=3, fixed={row: 1})
        assert executor.cache.hits == 0  # different keys: no false sharing
        assert executor.counts() == plain
        assert executor.cache.hits == len(test_X)

    def test_fingerprint_change_invalidates(self):
        """A shared cache never leaks results across dataset contents."""
        dataset, test_X = _workload(seed=10)
        shared = QueryResultCache()
        before = BatchQueryExecutor(dataset, test_X, k=3, cache=shared).counts()

        row = dataset.uncertain_rows()[0]
        cleaned = dataset.restrict_row(row, 1)
        assert cleaned.fingerprint() != dataset.fingerprint()

        hits_before = shared.hits
        after = BatchQueryExecutor(cleaned, test_X, k=3, cache=shared).counts()
        assert shared.hits == hits_before  # every lookup missed: new fingerprint
        assert after == _sequential_counts(cleaned, test_X, k=3)
        # The original dataset's entries are still valid and still served.
        assert BatchQueryExecutor(dataset, test_X, k=3, cache=shared).counts() == before
        assert shared.hits > hits_before

    def test_identical_content_shares_fingerprint(self):
        dataset, _ = _workload(seed=11)
        clone = IncompleteDataset(
            [dataset.candidates(i) for i in range(dataset.n_rows)], dataset.labels
        )
        assert clone.fingerprint() == dataset.fingerprint()

    def test_default_repr_kernels_never_alias_cache_entries(self):
        from repro.core.batch_engine import kernel_cache_key
        from repro.core.kernels import Kernel, RBFKernel

        class OpaqueKernel(Kernel):  # keeps object.__repr__
            def similarities(self, candidates, t):  # pragma: no cover
                raise NotImplementedError

        a, b = OpaqueKernel(), OpaqueKernel()
        assert kernel_cache_key(a) != kernel_cache_key(b)
        # Value-based reprs intentionally share keys across equal instances.
        assert kernel_cache_key(RBFKernel(2.0)) == kernel_cache_key(RBFKernel(2.0))
        assert kernel_cache_key(RBFKernel(2.0)) != kernel_cache_key(RBFKernel(3.0))

        class TweakedRBF(RBFKernel):  # inherits the parent's __repr__
            def similarities(self, candidates, t):  # pragma: no cover
                raise NotImplementedError

        # A subclass may compute different similarities, so an inherited
        # parameterised repr must not alias the parent's cache entries.
        assert kernel_cache_key(TweakedRBF(2.0)) != kernel_cache_key(RBFKernel(2.0))

    def test_lru_eviction_bounds_size(self):
        cache = QueryResultCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))  # refresh "a" so "b" is the LRU entry
        cache.put(("c",), 3)
        assert len(cache) == 2
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3

    def test_concurrent_hammer(self):
        """Many threads of get/put/clear on one instance: the broker's
        prerequisite. No exception, size stays bounded, and — because every
        lookup bumps exactly one counter under the lock — the counters
        exactly account for every get."""
        import threading

        cache = QueryResultCache(maxsize=16)
        n_threads, n_ops = 8, 500
        gets_done = [0] * n_threads
        errors: list[Exception] = []

        def hammer(thread_index: int) -> None:
            rng = np.random.default_rng(thread_index)
            try:
                for op in range(n_ops):
                    key = ("key", int(rng.integers(0, 48)))
                    roll = rng.random()
                    if roll < 0.45:
                        cache.put(key, [thread_index, op])
                    elif roll < 0.9:
                        value = cache.get(key)
                        gets_done[thread_index] += 1
                        assert value is None or isinstance(value, list)
                    elif roll < 0.95:
                        _ = cache.stats(), cache.hit_rate, len(cache)
                    else:
                        cache.clear()
            except Exception as exc:  # pragma: no cover - surfaces below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16
        # clear() resets the counters, so only a lower bound survives — but
        # hits + misses can never exceed the lookups actually performed.
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] <= sum(gets_done)
        assert 0.0 <= cache.hit_rate <= 1.0

    def test_shared_cache_across_threads_serves_consistent_values(self):
        """Two executors on different threads sharing one cache agree with
        the sequential reference throughout."""
        import threading

        dataset, test_X = _workload(seed=12)
        shared = QueryResultCache()
        expected = _sequential_counts(dataset, test_X, k=3)
        results: dict[int, list] = {}

        def run(slot: int) -> None:
            executor = BatchQueryExecutor(dataset, test_X, k=3, cache=shared)
            for _ in range(3):
                results[slot] = executor.counts()

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(results[slot] == expected for slot in results)


class TestFanout:
    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(None) >= 1
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ValueError):
            resolve_n_jobs(0)

    def test_fanout_map_covers_all_items(self):
        items = list(range(17))
        expected = sorted(x * x for x in items)
        assert sorted(fanout_map(_square, items, n_jobs=1)) == expected
        assert sorted(fanout_map(_square, items, n_jobs=3)) == expected


class TestCleaningIntegration:
    def test_session_certainty_checks_match_seed_semantics(self):
        dataset, val_X = _workload(seed=12)
        session = CleaningSession(dataset, val_X, k=3)
        expected = [
            query.certain_label_minmax(session.fixed) for query in session.queries
        ]
        assert session.val_certain_labels() == expected
        row = dataset.uncertain_rows()[0]
        session.clean_row(row, 0)
        expected = [
            query.certain_label_minmax(session.fixed) for query in session.queries
        ]
        assert session.val_certain_labels() == expected

    @pytest.mark.parametrize("n_jobs,use_cache", [(1, False), (2, True), (2, False)])
    def test_cp_clean_report_invariant_under_executor_config(self, n_jobs, use_cache):
        dataset, val_X = _workload(seed=13, n_rows=16, n_val=4)
        oracle = GroundTruthOracle([0] * dataset.n_rows)
        baseline = run_cp_clean(dataset, val_X, oracle, k=3, max_cleaned=3)
        report = run_cp_clean(
            dataset, val_X, oracle, k=3, max_cleaned=3,
            n_jobs=n_jobs, use_cache=use_cache,
        )
        assert [s.row for s in report.steps] == [s.row for s in baseline.steps]
        assert [s.expected_entropy for s in report.steps] == [
            s.expected_entropy for s in baseline.steps
        ]
        assert report.final_fixed == baseline.final_fixed
        assert report.cp_fraction_final == baseline.cp_fraction_final


class TestEmptyTestSet:
    @pytest.mark.parametrize("kernel", ["euclidean", "rbf", "linear", "cosine"])
    def test_empty_test_matrix_yields_empty_results(self, kernel):
        dataset, _ = _workload(seed=15)
        empty = np.empty((0, dataset.n_features))
        executor = BatchQueryExecutor(dataset, empty, k=3, kernel=kernel)
        assert executor.counts() == []
        assert executor.certain_labels() == []
        assert screen_dataset(dataset, empty, k=3, kernel=kernel).cp_fraction == 1.0

    def test_empty_validation_set_session(self):
        dataset, _ = _workload(seed=16)
        empty = np.empty((0, dataset.n_features))
        session = CleaningSession(dataset, empty, k=3, kernel="linear")
        assert session.cp_fraction() == 1.0


class TestScreeningIntegration:
    def test_screening_matches_sequential_path(self):
        dataset, test_X = _workload(seed=14, n_labels=3)
        result = screen_dataset(dataset, test_X, k=3)
        assert result.counts == _sequential_counts(dataset, test_X, k=3)
        parallel = screen_dataset(dataset, test_X, k=3, n_jobs=2)
        assert parallel.counts == result.counts
        assert parallel.certain_labels == result.certain_labels
        assert parallel.entropies == result.entropies
