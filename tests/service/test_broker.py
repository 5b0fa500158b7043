"""QueryBroker: group commit, admission control, the TTL result cache."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.planner import ExecutionOptions, PlanError, execute_query, make_query
from repro.service.broker import AdmissionError, QueryBroker, TTLResultCache
from repro.service.registry import DatasetRegistry


def small_dataset() -> IncompleteDataset:
    rng = np.random.default_rng(3)
    sets = [rng.normal(size=(m, 2)) for m in (1, 3, 2, 2, 1, 3)]
    return IncompleteDataset(sets, [0, 1, 0, 1, 1, 0])


@pytest.fixture
def registry() -> DatasetRegistry:
    registry = DatasetRegistry()
    registry.register("d", small_dataset(), k=2)
    return registry


# ---------------------------------------------------------------------------
# TTLResultCache
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTTLResultCache:
    def test_entries_expire_after_ttl(self):
        clock = FakeClock()
        cache = TTLResultCache(maxsize=8, ttl_s=10.0, clock=clock)
        cache.put("key", [1, 2])
        assert cache.get("key") == [1, 2]
        clock.now = 9.9
        assert cache.get("key") == [1, 2]
        clock.now = 10.1
        assert cache.get("key") is None  # expired == miss
        assert cache.stats()["expirations"] == 1
        assert len(cache) == 0

    def test_lru_eviction_at_maxsize(self):
        cache = TTLResultCache(maxsize=2, ttl_s=100.0, clock=FakeClock())
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_purge_drops_only_expired(self):
        clock = FakeClock()
        cache = TTLResultCache(maxsize=8, ttl_s=5.0, clock=clock)
        cache.put("old", 1)
        clock.now = 3.0
        cache.put("new", 2)
        clock.now = 5.5  # 'old' expired at 5.0, 'new' expires at 8.0
        assert cache.purge() == 1
        assert len(cache) == 1 and cache.get("new") == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TTLResultCache(maxsize=0)
        with pytest.raises(ValueError):
            TTLResultCache(ttl_s=0)

    def test_concurrent_hammer(self):
        cache = TTLResultCache(maxsize=32, ttl_s=100.0)
        n_threads, n_ops = 8, 400
        errors: list[Exception] = []

        def hammer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for i in range(n_ops):
                    key = ("k", int(rng.integers(0, 64)))
                    if rng.random() < 0.5:
                        cache.put(key, i)
                    else:
                        cache.get(key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 32
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] <= n_threads * n_ops


# ---------------------------------------------------------------------------
# Group commit
# ---------------------------------------------------------------------------


class FlushGate:
    """Holds a broker's flushes open: the wrapped ``_execute`` records each
    flush's thread and points, then waits for ``release`` before running."""

    def __init__(self, broker: QueryBroker, monkeypatch) -> None:
        self.broker = broker
        self.release = threading.Event()
        self.flushes: list[tuple[int, np.ndarray]] = []
        original = broker._execute

        def gated(entry, snap, test_X, params):
            self.flushes.append((threading.get_ident(), test_X.copy()))
            assert self.release.wait(timeout=10.0), "flush gate never released"
            return original(entry, snap, test_X, params)

        monkeypatch.setattr(broker, "_execute", gated)

    def sizes(self) -> list[int]:
        return [test_X.shape[0] for _, test_X in self.flushes]

    def wait_for(self, n_flushes: int = 1, n_queued: int = 0) -> None:
        """Until ``n_flushes`` flushes started and ``n_queued`` requests wait
        behind them."""
        deadline = time.monotonic() + 10.0
        while len(self.flushes) < n_flushes or self.queued() < n_queued:
            assert time.monotonic() < deadline, "requests never reached the broker"
            time.sleep(0.001)

    def queued(self) -> int:
        return sum(len(family.queued) for family in list(self.broker._pending.values()))


def ask_concurrently(broker, points, results, indices) -> list[threading.Thread]:
    """Start one caller thread per index, asking for ``points[index]``."""

    def ask(index: int) -> None:
        try:
            results[index] = broker.query("d", points[index], kind="counts")
        except Exception as exc:  # noqa: BLE001 — the test inspects it
            results[index] = exc

    threads = [threading.Thread(target=ask, args=(i,)) for i in indices]
    for thread in threads:
        thread.start()
    return threads


def join_all(threads) -> None:
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "a caller hung"


class TestGroupCommit:
    def test_idle_read_dispatches_at_once_without_a_timer(self, registry, monkeypatch):
        broker = QueryBroker(registry, max_batch=16, cache=False)
        gate = FlushGate(broker, monkeypatch)
        gate.release.set()

        def no_threads(self):
            raise AssertionError("the broker started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        response = broker.query("d", np.zeros(2), kind="counts")
        monkeypatch.undo()
        assert gate.flushes[0][0] == threading.get_ident()  # the caller's thread
        assert response["batch_size"] == 1 and not response["cached"]
        assert not broker._pending  # the family went idle again
        broker.close()

    def test_reads_queued_behind_a_flush_run_as_one_flush(self, registry, monkeypatch):
        entry = registry.get("d")
        broker = QueryBroker(registry, max_batch=16, cache=False)
        gate = FlushGate(broker, monkeypatch)
        points = np.random.default_rng(2).normal(size=(9, 2))
        results: dict[int, object] = {}
        threads = ask_concurrently(broker, points, results, [0])
        gate.wait_for(n_flushes=1)
        threads += ask_concurrently(broker, points, results, range(1, len(points)))
        gate.wait_for(n_flushes=1, n_queued=8)
        gate.release.set()
        join_all(threads)
        assert gate.sizes() == [1, 8]
        assert [results[i]["batch_size"] for i in range(9)] == [1] + [8] * 8
        metrics = broker.metrics()
        assert metrics["batches_executed"] == 2 and metrics["coalesced_batches"] == 1
        direct = execute_query(
            make_query(entry.dataset, points, kind="counts", k=entry.k),
            options=ExecutionOptions(cache=False),
        ).values
        assert [results[i]["values"][0] for i in range(9)] == direct
        broker.close()

    def test_queue_beyond_max_batch_splits(self, registry, monkeypatch):
        broker = QueryBroker(registry, max_batch=2, cache=False)
        gate = FlushGate(broker, monkeypatch)
        points = np.random.default_rng(1).normal(size=(6, 2))
        results: dict[int, object] = {}
        threads = ask_concurrently(broker, points, results, [0])
        gate.wait_for(n_flushes=1)
        threads += ask_concurrently(broker, points, results, range(1, len(points)))
        gate.wait_for(n_flushes=1, n_queued=5)
        gate.release.set()
        join_all(threads)
        assert gate.sizes() == [1, 2, 2, 1]
        assert sorted(results[i]["batch_size"] for i in range(6)) == [1, 1, 2, 2, 2, 2]
        assert not broker._pending
        broker.close()

    def test_no_thread_runs_a_flush_without_its_own_request(self, registry, monkeypatch):
        broker = QueryBroker(registry, max_batch=3, cache=False)
        gate = FlushGate(broker, monkeypatch)
        points = np.random.default_rng(6).normal(size=(10, 2))
        own: dict[int, list[float]] = {}
        results: dict[int, object] = {}

        def ask(index: int) -> None:
            own[threading.get_ident()] = points[index].tolist()
            results[index] = broker.query("d", points[index], kind="counts")

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(10)]
        threads[0].start()
        gate.wait_for(n_flushes=1)
        for thread in threads[1:]:
            thread.start()
        gate.wait_for(n_flushes=1, n_queued=9)
        gate.release.set()
        join_all(threads)
        assert gate.sizes() == [1, 3, 3, 3]
        for thread_id, test_X in gate.flushes:
            assert own[thread_id] in test_X.tolist()
        # Each flush ran on a different caller: nobody served a second batch.
        assert len({thread_id for thread_id, _ in gate.flushes}) == 4

    def test_failed_flush_still_hands_the_family_on(self, registry, monkeypatch):
        broker = QueryBroker(registry, max_batch=16, cache=False)
        gate = FlushGate(broker, monkeypatch)
        gated = broker._execute
        calls = []

        def fail_first(entry, snap, test_X, params):
            calls.append(test_X.shape[0])
            result = gated(entry, snap, test_X, params)
            if len(calls) == 1:
                raise RuntimeError("flush failed")
            return result

        monkeypatch.setattr(broker, "_execute", fail_first)
        points = np.random.default_rng(7).normal(size=(4, 2))
        results: dict[int, object] = {}
        threads = ask_concurrently(broker, points, results, [0])
        gate.wait_for(n_flushes=1)
        threads += ask_concurrently(broker, points, results, range(1, len(points)))
        gate.wait_for(n_flushes=1, n_queued=3)
        gate.release.set()
        join_all(threads)
        assert isinstance(results[0], RuntimeError)
        assert all(results[i]["batch_size"] == 3 for i in (1, 2, 3))
        assert not broker._pending and broker.metrics()["inflight"] == 0
        broker.close()

    def test_timed_out_queued_read_withdraws(self, registry, monkeypatch):
        broker = QueryBroker(registry, max_batch=16, cache=False)
        gate = FlushGate(broker, monkeypatch)
        results: dict[int, object] = {}
        threads = ask_concurrently(broker, np.zeros((1, 2)), results, [0])
        gate.wait_for(n_flushes=1)
        with pytest.raises(TimeoutError):
            broker.query("d", np.ones(2), kind="counts", timeout=0.05)
        assert gate.queued() == 0
        gate.release.set()
        join_all(threads)
        assert gate.sizes() == [1]
        assert not broker._pending and broker.metrics()["inflight"] == 0
        broker.close()

    def test_different_families_do_not_coalesce(self, registry):
        """Same point, different pins → different query families."""
        broker = QueryBroker(registry, max_batch=16, cache=False)
        point = np.zeros(2)
        results: dict[str, dict] = {}

        def ask(tag: str, pins) -> None:
            results[tag] = broker.query("d", point, kind="counts", pins=pins)

        dirty = registry.get("d").dataset.uncertain_rows()[0]
        threads = [
            threading.Thread(target=ask, args=("plain", None)),
            threading.Thread(target=ask, args=("pinned", {dirty: 0})),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results["plain"]["batch_size"] == 1
        assert results["pinned"]["batch_size"] == 1
        assert broker.metrics()["batches_executed"] == 2
        broker.close()

    def test_per_request_mode_skips_batching(self, registry):
        broker = QueryBroker(registry, max_batch=1, cache=False)
        response = broker.query("d", np.zeros(2), kind="counts")
        assert response["batch_size"] == 1 and not response["cached"]
        assert broker.metrics()["coalesced_batches"] == 0
        assert not broker._pending  # never entered group commit
        broker.close()

    def test_matrix_request_executes_as_one_batch(self, registry):
        broker = QueryBroker(registry, max_batch=16, cache=False)
        points = np.random.default_rng(4).normal(size=(5, 2))
        response = broker.query("d", points, kind="counts")
        assert len(response["values"]) == 5
        assert response["batch_size"] == 5
        assert broker.metrics()["multi_point_requests"] == 1
        broker.close()

    def test_query_errors_propagate_to_the_caller(self, registry):
        broker = QueryBroker(registry, max_batch=8, cache=False)
        with pytest.raises(ValueError, match="topk"):
            broker.query("d", np.zeros(2), kind="check", flavor="topk", label=0)
        with pytest.raises(PlanError):
            broker.query("d", np.zeros(2), kind="counts", backend="nope")
        # The broker must remain serviceable after request errors.
        assert broker.query("d", np.zeros(2), kind="counts")["values"]
        assert broker.metrics()["inflight"] == 0
        broker.close()


# ---------------------------------------------------------------------------
# Caching and admission control
# ---------------------------------------------------------------------------


class TestCachingAndAdmission:
    def test_single_point_results_are_ttl_cached(self, registry):
        broker = QueryBroker(registry, max_batch=1, cache=True, ttl_s=60.0)
        point = np.zeros(2)
        first = broker.query("d", point, kind="counts")
        second = broker.query("d", point, kind="counts")
        assert not first["cached"] and second["cached"]
        assert second["values"] == first["values"]
        assert broker.metrics()["served_from_cache"] == 1
        broker.close()

    def test_matrix_results_are_ttl_cached(self, registry):
        broker = QueryBroker(registry, max_batch=1, cache=True)
        points = np.random.default_rng(5).normal(size=(3, 2))
        first = broker.query("d", points, kind="counts")
        second = broker.query("d", points, kind="counts")
        assert not first["cached"] and second["cached"]
        assert second["values"] == first["values"]
        broker.close()

    def test_admission_rejects_beyond_max_pending(self, registry, monkeypatch):
        broker = QueryBroker(registry, max_batch=64, max_pending=1, cache=False)
        gate = FlushGate(broker, monkeypatch)
        results: dict[int, object] = {}
        threads = ask_concurrently(broker, np.zeros((1, 2)), results, [0])
        gate.wait_for(n_flushes=1)  # the admitted request holds the one slot
        with pytest.raises(AdmissionError) as excinfo:
            broker.query("d", np.ones(2), kind="counts")
        assert excinfo.value.retry_after > 0
        assert broker.metrics()["rejected"] == 1
        gate.release.set()
        join_all(threads)
        assert results[0]["values"]  # the admitted request completed
        broker.close()

    def test_admission_also_covers_direct_dispatch(self, registry, monkeypatch):
        """Matrix queries and per-request brokers must shed load too, not
        just the group-committed single-point path."""
        broker = QueryBroker(registry, max_batch=64, max_pending=1, cache=False)
        gate = FlushGate(broker, monkeypatch)
        threads = ask_concurrently(broker, np.zeros((1, 2)), {}, [0])
        gate.wait_for(n_flushes=1)  # the single-point request occupies the slot
        with pytest.raises(AdmissionError):
            broker.query("d", np.zeros((3, 2)), kind="counts")  # matrix path
        gate.release.set()
        join_all(threads)
        broker.close()

    def test_close_drains_queued_reads(self, registry, monkeypatch):
        broker = QueryBroker(registry, max_batch=64, cache=False)
        gate = FlushGate(broker, monkeypatch)
        results: dict[int, object] = {}
        points = np.random.default_rng(8).normal(size=(3, 2))
        threads = ask_concurrently(broker, points, results, [0])
        gate.wait_for(n_flushes=1)
        threads += ask_concurrently(broker, points, results, range(1, len(points)))
        gate.wait_for(n_flushes=1, n_queued=2)
        closer = threading.Thread(target=broker.close)
        closer.start()
        closer.join(timeout=0.1)
        assert closer.is_alive()  # close() waits for the held flush
        gate.release.set()
        join_all([*threads, closer])
        assert gate.sizes() == [1, 2]  # close drained, did not strand, the queue
        assert all(results[i]["values"] for i in range(3))
        assert not broker._pending

    def test_closed_broker_rejects_new_requests(self, registry):
        broker = QueryBroker(registry, max_batch=8, cache=False)
        broker.close()
        with pytest.raises(AdmissionError, match="shut down"):
            broker.query("d", np.zeros(2), kind="counts")
        with pytest.raises(AdmissionError, match="shut down"):
            broker.query("d", np.zeros((2, 2)), kind="counts")

    def test_invalid_max_batch_rejected(self, registry):
        with pytest.raises(ValueError):
            QueryBroker(registry, max_batch=0)


class TestCloseRace:
    """close() vs in-flight _submit_single: nobody hangs, nothing leaks.

    A request that passes admission can reach the group-commit critical
    section after close() saw every family drain; without the re-check it
    would start a flush that outlives the closed broker. The hammer drives
    that window hard: every submitter must terminate with either a real
    answer or a clear AdmissionError — never a stuck future.
    """

    @pytest.mark.parametrize("round_", range(4))
    def test_concurrent_close_never_strands_a_request(self, registry, round_):
        broker = QueryBroker(registry, max_batch=1024, cache=False)
        n_threads = 12
        start = threading.Barrier(n_threads + 1)
        outcomes: list[str] = []
        lock = threading.Lock()

        def submit(index: int) -> None:
            start.wait()
            try:
                response = broker.query(
                    "d", np.zeros(2), kind="counts", timeout=10.0
                )
                outcome = "answered" if response["values"] else "empty"
            except AdmissionError:
                outcome = "rejected"
            with lock:
                outcomes.append(outcome)

        threads = [
            threading.Thread(target=submit, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        time.sleep(0.001 * round_)  # vary where close() lands in the window
        broker.close()
        for thread in threads:
            thread.join(timeout=15.0)
            assert not thread.is_alive(), "a submitter hung against close()"
        assert len(outcomes) == n_threads
        assert set(outcomes) <= {"answered", "rejected"}
        # close() returned only after every family drained.
        assert not broker._pending

    def test_post_close_insertion_window_fails_cleanly(self, registry, monkeypatch):
        """Deterministic replay of the race: admission passes, then close()
        lands before the insertion critical section runs."""
        broker = QueryBroker(registry, max_batch=64, cache=False)
        original = broker._family_key
        entered = threading.Event()
        proceed = threading.Event()

        def stalled_family_key(*args, **kwargs):
            entered.set()
            proceed.wait(timeout=10.0)
            return original(*args, **kwargs)

        monkeypatch.setattr(broker, "_family_key", stalled_family_key)
        failure: dict[str, object] = {}

        def submit() -> None:
            try:
                broker.query("d", np.zeros(2), kind="counts", timeout=10.0)
            except AdmissionError as exc:
                failure["error"] = exc

        thread = threading.Thread(target=submit)
        thread.start()
        assert entered.wait(timeout=5.0)
        monkeypatch.setattr(broker, "_family_key", original)
        broker.close()  # finds no family running while the submitter stalls
        proceed.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert isinstance(failure.get("error"), AdmissionError)
        assert "enqueued" in str(failure["error"])
        assert not broker._pending
