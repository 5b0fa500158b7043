"""Statistics and tracing helpers shared by every workload.

Everything here is pure Python over plain numbers, so it is tested on its
own (``perfbench/test_benchstats.py``) and never imports the program.

* :func:`tail_percentile` — the highest percentile that still has at least
  ten samples beyond it, falling back to the median on short runs.
* :class:`SpanRecorder` / :func:`self_times` — benchmark-side spans (name,
  start, end, parent, request id) kept in memory; a layer's self time is
  its span minus the part of it its child spans cover.
* :class:`OpenLoopSchedule` — a constant-rate arrival schedule; requests
  are timed from when they were due, and the generator's lateness is kept.
* :class:`FailureCount` — attempted and failed operations, and the share
  that failed.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: A tail percentile is reported only when at least this many samples lie
#: beyond it.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    """The median of ``values``; ``nan`` for an empty sample."""
    values = list(values)
    return statistics.median(values) if values else math.nan


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or math.isinf(ordered[high]):
        # Exact rank, or interpolating towards a failed (infinite) sample.
        return ordered[high]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_level(n: int, min_beyond: int = TAIL_MIN_BEYOND) -> float:
    """The highest whole percentile with at least ``min_beyond`` of ``n``
    samples strictly beyond its rank, never below the median (50)."""
    if n <= 0:
        return 50.0
    best = 50.0
    for q in range(50, 100):
        if n * (100 - q) / 100.0 >= min_beyond:
            best = float(q)
    return best


def tail_percentile(values, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float]:
    """``(q, value)``: the highest percentile with ``min_beyond`` samples
    beyond it. A run too short to support any percentile above the median
    reports the median (``q == 50``)."""
    values = list(values)
    q = tail_level(len(values), min_beyond)
    return q, percentile(values, q)


# ---------------------------------------------------------------------------
# Failures
# ---------------------------------------------------------------------------


@dataclass
class FailureCount:
    """Attempted and failed operations, by failure reason.

    A failure is anything the user would not accept as an answer: a
    non-2xx status (429 admission refusals included), a timeout or an
    exception. Thread-safe, so load-generator threads can share one.
    """

    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def latencies_with_failures(latencies, n_failed: int) -> list[float]:
    """Latencies where every failed request counts as missing every limit.

    A failed request has no useful latency, so it is entered as ``inf``:
    it raises every percentile it sits under instead of vanishing from
    the sample.
    """
    return list(latencies) + [math.inf] * n_failed


# ---------------------------------------------------------------------------
# Open-loop arrivals
# ---------------------------------------------------------------------------


class OpenLoopSchedule:
    """Constant-rate arrivals: request ``i`` is due at ``start + i / rate``.

    Sender threads claim the next index with :meth:`claim`, sleep until it
    is due and send it; :meth:`record` stores ``(due, sent, done)``. The
    latency of a request is ``done - due``, so a stall that delays later
    sends is charged to them, and ``sent - due`` is how late the generator
    itself was.
    """

    def __init__(self, rate: float, n_requests: int, start: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.n_requests = int(n_requests)
        self.start = float(start)
        self._next = 0
        self._lock = threading.Lock()
        self.records: dict[int, tuple[float, float, float]] = {}

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def claim(self) -> int | None:
        """The next unclaimed request index, or ``None`` when all are out."""
        with self._lock:
            if self._next >= self.n_requests:
                return None
            index = self._next
            self._next += 1
            return index

    def record(self, index: int, sent: float, done: float) -> None:
        with self._lock:
            self.records[index] = (self.due(index), sent, done)

    def latency(self, index: int) -> float:
        due, _sent, done = self.records[index]
        return done - due

    def lateness(self) -> list[float]:
        """How late each recorded request was sent (never negative)."""
        return [max(0.0, sent - due) for due, sent, _ in self.records.values()]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    request_id: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Benchmark-side spans, kept in memory until the run ends.

    ``span(name)`` nests under whatever span is open on the same thread and
    inherits its request id. Untraced runs pass no recorder at all.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0

    @contextmanager
    def span(self, name: str, request_id: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        with self._lock:
            self._ids += 1
            span_id = self._ids
        record = Span(name, time.perf_counter(), math.nan, span_id,
                      parent.span_id if parent else None, request_id)
        stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_ms(self, name: str) -> list[float]:
        """Self time in ms of every span called ``name``."""
        own = self_times(self.spans)
        return [own[s.span_id] * 1000.0 for s in self.spans if s.name == name]


def covered(interval: tuple[float, float], parts) -> float:
    """Length of ``interval`` covered by the union of ``parts`` (clipped)."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in parts if min(hi, b) > max(lo, a))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """``span_id -> self time``: duration minus the time children cover.

    Overlapping children (concurrent work under one parent) are merged
    first, so the overlap is subtracted once, and a child that outlives its
    parent only counts inside the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered((s.start, s.end), children.get(s.span_id, ()))
        for s in spans
    }
