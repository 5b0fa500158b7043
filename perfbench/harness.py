"""Plumbing every workload shares: results, set-up timing, memory, checks."""

from __future__ import annotations

import json
import math
import os
import pathlib
import resource
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from benchstats import SpanRecorder, median, self_times, tail_percentile

#: The root of the checkout under test.
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where traced runs write their benchmark-side spans (gitignored).
TRACE_DIR = ROOT / ".perfbench_traces"


#: The speed probe: a fixed pure-Python loop, and the CPU time it takes on
#: an uncontended core (Intel Xeon, 2 vCPUs). Timings are scaled by
#: ``PROBE_REF_S / probe time`` so they read as that core's milliseconds.
PROBE_LOOP = 20000
PROBE_REF_S = 1.3e-3


class ExactnessError(AssertionError):
    """A served or computed answer differs from its reference. The run
    stops with a non-zero exit code instead of counting a failure."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ExactnessError` unless ``condition`` holds."""
    if not condition:
        raise ExactnessError(message)


@dataclass
class WorkloadResult:
    """What one run of a workload measured.

    ``end_to_end`` and ``layers`` map metric names to ``(value, unit)``;
    ``report`` holds human-readable lines printed before the JSON result.
    """

    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    report: list = field(default_factory=list)
    spans: SpanRecorder | None = None

    def line(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.report.append(f"  {name:<34} {value:>14.4f} {unit:<10} {note}".rstrip())


def pin_to_one_cpu() -> None:
    """Pin this process (and the children it starts later) to one CPU.

    The probe below measures the speed of the core it runs on; pinning
    puts the probe, the workload and any server process on the same core.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


class SpeedProbe:
    """How fast the pinned core runs right now, relative to the reference.

    The cores of a shared host switch between an uncontended state and one
    about 1.4x slower (most likely another tenant on the sibling
    hyperthread) for seconds at a time, which would swamp any change to the
    program. The
    probe times a fixed pure-Python loop in thread CPU time (so waiting
    for the core does not count, only how fast it computes);
    :meth:`scale` turns a wall-clock time measured now into reference-core
    time. The loop never touches the program, so a program change cannot
    move the probe.
    """

    WINDOW = 5

    def __init__(self) -> None:
        self._samples: deque = deque(maxlen=4096)  # (taken at, CPU seconds)
        self._lock = threading.Lock()

    def sample(self) -> float:
        start = time.thread_time()
        _spin(PROBE_LOOP)
        elapsed = time.thread_time() - start
        with self._lock:
            self._samples.append((time.perf_counter(), elapsed))
        return elapsed

    def scale(self, since: float | None = None) -> float:
        """``PROBE_REF_S / median(probe times)`` over the samples taken
        since ``since`` (a ``perf_counter`` time), or the last few."""
        with self._lock:
            samples = list(self._samples)
        chosen = [d for t, d in samples if since is not None and t >= since]
        if not chosen:
            chosen = [d for _, d in samples[-self.WINDOW:]] or [self.sample()]
        return PROBE_REF_S / median(chosen)

    @contextmanager
    def sampling(self, period_s: float):
        """Sample every ``period_s`` on a background thread, for work that
        runs for seconds between the points where the caller could probe.

        The thread takes the GIL for one probe (about a millisecond) per
        period; it is stopped and joined when the block exits.
        """
        stop = threading.Event()

        def loop():
            while not stop.wait(period_s):
                self.sample()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()


def timed_setups(build, probe: SpeedProbe, repeats: int):
    """Run ``build()`` ``repeats`` times; return ``(median seconds, last result)``.

    Set-up is repeated because it is one sample per run otherwise (short
    set-ups take more repeats); the last build's state is the one the
    workload measures. Each time is scaled by the probe taken just before it.
    """
    times = []
    state = None
    for _ in range(repeats):
        probe.sample()
        start = time.perf_counter()
        state = build()
        times.append((time.perf_counter() - start) * probe.scale())
    return median(times), state


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid``, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def class_summary(samples_ms: dict) -> tuple[float, float, dict]:
    """Per-class medians and tails, and their geometric means.

    ``samples_ms`` maps an operation class to its latencies (ms). Returns
    ``(p50 geomean, tail geomean, {class: (n, p50, tail level, tail)})``.
    Every class weighs the same in the geometric mean, so a change to one
    class moves the composite by the same factor whatever its share.
    """
    rows = {}
    for name, values in samples_ms.items():
        if not values:
            continue
        q, tail = tail_percentile(values)
        rows[name] = (len(values), median(values), q, tail)
    p50 = math.exp(sum(math.log(r[1]) for r in rows.values()) / len(rows))
    tail = math.exp(sum(math.log(r[3]) for r in rows.values()) / len(rows))
    return p50, tail, rows


def report_classes(result: WorkloadResult, rows: dict, prefix: str) -> None:
    """Print each class's median and tail, with its sample count."""
    for name, (n, p50, q, tail) in rows.items():
        result.line(f"{prefix}{name}_p50_ms", p50, "ms", f"n={n}")
        if q > 50:
            result.line(f"{prefix}{name}_p{int(q)}_ms", tail, "ms", f"n={n}")


def write_spans(rec: SpanRecorder, workload: str, seed: int) -> pathlib.Path:
    """Write a traced run's spans, with self times, as one JSON file."""
    own = self_times(rec.spans)
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([
            {
                "name": s.name, "start": s.start, "end": s.end, "span_id": s.span_id,
                "parent": s.parent, "request_id": s.request_id,
                "self_ms": own[s.span_id] * 1000.0,
            }
            for s in rec.spans
        ], handle)
    return path
