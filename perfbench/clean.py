"""``clean``: CPClean (Algorithm 3) through ``run_cp_clean``.

In process, one caller. Each episode runs ``run_cp_clean`` with the
ground-truth oracle on a ``bank`` recipe task for a fixed step budget that
stays below the point where every validation point is CP'ed; episodes
cycle over a few tasks drawn from the seed until the measured time is used
up. Each step selects a row by ``counts_per_fixing`` entropies and then
pins it: a write between reads.
"""

from __future__ import annotations

import math
import time

from benchstats import SpanRecorder, median
from harness import (
    SpeedProbe,
    WorkloadResult,
    class_summary,
    report_classes,
    require,
    self_peak_rss_mb,
    timed_setups,
)

from repro import CleaningSession, PreparedQuery, prediction_entropy, q2_counts, run_cp_clean
from repro.cleaning.oracle import GroundTruthOracle
from repro.data.task import build_cleaning_task

SIZES = {"bank_n": 120, "n_val": 16, "steps": 2, "k": 3, "tasks": 3}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: How often the speed probe samples while a cleaning step runs.
PROBE_PERIOD_S = 0.1


def _setup(seed: int):
    """Several tasks per seed: a step's cost depends on the data, and
    cycling over tasks averages that out of the run's figures."""
    tasks = [
        build_cleaning_task("bank", seed=seed * SIZES["tasks"] + i,
                            n_train=SIZES["bank_n"], n_val=SIZES["n_val"], n_test=1)
        for i in range(SIZES["tasks"])
    ]
    # Warm-up: the selection and certainty paths on two validation points.
    session = CleaningSession(tasks[0].incomplete, tasks[0].val_X[:2], k=SIZES["k"])
    session.expected_entropies(session.remaining_dirty_rows()[:2])
    session.cp_fraction()
    return tasks


class _LayerSpans:
    """Wrap the cleaning layers' public methods in spans for a traced episode.

    The wrappers are installed on the classes for the duration of a
    ``with`` block and removed afterwards; nothing in the program changes.
    """

    TARGETS = (
        (CleaningSession, "expected_entropies", "cleaning.sequential.select"),
        (CleaningSession, "val_certain_labels", "cleaning.sequential.screen"),
        (CleaningSession, "clean_row", "cleaning.sequential.apply"),
        (PreparedQuery, "counts_per_fixing", "core.prepared.per_fixing"),
    )

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self.saved = []

    def __enter__(self):
        for owner, attr, span_name in self.TARGETS:
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))
        return self

    def _wrap(self, original, span_name):
        rec = self.rec

        def traced(*args, **kwargs):
            with rec.span(span_name):
                return original(*args, **kwargs)

        return traced

    def __exit__(self, *exc):
        for owner, attr, original in self.saved:
            setattr(owner, attr, original)
        self.saved.clear()


def _measure(tasks, seconds: float, probe: SpeedProbe, rec: SpanRecorder | None):
    """Run step-budgeted episodes until ``seconds`` have passed.

    Steps take seconds, so the speed probe samples on a background thread
    and each step is scaled by the samples taken during it. A step's cost
    falls as the episode goes on, so the latency sample is each episode's
    mean time per step (its final certainty check included): every
    episode then samples the same thing.
    """
    step_ms = []
    episodes = []
    busy = 0.0
    start = time.perf_counter()
    with probe.sampling(PROBE_PERIOD_S):
        while time.perf_counter() - start < seconds:
            task_index = len(episodes) % len(tasks)
            task = tasks[task_index]
            rid = f"episode-{len(episodes)}"
            mark = [time.perf_counter()]
            scaled = []

            def close_stretch(_step=None):
                now = time.perf_counter()
                scaled.append((now - mark[0]) * probe.scale(since=mark[0]))
                mark[0] = now

            args = (task.incomplete, task.val_X, GroundTruthOracle(task.gt_choice))
            kwargs = dict(k=SIZES["k"], max_cleaned=SIZES["steps"], on_step=close_stretch)
            if rec is None:
                report = run_cp_clean(*args, **kwargs)
            else:
                with rec.span("clean.episode", rid), _LayerSpans(rec):
                    report = run_cp_clean(*args, **kwargs)
            close_stretch()  # the final certainty check after the last step
            busy += sum(scaled)
            if report.steps:
                step_ms.append(sum(scaled) * 1000.0 / len(report.steps))
            episodes.append((task_index, report))
    n_steps = sum(len(report.steps) for _, report in episodes)
    return {"step_ms": step_ms, "episodes": episodes, "n_steps": n_steps,
            "steps_per_s": n_steps / busy}


def _expected_entropy(dataset, val_X, row: int, pins: dict) -> float:
    """CPClean's Eq. (4) objective for ``row`` from public ``q2_counts``."""
    for pinned, cand in pins.items():
        dataset = dataset.restrict_row(pinned, cand)
    m = int(dataset.candidate_counts()[row])
    variants = [dataset.restrict_row(row, j) for j in range(m)]
    total = 0.0
    for point in val_X:
        total += sum(prediction_entropy(q2_counts(v, point, k=SIZES["k"])) for v in variants)
    return total / (m * max(len(val_X), 1))


def _check(tasks, runs) -> None:
    """Recompute the chosen row's expected entropy for every step of the
    first episode, outside the timed region."""
    task_index, report = runs[0]["episodes"][0]
    task = tasks[task_index]
    require(len(report.steps) > 0, "the first cleaning episode made no step")
    pins = {}
    for step in report.steps:
        expected = _expected_entropy(task.incomplete, task.val_X, step.row, pins)
        require(
            math.isclose(expected, step.expected_entropy, rel_tol=1e-9, abs_tol=1e-12),
            f"step {step.iteration}: expected entropy {step.expected_entropy} "
            f"!= {expected} recomputed from q2_counts",
        )
        require(step.chosen_candidate == int(task.gt_choice[step.row]),
                "the oracle's answer was not applied")
        pins[step.row] = step.chosen_candidate
    chosen = {}
    for run in runs:
        for index, episode in run["episodes"]:
            rows = [s.row for s in episode.steps]
            require(chosen.setdefault(index, rows) == rows,
                    "episodes on the same inputs chose different rows")


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    probe = SpeedProbe()
    setup_s, tasks = timed_setups(lambda: _setup(seed), probe, repeats=SETUP_REPEATS)
    result = WorkloadResult()
    result.report.append(
        f"clean: in process, closed loop, 1 caller; bank N={SIZES['bank_n']}, "
        f"{SIZES['n_val']} validation points, {SIZES['steps']} steps per episode, "
        f"{SIZES['tasks']} tasks"
    )
    if not trace:
        runs = [_measure(tasks, seconds, probe, None)]
    else:
        rec = SpanRecorder()
        runs = [_measure(tasks, seconds / 2, probe, None),
                _measure(tasks, seconds / 2, probe, rec)]
    main = runs[0]
    _check(tasks, runs)
    result.attempted = sum(r["n_steps"] for r in runs)
    p50, tail, rows = class_summary({"step": main["step_ms"]})  # one sample per episode
    result.end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "ops_per_s": (main["steps_per_s"], "1/s"),
    }
    result.line("clean_steps_per_min", main["steps_per_s"] * 60.0, "steps/min",
                f"episodes={len(main['episodes'])}")
    report_classes(result, rows, "clean.")
    if trace:
        traced = runs[1]
        result.spans = rec
        n_steps = max(traced["n_steps"], 1)
        layers = {
            "cleaning.sequential.select_ms": median(rec.self_ms("cleaning.sequential.select")),
            "core.prepared.per_fixing_ms": median(rec.self_ms("core.prepared.per_fixing")),
            "core.prepared.per_fixing_calls": (
                len(rec.by_name("core.prepared.per_fixing")) / n_steps
            ),
            "cleaning.sequential.screen_ms": median(rec.self_ms("cleaning.sequential.screen")),
            "cleaning.sequential.apply_ms": median(rec.self_ms("cleaning.sequential.apply")),
            "obs.overhead_frac": main["steps_per_s"] / traced["steps_per_s"] - 1.0,
        }
        result.layers = {
            name: (value, "count" if name.endswith("_calls")
                   else "ratio" if name.endswith("_frac") else "ms")
            for name, value in layers.items()
        }
    return result
