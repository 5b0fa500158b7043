"""``screen``: bulk CP screening of fresh test points through ``execute_query``.

In process, closed loop, one caller. Batches of fresh seeded test points
cycle over two datasets (binary ``bank`` recipe, and a 4-label
:mod:`repro.data.synth` dataset) and two query kinds (``counts`` and
``certain_label``), always with backend ``auto`` and default
``ExecutionOptions``. No point repeats, so no result cache can help.
"""

from __future__ import annotations

import time

import numpy as np

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
from datagen import multiclass_dataset

from repro import ExecutionOptions, PreparedBatch, execute_query, make_query, plan_query
from repro.core.entropy import certain_label_from_counts
from repro.core.pruning import (
    certificate_from_intervals,
    interval_arrays,
    prune_mask,
    pruned_counts_from_scan,
    pruned_decision_from_scan,
)
from repro.data.task import build_cleaning_task

SIZES = {"bank_n": 8000, "multi_n": 4000, "multi_labels": 4, "batch": 32, "k": 3}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Points drawn per measured second and dataset: about three times what
#: the workload consumes, so every batch is fresh. A program fast enough to
#: use them all up ends the measurement early instead of repeating points.
POINTS_PER_SECOND = 300
#: Points per batch replayed layer by layer in a traced run.
REPLAY_POINTS = 4
#: Points per dataset checked against ``backend="sequential"``, ``prune="off"``.
ORACLE_POINTS = 2
#: Label points per dataset whose verdict is checked against their counts.
LABEL_CHECK_POINTS = 6
KINDS = ("counts", "certain_label")


def _setup(seed: int, seconds: float):
    pool = max(256, int(POINTS_PER_SECOND * seconds))
    k = SIZES["k"]
    bank = build_cleaning_task("bank", seed=seed, n_train=SIZES["bank_n"], n_val=1,
                               n_test=pool + 2)
    multi, multi_X = multiclass_dataset(
        seed, SIZES["multi_n"], pool + 2, n_labels=SIZES["multi_labels"]
    )
    datasets = {
        "bank": (bank.incomplete, bank.test_X),
        "multi": (multi, multi_X),
    }
    # Warm-up on two points held out of the measured pool.
    for dataset, points in datasets.values():
        for kind in KINDS:
            execute_query(make_query(dataset, points[-2:], kind=kind, k=k))
    return {
        name: {
            "dataset": dataset,
            "points": points[:-2],
            "n_worlds": dataset.n_worlds(),
            "next": 0,
        }
        for name, (dataset, points) in datasets.items()
    }


def _replay_layers(rec: SpanRecorder, dataset, X, kind: str, values, rid: str, layers):
    """Time each layer's public function on the batch just served."""
    k = SIZES["k"]
    query = make_query(dataset, X, kind=kind, k=k)
    with rec.span("core.planner.plan", rid):
        plan_query(query)
    with rec.span("core.batch_engine.prepare", rid):
        batch = PreparedBatch(dataset, X, k=k)
    for i in range(min(REPLAY_POINTS, X.shape[0])):
        with rec.span("core.batch_engine.scan", rid):
            scan = batch.scan(i)
        with rec.span("core.pruning.certificate", rid):
            mins, maxs = interval_arrays(scan)
            prune_mask(mins, maxs, k)
            cert = certificate_from_intervals(mins, maxs, k, scan.row_counts)
        layers["kept"].append(cert.n_kept / cert.n_rows)
        if kind == "counts":
            with rec.span("core.pruning.counts", rid):
                counts, _ = pruned_counts_from_scan(scan, k, dataset.n_labels)
            require(counts == values[i], "pruned_counts_from_scan disagrees with execute_query")
        elif dataset.n_labels == 2:
            prepared = batch.query(i)  # built outside the span: not the layer's cost
            with rec.span("core.prepared.minmax", rid):
                label = prepared.certain_label_minmax()
            require(label == values[i], "certain_label_minmax disagrees with execute_query")
        else:
            with rec.span("core.pruning.decision", rid):
                decision, _ = pruned_decision_from_scan(scan, k, dataset.n_labels)
            require(
                decision.certain_label == values[i],
                "pruned_decision_from_scan disagrees with execute_query",
            )


def _measure(state, seconds: float, probe: SpeedProbe, rec: SpanRecorder | None):
    """Cycle (dataset, kind) batches for ``seconds``; return samples and outputs.

    Batch times are scaled to reference-core time by the probe taken just
    before each batch; ``raw_points_per_s`` keeps the unscaled rate.
    """
    k = SIZES["k"]
    size = SIZES["batch"]
    per_point_ms = {}
    busy = {kind: [0.0, 0] for kind in KINDS}
    raw_busy = 0.0
    served = []
    layers = {"kept": []}
    start = time.perf_counter()
    n_batches = 0
    while time.perf_counter() - start < seconds:
        if any(e["next"] + len(KINDS) * size > len(e["points"]) for e in state.values()):
            break  # the fresh-point pool is used up
        for name, entry in state.items():
            for kind in KINDS:
                lo = entry["next"]
                X = entry["points"][lo:lo + size]
                entry["next"] = lo + size
                rid = f"{name}-{kind}-{n_batches}"
                probe.sample()
                t0 = time.perf_counter()
                if rec is None:
                    result = execute_query(make_query(entry["dataset"], X, kind=kind, k=k))
                else:
                    with rec.span("screen.batch", rid):
                        result = execute_query(
                            make_query(entry["dataset"], X, kind=kind, k=k)
                        )
                raw = time.perf_counter() - t0
                raw_busy += raw
                elapsed = raw * probe.scale()
                per_point_ms.setdefault(f"{name}_{kind}", []).append(elapsed * 1000.0 / size)
                busy[kind][0] += elapsed
                busy[kind][1] += size
                served.append((name, kind, X, result.values))
                if rec is not None:
                    _replay_layers(rec, entry["dataset"], X, kind, result.values, rid, layers)
        n_batches += 1
    wall = sum(b[0] for b in busy.values())
    points = sum(b[1] for b in busy.values())
    return {
        "per_point_ms": per_point_ms,
        "busy": busy,
        "points_per_s": points / wall,
        "raw_points_per_s": points / raw_busy,
        "n_points": points,
        "served": served,
        "layers": layers,
    }


def _check(state, runs, seed: int) -> None:
    """Exactness, outside every timed region."""
    rng = np.random.default_rng(seed + 7)
    k = SIZES["k"]
    for name, entry in state.items():
        dataset = entry["dataset"]
        batches = [s for run in runs for s in run["served"] if s[0] == name]
        for _, kind, _X, values in batches:
            if kind == "counts":
                for counts in values:
                    require(
                        sum(counts) == entry["n_worlds"],
                        f"{name}: counts do not sum to the number of worlds",
                    )
        counts_points = [(X[i], v[i]) for _, kind, X, v in batches if kind == "counts"
                         for i in range(len(v))]
        label_points = [(X[i], v[i]) for _, kind, X, v in batches if kind == "certain_label"
                        for i in range(len(v))]
        for j in rng.choice(len(label_points), size=LABEL_CHECK_POINTS, replace=False):
            point, label = label_points[j]
            counts = execute_query(make_query(dataset, point, kind="counts", k=k)).values[0]
            require(
                certain_label_from_counts(counts) == label,
                f"{name}: certain_label disagrees with the counts",
            )
        for j in rng.choice(len(counts_points), size=ORACLE_POINTS, replace=False):
            point, counts = counts_points[j]
            oracle = execute_query(
                make_query(dataset, point, kind="counts", k=k),
                backend="sequential",
                options=ExecutionOptions(prune="off", cache=False),
            ).values[0]
            require(oracle == counts, f"{name}: counts differ from the sequential oracle")


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    probe = SpeedProbe()
    setup_s, state = timed_setups(lambda: _setup(seed, seconds), probe,
                                  repeats=SETUP_REPEATS)
    result = WorkloadResult()
    result.report.append(
        f"screen: in process, closed loop, 1 caller; bank N={SIZES['bank_n']}, "
        f"{SIZES['multi_labels']}-label N={SIZES['multi_n']}, batches of {SIZES['batch']}"
    )
    if not trace:
        runs = [_measure(state, seconds, probe, None)]
    else:
        rec = SpanRecorder()
        runs = [
            _measure(state, seconds / 2, probe, None),
            _measure(state, seconds / 2, probe, rec),
        ]
    main = runs[0]
    p50, tail, rows = class_summary(main["per_point_ms"])
    result.attempted = sum(r["n_points"] for r in runs)
    _check(state, runs, seed)

    counts_pps = main["busy"]["counts"][1] / main["busy"]["counts"][0]
    labels_pps = main["busy"]["certain_label"][1] / main["busy"]["certain_label"][0]
    result.end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "ops_per_s": (main["points_per_s"], "1/s"),
    }
    result.line("raw_points_per_s", main["raw_points_per_s"], "points/s",
                "wall clock, not scaled by the speed probe")
    result.line("counts_pts_per_s", counts_pps, "points/s")
    result.line("labels_pts_per_s", labels_pps, "points/s")
    report_classes(result, rows, "per_point.")
    if trace:
        traced = runs[1]
        result.spans = rec
        layers = {
            "core.batch_engine.prepare_ms": median(rec.self_ms("core.batch_engine.prepare")),
            "core.batch_engine.scan_ms": median(rec.self_ms("core.batch_engine.scan")),
            "core.pruning.certificate_ms": median(rec.self_ms("core.pruning.certificate")),
            "core.pruning.counts_ms": median(rec.self_ms("core.pruning.counts")),
            "core.pruning.kept_frac": median(traced["layers"]["kept"]),
            "core.prepared.minmax_ms": median(rec.self_ms("core.prepared.minmax")),
            "core.pruning.decision_ms": median(rec.self_ms("core.pruning.decision")),
            "core.planner.plan_ms": median(rec.self_ms("core.planner.plan")),
            "obs.overhead_frac": main["points_per_s"] / traced["points_per_s"] - 1.0,
        }
        result.layers = {
            name: (value, "ratio" if name.endswith("_frac") else "ms")
            for name, value in layers.items()
        }
    return result
