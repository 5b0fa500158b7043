"""``sql``: certain answers over Codd tables through ``/sql``, closed loop.

The same ``repro serve`` process as ``serve``; one client sends four query
classes at fixed shares, with WHERE literals drawn per request, and a
small share of NULL-cell fixes:

* ``select`` — select-project over the large ``people`` table (grid path);
* ``join`` — ``customers JOIN orders ON ...`` (hash join);
* ``group`` — ``GROUP BY`` over distinct child tuples (aggregate DP);
* ``decline`` — a small ``GROUP BY`` whose child tuples collide, so the
  planner declines to world enumeration.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from benchstats import FailureCount, SpanRecorder, latencies_with_failures, median
from harness import (
    ROOT,
    SpeedProbe,
    WorkloadResult,
    class_summary,
    report_classes,
    require,
    timed_setups,
)
from datagen import codd_database, sql_text
from server import ServerProcess, http_self_ms, request_trees

from repro.codd.certain import certain_answers_database
from repro.codd.engine import answer_query
from repro.codd.optimizer import optimize_query
from repro.codd.sql import parse_sql
from repro.service import ServiceClient
from repro.service.client import ServiceError
from repro.service.registry import CoddTableEntry
from repro.service.wire import decode_relation, encode_relation

SIZES = {
    "people": 5000, "people_null": 500,
    "customers": 200, "orders": 1500, "orders_null": 60,
    "sales": 600, "sales_null": 12,
    "dup": 40, "dup_null": 5,
}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
SHARES = {"select": 0.35, "join": 0.25, "group": 0.25, "decline": 0.15}
FIX_SHARE = 0.03
#: Tables whose NULL cells the fixes fill in, alternately.
FIX_TABLES = ("people", "orders")
#: Reference answers enumerate worlds only up to this many.
MAX_ORACLE_WORLDS = 5000
CHECKS_PER_CLASS = 3
REPLAYS_PER_CLASS = 6
TIMEOUT_S = 30.0
PLAN_PER_SECOND = 300


def _null_cells(table, rng):
    cells = [(row, col, null.domain) for row, col, null in table.variables]
    return [cells[i] for i in rng.permutation(len(cells))]


def _plan(state, seed: int, n_requests: int):
    """``("sql", class, text)`` and ``("fix", table, row, column, value)`` ops."""
    rng = np.random.default_rng(seed + 21)
    nulls = {name: list(cells[1:]) for name, cells in state["fix_order"].items()}
    classes = list(SHARES)
    weights = np.array([SHARES[c] for c in classes])
    plan = []
    n_fixes = 0
    for _ in range(n_requests):
        if rng.random() < FIX_SHARE:
            # Alternate between the tables while they have NULL cells left.
            tables = [t for t in FIX_TABLES[n_fixes % 2:] + FIX_TABLES[:n_fixes % 2] if nulls[t]]
            if tables:
                n_fixes += 1
                row, col, domain = nulls[tables[0]].pop()
                plan.append(("fix", tables[0], row, col, domain[int(rng.integers(len(domain)))]))
                continue
        query_class = classes[int(rng.choice(len(classes), p=weights / weights.sum()))]
        plan.append(("sql", query_class, sql_text(query_class, rng)))
    return plan


def _setup(client: ServiceClient, seed: int):
    db = codd_database(seed, SIZES)
    for name, table in db.items():
        client.register_codd_table(name, table, replace=True)
    # Warm-up: one query per class (builds and pins the grids) and one fix
    # per fixed table (updates a pinned grid in place).
    rng = np.random.default_rng(seed + 22)
    for query_class in SHARES:
        client.sql(sql_text(query_class, rng))
    fixes = {name: {} for name in db}
    fix_order = {name: _null_cells(db[name], rng) for name in FIX_TABLES}
    for name, cells in fix_order.items():
        row, col, domain = cells[0]
        version = client.fix_cell(name, row, col, domain[0])["version"]
        fixes[name][version] = (row, col, domain[0])
    return {"db": db, "fixes": fixes, "fix_order": fix_order}


def _send(client, op):
    if op[0] == "fix":
        return client.fix_cell(op[1], op[2], op[3], op[4])
    return client.sql(op[2])


def _load(client, plan, seconds: float, probe: SpeedProbe, rec: SpanRecorder | None):
    """Closed loop, one client: send ``plan`` in order until ``seconds`` pass."""
    failures = FailureCount()
    outcomes = []
    start = time.perf_counter()
    start_wall = time.time()
    for index, op in enumerate(plan):
        if time.perf_counter() - start >= seconds:
            break
        probe.sample()
        failures.attempt()
        t0 = time.perf_counter()
        try:
            if rec is None:
                response = _send(client, op)
            else:
                with rec.span(f"sql.{op[0]}", request_id=f"q{index}"):
                    response = _send(client, op)
            ok = True
        except ServiceError as exc:
            failures.fail(f"http {exc.status}")
            response, ok = None, False
        except Exception as exc:  # noqa: BLE001 — timeouts, resets, bad replies
            failures.fail(type(exc).__name__)
            print(f"request {index} failed: {exc!r}", file=sys.stderr)
            response, ok = None, False
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        outcomes.append((op, ok, response, elapsed_ms * probe.scale(), elapsed_ms))
    latency = {
        c: latencies_with_failures(
            [o[3] for o in outcomes if o[0][0] == "sql" and o[0][1] == c and o[1]],
            sum(1 for o in outcomes if o[0][0] == "sql" and o[0][1] == c and not o[1]),
        )
        for c in SHARES
    }
    answered = sum(1 for o in outcomes if o[0][0] == "sql" and o[1])
    return {
        "latency": latency,
        "raw_sql_ms": [o[4] for o in outcomes if o[0][0] == "sql" and o[1]],
        "outcomes": outcomes,
        "failures": failures,
        # Answered queries per second of reference-core time spent waiting.
        "sql_per_s": answered / (sum(o[3] for o in outcomes if o[1]) / 1000.0),
        "start_wall": start_wall,
    }


def _record_fixes(state, runs) -> None:
    for run in runs:
        for op, ok, response, _, _ in run["outcomes"]:
            if op[0] == "fix" and ok:
                state["fixes"][op[1]][response["version"]] = op[2:]
    for name, fixes in state["fixes"].items():
        versions = sorted(fixes)
        require(versions == list(range(2, 2 + len(versions))),
                f"{name}: fix versions are not consecutive: {versions}")


def _replica_at(state, versions: dict) -> dict:
    """The referenced tables at the versions a response was served at."""
    out = {}
    for name, version in versions.items():
        table = state["db"][name]
        for v in range(2, version + 1):
            row, col, value = state["fixes"][name][v]
            table = table.with_cell_fixed(row, col, value)
        out[name] = table
    return out


def _sql_responses(runs):
    return [(op, response) for run in runs for op, ok, response, _, _ in run["outcomes"]
            if ok and op[0] == "sql"]


def _check(state, runs, seed: int) -> None:
    """Sampled answers equal ``answer_query(..., optimize=False)``, on the
    ``naive`` backend wherever the worlds are few enough to enumerate."""
    rng = np.random.default_rng(seed + 23)
    responses = _sql_responses(runs)
    for query_class in SHARES:
        of_class = [r for r in responses if r[0][1] == query_class]
        require(len(of_class) > 0, f"no {query_class} query succeeded")
        for j in rng.choice(len(of_class), size=min(CHECKS_PER_CLASS, len(of_class)),
                            replace=False):
            op, response = of_class[j]
            db = _replica_at(state, response["versions"])
            query = parse_sql(op[2], schemas={n: t.schema for n, t in db.items()})
            worlds = math.prod(t.n_worlds() for t in db.values())
            backend = "naive" if worlds <= MAX_ORACLE_WORLDS else "auto"
            expected = answer_query(query, db, mode="certain", backend=backend,
                                    optimize=False).relation
            require(response["results"]["certain"] == expected,
                    f"{query_class}: served answer differs from the {backend} reference "
                    f"for {op[2]!r}")


def _replay_layers(state, traced, rec: SpanRecorder) -> None:
    """Time parse, optimize, answer, enumeration, grid and wire layers on
    the traced half's own queries and fixes."""
    responses = _sql_responses([traced])
    for query_class in SHARES:
        for op, response in [r for r in responses if r[0][1] == query_class][:REPLAYS_PER_CLASS]:
            db = _replica_at(state, response["versions"])
            with rec.span("codd.sql.parse"):
                query = parse_sql(op[2], schemas={n: t.schema for n, t in db.items()})
            with rec.span("codd.optimizer.optimize"):
                optimize_query(query, db)
            with rec.span(f"codd.engine.answer.{query_class}"):
                answer_query(query, db, mode="certain")
            if query_class == "decline":
                with rec.span("codd.certain.enumerate"):
                    certain_answers_database(query, db)
            with rec.span("service.wire.relation"):
                decode_relation(encode_relation(response["results"]["certain"]))
    for op, ok, response, _, _ in traced["outcomes"]:
        if op[0] == "fix" and ok and op[1] == "people":
            table = _replica_at(state, {"people": response["version"]})["people"]
            entry = CoddTableEntry("people", table)
            with rec.span("service.registry.grid"):
                entry.grid_for(entry.snapshot())


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    probe = SpeedProbe()
    result = WorkloadResult()
    with ServerProcess(ROOT) as server:
        client = ServiceClient(server.url, timeout=TIMEOUT_S)
        client.wait_until_ready(timeout=30)
        setup_s, state = timed_setups(lambda: _setup(client, seed), probe,
                                      repeats=SETUP_REPEATS)
        # About five times the requests the loop sends; a program fast
        # enough to send them all ends the measurement early.
        plan = _plan(state, seed, PLAN_PER_SECOND * math.ceil(seconds))
        if not trace:
            runs = [_load(client, plan, seconds, probe, None)]
        else:
            rec = SpanRecorder()
            runs = [_load(client, plan, seconds / 2, probe, None)]
            rest = plan[len(runs[0]["outcomes"]):]
            runs.append(_load(client, rest, seconds / 2, probe, rec))
            http_self = median(http_self_ms(root) for root in
                               request_trees(client, runs[1]["start_wall"], ("/sql",)))
        peak_rss = server.peak_rss_mb()
    _record_fixes(state, runs)
    _check(state, runs, seed)

    main = runs[0]
    result.attempted = sum(r["failures"].attempted for r in runs)
    result.failed = sum(r["failures"].failed for r in runs)
    p50, tail, rows = class_summary(main["latency"])
    result.end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "ops_per_s": (main["sql_per_s"], "1/s"),
    }
    result.report.append(
        f"sql: repro serve defaults, closed loop, 1 client; people N={SIZES['people']}, "
        f"orders N={SIZES['orders']}, sales N={SIZES['sales']}, dup N={SIZES['dup']} "
        f"({3 ** SIZES['dup_null']} worlds); {FIX_SHARE:.0%} fixes"
    )
    report_classes(result, rows, "sql_")
    result.line("raw_sql_p50_ms", median(main["raw_sql_ms"]), "ms",
                "all classes, wall clock, not scaled by the speed probe")
    result.line("failed_frac", main["failures"].failed_frac, "ratio",
                str(main["failures"].reasons or ""))
    if trace:
        traced = runs[1]
        result.spans = rec
        _replay_layers(state, traced, rec)
        responses = _sql_responses([traced])
        fast = [r["backends"]["certain"] != "naive" for _, r in responses]
        layers = {
            "service.http.self_ms": http_self,
            "codd.sql.parse_ms": median(rec.self_ms("codd.sql.parse")),
            "codd.optimizer.optimize_ms": median(rec.self_ms("codd.optimizer.optimize")),
            "codd.engine.fast_frac": sum(fast) / len(fast),
            "codd.certain.enumerate_ms": median(rec.self_ms("codd.certain.enumerate")),
            "service.registry.grid_ms": median(rec.self_ms("service.registry.grid")),
            "service.wire.relation_ms": median(rec.self_ms("service.wire.relation")),
            "failed_frac": traced["failures"].failed_frac,
            "obs.overhead_frac": class_summary(traced["latency"])[0] / p50 - 1.0,
        }
        for query_class in SHARES:
            layers[f"codd.engine.answer_ms.{query_class}"] = median(
                rec.self_ms(f"codd.engine.answer.{query_class}"))
        result.layers = {
            name: (value, "ratio" if name.endswith("_frac") else "ms")
            for name, value in layers.items()
        }
    return result
