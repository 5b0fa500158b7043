"""Watch a query travel the service: span trees, metrics, health, logs.

The one-process tour of :mod:`repro.obs` wired through the serving
stack. A production deployment would run::

    repro serve --recipe supreme --executors 2 --slow-ms 250 --access-log

and scrape ``/metrics?format=prometheus``; here we boot the same
two-executor topology on an ephemeral port so the example is
self-contained:

1. ask one query with ``explain="trace"`` and print its span tree —
   HTTP root, broker, planner route, gateway scatter, and the
   per-partition leaves timed inside the executor *processes*;
2. list the ``/debug/traces`` ring buffer and fetch one trace by id;
3. read the typed metrics — the legacy ``/metrics`` JSON, the ``obs``
   section, and the Prometheus text exposition;
4. derive latency quantiles from histogram buckets, client-side;
5. check per-executor readiness on ``/healthz``.

Run with::

    PYTHONPATH=src python examples/observability_quickstart.py
"""

from __future__ import annotations

from repro.obs import quantile_from_buckets, validate_prometheus
from repro.service import DatasetRegistry, ServiceClient, make_service


def print_tree(span: dict, depth: int = 0) -> None:
    """Render one span record as an indented tree line."""
    attrs = span.get("attributes", {})
    interesting = {
        key: attrs[key]
        for key in ("backend", "served_by", "executor", "partition", "status")
        if key in attrs
    }
    detail = f"  {interesting}" if interesting else ""
    print(
        f"  {'  ' * depth}{span['name']:<24} {span['duration_ms']:8.2f} ms{detail}"
    )
    for child in span.get("children", ()):
        print_tree(child, depth + 1)


def main() -> None:
    # -- boot a two-executor service -----------------------------------
    registry = DatasetRegistry()
    entry = registry.register_recipe(
        "supreme", recipe="supreme", n_train=80, n_val=12, seed=0
    )
    server = make_service(registry, executors=2)
    client = ServiceClient(server.url)
    print(f"service up at {server.url} with a 2-executor gateway")

    # -- 1. one query, one span tree -----------------------------------
    response = client.query(
        "supreme", point=entry.val_X[0], kind="certain_label", explain="trace"
    )
    trace = response["trace"]
    print(f"\ntrace {trace['trace_id']} for the query above:")
    print_tree(trace)

    # -- 2. the trace ring buffer --------------------------------------
    recent = client.traces(limit=3)
    print(f"\n/debug/traces holds {len(recent)} recent trace(s):")
    for record in recent:
        print(
            f"  {record['trace_id']}  {record['name']:<14} "
            f"{record['duration_ms']:8.2f} ms  {record['attributes'].get('path')}"
        )
    by_id = client.traces(trace_id=recent[-1]["trace_id"])
    print(f"fetched by id: {by_id['trace_id']} ({by_id['name']})")

    # -- 3. metrics: legacy JSON, obs section, Prometheus --------------
    payload = client.metrics()
    broker = payload["broker"]
    print(
        f"\nbroker counters: {broker['requests']} requests, "
        f"{broker['gateway_served']} gateway-served, "
        f"{broker['served_from_cache']} from cache"
    )
    exposition = client.metrics(format="prometheus")
    n_samples = validate_prometheus(exposition)
    print(f"prometheus exposition: {n_samples} samples, parses clean")

    # -- 4. quantiles from histogram buckets ---------------------------
    histograms = payload["obs"]["histograms"]
    for name, snapshot in sorted(histograms.items()):
        if not name.startswith("http_request_seconds") or not snapshot["count"]:
            continue
        p50 = quantile_from_buckets(snapshot, 0.50)
        p99 = quantile_from_buckets(snapshot, 0.99)
        print(
            f"{name}: n={snapshot['count']} "
            f"p50≈{p50 * 1e3:.2f} ms p99≈{p99 * 1e3:.2f} ms"
        )

    # -- 5. per-executor readiness -------------------------------------
    health = client.healthz()
    print(f"\nhealthz: {health['status']}")
    for executor in health["executors"]:
        print(
            f"  executor {executor['executor_id']}: pid {executor['pid']}, "
            f"alive={executor['alive']}, restarts={executor['restarts']}, "
            f"heartbeat {executor['last_heartbeat_age_s']:.2f}s ago"
        )

    server.close()
    print("\nserver drained and closed")


if __name__ == "__main__":
    main()
