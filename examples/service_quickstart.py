"""Serve CP queries over HTTP: registry, group-commit broker, client.

The one-process tour of :mod:`repro.service`. A production deployment
would run ``repro serve --recipe supreme --port 8970`` and point
:class:`~repro.service.client.ServiceClient` at it from other machines;
here we boot the same server on an ephemeral port in a background
thread so the example is self-contained:

1. register a dirty-dataset recipe (its validation set's prepared
   distance state gets pinned warm server-side);
2. answer single-point queries by group commit — a query whose family
   is idle runs at once, and the callers that arrive while it runs are
   coalesced into the family's next planner batch call;
3. drive a cleaning session over the wire with ``/clean/step`` and
   watch the certain-prediction fraction climb;
4. read ``/metrics`` to see batching, cache and admission counters.

Run with::

    PYTHONPATH=src python examples/service_quickstart.py
"""

from __future__ import annotations

import threading

import numpy as np

from repro.service import DatasetRegistry, ServiceClient, make_service


def main() -> None:
    # -- 1. boot a server with one recipe registered -------------------
    registry = DatasetRegistry()
    entry = registry.register_recipe(
        "supreme", recipe="supreme", n_train=80, n_val=12, seed=0
    )
    server = make_service(registry, max_batch=16)
    client = ServiceClient(server.url)
    print(f"service up at {server.url}: {client.healthz()['datasets']}")

    # -- 2. certify the registered validation set ----------------------
    response = client.query("supreme", points="validation", kind="certain_label")
    labels = response["values"]
    certain = sum(label is not None for label in labels)
    print(
        f"validation certainty: {certain}/{len(labels)} points CP'ed "
        f"(backend {response['backend']!r})"
    )

    # -- 3. concurrent single-point queries share group commits --------
    # Fresh points (not the just-cached validation set), so the requests
    # actually execute instead of being served from the TTL cache. The
    # first caller's flush runs alone; whoever arrives while it runs
    # rides the next one (sizes depend on thread timing).
    val_X = entry.val_X
    fresh = val_X + 1e-3 * (1 + np.arange(len(val_X)))[:, None]
    results: dict[int, dict] = {}

    def ask(index: int) -> None:
        results[index] = client.query(
            "supreme", point=fresh[index], kind="certain_label"
        )

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(val_X))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sizes = sorted(results[i]["batch_size"] for i in results)
    print(f"{len(threads)} concurrent callers rode batches of sizes {sizes}")

    # -- 4. clean over the wire until certain --------------------------
    checkpoint = {"all_certain": certain == len(labels)}
    dirty = registry.get("supreme").dataset.uncertain_rows()
    for row in dirty:
        if checkpoint["all_certain"]:
            break
        checkpoint = client.clean_step("supreme", row=row)  # oracle answers
        print(
            f"cleaned row {row}: {checkpoint['n_cleaned']} rows done, "
            f"cp_fraction={checkpoint['cp_fraction']:.2f}"
        )

    # -- 5. observability ----------------------------------------------
    metrics = client.metrics()
    broker = metrics["broker"]
    print(
        f"broker served {broker['requests']} requests in "
        f"{broker['batches_executed']} planner calls "
        f"({broker['coalesced_batches']} coalesced, "
        f"cache hits {broker['cache']['hits'] if broker['cache'] else 0})"
    )
    server.close()


if __name__ == "__main__":
    main()
