"""Seeded inputs for every workload.

Each generator takes the workload seed and returns plain program inputs:
a 4-label incomplete dataset and its test points for the CP side (the
recipe datasets come from :func:`repro.data.task.build_cleaning_task`),
Codd tables and SQL text for the relational side. The same seed always gives the same inputs;
the program never sees the seed itself.
"""

from __future__ import annotations

import numpy as np

from repro.codd.codd_table import CoddTable, Null
from repro.core.dataset import IncompleteDataset
from repro.data.missingness import inject_mcar
from repro.data.preprocess import TableEncoder
from repro.data.repairs import RepairSpace
from repro.data.synth import SyntheticSpec, generate_table

REGIONS = ("north", "south", "east", "west")


def multiclass_dataset(
    seed: int, n_train: int, n_test: int, n_labels: int = 4
) -> tuple[IncompleteDataset, np.ndarray]:
    """A ``n_labels``-class incomplete dataset from :mod:`repro.data.synth`.

    20% of the rows lose two numeric cells (MCAR); each lost cell gets the
    repair generator's five numeric candidates, so a dirty row has 25.
    Returns the dataset and ``n_test`` clean test points from the same
    distribution.
    """
    rng = np.random.default_rng(seed)
    spec = SyntheticSpec(
        n_rows=n_train + n_test, n_numeric=6, n_categorical=0, n_labels=n_labels,
        class_separation=2.5,
    )
    table = generate_table(spec, rng)
    train = table.take(np.arange(n_train))
    test = table.take(np.arange(n_train, n_train + n_test))
    dirty = inject_mcar(train, row_rate=0.2, cells_per_row=2, seed=rng)
    repairs = RepairSpace(dirty)
    encoder = TableEncoder().fit(dirty)
    candidate_sets = []
    for row in range(dirty.n_rows):
        versions = repairs.row_repairs(row)
        numeric = np.stack([num for num, _cat in versions])
        categorical = np.stack([cat for _num, cat in versions])
        candidate_sets.append(encoder.encode_rows(numeric, categorical))
    return IncompleteDataset(candidate_sets, dirty.labels), encoder.encode_table(test)


# ---------------------------------------------------------------------------
# Codd tables for the sql workload
# ---------------------------------------------------------------------------


def _null_rows(rng: np.random.Generator, n_rows: int, n_null: int) -> set[int]:
    return set(rng.choice(n_rows, size=n_null, replace=False).tolist())


def codd_database(seed: int, sizes: dict) -> dict[str, CoddTable]:
    """The tables the four SQL query classes run against.

    * ``people`` — the large select-project table (NULL ages).
    * ``customers`` / ``orders`` — a complete dimension and a fact table
      with NULL amounts, each NULL with three candidates and complete join
      keys, so the hash join stays exact.
    * ``sales`` — one row per sale id, so GROUP BY child tuples are
      distinct and the aggregate DP serves it.
    * ``dup`` — a few rows with colliding ``(region, amount)`` tuples, so
      the aggregate declines to world enumeration (``3 ** n_null`` worlds).

    NULL counts are exact, so every seed has the same world structure.
    """
    rng = np.random.default_rng(seed)
    n = sizes["people"]
    nulls = _null_rows(rng, n, sizes["people_null"])
    people = []
    for pid in range(n):
        if pid in nulls:
            ages = rng.choice(90, size=3, replace=False)
            age: object = Null(int(a) for a in ages)
        else:
            age = int(rng.integers(0, 90))
        people.append((pid, REGIONS[int(rng.integers(0, 4))], age, int(rng.integers(0, 1000))))

    n_cust = sizes["customers"]
    customers = [(cid, REGIONS[int(rng.integers(0, 4))]) for cid in range(n_cust)]
    n = sizes["orders"]
    nulls = _null_rows(rng, n, sizes["orders_null"])
    orders = []
    for oid in range(n):
        cid = int(rng.integers(0, n_cust))
        if oid in nulls:
            base = int(rng.integers(0, 120))
            amount: object = Null([base, base + 30, base + 60])
        else:
            amount = int(rng.integers(0, 160))
        orders.append((oid, cid, amount))

    n = sizes["sales"]
    nulls = _null_rows(rng, n, sizes["sales_null"])
    sales = []
    for sid in range(n):
        if sid in nulls:
            base = int(rng.integers(0, 100))
            amount = Null([base, base + 10, base + 20])
        else:
            amount = int(rng.integers(0, 150))
        sales.append((sid, REGIONS[int(rng.integers(0, 4))], amount))

    n = sizes["dup"]
    nulls = _null_rows(rng, n, sizes["dup_null"])
    dup = []
    for row in range(n):
        region = REGIONS[int(rng.integers(0, 2))]
        amount = Null([10, 20, 30]) if row in nulls else int(rng.choice([10, 20, 30]))
        dup.append((region, amount))

    return {
        "people": CoddTable(("pid", "region", "age", "score"), people),
        "customers": CoddTable(("cid", "region"), customers),
        "orders": CoddTable(("oid", "cid", "amount"), orders),
        "sales": CoddTable(("sid", "region", "amount"), sales),
        "dup": CoddTable(("region", "amount"), dup),
    }


def sql_text(query_class: str, rng: np.random.Generator) -> str:
    """One SQL query of ``query_class`` with WHERE literals drawn from ``rng``.

    Two literals per query keep repeats rare, so the service's result cache
    serves almost nothing and every class does its real work.
    """
    if query_class == "select":
        age = int(rng.integers(15, 60))
        score = int(rng.integers(0, 900))
        return f"SELECT pid, age FROM people WHERE age < {age} AND score > {score}"
    if query_class == "join":
        low = int(rng.integers(40, 140))
        high = low + int(rng.integers(20, 100))
        return (
            "SELECT c.region, o.amount FROM customers c JOIN orders o ON c.cid = o.cid "
            f"WHERE o.amount >= {low} AND o.amount <= {high}"
        )
    if query_class == "group":
        low = int(rng.integers(0, 100))
        high = low + int(rng.integers(30, 130))
        return (
            "SELECT region, COUNT(*) AS n, MAX(amount) AS top FROM sales "
            f"WHERE amount > {low} AND amount < {high} GROUP BY region"
        )
    if query_class == "decline":
        low = int(rng.integers(0, 25))
        high = int(rng.integers(31, 200))
        return (
            "SELECT region, COUNT(*) AS n FROM dup "
            f"WHERE amount > {low} AND amount < {high} GROUP BY region"
        )
    raise ValueError(f"unknown query class {query_class!r}")
