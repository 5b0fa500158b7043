"""The dataset registry: named datasets with warm prepared state.

Every entry point in the repo so far is one-shot and in-process: each
caller builds its own :class:`~repro.core.batch_engine.PreparedBatch`
(the vectorised candidate-distance state), uses it, and throws it away.
A long-lived service must not — preparing distances is the expensive,
perfectly reusable part of a CP query, which is why the ROADMAP's
"heavy traffic" north star needs a place that keeps it warm.

:class:`DatasetRegistry` is that place. It maps names to
:class:`DatasetEntry` objects, each owning:

* the dataset itself plus its content ``fingerprint()`` (the cache key
  every layer below already agrees on);
* an optional registered **validation set**, whose prepared state is
  pinned via a lazily-built
  :class:`~repro.cleaning.sequential.CleaningSession` — that session
  holds the ``PreparedBatch`` and, through the ``incremental`` backend,
  keeps a :class:`~repro.core.deltas.DeltaMaintainedState` maintained
  across ``/clean/step`` calls instead of re-preparing per request;
* per-entry counters the ``/metrics`` endpoint reports.

Since PR 5 the registry also pins the *database* half of Figure 1: a
:class:`CoddTableEntry` holds a registered
:class:`~repro.codd.codd_table.CoddTable` together with its lazily-built
:class:`~repro.codd.vectorized.StackedTable` completion grid, the warm
columnar state the ``/sql`` endpoint's vectorized certain-answer engine
evaluates on.

Everything is thread-safe: the registry serialises membership changes on
one lock, and each entry serialises its own lazy construction and
cleaning steps, so two HTTP threads can hit different datasets without
ever contending on a global lock.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cleaning.sequential import CleaningSession
from repro.codd.codd_table import CoddTable
from repro.codd.vectorized import (
    MAX_STACKED_CELLS,
    StackedTable,
    estimate_stacked_cells,
)
from repro.core.batch_engine import PreparedBatch
from repro.core.dataset import IncompleteDataset
from repro.core.deltas import (
    CellRepair,
    Delta,
    RowAppend,
    RowDelete,
    apply_delta_to_dataset,
)
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.label_uncertainty import LabelUncertainDataset
from repro.utils.validation import check_positive_int

__all__ = [
    "UnknownDatasetError",
    "RegistryError",
    "DuplicateDatasetError",
    "DatasetEntry",
    "DatasetSnapshot",
    "CoddTableEntry",
    "CoddTableSnapshot",
    "DatasetRegistry",
]


@dataclass(frozen=True)
class DatasetSnapshot:
    """An atomic read of a :class:`DatasetEntry`'s versioned state.

    Captured under the entry lock, so ``dataset``, ``fingerprint`` and
    ``version`` always belong to one serializable version even while
    ``PATCH`` traffic mutates the entry. ``prepared`` is advisory warm
    state: every backend verifies it against the query's dataset before
    use, so a snapshot raced by a concurrent delta executes correctly
    (on its own version), just without the shortcut.
    """

    dataset: IncompleteDataset | LabelUncertainDataset
    fingerprint: str
    version: int
    prepared: PreparedBatch | None


@dataclass(frozen=True)
class CoddTableSnapshot:
    """An atomic read of a :class:`CoddTableEntry`'s versioned state."""

    table: CoddTable
    fingerprint: str
    version: int
    stacked: StackedTable | None
    stackable: bool


class RegistryError(ValueError):
    """Invalid registry operation (no validation set, no oracle, bad name)."""


class DuplicateDatasetError(RegistryError):
    """The name is already registered (surfaced as HTTP 409; pass
    ``replace=True`` to overwrite)."""


class UnknownDatasetError(KeyError):
    """No dataset registered under that name (surfaced as HTTP 404)."""

    def __init__(self, name: str, known: list[str]) -> None:
        super().__init__(name)
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return f"unknown dataset {self.name!r}; registered: {self.known}"


class DatasetEntry:
    """One registered dataset and the warm state pinned to it.

    Built by :class:`DatasetRegistry`; not constructed directly. The
    entry's :attr:`session` (and through it the pinned
    :class:`~repro.core.batch_engine.PreparedBatch` over the registered
    validation set) is created on first use and then reused by every
    request, which is exactly the state sharing the one-shot entry
    points could never offer.
    """

    def __init__(
        self,
        name: str,
        dataset: IncompleteDataset | LabelUncertainDataset,
        k: int = 3,
        kernel: Kernel | str | None = None,
        val_X: np.ndarray | None = None,
        gt_choice: np.ndarray | None = None,
        backend: str = "auto",
        n_jobs: int | None = 1,
    ) -> None:
        self.name = name
        self.dataset = dataset
        self.k = check_positive_int(k, "k")
        self.kernel = resolve_kernel(kernel)
        self.val_X = None if val_X is None else np.asarray(val_X, dtype=np.float64)
        self.gt_choice = gt_choice
        self.backend = backend
        self.n_jobs = n_jobs
        self.fingerprint = dataset.fingerprint()
        self.version = 1
        self.n_queries = 0
        self.n_points_served = 0
        self.n_clean_steps = 0
        self._session: CleaningSession | None = None
        #: Partition layout of the last gateway execution (``None`` until
        #: the partitioned topology serves this entry). Written by the
        #: broker, echoed by ``/datasets/<name>`` — registry entries carry
        #: their placement so operators can see which executor owns what.
        self.partitioning: dict | None = None
        self._lock = threading.RLock()
        # Serialises whole cleaning steps (mutation + checkpoint query).
        # Separate from _lock so long checkpoint queries never block the
        # quick prepared/session_pins snapshots the query path takes.
        self._session_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def supports_cleaning(self) -> bool:
        """True iff the entry can run ``/clean/step`` (needs a validation set
        and a feature-incomplete dataset — cleaning pins feature repairs)."""
        return self.val_X is not None and isinstance(self.dataset, IncompleteDataset)

    @property
    def session(self) -> CleaningSession:
        """The entry's cleaning session (lazily built, then pinned warm).

        Owns the validation set's ``PreparedBatch`` and the shared result
        cache; ``backend="auto"`` routes binary certainty checks through
        the vectorised MinMax batch path and larger label spaces through
        the ``incremental`` backend's maintained counts.
        """
        if not self.supports_cleaning:
            raise RegistryError(
                f"dataset {self.name!r} has no validation set registered; "
                "cleaning and validation queries need one"
            )
        with self._lock:
            if self._session is None:
                self._session = CleaningSession(
                    self.dataset,
                    self.val_X,
                    k=self.k,
                    kernel=self.kernel,
                    n_jobs=self.n_jobs,
                    backend=self.backend,
                )
            return self._session

    @property
    def prepared(self) -> PreparedBatch | None:
        """The pinned prepared-distance state over the registered validation
        set, or ``None`` if it has not been built yet (see :meth:`ensure_warm`).

        Handing this to :class:`~repro.core.planner.ExecutionOptions`
        is always safe: the batch backend verifies fingerprint, test
        matrix, ``k`` and kernel before using a handed batch, so a
        mismatching prepared state is simply ignored.
        """
        with self._lock:
            if self._session is not None:
                return self._session.batch
        return None

    def ensure_warm(self) -> PreparedBatch | None:
        """Build (once) and return the pinned prepared state, if the entry
        has a validation set; ``None`` otherwise."""
        if self.supports_cleaning:
            return self.session.batch
        return None

    def snapshot(self) -> DatasetSnapshot:
        """Atomically capture ``(dataset, fingerprint, version, prepared)``.

        The broker's query path runs against a snapshot, never against
        the live entry fields, so every response is consistent with one
        serializable version even under concurrent ``PATCH`` writes.
        """
        with self._lock:
            return DatasetSnapshot(
                dataset=self.dataset,
                fingerprint=self.fingerprint,
                version=self.version,
                prepared=None if self._session is None else self._session.batch,
            )

    def apply_deltas(self, deltas: Sequence[Delta]) -> dict:
        """Apply base-data deltas in order, bumping the entry version per delta.

        Routed through the pinned session's delta-maintained state when
        the entry has one (so warm prepared state follows each delta in
        O(Δ)); otherwise the deltas transform the dataset directly. Each
        delta commits atomically — dataset, fingerprint and version swap
        under the entry lock together — so a failing delta leaves every
        previously applied one visible and consistent.
        """
        if not isinstance(self.dataset, IncompleteDataset):
            raise RegistryError(
                f"dataset {self.name!r} is not an incomplete dataset; "
                "deltas apply to feature candidate sets"
            )
        deltas = list(deltas)
        if not deltas:
            raise RegistryError("'deltas' must contain at least one operation")
        reports: list[dict] = []
        with self._session_lock:
            session = self.session if self.supports_cleaning else None
            for delta in deltas:
                if session is not None:
                    report = session.apply_delta(delta)
                    report.pop("version", None)  # the entry's version is authoritative
                    new_dataset = session.dataset
                else:
                    new_dataset = apply_delta_to_dataset(self.dataset, delta)
                    if isinstance(delta, CellRepair):
                        report = {"op": "cell_repair", "row": delta.row}
                    elif isinstance(delta, RowAppend):
                        report = {"op": "row_append", "row": new_dataset.n_rows - 1}
                    else:
                        report = {"op": "row_delete", "row": delta.row}
                with self._lock:
                    self.dataset = new_dataset
                    self.fingerprint = new_dataset.fingerprint()
                    self.version += 1
                    report["version"] = self.version
                reports.append(report)
        return {
            "dataset": self.name,
            "version": reports[-1]["version"],
            "fingerprint": self.fingerprint,
            "n_rows": new_dataset.n_rows,
            "n_worlds": str(new_dataset.n_worlds()),
            "reports": reports,
        }

    def clean_step(self, row: int, candidate: int | None) -> dict:
        """Apply one human answer and return the session checkpoint.

        ``candidate=None`` consults the registered ground-truth choice
        (recipe datasets carry one) — the simulated oracle, driven over
        the wire.
        """
        with self._session_lock:
            with self._lock:
                session = self.session
                if candidate is None:
                    if self.gt_choice is None:
                        raise RegistryError(
                            f"dataset {self.name!r} has no ground-truth oracle; "
                            "send an explicit candidate"
                        )
                    candidate = int(self.gt_choice[int(row)])
                session.clean_row(int(row), int(candidate))
                self.n_clean_steps += 1
            # The checkpoint runs a full validation certainty query, so it
            # must not hold the entry lock (queries take it for quick
            # prepared/session_pins snapshots) — but it does hold the
            # session lock, so concurrent cleaning steps serialise and
            # session.fixed is never mutated mid-checkpoint.
            checkpoint = session.checkpoint()
        checkpoint["dataset"] = self.name
        checkpoint["row"] = int(row)
        checkpoint["candidate"] = int(candidate)
        with self._lock:
            checkpoint["version"] = self.version
        return checkpoint

    def session_pins(self) -> dict[int, int]:
        """Pins applied by ``/clean/step`` so far (empty before any step)."""
        with self._lock:
            if self._session is None:
                return {}
            return dict(self._session.fixed)

    def record_served(self, n_points: int) -> None:
        """Bump the per-entry request counters (one query, ``n_points`` points)."""
        with self._lock:
            self.n_queries += 1
            self.n_points_served += int(n_points)

    def describe(self) -> dict:
        """The ``/datasets`` JSON row for this entry."""
        with self._lock:
            dataset = self.dataset
            fingerprint = self.fingerprint
            version = self.version
            partitioning = self.partitioning
            n_cleaned = 0 if self._session is None else len(self._session.fixed)
            stats = {
                "n_queries": self.n_queries,
                "n_points_served": self.n_points_served,
                "n_clean_steps": self.n_clean_steps,
            }
        return {
            "name": self.name,
            "type": (
                "label_uncertain"
                if isinstance(dataset, LabelUncertainDataset)
                else "incomplete"
            ),
            "fingerprint": fingerprint,
            "version": version,
            "n_rows": dataset.n_rows,
            "n_features": dataset.n_features,
            "n_labels": dataset.n_labels,
            "n_worlds": str(dataset.n_worlds()),
            "k": self.k,
            "kernel": repr(self.kernel),
            "n_val": 0 if self.val_X is None else int(self.val_X.shape[0]),
            "supports_cleaning": self.supports_cleaning,
            "has_oracle": self.gt_choice is not None,
            "n_cleaned": n_cleaned,
            "partitioning": partitioning,
            **stats,
        }

    def set_partitioning(self, partitioning: dict | None) -> None:
        """Record the gateway's partition layout for this entry."""
        with self._lock:
            self.partitioning = partitioning


class CoddTableEntry:
    """One registered Codd table and the warm columnar state pinned to it.

    The certain-answer twin of :class:`DatasetEntry`: where a dataset
    entry pins a :class:`~repro.core.batch_engine.PreparedBatch`, a Codd
    entry pins the :class:`~repro.codd.vectorized.StackedTable` completion
    grid the vectorized engine evaluates on — built on first use, then
    reused by every ``/sql`` request against this table. Tables whose
    grid would blow the stacking cap simply pin nothing (the engine's
    row-wise fallback needs no prepared state).
    """

    def __init__(self, name: str, table: CoddTable) -> None:
        self.name = name
        self.table = table
        self.fingerprint = table.fingerprint()
        self.version = 1
        self.n_queries = 0
        # The O(rows) size estimate runs once here, not per access under
        # the lock (an over-cap table would otherwise pay it per query).
        self._stackable = estimate_stacked_cells(table) <= MAX_STACKED_CELLS
        self._stacked: StackedTable | None = None
        self._lock = threading.RLock()

    @property
    def stacked(self) -> StackedTable | None:
        """The pinned completion grid (lazily built), or ``None`` when the
        table is too large to stack."""
        if not self._stackable:
            return None
        with self._lock:
            if self._stacked is None:
                self._stacked = StackedTable(self.table)
            return self._stacked

    def snapshot(self) -> CoddTableSnapshot:
        """Atomically capture ``(table, fingerprint, version, grid)``.

        ``stacked`` is whatever grid is pinned *right now* (possibly
        ``None`` if never built); :meth:`grid_for` materialises one for a
        snapshot without racing later versions.
        """
        with self._lock:
            return CoddTableSnapshot(
                table=self.table,
                fingerprint=self.fingerprint,
                version=self.version,
                stacked=self._stacked,
                stackable=self._stackable,
            )

    def grid_for(self, snap: CoddTableSnapshot) -> StackedTable | None:
        """The completion grid for a snapshot's table version (or ``None``).

        Builds the grid from the snapshot's own table when none is pinned
        yet, and pins it on the entry only if the entry still is at that
        version — a grid for a superseded version is used once and
        dropped, never installed over newer state.
        """
        if snap.stacked is not None:
            return snap.stacked
        if not snap.stackable:
            return None
        grid = StackedTable(snap.table)
        with self._lock:
            if self._stacked is None and self.fingerprint == snap.fingerprint:
                self._stacked = grid
        return grid

    def apply_fix(self, row: int, column: int, value) -> dict:
        """Fix one NULL cell to ``value``; O(kept worlds) on the pinned grid.

        The registered table is replaced by
        :meth:`~repro.codd.codd_table.CoddTable.with_cell_fixed` and — when
        a completion grid is pinned — the grid is updated *in place* via
        :meth:`~repro.codd.vectorized.StackedTable.with_cell_fixed`
        (a structural keep-mask over the affected row's world block, not a
        rebuild). Table, grid, fingerprint and version all swap under one
        lock, so every ``/sql`` snapshot sees a single serializable
        version.
        """
        with self._lock:
            if self._stacked is not None:
                self._stacked = self._stacked.with_cell_fixed(row, column, value)
                new_table = self._stacked.table
            else:
                new_table = self.table.with_cell_fixed(row, column, value)
            self.table = new_table
            self.fingerprint = new_table.fingerprint()
            # A fix only shrinks the grid, but re-estimate anyway: a table
            # registered over the stacking cap can drop under it.
            self._stackable = (
                self._stacked is not None
                or estimate_stacked_cells(new_table) <= MAX_STACKED_CELLS
            )
            self.version += 1
            return {
                "table": self.name,
                "op": "fix_cell",
                "row": int(row),
                "column": int(column),
                "version": self.version,
                "fingerprint": self.fingerprint,
                "n_worlds": str(new_table.n_worlds()),
                "grid_pinned": self._stacked is not None,
            }

    def record_served(self) -> None:
        """Bump the per-entry SQL query counter."""
        with self._lock:
            self.n_queries += 1

    def describe(self) -> dict:
        """The ``/datasets`` JSON row for this entry."""
        with self._lock:
            table = self.table
            fingerprint = self.fingerprint
            version = self.version
            n_queries = self.n_queries
            pinned = self._stacked is not None
        return {
            "name": self.name,
            "type": "codd",
            "fingerprint": fingerprint,
            "version": version,
            "schema": list(table.schema),
            "n_rows": len(table),
            "n_null_cells": table.n_variables,
            "n_worlds": str(table.n_worlds()),
            "grid_pinned": pinned,
            "n_queries": n_queries,
        }


class DatasetRegistry:
    """Thread-safe name → entry mapping for the service.

    Two independent namespaces live here: CP datasets
    (:class:`DatasetEntry`) and Codd tables (:class:`CoddTableEntry`) —
    the two halves of the paper's Figure 1, served by one registry."""

    def __init__(self) -> None:
        self._entries: dict[str, DatasetEntry] = {}
        self._codd: dict[str, CoddTableEntry] = {}
        self._lock = threading.RLock()
        self._invalidation_hooks: list[Callable[[str], None]] = []
        self._obs = None
        self._c_registrations = None
        self._c_invalidations = None
        self._c_removals = None

    def attach_observability(self, obs) -> None:
        """Report into ``obs`` (an :class:`~repro.obs.Observability`).

        Registration/invalidation/removal events become counters; the
        current dataset/table population and their served totals surface
        as gauges via a snapshot-time collector (levels, not counters —
        removals make them go down). ``stats()`` keeps the legacy JSON
        shape either way.
        """
        self._obs = obs
        self._c_registrations = obs.metrics.counter(
            "registry_registrations_total",
            help="datasets + codd tables registered",
        )
        self._c_invalidations = obs.metrics.counter(
            "registry_invalidations_total",
            help="names whose content was replaced or removed",
        )
        self._c_removals = obs.metrics.counter("registry_removals_total")
        obs.metrics.add_collector(self._collect_gauges)

    def _collect_gauges(self, metrics) -> None:
        stats = self.stats()
        gauge = metrics.gauge
        gauge("registry_datasets", help="registered CP datasets").set(
            stats["n_datasets"]
        )
        gauge("registry_codd_tables").set(stats["n_codd_tables"])
        gauge("registry_queries").set(stats["n_queries"])
        gauge("registry_points_served").set(stats["n_points_served"])
        gauge("registry_clean_steps").set(stats["n_clean_steps"])
        gauge("registry_sql_queries").set(stats["n_sql_queries"])

    # ------------------------------------------------------------------
    def add_invalidation_hook(self, hook: Callable[[str], None]) -> None:
        """Register a callback fired with a name whenever that name's
        registered content is replaced or removed.

        The broker subscribes its TTL result cache here, so re-registering
        a dataset under an existing name *purges* that dataset's cached
        results instead of leaving fingerprint-keyed entries resident
        until TTL/LRU pressure claims them.
        """
        self._invalidation_hooks.append(hook)

    def _notify_invalidation(self, name: str) -> None:
        if self._c_invalidations is not None:
            self._c_invalidations.inc()
        for hook in list(self._invalidation_hooks):
            hook(name)

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        dataset: IncompleteDataset | LabelUncertainDataset,
        k: int = 3,
        kernel: Kernel | str | None = None,
        val_X: np.ndarray | None = None,
        gt_choice: np.ndarray | None = None,
        backend: str = "auto",
        n_jobs: int | None = 1,
        replace: bool = False,
    ) -> DatasetEntry:
        """Register ``dataset`` under ``name`` (``replace`` to overwrite)."""
        if not isinstance(name, str) or not name:
            raise RegistryError("dataset name must be a non-empty string")
        entry = DatasetEntry(
            name,
            dataset,
            k=k,
            kernel=kernel,
            val_X=val_X,
            gt_choice=gt_choice,
            backend=backend,
            n_jobs=n_jobs,
        )
        with self._lock:
            if not replace and name in self._entries:
                raise DuplicateDatasetError(f"dataset {name!r} is already registered")
            replaced = name in self._entries
            self._entries[name] = entry
        if self._c_registrations is not None:
            self._c_registrations.inc()
        if replaced:
            # The name now maps to different content: anything cached for
            # the old registration must go (fired outside the lock).
            self._notify_invalidation(name)
        return entry

    def register_recipe(
        self,
        name: str,
        recipe: str = "supreme",
        n_train: int = 100,
        n_val: int = 24,
        missing_rate: float | None = None,
        k: int = 3,
        seed: int = 0,
        backend: str = "auto",
        n_jobs: int | None = 1,
        replace: bool = False,
    ) -> DatasetEntry:
        """Build one of the paper's dirty-dataset recipes and register it.

        The recipe's validation split becomes the registered validation
        set (so its prepared state is pinned) and the ground-truth repair
        choice becomes the entry's simulated cleaning oracle.
        """
        from repro.data.task import build_cleaning_task

        task = build_cleaning_task(
            recipe,
            n_train=n_train,
            n_val=n_val,
            n_test=2,
            missing_rate=missing_rate,
            k=k,
            seed=seed,
        )
        return self.register(
            name,
            task.incomplete,
            k=k,
            val_X=task.val_X,
            gt_choice=task.gt_choice,
            backend=backend,
            n_jobs=n_jobs,
            replace=replace,
        )

    def register_codd_table(
        self, name: str, table: CoddTable, replace: bool = False
    ) -> CoddTableEntry:
        """Register a Codd table under ``name`` (``replace`` to overwrite).

        Codd tables live in their own namespace: the same name may also
        refer to a CP dataset (the paper's Figure 1 runs both halves over
        one table, so the service allows the pairing)."""
        if not isinstance(name, str) or not name:
            raise RegistryError("codd table name must be a non-empty string")
        if not isinstance(table, CoddTable):
            raise RegistryError(
                f"expected a CoddTable, got {type(table).__name__}"
            )
        entry = CoddTableEntry(name, table)
        with self._lock:
            if not replace and name in self._codd:
                raise DuplicateDatasetError(
                    f"codd table {name!r} is already registered"
                )
            replaced = name in self._codd
            self._codd[name] = entry
        if self._c_registrations is not None:
            self._c_registrations.inc()
        if replaced:
            self._notify_invalidation(name)
        return entry

    # ------------------------------------------------------------------
    def get(self, name: str) -> DatasetEntry:
        """The entry for ``name`` (:class:`UnknownDatasetError` if absent)."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise UnknownDatasetError(name, sorted(self._entries))
            return entry

    def get_codd(self, name: str) -> CoddTableEntry:
        """The Codd-table entry for ``name`` (:class:`UnknownDatasetError`
        listing the registered Codd tables if absent)."""
        with self._lock:
            entry = self._codd.get(name)
            if entry is None:
                raise UnknownDatasetError(name, sorted(self._codd))
            return entry

    def codd_names(self) -> list[str]:
        """Registered Codd-table names, sorted."""
        with self._lock:
            return sorted(self._codd)

    def remove(self, name: str) -> None:
        """Drop a CP dataset registration (and its warm state)."""
        with self._lock:
            if self._entries.pop(name, None) is None:
                raise UnknownDatasetError(name, sorted(self._entries))
        if self._c_removals is not None:
            self._c_removals.inc()
        self._notify_invalidation(name)

    def remove_codd(self, name: str) -> None:
        """Drop a Codd-table registration (and its pinned completion grid)."""
        with self._lock:
            if self._codd.pop(name, None) is None:
                raise UnknownDatasetError(name, sorted(self._codd))
        if self._c_removals is not None:
            self._c_removals.inc()
        self._notify_invalidation(name)

    def names(self) -> list[str]:
        """Registered dataset names, sorted."""
        with self._lock:
            return sorted(self._entries)

    def describe_all(self) -> list[dict]:
        """The ``/datasets`` listing (CP datasets first, then Codd tables;
        every row carries a ``type`` discriminator)."""
        with self._lock:
            entries = list(self._entries.values())
            codd = list(self._codd.values())
        return [entry.describe() for entry in entries] + [
            entry.describe() for entry in codd
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def stats(self) -> Mapping[str, Any]:
        """Aggregate counters for ``/metrics``."""
        with self._lock:
            entries = list(self._entries.values())
            codd = list(self._codd.values())
        return {
            "n_datasets": len(entries),
            "n_queries": sum(e.n_queries for e in entries),
            "n_points_served": sum(e.n_points_served for e in entries),
            "n_clean_steps": sum(e.n_clean_steps for e in entries),
            "n_codd_tables": len(codd),
            "n_sql_queries": sum(e.n_queries for e in codd),
        }
