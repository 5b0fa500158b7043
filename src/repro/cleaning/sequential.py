"""The shared human-in-the-loop cleaning session (paper §4, Algorithm 3 skeleton).

Both CPClean and the RandomClean baseline run the same outer loop:

1. stop when every validation example is certainly predicted (or a budget
   is exhausted);
2. select the next dirty training row by some strategy;
3. ask the (simulated) human oracle for its true candidate;
4. fix the row and repeat.

:class:`CleaningSession` owns the loop, the CP bookkeeping, and the query
infrastructure: certainty checks route through the unified planner
(:mod:`repro.core.planner`), with the session's
:class:`~repro.core.batch_engine.PreparedBatch` (the vectorised
candidate-distance state for the whole validation set) and shared
:class:`~repro.core.batch_engine.QueryResultCache` handed to whichever
backend the planner runs. The ``backend`` parameter picks the execution
strategy: ``"auto"`` uses the vectorised-MinMax batch path for binary
labels and the ``incremental`` backend otherwise — the latter keeps exact
Q2 counts maintained across cleaning steps (one
:class:`~repro.core.deltas.DeltaMaintainedState` per query family, each
pin applied as a :class:`~repro.core.deltas.CellRepair`) instead of
re-preparing every validation point after every pin. The expected-entropy
scoring of candidate rows can fan out across ``n_jobs`` worker processes.
Strategies only implement :meth:`CleaningStrategy.select`; the per-point
:class:`~repro.core.prepared.PreparedQuery` views of the session's
prepared batch are available as ``session.queries``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

import numpy as np

from repro.cleaning.oracle import CleaningOracle
from repro.cleaning.report import CleaningReport, CleaningStep
from repro.core.batch_engine import (
    BatchQueryExecutor,
    PreparedBatch,
    QueryResultCache,
    fanout_map,
    get_fanout_state,
)
from repro.core.dataset import IncompleteDataset
from repro.core.deltas import (
    CellRepair,
    Delta,
    DeltaMaintainedState,
    RowDelete,
)
from repro.core.entropy import prediction_entropy
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.planner import ExecutionOptions, execute_query, get_backend, make_query
from repro.utils.validation import check_positive_int

__all__ = ["CleaningStrategy", "CleaningSession"]


class CleaningStrategy(ABC):
    """Chooses which dirty row to clean next."""

    name = "abstract"

    @abstractmethod
    def select(self, session: "CleaningSession", remaining: list[int]) -> tuple[int, float | None]:
        """Return ``(row, expected_entropy_or_None)`` for the next cleaning step."""


def _expected_entropy_worker(row: int) -> tuple[int, float]:
    """Pool worker: expected post-cleaning entropy of one candidate row.

    Reads ``(session, fixed)`` from the fork-inherited fan-out state; the
    session's prepared queries are shared read-only across workers.
    """
    session, fixed = get_fanout_state()
    return row, session._expected_entropy_of(row, fixed)


class CleaningSession:
    """One cleaning run over an incomplete training set and a validation set.

    Parameters
    ----------
    dataset, val_X, k, kernel:
        The cleaning problem, as in the paper.
    n_jobs:
        Worker processes for the expected-entropy scoring fan-out (and the
        batch Q2 counts behind certainty checks on datasets with more than
        two labels; binary MinMax checks are vectorised in-process and
        never fork). ``1`` = in-process; ``None``/``-1`` = all CPUs.
        Results are identical for every value (tested).
    use_cache:
        Whether repeated CP queries (same dataset, pins, and point) are
        served from the session's LRU result cache. On by default; results
        are identical either way.
    backend:
        Planner backend for the per-step certainty checks:
        ``"sequential"``, ``"batch"``, ``"incremental"``, ``"sharded"``,
        or ``"auto"`` (default) which picks ``"batch"`` for binary labels
        (the vectorised MinMax check) and ``"incremental"`` otherwise
        (exact Q2 counts maintained across cleaning steps). Every choice
        returns bit-identical labels (tested); only wall-clock changes.
    tile_rows, tile_candidates:
        Tile bounds handed to the ``sharded`` backend's streamed
        certainty checks (:mod:`repro.core.shards`); ``None`` keeps the
        backend defaults. Ignored by the other backends. Note the
        session's own selection scoring still uses its dense prepared
        batch — the sharded backend bounds the certainty-check path.
    """

    def __init__(
        self,
        dataset: IncompleteDataset,
        val_X: np.ndarray,
        k: int = 3,
        kernel: Kernel | str | None = None,
        n_jobs: int | None = 1,
        use_cache: bool = True,
        backend: str = "auto",
        tile_rows: int | None = None,
        tile_candidates: int | None = None,
    ) -> None:
        self.dataset = dataset
        self.k = k
        self.kernel = resolve_kernel(kernel)
        self.n_jobs = n_jobs
        self.cache = QueryResultCache() if use_cache else None
        self.batch = PreparedBatch(dataset, val_X, k=k, kernel=self.kernel)
        self.val_X = self.batch.test_X
        self._executor: BatchQueryExecutor | None = None
        self._delta_state: DeltaMaintainedState | None = None
        self.fixed: dict[int, int] = {}
        self.backend = backend
        self.tile_rows = (
            None if tile_rows is None else check_positive_int(tile_rows, "tile_rows")
        )
        self.tile_candidates = (
            None
            if tile_candidates is None
            else check_positive_int(tile_candidates, "tile_candidates")
        )
        if backend != "auto":
            get_backend(backend)  # fail fast on unknown backend names
        if backend == "auto":
            # Cost-model-lite at the session level: binary certainty checks
            # are cheapest through the vectorised MinMax batch path; larger
            # label spaces need real counts, where maintaining them
            # incrementally beats a full recount per step.
            self._check_backend = "batch" if dataset.n_labels == 2 else "incremental"
        else:
            self._check_backend = backend

    # ------------------------------------------------------------------
    @property
    def executor(self) -> BatchQueryExecutor:
        """A batch executor over the session's prepared state (built lazily).

        Kept for code that drives the session's query family directly;
        the session itself routes certainty checks through the planner.
        """
        if self._executor is None:
            self._executor = BatchQueryExecutor(
                prepared=self.batch, n_jobs=self.n_jobs, cache=self.cache
            )
        return self._executor

    @property
    def queries(self) -> list:
        """Per-point :class:`~repro.core.prepared.PreparedQuery` objects.

        Delegates to the session's prepared batch (which materialises and
        caches them per point), so a base-data delta — which swaps the
        batch — only rebuilds the queries that are actually read again.
        """
        return self.batch.queries()

    @property
    def n_val(self) -> int:
        return self.val_X.shape[0]

    def remaining_dirty_rows(self) -> list[int]:
        """Dirty rows that have not been cleaned yet."""
        return [row for row in self.dataset.uncertain_rows() if row not in self.fixed]

    def val_certain_labels(self) -> list[int | None]:
        """The CP'ed label (or None) of every validation point, given cleaning so far.

        Routed through the planner onto the session's check backend; the
        session's prepared batch and result cache are handed along so no
        backend re-prepares state the session already holds.
        """
        query = make_query(
            self.dataset,
            self.val_X,
            kind="certain_label",
            k=self.k,
            kernel=self.kernel,
            pins=self.fixed,
        )
        options = ExecutionOptions(
            n_jobs=self.n_jobs,
            cache=self.cache if self.cache is not None else False,
            prepared=self.batch,
            tile_rows=self.tile_rows,
            tile_candidates=self.tile_candidates,
        )
        return execute_query(query, backend=self._check_backend, options=options).values

    def cp_fraction(self) -> float:
        """Fraction of validation points currently CP'ed.

        An empty validation set is trivially fully certain (there is
        nothing left for cleaning to change), so it reports 1.0.
        """
        labels = self.val_certain_labels()
        if not labels:
            return 1.0
        return sum(label is not None for label in labels) / len(labels)

    def all_certain(self) -> bool:
        return all(label is not None for label in self.val_certain_labels())

    # ------------------------------------------------------------------
    def _expected_entropy_of(self, row: int, fixed: Mapping[int, int]) -> float:
        """Expected remaining entropy after cleaning ``row`` (Eq. 4, uniform prior)."""
        m = int(self.dataset.candidate_counts()[row])
        total = 0.0
        for query in self.queries:
            variants = query.counts_per_fixing(row, fixed)
            total += sum(prediction_entropy(counts) for counts in variants)
        return total / (m * max(self.n_val, 1))

    def expected_entropies(self, rows: Sequence[int]) -> dict[int, float]:
        """CPClean's selection objective for every row, fanned out over workers.

        ``result[row]`` is the expected post-cleaning validation entropy of
        cleaning ``row`` (Equation 4 under the uniform prior, averaged over
        the validation set per Equation 3). With ``n_jobs > 1`` the rows
        are scored in parallel worker processes; scores are bit-identical
        to the in-process loop because each row's computation is untouched.
        """
        pairs = fanout_map(
            _expected_entropy_worker,
            rows,
            n_jobs=self.n_jobs,
            state=(self, dict(self.fixed)),
        )
        return dict(pairs)

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """A JSON-able snapshot of cleaning progress.

        This is the unit :mod:`repro.service` ships over the wire after
        every ``/clean/step`` call: the pins applied so far, the current
        per-point certain labels, and the derived certainty summary. The
        certainty check runs once; everything else is bookkeeping.
        """
        labels = self.val_certain_labels()
        n_certain = sum(label is not None for label in labels)
        return {
            "n_cleaned": len(self.fixed),
            "fixed": {int(row): int(cand) for row, cand in sorted(self.fixed.items())},
            "certain_labels": [None if lbl is None else int(lbl) for lbl in labels],
            "n_certain": n_certain,
            "cp_fraction": n_certain / len(labels) if labels else 1.0,
            "all_certain": n_certain == len(labels),
            "remaining_dirty_rows": self.remaining_dirty_rows(),
        }

    def clean_row(self, row: int, candidate: int) -> None:
        """Record a human answer: pin ``row`` to ``candidate``."""
        if row in self.fixed:
            raise ValueError(f"row {row} was already cleaned")
        counts = self.dataset.candidate_counts()
        if not 0 <= candidate < counts[row]:
            raise IndexError(
                f"candidate {candidate} out of range for row {row} with {counts[row]} candidates"
            )
        self.fixed[row] = candidate

    # ------------------------------------------------------------------
    # Physical base-data deltas (the service's PATCH traffic)
    # ------------------------------------------------------------------
    def apply_repair(self, row: int, candidate: int) -> dict:
        """Physically repair ``row`` to ``candidate`` via the delta layer.

        Unlike :meth:`clean_row` — which records a *hypothetical* pin that
        queries condition on — a repair rewrites the dataset itself. See
        :meth:`apply_delta` for how the warm state follows in O(Δ).
        """
        return self.apply_delta(CellRepair(int(row), int(candidate)))

    def apply_delta(self, delta: Delta) -> dict:
        """Apply one base-data delta and update the session's warm state.

        The session keeps a :class:`~repro.core.deltas.DeltaMaintainedState`
        seeded from the prepared batch's similarity matrix (no kernel
        recompute), absorbs the delta there, and swaps in the state's
        reassembled :class:`~repro.core.batch_engine.PreparedBatch` — so
        the certainty checks and entropy scoring that follow see the new
        dataset version without a full re-preparation.

        Pins are reconciled with the delta: a :class:`CellRepair` matching
        an existing pin absorbs it (the pin is physical now) while a
        conflicting one raises ``ValueError``; a :class:`RowDelete` drops
        the deleted row's pin and shifts later pinned rows down by one.
        Returns the delta report (see :meth:`DeltaMaintainedState.apply`).
        """
        if isinstance(delta, CellRepair):
            pinned = self.fixed.get(delta.row)
            if pinned is not None and pinned != delta.candidate:
                raise ValueError(
                    f"repair of row {delta.row} to candidate {delta.candidate} "
                    f"conflicts with the session pin to candidate {pinned}"
                )
        if self._delta_state is None:
            self._delta_state = DeltaMaintainedState(
                self.dataset,
                self.val_X,
                k=self.k,
                kernel=self.kernel,
                sims_matrix=self.batch.sims_matrix,
            )
        report = self._delta_state.apply(delta)
        self.dataset = self._delta_state.dataset
        self.batch = self._delta_state.prepared_batch()
        self._executor = None  # held the previous batch
        if isinstance(delta, CellRepair):
            self.fixed.pop(delta.row, None)  # the pin is physical now
        elif isinstance(delta, RowDelete):
            self.fixed = {
                (row - 1 if row > delta.row else row): cand
                for row, cand in self.fixed.items()
                if row != delta.row
            }
        return report

    def run(
        self,
        strategy: CleaningStrategy,
        oracle: CleaningOracle,
        max_cleaned: int | None = None,
        on_step=None,
    ) -> CleaningReport:
        """Execute the cleaning loop (Algorithm 3's outer structure).

        ``on_step(step)`` is an optional callback invoked after every
        cleaning interaction (used by the experiment harness to trace
        accuracy curves).
        """
        report = CleaningReport()
        iteration = 0
        while True:
            cp_before = self.cp_fraction()
            if cp_before >= 1.0:
                break
            remaining = self.remaining_dirty_rows()
            if not remaining:
                break
            if max_cleaned is not None and iteration >= max_cleaned:
                report.terminated_early = True
                break
            row, expected_entropy = strategy.select(self, remaining)
            candidate = oracle(row)
            self.clean_row(row, candidate)
            step = CleaningStep(
                iteration=iteration,
                row=row,
                chosen_candidate=candidate,
                cp_fraction_before=cp_before,
                expected_entropy=expected_entropy,
            )
            report.steps.append(step)
            if on_step is not None:
                on_step(step)
            iteration += 1
        report.final_fixed = dict(self.fixed)
        report.cp_fraction_final = self.cp_fraction()
        return report
