"""The unified CP query planner: one front door, pluggable backends.

Every certain-prediction question is one family of counting queries over
possible worlds, so every front door goes through this module:

* :class:`CPQuery` (built via :func:`make_query`) is the *descriptor* of a
  query family: the dataset, a test matrix, the query kind
  (``counts`` / ``certain_label`` / ``check``), the task **flavor**
  (``binary``, ``multiclass``, ``weighted``, ``topk``,
  ``label_uncertainty``), ``k``, the kernel, the pins applied so far, an
  optional per-point algorithm override and optional candidate weights.
* :data:`POINT_FUNCTIONS` is the one flavor dispatch: it maps ``(flavor,
  counts-or-decision, path)`` to a per-point function of one
  candidate-order similarity row returning ``(value, stats)``, where the
  path is the full scan, the pruned scan or a published ``algorithm=``
  oracle. :func:`_execute_points` is the skeleton around it — cache
  lookup, evaluation of the missing points, stats folding, the ``check``
  kind — so backends differ only in how they prepare similarity rows,
  fan points out and cache values. :data:`EXTREME_FUNCTIONS` marks the
  entries that read a row only through its per-row extremes, so a
  streaming backend can hand them min/max tallies instead of full rows.
* :class:`Backend` is the executor protocol. Each backend declares
  :class:`BackendCapabilities` (which flavors and kinds it can serve,
  whether it is batchable / incremental / exact) and estimates its cost
  for a concrete query; a process-wide registry
  (:func:`register_backend` / :func:`get_backend` /
  :func:`backend_names`) makes backends pluggable. ``execute`` returns
  ``(values, stats)``, the stats built per call.
* :func:`plan_query` is the cost-model-lite planner: an explicit backend
  request is validated against capabilities, ``"auto"`` scores every
  capable backend and picks the cheapest (single points stay on the
  sequential path, batches go parallel, warm incremental state wins for
  repeated pinned queries). :func:`execute_query` executes the plan and
  returns a :class:`QueryResult`.

Four backends ship by default (the first three here; the fourth —
``sharded``, the tile-streaming out-of-core executor — lives in
:mod:`repro.core.shards` and registers itself on import):

``sequential``
    One ``pairwise`` call over the dataset's cached stacked candidates per
    test point, in process, no cache. Supports every flavor and every
    published algorithm override.
``batch``
    One :class:`~repro.core.batch_engine.PreparedBatch` similarity matrix
    for the whole test matrix (kept in a small LRU), a ``fork``
    worker-pool fan-out, and fingerprint-keyed result caching.
``incremental``
    Per query family a :class:`~repro.core.deltas.DeltaMaintainedState`
    kept alive across calls; each new pin is applied as a
    :class:`~repro.core.deltas.CellRepair`, so a cleaning session that
    re-queries the same validation points with a growing pin set pays one
    exact delta update per step instead of a full re-preparation.
``sharded``
    The out-of-core tile executor (:class:`repro.core.shards.ShardedBackend`):
    the test-point × candidate space is split into bounded shared-memory
    tiles streamed through a persistent worker pool, so the full distance
    matrix never has to fit in memory at once. The cost model prefers it
    when the dense matrix would exceed the backend's memory budget.

All backends return bit-identical values for any query they both support
(``tests/core/test_planner.py`` and the differential harness hold the
equivalence matrix); ``benchmarks/bench_planner.py`` measures the
speedups.

Pin semantics are uniform across flavors: a pin ``(row, candidate)``
restricts that row to one candidate. Counting flavors apply pins natively
inside the scan (the original candidate indices keep the paper's
tie-break); the weighted flavor conditions the prior
(:func:`repro.core.weighted.condition_weights`); the ``topk`` and
``label_uncertainty`` flavors restrict the dataset itself.
"""

from __future__ import annotations

import hashlib
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from repro.core.batch_engine import (
    PreparedBatch,
    QueryResultCache,
    fanout_map,
    get_fanout_state,
    kernel_cache_key,
    resolve_n_jobs,
)
from repro.core.bruteforce import brute_force_counts
from repro.core.dataset import IncompleteDataset
from repro.core.deltas import CellRepair, DeltaMaintainedState
from repro.core.engine import counts_from_scan, sortscan_counts
from repro.core.entropy import certain_label_from_counts
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.label_uncertainty import LabelUncertainDataset, label_uncertain_counts
from repro.core.minmax import extreme_winners, row_extremes
from repro.core.multiclass import sortscan_counts_multiclass
from repro.core.pruning import (
    accumulate_prune_stats,
    empty_prune_stats,
    pruned_counts_from_sims,
    pruned_decision_from_sims,
    pruned_label_uncertain_counts,
    pruned_label_uncertain_decision,
    pruned_topk_counts_from_scan,
    pruned_weighted_decision,
    pruned_weighted_probabilities,
)
from repro.core.scan import ScanOrder, scan_from_sims, similarity_matrix
from repro.core.sortscan import sortscan_counts_naive
from repro.core.sortscan_tree import sortscan_counts_tree
from repro.core.topk_prob import topk_inclusion_counts
from repro.core.weighted import (
    condition_weights,
    uniform_candidate_weights,
    weighted_prediction_probabilities,
)
from repro.obs.tracing import trace_span
from repro.utils.validation import check_in_options, check_positive_int

__all__ = [
    "FLAVORS",
    "KINDS",
    "PRUNE_MODES",
    "SCAN_KERNEL_MODES",
    "Q2_ALGORITHMS",
    "CPQuery",
    "make_query",
    "ExecutionOptions",
    "QueryPlan",
    "QueryResult",
    "PlanError",
    "BackendCapabilities",
    "Backend",
    "register_backend",
    "get_backend",
    "backend_names",
    "capable_backends",
    "plan_query",
    "execute_query",
    "POINT_FUNCTIONS",
    "EXTREME_FUNCTIONS",
    "PointTask",
    "SequentialBackend",
    "BatchParallelBackend",
    "IncrementalBackend",
]

#: The five task flavors the planner serves.
FLAVORS = ("binary", "multiclass", "weighted", "topk", "label_uncertainty")

#: Query kinds: exact per-label counts (Q2), the CP'ed label or ``None``,
#: and the boolean check "is this label certainly predicted?" (Q1).
KINDS = ("counts", "certain_label", "check")

#: Candidate-pruning modes. ``"auto"`` prunes whenever the execution path
#: can consume a certificate (SortScan-family engines with ``k < n_rows``),
#: ``"on"`` demands pruning (a :class:`PlanError` if the query's algorithm
#: cannot honour it), ``"off"`` disables it. Results never change.
PRUNE_MODES = ("auto", "on", "off")

#: Tally/decision kernel implementations accepted by
#: :attr:`ExecutionOptions.scan_kernel` (``"auto"`` picks the import-time
#: default of :mod:`repro.core.scan_kernels`).
SCAN_KERNEL_MODES = ("auto", "numpy", "python")

#: The per-point Q2 engines, by algorithm name. ``"auto"`` / ``"engine"``
#: is the division-based SortScan; the others are the published
#: alternatives kept for cross-validation and teaching. (This registry
#: used to live in :mod:`repro.core.queries`, which now imports it.)
Q2_ALGORITHMS = {
    "engine": sortscan_counts,
    "tree": sortscan_counts_tree,
    "multiclass": sortscan_counts_multiclass,
    "naive": sortscan_counts_naive,
    "bruteforce": brute_force_counts,
}


# ---------------------------------------------------------------------------
# The query descriptor
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CPQuery:
    """A fully-resolved CP query family: what to compute, not how.

    Built by :func:`make_query` (which validates and infers the fields);
    consumed by the planner and the backends. One descriptor covers a
    whole test matrix — per-point results come back in row order.
    """

    dataset: Any  # IncompleteDataset or LabelUncertainDataset
    test_X: np.ndarray
    kind: str
    flavor: str
    k: int
    kernel: Kernel
    pins: tuple[tuple[int, int], ...] = ()
    label: int | None = None
    algorithm: str = "auto"
    weights: tuple[tuple[Fraction, ...], ...] | None = None

    @property
    def n_points(self) -> int:
        """Number of test points the query covers."""
        return int(self.test_X.shape[0])

    @property
    def n_labels(self) -> int:
        """Size of the label space ``|Y|``."""
        return int(self.dataset.n_labels)

    def pins_dict(self) -> dict[int, int]:
        """The pins as a ``row -> candidate`` mapping."""
        return dict(self.pins)

    def workload_size(self) -> int:
        """``n_points * total candidates`` — the planner's cost unit."""
        return self.n_points * int(np.sum(self.dataset.candidate_counts()))

    def fingerprint(self) -> str:
        """Content fingerprint of the underlying dataset (cache-key part)."""
        return self.dataset.fingerprint()

    def __repr__(self) -> str:
        return (
            f"CPQuery(kind={self.kind!r}, flavor={self.flavor!r}, "
            f"n_points={self.n_points}, k={self.k}, n_pins={len(self.pins)})"
        )


def _normalise_test_X(dataset: Any, test_X: Any) -> np.ndarray:
    points = np.asarray(test_X, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    if points.size == 0:
        points = points.reshape(0, dataset.n_features)
    if points.ndim != 2 or points.shape[1] != dataset.n_features:
        raise ValueError(
            f"test_X must have shape (n_points, {dataset.n_features}), "
            f"got {points.shape}"
        )
    return points


def _normalise_pins(dataset: Any, pins: Any) -> tuple[tuple[int, int], ...]:
    if not pins:
        return ()
    items = sorted(dict(pins).items()) if isinstance(pins, Mapping) else sorted(
        dict((int(r), int(c)) for r, c in pins).items()
    )
    counts = dataset.candidate_counts()
    out = []
    for row, cand in items:
        row, cand = int(row), int(cand)
        if not 0 <= row < dataset.n_rows:
            raise IndexError(f"pinned row {row} out of range for {dataset.n_rows} rows")
        if not 0 <= cand < int(counts[row]):
            raise IndexError(
                f"pinned candidate {cand} out of range for row {row} "
                f"with {int(counts[row])} candidates"
            )
        out.append((row, cand))
    return tuple(out)


def make_query(
    dataset: IncompleteDataset | LabelUncertainDataset,
    test_X: np.ndarray,
    kind: str = "counts",
    flavor: str = "auto",
    k: int = 3,
    kernel: Kernel | str | None = None,
    pins: Mapping[int, int] | Sequence[tuple[int, int]] | None = None,
    label: int | None = None,
    algorithm: str = "auto",
    weights: Sequence[Sequence[Fraction]] | None = None,
) -> CPQuery:
    """Build and validate a :class:`CPQuery`.

    ``flavor="auto"`` infers the task: a
    :class:`~repro.core.label_uncertainty.LabelUncertainDataset` means
    ``label_uncertainty``, explicit ``weights`` mean ``weighted``, and a
    plain dataset is ``binary`` or ``multiclass`` by its label-space size.
    ``kind="check"`` requires ``label``; the ``topk`` flavor only supports
    ``kind="counts"`` (the per-row inclusion counts).
    """
    kind = check_in_options(kind, "kind", KINDS)
    flavor = check_in_options(flavor, "flavor", ("auto", *FLAVORS))
    algorithm = check_in_options(algorithm, "algorithm", ("auto", *Q2_ALGORITHMS))
    k = check_positive_int(k, "k")

    if flavor == "auto":
        if isinstance(dataset, LabelUncertainDataset):
            flavor = "label_uncertainty"
        elif weights is not None:
            flavor = "weighted"
        else:
            flavor = "binary" if dataset.n_labels == 2 else "multiclass"

    if flavor == "label_uncertainty":
        if not isinstance(dataset, LabelUncertainDataset):
            raise ValueError(
                "flavor 'label_uncertainty' requires a LabelUncertainDataset"
            )
    elif isinstance(dataset, LabelUncertainDataset):
        raise ValueError(
            f"flavor {flavor!r} requires an IncompleteDataset; wrap-around via "
            "LabelUncertainDataset.feature_dataset if labels are actually certain"
        )
    if flavor == "binary" and dataset.n_labels != 2:
        raise ValueError(
            f"flavor 'binary' requires 2 labels, dataset has {dataset.n_labels}"
        )
    if weights is not None and flavor != "weighted":
        raise ValueError(f"candidate weights are only valid for flavor 'weighted', not {flavor!r}")
    if flavor == "topk" and kind != "counts":
        raise ValueError("flavor 'topk' only supports kind='counts' (inclusion counts)")

    if k > dataset.n_rows:
        raise ValueError(f"k={k} exceeds the number of training rows {dataset.n_rows}")

    if kind == "check":
        if label is None:
            raise ValueError("kind='check' requires a target label")
        if not 0 <= int(label) < dataset.n_labels:
            raise ValueError(
                f"label {label} outside the label space of size {dataset.n_labels}"
            )
        label = int(label)
    else:
        label = None

    weights_tuple: tuple[tuple[Fraction, ...], ...] | None = None
    if weights is not None:
        weights_tuple = tuple(tuple(Fraction(w) for w in row) for row in weights)

    return CPQuery(
        dataset=dataset,
        test_X=_normalise_test_X(dataset, test_X),
        kind=kind,
        flavor=flavor,
        k=k,
        kernel=resolve_kernel(kernel),
        pins=_normalise_pins(dataset, pins),
        label=label,
        algorithm=algorithm,
        weights=weights_tuple,
    )


# ---------------------------------------------------------------------------
# Plans, options, results
# ---------------------------------------------------------------------------


class PlanError(ValueError):
    """No backend can serve the query (or an explicit request is incapable)."""


@dataclass(frozen=True)
class ExecutionOptions:
    """Execution knobs that change wall-clock (and memory), never results.

    ``n_jobs`` fans per-point work out over forked worker processes where
    the backend supports it; ``cache`` selects result caching (``True`` =
    the backend's shared cache, an instance = that cache, ``False``/``None``
    = off); ``prepared`` hands an existing
    :class:`~repro.core.batch_engine.PreparedBatch` to the batch backend so
    a session's vectorised distance state is shared instead of rebuilt.
    ``tile_rows`` / ``tile_candidates`` bound the resident tile of the
    ``sharded`` backend (:mod:`repro.core.shards`); ``None`` keeps the
    backend's configured defaults. Other backends ignore them.

    ``prune`` selects exactness-preserving candidate pruning
    (:mod:`repro.core.pruning`): ``"auto"`` (default) engages it whenever
    the execution path can consume a prune certificate, ``"on"`` requires
    it (planning fails on incompatible algorithm overrides), ``"off"``
    disables it. ``scan_kernel`` picks the tally/decision kernel
    implementation of :mod:`repro.core.scan_kernels` (``"auto"``,
    ``"numpy"`` or ``"python"``). Both are wall-clock knobs only — every
    backend returns bit-identical values in every mode.

    All knobs are validated at construction, with the same rules the CLI
    flags enforce: ``n_jobs`` must be a positive integer, ``-1`` (all
    CPUs) or ``None``; the tile bounds must be positive when given;
    ``prune`` / ``scan_kernel`` must name a known mode.
    """

    n_jobs: int | None = 1
    cache: QueryResultCache | bool | None = True
    prepared: PreparedBatch | None = None
    tile_rows: int | None = None
    tile_candidates: int | None = None
    prune: str = "auto"
    scan_kernel: str = "auto"

    def __post_init__(self) -> None:
        check_in_options(self.prune, "prune", PRUNE_MODES)
        check_in_options(self.scan_kernel, "scan_kernel", SCAN_KERNEL_MODES)
        if self.n_jobs is not None:
            if isinstance(self.n_jobs, bool) or not isinstance(
                self.n_jobs, (int, np.integer)
            ):
                raise TypeError(
                    f"n_jobs must be an integer or None, got {type(self.n_jobs).__name__}"
                )
            if self.n_jobs < 1 and self.n_jobs != -1:
                raise ValueError(
                    f"n_jobs must be a positive integer, -1 (all CPUs) or None, "
                    f"got {self.n_jobs}"
                )
            resolve_n_jobs(self.n_jobs)  # keep the normalisation path exercised
        if self.tile_rows is not None:
            check_positive_int(self.tile_rows, "tile_rows")
        if self.tile_candidates is not None:
            check_positive_int(self.tile_candidates, "tile_candidates")


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision: which backend runs the query, and why."""

    backend: str
    reason: str
    cost: float
    considered: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True, eq=False)
class QueryResult:
    """Per-point values plus the plan that produced them.

    ``values[i]`` belongs to ``test_X[i]``; its type depends on the query:
    exact count vectors (``counts``), labels-or-``None``
    (``certain_label``), booleans (``check``), exact
    :class:`~fractions.Fraction` distributions (``weighted`` counts) or
    per-row inclusion counts (``topk``).

    ``stats`` is the executing backend's observability snapshot for this
    call alone (pruning counters, early-termination tallies, …). Purely
    informational: empty when the backend reports nothing, and never part
    of equality or caching.
    """

    query: CPQuery
    plan: QueryPlan
    values: list
    stats: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# The backend protocol and registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can serve, declared up front for the planner."""

    flavors: frozenset[str]
    kinds: frozenset[str] = frozenset(KINDS)
    batchable: bool = False
    incremental: bool = False
    exact: bool = True
    algorithms: frozenset[str] = frozenset({"auto"})


class Backend(ABC):
    """An executor for CP queries; subclasses register via :func:`register_backend`."""

    name: str = "abstract"
    capabilities: BackendCapabilities

    def supports(self, query: CPQuery) -> bool:
        """True iff the declared capabilities cover this query."""
        caps = self.capabilities
        return (
            query.flavor in caps.flavors
            and query.kind in caps.kinds
            and (query.algorithm == "auto" or query.algorithm in caps.algorithms)
        )

    @abstractmethod
    def estimate_cost(
        self, query: CPQuery, options: ExecutionOptions
    ) -> tuple[float, str]:
        """``(cost, reason)`` in the planner's abstract cost unit."""

    @abstractmethod
    def execute(
        self, query: CPQuery, options: ExecutionOptions | None = None
    ) -> tuple[list, dict]:
        """Run the query: ``(values, stats)``.

        ``values`` holds one value per test point (row order); ``stats`` is
        this call's own observability snapshot (pruning counters, tiling,
        …), built per call so concurrent callers never share it.
        """


_REGISTRY: OrderedDict[str, Backend] = OrderedDict()


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Add a backend to the process-wide registry (``replace`` to override)."""
    if not replace and backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """The registered backend of that name (:class:`PlanError` if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PlanError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None


def backend_names() -> list[str]:
    """Registered backend names, in registration order."""
    return list(_REGISTRY)


def capable_backends(query: CPQuery) -> list[Backend]:
    """Every registered backend whose capabilities cover ``query``."""
    return [backend for backend in _REGISTRY.values() if backend.supports(query)]


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


def plan_query(
    query: CPQuery,
    backend: str = "auto",
    options: ExecutionOptions | None = None,
) -> QueryPlan:
    """Choose the backend for ``query``.

    An explicit ``backend`` name is validated against the backend's
    declared capabilities; ``"auto"`` scores every capable backend with
    its own cost estimate and picks the cheapest (registration order
    breaks ties). Raises :class:`PlanError` when nothing can serve the
    query.
    """
    options = options or ExecutionOptions()
    if options.prune == "on" and query.algorithm not in ("auto", "engine"):
        raise PlanError(
            f"prune='on' cannot be honoured with algorithm {query.algorithm!r}: "
            "the naive / tree / brute-force engines take a whole dataset and "
            "cannot consume a pruned scan (use prune='auto' to skip pruning "
            "silently, or the default engine)"
        )
    if backend != "auto":
        chosen = get_backend(backend)
        if not chosen.supports(query):
            raise PlanError(
                f"backend {backend!r} cannot serve {query!r} "
                f"(capabilities: {chosen.capabilities})"
            )
        cost, _ = chosen.estimate_cost(query, options)
        return QueryPlan(
            backend=chosen.name,
            reason="requested explicitly",
            cost=cost,
            considered=((chosen.name, cost),),
        )

    candidates = capable_backends(query)
    if not candidates:
        raise PlanError(f"no registered backend can serve {query!r}")
    scored = [(*b.estimate_cost(query, options), b) for b in candidates]
    best_cost, best_reason, best = min(scored, key=lambda item: item[0])
    return QueryPlan(
        backend=best.name,
        reason=best_reason,
        cost=best_cost,
        considered=tuple((b.name, cost) for cost, _, b in scored),
    )


def execute_query(
    query: CPQuery,
    backend: str = "auto",
    options: ExecutionOptions | None = None,
) -> QueryResult:
    """Plan and run ``query``; the one call every front door goes through."""
    options = options or ExecutionOptions()
    with trace_span("planner.execute_query") as span:
        plan = plan_query(query, backend, options)
        span.set(
            backend=plan.backend,
            reason=plan.reason,
            flavor=query.flavor,
            kind=query.kind,
            n_points=query.n_points,
        )
        if query.n_points == 0:
            return QueryResult(query=query, plan=plan, values=[])
        values, stats = get_backend(plan.backend).execute(query, options)
        span.set(
            **{
                key: value
                for key, value in stats.items()
                if isinstance(value, (int, float, bool, str))
            }
        )
    return QueryResult(query=query, plan=plan, values=values, stats=stats)


# ---------------------------------------------------------------------------
# Shared flavor plumbing
# ---------------------------------------------------------------------------


def _restricted_dataset(query: CPQuery) -> Any:
    """The dataset with every pin applied by restriction (flavors without
    native pin support: ``topk`` and ``label_uncertainty``)."""
    dataset = query.dataset
    for row, cand in query.pins:
        dataset = dataset.restrict_row(row, cand)
    return dataset


def _conditioned_weights(query: CPQuery) -> list[list[Fraction]]:
    """The weighted flavor's prior with pins conditioned in as point masses."""
    base = (
        [list(row) for row in query.weights]
        if query.weights is not None
        else uniform_candidate_weights(query.dataset)
    )
    return condition_weights(base, query.pins_dict())


def _counts_to_kind(query: CPQuery, counts_per_point: list[list[int]]) -> list:
    """Derive ``certain_label`` / ``check`` values from exact count vectors."""
    if query.kind == "counts":
        return counts_per_point
    labels = [certain_label_from_counts(counts) for counts in counts_per_point]
    if query.kind == "certain_label":
        return labels
    return [lbl == query.label for lbl in labels]


def _certain_from_probabilities(probabilities: list[Fraction]) -> int | None:
    """The label with probability exactly 1, or ``None``."""
    return next((y for y, p in enumerate(probabilities) if p == 1), None)


def _weighted_to_kind(query: CPQuery, probs_per_point: list[list[Fraction]]) -> list:
    if query.kind == "counts":
        return probs_per_point
    certain = [_certain_from_probabilities(probs) for probs in probs_per_point]
    if query.kind == "certain_label":
        return certain
    return [lbl == query.label for lbl in certain]


def _prune_enabled(query: CPQuery, options: ExecutionOptions) -> bool:
    """Whether this execution should run the candidate-pruning pass.

    ``"off"`` never prunes; any mode is a no-op for the published
    alternative engines (they take a whole dataset, not a scan).
    ``"auto"`` additionally skips the pass when ``k >= n_rows`` — the
    certificate needs ``k`` *other* dominating rows, so nothing can ever
    be pruned there and the interval pass would be pure overhead.
    """
    if options.prune == "off":
        return False
    if query.algorithm not in ("auto", "engine"):
        return False
    if options.prune == "on":
        return True
    return query.k < query.dataset.n_rows


def _prune_summary(query: CPQuery, prune: bool, totals: dict | None) -> dict:
    """A backend's stats payload: context keys plus accumulated counters."""
    summary = {"flavor": query.flavor, "kind": query.kind, "prune": prune}
    if totals:
        summary.update(totals)
    return summary


def _point_key(t: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(t).tobytes()).hexdigest()


def _weights_key(weights: list[list[Fraction]]) -> str:
    """A digest identifying an exact prior by value.

    ``Fraction`` reprs are canonical (always in lowest terms), so equal
    priors hash equal. A digest rather than the weights tuple itself keeps
    cache keys O(1) — a weighted cleaning session issues one differently
    conditioned prior per (row, candidate) pair, and embedding the full
    ``N x M`` matrix in every key would bloat the shared LRU.
    """
    digest = hashlib.sha256()
    for row in weights:
        digest.update(repr(row).encode("ascii"))
        digest.update(b";")
    return digest.hexdigest()


def _handed_prepared(
    options: ExecutionOptions,
    dataset: IncompleteDataset,
    test_X: np.ndarray,
    k: int,
    kernel: Kernel,
) -> PreparedBatch | None:
    """``options.prepared`` if it describes exactly this family, else ``None``."""
    handed = options.prepared
    if (
        handed is not None
        and handed.k == k
        and kernel_cache_key(handed.kernel) == kernel_cache_key(kernel)
        and handed.fingerprint() == dataset.fingerprint()
        and np.array_equal(handed.test_X, test_X)
    ):
        return handed
    return None


# ---------------------------------------------------------------------------
# The per-point dispatch table
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointTask:
    """What every per-point function of one execution shares.

    ``dataset`` is the :class:`IncompleteDataset` whose stacked candidates
    a similarity row indexes (pins restricted into it for the flavors
    without native pin support); ``subject`` is the dataset the flavor's
    own kernel takes (a :class:`LabelUncertainDataset` for
    ``label_uncertainty``); ``fixed`` holds the pins a counting flavor
    applies inside its scan and ``weights`` the weighted flavor's
    pin-conditioned prior. ``cache_key`` identifies the computed values
    (fingerprint plus whatever pins or prior they depend on).
    """

    query: CPQuery
    dataset: IncompleteDataset
    subject: Any
    fixed: dict[int, int]
    weights: list[list[Fraction]] | None
    implementation: str | None
    cache_key: tuple

    def scan(self, sims: np.ndarray) -> ScanOrder:
        return scan_from_sims(self.dataset, sims)


def _counting_task(query: CPQuery, implementation: str | None) -> PointTask:
    return PointTask(
        query, query.dataset, query.dataset, query.pins_dict(), None,
        implementation, (query.fingerprint(), query.pins),
    )


def _weighted_task(query: CPQuery, implementation: str | None) -> PointTask:
    weights = _conditioned_weights(query)
    return PointTask(
        query, query.dataset, query.dataset, {}, weights,
        implementation, (query.fingerprint(), _weights_key(weights)),
    )


def _restricted_task(query: CPQuery, implementation: str | None) -> PointTask:
    subject = _restricted_dataset(query)
    return PointTask(
        query, getattr(subject, "feature_dataset", subject), subject, {}, None,
        implementation, (subject.fingerprint(),),
    )


#: Per flavor: how pins and priors are folded in before any point runs.
_TASK_BUILDERS = {
    "binary": _counting_task,
    "multiclass": _counting_task,
    "weighted": _weighted_task,
    "topk": _restricted_task,
    "label_uncertainty": _restricted_task,
}


def _counts(task: PointTask, index: int, sims: np.ndarray) -> tuple[list[int], dict]:
    query = task.query
    return counts_from_scan(task.scan(sims), query.k, query.n_labels, task.fixed), {}


def _pruned_counts(task: PointTask, index: int, sims: np.ndarray) -> tuple[list[int], dict]:
    query = task.query
    return pruned_counts_from_sims(task.dataset, sims, query.k, query.n_labels, task.fixed)


def _minmax_label(task: PointTask, index: int, sims: np.ndarray) -> tuple[int | None, dict]:
    # The MM shortcut (Algorithm 2): no counting at all, exact for binary
    # labels. Already maximally early-terminating, so it never prunes.
    mins, maxs = row_extremes(sims, task.dataset.stacked_candidates()[4], task.fixed)
    return _label_from_extremes(task, index, mins, maxs)


def _label_from_extremes(
    task: PointTask, index: int, mins: np.ndarray, maxs: np.ndarray
) -> tuple[int | None, dict]:
    winners = extreme_winners(mins, maxs, task.dataset.labels, task.query.k, 2)
    return (winners[0] if len(winners) == 1 else None), {}


def _label_from_counts(task: PointTask, index: int, sims: np.ndarray) -> tuple[int | None, dict]:
    counts, stats = _counts(task, index, sims)
    return certain_label_from_counts(counts), stats


def _pruned_decision(task: PointTask, index: int, sims: np.ndarray) -> tuple[int | None, dict]:
    query = task.query
    decision, stats = pruned_decision_from_sims(
        task.dataset, sims, query.k, query.n_labels, task.fixed,
        implementation=task.implementation,
    )
    return decision.certain_label, stats


def _oracle_counts(task: PointTask, index: int, sims: np.ndarray) -> tuple[list[int], dict]:
    # A published engine takes a whole dataset: pins become restriction.
    query = task.query
    engine = Q2_ALGORITHMS[query.algorithm]
    counts = engine(
        _restricted_dataset(query), query.test_X[index], k=query.k, kernel=query.kernel
    )
    return counts, {}


def _oracle_label(task: PointTask, index: int, sims: np.ndarray) -> tuple[int | None, dict]:
    counts, stats = _oracle_counts(task, index, sims)
    return certain_label_from_counts(counts), stats


def _weighted(task: PointTask, index: int, sims: np.ndarray) -> tuple[list[Fraction], dict]:
    query = task.query
    probabilities = weighted_prediction_probabilities(
        task.subject, query.test_X[index], k=query.k, weights=task.weights,
        kernel=query.kernel, scan=task.scan(sims),
    )
    return probabilities, {}


def _pruned_weighted(task: PointTask, index: int, sims: np.ndarray) -> tuple[list[Fraction], dict]:
    query = task.query
    return pruned_weighted_probabilities(
        task.subject, query.test_X[index], task.weights, query.k,
        kernel=query.kernel, scan=task.scan(sims),
    )


def _weighted_label(task: PointTask, index: int, sims: np.ndarray) -> tuple[int | None, dict]:
    probabilities, stats = _weighted(task, index, sims)
    return _certain_from_probabilities(probabilities), stats


def _pruned_weighted_label(
    task: PointTask, index: int, sims: np.ndarray
) -> tuple[int | None, dict]:
    query = task.query
    decision, stats = pruned_weighted_decision(
        task.subject, query.test_X[index], task.weights, query.k,
        kernel=query.kernel, scan=task.scan(sims), implementation=task.implementation,
    )
    return decision.certain_label, stats


def _topk(task: PointTask, index: int, sims: np.ndarray) -> tuple[list[int], dict]:
    query = task.query
    counts = topk_inclusion_counts(
        task.subject, query.test_X[index], k=query.k, kernel=query.kernel,
        scan=task.scan(sims),
    )
    return counts, {}


def _pruned_topk(task: PointTask, index: int, sims: np.ndarray) -> tuple[list[int], dict]:
    return pruned_topk_counts_from_scan(task.scan(sims), task.query.k)


def _uncertain_counts(task: PointTask, index: int, sims: np.ndarray) -> tuple[list[int], dict]:
    query = task.query
    counts = label_uncertain_counts(
        task.subject, query.test_X[index], k=query.k, kernel=query.kernel,
        scan=task.scan(sims),
    )
    return counts, {}


def _pruned_uncertain_counts(
    task: PointTask, index: int, sims: np.ndarray
) -> tuple[list[int], dict]:
    query = task.query
    return pruned_label_uncertain_counts(
        task.subject, query.test_X[index], k=query.k, kernel=query.kernel,
        scan=task.scan(sims),
    )


def _uncertain_label(task: PointTask, index: int, sims: np.ndarray) -> tuple[int | None, dict]:
    counts, stats = _uncertain_counts(task, index, sims)
    return certain_label_from_counts(counts), stats


def _pruned_uncertain_label(
    task: PointTask, index: int, sims: np.ndarray
) -> tuple[int | None, dict]:
    query = task.query
    return pruned_label_uncertain_decision(
        task.subject, query.test_X[index], k=query.k, kernel=query.kernel,
        scan=task.scan(sims),
    )


#: The one flavor dispatch: ``(flavor, "counts" | "decision", path)`` to a
#: per-point function ``fn(task, index, sims) -> (value, stats)`` of one
#: candidate-order similarity row. ``path`` is ``"scan"`` (full sorted
#: scan), ``"pruned"`` (certificate pass first) or ``"oracle"`` (a
#: published ``algorithm=`` engine). A ``"decision"`` value is the certain
#: label or ``None``; ``check`` compares it with the query's label.
#: Values never depend on the path, so all paths share cache entries.
POINT_FUNCTIONS: dict[tuple[str, str, str], Callable] = {
    ("binary", "counts", "scan"): _counts,
    ("binary", "counts", "pruned"): _pruned_counts,
    ("binary", "counts", "oracle"): _oracle_counts,
    ("binary", "decision", "scan"): _minmax_label,
    ("binary", "decision", "pruned"): _minmax_label,
    ("binary", "decision", "oracle"): _oracle_label,
    ("multiclass", "counts", "scan"): _counts,
    ("multiclass", "counts", "pruned"): _pruned_counts,
    ("multiclass", "counts", "oracle"): _oracle_counts,
    ("multiclass", "decision", "scan"): _label_from_counts,
    ("multiclass", "decision", "pruned"): _pruned_decision,
    ("multiclass", "decision", "oracle"): _oracle_label,
    ("weighted", "counts", "scan"): _weighted,
    ("weighted", "counts", "pruned"): _pruned_weighted,
    ("weighted", "decision", "scan"): _weighted_label,
    ("weighted", "decision", "pruned"): _pruned_weighted_label,
    ("topk", "counts", "scan"): _topk,
    ("topk", "counts", "pruned"): _pruned_topk,
    ("label_uncertainty", "counts", "scan"): _uncertain_counts,
    ("label_uncertainty", "counts", "pruned"): _pruned_uncertain_counts,
    ("label_uncertainty", "decision", "scan"): _uncertain_label,
    ("label_uncertainty", "decision", "pruned"): _pruned_uncertain_label,
}


#: Table functions that read a similarity row only through its per-row
#: ``(min, max)`` extremes (pins collapsed), mapped to the same function of
#: those extremes, ``fn(task, index, mins, maxs)``. A backend that streams
#: candidate blocks can then keep ``N``-wide tallies instead of ``P``-wide
#: rows (the sharded backend does).
EXTREME_FUNCTIONS: dict[Callable, Callable] = {_minmax_label: _label_from_extremes}


def _mode(query: CPQuery) -> str:
    return "counts" if query.kind == "counts" else "decision"


def _point_function(query: CPQuery, prune: bool) -> Callable:
    """The table entry serving ``query``.

    An ``algorithm=`` override selects the oracle path where the flavor
    has one (the others have no alternative engine and ignore it).
    """
    mode = _mode(query)
    if query.algorithm not in ("auto", "engine"):
        oracle = POINT_FUNCTIONS.get((query.flavor, mode, "oracle"))
        if oracle is not None:
            return oracle
    return POINT_FUNCTIONS[(query.flavor, mode, "pruned" if prune else "scan")]


_MISS = object()


def _execute_points(
    query: CPQuery,
    options: ExecutionOptions,
    cache: QueryResultCache | None,
    evaluate: Callable[[PointTask, Callable, list[int]], Mapping[int, tuple[Any, dict]]],
) -> tuple[PointTask, list, dict]:
    """The execution skeleton every per-point backend shares.

    Serves what it can from ``cache``, hands the missing point indices to
    the backend's ``evaluate(task, fn, missing)`` — which owns preparation
    and fan-out and returns ``{index: (value, stats)}`` — caches the
    values, folds the per-point stats and applies the ``check`` kind.
    Returns ``(task, values, stats)``.
    """
    prune = _prune_enabled(query, options)
    fn = _point_function(query, prune)
    implementation = None if options.scan_kernel == "auto" else options.scan_kernel
    task = _TASK_BUILDERS[query.flavor](query, implementation)
    kernel_key = kernel_cache_key(query.kernel)
    n = query.n_points
    values: list = [None] * n
    keys: list[tuple | None] = [None] * n
    missing: list[int] = []
    for index in range(n):
        if cache is not None:
            keys[index] = (
                query.flavor, _mode(query), *task.cache_key,
                _point_key(query.test_X[index]), query.k, kernel_key,
            )
            hit = cache.get(keys[index], _MISS)
            if hit is not _MISS:
                values[index] = list(hit) if isinstance(hit, list) else hit
                continue
        missing.append(index)
    totals = empty_prune_stats() if prune else None
    if missing:
        for index, (value, stats) in evaluate(task, fn, missing).items():
            values[index] = value
            if totals is not None and stats:
                accumulate_prune_stats(totals, stats)
            if cache is not None:
                cache.put(keys[index], list(value) if isinstance(value, list) else value)
    if query.kind == "check":
        values = [value == query.label for value in values]
    return task, values, _prune_summary(query, prune, totals)


# ---------------------------------------------------------------------------
# SequentialBackend — per-point preparation
# ---------------------------------------------------------------------------


class SequentialBackend(Backend):
    """One similarity row and one table function per test point, in process.

    Supports every flavor, every kind, and every published algorithm
    override. Preparation is per point (one ``pairwise`` call over the
    dataset's cached stacked candidates), with no fan-out and no result
    cache — the baseline the other backends are held to.
    """

    name = "sequential"
    capabilities = BackendCapabilities(
        flavors=frozenset(FLAVORS),
        kinds=frozenset(KINDS),
        batchable=False,
        incremental=False,
        exact=True,
        algorithms=frozenset({"auto", *Q2_ALGORITHMS}),
    )

    def estimate_cost(self, query, options):
        return float(query.workload_size()), "one prepared scan per test point"

    def execute(self, query, options=None):
        options = options or ExecutionOptions()

        def evaluate(task, fn, missing):
            results = {}
            for index in missing:
                point = query.test_X[index : index + 1]
                sims = similarity_matrix(task.dataset, point, query.kernel)[0]
                results[index] = fn(task, index, sims)
            return results

        _, values, stats = _execute_points(query, options, None, evaluate)
        return values, stats


# ---------------------------------------------------------------------------
# BatchParallelBackend — vectorised prep, fan-out, result caching
# ---------------------------------------------------------------------------


def _point_worker(index: int) -> tuple[int, tuple[Any, dict]]:
    """Pool worker: one table function on one row of the shared matrix."""
    task, fn, sims_matrix = get_fanout_state()
    return index, fn(task, index, sims_matrix[index])


class BatchParallelBackend(Backend):
    """One vectorised preparation, ``fork`` fan-out and result caching.

    Per ``(dataset, test matrix, k, kernel)`` family one shared
    :class:`PreparedBatch` (kept in a small LRU, or handed in via
    :attr:`ExecutionOptions.prepared`) supplies every point's similarity
    row from a single kernel call; the table functions run across
    ``n_jobs`` forked workers, and values land in a fingerprint-keyed
    result cache shared across calls.
    """

    name = "batch"
    capabilities = BackendCapabilities(
        flavors=frozenset(FLAVORS),
        kinds=frozenset(KINDS),
        batchable=True,
        incremental=False,
        exact=True,
        algorithms=frozenset({"auto", "engine"}),
    )

    def __init__(self, cache_size: int = 4096, prepared_cache_size: int = 4) -> None:
        self.cache = QueryResultCache(maxsize=cache_size)
        self._prepared: OrderedDict[tuple, PreparedBatch] = OrderedDict()
        self._prepared_cache_size = check_positive_int(
            prepared_cache_size, "prepared_cache_size"
        )
        self._lock = threading.Lock()

    def estimate_cost(self, query, options):
        jobs = min(resolve_n_jobs(options.n_jobs), max(query.n_points, 1))
        per_point = query.workload_size() / max(query.n_points, 1)
        cost = per_point * (0.6 + 0.5 * query.n_points / jobs)
        return cost, "vectorised preparation + parallel per-point scans"

    # ------------------------------------------------------------------
    def _resolve_cache(self, options: ExecutionOptions) -> QueryResultCache | None:
        if options.cache is True:
            return self.cache
        if isinstance(options.cache, QueryResultCache):
            return options.cache
        return None

    def _prepared_for(
        self,
        dataset: IncompleteDataset,
        test_X: np.ndarray,
        k: int,
        kernel: Kernel,
        options: ExecutionOptions,
    ) -> PreparedBatch:
        handed = _handed_prepared(options, dataset, test_X, k, kernel)
        if handed is not None:
            return handed
        key = (
            dataset.fingerprint(),
            _point_key(test_X),
            k,
            kernel_cache_key(kernel),
        )
        with self._lock:
            prepared = self._prepared.get(key)
            if prepared is not None:
                self._prepared.move_to_end(key)
                return prepared
        prepared = PreparedBatch(dataset, test_X, k=k, kernel=kernel)
        with self._lock:
            self._prepared[key] = prepared
            self._prepared.move_to_end(key)
            while len(self._prepared) > self._prepared_cache_size:
                self._prepared.popitem(last=False)
        return prepared

    # ------------------------------------------------------------------
    def execute(self, query, options=None):
        options = options or ExecutionOptions()

        def evaluate(task, fn, missing):
            prepared = self._prepared_for(
                task.dataset, query.test_X, query.k, query.kernel, options
            )
            pairs = fanout_map(
                _point_worker,
                missing,
                n_jobs=options.n_jobs,
                state=(task, fn, prepared.sims_matrix),
            )
            return dict(pairs)

        _, values, stats = _execute_points(
            query, options, self._resolve_cache(options), evaluate
        )
        return values, stats


# ---------------------------------------------------------------------------
# IncrementalBackend — maintained counts across growing pin sets
# ---------------------------------------------------------------------------


class IncrementalBackend(Backend):
    """Serves repeated pinned queries from maintained delta state.

    Per query family ``(dataset fingerprint, test matrix, k, kernel)`` the
    backend keeps one :class:`~repro.core.deltas.DeltaMaintainedState` in
    a small LRU and applies each new pin as a
    :class:`~repro.core.deltas.CellRepair` — a pinned row has one
    candidate, so restricting it physically cannot change any tie-break.
    A query whose pins extend the maintained set pays only the delta: the
    domination rule scales most points' counts in O(1) and recounts the
    few contested ones. Pins that contradict or shrink the maintained set
    rebuild the state (correct for any pin pattern; fast for the monotone
    pin growth of a cleaning session, which is the workload this backend
    exists for).
    """

    name = "incremental"
    capabilities = BackendCapabilities(
        flavors=frozenset({"binary", "multiclass"}),
        kinds=frozenset(KINDS),
        batchable=True,
        incremental=True,
        exact=True,
        algorithms=frozenset({"auto", "engine"}),
    )

    def __init__(self, max_states: int = 8) -> None:
        #: Per family: the maintained state and the pins applied to it.
        self._states: OrderedDict[tuple, tuple[DeltaMaintainedState, dict[int, int]]] = (
            OrderedDict()
        )
        self.max_states = check_positive_int(max_states, "max_states")
        # The backend-wide lock only guards the registry bookkeeping; the
        # expensive per-family work (state builds, pin maintenance) runs
        # under a per-family lock so concurrent sessions on different
        # query families never serialise each other.
        self._lock = threading.Lock()
        self._family_locks: dict[tuple, threading.Lock] = {}
        self.n_reuses = 0
        self.n_rebuilds = 0

    def _family_key(self, query: CPQuery) -> tuple:
        return (
            query.fingerprint(),
            _point_key(query.test_X),
            query.k,
            kernel_cache_key(query.kernel),
        )

    @staticmethod
    def _extends(pins: Mapping[int, int], applied: Mapping[int, int]) -> bool:
        return all(pins.get(row) == cand for row, cand in applied.items())

    def _warm_state(self, query: CPQuery) -> DeltaMaintainedState | None:
        """The maintained state if it exists and its pins extend to the query's."""
        with self._lock:
            entry = self._states.get(self._family_key(query))
        if entry is not None and self._extends(query.pins_dict(), entry[1]):
            return entry[0]
        return None

    @staticmethod
    def _build_state(query: CPQuery, options: ExecutionOptions) -> DeltaMaintainedState:
        """A state for the query's dataset with its current pins already
        restricted in (a cold build counts each point once, no delta work);
        similarities come from a matching handed-in batch when there is one."""
        sims_matrix = None
        handed = _handed_prepared(options, query.dataset, query.test_X, query.k, query.kernel)
        if handed is not None:
            _, rows, cands, counts, _ = query.dataset.stacked_candidates()
            pinned = np.full(counts.shape[0], -1, dtype=np.int64)
            for row, cand in query.pins:
                pinned[row] = cand
            row_pins = pinned[rows]
            sims_matrix = handed.sims_matrix[:, (row_pins < 0) | (cands == row_pins)]
        return DeltaMaintainedState(
            _restricted_dataset(query),
            query.test_X,
            k=query.k,
            kernel=query.kernel,
            sims_matrix=sims_matrix,
            prune=_prune_enabled(query, options),
        )

    def estimate_cost(self, query, options):
        if self._warm_state(query) is not None:
            return 0.1 * query.workload_size(), "maintained counts, delta pins only"
        return 1.5 * query.workload_size(), "cold start: full preparation + counts"

    def execute(self, query, options=None):
        options = options or ExecutionOptions()
        pins = query.pins_dict()
        key = self._family_key(query)
        with self._lock:
            family_lock = self._family_locks.setdefault(key, threading.Lock())
        with family_lock:
            with self._lock:
                entry = self._states.get(key)
            if entry is not None and not self._extends(pins, entry[1]):
                entry = None  # pins shrank or contradict: rebuild
            if entry is None:
                entry = (self._build_state(query, options), pins)
                with self._lock:
                    self._states[key] = entry
                    self.n_rebuilds += 1
            else:
                with self._lock:
                    self.n_reuses += 1
            with self._lock:
                self._states.move_to_end(key)
                while len(self._states) > self.max_states:
                    evicted, _ = self._states.popitem(last=False)
                    self._family_locks.pop(evicted, None)
            state, applied = entry
            for row, cand in sorted(pins.items()):
                if row not in applied:
                    state.apply(CellRepair(row, cand))
                    applied[row] = cand
            counts = state.counts_all()
            stats = _prune_summary(
                query, state.prune, dict(state.prune_stats) if state.prune else None
            )
            stats["n_rows_skipped"] = state.n_pruned
            stats["n_recomputed"] = state.n_recomputed
        return _counts_to_kind(query, counts), stats


# ---------------------------------------------------------------------------
# Default registry
# ---------------------------------------------------------------------------

register_backend(SequentialBackend())
register_backend(BatchParallelBackend())
register_backend(IncrementalBackend())
