"""Core CP machinery: data model, KNN substrate, and the query algorithms.

The public entry points are :func:`repro.core.queries.q1`,
:func:`repro.core.queries.q2` / :func:`~repro.core.queries.q2_counts`,
:func:`repro.core.queries.certain_label`, and — for anything beyond a
single point — the unified planner (:func:`repro.core.planner.make_query`,
:func:`~repro.core.planner.plan_query`,
:func:`~repro.core.planner.execute_query` and the backend registry);
everything else is the machinery behind them (see DESIGN.md for the
inventory).
"""

from repro.core.batch_engine import (
    BatchQueryExecutor,
    PreparedBatch,
    QueryResultCache,
    batch_certain_labels,
    batch_q2_counts,
    kernel_cache_key,
)
from repro.core.planner import (
    Backend,
    BackendCapabilities,
    BatchParallelBackend,
    CPQuery,
    ExecutionOptions,
    IncrementalBackend,
    PlanError,
    QueryPlan,
    QueryResult,
    SequentialBackend,
    backend_names,
    capable_backends,
    execute_query,
    get_backend,
    make_query,
    plan_query,
    register_backend,
)
from repro.core.bruteforce import brute_force_check, brute_force_counts
from repro.core.dataset import IncompleteDataset
from repro.core.deltas import (
    CellRepair,
    DeltaMaintainedState,
    RowAppend,
    RowDelete,
    apply_delta_to_dataset,
)
from repro.core.engine import sortscan_counts
from repro.core.label_uncertainty import (
    LabelUncertainDataset,
    label_uncertain_certain_label,
    label_uncertain_counts,
    label_uncertain_counts_bruteforce,
    label_uncertain_minmax_check,
)
from repro.core.entropy import (
    certain_label_from_counts,
    counts_to_probabilities,
    is_certain_from_counts,
    prediction_entropy,
)
from repro.core.kernels import (
    CosineKernel,
    Kernel,
    LinearKernel,
    NegativeEuclideanKernel,
    RBFKernel,
    resolve_kernel,
)
from repro.core.knn import KNNClassifier, majority_label, top_k_rows
from repro.core.linear import LogisticRegression
from repro.core.minmax import minmax_check, minmax_checks_all, predictable_labels
from repro.core.montecarlo import (
    MonteCarloEstimate,
    estimate_prediction_probabilities,
    sample_size_for,
)
from repro.core.multiclass import sortscan_counts_multiclass
from repro.core.prepared import PreparedQuery
from repro.core.queries import certain_label, q1, q2, q2_counts
from repro.core.scan import ScanOrder, compute_scan_order
from repro.core.screening import ScreeningResult, screen_dataset
from repro.core.shards import (
    ShardedBackend,
    ShardedExecutor,
    TilePlan,
    plan_tiles,
)
from repro.core.sortscan import sortscan_counts_naive
from repro.core.sortscan_tree import sortscan_counts_tree
from repro.core.topk_prob import (
    expected_topk_label_histogram,
    most_uncertain_rows,
    topk_inclusion_counts,
    topk_inclusion_probabilities,
)
from repro.core.weighted import (
    condition_weights,
    uniform_candidate_weights,
    weighted_prediction_probabilities,
)
from repro.core.witness import Witness, find_witness

__all__ = [
    "IncompleteDataset",
    "KNNClassifier",
    "majority_label",
    "top_k_rows",
    "Kernel",
    "NegativeEuclideanKernel",
    "RBFKernel",
    "LinearKernel",
    "CosineKernel",
    "resolve_kernel",
    "q1",
    "q2",
    "q2_counts",
    "certain_label",
    "CPQuery",
    "QueryPlan",
    "QueryResult",
    "ExecutionOptions",
    "PlanError",
    "Backend",
    "BackendCapabilities",
    "SequentialBackend",
    "BatchParallelBackend",
    "IncrementalBackend",
    "ShardedBackend",
    "ShardedExecutor",
    "TilePlan",
    "plan_tiles",
    "make_query",
    "plan_query",
    "execute_query",
    "register_backend",
    "get_backend",
    "backend_names",
    "capable_backends",
    "kernel_cache_key",
    "PreparedQuery",
    "PreparedBatch",
    "BatchQueryExecutor",
    "QueryResultCache",
    "batch_q2_counts",
    "batch_certain_labels",
    "ScanOrder",
    "compute_scan_order",
    "brute_force_counts",
    "brute_force_check",
    "sortscan_counts",
    "sortscan_counts_naive",
    "sortscan_counts_tree",
    "sortscan_counts_multiclass",
    "minmax_check",
    "minmax_checks_all",
    "predictable_labels",
    "counts_to_probabilities",
    "prediction_entropy",
    "certain_label_from_counts",
    "is_certain_from_counts",
    "LogisticRegression",
    "MonteCarloEstimate",
    "estimate_prediction_probabilities",
    "sample_size_for",
    "weighted_prediction_probabilities",
    "uniform_candidate_weights",
    "condition_weights",
    "CellRepair",
    "RowAppend",
    "RowDelete",
    "DeltaMaintainedState",
    "apply_delta_to_dataset",
    "LabelUncertainDataset",
    "label_uncertain_counts",
    "label_uncertain_counts_bruteforce",
    "label_uncertain_certain_label",
    "label_uncertain_minmax_check",
    "topk_inclusion_counts",
    "topk_inclusion_probabilities",
    "expected_topk_label_histogram",
    "most_uncertain_rows",
    "ScreeningResult",
    "screen_dataset",
    "Witness",
    "find_witness",
]
