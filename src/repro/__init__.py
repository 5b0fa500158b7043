"""repro — Certain Predictions for nearest-neighbour classifiers over incomplete data.

A from-scratch reproduction of Karlaš et al., *"Nearest Neighbor Classifiers
over Incomplete Information: From Certain Answers to Certain Predictions"*
(VLDB 2020). The package provides:

* :mod:`repro.core` — the incomplete-dataset model, the KNN substrate,
  polynomial-time exact algorithms for the two CP queries (checking ``q1``
  and counting ``q2``), and the unified query planner
  (:mod:`repro.core.planner`) with its pluggable backends (sequential,
  batch-parallel, incremental, sharded out-of-core) behind one front door;
* :mod:`repro.data` — synthetic dataset recipes, missingness injection and
  candidate-repair generation;
* :mod:`repro.cleaning` — the CPClean algorithm and every baseline cleaner
  from the paper's evaluation;
* :mod:`repro.experiments` — harnesses that regenerate the paper's tables
  and figures;
* :mod:`repro.service` — the concurrent CP query service (dataset
  registry with warm prepared state, micro-batching broker with
  admission control, stdlib HTTP JSON API + client; ``repro serve``);
* :mod:`repro.codd` — certain-answer relational semantics (Codd tables)
  bridging the paper's §2 back-story.

Public API (importable from the top level):

==================================  ==============================================
name                                what it is
==================================  ==============================================
``IncompleteDataset``               the incomplete training set ``D = {(C_i, y_i)}``
``KNNClassifier``                   the deterministic KNN substrate
``q1``                              the checking query Q1 (Definition 4)
``q2``, ``q2_counts``               the counting query Q2 (Definition 5)
``certain_label``                   the CP'ed label of a test point, or ``None``
``prediction_entropy``              entropy of the world-counting distribution
``CPQuery``, ``make_query``         the planner's query descriptor (+ builder)
``plan_query``                      choose a backend for a query (cost-model-lite)
``execute_query``                   plan + run a query → ``QueryResult``
``QueryPlan``, ``QueryResult``      what the planner decided / returned
``ExecutionOptions``                wall-clock knobs (``n_jobs``, cache, prepared)
``register_backend``                add a custom backend to the registry
``get_backend``, ``backend_names``  inspect the backend registry
``PreparedQuery``                   cached per-test-point query state
``PreparedBatch``                   vectorised prepared state for a whole test set
``BatchQueryExecutor``              parallel, cached batch CP query execution
``QueryResultCache``                the LRU result cache used by the batch backend
``batch_q2_counts``                 Q2 counts for every row of a test matrix
``batch_certain_labels``            CP'ed labels for every row of a test matrix
``CellRepair``, ``RowAppend``, ``RowDelete``  the base-data write (delta) vocabulary
``DeltaMaintainedState``            O(Δ) delta absorption, bit-identical to recompute
``apply_delta_to_dataset``          the pure-dataset form of applying one delta
``weighted_prediction_probabilities``  KNN over a probabilistic DB (weighted flavor)
``topk_inclusion_counts``           per-row top-K membership counts (topk flavor)
``topk_inclusion_probabilities``    per-row top-K membership probabilities
``LabelUncertainDataset``           rows with candidate *label* sets too
``label_uncertain_counts``          Q2 over (feature, label) worlds
``screen_dataset``                  one-call CP certification of a test set
``CleaningSession``                 the shared cleaning loop (planner-routed)
``run_cp_clean``                    the CPClean cleaning loop (Algorithm 3)
``run_batch_clean``                 CPClean with batched human answers
``run_weighted_cp_clean``           CPClean under a non-uniform candidate prior
==================================  ==============================================

Quickstart::

    import numpy as np
    from repro import IncompleteDataset, q2_counts, certain_label

    dataset = IncompleteDataset(
        [np.array([[5.0], [2.0]]), np.array([[6.0], [4.0]]), np.array([[3.0], [1.0]])],
        labels=[1, 1, 0],
    )
    t = np.array([0.0])
    q2_counts(dataset, t, k=1)      # [6, 2] — worlds per predicted label
    certain_label(dataset, t, k=1)  # None  — the prediction is not certain

See ``README.md`` for a tour and ``docs/architecture.md`` for the design.
"""

from repro.cleaning.batch import run_batch_clean
from repro.cleaning.cp_clean import run_cp_clean
from repro.cleaning.sequential import CleaningSession
from repro.cleaning.weighted_clean import run_weighted_cp_clean
from repro.core import (
    BatchQueryExecutor,
    CellRepair,
    CPQuery,
    DeltaMaintainedState,
    ExecutionOptions,
    IncompleteDataset,
    RowAppend,
    RowDelete,
    KNNClassifier,
    LabelUncertainDataset,
    PreparedBatch,
    PreparedQuery,
    QueryPlan,
    QueryResult,
    QueryResultCache,
    backend_names,
    batch_certain_labels,
    batch_q2_counts,
    certain_label,
    execute_query,
    get_backend,
    label_uncertain_counts,
    make_query,
    plan_query,
    prediction_entropy,
    q1,
    q2,
    q2_counts,
    register_backend,
    screen_dataset,
    topk_inclusion_counts,
    topk_inclusion_probabilities,
    weighted_prediction_probabilities,
)

__version__ = "1.3.0"

__all__ = [
    "IncompleteDataset",
    "KNNClassifier",
    "PreparedQuery",
    "PreparedBatch",
    "BatchQueryExecutor",
    "QueryResultCache",
    "q1",
    "q2",
    "q2_counts",
    "batch_q2_counts",
    "batch_certain_labels",
    "certain_label",
    "prediction_entropy",
    "CPQuery",
    "QueryPlan",
    "QueryResult",
    "ExecutionOptions",
    "make_query",
    "plan_query",
    "execute_query",
    "register_backend",
    "get_backend",
    "backend_names",
    "CellRepair",
    "RowAppend",
    "RowDelete",
    "DeltaMaintainedState",
    "weighted_prediction_probabilities",
    "topk_inclusion_counts",
    "topk_inclusion_probabilities",
    "LabelUncertainDataset",
    "label_uncertain_counts",
    "screen_dataset",
    "CleaningSession",
    "run_cp_clean",
    "run_batch_clean",
    "run_weighted_cp_clean",
    "__version__",
]
