"""Desk-scale lab for connection-migration traffic splitting.

Splits packet traces across simulated network paths, evaluates the result
as an open-world website-fingerprinting defense with a baseline classifier,
and simulates the throughput cost of path switching for migration-capable
protocols.
"""

__version__ = "0.1.0"

from .traces import (
    Dataset,
    DatasetFormatError,
    Trace,
    UNMONITORED_LABEL,
    generate_synthetic,
    load_dataset,
    normalize_trace,
    save_dataset,
)
from .scheduler import (
    BoundaryMode,
    SchedulerConfig,
    Strategy,
    draw_connection_weights,
    schedule,
)
from .splitter import merge, split, split_dataset
from .wf_eval import (
    ConfusionCounts,
    EvalReport,
    classify,
    compute_metrics,
    evaluate_defense,
    extract_features,
    f1_score,
    train_classifier,
)
from .netsim import (
    PathModel,
    Protocol,
    SenderModel,
    SweepPoint,
    TransferResult,
    simulate_transfer,
    sweep_frequencies,
)

__all__ = [
    "BoundaryMode",
    "ConfusionCounts",
    "Dataset",
    "DatasetFormatError",
    "EvalReport",
    "PathModel",
    "Protocol",
    "SchedulerConfig",
    "SenderModel",
    "Strategy",
    "SweepPoint",
    "Trace",
    "TransferResult",
    "UNMONITORED_LABEL",
    "classify",
    "compute_metrics",
    "draw_connection_weights",
    "evaluate_defense",
    "extract_features",
    "f1_score",
    "generate_synthetic",
    "load_dataset",
    "merge",
    "normalize_trace",
    "save_dataset",
    "schedule",
    "simulate_transfer",
    "split",
    "split_dataset",
    "sweep_frequencies",
    "train_classifier",
]
