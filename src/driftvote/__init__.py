"""driftvote: streaming weighted voting with adaptive history windows.

Aggregates noisy +/-1 labelers on a stream whose labeler accuracies drift
over time.  At each step the engine picks how much history to trust by
comparing correlation estimates across a ladder of window sizes, recovers
per-labeler accuracies from pairwise correlations alone (no ground truth),
and predicts with log-odds weighted majority voting.
"""

from .adaptive import (
    GapProbe,
    STOPS,
    STOP_HORIZON,
    STOP_SCHEDULE,
    STOP_THRESHOLD,
    WindowDecision,
    drift_threshold,
    select_window,
)
from .aggregate import (
    Reports,
    STRATEGY_ADAPTIVE,
    STRATEGY_FIXED,
    STRATEGY_MAJORITY,
    log_odds_weights,
    majority_vote,
    parse_strategy,
    run_strategy,
    weighted_vote,
)
from .core import (
    AdaptiveConfig,
    ErrorBudget,
    WindowSchedule,
    error_budget,
    selection_overhead,
    statistical_error,
    union_bound_constant,
)
from .corrwin import CorrelationBank, as_vote_matrix
from .driftgen import (
    BlockSpec,
    Stream,
    SyntheticStreamConfig,
    apply_permute_drift,
    block_drift_preset,
    generate_synthetic,
    resolve_abstentions,
    role_rngs,
    true_drift_error,
)
from .io import (
    StreamFormatError,
    read_reports,
    read_stream,
    write_reports,
    write_series_csv,
    write_stream,
)
from .metrics import (
    ROLLING_LOOKAHEAD,
    RunSummary,
    comparison_rows,
    f1_score,
    prediction_accuracy,
    rolling_accuracy,
    summarize,
    window_histogram,
)
from .triplet import (
    AccuracyEstimate,
    correlation_from_accuracies,
    recover_accuracies,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyEstimate",
    "AdaptiveConfig",
    "BlockSpec",
    "CorrelationBank",
    "ErrorBudget",
    "GapProbe",
    "ROLLING_LOOKAHEAD",
    "Reports",
    "RunSummary",
    "STOPS",
    "STOP_HORIZON",
    "STOP_SCHEDULE",
    "STOP_THRESHOLD",
    "STRATEGY_ADAPTIVE",
    "STRATEGY_FIXED",
    "STRATEGY_MAJORITY",
    "Stream",
    "StreamFormatError",
    "SyntheticStreamConfig",
    "WindowDecision",
    "WindowSchedule",
    "apply_permute_drift",
    "as_vote_matrix",
    "block_drift_preset",
    "comparison_rows",
    "correlation_from_accuracies",
    "drift_threshold",
    "error_budget",
    "f1_score",
    "generate_synthetic",
    "log_odds_weights",
    "majority_vote",
    "parse_strategy",
    "prediction_accuracy",
    "read_reports",
    "read_stream",
    "recover_accuracies",
    "resolve_abstentions",
    "role_rngs",
    "rolling_accuracy",
    "run_strategy",
    "select_window",
    "selection_overhead",
    "statistical_error",
    "summarize",
    "true_drift_error",
    "union_bound_constant",
    "weighted_vote",
    "window_histogram",
    "write_reports",
    "write_series_csv",
    "write_stream",
]
