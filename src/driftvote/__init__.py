"""driftvote: streaming weighted voting with adaptive history windows.

Aggregates noisy +/-1 labelers on a stream whose labeler accuracies drift
over time.  At each step the engine picks how much history to trust by
comparing correlation estimates across a ladder of window sizes, recovers
per-labeler accuracies from pairwise correlations alone (no ground truth),
and predicts with log-odds weighted majority voting.

``import driftvote`` loads none of the submodules, and so no numpy: each
public name is imported from its submodule on first use (PEP 562), then
bound on the package, so later lookups are plain attribute reads.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

#: the submodule that defines each public name
_EXPORTS = {
    name: module
    for module, names in {
        "adaptive": "GapProbe WindowDecision select_window",
        "aggregate": "STRATEGY_ADAPTIVE STRATEGY_FIXED STRATEGY_MAJORITY log_odds_weights"
        " majority_vote parse_strategy run_strategy weighted_vote",
        "core": "AdaptiveConfig ErrorBudget ROLLING_LOOKAHEAD Reports STOPS STOP_HORIZON"
        " STOP_SCHEDULE STOP_THRESHOLD Stream WindowSchedule drift_threshold error_budget"
        " selection_overhead statistical_error union_bound_constant",
        "corrwin": "CorrelationBank as_vote_matrix",
        "driftgen": "BlockSpec SyntheticStreamConfig apply_permute_drift block_drift_preset"
        " generate_synthetic resolve_abstentions role_rngs true_drift_error",
        "io": "StreamFormatError read_reports read_stream write_reports write_series_csv"
        " write_stream",
        "metrics": "RunSummary comparison_rows f1_score prediction_accuracy rolling_accuracy"
        " summarize window_histogram",
        "triplet": "AccuracyEstimate correlation_from_accuracies recover_accuracies",
    }.items()
    for name in names.split()
}
#: the library's submodules, which resolve as attributes too; the CLI is not one
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def _bind_loaded() -> None:
    """Bind on the package every public name whose submodule is loaded.

    Binding all of them, not only the name asked for, keeps the package
    holding the objects its submodules defined, as eager imports did: a
    tool that swaps a function at every module attribute bound to it (a
    tracer, say) then swaps and restores the package's binding too, where
    a name first asked for during the swap would stay bound to the swap.
    """
    names = globals()
    for name, owner in _EXPORTS.items():
        module = sys.modules.get(f"{__name__}.{owner}")
        if name not in names and hasattr(module, name):
            names[name] = getattr(module, name)


def __getattr__(name: str):
    owner = _EXPORTS.get(name, name if name in _SUBMODULES else None)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import_module(f"{__name__}.{owner}")
    _bind_loaded()
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
