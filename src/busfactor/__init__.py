"""Bus factor estimation from git history, code reviews, and meetings."""

from importlib import import_module

from .collab import (
    emit_meeting_events,
    emit_review_events,
    filter_meetings,
    filter_reviews,
    parse_meetings,
    parse_reviews,
)
from .engine import (
    BusFactorResult,
    DoaTable,
    FileLedger,
    Ledgers,
    analyze,
    authorship,
    build_ledgers,
    bus_factor,
    doa_baseline,
    doa_multimodal,
    prepare_ledgers,
    score_table,
)
from .errors import (
    BusFactorError,
    ClockSkewError,
    ConfigError,
    InputDataError,
    RepositoryError,
)
from .eventlog import read_event_log, write_event_log
from .gitvcs import (
    emit_vcs_events,
    snapshot_branch,
    traverse_branch,
)
from .identity import Engineer, IdentityIndex, RawActor, merge_identities
from .model import (
    AlgorithmParams,
    CanonicalEvents,
    ContributionEvent,
    Credit,
    EventKind,
    canonical_blocks,
    canonical_order,
    credit_events,
    decay,
    event_credit,
    format_instant,
    parse_instant,
)
from .pipeline import AnalysisRun, run_analysis, to_json

__version__ = "0.1.0"

# served on first use, so that importing the package (and the CLI) skips them
_LAZY = {
    "BusFactorEstimator": "estimator",
    "evaluate_predictions": "evaluate",
    "load_predictions": "evaluate",
    "load_truth": "evaluate",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AlgorithmParams",
    "AnalysisRun",
    "BusFactorError",
    "BusFactorEstimator",
    "BusFactorResult",
    "CanonicalEvents",
    "ClockSkewError",
    "ConfigError",
    "ContributionEvent",
    "Credit",
    "DoaTable",
    "Engineer",
    "EventKind",
    "FileLedger",
    "IdentityIndex",
    "InputDataError",
    "Ledgers",
    "RawActor",
    "RepositoryError",
    "analyze",
    "authorship",
    "build_ledgers",
    "bus_factor",
    "canonical_blocks",
    "canonical_order",
    "credit_events",
    "decay",
    "doa_baseline",
    "doa_multimodal",
    "emit_meeting_events",
    "emit_review_events",
    "emit_vcs_events",
    "evaluate_predictions",
    "event_credit",
    "filter_meetings",
    "filter_reviews",
    "format_instant",
    "load_predictions",
    "load_truth",
    "merge_identities",
    "parse_instant",
    "parse_meetings",
    "parse_reviews",
    "prepare_ledgers",
    "read_event_log",
    "run_analysis",
    "score_table",
    "snapshot_branch",
    "to_json",
    "traverse_branch",
    "write_event_log",
]
