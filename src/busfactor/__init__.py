"""Bus factor estimation from git history, code reviews, and meetings."""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, and every submodule as an attribute, is served on first
# use, so that `import busfactor` loads no submodule: `python -m busfactor`
# turns the cyclic collector off before the first one is imported
# (`__main__.run`). This table is the one list of public names: each name ->
# the module that defines it.
_LAZY = {
    name: module
    for module, names in {
        "collab": ("emit_meeting_events", "emit_review_events", "filter_meetings",
                   "filter_reviews", "parse_meetings", "parse_reviews"),
        "engine": ("BusFactorResult", "DoaTable", "FileLedger", "Ledgers", "analyze",
                   "authorship", "build_ledgers", "bus_factor", "prepare_ledgers",
                   "score_table"),
        "errors": ("BusFactorError", "ClockSkewError", "ConfigError", "InputDataError",
                   "RepositoryError"),
        "estimator": ("BusFactorEstimator",),
        "evaluate": ("evaluate_predictions", "load_predictions", "load_truth"),
        "eventlog": ("read_event_log", "write_event_log"),
        "gitvcs": ("emit_vcs_events", "snapshot_branch", "traverse_branch"),
        "identity": ("IdentityIndex", "RawActor", "merge_identities"),
        "model": ("AlgorithmParams", "CanonicalEvents", "ContributionEvent", "Credit",
                  "Engineer", "EventKind", "canonical_blocks", "canonical_order", "decay",
                  "event_credit", "format_instant", "parse_instant"),
        "pipeline": ("AnalysisRun", "run_analysis", "to_json"),
    }.items()
    for name in names
}
__all__ = sorted(_LAZY)
_SUBMODULES = frozenset({*_LAZY.values(), "cli", "inputs"})


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        if name in _SUBMODULES:
            return import_module(f".{name}", __name__)  # binds itself on the package
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

