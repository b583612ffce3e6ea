"""Where the traced run cuts ``busfactor`` into layers, and what it counts there.

Every probe replaces one module attribute that the program looks up at call
time, so no file of the program changes. Names imported with ``from .x import
y`` are wrapped in the importing module (``pipeline.traverse_branch``), since
that is the binding the caller uses. ``gitvcs`` reaches git through its module
global ``subprocess``; the traced run swaps that global for a view whose
``run`` is wrapped, leaving the real ``subprocess`` module alone.

A layer's time is the sum of the self times of its spans, so a span nested
in another (a git call inside ``traverse_branch``, the sort inside
``emit_vcs_events``) is counted once, in its own layer.
"""
from __future__ import annotations

import os
import subprocess
from contextlib import contextmanager

from spans import Tracer, self_times

# (module, attribute) -> layer metric that takes the span's self time
TIMED = {
    ("cli", "main"): "cli.self_s",
    ("cli", "run_analysis"): "pipeline.self_s",
    ("cli", "to_json"): "pipeline.to_json_s",
    ("cli", "write_event_log"): "eventlog.write_s",
    ("pipeline", "default_branch"): "gitvcs.parse_s",
    ("pipeline", "traverse_branch"): "gitvcs.parse_s",
    ("pipeline", "snapshot_branch"): "gitvcs.parse_s",
    ("gitvcs", "subprocess.run"): "gitvcs.git_wait_s",
    ("pipeline", "emit_vcs_events"): "gitvcs.fold_s",
    ("pipeline", "merge_identities"): "identity.merge_s",
    ("pipeline", "IdentityIndex"): "identity.merge_s",
    ("pipeline", "parse_reviews"): "collab.parse_s",
    ("pipeline", "parse_meetings"): "collab.parse_s",
    ("pipeline", "filter_reviews"): "collab.parse_s",
    ("pipeline", "filter_meetings"): "collab.parse_s",
    ("pipeline", "collect_actors"): "collab.parse_s",
    ("pipeline", "emit_review_events"): "collab.review_join_s",
    ("pipeline", "emit_meeting_events"): "collab.meeting_join_s",
    ("pipeline", "canonical_order"): "model.sort_s",
    ("gitvcs", "canonical_order"): "model.sort_s",
    ("pipeline", "analyze"): "engine.check_s",
    ("engine", "build_ledgers"): "engine.ledger_s",
    ("engine", "score_table"): "engine.score_s",
    ("engine", "authorship"): "engine.authorship_s",
    ("engine", "bus_factor"): "engine.walk_s",
}


def _git_output(args, kwargs, proc):
    out = proc.stdout or ""
    size = len(out.encode("utf-8")) if isinstance(out, str) else len(out)
    return {"gitvcs.git_calls": 1, "gitvcs.git_stdout_bytes": size}


def _traverse(args, kwargs, commits):
    return {
        "gitvcs.commits": len(commits),
        "gitvcs.merges": sum(1 for c in commits if c.is_merge),
        "gitvcs.renames": sum(
            1 for c in commits for ch in c.changed_files if ch.kind.value == "renamed"
        ),
    }


def _meeting_join(args, kwargs, events):
    meetings, commit_index = args[0], args[1]
    # meeting starts are unique in the generated workloads, so a
    # (start, commit) pair names one matched (meeting, commit) pair
    return {
        "collab.meeting_events": len(events),
        "collab.meeting_pairs_scanned": len(meetings) * len(commit_index),
        "collab.meeting_pairs_matched": len({(e.timestamp_ms, e.commit_ref) for e in events}),
    }


# span name -> counts read from the call's arguments and result
COUNTED = {
    "gitvcs.subprocess.run": _git_output,
    "pipeline.traverse_branch": _traverse,
    "pipeline.snapshot_branch": lambda a, k, snap: {"gitvcs.live_files": len(snap.live_files)},
    "pipeline.emit_vcs_events": lambda a, k, vcs: {"gitvcs.vcs_events": len(vcs.events)},
    "pipeline.merge_identities": lambda a, k, engs: {
        "identity.actors": len(a[0]), "identity.engineers": len(engs),
    },
    "pipeline.parse_reviews": lambda a, k, r: {"collab.reviews_in": len(r)},
    "pipeline.filter_reviews": lambda a, k, r: {"collab.reviews_kept": len(r)},
    "pipeline.parse_meetings": lambda a, k, m: {"collab.meetings_in": len(m)},
    "pipeline.filter_meetings": lambda a, k, m: {"collab.meetings_kept": len(m)},
    "pipeline.emit_review_events": lambda a, k, ev: {"collab.review_events": len(ev)},
    "pipeline.emit_meeting_events": _meeting_join,
    "pipeline.canonical_order": lambda a, k, ev: {"model.events": len(ev)},
    "pipeline.analyze": lambda a, k, r: {"engine.calls": 1},
    "engine.score_table": lambda a, k, table: {"engine.pairs_scored": len(table.raw)},
    "cli.write_event_log": lambda a, k, r: {"eventlog.bytes": os.path.getsize(a[1])},
}


class _SubprocessView:
    """Stands in for the ``subprocess`` module inside ``gitvcs``."""

    def __init__(self) -> None:
        self.run = subprocess.run

    def __getattr__(self, name):
        return getattr(subprocess, name)


@contextmanager
def installed(tracer: Tracer, package):
    """Wrap every probe of ``package`` (the imported ``busfactor``) for one invocation."""
    gitvcs = package.gitvcs
    original = gitvcs.subprocess
    view = _SubprocessView()
    targets = []
    for module, attr in TIMED:
        name = f"{module}.{attr}"
        owner = view if attr == "subprocess.run" else getattr(package, module)
        targets.append((owner, attr.rsplit(".", 1)[-1], name, name in COUNTED))
    gitvcs.subprocess = view
    try:
        with tracer.patched(targets):
            yield
    finally:
        gitvcs.subprocess = original


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced invocation."""
    metric_of = {f"{module}.{attr}": metric for (module, attr), metric in TIMED.items()}
    out: dict[str, float] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        metric = metric_of[span.name]
        out[metric] = out.get(metric, 0.0) + own
    for name, args, kwargs, result in tracer.calls:
        for metric, value in COUNTED[name](args, kwargs, result).items():
            out[metric] = out.get(metric, 0) + value
    scanned = out.get("collab.meeting_pairs_scanned", 0)
    matched = out.pop("collab.meeting_pairs_matched", 0)
    out["collab.meeting_match_ratio"] = matched / scanned if scanned else 0.0
    return out
