"""End-to-end orchestration from a repository to a report document.

The report is a plain dict shaped for JSON serialization; ``to_json`` pins
the canonical byte form (sorted keys, two-space indent, UTF-8) so identical
inputs always produce identical bytes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .collab import (
    collect_actors,
    emit_meeting_events,
    emit_review_events,
    filter_meetings,
    filter_reviews,
    parse_meetings,
    parse_reviews,
)
from .engine import ALGORITHMS, analyze, prepare_ledgers
from .errors import ConfigError
from .gitvcs import default_branch, emit_vcs_events, snapshot_branch, traverse_branch
from .identity import IdentityIndex, RawActor, merge_identities
# canonical_order is not called here; perfbench/probes.py wraps this binding
from .model import AlgorithmParams, CanonicalEvents, Credit, canonical_order, format_instant

ALGORITHM_CHOICES = (*ALGORITHMS, "both")


@dataclass
class AnalysisRun:
    """One run's report, and the credit it scored, which ``events`` spells out."""

    report: dict
    credit: list[Credit]  # every channel's, in channel order

    @property
    def events(self) -> CanonicalEvents:
        """Every contribution event of the run in canonical order, built lazily.

        The events are spelled out of ``canonical_blocks`` one timestamp at
        a time, so the whole log is never held at once; meetings tied on the
        whole sort key keep their input order.
        """
        return CanonicalEvents(self.credit)


def _report_doc(
    project: str,
    branch: str,
    as_of: str | None,
    algorithm: str,
    table,
    result,
    params: AlgorithmParams,
    warnings: list[str],
) -> dict:
    files = []
    for path in table.files:
        files.append(
            {
                "path": path,
                "authors": list(result.authors.get(path, ())),
                "top_doa": table.file_max.get(path, 0.0),
            }
        )
    return {
        "project": project,
        "branch": branch,
        "as_of": as_of,
        "algorithm": algorithm,
        "bus_factor": result.bus_factor,
        "key_engineers": list(result.key_engineers),
        "coverage_trace": list(result.coverage_trace),
        "file_count": result.file_count,
        "files": files,
        "params": params.as_dict(),
        "warnings": list(warnings),
    }


def run_analysis(
    repo_path,
    branch: str | None = None,
    reviews_path=None,
    meetings_path=None,
    params: AlgorithmParams | None = None,
    algorithm: str = "multimodal",
    as_of_ms: int | None = None,
) -> AnalysisRun:
    """Ingest every requested channel, score, and assemble the report.

    The branch head is resolved once: the snapshot lists the tree of the
    commit the traversal ended with. Every channel yields ``Credit``, and
    the ledgers are built from it once for every algorithm. ``prepare_ledgers``
    defaults ``as_of_ms`` to the newest credit timestamp: that of every
    commit in the history (not the head's, which a rebase or cherry-pick can
    leave older than an ancestor) and of the review and meeting credit kept
    for them, so repeated runs on unchanged inputs agree byte for byte. The
    report's ``as_of`` is null only for an unborn branch without
    ``as_of_ms``. In ``both`` mode the two embedded result documents match
    what single-algorithm runs emit.
    """
    if algorithm not in ALGORITHM_CHOICES:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHM_CHOICES)}"
        )
    if params is None:
        params = AlgorithmParams()

    ingest_warnings: list[str] = []
    branch_name = branch or default_branch(repo_path)
    commits = traverse_branch(repo_path, branch_name)
    snapshot = snapshot_branch(repo_path, commits[-1].id if commits else None)

    reviews = []
    if reviews_path is not None:
        reviews = filter_reviews(parse_reviews(reviews_path))
    meetings = []
    if meetings_path is not None:
        meetings = filter_meetings(
            parse_meetings(meetings_path), params.meeting_exclude_keywords
        )

    # the index holds every actor resolved below, each listed once
    authors = dict.fromkeys((c.author_name, c.author_email) for c in commits)
    actors = [RawActor(name, email) for name, email in authors]
    actors.extend(collect_actors(reviews, meetings))
    identity = IdentityIndex(merge_identities(actors))

    vcs = emit_vcs_events(commits, identity, snapshot, warnings=ingest_warnings)
    index = vcs.commit_index
    credit = [
        *vcs.credit,
        *emit_review_events(reviews, index, identity, warnings=ingest_warnings),
        *emit_meeting_events(meetings, index, identity, window_days=params.meeting_window_days),
    ]
    ledgers = prepare_ledgers(credit, snapshot.live_files, as_of_ms)
    # every commit dates the run, so only an unborn branch has no default instant
    as_of = None if as_of_ms is None and not commits else format_instant(ledgers.as_of_ms)
    project = Path(repo_path).resolve().name

    def single(algo: str) -> dict:
        warnings = list(ingest_warnings)
        table, result = analyze(ledgers, params=params, algorithm=algo, warnings=warnings)
        return _report_doc(
            project, branch_name, as_of, algo, table, result, params, warnings
        )

    if algorithm == "both":
        report = {
            "project": project,
            "branch": branch_name,
            "as_of": as_of,
            "algorithm": "both",
            "results": {name: single(name) for name in ALGORITHMS},
        }
    else:
        report = single(algorithm)
    return AnalysisRun(report=report, credit=credit)


def to_json(document: dict) -> str:
    """Canonical JSON bytes for a report: parse and re-serialize round-trips."""
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _render_single(doc: dict, lines: list[str]) -> None:
    lines.append(f"algorithm:      {doc['algorithm']}")
    lines.append(f"bus factor:     {doc['bus_factor']}")
    keys = ", ".join(doc["key_engineers"]) or "(none)"
    lines.append(f"key engineers:  {keys}")
    trace = ", ".join(f"{value:.3f}" for value in doc["coverage_trace"])
    lines.append(f"coverage trace: {trace or '(empty)'}")
    lines.append(f"files analyzed: {doc['file_count']}")
    for warning in doc["warnings"]:
        lines.append(f"warning: {warning}")


def render_text(document: dict) -> str:
    lines = [
        f"project:        {document['project']}",
        f"branch:         {document['branch']}",
        f"as of:          {document['as_of'] or '(none)'}",
    ]
    if document["algorithm"] == "both":
        for name in ALGORITHMS:
            lines.append("")
            _render_single(document["results"][name], lines)
    else:
        _render_single(document, lines)
    return "\n".join(lines) + "\n"


def render_evaluation_text(document: dict) -> str:
    lines = [
        f"projects scored: {document['project_count']}",
        f"MAE:             {document['mae']:.4f}",
        f"precision:       {document['precision']:.4f}",
        f"recall:          {document['recall']:.4f}",
        f"F1:              {document['f1']:.4f}",
    ]
    for row in document["projects"]:
        lines.append(
            f"  {row['name']}: predicted {row['predicted_bus_factor']}, "
            f"truth mean {row['truth_mean']:.2f}, error {row['absolute_error']:.2f}"
        )
    for warning in document.get("warnings", ()):
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"
