"""End-to-end orchestration from a repository to a report document.

The report is a plain dict shaped for JSON serialization; ``to_json`` pins
the canonical byte form (sorted keys, two-space indent, UTF-8) so identical
inputs always produce identical bytes.
"""
from __future__ import annotations

import heapq
import json
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, groupby
from operator import attrgetter
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
from .model import (
    AlgorithmParams,
    ContributionEvent,
    MeetingCredit,
    canonical_order,
    credit_events,
    format_instant,
)

ALGORITHM_CHOICES = (*ALGORITHMS, "both")


@dataclass
class AnalysisRun:
    report: dict
    sorted_events: list[ContributionEvent]  # VCS and review events, canonical order
    meeting_credit: list[MeetingCredit]  # in start order

    @property
    def events(self) -> Iterator[ContributionEvent]:
        """Every contribution event of the run in canonical order, built lazily.

        Meeting events are spelled out one start time at a time and merged
        into the sorted VCS and review events (which sort before a MEETING
        event of the same instant), so the whole log is never held at once.
        """
        meetings = chain.from_iterable(
            canonical_order(credit_events(group))
            for _, group in groupby(self.meeting_credit, key=attrgetter("timestamp_ms"))
        )
        return heapq.merge(self.sorted_events, meetings, key=ContributionEvent.sort_key)


def _report_doc(
    project: str,
    branch: str,
    as_of_ms: int,
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
        "as_of": format_instant(as_of_ms),
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
    commit the traversal ended with. ``as_of_ms`` defaults to the newest
    timestamp among the commits in the history (not the head's, which a
    rebase or cherry-pick can leave older than an ancestor) and the review
    and meeting credit kept for them, so repeated runs on unchanged inputs
    agree byte for byte. Meeting credit is folded into the ledgers once per
    (engineer, commit), and the ledgers are built once for every algorithm.
    In ``both`` mode the two embedded result documents match what
    single-algorithm runs emit.
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

    actors = [RawActor(name=c.author_name, email=c.author_email) for c in commits]
    actors.extend(collect_actors(reviews, meetings))
    identity = IdentityIndex(merge_identities(actors))

    vcs = emit_vcs_events(commits, identity, snapshot, warnings=ingest_warnings)
    reviewed = emit_review_events(
        reviews, vcs.commit_index, identity, warnings=ingest_warnings
    )
    events = canonical_order([*vcs.events, *reviewed])
    credit = emit_meeting_events(
        meetings,
        vcs.commit_index,
        identity,
        window_days=params.meeting_window_days,
        warnings=ingest_warnings,
    )

    if as_of_ms is None:
        as_of_ms = max(
            chain(
                (c.timestamp_ms for c in commits),
                (e.timestamp_ms for e in reviewed),
                (c.timestamp_ms for c in credit),
            ),
            default=0,
        )
    ledgers = prepare_ledgers(events, snapshot.live_files, as_of_ms, credit=credit)
    project = Path(repo_path).resolve().name

    def single(algo: str) -> dict:
        warnings = list(ingest_warnings)
        table, result = analyze(ledgers, params=params, algorithm=algo, warnings=warnings)
        return _report_doc(
            project, branch_name, as_of_ms, algo, table, result, params, warnings
        )

    if algorithm == "both":
        report = {
            "project": project,
            "branch": branch_name,
            "as_of": format_instant(as_of_ms),
            "algorithm": "both",
            "results": {name: single(name) for name in ALGORITHMS},
        }
    else:
        report = single(algorithm)
    return AnalysisRun(report=report, sorted_events=events, meeting_credit=credit)


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
        f"as of:          {document['as_of']}",
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
