"""End-to-end orchestration from a repository to a report document.

The report is a plain dict shaped for JSON serialization; ``to_json`` pins
the canonical byte form (sorted keys, two-space indent, UTF-8) so identical
inputs always produce identical bytes.
"""
from __future__ import annotations

import json
from typing import NamedTuple

from .collab import (
    collect_actors,
    emit_meeting_events,
    emit_review_events,
    filter_meetings,
    filter_reviews,
    meeting_buckets,
    parse_meetings,
    parse_reviews,
)
from .engine import ALGORITHMS, analyze, checked_as_of, prepare_ledgers
from .errors import ConfigError
from .gitvcs import default_branch, emit_vcs_events, snapshot_branch, traverse_branch
from .identity import IdentityIndex, RawActor, merge_identities
from .inputs import warn
# canonical_order is not called here; perfbench/probes.py wraps this binding
from .model import (
    INSTANT_RANGE_MS, AlgorithmParams, CanonicalEvents, Credit, canonical_order, format_instant,
)

ALGORITHM_CHOICES = (*ALGORITHMS, "both")


class AnalysisRun(NamedTuple):
    """One run's report, the credit it scored, and the meeting join, which
    ``events`` spells out with the credit."""

    report: dict
    credit: list[Credit]  # every channel's but the meetings', in channel order
    # the arguments of emit_meeting_events: meetings, commit index, identity, window days
    meeting_join: tuple | None = None

    @property
    def events(self) -> CanonicalEvents:
        """Every contribution event of the run in canonical order, built lazily.

        The meeting credit is spelled out by ``emit_meeting_events`` only
        here, after the credit of the other channels. The events are spelled
        out of ``canonical_blocks`` one timestamp at a time, so the whole
        log is never held at once; meetings tied on the whole sort key keep
        their input order.
        """
        credit = self.credit
        if self.meeting_join is not None:
            meetings, commit_index, identity, window_days = self.meeting_join
            credit = [
                *credit,
                *emit_meeting_events(meetings, commit_index, identity, window_days=window_days),
            ]
        return CanonicalEvents(credit)


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
    commit the traversal ended with. Git history and reviews yield
    ``Credit``, meetings one bucket per commit window (``meeting_buckets``),
    and the ledgers are built from them once for every algorithm.
    ``prepare_ledgers`` defaults ``as_of_ms`` to the newest timestamp: that
    of every commit in the history (not the head's, which a rebase or
    cherry-pick can leave older than an ancestor), of the review credit and
    of the meetings matched to them, so repeated runs on unchanged inputs
    agree byte for byte. The report's ``as_of`` is null only for an unborn
    branch without ``as_of_ms``. Its project is the repository's name,
    however ``repo_path`` reaches the repository (``History.project``), and
    a shallow clone adds one warning that says so (``History.shallow``). In
    ``both`` mode the two embedded result documents match what
    single-algorithm runs emit.
    """
    if algorithm not in ALGORITHM_CHOICES:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHM_CHOICES)}"
        )
    as_of_ms = checked_as_of(as_of_ms)
    if as_of_ms is not None and as_of_ms not in INSTANT_RANGE_MS:
        raise ConfigError("as_of_ms is outside the years 1-9999 UTC")
    if params is None:
        params = AlgorithmParams()

    ingest_warnings: list[str] = []
    branch_name = branch or default_branch(repo_path)
    commits = traverse_branch(repo_path, branch_name)
    if commits.shallow:
        warn(
            ingest_warnings,
            "the history is shallow: files older than its boundary are credited to the "
            "boundary commit's author; `git fetch --unshallow` gives the full answer",
        )
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
    index, window_days = vcs.commit_index, params.meeting_window_days
    credit = [*vcs.credit, *emit_review_events(reviews, index, identity, warnings=ingest_warnings)]
    buckets = meeting_buckets(meetings, index, identity, window_days=window_days)
    ledgers = prepare_ledgers(credit, snapshot.live_files, as_of_ms, buckets)
    # every commit dates the run, so only an unborn branch has no default instant
    as_of = None if as_of_ms is None and not commits else format_instant(ledgers.as_of_ms)
    project = commits.project

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
    return AnalysisRun(report, credit, (meetings, index, identity, window_days))


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
