"""End-to-end reference pipeline, for oracle tests.

Chains the per-stage oracles into a report dict and an event dump:
``git_reference`` diffs each commit on its own, ``fold_reference`` replays
them, ``review_reference`` and ``collab_reference`` join the reviews and
meetings to the commits, ``score_reference`` scores every engineer of every
file exactly, ``greedy_reference`` walks the abandonment order by full
rescans, and ``eventlog_reference`` writes the dump. Ledgers, authorship,
warnings and the report's layout are spelled out here, one event at a time.
``pipeline.run_analysis`` must give the same report and dump byte for byte.
Intentionally simple and slow.
"""
import io
import math
import subprocess
from dataclasses import dataclass, field
from typing import NamedTuple

import collab_reference
import eventlog_reference
import fold_reference
import review_reference
from busfactor.errors import ClockSkewError
from busfactor.gitvcs import CommitRecord
from busfactor.identity import IdentityIndex, RawActor, merge_identities
from busfactor.model import AlgorithmParams, ContributionEvent, Credit, EventKind, format_instant
from git_reference import diff_commit, merge_diff
from greedy_reference import naive_walk
from score_reference import doa_reference

RANK = {"first_authorship": 0, "commit": 1, "review": 2, "meeting": 3}
BASELINE = (3.293, 1.098, 0.164, 0.321)  # intercept, FA, DL and AC weights


class History(NamedTuple):
    commits: list[CommitRecord]  # in fold order, each with its reference diff
    live_files: frozenset[str]


def _git(repo_path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=repo_path, capture_output=True, check=True, encoding="utf-8"
    ).stdout


def read_history(repo_path, branch: str = "main") -> History:
    """Every commit reachable from ``branch``, parents before children.

    The order is a depth-first walk from the head that visits each commit's
    parents in order and lists a commit once all of them are listed.
    """
    parents_of = {}
    for line in _git(repo_path, "rev-list", "--parents", branch).splitlines():
        commit_id, *parents = line.split()
        parents_of[commit_id] = tuple(parents)
    order: list[str] = []

    def visit(commit_id):
        if commit_id not in order:
            for parent in parents_of[commit_id]:
                visit(parent)
            order.append(commit_id)

    head = _git(repo_path, "rev-parse", branch).strip()
    visit(head)
    commits = []
    for commit_id in order:
        email, name, epoch = _git(
            repo_path, "show", "-s", "--format=%ae%x00%an%x00%at", commit_id
        ).rstrip("\n").split("\x00")
        record = CommitRecord(commit_id, email, name, int(epoch) * 1000, parents_of[commit_id])
        diff = merge_diff(repo_path, record) if record.is_merge else diff_commit(repo_path, record)
        commits.append(record._replace(changed_files=tuple(diff)))
    listed = _git(repo_path, "ls-tree", "-r", "-z", "--full-tree", "--name-only", head)
    return History(commits, frozenset(p for p in listed.split("\x00") if p))


@dataclass
class Ledger:
    """The shape ``score_reference.doa_reference`` reads."""

    first_authorship: tuple | None = None  # (timestamp_ms, engineer)
    commits: dict = field(default_factory=dict)  # engineer -> [timestamp_ms]
    reviews: dict = field(default_factory=dict)  # engineer -> [timestamp_ms]
    meetings: dict = field(default_factory=dict)  # commit -> [((engineer,), ts, minutes)]

    def engineers(self) -> set:
        people = {*self.commits, *self.reviews}
        people.update(e for entries in self.meetings.values() for (e,), _, _ in entries)
        if self.first_authorship is not None:
            people.add(self.first_authorship[1])
        return people


def _sort_key(event):
    return (event.timestamp_ms, RANK[event.kind.value], event.engineer_id, event.file_path,
            event.commit_ref)


def _ledgers(events) -> dict:
    ledgers = {}
    for e in events:
        ledger = ledgers.setdefault(e.file_path, Ledger())
        if e.kind is EventKind.FIRST_AUTHORSHIP:
            ledger.first_authorship = (e.timestamp_ms, e.engineer_id)
        elif e.kind is EventKind.COMMIT:
            ledger.commits.setdefault(e.engineer_id, []).append(e.timestamp_ms)
        elif e.kind is EventKind.REVIEW:
            ledger.reviews.setdefault(e.engineer_id, []).append(e.timestamp_ms)
        else:
            entry = ((e.engineer_id,), e.timestamp_ms, e.magnitude)
            ledger.meetings.setdefault(e.commit_ref, []).append(entry)
    return ledgers


def _baseline(ledger: Ledger, engineer: str) -> float:
    intercept, fa, dl, ac = BASELINE
    first = ledger.first_authorship is not None and ledger.first_authorship[1] == engineer
    own = len(ledger.commits.get(engineer, ()))
    others = sum(map(len, ledger.commits.values())) - own
    return intercept + fa * (1.0 if first else 0.0) + dl * own - ac * math.log1p(others)


def _single(algorithm, ledgers, live_files, as_of_ms, params, warnings) -> dict:
    raw, peak = {}, {}
    for path, ledger in ledgers.items():
        for engineer in ledger.engineers():
            if algorithm == "baseline":
                raw[engineer, path] = _baseline(ledger, engineer)
            else:
                raw[engineer, path] = doa_reference(ledger, engineer, as_of_ms, params)
        peak[path] = max((s for (_, p), s in raw.items() if p == path), default=0.0)
    authors = {}
    for path in live_files:
        chosen = []
        for engineer in sorted(e for e, p in raw if p == path):
            score, top = raw[engineer, path], peak[path]
            if algorithm == "baseline":
                ok = score > BASELINE[0] and score > params.norm_threshold * top
            else:
                share = min(1.0, max(0.0, score / top)) if top > 0.0 else 0.0
                ok = score >= params.doa_threshold and share >= params.norm_threshold
            if ok:
                chosen.append(engineer)
        authors[path] = tuple(chosen)
    removed, trace = naive_walk(authors, raw, len(live_files), params.coverage_threshold)
    warnings = list(warnings)
    if not ledgers:
        warnings.append("event log is empty; every score is 0 and the bus factor is 0")
    if not live_files:
        warnings.append("no files to analyze; bus factor is 0")
    return {
        "algorithm": algorithm,
        "bus_factor": len(removed),
        "key_engineers": removed,
        "coverage_trace": trace,
        "file_count": len(live_files),
        "files": [
            {"path": p, "authors": list(authors[p]), "top_doa": peak.get(p, 0.0)}
            for p in live_files
        ],
        "params": params.as_dict(),
        "warnings": warnings,
    }


def analyze(history: History, reviews, meetings, project: str, branch: str = "main",
            algorithm: str = "multimodal", as_of_ms=None, params=None):
    """The report dict and the event dump of one run over parsed inputs.

    ``reviews`` and ``meetings`` are the parsed records, unfiltered. Raises
    ClockSkewError, naming the first late event, when ``as_of_ms`` is older
    than an event.
    """
    params = params or AlgorithmParams()
    commits, live_files = history
    keywords = [k.lower() for k in params.meeting_exclude_keywords]
    kept = [m for m in meetings if not any(k in m.title.lower() for k in keywords)]
    # the actors of what the joins keep: a dropped record links no identities
    actors = [RawActor(c.author_name, c.author_email) for c in commits]
    actors += [a for r in reviews if r.state.lower() == "merged" for a in r.reviewers]
    actors += [a for m in kept for a in m.participants]
    identity = IdentityIndex(merge_identities(actors))
    author_of = {c.id: identity.resolve(RawActor(c.author_name, c.author_email)) for c in commits}
    diffs = {c.id: list(c.changed_files) for c in commits}
    folded = fold_reference.fold(commits, diffs, author_of, live_files)

    # the commit index the joins read: each commit's author, time and files
    commit_index = {
        c.id: Credit((author_of[c.id],), c.id, c.timestamp_ms, 1.0, folded.file_paths[c.id],
                     EventKind.COMMIT)
        for c in commits
    }
    events = [
        ContributionEvent(EventKind(kind), who, path, ts, 1.0, ref)
        for ts, kind, who, path, ref in folded.events
    ]
    review_events, review_warnings = review_reference.emit_review_events(
        reviews, commit_index, identity
    )
    events += review_events + collab_reference.emit_meeting_events(
        kept, commit_index, identity, window_days=params.meeting_window_days
    )
    events.sort(key=_sort_key)

    if as_of_ms is None:
        as_of_ms = max([c.timestamp_ms for c in commits] + [e.timestamp_ms for e in events],
                       default=0)
    for e in events:
        if e.timestamp_ms > as_of_ms:
            raise ClockSkewError(
                f"event at {e.timestamp_ms} ({e.kind.value} by {e.engineer_id!r} on "
                f"{e.file_path!r}) is newer than the analysis instant {as_of_ms}; "
                f"pass a later --as-of or fix the event timestamps"
            )
    ledgers = _ledgers(events)
    warnings = folded.warnings + review_warnings
    head = {"project": project, "branch": branch, "as_of": format_instant(as_of_ms)}
    live = sorted(live_files)
    if algorithm == "both":
        results = {
            name: {**head, **_single(name, ledgers, live, as_of_ms, params, warnings)}
            for name in ("multimodal", "baseline")
        }
        report = {**head, "algorithm": "both", "results": results}
    else:
        report = {**head, **_single(algorithm, ledgers, live, as_of_ms, params, warnings)}
    sink = io.StringIO()
    eventlog_reference.write_event_log(events, sink)
    return report, sink.getvalue()
