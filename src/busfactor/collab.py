"""Code-review and meeting ingestion.

Both channels arrive as JSON arrays and are joined to the commit history:
reviews attach to the exact commits they approved, meetings attach to the
commits their attendees authored nearby in time. A commit is its COMMIT
credit in ``commit_index``, authored by ``engineers[0]``. A review yields one
credit per reviewed commit, which stands for its events on the head-live
files of that commit. Meetings have one matcher, ``meeting_buckets``: it
lists each attendee's meetings by start and bisects them once per commit,
so a commit gets one ``MeetingBucket``, and commits that see the same
meetings share its list. The scoring path takes the buckets as they are;
``emit_meeting_events`` spells them out through ``model.bucket_credit``, for
the event log. A record's numbers pass the ``Credit`` check once, and its
matches carry the checked numbers.

Every actor names an email or a profile ref that is not blank, and resolves
through an ``IdentityIndex`` that must be built from every actor passed in.
Equal actor entries of one file parse to one shared ``RawActor``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from operator import itemgetter
from typing import NamedTuple

from .errors import InputDataError
from .identity import IdentityIndex, RawActor
from .inputs import field, instant, load_json, warn
from .model import (
    MS_PER_DAY,
    AlgorithmParams,
    Credit,
    EventKind,
    bucket_credit,
    check_meeting_minutes,
)


class ReviewRecord(NamedTuple):
    id: str
    reviewers: tuple[RawActor, ...]
    commit_ids: tuple[str, ...]
    completed_at_ms: int
    state: str


class MeetingRecord(NamedTuple):
    id: str
    participants: tuple[RawActor, ...]
    start_ms: int
    duration_minutes: float
    title: str


def _load_array(source, what: str) -> list:
    data = load_json(source, what)
    if not isinstance(data, list):
        raise InputDataError(f"{what} file must contain a top-level JSON array")
    return data


def _parse_actor(obj, seen: dict) -> RawActor:
    """One actor entry, checked; the actors in ``seen`` are shared by equal entries."""
    if not isinstance(obj, dict):
        raise ValueError("actor entries must be objects")
    name = obj.get("name", "")
    email = obj.get("email", "")
    profile = obj.get("profile_ref")
    for label, value in (("name", name), ("email", email)):
        if not isinstance(value, str):
            raise ValueError(f"actor field {label!r} must be a string")
    if profile is not None and not isinstance(profile, str):
        raise ValueError("actor field 'profile_ref' must be a string")
    actor = seen.get((name, email, profile))
    if actor is None:  # an equal actor passed the check below
        if not email.strip() and not (profile or "").strip():
            raise ValueError("actor needs an 'email' or a 'profile_ref'")
        actor = seen[name, email, profile] = RawActor(name, email, profile)
    return actor


def _parse_actors(entries: list, where: str, role: str, seen: dict) -> tuple[RawActor, ...]:
    """A record's actors, each entry checked; an error names it ``{where} {role} #{j}``.
    Equal entries share one ``RawActor`` from ``seen``, so later stages resolve it once."""
    actors: list[RawActor] = []
    try:
        for obj in entries:
            actors.append(_parse_actor(obj, seen))
    except ValueError as exc:
        raise InputDataError(f"{where} {role} #{len(actors)}: {exc}") from None
    return tuple(actors)


def parse_reviews(source) -> list[ReviewRecord]:
    """Read review metadata, validating shape and field types."""
    records, seen = [], {}
    for i, obj in enumerate(_load_array(source, "reviews")):
        where = f"review #{i}"
        if not isinstance(obj, dict):
            raise InputDataError(f"{where}: entries must be objects")
        reviewers = field(obj, "reviewers", list, where)
        commit_ids = field(obj, "commit_ids", list, where)
        if not all(isinstance(c, str) for c in commit_ids):
            raise InputDataError(f"{where}: field 'commit_ids' must hold strings")
        records.append(
            ReviewRecord(
                id=field(obj, "id", str, where),
                reviewers=_parse_actors(reviewers, where, "reviewer", seen),
                commit_ids=tuple(commit_ids),
                completed_at_ms=instant(obj, "completed_at", where),
                state=field(obj, "state", str, where),
            )
        )
    return records


def parse_meetings(source) -> list[MeetingRecord]:
    """Read meeting metadata, validating shape and field types."""
    records, seen = [], {}
    for i, obj in enumerate(_load_array(source, "meetings")):
        where = f"meeting #{i}"
        if not isinstance(obj, dict):
            raise InputDataError(f"{where}: entries must be objects")
        participants = field(obj, "participants", list, where)
        duration = field(obj, "duration_minutes", (int, float), where)
        try:  # json reads NaN, Infinity and 1e999 as floats that are not finite
            minutes = float(duration)  # OverflowError: an int too large for a float
            check_meeting_minutes(minutes)
        except (OverflowError, ValueError):
            raise InputDataError(
                f"{where}: field 'duration_minutes' must be a positive finite number"
            ) from None
        records.append(
            MeetingRecord(
                id=field(obj, "id", str, where),
                participants=_parse_actors(participants, where, "participant", seen),
                start_ms=instant(obj, "start", where),
                duration_minutes=minutes,
                title=field(obj, "title", str, where),
            )
        )
    return records


def filter_reviews(reviews: list[ReviewRecord]) -> list[ReviewRecord]:
    """Keep only reviews whose change actually landed (state 'merged')."""
    return [r for r in reviews if r.state.lower() == "merged"]


def filter_meetings(
    meetings: list[MeetingRecord],
    exclude_keywords=AlgorithmParams.meeting_exclude_keywords,
) -> list[MeetingRecord]:
    """Drop meetings whose title contains any excluded keyword."""
    keywords = [k.lower() for k in exclude_keywords]
    kept = []
    for m in meetings:
        title = m.title.lower()
        if not any(k in title for k in keywords):
            kept.append(m)
    return kept


def collect_actors(
    reviews: list[ReviewRecord], meetings: list[MeetingRecord]
) -> list[RawActor]:
    """The distinct reviewers and meeting participants, in first-seen order."""
    actors = [a for review in reviews for a in review.reviewers]
    actors.extend(a for meeting in meetings for a in meeting.participants)
    return list(dict.fromkeys(actors))


def _resolve_ids(actors, identity: IdentityIndex) -> tuple[str, ...]:
    """The engineer ids of ``actors``, deduplicated in input order."""
    return tuple(dict.fromkeys(map(identity.resolve, actors)))


def emit_review_events(
    reviews: list[ReviewRecord],
    commit_index: dict[str, Credit],
    identity: IdentityIndex,
    *,
    warnings: list[str] | None = None,
) -> list[Credit]:
    """One REVIEW credit per review and distinct reviewed commit.

    Each credit carries the review's deduplicated reviewers, minus the
    commit's author (no self-reviews), and the commit's own ``file_paths``
    tuple; a commit with no such reviewer or no live file earns none. Commit
    ids that never reached the analyzed branch are skipped with a warning.
    ``completed_at_ms`` must pass the ``Credit`` check, matched or not.
    """
    credit: list[Credit] = []
    new, review = tuple.__new__, EventKind.REVIEW
    for review_id, reviewers, commit_ids, completed_at_ms, _ in reviews:
        completed_at_ms = Credit((), "", completed_at_ms, 1.0, (), review).timestamp_ms
        reviewer_ids = _resolve_ids(reviewers, identity)
        for commit_id in dict.fromkeys(commit_ids):
            commit = commit_index.get(commit_id)
            if commit is None:
                warn(
                    warnings,
                    f"review {review_id!r} references commit {commit_id} "
                    f"not on the analyzed branch; skipped",
                )
                continue
            author, paths = commit.engineers[0], commit.file_paths
            engineers = tuple(e for e in reviewer_ids if e != author)
            if engineers and paths:
                credit.append(
                    new(Credit, (engineers, commit_id, completed_at_ms, 1.0, paths, review))
                )
    return credit


class MeetingBucket(NamedTuple):
    """The meetings of one commit: each one its author attended within the window.

    ``entries`` holds one ``(attendees, start_ms, minutes)`` per meeting, by
    start, ties in input order; it stands for a meeting event of every
    attendee on every one of ``file_paths``. Commits whose author sees the
    same meetings share one ``entries`` list.
    """

    commit_ref: str
    file_paths: tuple[str, ...]
    entries: list[tuple[tuple[str, ...], int, float]]


_START = itemgetter(1)


def meeting_buckets(
    meetings: list[MeetingRecord],
    commit_index: dict[str, Credit],
    identity: IdentityIndex,
    *,
    window_days: int = AlgorithmParams.meeting_window_days,
) -> list[MeetingBucket]:
    """One bucket per commit whose author attended a meeting near in time,
    in ``commit_index`` order.

    A commit relates to a meeting when its author attended and the meeting
    started within the window around the commit timestamp; a commit without
    live files relates to none. Each entry carries the meeting's
    deduplicated attendees in input order, and ``start_ms`` and
    ``duration_minutes`` must pass the ``Credit`` check, matched or not.
    """
    attended = defaultdict(list)  # attendee -> the entries of their meetings
    for _, participants, start, minutes, _ in meetings:
        _, _, start, minutes, _, _ = Credit((), "", start, minutes, (), EventKind.MEETING)
        entry = (_resolve_ids(participants, identity), start, minutes)
        for attendee in entry[0]:
            attended[attendee].append(entry)
    if not attended:
        return []  # nothing to join: skip the history
    by_start = {}  # attendee -> their entries and the entries' starts, in start order
    for attendee, theirs in attended.items():
        theirs.sort(key=_START)  # stable: input order among equal starts
        by_start[attendee] = theirs, [start for _, start, _ in theirs]
    window_ms = window_days * int(MS_PER_DAY)
    shared: dict[tuple[str, int, int], list] = {}
    buckets, new = [], tuple.__new__
    for commit_id, (engineers, _, ts, _, paths, _) in commit_index.items():
        seen = by_start.get(engineers[0]) if paths else None
        if seen is None:
            continue
        theirs, stamps = seen
        lo = bisect_left(stamps, ts - window_ms)
        hi = bisect_right(stamps, ts + window_ms, lo)
        if lo < hi:
            window = shared.get((engineers[0], lo, hi))
            if window is None:
                window = shared[engineers[0], lo, hi] = theirs[lo:hi]
            buckets.append(new(MeetingBucket, (commit_id, paths, window)))
    return buckets


def emit_meeting_events(
    meetings: list[MeetingRecord],
    commit_index: dict[str, Credit],
    identity: IdentityIndex,
    *,
    window_days: int = AlgorithmParams.meeting_window_days,
) -> list[Credit]:
    """The ``meeting_buckets`` spelled out by ``bucket_credit``: one credit per
    (meeting, commit) match, of the meeting's duration to every attendee, on
    the commit's own ``file_paths`` tuple. The credit comes in bucket order:
    commit by commit in ``commit_index`` order, each commit's meetings by
    start, in input order among equal starts.
    """
    buckets = meeting_buckets(meetings, commit_index, identity, window_days=window_days)
    return list(bucket_credit(buckets))
