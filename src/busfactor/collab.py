"""Code-review and meeting ingestion.

Both channels arrive as JSON arrays and are joined to the commit history:
reviews attach to the exact commits they approved, meetings attach to the
commits their attendees authored nearby in time. A commit is its COMMIT
credit in ``commit_index``, authored by ``engineers[0]``. Each channel
produces one credit per (review or meeting, commit) match, which stands for
its events on the head-live files of that commit; a record's numbers pass
the ``Credit`` check once, and its matches carry the checked numbers.

Every actor names an email or a profile ref that is not blank, and resolves
through an ``IdentityIndex`` that must be built from every actor passed in.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .errors import InputDataError
from .identity import IdentityIndex, RawActor
from .inputs import field, instant, load_json, warn
from .model import (
    MS_PER_DAY,
    AlgorithmParams,
    Credit,
    EventKind,
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


def _parse_actor(obj, where: str) -> RawActor:
    if not isinstance(obj, dict):
        raise InputDataError(f"{where}: actor entries must be objects")
    name = obj.get("name", "")
    email = obj.get("email", "")
    profile = obj.get("profile_ref")
    for label, value in (("name", name), ("email", email)):
        if not isinstance(value, str):
            raise InputDataError(f"{where}: actor field {label!r} must be a string")
    if profile is not None and not isinstance(profile, str):
        raise InputDataError(f"{where}: actor field 'profile_ref' must be a string")
    if not email.strip() and not (profile or "").strip():
        raise InputDataError(f"{where}: actor needs an 'email' or a 'profile_ref'")
    return RawActor(name=name, email=email, profile_ref=profile)


def parse_reviews(source) -> list[ReviewRecord]:
    """Read review metadata, validating shape and field types."""
    records = []
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
                reviewers=tuple(
                    _parse_actor(r, f"{where} reviewer #{j}") for j, r in enumerate(reviewers)
                ),
                commit_ids=tuple(commit_ids),
                completed_at_ms=instant(obj, "completed_at", where),
                state=field(obj, "state", str, where),
            )
        )
    return records


def parse_meetings(source) -> list[MeetingRecord]:
    """Read meeting metadata, validating shape and field types."""
    records = []
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
                participants=tuple(
                    _parse_actor(p, f"{where} participant #{j}")
                    for j, p in enumerate(participants)
                ),
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


def emit_meeting_events(
    meetings: list[MeetingRecord],
    commit_index: dict[str, Credit],
    identity: IdentityIndex,
    *,
    window_days: int = AlgorithmParams.meeting_window_days,
) -> list[Credit]:
    """Meeting credit for commits authored by attendees near in time.

    A commit relates to a meeting when its author attended and the meeting
    started within the window around the commit timestamp; the match is one
    credit of the meeting's duration to every attendee. Each credit carries
    the meeting's deduplicated attendees in input order and the commit's
    own ``file_paths`` tuple (a commit without live files earns none). The
    credit comes meeting by meeting in input order, each meeting's commits
    by timestamp, then commit id. ``start_ms`` and ``duration_minutes`` must
    pass the ``Credit`` check, matched or not.
    """
    if not meetings:
        return []  # nothing to join: skip sorting the history
    window_ms = window_days * int(MS_PER_DAY)
    timeline = sorted(  # commit ids are unique, so no two credits are compared
        (commit.timestamp_ms, commit_id, commit)
        for commit_id, commit in commit_index.items()
        if commit.file_paths
    )
    stamps = [ts for ts, _, _ in timeline]
    credit: list[Credit] = []
    new, meeting_kind = tuple.__new__, EventKind.MEETING
    for _, participants, start, minutes, _ in meetings:
        _, _, start, minutes, _, _ = Credit((), "", start, minutes, (), meeting_kind)
        attendees = _resolve_ids(participants, identity)
        authors = set(attendees)
        lo = bisect_left(stamps, start - window_ms)
        hi = bisect_right(stamps, start + window_ms)
        credit.extend(
            new(Credit, (attendees, commit_id, start, minutes, commit.file_paths, meeting_kind))
            for _, commit_id, commit in timeline[lo:hi]
            if commit.engineers[0] in authors
        )
    return credit
