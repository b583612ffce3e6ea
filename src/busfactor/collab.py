"""Code-review and meeting ingestion.

Both channels arrive as JSON arrays and are joined to the commit history:
reviews attach to the exact commits they approved, meetings attach to the
commits their attendees authored nearby in time. Reviews produce contribution
events against the head-live files of those commits; meetings produce one
credit per (attendee, commit) that stands for all of them.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter

from .errors import InputDataError
from .gitvcs import CommitKnowledge
from .identity import IdentityIndex, RawActor
from .inputs import field, load_json, warn
from .model import MS_PER_DAY, AlgorithmParams, ContributionEvent, EventKind, MeetingCredit


@dataclass(frozen=True)
class ReviewRecord:
    id: str
    reviewers: tuple[RawActor, ...]
    commit_ids: tuple[str, ...]
    completed_at_ms: int
    state: str


@dataclass(frozen=True)
class MeetingRecord:
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
    if not email and not profile:
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
                completed_at_ms=field(obj, "completed_at", int, where),
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
        if duration <= 0:
            raise InputDataError(f"{where}: field 'duration_minutes' must be positive")
        records.append(
            MeetingRecord(
                id=field(obj, "id", str, where),
                participants=tuple(
                    _parse_actor(p, f"{where} participant #{j}")
                    for j, p in enumerate(participants)
                ),
                start_ms=field(obj, "start", int, where),
                duration_minutes=float(duration),
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
    actors: list[RawActor] = []
    for review in reviews:
        actors.extend(review.reviewers)
    for meeting in meetings:
        actors.extend(meeting.participants)
    return actors


def _resolve_actor(
    actor: RawActor, identity: IdentityIndex, warnings: list[str] | None, where: str
) -> str | None:
    engineer = identity.resolve(actor.email, actor.profile_ref)
    if engineer is not None:
        return engineer
    if actor.email:
        engineer = identity.resolve_or_create(actor.name, actor.email)
        warn(warnings, f"{where}: <{actor.email}> missing from identity map; "
                        f"attributed to new engineer '{engineer}'")
        return engineer
    if actor.profile_ref:
        warn(warnings, f"{where}: profile {actor.profile_ref!r} missing from "
                        f"identity map; using it as the engineer id")
        return actor.profile_ref
    return None


def emit_review_events(
    reviews: list[ReviewRecord],
    commit_index: dict[str, CommitKnowledge],
    identity: IdentityIndex,
    *,
    warnings: list[str] | None = None,
) -> list[ContributionEvent]:
    """One review contribution per reviewer per live file of each reviewed commit.

    Self-reviews (reviewer is the commit author) are skipped, as are commit
    ids that never reached the analyzed branch.
    """
    events: list[ContributionEvent] = []
    for review in reviews:
        reviewer_ids: list[str] = []
        for j, actor in enumerate(review.reviewers):
            engineer = _resolve_actor(
                actor, identity, warnings, f"review {review.id!r} reviewer #{j}"
            )
            if engineer is not None and engineer not in reviewer_ids:
                reviewer_ids.append(engineer)
        for commit_id in dict.fromkeys(review.commit_ids):
            knowledge = commit_index.get(commit_id)
            if knowledge is None:
                warn(
                    warnings,
                    f"review {review.id!r} references commit {commit_id} "
                    f"not on the analyzed branch; skipped",
                )
                continue
            for engineer in reviewer_ids:
                if engineer == knowledge.author_id:
                    continue
                for path in knowledge.file_paths:
                    events.append(
                        ContributionEvent(
                            kind=EventKind.REVIEW,
                            engineer_id=engineer,
                            file_path=path,
                            timestamp_ms=review.completed_at_ms,
                            commit_ref=commit_id,
                        )
                    )
    return events


def emit_meeting_events(
    meetings: list[MeetingRecord],
    commit_index: dict[str, CommitKnowledge],
    identity: IdentityIndex,
    *,
    window_days: int = AlgorithmParams.meeting_window_days,
    warnings: list[str] | None = None,
) -> list[MeetingCredit]:
    """Meeting credit for commits authored by attendees near in time.

    A commit relates to a meeting when its author attended and the meeting
    started within the window around the commit timestamp; every attendee is
    then credited once for that commit with the meeting's duration. Each
    credit carries the commit's own ``file_paths`` tuple (a commit without
    live files earns none). The credit comes back in start order, equal
    starts in meeting-input order; attendees resolve in input order.
    """
    if not meetings:
        return []  # nothing to join: skip sorting the history
    window_ms = window_days * int(MS_PER_DAY)
    timeline = sorted(  # commit ids are unique, so no two knowledges are compared
        (k.timestamp_ms, commit_id, k)
        for commit_id, k in commit_index.items()
        if k.file_paths
    )
    stamps = [ts for ts, _, _ in timeline]
    credit: list[MeetingCredit] = []
    for meeting in meetings:
        attendee_ids: list[str] = []
        for j, actor in enumerate(meeting.participants):
            engineer = _resolve_actor(
                actor, identity, warnings, f"meeting {meeting.id!r} participant #{j}"
            )
            if engineer is not None and engineer not in attendee_ids:
                attendee_ids.append(engineer)
        attendees = set(attendee_ids)
        lo = bisect_left(stamps, meeting.start_ms - window_ms)
        hi = bisect_right(stamps, meeting.start_ms + window_ms)
        for _, commit_id, k in timeline[lo:hi]:
            if k.author_id in attendees:
                credit.extend(
                    MeetingCredit(
                        engineer, commit_id, meeting.start_ms,
                        meeting.duration_minutes, k.file_paths,
                    )
                    for engineer in attendee_ids
                )
    credit.sort(key=attrgetter("timestamp_ms"))
    return credit
