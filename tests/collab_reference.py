"""Per-file reference meeting join, for oracle tests.

Scans every commit for every meeting and spells out one MEETING event per
(meeting, attendee, commit, live file). ``collab.emit_meeting_events`` returns
one credit per (meeting, commit) match instead and ``engine.build_ledgers``
keeps one list of it per commit; expanded, the two must give the same events
and the same scores. Intentionally simple and slow.
"""
from busfactor.model import MS_PER_DAY, AlgorithmParams, ContributionEvent, EventKind


def emit_meeting_events(
    meetings,
    commit_index,
    identity,
    *,
    window_days=AlgorithmParams.meeting_window_days,
):
    """Meeting events for commits authored by attendees near in time.

    A commit relates to a meeting when its author attended and the meeting
    started within the window around the commit timestamp; every attendee is
    then credited on the commit's live files with the meeting's duration.
    """
    window_ms = window_days * MS_PER_DAY
    events = []
    for meeting in meetings:
        attendee_ids = []
        for actor in meeting.participants:
            engineer = identity.resolve(actor)
            if engineer not in attendee_ids:
                attendee_ids.append(engineer)
        attendees = set(attendee_ids)
        for commit_id, knowledge in commit_index.items():
            if knowledge.engineers[0] not in attendees:
                continue
            if abs(meeting.start_ms - knowledge.timestamp_ms) > window_ms:
                continue
            for engineer in attendee_ids:
                for path in knowledge.file_paths:
                    events.append(
                        ContributionEvent(
                            kind=EventKind.MEETING,
                            engineer_id=engineer,
                            file_path=path,
                            timestamp_ms=meeting.start_ms,
                            magnitude=meeting.duration_minutes,
                            commit_ref=commit_id,
                        )
                    )
    return events
