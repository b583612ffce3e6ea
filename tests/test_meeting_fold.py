"""The meeting fold against the per-file reference join in collab_reference.py.

``collab.emit_meeting_events`` returns one credit per (meeting, attendee,
commit) and ``engine.build_ledgers`` folds it per (engineer, commit). Spelled
out, that must be exactly the reference's events, and scoring must give
exactly the reference's floats, authors, walk and clock-skew message.
"""
from hypothesis import given, settings, strategies as st

import collab_reference
from busfactor.collab import MeetingRecord, emit_meeting_events
from busfactor.engine import ALGORITHMS, analyze, prepare_ledgers
from busfactor.errors import ClockSkewError
from busfactor.gitvcs import CommitKnowledge
from busfactor.identity import IdentityIndex, RawActor, merge_identities
from busfactor.model import AlgorithmParams, ContributionEvent, EventKind, canonical_order
from busfactor.pipeline import AnalysisRun

from conftest import day_ms

# the first two resolve to one engineer through their shared profile
ACTORS = (
    RawActor("A", "a@x.io", "u-a"),
    RawActor("A", "a.alt@x.io", "u-a"),
    RawActor("B", "b@x.io"),
    RawActor("C", "c@x.io"),
)
FILES = ("f0.txt", "f1.txt", "f2.txt")
# a short cap, so long meetings saturate
PARAMS = AlgorithmParams(mte_minutes=120.0)


def instant(step: int) -> int:
    # half-day steps: with windows of 0-2 days, meetings often sit exactly
    # on a window edge and often share a start with others or with a commit
    return day_ms(step / 2)


commits_st = st.lists(
    st.tuples(
        st.sampled_from(ACTORS),
        st.integers(min_value=0, max_value=8),
        st.lists(st.sampled_from(FILES), unique=True, max_size=3),  # may be empty
    ),
    min_size=1,
    max_size=6,
)
meetings_st = st.lists(
    st.tuples(
        st.lists(st.sampled_from(ACTORS), max_size=4),  # duplicates allowed
        st.integers(min_value=0, max_value=8),
        st.sampled_from([15.0, 30.5, 60.0, 240.0]),
    ),
    max_size=5,
)


def vcs_events(commit_index) -> list[ContributionEvent]:
    events = []
    first: dict[str, tuple[int, str, str]] = {}
    for ref, k in commit_index.items():
        for path in k.file_paths:
            events.append(
                ContributionEvent(EventKind.COMMIT, k.author_id, path, k.timestamp_ms, commit_ref=ref)
            )
            first[path] = min(first.get(path, (k.timestamp_ms, ref, k.author_id)),
                              (k.timestamp_ms, ref, k.author_id))
    for path, (ts, ref, author) in first.items():
        events.append(ContributionEvent(EventKind.FIRST_AUTHORSHIP, author, path, ts, commit_ref=ref))
    return canonical_order(events)


def scored(run):
    try:
        return [
            (table.raw, table.file_max, result.authors, result.bus_factor,
             result.key_engineers, result.coverage_trace)
            for table, result in map(run, ALGORITHMS)
        ]
    except ClockSkewError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    commits_st,
    meetings_st,
    st.sampled_from([0, 1, 2]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
)
def test_fold_matches_per_file_reference(commits, meetings, window_days, as_of_step):
    identity = IdentityIndex(merge_identities(ACTORS))
    commit_index = {
        f"c{i}": CommitKnowledge(
            author_id=identity.resolve_email(actor.email),
            timestamp_ms=instant(step),
            file_paths=tuple(sorted(files)),
        )
        for i, (actor, step, files) in enumerate(commits)
    }
    records = [
        MeetingRecord(f"m{j}", tuple(people), instant(step), minutes, "sync")
        for j, (people, step, minutes) in enumerate(meetings)
    ]
    reference = collab_reference.emit_meeting_events(
        records, commit_index, identity, window_days=window_days
    )
    credit = emit_meeting_events(records, commit_index, identity, window_days=window_days)
    commit_files = {ref: k.file_paths for ref, k in commit_index.items()}
    plain = vcs_events(commit_index)
    everything = canonical_order(plain + reference)

    run = AnalysisRun(report={}, sorted_events=plain, meeting_credit=credit, commit_files=commit_files)
    assert list(run.events) == everything

    as_of = None if as_of_step is None else instant(as_of_step)
    expected = scored(lambda algo: analyze(everything, FILES, PARAMS, as_of, algo))

    def folded(algo):
        ledgers = prepare_ledgers(plain, FILES, as_of, credit=credit, commit_files=commit_files)
        return analyze(ledgers, params=PARAMS, algorithm=algo)

    assert scored(folded) == expected
