"""The meeting fold against the per-file reference join in collab_reference.py.

``collab.emit_meeting_events`` returns one credit per (meeting, commit)
match, carrying the meeting's deduplicated attendees, and
``engine.build_ledgers`` keeps one list of it per commit. Spelled out, that
must be exactly the reference's events, written as the reference writer in
eventlog_reference.py writes them, and scoring must give exactly the
reference's floats, authors, walk and clock-skew message.
"""
import io
import json

from hypothesis import example, given, settings, strategies as st

import collab_reference
import eventlog_reference
from busfactor.cli import main
from busfactor.collab import (
    MeetingRecord,
    collect_actors,
    emit_meeting_events,
    filter_meetings,
    parse_meetings,
)
from busfactor.engine import ALGORITHMS, analyze, prepare_ledgers
from busfactor.errors import ClockSkewError
from busfactor.eventlog import write_event_log
from busfactor.gitvcs import emit_vcs_events, snapshot_branch, traverse_branch
from busfactor.identity import IdentityIndex, RawActor, merge_identities
from busfactor.model import (
    AlgorithmParams, Credit, EventKind, canonical_order, credit_events, event_credit,
)
from busfactor.pipeline import AnalysisRun

from conftest import ALICE, BOB, day_ms

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


def vcs_credit(commit_index) -> list[Credit]:
    """The COMMIT credit of the index, then a first authorship of each path."""
    credit = list(commit_index.values())
    first: dict[str, tuple[int, str, str]] = {}
    for ref, k in commit_index.items():
        for path in k.file_paths:
            first[path] = min(first.get(path, (k.timestamp_ms, ref, k.engineers[0])),
                              (k.timestamp_ms, ref, k.engineers[0]))
    for path, (ts, ref, author) in first.items():
        credit.append(Credit((author,), ref, ts, 1.0, (path,), EventKind.FIRST_AUTHORSHIP))
    return credit


def scored(run):
    try:
        return [
            (table.raw, table.file_max, result.authors, result.bus_factor,
             result.key_engineers, result.coverage_trace)
            for table, result in map(run, ALGORITHMS)
        ]
    except ClockSkewError as exc:
        return str(exc)


def reference_dump(events) -> str:
    sink = io.StringIO()
    eventlog_reference.write_event_log(events, sink)
    return sink.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    commits_st,
    meetings_st,
    st.sampled_from([0, 1, 2]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
)
# two meetings at one start, same attendee and commit, different minutes: tied
# on the whole sort key, their events keep the meetings' input order
@example([(ACTORS[2], 2, ["f0.txt", "f1.txt"])], [([ACTORS[2]], 2, 60.0), ([ACTORS[2]], 2, 15.0)], 0, None)
def test_fold_matches_per_file_reference(commits, meetings, window_days, as_of_step):
    identity = IdentityIndex(merge_identities(ACTORS))
    commit_index = {
        f"c{i}": Credit(
            (identity.resolve(actor),), f"c{i}", instant(step), 1.0, tuple(sorted(files)),
            EventKind.COMMIT,
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
    vcs = vcs_credit(commit_index)
    plain = canonical_order(credit_events(vcs))
    everything = canonical_order(plain + reference)

    run = AnalysisRun(report={}, credit=[*vcs, *credit])
    assert list(run.events) == everything
    dump = io.StringIO()
    write_event_log(run.events, dump)
    assert dump.getvalue() == reference_dump(everything)

    as_of = None if as_of_step is None else instant(as_of_step)
    expected = scored(
        lambda algo: analyze(prepare_ledgers(event_credit(everything), FILES, as_of), PARAMS, algo)
    )
    folded = scored(
        lambda algo: analyze(
            prepare_ledgers(event_credit(plain) + credit, FILES, as_of), PARAMS, algo
        )
    )
    # a commit with no files dates the run, though it spells out no event
    dated = [c for c in [*vcs, *credit] if c.file_paths]
    from_credit = scored(
        lambda algo: analyze(prepare_ledgers(dated, FILES, as_of), PARAMS, algo)
    )

    assert folded == expected
    assert from_credit == expected


def test_cli_dump_equals_reference_writer_over_reference_events(tmp_path, mkrepo):
    repo = mkrepo()
    repo.commit("a", {"a.txt": "a\n", "b.txt": "b\n"}, author=ALICE, day=0)
    repo.commit("b", {"b.txt": "b2\n", "c.txt": "c\n"}, author=BOB, day=1)
    repo.commit("d", {"d.txt": "d\n"}, author=ALICE, day=2)
    people = [{"email": ALICE[1]}, {"email": BOB[1]}, {"email": "carol@example.com"}]
    meetings_path = tmp_path / "meetings.json"
    meetings_path.write_text(json.dumps([
        # tied on the whole sort key of each of their events but the minutes
        {"id": "m1", "participants": people[:2], "start": day_ms(1),
         "duration_minutes": 30, "title": "sync"},
        {"id": "m2", "participants": people[:2], "start": day_ms(1),
         "duration_minutes": 45.5, "title": "sync"},
        {"id": "m3", "participants": people[::-1], "start": day_ms(2),
         "duration_minutes": 60, "title": "design"},
        {"id": "m4", "participants": people, "start": day_ms(2),
         "duration_minutes": 90, "title": "reading group"},
    ]), encoding="utf-8")
    dump = tmp_path / "events.jsonl"
    argv = ["analyze", "--repo", str(repo.path), "--meetings", str(meetings_path),
            "--algorithm", "both", "--dump-events", str(dump), "--output", str(tmp_path / "r")]
    assert main(argv) == 0

    commits = traverse_branch(repo.path, "main")
    meetings = filter_meetings(parse_meetings(meetings_path))
    actors = [RawActor(c.author_name, c.author_email) for c in commits]
    identity = IdentityIndex(merge_identities(actors + collect_actors([], meetings)))
    vcs = emit_vcs_events(commits, identity, snapshot_branch(repo.path, commits[-1].id))
    reference = collab_reference.emit_meeting_events(meetings, vcs.commit_index, identity)
    expected = canonical_order([*vcs.events, *reference])
    assert [e.magnitude for e in expected if e.timestamp_ms == day_ms(1)][-4:] == [30, 45.5] * 2
    assert dump.read_text(encoding="utf-8") == reference_dump(expected)
