"""What the scoring path makes of meetings.

The meeting join hands the ledgers one bucket per commit window; no
per-match MEETING credit reaches ``engine.build_ledgers`` on the way to a
report, and ``emit_meeting_events`` spells the buckets out only when the
run's events are read. Spelled out, its credit is the per-file reference
join's events, and grouped by commit it gives each bucket's entries.

An attendee whose only credit on a file is a meeting that decayed to weight
0.0 is still one of the file's engineers, with score 0.0: presence comes
from the meeting, not from a non-zero sum, both through the pipeline's own
ledgers and through the estimator fitted on the run's event dump.
"""
import json
from collections import Counter

from hypothesis import given, settings, strategies as st

import busfactor.engine as engine
import busfactor.pipeline as pipeline
import collab_reference
from busfactor.collab import MeetingRecord, emit_meeting_events, meeting_buckets
from busfactor.estimator import BusFactorEstimator
from busfactor.eventlog import read_event_log, write_event_log
from busfactor.identity import IdentityIndex, merge_identities
from busfactor.model import AlgorithmParams, Credit, EventKind
from busfactor.pipeline import run_analysis
from order_reference import canonical_order, credit_events

from conftest import ALICE, BOB, CAROL, day_ms
from test_meeting_fold import ACTORS, commits_st, instant, meetings_st

ALICE_ID, BOB_ID = ALICE[1], BOB[1]


def test_an_attendee_whose_meeting_weighs_zero_stays_on_the_file(tmp_path, mkrepo, monkeypatch):
    repo = mkrepo()
    repo.commit("add", {"a.txt": "a\n"}, author=ALICE, day=0)
    meetings = tmp_path / "meetings.json"
    meetings.write_text(json.dumps([{
        "id": "m1", "participants": [{"email": ALICE_ID}, {"email": BOB_ID}],
        "start": day_ms(0), "duration_minutes": 60, "title": "sync",
    }]))
    # exp(-2000) is 0.0 as a float: every term of the file decays to nothing
    params, as_of = AlgorithmParams(decay_days=1), day_ms(2000)

    analyzed = []
    real_analyze = pipeline.analyze

    def analyze(ledgers, *args, **kwargs):
        table, result = real_analyze(ledgers, *args, **kwargs)
        analyzed.append((ledgers, table))
        return table, result

    monkeypatch.setattr(pipeline, "analyze", analyze)
    run = run_analysis(repo.path, meetings_path=meetings, params=params, as_of_ms=as_of)
    (_, table), = analyzed
    assert table.file_engineers == {"a.txt": (ALICE_ID, BOB_ID)}
    assert table.raw == {(ALICE_ID, "a.txt"): 0.0, (BOB_ID, "a.txt"): 0.0}
    assert run.report["bus_factor"] == 0

    dump = tmp_path / "events.jsonl"
    write_event_log(run.events, dump)
    estimator = BusFactorEstimator(decay_days=1, as_of=as_of).fit(read_event_log(dump))
    assert estimator.doa_.file_engineers == {"a.txt": (ALICE_ID, BOB_ID)}
    assert estimator.doa_.raw == table.raw


def test_the_scoring_path_spells_out_no_meeting_credit(tmp_path, mkrepo, monkeypatch):
    repo = mkrepo()
    repo.commit("add", {"a.txt": "a\n", "b.txt": "b\n"}, author=ALICE, day=0)
    repo.commit("edit", {"b.txt": "b2\n", "c.txt": "c\n"}, author=BOB, day=1)
    repo.commit("more", {"a.txt": "a2\n"}, author=ALICE, day=3)
    people = [{"email": ALICE_ID}, {"email": BOB_ID}, {"email": CAROL[1]}]
    meetings = tmp_path / "meetings.json"
    meetings.write_text(json.dumps([
        {"id": f"m{i}", "participants": people[i % 2:], "start": day_ms(i),
         "duration_minutes": 30 + i, "title": "sync"}
        for i in range(4)
    ]))

    built, spelled = [], []
    real_build, real_emit = engine.build_ledgers, pipeline.emit_meeting_events

    def build_ledgers(credit, meetings=()):
        built.append((list(credit), list(meetings)))
        return real_build(credit, meetings)

    def emit(*args, **kwargs):
        spelled.append(real_emit(*args, **kwargs))
        return spelled[-1]

    monkeypatch.setattr(engine, "build_ledgers", build_ledgers)
    monkeypatch.setattr(pipeline, "emit_meeting_events", emit)
    run = run_analysis(repo.path, meetings_path=meetings, algorithm="both")
    (credit, buckets), = built
    assert not [c for c in credit if c.kind is EventKind.MEETING]
    stamp = {c.commit_ref: c.timestamp_ms for c in credit if c.kind is EventKind.COMMIT}
    assert sorted(b.commit_ref for b in buckets) == sorted(stamp)
    assert spelled == []
    # alice's two commits see the same meetings, m0 and m2, and share one list
    first, _, last = sorted(buckets, key=lambda b: stamp[b.commit_ref])
    assert first.entries is last.entries
    assert [start for _, start, _ in first.entries] == [day_ms(0), day_ms(2)]

    events = list(run.events)
    (meeting_credit,) = spelled
    assert len(meeting_credit) == sum(len(b.entries) for b in buckets)
    assert [e for e in events if e.kind is EventKind.MEETING] == canonical_order(
        credit_events(meeting_credit)
    )


@settings(max_examples=200, deadline=None)
@given(commits_st, meetings_st, st.sampled_from([0, 1, 2]))
def test_meeting_credit_is_the_reference_join_and_each_bucket_by_commit(
    commits, meetings, window_days
):
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
    credit = emit_meeting_events(records, commit_index, identity, window_days=window_days)
    reference = collab_reference.emit_meeting_events(
        records, commit_index, identity, window_days=window_days
    )
    assert canonical_order(credit_events(credit)) == canonical_order(reference)

    buckets = meeting_buckets(records, commit_index, identity, window_days=window_days)
    by_commit: dict[str, Counter] = {}
    for c in credit:
        assert c.file_paths is commit_index[c.commit_ref].file_paths
        by_commit.setdefault(c.commit_ref, Counter())[c.engineers, c.timestamp_ms, c.magnitude] += 1
    assert {b.commit_ref: Counter(b.entries) for b in buckets} == by_commit
    for bucket in buckets:
        assert bucket.file_paths is commit_index[bucket.commit_ref].file_paths
        starts = [start for _, start, _ in bucket.entries]
        assert starts == sorted(starts)
        # the entries of one start are the author's meetings of that start,
        # in input order: the order the event dump keeps for ties
        author, attended = commit_index[bucket.commit_ref].engineers[0], []
        for r in records:
            attendees = tuple(dict.fromkeys(map(identity.resolve, r.participants)))
            if author in attendees:
                attended.append((attendees, r.start_ms, r.duration_minutes))
        for start in set(starts):
            assert [e for e in bucket.entries if e[1] == start] == [
                e for e in attended if e[1] == start
            ]
