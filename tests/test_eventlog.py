import io
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import eventlog_reference
from busfactor.errors import InputDataError
from busfactor.eventlog import (
    FIELDS,
    WRITE_BYTES,
    events_from_records,
    read_event_log,
    write_event_log,
)
from busfactor.model import (
    CanonicalEvents,
    ContributionEvent,
    Credit,
    EventKind,
)
from busfactor.pipeline import AnalysisRun
from eventlog_reference import event_to_record
from order_reference import canonical_order, credit_events

from conftest import day_ms


def sample_events():
    return [
        ContributionEvent(EventKind.FIRST_AUTHORSHIP, "alice@example.com", "src/a.py", day_ms(0), commit_ref="c1"),
        ContributionEvent(EventKind.COMMIT, "alice@example.com", "src/a.py", day_ms(0), commit_ref="c1"),
        ContributionEvent(EventKind.REVIEW, "bob@example.com", "src/a.py", day_ms(2), commit_ref="c1"),
        ContributionEvent(EventKind.MEETING, "carol@example.com", "src/a.py", day_ms(3), magnitude=45.0, commit_ref="c1"),
    ]


class TestRoundTrip:
    def test_write_then_read_preserves_everything(self, tmp_path):
        path = tmp_path / "events.ndjson"
        events = sample_events()
        write_event_log(events, path)
        assert read_event_log(path) == events

    def test_one_compact_json_object_per_line(self):
        sink = io.StringIO()
        write_event_log(sample_events(), sink)
        lines = sink.getvalue().strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            record = json.loads(line)
            assert list(record) == list(FIELDS)

    def test_record_field_values(self):
        record = event_to_record(sample_events()[3])
        assert record == {
            "kind": "meeting",
            "engineer_id": "carol@example.com",
            "file_path": "src/a.py",
            "timestamp_ms": day_ms(3),
            "magnitude": 45.0,
            "commit_ref": "c1",
        }

    def test_blank_lines_skipped(self):
        sink = io.StringIO()
        write_event_log(sample_events()[:1], sink)
        text = sink.getvalue() + "\n   \n"
        assert len(read_event_log(io.StringIO(text))) == 1


class TestValidation:
    def test_broken_json_names_line(self):
        source = io.StringIO('{"kind": "commit"\n')
        with pytest.raises(InputDataError, match="line 1"):
            read_event_log(source)

    def test_missing_field_named(self):
        record = event_to_record(sample_events()[1])
        del record["file_path"]
        with pytest.raises(InputDataError, match="file_path"):
            read_event_log(io.StringIO(json.dumps(record)))

    def test_wrong_type_rejected(self):
        record = event_to_record(sample_events()[1])
        record["timestamp_ms"] = "2024-01-01"
        with pytest.raises(InputDataError, match="timestamp_ms"):
            read_event_log(io.StringIO(json.dumps(record)))

    def test_record_that_is_not_an_object_rejected(self):
        with pytest.raises(InputDataError, match=r"^line 1: record must be an object$"):
            events_from_records([("line 1", [1, 2])])

    def test_boolean_timestamp_rejected(self):
        record = event_to_record(sample_events()[1])
        record["timestamp_ms"] = True
        with pytest.raises(InputDataError, match="timestamp_ms"):
            read_event_log(io.StringIO(json.dumps(record)))

    def test_unknown_kind_rejected(self):
        record = event_to_record(sample_events()[1])
        record["kind"] = "push"
        with pytest.raises(InputDataError, match="push"):
            read_event_log(io.StringIO(json.dumps(record)))

    def test_meeting_magnitude_must_be_positive(self):
        record = event_to_record(sample_events()[3])
        record["magnitude"] = 0
        with pytest.raises(InputDataError, match="magnitude"):
            read_event_log(io.StringIO(json.dumps(record)))

    # json reads the first three as floats that are not finite; the last is
    # an int too large for a float
    @pytest.mark.parametrize(
        "magnitude", ["NaN", "Infinity", "1e999", "1" + "0" * 400],
        ids=["nan", "infinity", "overflow", "huge-int"],
    )
    def test_meeting_magnitude_must_be_finite(self, magnitude):
        record = event_to_record(sample_events()[3])
        text = json.dumps(record).replace('"magnitude": 45.0', f'"magnitude": {magnitude}')
        with pytest.raises(InputDataError, match="line 1: field 'magnitude' invalid"):
            read_event_log(io.StringIO(text))

    def test_second_first_authorship_for_same_file_rejected(self):
        first = event_to_record(sample_events()[0])
        text = json.dumps(first) + "\n" + json.dumps(first) + "\n"
        with pytest.raises(InputDataError, match="line 2"):
            read_event_log(io.StringIO(text))

    def test_error_reports_correct_line_number(self):
        good = json.dumps(event_to_record(sample_events()[1]))
        bad = '{"kind": "commit"}'
        with pytest.raises(InputDataError, match="line 3"):
            read_event_log(io.StringIO(f"{good}\n{good}\n{bad}\n"))

    def test_non_utf8_line_is_named(self, tmp_path):
        path = tmp_path / "events.ndjson"
        good = json.dumps(event_to_record(sample_events()[1])).encode()
        path.write_bytes(good + b'\n{"kind": "caf\xe9"}\n')
        with pytest.raises(InputDataError, match="^event log line 2: not UTF-8$"):
            read_event_log(path)

    def test_deeply_nested_line_is_named(self):
        with pytest.raises(InputDataError, match="^event log line 1: invalid JSON"):
            read_event_log(io.StringIO("[" * 100_000))


# Characters json escapes (quote, backslash, controls), ASCII-escapes (non-ASCII,
# astral as a surrogate pair, U+2028) or prints as is, and a few whole strings
# drawn often enough that records tie on their whole sort key.
TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", "\U0001f600", "\u2028", "/"])
names = st.one_of(
    st.sampled_from(["a@x.io", "src/a.py", "c1"]),
    st.text(st.one_of(TRICKY, st.characters(codec="utf-8")), max_size=6),
)
minutes = st.one_of(
    st.sampled_from([0.1, 1e-7, 1e16, 45.0, 45, 30.5]),
    st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    st.integers(min_value=1),
)


@st.composite
def events_st(draw):
    kind = draw(st.sampled_from(EventKind))
    return ContributionEvent(
        kind=kind,
        engineer_id=draw(names),
        file_path=draw(names),
        timestamp_ms=draw(st.sampled_from([0, day_ms(0)]) | st.integers()),
        magnitude=draw(minutes) if kind is EventKind.MEETING else 1.0,
        commit_ref=draw(names),
    )


def tie(minutes_a, minutes_b):
    return [
        ContributionEvent(EventKind.MEETING, "a@x.io", "src/a.py", day_ms(1), minutes, "c1")
        for minutes in (minutes_a, minutes_b)
    ]


def assert_reads_back(text, events):
    """``read_event_log`` of ``text`` gives ``events``, unless two of them first-author
    one file, which the reader rejects: the log holds one first authorship per file."""
    first_authored = [e.file_path for e in events if e.kind is EventKind.FIRST_AUTHORSHIP]
    if len(set(first_authored)) < len(first_authored):
        with pytest.raises(InputDataError, match="duplicates first authorship"):
            read_event_log(io.StringIO(text))
    else:
        assert read_event_log(io.StringIO(text)) == events


@settings(max_examples=300, deadline=None)
@given(st.lists(events_st(), max_size=12))
@example(tie(45.0, 45) + tie(1e16, 1e-7))
@example(tie(2**53 + 1, 1))  # int minutes a float cannot hold read back as ints
@example([ContributionEvent(EventKind.COMMIT, "\u2028\U0001f600", '"\\', -1, commit_ref="\x00é")])
def test_writer_bytes_equal_the_reference(events):
    events = canonical_order(events)
    expected = io.StringIO()
    eventlog_reference.write_event_log(events, expected)
    sink = io.StringIO()
    write_event_log(iter(events), sink)  # a one-pass stream, as ``AnalysisRun.events`` is
    assert sink.getvalue() == expected.getvalue()
    assert_reads_back(sink.getvalue(), events)


# Credit of every kind on a few instants, engineers, paths and refs, so that
# credit ties on timestamp, one engineer sits in several credits of one
# timestamp, and meetings tie on (engineer, path, ref) with only their input
# order to tell them apart. Lists may repeat or be empty; a non-meeting
# credit's magnitude is 1.0 or the int 1, which it stores as 1.0.
pool = st.one_of(st.sampled_from(["a@x.io", "b@x.io", "src/a.py", "c1"]), names)


@st.composite
def credit_st(draw):
    kind = draw(st.sampled_from(EventKind))
    return Credit(
        engineers=tuple(draw(st.lists(pool, max_size=4))),
        commit_ref=draw(pool),
        timestamp_ms=draw(st.sampled_from([0, day_ms(0), day_ms(1)]) | st.integers()),
        magnitude=draw(minutes if kind is EventKind.MEETING
                       else st.sampled_from([1.0, 1])),
        file_paths=tuple(draw(st.lists(pool, max_size=4))),
        kind=kind,
    )


T = day_ms(1)
FA, COMMIT, REVIEW, MEETING = EventKind


@settings(max_examples=300, deadline=None)
@given(st.lists(credit_st(), max_size=10))
# all four kinds at one instant, one engineer in several credits of it
@example([
    Credit(("b@x.io",), "c2", T, 30.5, ("src/b.py", "src/a.py")),
    Credit(("a@x.io",), "c1", T, 1.0, ("src/a.py",), COMMIT),
    Credit(("b@x.io", "a@x.io"), "c1", T, 1.0, ("src/a.py",), REVIEW),
    Credit(("a@x.io",), "c1", T, 1.0, ("src/a.py",), FA),
    Credit(("a@x.io",), "c0", T, 1.0, ("src/a.py",), COMMIT),
])
# two meetings tied on the whole sort key; int and float minutes keep input order
@example([
    Credit(("a@x.io",), "c1", T, 45, ("src/a.py",)),
    Credit(("a@x.io",), "c1", T, 30.5, ("src/a.py",)),
    Credit(("a@x.io",), "c1", T, 45.0, ("src/a.py",)),
])
# unsorted and repeated engineers and paths
@example([Credit(("b@x.io", "a@x.io", "b@x.io"), "c1", T, 60, ("q", "p", "q"))])
# pathless credit, and a non-meeting magnitude that is the int 1
@example([
    Credit(("a@x.io",), "c1", T, 1.0, (), COMMIT),
    Credit(("a@x.io",), "c1", T, 1, ("p",), REVIEW),
    Credit(("a@x.io",), "c1", 0, 15, ()),
])
# strings json escapes or ASCII-escapes
@example([Credit((" \U0001f600", 'é"'), "\x00é", -1, 1e16, ('"\\', "/\x7f"))])
# two meetings at one instant with one engineers tuple, other refs and paths
@example([
    Credit(("b@x.io", "a@x.io"), "c2", T, 30.0, ("src/b.py", "src/c.py")),
    Credit(("b@x.io", "a@x.io"), "c1", T, 45.0, ("src/c.py", "src/a.py")),
])
# and a third that overlaps their engineers and repeats one, so index lists concatenate
@example([
    Credit(("b@x.io", "a@x.io"), "c2", T, 30.0, ("src/b.py", "src/c.py")),
    Credit(("a@x.io", "c@x.io", "a@x.io"), "c0", T, 15.0, ("src/c.py",)),
    Credit(("b@x.io", "a@x.io"), "c1", T, 45.0, ("src/c.py", "src/a.py")),
])
# one engineers tuple under two kinds at one instant
@example([
    Credit(("b@x.io", "a@x.io"), "c1", T, 1.0, ("src/a.py",), REVIEW),
    Credit(("b@x.io", "a@x.io"), "c1", T, 30.0, ("src/a.py",)),
    Credit(("b@x.io", "a@x.io"), "c0", T, 1.0, ("src/b.py",), REVIEW),
])
def test_events_and_dump_follow_the_canonical_order_of_the_credit(credit):
    expected = canonical_order(credit_events(credit))
    run = AnalysisRun(report={}, credit=credit)
    assert list(run.events) == expected
    reference = io.StringIO()
    eventlog_reference.write_event_log(expected, reference)
    sink = io.StringIO()
    write_event_log(run.events, sink)
    assert sink.getvalue() == reference.getvalue()
    assert_reads_back(sink.getvalue(), expected)


def long_log_credit() -> list[Credit]:
    """Credit of a few thousand lines over many writes: engineers sit in
    several credits of one instant, and two blocks are longer than
    ``WRITE_BYTES`` alone, a meeting's on many files and a commit's on one
    file whose path alone is longer."""
    rng = random.Random(7)
    engineers = [f"dev{n}@x.io" for n in range(8)]
    paths = [f"src/pkg{n % 7}/module_{n:03d}.py" for n in range(60)]
    credit = []
    for t in range(40):
        for n in range(4):
            kind = rng.choice(list(EventKind))
            credit.append(Credit(
                tuple(rng.sample(engineers, rng.randint(1, 5))), f"c{t}-{n}", day_ms(t),
                rng.choice([30.0, 45]) if kind is MEETING else 1.0,
                tuple(rng.sample(paths, rng.randint(1, 10))), kind,
            ))
    wide = tuple(f"src/wide/{n:04d}/" + "w" * 60 + ".py" for n in range(900))
    credit.append(Credit(("dev1@x.io", "dev2@x.io"), "c-wide", day_ms(20), 60.0, wide))
    credit.append(Credit(("dev3@x.io",), "c-long", day_ms(21), 1.0, ("L" * WRITE_BYTES,), COMMIT))
    return credit


def test_writes_cross_chunks_within_the_bound():
    credit = long_log_credit()
    events = list(CanonicalEvents(credit))
    assert len(events) > 4000
    reference = io.StringIO()
    eventlog_reference.write_event_log(events, reference)
    # the blocks of the credit, and a block per event
    for written, blocks_over in ((CanonicalEvents(credit), 3), (iter(events), 1)):
        writes: list[str] = []
        write_event_log(written, SimpleNamespace(write=writes.append))
        assert "".join(writes) == reference.getvalue()
        assert len(writes) > 5
        over = [text for text in writes if len(text) > WRITE_BYTES]
        assert len(over) == blocks_over  # two attendees of the wide meeting, the long path
        for text in over:  # each is one block alone: one instant, kind and engineer
            records = [json.loads(line) for line in text.splitlines()]
            assert len({(r["timestamp_ms"], r["kind"], r["engineer_id"]) for r in records}) == 1


@pytest.mark.parametrize("minutes", [math.nan, math.inf, 0, True])
def test_meeting_credit_with_bad_minutes_is_rejected(minutes):
    with pytest.raises(ValueError, match="finite number > 0 for meeting events"):
        Credit(("a@x.io",), "c1", T, minutes, ("src/a.py",))
    good = Credit(("a@x.io",), "c1", T, 30.0, ("src/a.py",))
    with pytest.raises(ValueError, match="finite number > 0 for meeting events"):
        good._replace(magnitude=minutes)


def test_canonical_events_of_a_generator_are_walked_afresh():
    credit = [
        Credit(("b@x.io", "a@x.io"), "c1", T, 30.0, ("src/a.py",)),
        Credit(("a@x.io",), "c0", 0, 1.0, ("src/a.py",), COMMIT),
    ]
    expected = list(CanonicalEvents(credit))
    assert len(expected) == 3
    events = CanonicalEvents(c for c in credit)
    assert list(events) == expected
    assert list(events) == expected
    assert CanonicalEvents(credit).credit is credit  # a list is not copied


class _Minutes(float):
    def __repr__(self) -> str:
        return f"_Minutes({float(self)!r})"


class _Stamp(int):
    def __repr__(self) -> str:
        return f"_Stamp({int(self)!r})"


def test_number_subclasses_are_written_as_json_writes_them():
    credit = [
        Credit(("a@x.io",), "c1", _Stamp(T), _Minutes(30.0), ("src/a.py",)),
        Credit(("a@x.io",), "c1", _Stamp(T), 1.0, ("src/a.py",), COMMIT),
    ]
    run = AnalysisRun(report={}, credit=credit)
    events = list(run.events)
    reference = io.StringIO()
    eventlog_reference.write_event_log(events, reference)
    assert "_Minutes" not in reference.getvalue() and "_Stamp" not in reference.getvalue()
    for written in (run.events, events):  # the block path, and the per-event path
        sink = io.StringIO()
        write_event_log(written, sink)
        assert sink.getvalue() == reference.getvalue()
        assert read_event_log(io.StringIO(sink.getvalue())) == events


@pytest.mark.parametrize("field", ["timestamp_ms", "magnitude"])
def test_numbers_json_cannot_write_are_rejected(field):
    credit = Credit(("a@x.io",), "c1", T, 30.0, ("src/a.py",))
    message = {"timestamp_ms": r"^timestamp_ms must be an int, got Fraction\(1, 2\)$",
               "magnitude": r"finite number > 0 for meeting events, got Fraction\(1, 2\)$"}[field]
    with pytest.raises(ValueError, match=message):
        credit._replace(**{field: Fraction(1, 2)})
    event = next(iter(CanonicalEvents([credit])))
    with pytest.raises(ValueError, match=message):
        event._replace(**{field: Fraction(1, 2)})
