import io
import json
import math

import pytest

from busfactor.collab import (
    MeetingRecord,
    ReviewRecord,
    collect_actors,
    emit_meeting_events,
    emit_review_events,
    filter_meetings,
    filter_reviews,
    parse_meetings,
    parse_reviews,
)
from busfactor.errors import InputDataError
from busfactor.identity import IdentityIndex, RawActor, merge_identities
from busfactor.model import Credit, EventKind, credit_events

from conftest import day_ms


def make_index(*actors):
    return IdentityIndex(merge_identities(list(actors)))


def reviews_json(*entries):
    return io.StringIO(json.dumps(list(entries)))


REVIEW = {
    "id": "R1",
    "reviewers": [{"email": "bob@example.com", "name": "Bob"}],
    "commit_ids": ["c1"],
    "completed_at": day_ms(2),
    "state": "merged",
}

MEETING = {
    "id": "M1",
    "participants": [{"email": "alice@example.com"}, {"email": "carol@example.com"}],
    "start": day_ms(3),
    "duration_minutes": 45,
    "title": "api design sync",
}


class TestParsing:
    def test_reviews_parse(self):
        records = parse_reviews(reviews_json(REVIEW))
        assert records == [
            ReviewRecord(
                id="R1",
                reviewers=(RawActor(name="Bob", email="bob@example.com"),),
                commit_ids=("c1",),
                completed_at_ms=day_ms(2),
                state="merged",
            )
        ]

    def test_meetings_parse(self):
        records = parse_meetings(reviews_json(MEETING))
        assert records[0] == MeetingRecord(
            id="M1",
            participants=(
                RawActor(email="alice@example.com"),
                RawActor(email="carol@example.com"),
            ),
            start_ms=day_ms(3),
            duration_minutes=45.0,
            title="api design sync",
        )

    def test_top_level_must_be_array(self):
        with pytest.raises(InputDataError, match="array"):
            parse_reviews(io.StringIO("{}"))

    def test_invalid_json_rejected(self):
        with pytest.raises(InputDataError, match="valid JSON"):
            parse_reviews(io.StringIO("nope"))

    def test_missing_field_names_entry(self):
        broken = {k: v for k, v in REVIEW.items() if k != "commit_ids"}
        with pytest.raises(InputDataError, match="review #0.*commit_ids"):
            parse_reviews(reviews_json(broken))

    def test_actor_needs_email_or_profile(self):
        broken = dict(REVIEW, reviewers=[{"name": "Ghost"}])
        with pytest.raises(InputDataError, match="email.*profile_ref"):
            parse_reviews(reviews_json(broken))

    def test_actor_name_must_be_a_string(self):
        broken = dict(REVIEW, reviewers=[{"name": 5, "email": "bob@example.com"}])
        message = r"^review #0 reviewer #0: actor field 'name' must be a string$"
        with pytest.raises(InputDataError, match=message):
            parse_reviews(reviews_json(broken))

    def test_meeting_duration_must_be_positive(self):
        broken = dict(MEETING, duration_minutes=0)
        with pytest.raises(InputDataError, match="duration_minutes"):
            parse_meetings(reviews_json(broken))

    # json reads the first three as floats that are not finite; the last is
    # an int too large for a float
    @pytest.mark.parametrize(
        "duration", ["NaN", "Infinity", "1e999", "1" + "0" * 400],
        ids=["nan", "infinity", "overflow", "huge-int"],
    )
    def test_meeting_duration_must_be_finite(self, duration):
        text = json.dumps([MEETING, dict(MEETING, duration_minutes="?")])
        with pytest.raises(InputDataError, match=r"^meeting #1: .*'duration_minutes'.*finite"):
            parse_meetings(io.StringIO(text.replace('"?"', duration)))

    def test_collect_actors_gathers_both_channels(self):
        reviews = parse_reviews(reviews_json(REVIEW))
        meetings = parse_meetings(reviews_json(MEETING))
        emails = {a.email for a in collect_actors(reviews, meetings)}
        assert emails == {"bob@example.com", "alice@example.com", "carol@example.com"}


class TestFilters:
    def test_only_merged_reviews_kept(self):
        entries = [
            dict(REVIEW, id="a", state="merged"),
            dict(REVIEW, id="b", state="MERGED"),
            dict(REVIEW, id="c", state="open"),
            dict(REVIEW, id="d", state="abandoned"),
        ]
        kept = filter_reviews(parse_reviews(reviews_json(*entries)))
        assert [r.id for r in kept] == ["a", "b"]

    def test_meetings_dropped_by_keyword_substring(self):
        entries = [
            dict(MEETING, id="a", title="Weekly Reading Group"),
            dict(MEETING, id="b", title="RANDOM chatter"),
            dict(MEETING, id="c", title="ml seminar series"),
            dict(MEETING, id="d", title="release planning"),
        ]
        kept = filter_meetings(parse_meetings(reviews_json(*entries)))
        assert [m.id for m in kept] == ["d"]

    def test_custom_keywords(self):
        entries = [dict(MEETING, id="a", title="standup"), dict(MEETING, id="b", title="retro")]
        kept = filter_meetings(parse_meetings(reviews_json(*entries)), ("standup",))
        assert [m.id for m in kept] == ["b"]


def commit_credit(author, ref, timestamp_ms, file_paths):
    """The COMMIT credit a history gives commit ``ref``."""
    return Credit((author,), ref, timestamp_ms, 1.0, file_paths, EventKind.COMMIT)


def commit_index():
    return {
        "c1": commit_credit("alice@example.com", "c1", day_ms(0), ("src/a.py", "src/b.py")),
        "c2": commit_credit("bob@example.com", "c2", day_ms(1), ("src/c.py",)),
    }


def spelled_out(credit):
    """The per-file events that credit stands for."""
    return list(credit_events(credit))


class TestReviewEvents:
    def test_one_event_per_reviewer_commit_file(self):
        reviews = parse_reviews(reviews_json(REVIEW))
        index = make_index(RawActor(email="alice@example.com"), RawActor(email="bob@example.com"))
        events = spelled_out(emit_review_events(reviews, commit_index(), index))
        assert [(e.kind, e.engineer_id, e.file_path, e.timestamp_ms, e.commit_ref) for e in events] == [
            (EventKind.REVIEW, "bob@example.com", "src/a.py", day_ms(2), "c1"),
            (EventKind.REVIEW, "bob@example.com", "src/b.py", day_ms(2), "c1"),
        ]

    def test_self_review_excluded(self):
        review = dict(REVIEW, reviewers=[{"email": "alice@example.com"}])
        events = emit_review_events(
            parse_reviews(reviews_json(review)),
            commit_index(),
            make_index(RawActor(email="alice@example.com")),
        )
        assert events == []

    def test_duplicate_reviewer_entries_counted_once(self):
        review = dict(
            REVIEW,
            reviewers=[{"email": "bob@example.com"}, {"email": "BOB@example.com "}],
        )
        events = spelled_out(emit_review_events(
            parse_reviews(reviews_json(review)),
            commit_index(),
            make_index(RawActor(email="bob@example.com")),
        ))
        assert len(events) == 2  # two files, one deduped reviewer

    def test_duplicate_commit_ids_counted_once(self):
        review = dict(REVIEW, commit_ids=["c1", "c1"])
        events = spelled_out(emit_review_events(
            parse_reviews(reviews_json(review)),
            commit_index(),
            make_index(RawActor(email="bob@example.com")),
        ))
        assert len(events) == 2

    def test_unknown_commit_skipped_with_warning(self):
        review = dict(REVIEW, commit_ids=["ghost"])
        warnings: list[str] = []
        events = emit_review_events(
            parse_reviews(reviews_json(review)),
            commit_index(),
            make_index(RawActor(email="bob@example.com")),
            warnings=warnings,
        )
        assert events == []
        assert any("ghost" in w for w in warnings)

    def test_reviewer_resolved_through_profile_ref(self):
        review = dict(REVIEW, reviewers=[{"profile_ref": "u42"}])
        index = make_index(RawActor(email="bob@example.com", profile_ref="u42"))
        events = spelled_out(
            emit_review_events(parse_reviews(reviews_json(review)), commit_index(), index)
        )
        assert {e.engineer_id for e in events} == {"bob@example.com"}


class TestMeetingEvents:
    def test_attendee_author_links_all_participants(self):
        meetings = parse_meetings(reviews_json(MEETING))
        index = make_index(
            RawActor(email="alice@example.com"), RawActor(email="carol@example.com")
        )
        credit = emit_meeting_events(meetings, commit_index(), index)
        # alice authored c1 within the window and attended; the one match
        # credits both attendees for c1, which stands for both of its files
        files = ("src/a.py", "src/b.py")
        attendees = ("alice@example.com", "carol@example.com")
        assert credit == [Credit(attendees, "c1", day_ms(3), 45.0, files)]
        events = spelled_out(credit)
        expected = {
            ("alice@example.com", "src/a.py"),
            ("alice@example.com", "src/b.py"),
            ("carol@example.com", "src/a.py"),
            ("carol@example.com", "src/b.py"),
        }
        assert {(e.engineer_id, e.file_path) for e in events} == expected
        assert all(e.kind is EventKind.MEETING for e in events)
        assert all(e.magnitude == 45.0 for e in events)
        assert all(e.timestamp_ms == day_ms(3) for e in events)
        assert all(e.commit_ref == "c1" for e in events)

    def test_credit_in_meeting_order_carries_the_commits_own_files(self):
        # meeting input order: late, then two early ones that share a start
        meetings = parse_meetings(reviews_json(
            dict(MEETING, id="late", start=day_ms(5)),
            dict(MEETING, id="early-1", start=day_ms(1), duration_minutes=10),
            dict(MEETING, id="early-2", start=day_ms(1), duration_minutes=20,
                 participants=[{"email": "carol@example.com"}, {"email": "alice@example.com"}]),
        ))
        index = commit_index()
        identity = make_index(
            RawActor(email="alice@example.com"), RawActor(email="carol@example.com")
        )
        credit = emit_meeting_events(meetings, index, identity)
        assert [(c.timestamp_ms, c.magnitude, c.engineers) for c in credit] == [
            (day_ms(5), 45.0, ("alice@example.com", "carol@example.com")),
            (day_ms(1), 10.0, ("alice@example.com", "carol@example.com")),
            (day_ms(1), 20.0, ("carol@example.com", "alice@example.com")),
        ]
        assert all(c.file_paths is index[c.commit_ref].file_paths for c in credit)

    def test_one_match_is_one_credit_whatever_the_attendee_count(self):
        people = [{"email": f"p{i}@example.com"} for i in range(6)]
        meetings = parse_meetings(reviews_json(
            dict(MEETING, participants=[{"email": "alice@example.com"}, *people, people[0]]),
        ))
        identity = make_index(*collect_actors([], meetings))
        credit = emit_meeting_events(meetings, commit_index(), identity)
        assert len(credit) == 1  # one match: alice's c1
        assert credit[0].engineers == (
            "alice@example.com", *(p["email"] for p in people)
        )  # deduplicated, in input order
        assert len(spelled_out(credit)) == 7 * 2  # attendees x c1's files

    def test_commit_by_absent_author_not_linked(self):
        meetings = parse_meetings(reviews_json(MEETING))
        index = make_index(
            RawActor(email="alice@example.com"),
            RawActor(email="bob@example.com"),
            RawActor(email="carol@example.com"),
        )
        events = emit_meeting_events(meetings, commit_index(), index)
        assert all(e.commit_ref != "c2" for e in events)  # bob did not attend

    def test_commit_without_live_files_earns_no_credit(self):
        index_with_gone = dict(
            commit_index(),
            c0=commit_credit("alice@example.com", "c0", day_ms(2), ()),
        )
        credit = emit_meeting_events(
            parse_meetings(reviews_json(MEETING)),
            index_with_gone,
            make_index(RawActor(email="alice@example.com"), RawActor(email="carol@example.com")),
        )
        assert {c.commit_ref for c in credit} == {"c1"}

    def test_window_boundary_inclusive(self):
        on_edge = dict(MEETING, start=day_ms(7))  # exactly 7 days after c1
        events = spelled_out(emit_meeting_events(
            parse_meetings(reviews_json(on_edge)),
            commit_index(),
            make_index(RawActor(email="alice@example.com"), RawActor(email="carol@example.com")),
        ))
        assert len(events) == 4

    def test_outside_window_excluded(self):
        late = dict(MEETING, start=day_ms(7) + 1)
        events = emit_meeting_events(
            parse_meetings(reviews_json(late)),
            commit_index(),
            make_index(RawActor(email="alice@example.com"), RawActor(email="carol@example.com")),
        )
        assert events == []

    def test_window_is_symmetric(self):
        before = dict(MEETING, start=day_ms(-6))  # six days before the commit
        events = spelled_out(emit_meeting_events(
            parse_meetings(reviews_json(before)),
            commit_index(),
            make_index(RawActor(email="alice@example.com"), RawActor(email="carol@example.com")),
        ))
        assert len(events) == 4

    def test_window_days_parameter(self):
        far = dict(MEETING, start=day_ms(20))
        events = spelled_out(emit_meeting_events(
            parse_meetings(reviews_json(far)),
            commit_index(),
            make_index(RawActor(email="alice@example.com"), RawActor(email="carol@example.com")),
            window_days=30,
        ))
        assert len(events) == 4


class TestEachRecordCheckedOnce:
    """A review's or meeting's numbers pass the ``Credit`` check once, matched or not,
    and every match carries the checked numbers."""

    @pytest.mark.parametrize("commit_ids", [("c1",), ("ghost",), ()])
    def test_review_with_a_bool_instant_raises_matched_or_not(self, commit_ids):
        bob = RawActor(email="bob@example.com")
        review = ReviewRecord("R1", (bob,), commit_ids, True, "merged")
        with pytest.raises(ValueError, match="timestamp_ms must be an int, got True"):
            emit_review_events([review], commit_index(), make_index(bob))

    @pytest.mark.parametrize("start", [day_ms(3), day_ms(100)])  # one match, and none
    def test_meeting_with_nan_minutes_raises_matched_or_not(self, start):
        alice = RawActor(email="alice@example.com")
        meeting = MeetingRecord("m1", (alice,), start, math.nan, "sync")
        with pytest.raises(ValueError, match="magnitude must be a finite number > 0"):
            emit_meeting_events([meeting], commit_index(), make_index(alice))

    def test_every_match_carries_the_checked_numbers(self):
        class Stamp(int):
            pass

        alice, bob = RawActor(email="alice@example.com"), RawActor(email="bob@example.com")
        index = make_index(alice, bob)
        meeting = MeetingRecord("m1", (alice, bob), Stamp(day_ms(1)), 30, "sync")
        review = ReviewRecord("R1", (alice, bob), ("c1", "c2"), Stamp(day_ms(2)), "merged")
        credit = [
            *emit_meeting_events([meeting], commit_index(), index),
            *emit_review_events([review], commit_index(), index),
        ]
        assert [c.commit_ref for c in credit] == ["c1", "c2", "c1", "c2"]
        assert {type(c.timestamp_ms) for c in credit} == {int}
        assert [c.magnitude for c in credit] == [30, 30, 1.0, 1.0]
        assert type(credit[0].magnitude) is int
