import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from busfactor.engine import (
    ALGORITHMS,
    BASELINE_INTERCEPT,
    FileLedger,
    analyze,
    authorship,
    build_ledgers,
    bus_factor,
    prepare_ledgers,
    score_table,
)
from busfactor.errors import ClockSkewError, ConfigError, InputDataError
from busfactor.model import (
    AlgorithmParams,
    ContributionEvent,
    Credit,
    EventKind,
    bucket_credit,
    event_credit,
)

from conftest import day_ms
from greedy_reference import make_table, naive_walk
from order_reference import credit_events
from score_reference import doa_reference

PARAMS = AlgorithmParams()
AS_OF = day_ms(1000)

HALF_LIFE_MS = round(220.0 * math.log(2) * 86_400_000)


def doa(led, engineer, as_of_ms=AS_OF, params=PARAMS, algorithm="multimodal") -> float:
    """The raw score of ``engineer`` on ``led``, scored alone."""
    return score_table({"f": led}, as_of_ms, params, algorithm).raw_score(engineer, "f")


def ledger(fa=None, commits=None, reviews=None, meetings=None) -> FileLedger:
    return FileLedger(
        first_authorship=fa,
        commits={k: list(v) for k, v in (commits or {}).items()},
        reviews={k: list(v) for k, v in (reviews or {}).items()},
        meetings={key: list(entries) for key, entries in (meetings or {}).items()},
    )


class TestMultimodalFormula:
    def test_sole_creator_fresh_commit(self):
        led = ledger(fa=(AS_OF, "a"), commits={"a": [AS_OF]})
        expected = 4.0 + 2.4 * math.log(2)
        assert doa(led, "a", AS_OF, PARAMS) == pytest.approx(expected, abs=1e-9)

    def test_sole_creator_after_one_half_life(self):
        born = AS_OF - HALF_LIFE_MS
        led = ledger(fa=(born, "a"), commits={"a": [born]})
        expected = 3.0 * 0.5 + 0.5 + 2.4 * math.log(1.5)
        assert doa(led, "a", AS_OF, PARAMS) == pytest.approx(expected, abs=1e-9)

    def test_zero_activity_engineer_scores_exactly_zero(self):
        led = ledger(
            fa=(day_ms(0), "a"),
            commits={"a": [day_ms(0), day_ms(5)], "b": [day_ms(3)]},
            reviews={"b": [day_ms(4)]},
            meetings={"c1": [(("a",), day_ms(2), 120.0)]},
        )
        assert doa(led, "ghost", AS_OF, PARAMS) == 0.0

    def test_zero_activity_cancellation_randomized_ledgers(self):
        rng = random.Random(7)
        for _ in range(100):
            engineers = [f"e{i}" for i in range(rng.randint(1, 4))]
            fa = (day_ms(rng.randint(0, 900)), rng.choice(engineers))
            commits = {
                e: [day_ms(rng.randint(0, 1000)) for _ in range(rng.randint(0, 4))]
                for e in engineers
            }
            reviews = {
                e: [day_ms(rng.randint(0, 1000)) for _ in range(rng.randint(0, 3))]
                for e in engineers
            }
            meetings: dict = {}
            for e in engineers:
                for j in range(rng.randint(0, 2)):
                    meetings.setdefault(f"c{j}", []).extend(
                        ((e,), day_ms(rng.randint(0, 1000)), rng.uniform(5, 600))
                        for _ in range(rng.randint(1, 3))
                    )
            led = ledger(fa=fa, commits=commits, reviews=reviews, meetings=meetings)
            assert abs(doa(led, "absent", AS_OF, PARAMS)) <= 1e-9

    def test_review_contribution(self):
        led = ledger(reviews={"r": [AS_OF]})
        expected = 0.5 + 1.2 * math.log(2)
        assert doa(led, "r", AS_OF, PARAMS) == pytest.approx(expected, abs=1e-9)

    def test_crowd_terms_shared_between_channels(self):
        # a committed long ago, b reviewed recently: each sees the other's
        # activity only through the (cancelling) crowd terms
        old = AS_OF - 730 * 86_400_000
        led = ledger(fa=(old, "a"), commits={"a": [old]}, reviews={"b": [AS_OF]})
        d = math.exp(-730 / 220)
        expected_a = 3.0 * d + d + 2.4 * (math.log1p(d) - math.log1p(0.0))
        expected_b = 0.5 + 1.2 * math.log(2)
        assert doa(led, "a", AS_OF, PARAMS) == pytest.approx(expected_a, abs=1e-9)
        assert doa(led, "b", AS_OF, PARAMS) == pytest.approx(expected_b, abs=1e-9)


class TestMeetingTerm:
    def test_long_meeting_saturates_at_one(self):
        led = ledger(meetings={"c1": [(("m",), AS_OF, 600.0)]})
        assert doa(led, "m", AS_OF, PARAMS) == pytest.approx(1.0, abs=1e-12)

    def test_meeting_minutes_decay(self):
        led = ledger(meetings={"c1": [(("m",), AS_OF - HALF_LIFE_MS, 240.0)]})
        assert doa(led, "m", AS_OF, PARAMS) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("mte", [1e-3, 240.0, 1.7e308])
    def test_a_bucket_whose_sum_passes_the_largest_float_weighs_one(self, mte):
        # 2e308 minutes overflow a float sum; the weight is the cap, as it is
        # for the exact sum
        params = AlgorithmParams(mte_minutes=mte)
        led = ledger(meetings={"c1": [(("m",), AS_OF, 1e308), (("m", "n"), AS_OF, 1e308)]})
        for engineer in ("m", "n"):
            expected = doa_reference(led, engineer, AS_OF, params)
            assert doa(led, engineer, AS_OF, params) == expected
        assert doa_reference(led, "m", AS_OF, params) == 1.0
        assert score_table({"f": led}, AS_OF, params).raw[("m", "f")] == 1.0

    def test_each_commit_bucket_caps_independently(self):
        led = ledger(meetings={"c1": [(("m",), AS_OF, 600.0)], "c2": [(("m",), AS_OF, 600.0)]})
        assert doa(led, "m", AS_OF, PARAMS) == pytest.approx(2.0, abs=1e-12)

    def test_credit_folds_into_one_list_per_commit(self):
        files = ("a.txt", "b.txt")
        credit = [
            Credit(("m",), "c1", AS_OF - 5, 60.0, files),
            Credit(("m", "n"), "c1", AS_OF, 45.0, files),
            Credit(("n",), "c1", AS_OF, 30.0, files),
        ]
        ledgers = build_ledgers(credit)
        entries = ledgers["a.txt"].meetings["c1"]
        # one entry per credit, in credit order, which emit_meeting_events
        # gives in start order
        assert entries == [
            (("m",), AS_OF - 5, 60.0), (("m", "n"), AS_OF, 45.0), (("n",), AS_OF, 30.0),
        ]
        assert ledgers["b.txt"].meetings == {"c1": entries}

    def test_credit_of_one_commit_naming_other_files_joins_the_bucket_of_each(self):
        credit = [
            Credit(("m",), "c1", 0, 120.0, ("a.txt",)),
            Credit(("n",), "c1", 0, 60.0, ("a.txt", "b.txt")),
            Credit(("o",), "c1", 0, 30.0, ("c.txt",)),
        ]
        ledgers = build_ledgers(credit)
        assert ledgers["a.txt"].meetings == {"c1": [(("m",), 0, 120.0), (("n",), 0, 60.0)]}
        assert ledgers["b.txt"].meetings == {"c1": [(("n",), 0, 60.0)]}
        assert ledgers["c.txt"].meetings == {"c1": [(("o",), 0, 30.0)]}
        # equal files in another tuple are the same files, and share one list
        same = Credit(("n",), "c1", 0, 60.0, tuple(["a.txt"]))
        assert same.file_paths is not credit[0].file_paths
        ledgers = build_ledgers([credit[0], same])
        assert ledgers["a.txt"].meetings == {"c1": [(("m",), 0, 120.0), (("n",), 0, 60.0)]}

    def test_meeting_credit_naming_its_files_in_a_list_scores_like_a_tuple(self):
        listed = [
            Credit(("m", "n"), "c1", AS_OF, 60.0, ["a.txt", "b.txt"]),
            Credit(("n",), "c1", AS_OF, 45.0, ["a.txt", "b.txt"]),
        ]
        ledgers = build_ledgers(listed)
        tupled = build_ledgers([c._replace(file_paths=tuple(c.file_paths)) for c in listed])
        assert ledgers == tupled
        assert score_table(ledgers, AS_OF, PARAMS).raw == score_table(tupled, AS_OF, PARAMS).raw

    def test_a_file_named_twice_by_meeting_credit_counts_twice(self):
        credit = [Credit(("m",), "c1", AS_OF, 100.0, ("a.txt", "b.txt", "a.txt"))]
        ledgers = build_ledgers(credit)
        assert ledgers["a.txt"].meetings == {"c1": [(("m",), AS_OF, 100.0)] * 2}
        assert ledgers["b.txt"].meetings == {"c1": [(("m",), AS_OF, 100.0)]}
        spelled = build_ledgers(event_credit(credit_events(credit)))
        assert score_table(ledgers, AS_OF, PARAMS).raw == score_table(spelled, AS_OF, PARAMS).raw

    @pytest.mark.parametrize(
        "minutes", [-60.0, 0.0, math.nan, math.inf, True, 10**400, 10**5000],
        ids=["negative", "zero", "nan", "inf", "bool", "past-float", "past-str-limit"],
    )
    def test_credit_minutes_meet_the_meeting_event_rule(self, minutes):
        with pytest.raises(ValueError, match="^magnitude must be a finite number > 0 for meeting"):
            Credit(("m",), "c1", 0, minutes, ("a.txt",))
        with pytest.raises(ValueError):
            ContributionEvent(EventKind.MEETING, "m", "a.txt", 0, magnitude=minutes)

    @pytest.mark.parametrize("minutes", ["60", None], ids=["str", "none"])
    def test_credit_minutes_that_are_not_numbers_are_one_line_errors(self, minutes):
        message = rf"^magnitude must be a finite number > 0 for meeting events, got {minutes!r}$"
        with pytest.raises(ValueError, match=message):
            Credit(("m",), "c1", 0, minutes, ("a.txt",))
        with pytest.raises(ValueError, match="magnitude must be a finite number > 0"):
            ContributionEvent(EventKind.MEETING, "m", "a.txt", 0, magnitude=minutes)

    def test_attendees_of_one_credit_share_its_entry(self):
        files = ("a.txt", "b.txt")
        credit = [
            Credit(("m", "n"), "c1", AS_OF - 5, 60.0, files),
            Credit(("n",), "c1", AS_OF, 45.0, files),
            Credit(("n", "m"), "c2", AS_OF, 30.0, ("b.txt",)),
        ]
        ledgers = build_ledgers(credit)
        a, b = ledgers["a.txt"].meetings, ledgers["b.txt"].meetings
        assert a == {"c1": [(("m", "n"), AS_OF - 5, 60.0), (("n",), AS_OF, 45.0)]}
        assert b == {"c1": a["c1"], "c2": [(("n", "m"), AS_OF, 30.0)]}
        assert b["c1"][0] is a["c1"][0]
        assert a["c1"][0][0] is credit[0].engineers
        # each attendee scores as if credited alone
        alone = build_ledgers([Credit(("n",), *c[1:]) for c in credit])
        table = score_table(ledgers, AS_OF, PARAMS)
        assert table.raw[("n", "b.txt")] == score_table(alone, AS_OF, PARAMS).raw[("n", "b.txt")]

    def test_plain_meeting_events_and_credit_of_one_commit_share_one_cap(self):
        events = [ContributionEvent(EventKind.MEETING, "m", "a.txt", AS_OF, 200.0, "c1")]
        credit = [*event_credit(events), Credit(("m",), "c1", AS_OF, 200.0, ("a.txt",))]
        ledgers = build_ledgers(credit)
        assert ledgers["a.txt"].meetings == {"c1": [(("m",), AS_OF, 200.0)] * 2}
        # one bucket, capped once: min(1, 400/240), as two events would be
        table = score_table(ledgers, AS_OF, PARAMS)
        assert table.raw[("m", "a.txt")] == 1.0
        assert table.raw == score_table(build_ledgers(event_credit(events * 2)), AS_OF, PARAMS).raw

    def test_file_local_buckets_of_one_commit_scored_apart(self):
        events = [
            ContributionEvent(EventKind.MEETING, "m", "a.txt", AS_OF, 600.0, "c1"),
            ContributionEvent(EventKind.MEETING, "m", "b.txt", AS_OF - HALF_LIFE_MS, 240.0, "c1"),
        ]
        ledgers = build_ledgers(event_credit(events))
        assert ledgers["a.txt"].meetings == {"c1": [(("m",), AS_OF, 600.0)]}
        table = score_table(ledgers, AS_OF, PARAMS)
        assert table.raw[("m", "a.txt")] == pytest.approx(1.0, abs=1e-12)
        assert table.raw[("m", "b.txt")] == pytest.approx(0.5, abs=1e-9)

    def test_a_key_holding_other_entries_in_another_file_is_weighed_again(self):
        ledgers = {
            "a.txt": ledger(meetings={"c1": [(("m",), AS_OF, 600.0)]}),
            "b.txt": ledger(meetings={"c1": [(("m",), AS_OF - HALF_LIFE_MS, 240.0)]}),
        }
        table = score_table(ledgers, AS_OF, PARAMS)
        assert table.raw[("m", "a.txt")] == pytest.approx(1.0, abs=1e-12)
        assert table.raw[("m", "b.txt")] == pytest.approx(0.5, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.floats(min_value=0.1, max_value=10_000),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_single_commit_meeting_credit_never_exceeds_one(self, items):
        led = ledger(meetings={"c1": [(("m",), day_ms(day), minutes) for day, minutes in items]})
        assert doa(led, "m", AS_OF, PARAMS) <= 1.0 + 1e-12


class TestBaselineFormula:
    def test_creator_single_commit(self):
        led = ledger(fa=(day_ms(0), "a"), commits={"a": [day_ms(0)]})
        assert doa(led, "a", algorithm="baseline") == pytest.approx(4.555, abs=1e-9)

    def test_non_creator_without_commits(self):
        led = ledger(fa=(day_ms(0), "a"), reviews={"b": [day_ms(1)]})
        assert doa(led, "b", algorithm="baseline") == pytest.approx(3.293, abs=1e-12)

    def test_non_creator_five_commits_against_ten(self):
        led = ledger(
            fa=(day_ms(0), "a"),
            commits={"a": [day_ms(0)] * 10, "b": [day_ms(1)] * 5},
        )
        expected = 3.293 + 0.164 * 5 - 0.321 * math.log(11)
        assert doa(led, "b", algorithm="baseline") == pytest.approx(expected, abs=1e-9)
        assert doa(led, "b", algorithm="baseline") == pytest.approx(3.343275617431723, abs=1e-9)

    def test_time_plays_no_role(self):
        recent = ledger(fa=(AS_OF, "a"), commits={"a": [AS_OF]})
        ancient = ledger(fa=(day_ms(0), "a"), commits={"a": [day_ms(0)]})
        assert doa(recent, "a", algorithm="baseline") == doa(ancient, "a", algorithm="baseline")

    def test_reviews_and_meetings_ignored(self):
        bare = ledger(commits={"a": [day_ms(0)]})
        noisy = ledger(
            commits={"a": [day_ms(0)]},
            reviews={"a": [day_ms(1)], "b": [day_ms(2)]},
            meetings={"c": [(("a",), day_ms(3), 500.0)]},
        )
        assert doa(bare, "a", algorithm="baseline") == doa(noisy, "a", algorithm="baseline")


engineer_ids = st.sampled_from(["e0", "e1", "e2"])
timestamps = st.integers(min_value=day_ms(0), max_value=AS_OF)
ledger_strategy = st.builds(
    FileLedger,
    first_authorship=st.none() | st.tuples(timestamps, engineer_ids),
    commits=st.dictionaries(engineer_ids, st.lists(timestamps, max_size=4), max_size=3),
    reviews=st.dictionaries(engineer_ids, st.lists(timestamps, max_size=4), max_size=3),
    # commit refs, with attendees to share
    meetings=st.dictionaries(
        st.sampled_from(["c1", "c2", "c3"]),
        st.lists(
            st.tuples(
                st.lists(engineer_ids, min_size=1, max_size=3, unique=True).map(tuple),
                timestamps,
                st.floats(min_value=1, max_value=600),
            ),
            min_size=1,
            max_size=3,
        ),
        max_size=3,
    ),
)


@settings(max_examples=150, deadline=None)
@given(ledger_strategy, timestamps)
def test_one_more_commit_never_hurts_its_author(led, new_ts):
    before_own = doa(led, "e0", AS_OF, PARAMS)
    before_other = doa(led, "e1", AS_OF, PARAMS)
    led.commits.setdefault("e0", []).append(new_ts)
    after_own = doa(led, "e0", AS_OF, PARAMS)
    after_other = doa(led, "e1", AS_OF, PARAMS)
    assert after_own >= before_own - 1e-12
    assert after_other <= before_other + 1e-12


@settings(max_examples=150, deadline=None)
@given(ledger_strategy, st.integers(min_value=0, max_value=100_000))
def test_shifting_all_timestamps_changes_nothing(led, delta_days):
    delta = delta_days * 86_400_000
    shifted = FileLedger(
        first_authorship=(
            None
            if led.first_authorship is None
            else (led.first_authorship[0] + delta, led.first_authorship[1])
        ),
        commits={e: [t + delta for t in ts] for e, ts in led.commits.items()},
        reviews={e: [t + delta for t in ts] for e, ts in led.reviews.items()},
        meetings={
            key: [(attendees, t + delta, m) for attendees, t, m in entries]
            for key, entries in led.meetings.items()
        },
    )
    for engineer in ("e0", "e1", "e2"):
        original = doa(led, engineer, AS_OF, PARAMS)
        moved = doa(shifted, engineer, AS_OF + delta, PARAMS)
        assert math.isclose(original, moved, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(ledger_strategy, st.lists(ledger_strategy, max_size=3))
def test_a_ledger_scores_alone_as_it_does_among_others(led, others):
    # one pass memo serves every file of a table; no file may change another's scores
    ledgers = {"f": led, **{f"g{i}": other for i, other in enumerate(others)}}
    for algorithm in ALGORITHMS:
        alone = score_table({"f": led}, AS_OF, PARAMS, algorithm)
        among = score_table(ledgers, AS_OF, PARAMS, algorithm)
        assert alone.raw == {key: score for key, score in among.raw.items() if key[1] == "f"}
        assert alone.file_max == {"f": among.file_max["f"]}
        assert among.raw_score("nobody", "f") == 0.0


# Weights and decays many orders of magnitude apart, so that a running float
# sum drops a small term against a large one; an engineer with no events of
# a kind has crowd terms that cancel to zero.
far_apart = st.sampled_from([0.0, 1e-12, 0.1, 1.0, 3.0, 2.0**53, 1e16])
exact_params = st.builds(
    AlgorithmParams,
    decay_days=st.sampled_from([1.0, 3.7, 220.0, 1e6]),
    mte_minutes=st.sampled_from([1e-3, 7.0, 240.0]),
    fa_weight=far_apart,
    dl_weight=far_apart,
    rv_weight=far_apart,
    log_dl_weight=far_apart,
    log_rv_weight=far_apart,
)


@settings(max_examples=300, deadline=None)
@given(ledger_strategy, exact_params)
def test_score_is_the_exactly_rounded_sum_of_its_terms(led, params):
    for engineer in ("e0", "e1", "e2"):
        assert doa(led, engineer, AS_OF, params) == doa_reference(
            led, engineer, AS_OF, params
        )



FILES = ("f0", "f1", "f2")
COMMIT_REFS = ("c1", "c2", "c3")
attendee_tuples = st.lists(engineer_ids, max_size=3, unique=True).map(tuple)  # may be empty
meeting_minutes = st.floats(min_value=1, max_value=600)


@st.composite
def events_and_credit(draw):
    """Credit of every kind, some of it the one-engineer, one-file credit of
    events. The meeting credit of a commit names its usual file tuple or
    files of its own, which may overlap it, miss it or repeat a file."""
    files_of = {
        ref: tuple(draw(st.lists(st.sampled_from(FILES), min_size=1, max_size=3, unique=True)))
        for ref in COMMIT_REFS
    }
    credit = draw(st.lists(
        st.builds(
            lambda attendees, ref, ts, minutes, paths: Credit(
                attendees, ref, ts, minutes, files_of[ref] if paths is None else paths
            ),
            attendee_tuples, st.sampled_from(COMMIT_REFS), timestamps, meeting_minutes,
            st.one_of(st.none(), st.lists(st.sampled_from(FILES), max_size=3).map(tuple)),
        ),
        max_size=8,
    ))
    events = draw(st.lists(
        st.builds(
            lambda kind, engineer, path, ts, minutes, ref: ContributionEvent(
                kind, engineer, path, ts, minutes if kind is EventKind.MEETING else 1.0, ref
            ),
            st.sampled_from([EventKind.COMMIT, EventKind.REVIEW, EventKind.MEETING]),
            engineer_ids, st.sampled_from(FILES), timestamps, meeting_minutes,
            st.sampled_from(COMMIT_REFS),
        ),
        max_size=10,
    ))
    credit += draw(st.lists(
        st.builds(
            lambda kind, engineers, ref, ts, paths: Credit(engineers, ref, ts, 1.0, paths, kind),
            st.sampled_from([EventKind.COMMIT, EventKind.REVIEW]), attendee_tuples,
            st.sampled_from(COMMIT_REFS), timestamps,
            st.lists(st.sampled_from(FILES), max_size=3, unique=True).map(tuple),
        ),
        max_size=6,
    ))
    # each file's first authorship is an event or a credit, never both
    first = draw(st.dictionaries(
        st.sampled_from(FILES), st.tuples(engineer_ids, timestamps, st.booleans())
    ))
    for path, (engineer, ts, as_credit) in first.items():
        if as_credit:
            credit.append(Credit((engineer,), "c1", ts, 1.0, (path,), EventKind.FIRST_AUTHORSHIP))
        else:
            events.append(ContributionEvent(EventKind.FIRST_AUTHORSHIP, engineer, path, ts))
    return event_credit(events) + credit


@settings(max_examples=200, deadline=None)
@given(events_and_credit(), st.randoms(use_true_random=False))
def test_credit_scores_like_its_events_in_any_order(credit, rng):
    shuffled = list(credit)
    rng.shuffle(shuffled)
    spelled = [event_credit(credit_events(c)) for c in (credit, shuffled)]
    assert list(credit_events(spelled[0])) == list(credit_events(credit))
    for algorithm in ALGORITHMS:
        table = score_table(build_ledgers(credit), AS_OF, PARAMS, algorithm)
        for other in (shuffled, *spelled):
            scored = score_table(build_ledgers(other), AS_OF, PARAMS, algorithm)
            assert scored.files == table.files
            assert scored.raw == table.raw
            assert scored.file_max == table.file_max


@settings(max_examples=200, deadline=None)
@given(events_and_credit())
def test_credit_other_than_meetings_builds_the_ledgers_of_its_events(credit):
    others = [c for c in credit if c.kind is not EventKind.MEETING]
    assert build_ledgers(others) == build_ledgers(event_credit(credit_events(others)))
    # credit is read once, so a generator loses nothing
    assert build_ledgers(iter(credit)) == build_ledgers(credit)


@st.composite
def shared_bucket_credit(draw):
    """Meeting credit of several commits whose buckets hold one content.

    Each commit draws its entries from a few contents of a small record
    pool, so records repeat within a bucket and contents repeat across
    commits, each time in a new order. A commit's credit names one of two
    file tuples, so the bucket of a file in both joins two groups. Minutes
    far apart make a running sum inexact, and 1e308 overflows a float sum."""
    entry = st.tuples(
        st.lists(engineer_ids, min_size=1, max_size=3, unique=True).map(tuple),
        timestamps,
        st.sampled_from([1e-12, 0.1, 45.0, 2.0**53, 1e308]) | meeting_minutes,
    )
    pool = draw(st.lists(entry, min_size=1, max_size=4))
    contents = draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=1, max_size=4), min_size=1, max_size=2
    ))
    file_tuples = st.lists(st.sampled_from(FILES), min_size=1, max_size=3, unique=True).map(tuple)
    credit = []
    for ref in COMMIT_REFS:
        groups = draw(st.lists(file_tuples, min_size=1, max_size=2))
        for attendees, ts, minutes in draw(st.permutations(draw(st.sampled_from(contents)))):
            credit.append(Credit(attendees, ref, ts, minutes, draw(st.sampled_from(groups))))
        if draw(st.booleans()):
            credit.append(Credit(("e0",), ref, AS_OF, 1.0, groups[0], EventKind.COMMIT))
    return credit


@settings(max_examples=200, deadline=None)
@given(shared_bucket_credit(), exact_params)
def test_buckets_of_one_content_score_as_if_weighed_apart(credit, params):
    ledgers = build_ledgers(credit)
    table = score_table(ledgers, AS_OF, params)
    # every bucket its own list, so no two share a list
    apart = {
        path: FileLedger(led.first_authorship, led.commits, led.reviews,
                         {ref: list(entries) for ref, entries in led.meetings.items()})
        for path, led in ledgers.items()
    }
    assert score_table(apart, AS_OF, params).raw == table.raw
    for (engineer, path), score in table.raw.items():
        assert score == doa_reference(ledgers[path], engineer, AS_OF, params)


@st.composite
def meeting_credit_and_buckets(draw):
    """MEETING credit and meeting buckets over 3 files, 2 refs and 3 people.

    A bucket's entries come as a list or a tuple, and may be none or name
    no attendee; two buckets, or a bucket and credit, may share a file and
    a ref."""
    entry = st.tuples(attendee_tuples, timestamps, meeting_minutes)
    refs = st.sampled_from(COMMIT_REFS[:2])
    paths = st.lists(st.sampled_from(FILES), min_size=1, max_size=3, unique=True).map(tuple)
    credit = [
        Credit(attendees, ref, ts, minutes, files)
        for (attendees, ts, minutes), ref, files in draw(
            st.lists(st.tuples(entry, refs, paths), max_size=4)
        )
    ]
    entries = st.lists(entry, max_size=3)
    buckets = draw(st.lists(st.tuples(refs, paths, entries | entries.map(tuple)), max_size=4))
    return credit, buckets


@settings(max_examples=300, deadline=None)
@given(meeting_credit_and_buckets())
def test_a_bucket_files_what_its_meeting_credit_files(drawn):
    credit, buckets = drawn
    built = build_ledgers(credit, buckets)
    spelled = build_ledgers(credit + list(bucket_credit(buckets)))
    assert built.keys() == spelled.keys()
    # scores, not lists: a kept bucket may hold an entry naming no attendee,
    # which weighs nothing
    for algorithm in ALGORITHMS:
        got, want = (score_table(led, AS_OF, PARAMS, algorithm) for led in (built, spelled))
        assert got.raw == want.raw
        assert got.file_max == want.file_max
        assert got.file_engineers == want.file_engineers


class TestTableAndAuthorship:
    def test_normalized_bounds_and_argmax(self):
        table = make_table({("a", "f"): 4.0, ("b", "f"): 3.1})
        assert table.normalized("a", "f") == 1.0
        assert table.normalized("b", "f") == pytest.approx(0.775)
        assert table.normalized("ghost", "f") == 0.0

    def test_normalized_zero_when_max_not_positive(self):
        table = make_table({("a", "f"): 0.0})
        assert table.normalized("a", "f") == 0.0

    def test_multimodal_thresholds_inclusive(self):
        params = AlgorithmParams()
        both = authorship(make_table({("a", "f"): 4.0, ("b", "f"): 3.1}), params)
        assert both["f"] == ("a", "b")  # 3.1/4.0 = 0.775 >= 0.75
        only_a = authorship(make_table({("a", "f"): 4.0, ("b", "f"): 2.9}), params)
        assert only_a["f"] == ("a",)

    def test_multimodal_absolute_floor(self):
        table = make_table({("a", "f"): 0.9})
        assert authorship(table, AlgorithmParams())["f"] == ()

    def test_baseline_thresholds_strict(self):
        params = AlgorithmParams()
        # review-only participant on a commit-free file scores the bare
        # intercept; the strict > rule keeps them out
        led = ledger(reviews={"b": [day_ms(1)]})
        table = score_table({"f": led}, AS_OF, params, algorithm="baseline")
        assert table.raw_score("b", "f") == BASELINE_INTERCEPT
        assert authorship(table, params)["f"] == ()

        creator = ledger(fa=(day_ms(0), "a"), commits={"a": [day_ms(0)]}, reviews={"b": [day_ms(1)]})
        table = score_table({"f": creator}, AS_OF, params, algorithm="baseline")
        assert authorship(table, params)["f"] == ("a",)

    def test_score_table_skips_missing_pairs(self):
        led = ledger(commits={"a": [AS_OF]})
        table = score_table({"f": led}, AS_OF, PARAMS)
        assert table.raw_score("nobody", "f") == 0.0
        assert table.engineers == ("a",)

    def test_unknown_algorithm_is_config_error(self):
        led = ledger(commits={"a": [AS_OF]})
        with pytest.raises(ConfigError, match="nonsense"):
            score_table({"f": led}, AS_OF, PARAMS, algorithm="nonsense")


class TestGreedyWalk:
    def test_single_owner(self):
        files = [f"f{i}" for i in range(10)]
        raw = {("alice", f): 5.0 for f in files}
        authors = {f: ("alice",) for f in files}
        result = bus_factor(make_table(raw, files), PARAMS, authors=authors)
        assert result.bus_factor == 1
        assert result.key_engineers == ("alice",)
        assert result.coverage_trace == (0.0,)
        assert result.initially_uncovered == 0

    def test_quarter_owners_continue_at_half_coverage(self):
        engineers = ["a", "b", "c", "d"]
        files = [f"f{i:02d}" for i in range(20)]
        raw, authors = {}, {}
        for n, f in enumerate(files):
            owner = engineers[n // 5]
            raw[(owner, f)] = 4.0
            authors[f] = (owner,)
        result = bus_factor(make_table(raw, files), PARAMS, authors=authors)
        assert result.bus_factor == 3
        assert result.key_engineers == ("a", "b", "c")
        assert result.coverage_trace == (0.75, 0.5, 0.25)

    def test_two_half_owners(self):
        files = [f"f{i}" for i in range(10)]
        raw, authors = {}, {}
        for n, f in enumerate(files):
            owner = "a" if n < 5 else "b"
            raw[(owner, f)] = 4.0
            authors[f] = (owner,)
        result = bus_factor(make_table(raw, files), PARAMS, authors=authors)
        assert result.bus_factor == 2
        assert result.key_engineers == ("a", "b")
        assert result.coverage_trace == (0.5, 0.0)

    def test_ties_broken_by_total_raw_then_id(self):
        raw = {("a", "fa"): 2.0, ("b", "fb"): 5.0}
        authors = {"fa": ("a",), "fb": ("b",)}
        result = bus_factor(make_table(raw, ["fa", "fb"]), PARAMS, authors=authors)
        assert result.key_engineers == ("b", "a")

    def test_low_initial_coverage_means_zero(self):
        files = [f"f{i}" for i in range(10)]
        raw = {("a", f): 4.0 for f in files[:4]}
        authors = {f: (("a",) if i < 4 else ()) for i, f in enumerate(files)}
        result = bus_factor(make_table(raw, files), PARAMS, authors=authors)
        assert result.bus_factor == 0
        assert result.key_engineers == ()
        assert result.coverage_trace == ()
        assert result.initially_uncovered == 6

    def test_no_files_warns(self):
        result = bus_factor(make_table({}, []), PARAMS)
        assert result.bus_factor == 0
        assert result.warnings

    def test_custom_coverage_threshold(self):
        engineers = ["a", "b", "c", "d"]
        files = [f"f{i:02d}" for i in range(20)]
        raw, authors = {}, {}
        for n, f in enumerate(files):
            owner = engineers[n // 5]
            raw[(owner, f)] = 4.0
            authors[f] = (owner,)
        params = AlgorithmParams(coverage_threshold=0.75)
        result = bus_factor(make_table(raw, files), params, authors=authors)
        assert result.bus_factor == 2

    def test_trace_non_increasing_and_length_matches(self):
        rng = random.Random(3)
        for _ in range(50):
            engineers = [f"e{i}" for i in range(rng.randint(1, 6))]
            files = [f"f{i:02d}" for i in range(rng.randint(1, 20))]
            raw, authors = {}, {}
            for f in files:
                owners = tuple(sorted(rng.sample(engineers, rng.randint(0, len(engineers)))))
                authors[f] = owners
                for e in owners:
                    raw[(e, f)] = rng.uniform(1, 9)
            result = bus_factor(make_table(raw, files), PARAMS, authors=authors)
            assert all(
                earlier >= later
                for earlier, later in zip(result.coverage_trace, result.coverage_trace[1:])
            )
            assert result.bus_factor == len(result.key_engineers)
            assert len(set(result.key_engineers)) == len(result.key_engineers)

    def test_matches_naive_reference_on_200_instances(self):
        rng = random.Random(42)
        started = time.monotonic()
        for _ in range(200):
            engineers = [f"e{i}" for i in range(rng.randint(1, 6))]
            files = [f"f{i:02d}" for i in range(rng.randint(1, 20))]
            raw, authors = {}, {}
            for f in files:
                owners = tuple(sorted(rng.sample(engineers, rng.randint(0, len(engineers)))))
                authors[f] = owners
                for e in owners:
                    raw[(e, f)] = round(rng.uniform(1.0, 8.0), 3)
            result = bus_factor(make_table(raw, files), PARAMS, authors=authors)
            removed, trace = naive_walk(authors, raw, len(files), 0.5)
            assert list(result.key_engineers) == removed
            assert list(result.coverage_trace) == trace
            assert result.bus_factor == len(removed)
        assert time.monotonic() - started < 10


class TestAnalyze:
    def test_empty_event_log(self):
        warnings: list[str] = []
        table, result = analyze(prepare_ledgers([], ["a.txt"]), warnings=warnings)
        assert result.bus_factor == 0
        assert result.file_count == 1
        assert table.files == ("a.txt",)
        assert any("empty" in w for w in warnings)

    def test_event_for_dead_file_rejected(self):
        events = [ContributionEvent(EventKind.COMMIT, "a", "ghost.txt", day_ms(0))]
        with pytest.raises(InputDataError, match="ghost.txt"):
            prepare_ledgers(event_credit(events), ["real.txt"])

    def test_event_newer_than_as_of_is_clock_skew(self):
        events = [ContributionEvent(EventKind.COMMIT, "a", "f.txt", day_ms(10))]
        with pytest.raises(ClockSkewError, match="as-of|as_of|instant"):
            prepare_ledgers(event_credit(events), ["f.txt"], day_ms(5))

    @pytest.mark.parametrize("as_of_ms", [math.nan, "5", True], ids=["nan", "str", "bool"])
    def test_as_of_must_be_an_int(self, as_of_ms):
        credit = [Credit(("a",), "c1", 0, 1.0, ("f.txt",), EventKind.COMMIT)]
        with pytest.raises(InputDataError, match=f"^as_of_ms must be an int, got {as_of_ms!r}$"):
            prepare_ledgers(credit, None, as_of_ms)

    def test_as_of_defaults_to_newest_event(self):
        events = [
            ContributionEvent(EventKind.FIRST_AUTHORSHIP, "a", "f.txt", day_ms(0)),
            ContributionEvent(EventKind.COMMIT, "a", "f.txt", day_ms(0)),
        ]
        table, _ = analyze(prepare_ledgers(event_credit(events), ["f.txt"]))
        assert table.raw_score("a", "f.txt") == pytest.approx(4.0 + 2.4 * math.log(2), abs=1e-9)

    def test_duplicate_first_authorship_rejected(self):
        events = [
            ContributionEvent(EventKind.FIRST_AUTHORSHIP, "a", "f.txt", day_ms(0)),
            ContributionEvent(EventKind.FIRST_AUTHORSHIP, "b", "f.txt", day_ms(1)),
        ]
        with pytest.raises(InputDataError, match="first_authorship"):
            prepare_ledgers(event_credit(events), ["f.txt"])

    def test_live_files_without_events_count_in_denominator(self):
        events = [
            ContributionEvent(EventKind.FIRST_AUTHORSHIP, "a", "f.txt", day_ms(0)),
            ContributionEvent(EventKind.COMMIT, "a", "f.txt", day_ms(0)),
        ]
        table, result = analyze(prepare_ledgers(event_credit(events), ["f.txt", "silent.txt"]))
        assert result.file_count == 2
        assert result.initially_uncovered == 1
        # initial coverage 0.5 meets the threshold, so the walk removes a
        assert result.bus_factor == 1
        assert result.key_engineers == ("a",)
        assert result.coverage_trace == (0.0,)

    def test_credit_of_an_unknown_kind_rejected(self):
        # a str enum equals its value, so "meeting" would pass for EventKind.MEETING
        with pytest.raises(ValueError, match=r"^kind must be an EventKind, got 'meeting'$"):
            Credit(("m",), "c7", 0, 60.0, ("a.txt",), "meeting")

    def test_first_authorship_credit_of_two_engineers_rejected(self):
        credit = [Credit(("a", "b"), "c1", 0, 1.0, ("f.txt",), EventKind.FIRST_AUTHORSHIP)]
        with pytest.raises(InputDataError, match="'f.txt' has more than one first_authorship"):
            prepare_ledgers(credit, ["f.txt"])

    def test_credit_for_dead_file_rejected(self):
        credit = [Credit(("m",), "c", 0, 60.0, ("ghost.txt",))]
        with pytest.raises(InputDataError, match="'ghost.txt' that is not a live file"):
            prepare_ledgers(credit, ["real.txt"], 10)

    def test_inferred_live_files_include_files_named_only_by_credit(self):
        events = [ContributionEvent(EventKind.COMMIT, "a", "a.txt", day_ms(0))]
        credit = [Credit(("m",), "c", 0, 60.0, ("b.txt",))]
        ledgers = prepare_ledgers(event_credit(events) + credit)
        assert ledgers.live_files == ("a.txt", "b.txt")

    def test_smallest_stray_file_is_named(self):
        events = [
            ContributionEvent(EventKind.COMMIT, "a", path, day_ms(0))
            for path in ("z.txt", "a.txt", "live.txt")
        ]
        with pytest.raises(InputDataError, match="'a.txt' that is not a live file"):
            prepare_ledgers(event_credit(events), ["live.txt"])


def test_clock_skew_names_the_earliest_late_event_in_canonical_order():
    events = [
        ContributionEvent(EventKind.COMMIT, "a", "f.txt", day_ms(10)),
        ContributionEvent(EventKind.COMMIT, "b", "f.txt", day_ms(5)),
        ContributionEvent(EventKind.FIRST_AUTHORSHIP, "a", "f.txt", day_ms(0)),
    ]
    with pytest.raises(ClockSkewError) as excinfo:
        prepare_ledgers(event_credit(events), None, day_ms(1))
    assert str(excinfo.value).startswith(f"event at {day_ms(5)} (commit by 'b' on 'f.txt')")


def test_a_late_bucket_entry_is_named_in_canonical_order_with_late_credit():
    bucket = ("c1", ("a.txt",), [(("m",), day_ms(0), 30.0), (("m", "n"), day_ms(3), 20.0)])
    review = Credit(("r",), "c1", day_ms(4), 1.0, ("a.txt",), EventKind.REVIEW)
    commit = Credit(("z",), "c2", day_ms(3), 1.0, ("b.txt",), EventKind.COMMIT)
    with pytest.raises(ClockSkewError) as excinfo:
        prepare_ledgers([review, commit], None, day_ms(1), meetings=[bucket])
    # the commit and the meeting tie on the timestamp, and commits rank first
    assert str(excinfo.value).startswith(f"event at {day_ms(3)} (commit by 'z' on 'b.txt')")
    on_time = commit._replace(timestamp_ms=day_ms(1))
    with pytest.raises(ClockSkewError) as excinfo:
        prepare_ledgers([review, on_time], None, day_ms(1), meetings=[bucket])
    assert str(excinfo.value).startswith(f"event at {day_ms(3)} (meeting by 'm' on 'a.txt')")


def test_credit_read_once_is_checked_like_its_list():
    credit = [
        Credit(("a",), "c1", day_ms(10), 1.0, ("f.txt",), EventKind.COMMIT),
        Credit(("a",), "c0", 0, 1.0, ("f.txt",), EventKind.FIRST_AUTHORSHIP),
    ]
    ledgers = prepare_ledgers(iter(credit))
    assert ledgers == prepare_ledgers(credit)
    assert ledgers.as_of_ms == day_ms(10)
    assert analyze(ledgers)[1] == analyze(prepare_ledgers(credit))[1]
    late = f"^event at {day_ms(10)} \\(commit by 'a' on 'f.txt'\\) is newer than the analysis instant 5;"
    for passed in (credit, iter(credit), tuple(credit)):
        with pytest.raises(ClockSkewError, match=late):
            prepare_ledgers(passed, None, 5)


def test_buckets_read_once_are_checked_like_their_list():
    credit = [Credit(("a",), "c0", 0, 1.0, ("f.txt",), EventKind.FIRST_AUTHORSHIP)]
    buckets = [("c1", ("f.txt",), [(("a", "b"), 500, 30.0)])]
    expected = prepare_ledgers(credit, None, None, buckets)
    assert expected.as_of_ms == 500
    late = "^event at 500 \\(meeting by 'a' on 'f.txt'\\) is newer than the analysis instant 100;"
    for passed in (buckets, tuple(buckets), iter(buckets)):
        assert prepare_ledgers(credit, None, None, passed) == expected
    for passed in (buckets, tuple(buckets), iter(buckets)):
        with pytest.raises(ClockSkewError, match=late):
            prepare_ledgers(credit, None, 100, passed)
