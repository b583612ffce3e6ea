import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from busfactor.engine import (
    BASELINE_INTERCEPT,
    FileLedger,
    analyze,
    authorship,
    build_ledgers,
    bus_factor,
    doa_baseline,
    doa_multimodal,
    prepare_ledgers,
    score_table,
)
from busfactor.errors import ClockSkewError, ConfigError, InputDataError
from busfactor.model import AlgorithmParams, ContributionEvent, EventKind, MeetingCredit

from conftest import day_ms
from greedy_reference import make_table, naive_walk

PARAMS = AlgorithmParams()
AS_OF = day_ms(1000)

HALF_LIFE_MS = round(220.0 * math.log(2) * 86_400_000)


def ledger(fa=None, commits=None, reviews=None, meetings=None) -> FileLedger:
    return FileLedger(
        first_authorship=fa,
        commits={k: list(v) for k, v in (commits or {}).items()},
        reviews={k: list(v) for k, v in (reviews or {}).items()},
        meetings={
            e: {ref: list(items) for ref, items in refs.items()}
            for e, refs in (meetings or {}).items()
        },
    )


class TestMultimodalFormula:
    def test_sole_creator_fresh_commit(self):
        led = ledger(fa=(AS_OF, "a"), commits={"a": [AS_OF]})
        expected = 4.0 + 2.4 * math.log(2)
        assert doa_multimodal(led, "a", AS_OF, PARAMS) == pytest.approx(expected, abs=1e-9)

    def test_sole_creator_after_one_half_life(self):
        born = AS_OF - HALF_LIFE_MS
        led = ledger(fa=(born, "a"), commits={"a": [born]})
        expected = 3.0 * 0.5 + 0.5 + 2.4 * math.log(1.5)
        assert doa_multimodal(led, "a", AS_OF, PARAMS) == pytest.approx(expected, abs=1e-9)

    def test_zero_activity_engineer_scores_exactly_zero(self):
        led = ledger(
            fa=(day_ms(0), "a"),
            commits={"a": [day_ms(0), day_ms(5)], "b": [day_ms(3)]},
            reviews={"b": [day_ms(4)]},
            meetings={"a": {"c1": [(day_ms(2), 120.0)]}},
        )
        assert doa_multimodal(led, "ghost", AS_OF, PARAMS) == 0.0

    def test_zero_activity_cancellation_randomized_ledgers(self):
        rng = random.Random(7)
        for _ in range(100):
            engineers = [f"e{i}" for i in range(rng.randint(1, 4))]
            led = ledger(
                fa=(day_ms(rng.randint(0, 900)), rng.choice(engineers)),
                commits={
                    e: [day_ms(rng.randint(0, 1000)) for _ in range(rng.randint(0, 4))]
                    for e in engineers
                },
                reviews={
                    e: [day_ms(rng.randint(0, 1000)) for _ in range(rng.randint(0, 3))]
                    for e in engineers
                },
                meetings={
                    e: {
                        f"c{j}": [
                            (day_ms(rng.randint(0, 1000)), rng.uniform(5, 600))
                            for _ in range(rng.randint(1, 3))
                        ]
                        for j in range(rng.randint(0, 2))
                    }
                    for e in engineers
                },
            )
            assert abs(doa_multimodal(led, "absent", AS_OF, PARAMS)) <= 1e-9

    def test_review_contribution(self):
        led = ledger(reviews={"r": [AS_OF]})
        expected = 0.5 + 1.2 * math.log(2)
        assert doa_multimodal(led, "r", AS_OF, PARAMS) == pytest.approx(expected, abs=1e-9)

    def test_crowd_terms_shared_between_channels(self):
        # a committed long ago, b reviewed recently: each sees the other's
        # activity only through the (cancelling) crowd terms
        old = AS_OF - 730 * 86_400_000
        led = ledger(fa=(old, "a"), commits={"a": [old]}, reviews={"b": [AS_OF]})
        d = math.exp(-730 / 220)
        expected_a = 3.0 * d + d + 2.4 * (math.log1p(d) - math.log1p(0.0))
        expected_b = 0.5 + 1.2 * math.log(2)
        assert doa_multimodal(led, "a", AS_OF, PARAMS) == pytest.approx(expected_a, abs=1e-9)
        assert doa_multimodal(led, "b", AS_OF, PARAMS) == pytest.approx(expected_b, abs=1e-9)


class TestMeetingTerm:
    def test_long_meeting_saturates_at_one(self):
        led = ledger(meetings={"m": {"c1": [(AS_OF, 600.0)]}})
        assert doa_multimodal(led, "m", AS_OF, PARAMS) == pytest.approx(1.0, abs=1e-12)

    def test_meeting_minutes_decay(self):
        led = ledger(meetings={"m": {"c1": [(AS_OF - HALF_LIFE_MS, 240.0)]}})
        assert doa_multimodal(led, "m", AS_OF, PARAMS) == pytest.approx(0.5, abs=1e-9)

    def test_each_commit_bucket_caps_independently(self):
        led = ledger(
            meetings={"m": {"c1": [(AS_OF, 600.0)], "c2": [(AS_OF, 600.0)]}}
        )
        assert doa_multimodal(led, "m", AS_OF, PARAMS) == pytest.approx(2.0, abs=1e-12)

    def test_credit_folds_into_one_bucket_per_engineer_and_commit(self):
        files = ("a.txt", "b.txt")
        credit = [
            MeetingCredit("m", "c1", AS_OF - 5, 60.0, files),
            MeetingCredit("m", "c1", AS_OF, 45.0, files),
            MeetingCredit("m", "c1", AS_OF, 30.0, files),
        ]
        ledgers = build_ledgers([], credit)
        bucket = ledgers["a.txt"].meetings["m"]["c1"]
        # in credit order, which emit_meeting_events gives in start order
        assert bucket == [(AS_OF - 5, 60.0), (AS_OF, 45.0), (AS_OF, 30.0)]
        assert ledgers["b.txt"].meetings["m"]["c1"] is bucket

    def test_file_local_buckets_of_one_commit_scored_apart(self):
        events = [
            ContributionEvent(EventKind.MEETING, "m", "a.txt", AS_OF, 600.0, "c1"),
            ContributionEvent(EventKind.MEETING, "m", "b.txt", AS_OF - HALF_LIFE_MS, 240.0, "c1"),
        ]
        table = score_table(build_ledgers(events), AS_OF, PARAMS)
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
        led = ledger(
            meetings={"m": {"c1": [(day_ms(day), minutes) for day, minutes in items]}}
        )
        assert doa_multimodal(led, "m", AS_OF, PARAMS) <= 1.0 + 1e-12


class TestBaselineFormula:
    def test_creator_single_commit(self):
        led = ledger(fa=(day_ms(0), "a"), commits={"a": [day_ms(0)]})
        assert doa_baseline(led, "a") == pytest.approx(4.555, abs=1e-9)

    def test_non_creator_without_commits(self):
        led = ledger(fa=(day_ms(0), "a"), reviews={"b": [day_ms(1)]})
        assert doa_baseline(led, "b") == pytest.approx(3.293, abs=1e-12)

    def test_non_creator_five_commits_against_ten(self):
        led = ledger(
            fa=(day_ms(0), "a"),
            commits={"a": [day_ms(0)] * 10, "b": [day_ms(1)] * 5},
        )
        expected = 3.293 + 0.164 * 5 - 0.321 * math.log(11)
        assert doa_baseline(led, "b") == pytest.approx(expected, abs=1e-9)
        assert doa_baseline(led, "b") == pytest.approx(3.343275617431723, abs=1e-9)

    def test_time_plays_no_role(self):
        recent = ledger(fa=(AS_OF, "a"), commits={"a": [AS_OF]})
        ancient = ledger(fa=(day_ms(0), "a"), commits={"a": [day_ms(0)]})
        assert doa_baseline(recent, "a") == doa_baseline(ancient, "a")

    def test_reviews_and_meetings_ignored(self):
        bare = ledger(commits={"a": [day_ms(0)]})
        noisy = ledger(
            commits={"a": [day_ms(0)]},
            reviews={"a": [day_ms(1)], "b": [day_ms(2)]},
            meetings={"a": {"c": [(day_ms(3), 500.0)]}},
        )
        assert doa_baseline(bare, "a") == doa_baseline(noisy, "a")


engineer_ids = st.sampled_from(["e0", "e1", "e2"])
timestamps = st.integers(min_value=day_ms(0), max_value=AS_OF)
ledger_strategy = st.builds(
    FileLedger,
    first_authorship=st.none() | st.tuples(timestamps, engineer_ids),
    commits=st.dictionaries(engineer_ids, st.lists(timestamps, max_size=4), max_size=3),
    reviews=st.dictionaries(engineer_ids, st.lists(timestamps, max_size=4), max_size=3),
    meetings=st.dictionaries(
        engineer_ids,
        st.dictionaries(
            st.sampled_from(["c1", "c2"]),
            st.lists(
                st.tuples(timestamps, st.floats(min_value=1, max_value=600)),
                min_size=1,
                max_size=3,
            ),
            max_size=2,
        ),
        max_size=3,
    ),
)


@settings(max_examples=150, deadline=None)
@given(ledger_strategy, timestamps)
def test_one_more_commit_never_hurts_its_author(led, new_ts):
    before_own = doa_multimodal(led, "e0", AS_OF, PARAMS)
    before_other = doa_multimodal(led, "e1", AS_OF, PARAMS)
    led.commits.setdefault("e0", []).append(new_ts)
    after_own = doa_multimodal(led, "e0", AS_OF, PARAMS)
    after_other = doa_multimodal(led, "e1", AS_OF, PARAMS)
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
            e: {ref: [(t + delta, m) for t, m in items] for ref, items in refs.items()}
            for e, refs in led.meetings.items()
        },
    )
    for engineer in ("e0", "e1", "e2"):
        original = doa_multimodal(led, engineer, AS_OF, PARAMS)
        moved = doa_multimodal(shifted, engineer, AS_OF + delta, PARAMS)
        assert math.isclose(original, moved, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(ledger_strategy)
def test_single_engineer_score_is_the_table_score(led):
    table = score_table({"f": led}, AS_OF, PARAMS)
    for engineer in led.participants():
        assert doa_multimodal(led, engineer, AS_OF, PARAMS) == table.raw[(engineer, "f")]
    assert doa_multimodal(led, "nobody", AS_OF, PARAMS) == 0.0


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
            prepare_ledgers(events, ["real.txt"])

    def test_event_newer_than_as_of_is_clock_skew(self):
        events = [ContributionEvent(EventKind.COMMIT, "a", "f.txt", day_ms(10))]
        with pytest.raises(ClockSkewError, match="as-of|as_of|instant"):
            prepare_ledgers(events, ["f.txt"], day_ms(5))

    def test_as_of_defaults_to_newest_event(self):
        events = [
            ContributionEvent(EventKind.FIRST_AUTHORSHIP, "a", "f.txt", day_ms(0)),
            ContributionEvent(EventKind.COMMIT, "a", "f.txt", day_ms(0)),
        ]
        table, _ = analyze(prepare_ledgers(events, ["f.txt"]))
        assert table.raw_score("a", "f.txt") == pytest.approx(4.0 + 2.4 * math.log(2), abs=1e-9)

    def test_duplicate_first_authorship_rejected(self):
        events = [
            ContributionEvent(EventKind.FIRST_AUTHORSHIP, "a", "f.txt", day_ms(0)),
            ContributionEvent(EventKind.FIRST_AUTHORSHIP, "b", "f.txt", day_ms(1)),
        ]
        with pytest.raises(InputDataError, match="first_authorship"):
            prepare_ledgers(events, ["f.txt"])

    def test_live_files_without_events_count_in_denominator(self):
        events = [
            ContributionEvent(EventKind.FIRST_AUTHORSHIP, "a", "f.txt", day_ms(0)),
            ContributionEvent(EventKind.COMMIT, "a", "f.txt", day_ms(0)),
        ]
        table, result = analyze(prepare_ledgers(events, ["f.txt", "silent.txt"]))
        assert result.file_count == 2
        assert result.initially_uncovered == 1
        # initial coverage 0.5 meets the threshold, so the walk removes a
        assert result.bus_factor == 1
        assert result.key_engineers == ("a",)
        assert result.coverage_trace == (0.0,)
