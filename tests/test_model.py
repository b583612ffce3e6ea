import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from busfactor.errors import ClockSkewError, ConfigError
from busfactor.eventlog import FIELDS
from busfactor.model import (
    KIND_ORDER,
    MS_PER_DAY,
    SORT_KEY,
    AlgorithmParams,
    ContributionEvent,
    EventKind,
    age_days,
    canonical_order,
    decay,
    format_instant,
    parse_instant,
)

from conftest import day_ms


class TestDecay:
    def test_fresh_event_keeps_full_weight(self):
        assert decay(0.0, 220.0) == 1.0

    def test_half_life_is_220_ln2_days(self):
        assert decay(220.0 * math.log(2), 220.0) == pytest.approx(0.5, abs=1e-12)

    def test_negative_age_is_clock_skew(self):
        with pytest.raises(ClockSkewError):
            decay(-0.001, 220.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ConfigError):
            decay(1.0, 0.0)

    @given(st.floats(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=10_000))
    def test_bounded(self, age, scale):
        # extreme age/scale ratios may underflow to exactly 0.0
        value = decay(age, scale)
        assert 0.0 <= value <= 1.0

    @given(
        st.floats(min_value=0, max_value=5_000),
        st.floats(min_value=0.001, max_value=5_000),
    )
    def test_monotonically_decreasing_in_age(self, age, delta):
        assert decay(age + delta, 220.0) <= decay(age, 220.0)


class TestInstants:
    def test_age_in_days_from_milliseconds(self):
        assert age_days(day_ms(0), day_ms(10)) == 10.0
        assert age_days(day_ms(3), day_ms(3)) == 0.0

    def test_parse_utc_z_suffix(self):
        assert parse_instant("2024-01-01T00:00:00Z") == day_ms(0)

    def test_parse_naive_means_utc(self):
        assert parse_instant("2024-01-01T00:00:00") == day_ms(0)

    def test_parse_honors_offsets(self):
        assert parse_instant("2024-01-01T02:00:00+02:00") == day_ms(0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_instant("yesterday-ish")

    def test_format_round_trips(self):
        for text in ("2024-01-01T00:00:00Z", "2024-06-15T12:34:56Z", "2024-06-15T12:34:56.789Z"):
            assert format_instant(parse_instant(text)) == text


class TestContributionEvent:
    def test_meeting_needs_positive_magnitude(self):
        with pytest.raises(ValueError):
            ContributionEvent(EventKind.MEETING, "a", "f", day_ms(0), magnitude=0.0)

    def test_non_meeting_magnitude_fixed_at_one(self):
        with pytest.raises(ValueError):
            ContributionEvent(EventKind.COMMIT, "a", "f", day_ms(0), magnitude=2.0)

    @pytest.mark.parametrize("minutes", [
        float("inf"), float("nan"), True, pytest.param(10**5000, id="past-str-limit"),
    ])
    def test_meeting_magnitude_is_a_finite_number(self, minutes):
        with pytest.raises(ValueError, match="finite number > 0"):
            ContributionEvent(EventKind.MEETING, "a", "f", day_ms(0), magnitude=minutes)

    def test_event_is_in_log_order_and_round_trips(self):
        event = ContributionEvent(EventKind.MEETING, "a", "f", day_ms(1), 30.5, "c1")
        assert tuple(event) == (EventKind.MEETING, "a", "f", day_ms(1), 30.5, "c1")
        assert ContributionEvent._fields == FIELDS
        assert event._asdict() == dict(zip(FIELDS, event))
        assert not hasattr(event, "kind_rank")
        assert SORT_KEY(event) == (day_ms(1), KIND_ORDER[EventKind.MEETING], "a", "f", "c1")
        assert ContributionEvent(*event) == event

    @pytest.mark.parametrize("kind", list(EventKind))
    def test_event_survives_pickle_and_copy(self, kind):
        magnitude = 42.5 if kind is EventKind.MEETING else 1.0
        event = ContributionEvent(kind, "a@x.io", "src/\u00e9.py", day_ms(3), magnitude, "c1")
        clones = [copy.copy(event), copy.deepcopy(event)]
        clones += [
            pickle.loads(pickle.dumps(event, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for clone in clones:
            assert clone == event and type(clone) is ContributionEvent
            assert clone.kind is kind and clone.magnitude == magnitude
            assert hash(clone) == hash(event)
        assert len({event, *clones}) == 1

    def test_replace_and_make_go_through_the_constructor(self):
        commit = ContributionEvent(EventKind.COMMIT, "a", "f", day_ms(1), commit_ref="c1")
        review = commit._replace(kind=EventKind.REVIEW)
        assert review == ContributionEvent(EventKind.REVIEW, "a", "f", day_ms(1), commit_ref="c1")
        assert type(review) is ContributionEvent
        # the review now sorts after a commit at the same instant
        other = ContributionEvent(EventKind.COMMIT, "z", "f", day_ms(1))
        assert canonical_order([review, other]) == [other, review]
        assert ContributionEvent._make(tuple(review)) == review
        assert type(ContributionEvent._make(tuple(review))) is ContributionEvent
        with pytest.raises(ValueError, match="magnitude must be 1.0 for commit events"):
            commit._replace(magnitude=2.0)
        with pytest.raises(ValueError, match="finite number > 0 for meeting events"):
            ContributionEvent._make((EventKind.MEETING, *commit[1:4], -1.0, "c1"))
        with pytest.raises(ValueError, match="unexpected field names"):
            commit._replace(kind_rank=0)
        # a str equal to a kind's value is not a kind
        for kind in ("review", None):
            with pytest.raises(ValueError, match="kind must be an EventKind"):
                commit._replace(kind=kind)
            with pytest.raises(ValueError, match="kind must be an EventKind"):
                ContributionEvent._make((kind, *commit[1:]))
            with pytest.raises(ValueError, match="kind must be an EventKind"):
                ContributionEvent(kind, "a", "f", day_ms(1))

    def test_canonical_order_is_time_kind_engineer_file(self):
        ts = day_ms(1)
        meeting = ContributionEvent(EventKind.MEETING, "a", "f", ts, magnitude=30)
        review = ContributionEvent(EventKind.REVIEW, "a", "f", ts)
        commit = ContributionEvent(EventKind.COMMIT, "z", "f", ts)
        fa = ContributionEvent(EventKind.FIRST_AUTHORSHIP, "z", "f", ts)
        earlier = ContributionEvent(EventKind.MEETING, "z", "f", day_ms(0), magnitude=5)
        # ties with ``meeting`` on the whole key: the two keep their input order
        shorter = ContributionEvent(EventKind.MEETING, "a", "f", ts, magnitude=15)
        ordered = canonical_order([meeting, review, commit, fa, earlier, shorter])
        assert ordered == [earlier, fa, commit, review, meeting, shorter]

    def test_canonical_order_breaks_ties_by_engineer_then_file(self):
        a = ContributionEvent(EventKind.COMMIT, "a", "z.txt", day_ms(0))
        b = ContributionEvent(EventKind.COMMIT, "b", "a.txt", day_ms(0))
        a2 = ContributionEvent(EventKind.COMMIT, "a", "b.txt", day_ms(0))
        assert canonical_order([b, a, a2]) == [a2, a, b]


class TestAlgorithmParams:
    def test_defaults(self):
        p = AlgorithmParams()
        assert p.decay_days == 220.0
        assert p.mte_minutes == 240.0
        assert (p.fa_weight, p.dl_weight, p.rv_weight) == (3.0, 1.0, 0.5)
        assert (p.log_dl_weight, p.log_rv_weight) == (2.4, 1.2)
        assert (p.doa_threshold, p.norm_threshold, p.coverage_threshold) == (1.0, 0.75, 0.5)
        assert p.meeting_window_days == 7
        assert p.meeting_exclude_keywords == ("seminar", "reading", "random")

    def test_numeric_strings_coerced(self):
        p = AlgorithmParams(decay_days="150", meeting_window_days="3")
        assert p.decay_days == 150.0
        assert p.meeting_window_days == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"decay_days": 0},
            {"decay_days": -1},
            {"mte_minutes": 0},
            {"norm_threshold": 0},
            {"norm_threshold": 1.5},
            {"coverage_threshold": 0},
            {"coverage_threshold": 1.0},
            {"fa_weight": -0.1},
            {"meeting_window_days": -1},
            {"decay_days": "soon"},
            {"meeting_exclude_keywords": "standup"},
            {"meeting_exclude_keywords": 5},
            {"meeting_exclude_keywords": [1, None]},
            {"meeting_exclude_keywords": {"standup"}},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            AlgorithmParams(**overrides)

    @pytest.mark.parametrize("window", [7.9, 0.5, True, False, float("inf"), float("nan")])
    def test_meeting_window_days_is_not_truncated(self, window):
        with pytest.raises(ConfigError, match="meeting_window_days must be an integer"):
            AlgorithmParams(meeting_window_days=window)

    # meeting_window_days takes the same values in the test above
    @pytest.mark.parametrize("value", [True, False, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name",
        [n for n in AlgorithmParams.field_names()
         if n not in ("meeting_window_days", "meeting_exclude_keywords")],
    )
    def test_float_fields_reject_bools_and_non_finite_numbers(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number, got "):
            AlgorithmParams(**{name: value})

    def test_integral_float_window_accepted(self):
        p = AlgorithmParams(meeting_window_days=7.0)
        assert p.meeting_window_days == 7 and type(p.meeting_window_days) is int

    def test_replace_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="no_such_knob"):
            AlgorithmParams().replace(no_such_knob=1)

    def test_replace_overrides(self):
        assert AlgorithmParams().replace(decay_days=100).decay_days == 100.0

    def test_keywords_lowercased(self):
        p = AlgorithmParams(meeting_exclude_keywords=["Seminar", "ALL-HANDS"])
        assert p.meeting_exclude_keywords == ("seminar", "all-hands")

    def test_as_dict_is_json_friendly(self):
        d = AlgorithmParams().as_dict()
        assert isinstance(d["meeting_exclude_keywords"], list)
        assert set(d) == set(AlgorithmParams.field_names())


def test_ms_per_day_constant():
    assert MS_PER_DAY == 86_400_000.0
