import copy
import io
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import order_reference
from busfactor.engine import FileLedger
from busfactor.errors import ClockSkewError, ConfigError
from busfactor.eventlog import FIELDS, write_event_log
from busfactor.model import (
    KIND_ORDER,
    MS_PER_DAY,
    AlgorithmParams,
    CanonicalEvents,
    ContributionEvent,
    Credit,
    EventKind,
    age_days,
    canonical_order,
    decay,
    format_instant,
    parse_instant,
)

from conftest import day_ms
from order_reference import SORT_KEY


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


def _tie_heavy_event(kind, engineer_id, file_path, timestamp_ms, minutes, commit_ref):
    magnitude = minutes if kind is EventKind.MEETING else 1.0
    return ContributionEvent(kind, engineer_id, file_path, timestamp_ms, magnitude, commit_ref)


#: pools of events of every kind on 2 engineers, 2 files, 2 timestamps and 2
#: refs, sampled with repeats below; meetings that differ only in minutes tie
#: on the whole order, so only input order tells them apart
EVENT_POOLS = st.lists(
    st.builds(
        _tie_heavy_event, st.sampled_from(EventKind), st.sampled_from(["a", "b"]),
        st.sampled_from(["f", "g"]), st.sampled_from([day_ms(0), day_ms(1)]),
        st.sampled_from([15, 30.0, 45.5]), st.sampled_from(["c1", "c2"]),
    ),
    min_size=1, max_size=6,
)


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

    @given(EVENT_POOLS.flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=20)))
    def test_canonical_order_equals_the_key_sort(self, events):
        ordered = canonical_order(events)
        assert ordered == order_reference.canonical_order(events)
        assert all(type(e) is ContributionEvent for e in ordered)


def _event(kind, timestamp_ms, magnitude):
    return ContributionEvent(kind, "a", "f", timestamp_ms, magnitude, "c1")


def _credit(kind, timestamp_ms, magnitude):
    return Credit(("a",), "c1", timestamp_ms, magnitude, ("f",), kind)


BUILDS = [pytest.param(_event, id="event"), pytest.param(_credit, id="credit")]


class _Stamp(int):
    pass


class _Minutes(float):
    pass


class TestRecordRule:
    """``ContributionEvent`` and ``Credit`` hold kind, timestamp and magnitude to one rule."""

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize(
        "timestamp_ms", ["7", 1.5, math.nan, True, Fraction(1, 2)],
        ids=["str", "float", "nan", "bool", "fraction"],
    )
    def test_timestamps_must_be_ints(self, build, timestamp_ms):
        # an event with the timestamp '7' used to build, and fitting the estimator on it
        # ended in a TypeError traceback
        message = "^" + re.escape(f"timestamp_ms must be an int, got {timestamp_ms!r}") + "$"
        good = build(EventKind.COMMIT, day_ms(0), 1.0)
        fields = {**good._asdict(), "timestamp_ms": timestamp_ms}
        forged = tuple.__new__(type(good), fields.values())  # skips the constructor
        for make in (
            lambda: build(EventKind.COMMIT, timestamp_ms, 1.0),
            lambda: type(good)._make(fields.values()),
            lambda: good._replace(timestamp_ms=timestamp_ms),
            lambda: pickle.loads(pickle.dumps(forged)),
            lambda: copy.copy(forged),
        ):
            with pytest.raises(ValueError, match=message):
                make()

    @pytest.mark.parametrize("build", BUILDS)
    def test_number_subclasses_are_stored_as_plain_numbers(self, build):
        meeting = build(EventKind.MEETING, _Stamp(5), _Minutes(30.5))
        assert type(meeting.timestamp_ms) is int and meeting.timestamp_ms == 5
        assert type(meeting.magnitude) is float and meeting.magnitude == 30.5
        assert type(build(EventKind.MEETING, 5, _Stamp(30)).magnitude) is int
        assert type(build(EventKind.COMMIT, 5, 1).magnitude) is float

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("kind", [EventKind.FIRST_AUTHORSHIP, EventKind.COMMIT, EventKind.REVIEW])
    @pytest.mark.parametrize("magnitude", [2.5, 0, math.nan, True, "1", None])
    def test_other_kinds_take_magnitude_one_only(self, build, kind, magnitude):
        # a Credit used to count any of these as 1.0
        with pytest.raises(ValueError, match=f"^magnitude must be 1.0 for {kind.value} events$"):
            build(kind, 0, magnitude)

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("minutes", [Fraction(1, 2), Decimal("30")], ids=["fraction", "decimal"])
    def test_minutes_are_an_int_or_a_float(self, build, minutes):
        with pytest.raises(ValueError, match="^magnitude must be a finite number > 0 for meeting"):
            build(EventKind.MEETING, 0, minutes)

    @pytest.mark.parametrize("kind", [EventKind.FIRST_AUTHORSHIP, EventKind.COMMIT, EventKind.REVIEW])
    def test_an_event_and_its_credit_write_the_same_bytes(self, kind):
        event, credit = _event(kind, 0, 1), _credit(kind, 0, 1)
        assert event.magnitude == credit.magnitude == 1.0
        assert type(event.magnitude) is type(credit.magnitude) is float
        written = []
        for events in ([event], CanonicalEvents([credit])):
            sink = io.StringIO()
            write_event_log(events, sink)
            written.append(sink.getvalue())
        assert written[0] == written[1] and '"magnitude":1.0,' in written[0]


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

    def test_fields_cannot_be_assigned_or_deleted(self):
        p = AlgorithmParams()
        for name in AlgorithmParams.field_names():
            with pytest.raises(AttributeError):
                setattr(p, name, getattr(p, name))
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert p == AlgorithmParams()

    def test_equal_params_are_equal_and_hash_alike(self):
        a, b = AlgorithmParams(decay_days="150"), AlgorithmParams(decay_days=150)
        assert a == b and hash(a) == hash(b)
        assert a != AlgorithmParams() and len({a, b, AlgorithmParams()}) == 2

    def test_replace_returns_a_new_checked_object(self):
        p = AlgorithmParams()
        q = p.replace(decay_days=100, meeting_exclude_keywords=["Retro"])
        assert q is not p and (q.decay_days, q.meeting_exclude_keywords) == (100.0, ("retro",))
        with pytest.raises(ConfigError, match="^decay_days must be > 0$"):
            p.replace(decay_days=0)
        assert p == AlgorithmParams() and p.decay_days == 220.0

    def test_repr_names_every_field(self):
        p = AlgorithmParams()
        shown = ", ".join(f"{name}={getattr(p, name)!r}" for name in AlgorithmParams.field_names())
        assert repr(p) == f"AlgorithmParams({shown})"

    def test_class_attributes_are_the_defaults(self):
        p = AlgorithmParams()
        for name in AlgorithmParams.field_names():
            assert getattr(AlgorithmParams, name) == getattr(p, name), name


def round_trips(record) -> list:
    """``record`` through every pickle protocol, ``copy.copy`` and ``copy.deepcopy``."""
    pickled = [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return [*pickled, copy.copy(record), copy.deepcopy(record)]


def test_params_and_ledgers_survive_pickle_and_copy():
    params = AlgorithmParams(decay_days=150, meeting_exclude_keywords=["Retro"])
    ledger = FileLedger((day_ms(0), "a"), {"a": [day_ms(0)]}, {"b": [day_ms(1)]},
                        {"c1": [(("a", "b"), day_ms(2), 30.0)]})
    for record in (params, ledger):
        for clone in round_trips(record):
            assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)
    for clone in round_trips(params):
        assert hash(clone) == hash(params)
        with pytest.raises(AttributeError):
            clone.decay_days = 1.0
    # copy.replace (3.13+) checks the result as replace does
    replace = getattr(copy, "replace", AlgorithmParams.__replace__)
    assert replace(params, decay_days=100) == params.replace(decay_days=100)
    with pytest.raises(ConfigError, match="^decay_days must be > 0$"):
        replace(params, decay_days=0)
    deep = copy.deepcopy(ledger)
    for name in ("commits", "reviews", "meetings"):
        assert getattr(deep, name) is not getattr(ledger, name)


def test_ms_per_day_constant():
    assert MS_PER_DAY == 86_400_000.0
