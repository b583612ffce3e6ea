import inspect
import math

import pytest

from busfactor import BusFactorEstimator
from busfactor.errors import ClockSkewError, ConfigError, InputDataError
from busfactor.model import AlgorithmParams, ContributionEvent, EventKind

from conftest import day_ms


def quarter_events():
    """Four engineers, five files each, all created the same day.

    Equal scores force every tie-break down to engineer id, so the walk
    removes ann, ben, cyd in that order.
    """
    events = []
    ts = day_ms(0)
    for engineer in ["ann", "ben", "cyd", "dee"]:
        for k in range(5):
            path = f"src/{engineer}_{k}.py"
            events.append(ContributionEvent(EventKind.FIRST_AUTHORSHIP, engineer, path, ts))
            events.append(ContributionEvent(EventKind.COMMIT, engineer, path, ts))
    return events


class TestFit:
    def test_fitted_attributes(self):
        est = BusFactorEstimator().fit(quarter_events())
        assert est.bus_factor_ == 3
        assert est.key_engineers_ == ["ann", "ben", "cyd"]
        assert est.coverage_trace_ == pytest.approx([0.75, 0.5, 0.25])
        assert est.n_files_ == 20
        assert est.result_.algorithm == "multimodal"
        assert set(est.authors_) == {e.file_path for e in quarter_events()}

    def test_none_is_an_input_error(self):
        message = r"^expected a collection of contribution events, got None$"
        with pytest.raises(InputDataError, match=message):
            BusFactorEstimator().fit(None)

    def test_fit_returns_self(self):
        est = BusFactorEstimator()
        assert est.fit(quarter_events()) is est

    def test_accepts_mapping_records(self):
        records = [
            {
                "kind": "first_authorship",
                "engineer_id": "ann",
                "file_path": "a.py",
                "timestamp_ms": day_ms(0),
                "magnitude": 1.0,
                "commit_ref": "c1",
            },
            {
                "kind": "commit",
                "engineer_id": "ann",
                "file_path": "a.py",
                "timestamp_ms": day_ms(0),
                "magnitude": 1.0,
                "commit_ref": "c1",
            },
        ]
        est = BusFactorEstimator().fit(records)
        assert est.bus_factor_ == 1
        assert est.doa_.raw_score("ann", "a.py") == pytest.approx(
            4.0 + 2.4 * math.log(2), abs=1e-9
        )

    def test_bad_record_points_at_position(self):
        records = [{"kind": "commit", "engineer_id": "x"}]
        with pytest.raises(InputDataError, match=r"\[0\]"):
            BusFactorEstimator().fit(records)

    @pytest.mark.parametrize(
        "kind, override",
        [
            ("commit", {"magnitude": True}),
            ("commit", {"commit_ref": None}),
            ("meeting", {"magnitude": "45"}),
        ],
    )
    def test_mapping_records_follow_the_event_log_schema(self, kind, override):
        record = {
            "kind": kind,
            "engineer_id": "ann",
            "file_path": "a.py",
            "timestamp_ms": day_ms(0),
            "magnitude": 1.0,
            "commit_ref": "c1",
            **override,
        }
        with pytest.raises(InputDataError, match=r"X\[0\]"):
            BusFactorEstimator().fit([record])

    def test_baseline_algorithm(self):
        est = BusFactorEstimator(algorithm="baseline").fit(quarter_events())
        assert est.result_.algorithm == "baseline"
        assert est.doa_.raw_score("ann", "src/ann_0.py") == pytest.approx(4.555, abs=1e-9)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="nonsense"):
            BusFactorEstimator(algorithm="nonsense").fit(quarter_events())

    def test_invalid_param_surfaces_at_fit(self):
        est = BusFactorEstimator(coverage_threshold=1.5)
        with pytest.raises(ConfigError, match="coverage_threshold"):
            est.fit(quarter_events())

    def test_live_files_extend_universe(self):
        est = BusFactorEstimator().fit(
            quarter_events(),
            live_files=[e.file_path for e in quarter_events()] + ["docs/guide.md"],
        )
        assert est.n_files_ == 21
        assert est.result_.initially_uncovered == 1


class TestAsOf:
    def test_iso_string(self):
        events = quarter_events()
        est = BusFactorEstimator(as_of="2024-01-04T00:00:00Z").fit(events)
        assert est.bus_factor_ == 3

    def test_epoch_milliseconds(self):
        est = BusFactorEstimator(as_of=day_ms(3)).fit(quarter_events())
        assert est.bus_factor_ == 3

    def test_earlier_than_events_is_clock_skew(self):
        with pytest.raises(ClockSkewError):
            BusFactorEstimator(as_of=day_ms(0) - 1).fit(quarter_events())

    def test_unsupported_type_rejected(self):
        with pytest.raises(InputDataError, match="as_of"):
            BusFactorEstimator(as_of=3.5).fit(quarter_events())


class TestPredictTransform:
    def test_transform_matches_table(self):
        est = BusFactorEstimator().fit(quarter_events())
        pairs = [("ann", "src/ann_0.py"), ("ann", "src/ben_0.py")]
        rows = est.transform(pairs)
        assert rows[0] == [
            est.doa_.raw_score("ann", "src/ann_0.py"),
            1.0,
        ]
        assert rows[1] == [0.0, 0.0]

    def test_predict_authorship(self):
        est = BusFactorEstimator().fit(quarter_events())
        assert est.predict([("ann", "src/ann_0.py"), ("ben", "src/ann_0.py")]) == [
            True,
            False,
        ]

    def test_fit_transform_covers_full_grid(self):
        est = BusFactorEstimator()
        rows = est.fit_transform(quarter_events())
        assert len(rows) == len(est.doa_.engineers) * len(est.doa_.files)

    def test_unfitted_estimator_refuses(self):
        est = BusFactorEstimator()
        with pytest.raises(InputDataError, match="fit"):
            est.predict([("a", "f")])
        with pytest.raises(InputDataError, match="fit"):
            est.transform([("a", "f")])


class TestParamsProtocol:
    def test_get_params_round_trip(self):
        est = BusFactorEstimator(decay_days=100.0, algorithm="baseline")
        params = est.get_params()
        assert params["decay_days"] == 100.0
        assert params["algorithm"] == "baseline"
        clone = BusFactorEstimator(**params)
        assert clone.get_params() == params

    def test_constructor_mirrors_algorithm_params(self):
        parameters = inspect.signature(BusFactorEstimator).parameters
        assert set(parameters) == {"algorithm", "as_of", *AlgorithmParams.field_names()}
        for name in AlgorithmParams.field_names():
            assert parameters[name].default == getattr(AlgorithmParams, name)

    def test_set_params_chains_and_applies(self):
        est = BusFactorEstimator()
        assert est.set_params(decay_days=50.0) is est
        assert est.decay_days == 50.0

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="shrubbery"):
            BusFactorEstimator().set_params(shrubbery=1)

    def test_constructor_stores_arguments_verbatim(self):
        # no validation or coercion may happen before fit
        est = BusFactorEstimator(decay_days="220", coverage_threshold=-3)
        assert est.decay_days == "220"
        assert est.coverage_threshold == -3

    def test_repr_shows_only_non_defaults(self):
        assert repr(BusFactorEstimator()) == "BusFactorEstimator()"
        text = repr(BusFactorEstimator(decay_days=10.0))
        assert "decay_days=10.0" in text
        assert "fa_weight" not in text

    def test_sklearn_clone_if_available(self):
        base = pytest.importorskip("sklearn.base")
        est = BusFactorEstimator(decay_days=42.0)
        cloned = base.clone(est)
        assert cloned is not est
        assert cloned.get_params() == est.get_params()


def test_unparsable_as_of_string_is_an_input_error():
    with pytest.raises(InputDataError, match="^as_of: not an ISO-8601 instant: 'garbage'$"):
        BusFactorEstimator(as_of="garbage").fit(quarter_events())


@pytest.mark.parametrize("text", ["2024-01-01T00:00:00.5Z", "20240101T000000Z", "2024-W01-1"])
def test_as_of_forms_read_only_by_later_interpreters_are_input_errors(text):
    with pytest.raises(InputDataError) as excinfo:
        BusFactorEstimator(as_of=text).fit(quarter_events())
    assert str(excinfo.value) == f"as_of: not an ISO-8601 instant: {text!r}"
