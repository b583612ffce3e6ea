import io
import json

import pytest

from busfactor.errors import InputDataError
from busfactor.evaluate import (
    ProjectPrediction,
    ProjectTruth,
    evaluate_predictions,
    load_predictions,
    load_truth,
)


def pred(name, bus_factor, keys=()):
    return ProjectPrediction(name, bus_factor, tuple(keys))


def truth(name, estimates, keys=()):
    return ProjectTruth(name, tuple(estimates), tuple(keys))


def as_stream(payload) -> io.StringIO:
    return io.StringIO(json.dumps(payload))


class TestLoading:
    def test_predictions_round_trip(self, tmp_path):
        path = tmp_path / "pred.json"
        path.write_text(
            json.dumps(
                {
                    "projects": [
                        {"name": "alpha", "bus_factor": 2, "key_engineers": ["ann", "ben"]}
                    ]
                }
            )
        )
        loaded = load_predictions(path)
        assert loaded == [pred("alpha", 2, ["ann", "ben"])]

    def test_truth_round_trip(self):
        loaded = load_truth(
            as_stream(
                {
                    "projects": [
                        {"name": "alpha", "estimates": [1, 2.5], "key_engineers": ["ann"]}
                    ]
                }
            )
        )
        assert loaded == [truth("alpha", (1.0, 2.5), ["ann"])]
        assert loaded[0].mean_estimate == pytest.approx(1.75)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputDataError, match="cannot read"):
            load_predictions(tmp_path / "nope.json")

    def test_invalid_json(self):
        with pytest.raises(InputDataError, match="not valid JSON"):
            load_truth(io.StringIO("{broken"))

    def test_wrong_shape(self):
        with pytest.raises(InputDataError, match="projects"):
            load_predictions(io.StringIO("[]"))

    def test_blank_name_rejected(self):
        with pytest.raises(InputDataError, match="name"):
            load_predictions(as_stream({"projects": [{"name": "  ", "bus_factor": 1}]}))

    def test_negative_bus_factor_rejected(self):
        with pytest.raises(InputDataError, match="bus_factor"):
            load_predictions(as_stream({"projects": [{"name": "a", "bus_factor": -1}]}))

    def test_boolean_bus_factor_rejected(self):
        with pytest.raises(InputDataError, match="bus_factor"):
            load_predictions(as_stream({"projects": [{"name": "a", "bus_factor": True}]}))

    def test_empty_estimates_rejected(self):
        with pytest.raises(InputDataError, match="estimates"):
            load_truth(as_stream({"projects": [{"name": "a", "estimates": []}]}))

    def test_duplicate_names_rejected_case_insensitively(self):
        payload = {
            "projects": [
                {"name": "Alpha", "bus_factor": 1},
                {"name": "alpha", "bus_factor": 2},
            ]
        }
        with pytest.raises(InputDataError, match="twice"):
            load_predictions(as_stream(payload))

    def test_key_engineers_must_be_strings(self):
        with pytest.raises(InputDataError, match="key_engineers"):
            load_predictions(
                as_stream(
                    {"projects": [{"name": "a", "bus_factor": 1, "key_engineers": [3]}]}
                )
            )


class TestMetrics:
    def test_perfect_predictions(self):
        report = evaluate_predictions(
            [pred("a", 2, ["x", "y"]), pred("b", 1, ["z"])],
            [truth("a", [2, 2], ["x", "y"]), truth("b", [1], ["z"])],
        )
        assert report["mae"] == 0.0
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0
        assert report["f1"] == 1.0
        assert report["project_count"] == 2

    def test_reference_mixture(self):
        # two projects: one spot-on with half-right keys, one off by three
        # with disjoint keys; pooled counts tp=1, predicted=2, actual=2
        warnings: list[str] = []
        report = evaluate_predictions(
            [pred("p1", 4, ["ann", "ben"]), pred("p2", 2, ["cyd"])],
            [truth("p1", [4.0], ["ann", "dee"]), truth("p2", [5.0], [])],
            warnings=warnings,
        )
        assert report["mae"] == pytest.approx(1.5)
        assert report["precision"] == pytest.approx(0.5)
        assert report["recall"] == pytest.approx(0.5)
        assert report["f1"] == pytest.approx(0.5)
        assert any("no key engineers" in w for w in warnings)

    def test_mae_uses_mean_of_estimates(self):
        report = evaluate_predictions(
            [pred("a", 3)],
            [truth("a", [1.0, 2.0, 6.0], ["x"])],
        )
        assert report["mae"] == pytest.approx(0.0)
        assert report["projects"][0]["truth_mean"] == pytest.approx(3.0)

    def test_project_name_matching_is_trimmed_case_insensitive(self):
        report = evaluate_predictions(
            [pred("  Alpha ", 1, ["X"])],
            [truth("alpha", [1.0], ["x"])],
        )
        assert report["project_count"] == 1
        assert report["precision"] == 1.0

    def test_engineer_matching_is_trimmed_case_insensitive(self):
        report = evaluate_predictions(
            [pred("a", 1, [" Ann "])],
            [truth("a", [1.0], ["ann"])],
        )
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0

    def test_one_sided_projects_excluded_with_warning(self):
        warnings: list[str] = []
        report = evaluate_predictions(
            [pred("shared", 1, ["x"]), pred("only-predicted", 9, ["y"])],
            [truth("shared", [1.0], ["x"]), truth("only-truth", [5.0], ["z"])],
            warnings=warnings,
        )
        assert report["project_count"] == 1
        assert report["mae"] == 0.0
        assert any("only-predicted" in w for w in warnings)
        assert any("only-truth" in w for w in warnings)

    def test_no_shared_projects_is_an_error(self):
        with pytest.raises(InputDataError, match="share no projects"):
            evaluate_predictions([pred("a", 1)], [truth("b", [1.0])])

    def test_order_does_not_matter_for_metrics(self):
        predictions = [pred("a", 2, ["x"]), pred("b", 3, ["y", "z"])]
        ground = [truth("a", [1.0], ["x", "q"]), truth("b", [3.0], ["y"])]
        forward = evaluate_predictions(predictions, ground)
        backward = evaluate_predictions(predictions[::-1], ground[::-1])
        for metric in ("mae", "precision", "recall", "f1", "project_count"):
            assert forward[metric] == backward[metric]

    def test_no_predicted_keys_means_zero_precision_and_f1(self):
        report = evaluate_predictions(
            [pred("a", 1, [])],
            [truth("a", [1.0], ["x"])],
        )
        assert report["precision"] == 0.0
        assert report["recall"] == 0.0
        assert report["f1"] == 0.0

    def test_empty_truth_key_lists_leave_pooling_entirely(self):
        # with every truth key list empty there are no pooled decisions at all
        report = evaluate_predictions(
            [pred("a", 1, ["x"])],
            [truth("a", [2.0], [])],
        )
        assert report["precision"] == 0.0
        assert report["recall"] == 0.0
        assert report["f1"] == 0.0
        assert report["mae"] == pytest.approx(1.0)

    def test_per_project_rows(self):
        report = evaluate_predictions(
            [pred("a", 4, ["x"])],
            [truth("a", [2.0, 3.0], ["x"])],
        )
        (row,) = report["projects"]
        assert row == {
            "name": "a",
            "predicted_bus_factor": 4,
            "truth_mean": pytest.approx(2.5),
            "absolute_error": pytest.approx(1.5),
        }


@pytest.mark.parametrize("estimates", [(1e308, 1e308), ()], ids=["sum-overflows", "empty"])
def test_a_library_truth_without_a_finite_mean_is_an_input_error(estimates):
    message = "truth project 'p': field 'estimates' has no finite mean"
    with pytest.raises(InputDataError, match=message):
        evaluate_predictions([pred("p", 1)], [truth("p", estimates)])


def test_an_absolute_error_past_the_largest_float_is_an_input_error():
    # each number is finite, but their difference overflows to infinity
    with pytest.raises(InputDataError, match=r"^project 'p': absolute error is not finite$"):
        evaluate_predictions([ProjectPrediction("p", 10**308, ())], [truth("p", (-1.7e308,))])
