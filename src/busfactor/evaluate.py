"""Comparison of predicted bus factors against human ground truth.

Ground truth gives, per project, the bus-factor estimates collected from its
own engineers plus the names they consider key people. Predictions are scored
with the mean absolute error against the averaged estimates and with
micro-averaged precision/recall/F1 over (project, engineer) key-person
decisions pooled across all projects.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import InputDataError
from .inputs import load_json, warn


@dataclass(frozen=True)
class ProjectPrediction:
    name: str
    bus_factor: int
    key_engineers: tuple[str, ...]


@dataclass(frozen=True)
class ProjectTruth:
    name: str
    estimates: tuple[float, ...]
    key_engineers: tuple[str, ...]

    @property
    def mean_estimate(self) -> float:
        return _finite_mean(
            self.estimates, f"truth project {self.name!r}: field 'estimates' has no finite mean"
        )


def _projects(source, what: str) -> Iterator[tuple[int, str, dict, tuple[str, ...]]]:
    """Each project of a ``what`` file: its index, stripped name, entry and key engineers.

    Names must be non-empty strings that differ ignoring case.
    """
    data = load_json(source, what)
    if not isinstance(data, dict) or not isinstance(data.get("projects"), list):
        raise InputDataError(f"{what} file must be an object with a 'projects' array")
    seen = set()
    for i, entry in enumerate(data["projects"]):
        if not isinstance(entry, dict):
            raise InputDataError(f"{what} project #{i} must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name.strip():
            raise InputDataError(f"{what} project #{i}: field 'name' must be a non-empty string")
        name = name.strip()
        if name.lower() in seen:
            raise InputDataError(f"{what} file lists project {name!r} twice")
        seen.add(name.lower())
        engineers = entry.get("key_engineers", [])
        if not isinstance(engineers, list) or not all(isinstance(e, str) for e in engineers):
            raise InputDataError(
                f"{what} project #{i}: field 'key_engineers' must be a list of strings"
            )
        yield i, name, entry, tuple(engineers)


def _finite_mean(values, message: str) -> float:
    """The mean of ``values``; an InputDataError with ``message`` unless it is finite."""
    try:
        mean = math.fsum(values) / len(values)
    except (OverflowError, ValueError, ZeroDivisionError):
        mean = math.inf  # a huge int, a sum past the largest float, inf - inf, no values
    if not math.isfinite(mean):
        raise InputDataError(message)
    return mean


def load_predictions(source) -> list[ProjectPrediction]:
    """Read a predictions file: {"projects": [{name, bus_factor, key_engineers}]}."""
    out = []
    for i, name, entry, key_engineers in _projects(source, "predictions"):
        bus_factor = entry.get("bus_factor")
        if not isinstance(bus_factor, int) or isinstance(bus_factor, bool) or bus_factor < 0:
            raise InputDataError(
                f"predictions project #{i}: field 'bus_factor' must be a non-negative integer"
            )
        if bus_factor > sys.float_info.max:
            raise InputDataError(f"predictions project {name!r}: field 'bus_factor' is too large")
        out.append(ProjectPrediction(name, bus_factor, key_engineers))
    return out


def load_truth(source) -> list[ProjectTruth]:
    """Read a ground-truth file: {"projects": [{name, estimates, key_engineers}]}."""
    out = []
    for i, name, entry, key_engineers in _projects(source, "truth"):
        estimates = entry.get("estimates")
        if (
            not isinstance(estimates, list)
            or not estimates
            or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in estimates
            )
        ):
            raise InputDataError(
                f"truth project #{i}: field 'estimates' must be a non-empty list of numbers"
            )
        # the mean is checked on the values as read: float() overflows on a huge int
        ProjectTruth(name, tuple(estimates), key_engineers).mean_estimate
        out.append(ProjectTruth(name, tuple(float(v) for v in estimates), key_engineers))
    return out


def _norm(label: str) -> str:
    return label.strip().lower()


def evaluate_predictions(
    predictions: list[ProjectPrediction],
    truth: list[ProjectTruth],
    *,
    warnings: list[str] | None = None,
) -> dict:
    """Score predictions against ground truth.

    Projects present only on one side are dropped with a warning; no shared
    project at all is an error. Key-person metrics pool every (project,
    engineer) decision across projects; truth projects that name no key
    engineers are left out of that pooling.
    """
    truth_by_name = {_norm(t.name): t for t in truth}
    matched: list[tuple[ProjectPrediction, ProjectTruth]] = []
    for prediction in predictions:
        ground = truth_by_name.get(_norm(prediction.name))
        if ground is None:
            warn(warnings, f"project {prediction.name!r} has no ground truth; excluded")
            continue
        matched.append((prediction, ground))
    predicted_names = {_norm(p.name) for p in predictions}
    for ground in truth:
        if _norm(ground.name) not in predicted_names:
            warn(warnings, f"ground-truth project {ground.name!r} has no prediction; excluded")
    if not matched:
        raise InputDataError("predictions and ground truth share no projects")

    rows = []
    errors = []
    true_positives = predicted_positives = actual_positives = 0
    for prediction, ground in matched:
        error = abs(prediction.bus_factor - ground.mean_estimate)
        if not math.isfinite(error):
            raise InputDataError(f"project {prediction.name!r}: absolute error is not finite")
        errors.append(error)
        rows.append(
            {
                "name": prediction.name,
                "predicted_bus_factor": prediction.bus_factor,
                "truth_mean": ground.mean_estimate,
                "absolute_error": error,
            }
        )
        if not ground.key_engineers:
            warn(
                warnings,
                f"ground-truth project {ground.name!r} names no key engineers; "
                f"excluded from precision/recall pooling"
            )
            continue
        predicted = {_norm(e) for e in prediction.key_engineers}
        actual = {_norm(e) for e in ground.key_engineers}
        true_positives += len(predicted & actual)
        predicted_positives += len(predicted)
        actual_positives += len(actual)

    precision = true_positives / predicted_positives if predicted_positives else 0.0
    recall = true_positives / actual_positives if actual_positives else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return {
        "project_count": len(matched),
        "mae": _finite_mean(errors, "mean absolute error is not finite"),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "projects": rows,
    }
