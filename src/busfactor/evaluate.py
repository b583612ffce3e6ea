"""Comparison of predicted bus factors against human ground truth.

Ground truth gives, per project, the bus-factor estimates collected from its
own engineers plus the names they consider key people. Predictions are scored
with the mean absolute error against the averaged estimates and with
micro-averaged precision/recall/F1 over (project, engineer) key-person
decisions pooled across all projects.
"""
from __future__ import annotations

import math
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
        return math.fsum(self.estimates) / len(self.estimates)


def _load_projects(source, what: str) -> list[dict]:
    data = load_json(source, what)
    if not isinstance(data, dict) or not isinstance(data.get("projects"), list):
        raise InputDataError(f"{what} file must be an object with a 'projects' array")
    for i, entry in enumerate(data["projects"]):
        if not isinstance(entry, dict):
            raise InputDataError(f"{what} project #{i} must be an object")
    return data["projects"]


def _name(entry: dict, i: int, what: str) -> str:
    name = entry.get("name")
    if not isinstance(name, str) or not name.strip():
        raise InputDataError(f"{what} project #{i}: field 'name' must be a non-empty string")
    return name.strip()


def _engineer_list(entry: dict, i: int, what: str) -> tuple[str, ...]:
    raw = entry.get("key_engineers", [])
    if not isinstance(raw, list) or not all(isinstance(e, str) for e in raw):
        raise InputDataError(
            f"{what} project #{i}: field 'key_engineers' must be a list of strings"
        )
    return tuple(raw)


def load_predictions(source) -> list[ProjectPrediction]:
    """Read a predictions file: {"projects": [{name, bus_factor, key_engineers}]}."""
    out = []
    seen = set()
    for i, entry in enumerate(_load_projects(source, "predictions")):
        name = _name(entry, i, "predictions")
        bus_factor = entry.get("bus_factor")
        if not isinstance(bus_factor, int) or isinstance(bus_factor, bool) or bus_factor < 0:
            raise InputDataError(
                f"predictions project #{i}: field 'bus_factor' must be a non-negative integer"
            )
        key = name.lower()
        if key in seen:
            raise InputDataError(f"predictions file lists project {name!r} twice")
        seen.add(key)
        out.append(ProjectPrediction(name, bus_factor, _engineer_list(entry, i, "predictions")))
    return out


def load_truth(source) -> list[ProjectTruth]:
    """Read a ground-truth file: {"projects": [{name, estimates, key_engineers}]}."""
    out = []
    seen = set()
    for i, entry in enumerate(_load_projects(source, "truth")):
        name = _name(entry, i, "truth")
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
        key = name.lower()
        if key in seen:
            raise InputDataError(f"truth file lists project {name!r} twice")
        seen.add(key)
        out.append(
            ProjectTruth(name, tuple(float(v) for v in estimates), _engineer_list(entry, i, "truth"))
        )
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
        "mae": math.fsum(errors) / len(matched),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "projects": rows,
    }
