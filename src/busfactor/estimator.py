"""Estimator-style front end to the scoring engine.

Follows the fit/predict/transform conventions: constructor arguments are
stored verbatim and only inspected inside :meth:`fit`, fitted state lives in
trailing-underscore attributes, and ``get_params``/``set_params`` make the
object cloneable by tools that expect that protocol.
"""
from __future__ import annotations

import inspect

from .engine import analyze, checked_as_of, prepare_ledgers
from .errors import InputDataError
from .eventlog import events_from_records
from .model import AlgorithmParams, collector_paused, event_credit, parse_instant


class BusFactorEstimator:
    """Estimate a project's bus factor from contribution events.

    Parameters mirror the scoring algorithm: decay scale, channel weights,
    authorship thresholds, and the coverage bar for the abandonment walk.
    ``as_of`` fixes the analysis instant (epoch milliseconds or an ISO-8601
    string); by default the newest event timestamp is used.

    >>> est = BusFactorEstimator().fit(events)
    >>> est.bus_factor_
    3
    """

    def __init__(
        self,
        algorithm: str = "multimodal",
        decay_days: float = AlgorithmParams.decay_days,
        mte_minutes: float = AlgorithmParams.mte_minutes,
        fa_weight: float = AlgorithmParams.fa_weight,
        dl_weight: float = AlgorithmParams.dl_weight,
        rv_weight: float = AlgorithmParams.rv_weight,
        log_dl_weight: float = AlgorithmParams.log_dl_weight,
        log_rv_weight: float = AlgorithmParams.log_rv_weight,
        doa_threshold: float = AlgorithmParams.doa_threshold,
        norm_threshold: float = AlgorithmParams.norm_threshold,
        coverage_threshold: float = AlgorithmParams.coverage_threshold,
        meeting_window_days: int = AlgorithmParams.meeting_window_days,
        meeting_exclude_keywords=AlgorithmParams.meeting_exclude_keywords,
        as_of=None,
    ):
        self.algorithm = algorithm
        self.decay_days = decay_days
        self.mte_minutes = mte_minutes
        self.fa_weight = fa_weight
        self.dl_weight = dl_weight
        self.rv_weight = rv_weight
        self.log_dl_weight = log_dl_weight
        self.log_rv_weight = log_rv_weight
        self.doa_threshold = doa_threshold
        self.norm_threshold = norm_threshold
        self.coverage_threshold = coverage_threshold
        self.meeting_window_days = meeting_window_days
        self.meeting_exclude_keywords = meeting_exclude_keywords
        self.as_of = as_of

    @classmethod
    def _param_defaults(cls) -> dict:
        """Each constructor parameter's name and default, in signature order."""
        parameters = inspect.signature(cls.__init__).parameters
        return {name: p.default for name, p in parameters.items() if name != "self"}

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_defaults()}

    def set_params(self, **params):
        valid = self._param_defaults()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for estimator "
                    f"{type(self).__name__}; valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def _algorithm_params(self) -> AlgorithmParams:
        return AlgorithmParams(**{n: getattr(self, n) for n in AlgorithmParams.field_names()})

    def _resolve_as_of(self) -> int | None:
        """``as_of`` as epoch milliseconds, an ISO-8601 string parsed."""
        if not isinstance(self.as_of, str):
            return checked_as_of(self.as_of, "as_of")
        try:
            return parse_instant(self.as_of)
        except ValueError as exc:
            raise InputDataError(f"as_of: {exc}") from None

    def fit(self, X, y=None, *, live_files=None):
        """Score the events and run the abandonment walk.

        ``X`` is a collection of contribution events: ready-made events or
        mapping records, which go through the event-log schema, so they need
        all six ``eventlog.FIELDS``; errors name a record as ``X[i]``. Each
        event is scored as its one-engineer, one-file ``event_credit``.
        ``live_files`` restricts and completes the file universe; without it
        the universe is whatever the events mention. Conversion and scoring
        run with the collector paused (``collector_paused``).
        """
        if X is None:
            raise InputDataError("expected a collection of contribution events, got None")
        with collector_paused():
            events = events_from_records((f"X[{i}]", item) for i, item in enumerate(X))
            params = self._algorithm_params()
            ledgers = prepare_ledgers(event_credit(events), live_files, self._resolve_as_of())
            table, result = analyze(ledgers, params, self.algorithm)
        self.params_ = params
        self.doa_ = table
        self.result_ = result
        self.bus_factor_ = result.bus_factor
        self.key_engineers_ = list(result.key_engineers)
        self.coverage_trace_ = list(result.coverage_trace)
        self.authors_ = dict(result.authors)
        self.n_files_ = result.file_count
        return self

    def _check_fitted(self):
        if not hasattr(self, "result_"):
            raise InputDataError("estimator is not fitted; call fit(X) first")

    def transform(self, pairs) -> list[list[float]]:
        """Raw and normalized scores for (engineer_id, file_path) pairs."""
        self._check_fitted()
        rows = []
        for engineer_id, file_path in pairs:
            rows.append(
                [
                    self.doa_.raw_score(engineer_id, file_path),
                    self.doa_.normalized(engineer_id, file_path),
                ]
            )
        return rows

    def predict(self, pairs) -> list[bool]:
        """Authorship decision for (engineer_id, file_path) pairs."""
        self._check_fitted()
        return [
            engineer_id in self.authors_.get(file_path, ())
            for engineer_id, file_path in pairs
        ]

    def fit_transform(self, X, y=None, *, live_files=None, pairs=None):
        self.fit(X, live_files=live_files)
        if pairs is None:
            pairs = [
                (engineer_id, file_path)
                for engineer_id in self.doa_.engineers
                for file_path in self.doa_.files
            ]
        return self.transform(pairs)

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name, default in self._param_defaults().items()
            if getattr(self, name) != default
        )
        return f"{type(self).__name__}({shown})"
