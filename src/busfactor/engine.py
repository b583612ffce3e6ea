"""Knowledge scoring and bus-factor search.

Turns a contribution event log into per-engineer, per-file authorship scores
and walks the greedy removal order to find how many engineers the project can
lose before less than half of its files retain an author.

Two scoring algorithms live here. The multimodal one blends first authorship,
commits, reviews, and meeting exposure, each exponentially decayed by age.
The baseline is the classic commit-count regression, kept for comparison:

    3.293 + 1.098*FA + 0.164*DL - 0.321*ln(1 + AC)
"""
from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from itertools import chain, islice

from .errors import ClockSkewError, ConfigError, InputDataError
from .inputs import warn
from .model import (
    AlgorithmParams,
    ContributionEvent,
    EventKind,
    MeetingCredit,
    age_days,
    credit_events,
    decay,
)

BASELINE_INTERCEPT = 3.293
BASELINE_FA_WEIGHT = 1.098
BASELINE_DL_WEIGHT = 0.164
BASELINE_AC_WEIGHT = 0.321

ALGORITHMS = ("multimodal", "baseline")


def check_algorithm(name: str) -> str:
    if name not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {name!r}; expected one of {', '.join(ALGORITHMS)}"
        )
    return name


@dataclass
class FileLedger:
    """Event buckets for one file, grouped the way scoring consumes them."""

    first_authorship: tuple[int, str] | None = None  # (timestamp_ms, engineer)
    commits: dict[str, list[int]] = field(default_factory=dict)
    reviews: dict[str, list[int]] = field(default_factory=dict)
    # engineer -> commit ref -> [(timestamp_ms, minutes)]; each ref bucket is
    # capped independently, so exposure to one change saturates at one unit
    meetings: dict[str, dict[str, list[tuple[int, float]]]] = field(default_factory=dict)

    def participants(self) -> list[str]:
        engineers = set(self.commits) | set(self.reviews) | set(self.meetings)
        if self.first_authorship is not None:
            engineers.add(self.first_authorship[1])
        return sorted(engineers)


def build_ledgers(
    events: list[ContributionEvent], credit: Iterable[MeetingCredit] = ()
) -> dict[str, FileLedger]:
    """Group events by file, rejecting duplicate first authorships.

    Meeting ``credit``, in start order, is folded per (engineer, commit):
    one bucket in credit order is shared by every file of the credit. That
    is the bucket each of those files would collect from the credit's
    MEETING events in canonical order.
    """
    ledgers: defaultdict[str, FileLedger] = defaultdict(FileLedger)
    for event in events:
        ledger = ledgers[event.file_path]
        if event.kind is EventKind.FIRST_AUTHORSHIP:
            if ledger.first_authorship is not None:
                raise InputDataError(
                    f"file {event.file_path!r} has more than one first_authorship event"
                )
            ledger.first_authorship = (event.timestamp_ms, event.engineer_id)
        elif event.kind is EventKind.COMMIT:
            ledger.commits.setdefault(event.engineer_id, []).append(event.timestamp_ms)
        elif event.kind is EventKind.REVIEW:
            ledger.reviews.setdefault(event.engineer_id, []).append(event.timestamp_ms)
        else:
            buckets = ledger.meetings.setdefault(event.engineer_id, {})
            buckets.setdefault(event.commit_ref, []).append(
                (event.timestamp_ms, event.magnitude)
            )
    shared: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for c in credit:
        bucket = shared.get((c.engineer_id, c.commit_ref))
        if bucket is None:
            bucket = shared[c.engineer_id, c.commit_ref] = []
            for path in c.file_paths:
                ledgers[path].meetings.setdefault(c.engineer_id, {})[c.commit_ref] = bucket
        bucket.append((c.timestamp_ms, c.magnitude))
    return dict(ledgers)


def _decayed_sum(stamps, as_of_ms: int, decay_days: float) -> float:
    return sum(decay(age_days(ts, as_of_ms), decay_days) for ts in stamps)


def _meeting_exposure(
    buckets: dict[str, list[tuple[int, float]]],
    as_of_ms: int,
    params: AlgorithmParams,
    capped: dict[int, float],
) -> float:
    """Sum of one engineer's per-commit meeting weights, each capped at one.

    ``capped`` lives for one scoring pass, while every bucket it names is
    held by the ledgers: it maps ``id(bucket)`` to the bucket's capped
    weight, so a bucket that every file of its commit shares is weighed
    once. It stores no objects for the collector to track.
    """
    total = 0.0
    for ref in sorted(buckets):
        bucket = buckets[ref]
        weight = capped.get(id(bucket))
        if weight is None:
            exposure = sum(
                minutes * decay(age_days(ts, as_of_ms), params.decay_days)
                for ts, minutes in bucket
            )
            weight = capped[id(bucket)] = min(1.0, exposure / params.mte_minutes)
        total += weight
    return total


def _score_file_multimodal(
    ledger: FileLedger,
    as_of_ms: int,
    params: AlgorithmParams,
    capped: dict[int, float],
) -> dict[str, float]:
    engineers = ledger.participants()
    dl = {
        e: _decayed_sum(ledger.commits.get(e, ()), as_of_ms, params.decay_days)
        for e in engineers
    }
    rv = {
        e: _decayed_sum(ledger.reviews.get(e, ()), as_of_ms, params.decay_days)
        for e in engineers
    }
    dl_total = sum(dl[e] for e in engineers)
    rv_total = sum(rv[e] for e in engineers)

    scores: dict[str, float] = {}
    for e in engineers:
        fa = 0.0
        if ledger.first_authorship is not None and ledger.first_authorship[1] == e:
            fa = decay(age_days(ledger.first_authorship[0], as_of_ms), params.decay_days)
        meetings = 0.0
        buckets = ledger.meetings.get(e)
        if buckets:
            meetings = _meeting_exposure(buckets, as_of_ms, params, capped)
        scores[e] = (
            params.fa_weight * fa
            + params.dl_weight * dl[e]
            + params.rv_weight * rv[e]
            + meetings
            + params.log_dl_weight
            * (math.log1p(dl_total) - math.log1p(dl_total - dl[e]))
            + params.log_rv_weight
            * (math.log1p(rv_total) - math.log1p(rv_total - rv[e]))
        )
    return scores


def doa_multimodal(
    ledger: FileLedger, engineer_id: str, as_of_ms: int, params: AlgorithmParams
) -> float:
    """Decayed multimodal degree of authorship of one engineer on one file.

    An engineer with no events on the file scores exactly 0.0: every own
    term vanishes and the crowd terms cancel.
    """
    return _score_file_multimodal(ledger, as_of_ms, params, {}).get(engineer_id, 0.0)


def doa_baseline(ledger: FileLedger, engineer_id: str) -> float:
    """Commit-count regression score; no decay, reviews and meetings ignored."""
    first_author = (
        ledger.first_authorship[1] if ledger.first_authorship is not None else None
    )
    own = len(ledger.commits.get(engineer_id, ()))
    others = sum(
        len(stamps) for e, stamps in ledger.commits.items() if e != engineer_id
    )
    return (
        BASELINE_INTERCEPT
        + BASELINE_FA_WEIGHT * (1.0 if first_author == engineer_id else 0.0)
        + BASELINE_DL_WEIGHT * own
        - BASELINE_AC_WEIGHT * math.log1p(others)
    )


@dataclass
class DoaTable:
    """Raw scores for every (engineer, file) pair that has any activity."""

    algorithm: str
    raw: dict[tuple[str, str], float]
    file_max: dict[str, float]
    file_engineers: dict[str, tuple[str, ...]]
    engineers: tuple[str, ...]
    files: tuple[str, ...]

    def raw_score(self, engineer_id: str, file_path: str) -> float:
        return self.raw.get((engineer_id, file_path), 0.0)

    def normalized(self, engineer_id: str, file_path: str) -> float:
        peak = self.file_max.get(file_path, 0.0)
        if peak <= 0.0:
            return 0.0
        value = self.raw_score(engineer_id, file_path) / peak
        return min(1.0, max(0.0, value))


def score_table(
    ledgers: dict[str, FileLedger],
    as_of_ms: int,
    params: AlgorithmParams,
    algorithm: str = "multimodal",
) -> DoaTable:
    check_algorithm(algorithm)
    raw: dict[tuple[str, str], float] = {}
    file_max: dict[str, float] = {}
    file_engineers: dict[str, tuple[str, ...]] = {}
    capped: dict[int, float] = {}  # _meeting_exposure's memo
    for path in sorted(ledgers):
        ledger = ledgers[path]
        engineers = ledger.participants()
        if algorithm == "baseline":
            scores = {e: doa_baseline(ledger, e) for e in engineers}
        else:
            scores = _score_file_multimodal(ledger, as_of_ms, params, capped)
        for e in engineers:
            raw[(e, path)] = scores[e]
        file_max[path] = max(scores.values(), default=0.0)
        file_engineers[path] = tuple(engineers)
    return DoaTable(
        algorithm=algorithm,
        raw=raw,
        file_max=file_max,
        file_engineers=file_engineers,
        engineers=tuple(sorted({e for e, _ in raw})),
        files=tuple(sorted(ledgers)),
    )


def authorship(table: DoaTable, params: AlgorithmParams) -> dict[str, tuple[str, ...]]:
    """Authors of each file under the table's algorithm.

    Multimodal authorship needs a raw score at or above the absolute floor
    and a normalized score at or above the relative one. The baseline keeps
    its original strict rule: above the regression intercept and above the
    relative share of the file's top scorer.
    """
    authors: dict[str, tuple[str, ...]] = {}
    for path in table.files:
        peak = table.file_max.get(path, 0.0)
        chosen = []
        for e in table.file_engineers.get(path, ()):
            score = table.raw[(e, path)]
            if table.algorithm == "baseline":
                ok = score > BASELINE_INTERCEPT and score > params.norm_threshold * peak
            else:
                ok = (
                    score >= params.doa_threshold
                    and table.normalized(e, path) >= params.norm_threshold
                )
            if ok:
                chosen.append(e)
        authors[path] = tuple(chosen)
    return authors


@dataclass(frozen=True)
class BusFactorResult:
    algorithm: str
    bus_factor: int
    key_engineers: tuple[str, ...]
    coverage_trace: tuple[float, ...]
    file_count: int
    initially_uncovered: int
    authors: dict[str, tuple[str, ...]]
    warnings: tuple[str, ...] = ()


def _removal_order(
    authors: dict[str, tuple[str, ...]], table: DoaTable
) -> list[str]:
    authored: dict[str, list[str]] = {}
    for path in sorted(authors):
        for e in authors[path]:
            authored.setdefault(e, []).append(path)
    def key(e: str):
        files = authored[e]
        return (-len(files), -sum(table.raw[(e, f)] for f in files), e)
    return sorted(authored, key=key)


def bus_factor(
    table: DoaTable,
    params: AlgorithmParams,
    *,
    authors: dict[str, tuple[str, ...]] | None = None,
) -> BusFactorResult:
    """Greedy abandonment simulation.

    Authorship is frozen up front. Engineers leave one at a time, those
    covering the most files first (total raw score, then id, break ties),
    for as long as at least half the files still have a present author.
    The result counts how many departures the project absorbed before
    coverage fell through the threshold.
    """
    if authors is None:
        authors = authorship(table, params)
    file_count = len(table.files)
    result_warnings: list[str] = []
    if file_count == 0:
        result_warnings.append("no files to analyze; bus factor is 0")
        return BusFactorResult(
            algorithm=table.algorithm,
            bus_factor=0,
            key_engineers=(),
            coverage_trace=(),
            file_count=0,
            initially_uncovered=0,
            authors=dict(authors),
            warnings=tuple(result_warnings),
        )

    order = _removal_order(authors, table)
    files_of: dict[str, list[str]] = {e: [] for e in order}
    live_authors: dict[str, int] = {}
    for path, engineers in authors.items():
        live_authors[path] = len(engineers)
        for e in engineers:
            files_of[e].append(path)

    covered = sum(1 for n in live_authors.values() if n > 0)
    initially_uncovered = file_count - covered
    coverage = covered / file_count
    removed: list[str] = []
    trace: list[float] = []
    for engineer in order:
        if coverage < params.coverage_threshold:
            break
        for path in files_of[engineer]:
            live_authors[path] -= 1
            if live_authors[path] == 0:
                covered -= 1
        coverage = covered / file_count
        removed.append(engineer)
        trace.append(coverage)

    return BusFactorResult(
        algorithm=table.algorithm,
        bus_factor=len(removed),
        key_engineers=tuple(removed),
        coverage_trace=tuple(trace),
        file_count=file_count,
        initially_uncovered=initially_uncovered,
        authors=dict(authors),
        warnings=tuple(result_warnings),
    )


@dataclass(frozen=True)
class Ledgers:
    """Checked ledgers of one event set, with the files and the instant to score."""

    files: dict[str, FileLedger]
    live_files: tuple[str, ...]
    as_of_ms: int


def prepare_ledgers(
    events: list[ContributionEvent],
    live_files=None,
    as_of_ms: int | None = None,
    *,
    credit: Sequence[MeetingCredit] = (),
) -> Ledgers:
    """Check events and meeting credit, then build their ledgers once.

    ``live_files`` is the set of files the project currently contains;
    events must only reference those. When omitted it is inferred from the
    events themselves. ``as_of_ms`` defaults to the newest event or credit
    timestamp. Anything newer than it is a clock-skew error naming one
    event: the first late one in the order given, unless a credit's MEETING
    event sorts before it in canonical order.
    """
    if live_files is None:
        live_files = sorted({e.file_path for e in events})
    else:
        live_files = sorted(set(live_files))
        live = set(live_files)
        for event in events:
            if event.file_path not in live:
                raise InputDataError(
                    f"event references file {event.file_path!r} that is not "
                    f"a live file of the analyzed branch"
                )
    if as_of_ms is None:
        as_of_ms = max(
            chain((e.timestamp_ms for e in events), (c.timestamp_ms for c in credit)),
            default=0,
        )
    late = [
        *islice((e for e in events if e.timestamp_ms > as_of_ms), 1),
        *credit_events(c for c in credit if c.timestamp_ms > as_of_ms),
    ]
    if late:
        event = min(late, key=ContributionEvent.sort_key)
        raise ClockSkewError(
            f"event at {event.timestamp_ms} ({event.kind.value} by "
            f"{event.engineer_id!r} on {event.file_path!r}) is newer than "
            f"the analysis instant {as_of_ms}; pass a later --as-of or fix "
            f"the event timestamps"
        )
    return Ledgers(
        files=build_ledgers(events, credit),
        live_files=tuple(live_files),
        as_of_ms=as_of_ms,
    )


def analyze(
    ledgers: Ledgers,
    params: AlgorithmParams = AlgorithmParams(),
    algorithm: str = "multimodal",
    *,
    warnings: list[str] | None = None,
) -> tuple[DoaTable, BusFactorResult]:
    """Scores and a bus factor for ledgers from ``prepare_ledgers``.

    The ledgers carry their own live files and instant, so several
    algorithms can score one build.
    """
    if not ledgers.files:
        warn(warnings, "event log is empty; every score is 0 and the bus factor is 0")
    table = score_table(ledgers.files, ledgers.as_of_ms, params, algorithm)
    table = replace(table, files=ledgers.live_files)
    result = bus_factor(table, params)
    if warnings is not None:
        warnings.extend(result.warnings)
    return table, result
