"""Knowledge scoring and bus-factor search.

Turns contribution credit into per-engineer, per-file authorship scores and
walks the greedy removal order to find how many engineers the project can
lose before less than half of its files retain an author. A file's ledger
keys meeting credit by commit ref: each bucket holds the meeting credit of
one commit that names the file.

Two scoring algorithms live here. The multimodal one blends first authorship,
commits, reviews, and meeting exposure, each exponentially decayed by age.
The baseline is the classic commit-count regression, kept for comparison:

    3.293 + 1.098*FA + 0.164*DL - 0.321*ln(1 + AC)
"""
from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from .errors import ClockSkewError, ConfigError, InputDataError
from .inputs import warn
from .model import (
    AlgorithmParams,
    Credit,
    EventKind,
    age_days,
    canonical_blocks,
    check_meeting_minutes,
    decay,
)

BASELINE_INTERCEPT = 3.293
BASELINE_FA_WEIGHT = 1.098
BASELINE_DL_WEIGHT = 0.164
BASELINE_AC_WEIGHT = 0.321

ALGORITHMS = ("multimodal", "baseline")


@dataclass
class FileLedger:
    """Credit of one file, grouped the way scoring consumes it.

    ``meetings`` maps a commit ref to ``[(attendees, timestamp_ms, minutes)]``,
    one entry per meeting credit of the commit that names the file; each
    attendee's minutes under one ref are capped at one unit of exposure. The
    files that one commit's credit names with one file tuple share one list.
    """

    first_authorship: tuple[int, str] | None = None  # (timestamp_ms, engineer)
    commits: dict[str, list[int]] = field(default_factory=dict)
    reviews: dict[str, list[int]] = field(default_factory=dict)
    meetings: dict[str, list[tuple]] = field(default_factory=dict)

    def participants(self) -> list[str]:
        meetings = self.meetings.values()
        return sorted(_engineers(self, [a for entries in meetings for a, _, _ in entries]))


def build_ledgers(credit: Iterable[Credit]) -> dict[str, FileLedger]:
    """Group credit by file, reading it once and rejecting duplicate first authorships.

    Every credit counts as the events ``credit_events`` spells out of it.
    MEETING credit is grouped by commit and file tuple; each file of a group
    gets its ``(engineers, start, minutes)`` entries as the one shared list,
    joined only where two groups of a commit, or one twice, name the file.
    Minutes that fail ``check_meeting_minutes``, or a ``kind`` not an
    ``EventKind``, are an ``InputDataError``.
    """
    ledgers: defaultdict[str, FileLedger] = defaultdict(FileLedger)
    groups: defaultdict[tuple, list] = defaultdict(list)  # (ref, file tuple) -> meeting entries
    for engineers, ref, timestamp_ms, minutes, paths, kind in credit:
        if kind is EventKind.MEETING:
            try:
                check_meeting_minutes(minutes)
            except ValueError as exc:
                raise InputDataError(f"meeting credit for commit {ref!r}: {exc}") from None
            if engineers:  # else it spells out no event
                groups[ref, tuple(paths)].append((engineers, timestamp_ms, minutes))
        elif kind is EventKind.COMMIT or kind is EventKind.REVIEW:
            for engineer in engineers:
                for path in paths:
                    ledger = ledgers[path]
                    stamps_of = ledger.commits if kind is EventKind.COMMIT else ledger.reviews
                    stamps_of.setdefault(engineer, []).append(timestamp_ms)
        elif kind is EventKind.FIRST_AUTHORSHIP:
            for engineer in engineers:
                for path in paths:
                    if ledgers[path].first_authorship is not None:
                        raise InputDataError(
                            f"file {path!r} has more than one first_authorship event"
                        )
                    ledgers[path].first_authorship = (timestamp_ms, engineer)
        else:
            raise InputDataError(f"credit for commit {ref!r}: unknown kind {kind!r}")
    for (ref, paths), entries in groups.items():
        for path in paths:
            meetings = ledgers[path].meetings
            held = meetings.get(ref)
            meetings[ref] = entries if held is None else held + entries
    return dict(ledgers)


def _engineers(ledger: FileLedger, meeting_people: Iterable[Iterable[str]]) -> set[str]:
    """Everyone with an event on the file, given each meeting bucket's attendees."""
    engineers = set(ledger.commits).union(ledger.reviews, *meeting_people)
    if ledger.first_authorship is not None:
        engineers.add(ledger.first_authorship[1])
    return engineers


class _PassMemo(dict):
    """One scoring pass's memo of timestamps -> ``decay`` of their age, so
    ``decay`` and its clock-skew check run once per timestamp, whatever the
    term, and of each meeting bucket key -> its entries and their weights."""

    def __init__(self, as_of_ms: int, params: AlgorithmParams) -> None:
        self.as_of_ms, self.params, self.weighed = as_of_ms, params, {}

    def __missing__(self, ts: int) -> float:
        return self.setdefault(ts, decay(age_days(ts, self.as_of_ms), self.params.decay_days))

    def meeting_weights(self, key, entries) -> dict[str, float]:
        """Each attendee's ``min(1, sum of minutes * decay / mte)`` over one bucket."""
        held = self.weighed.get(key)
        if held is not None and held[0] is entries:
            return held[1]
        terms: defaultdict[str, list[float]] = defaultdict(list)
        for attendees, ts, minutes in entries:
            term = minutes * self[ts]
            for engineer in attendees:
                terms[engineer].append(term)
        mte = self.params.mte_minutes  # min(1.0, w), without a call per weight
        weights = {e: w if (w := math.fsum(t) / mte) < 1.0 else 1.0 for e, t in terms.items()}
        self.weighed[key] = (entries, weights)
        return weights


def _score_file_multimodal(
    ledger: FileLedger, params: AlgorithmParams, decayed: _PassMemo
) -> dict[str, float]:
    """Scores of everyone on the file."""
    weights = [decayed.meeting_weights(*bucket) for bucket in ledger.meetings.items()]
    exposure: defaultdict[str, list[float]] = defaultdict(list)
    for capped in weights:
        for engineer, weight in capped.items():
            exposure[engineer].append(weight)
    fa_ts, fa_engineer = ledger.first_authorship or (None, None)
    engineers = _engineers(ledger, weights)
    dl, rv = dict.fromkeys(engineers, 0.0), dict.fromkeys(engineers, 0.0)
    for sums, stamps_of in ((dl, ledger.commits), (rv, ledger.reviews)):
        for e, stamps in stamps_of.items():
            sums[e] = math.fsum([decayed[ts] for ts in stamps])
    dl_total, rv_total = math.fsum(dl.values()), math.fsum(rv.values())
    log_dl_total, log_rv_total = math.log1p(dl_total), math.log1p(rv_total)
    return {
        e: math.fsum((
            params.fa_weight * (decayed[fa_ts] if e == fa_engineer else 0.0),
            params.dl_weight * dl[e],
            params.rv_weight * rv[e],
            math.fsum(exposure.get(e, ())),
            params.log_dl_weight * (log_dl_total - math.log1p(dl_total - dl[e])),
            params.log_rv_weight * (log_rv_total - math.log1p(rv_total - rv[e])),
        ))
        for e in engineers
    }


def _score_file_baseline(ledger: FileLedger, engineers: Iterable[str]) -> dict[str, float]:
    """Baseline scores of ``engineers``, from the file's commit counts alone."""
    first_author = ledger.first_authorship[1] if ledger.first_authorship is not None else None
    counts = {e: len(stamps) for e, stamps in ledger.commits.items()}
    total = sum(counts.values())
    return {
        e: BASELINE_INTERCEPT
        + BASELINE_FA_WEIGHT * (1.0 if first_author == e else 0.0)
        + BASELINE_DL_WEIGHT * counts.get(e, 0)
        - BASELINE_AC_WEIGHT * math.log1p(total - counts.get(e, 0))
        for e in engineers
    }


def doa_multimodal(
    ledger: FileLedger, engineer_id: str, as_of_ms: int, params: AlgorithmParams
) -> float:
    """Decayed multimodal degree of authorship of one engineer on one file.

    An engineer with no events on the file scores exactly 0.0: every own
    term vanishes and the crowd terms cancel.
    """
    scores = _score_file_multimodal(ledger, params, _PassMemo(as_of_ms, params))
    return scores.get(engineer_id, 0.0)


def doa_baseline(ledger: FileLedger, engineer_id: str) -> float:
    """Commit-count regression score; no decay, reviews and meetings ignored."""
    return _score_file_baseline(ledger, (engineer_id,))[engineer_id]


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
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
        )
    raw: dict[tuple[str, str], float] = {}
    file_max: dict[str, float] = {}
    file_engineers: dict[str, tuple[str, ...]] = {}
    decayed = _PassMemo(as_of_ms, params)
    total = 0.0  # of every score so far, so no engineer's sum in bus_factor overflows
    for path in sorted(ledgers):
        ledger = ledgers[path]
        try:
            if algorithm == "baseline":
                scores = _score_file_baseline(ledger, ledger.participants())
            else:
                scores = _score_file_multimodal(ledger, params, decayed)
            total = math.fsum((total, *scores.values()))
        except (OverflowError, ValueError):  # a sum past the largest float, or inf - inf
            total = math.inf
        if not math.isfinite(total):
            raise ConfigError(f"scores reach infinity at file {path!r}; lower the algorithm weights")
        file_engineers[path] = engineers = tuple(sorted(scores))
        raw.update(((e, path), scores[e]) for e in engineers)
        file_max[path] = max(scores.values(), default=0.0)
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
    coverage fell through the threshold; with no files, none.
    """
    if authors is None:
        authors = authorship(table, params)
    files_of: dict[str, list[str]] = {}
    for path in sorted(authors):
        for e in authors[path]:
            files_of.setdefault(e, []).append(path)

    def departure_key(e: str):
        files = files_of[e]
        return (-len(files), -math.fsum(table.raw[(e, f)] for f in files), e)

    file_count = len(table.files)
    live_authors = {path: len(engineers) for path, engineers in authors.items()}
    covered = sum(1 for n in live_authors.values() if n > 0)
    initially_uncovered = file_count - covered
    coverage = covered / file_count if file_count else 0.0
    removed: list[str] = []
    trace: list[float] = []
    for engineer in sorted(files_of, key=departure_key):
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
        warnings=() if file_count else ("no files to analyze; bus factor is 0",),
    )


@dataclass(frozen=True)
class Ledgers:
    """Checked ledgers of one credit set, with the files and the instant to score."""

    files: dict[str, FileLedger]
    live_files: tuple[str, ...]
    as_of_ms: int


def prepare_ledgers(
    credit: Iterable[Credit], live_files=None, as_of_ms: int | None = None
) -> Ledgers:
    """Build the ledgers of ``credit`` once, then check them.

    ``credit`` that is not a list or a tuple is read into a list once.
    ``live_files`` is the set of files the project currently contains; the
    credit must only name those, and the smallest file outside them is
    named. When omitted it is inferred from the files the ledgers hold.
    ``as_of_ms`` defaults to the newest credit timestamp (a credit with no
    files counts too), or 0 with none. Anything newer than it is a
    clock-skew error naming the first event of ``canonical_blocks`` of the
    late credit.
    """
    if not isinstance(credit, (list, tuple)):
        credit = list(credit)
    files = build_ledgers(credit)
    live_files = sorted(files if live_files is None else set(live_files))
    if stray := files.keys() - live_files:
        raise InputDataError(
            f"event references file {min(stray)!r} that is not a live file of the analyzed branch"
        )
    if as_of_ms is None:
        as_of_ms = max((c.timestamp_ms for c in credit), default=0)
    late = [c for c in credit if c.timestamp_ms > as_of_ms]
    for timestamp_ms, kind, engineer, paths in canonical_blocks(late, lambda path, _: path):
        raise ClockSkewError(
            f"event at {timestamp_ms} ({kind.value} by {engineer!r} on {paths[0]!r}) "
            f"is newer than the analysis instant {as_of_ms}; pass a later --as-of "
            f"or fix the event timestamps"
        )
    return Ledgers(files=files, live_files=tuple(live_files), as_of_ms=as_of_ms)


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
    for message in result.warnings:
        warn(warnings, message)
    return table, result
