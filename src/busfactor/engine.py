"""Knowledge scoring and bus-factor search.

Turns contribution credit into per-engineer, per-file authorship scores and
walks the greedy removal order to find how many engineers the project can
lose before less than half of its files retain an author. A file's ledger
keys meetings by commit ref: each bucket lists the meetings of one commit
that names the file. The pipeline hands over the meeting join's buckets as
they are, one shared list per window; meeting credit, the estimator's way
in, is filed per file, as commit and review credit are. A scoring pass
does its work once per distinct value (``_PassMemo``): it decays each
timestamp once and weighs each bucket list once, and each distinct bucket
content once, however many files and commits hold it.

Two scoring algorithms live here. The multimodal one blends first authorship,
commits, reviews, and meeting exposure, each exponentially decayed by age.
The baseline is the classic commit-count regression, kept for comparison:

    3.293 + 1.098*FA + 0.164*DL - 0.321*ln(1 + AC)
"""
from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable
from itertools import chain
from types import SimpleNamespace
from typing import NamedTuple

from .errors import ClockSkewError, ConfigError, InputDataError
from .inputs import warn
from .model import (
    AlgorithmParams,
    Credit,
    EventKind,
    age_days,
    bucket_credit,
    canonical_blocks,
    checked_timestamp,
    decay,
)

BASELINE_INTERCEPT = 3.293
BASELINE_FA_WEIGHT = 1.098
BASELINE_DL_WEIGHT = 0.164
BASELINE_AC_WEIGHT = 0.321

ALGORITHMS = ("multimodal", "baseline")


class FileLedger(SimpleNamespace):
    """Credit of one file, grouped the way scoring consumes it.

    ``first_authorship`` is ``(timestamp_ms, engineer)`` or None; ``commits``
    and ``reviews`` map an engineer to timestamps. ``meetings`` maps a commit
    ref to a sequence of ``(attendees, timestamp_ms, minutes)``, one per
    meeting of the commit that names the file; each attendee's minutes under
    one ref are capped at one unit of exposure. A join's bucket shares its
    entries among its files, and maybe other commits; MEETING credit fills
    each file's own list. A ledger is a mutable ``SimpleNamespace``: equal to
    one with equal fields, picklable, and with a fresh dict for each not given.
    """

    def __init__(
        self,
        first_authorship: tuple[int, str] | None = None,
        commits: dict[str, list[int]] | None = None,
        reviews: dict[str, list[int]] | None = None,
        meetings: dict[str, list[tuple]] | None = None,
    ) -> None:
        super().__init__(first_authorship=first_authorship,
                         commits={} if commits is None else commits,
                         reviews={} if reviews is None else reviews,
                         meetings={} if meetings is None else meetings)


def build_ledgers(credit: Iterable[Credit], meetings: Iterable = ()) -> dict[str, FileLedger]:
    """Group credit by file, reading it once and rejecting duplicate first authorships.

    Every credit counts as its events, one per engineer and file.
    MEETING credit files its ``(engineers, start, minutes)`` entry under its
    commit ref in the ledger of each of its files, as COMMIT and REVIEW credit
    file their timestamps. The ``(commit_ref, file_paths, entries)`` buckets
    of ``meetings`` are filed there as they are, joined into a list only
    where a file already holds entries under the ref, and skipped when no
    entry names an attendee. The ``Credit`` constructor has checked each
    credit's kind and numbers, and the meeting join each bucket's.
    """
    ledgers: defaultdict[str, FileLedger] = defaultdict(FileLedger)
    for engineers, ref, timestamp_ms, minutes, paths, kind in credit:
        if kind is EventKind.MEETING:
            if engineers:  # else it spells out no event
                entry = (engineers, timestamp_ms, minutes)
                for path in paths:
                    ledgers[path].meetings.setdefault(ref, []).append(entry)
        elif kind is EventKind.COMMIT or kind is EventKind.REVIEW:
            for engineer in engineers:
                for path in paths:
                    ledger = ledgers[path]
                    stamps_of = ledger.commits if kind is EventKind.COMMIT else ledger.reviews
                    stamps_of.setdefault(engineer, []).append(timestamp_ms)
        else:  # FIRST_AUTHORSHIP
            for engineer in engineers:
                for path in paths:
                    if ledgers[path].first_authorship is not None:
                        raise InputDataError(
                            f"file {path!r} has more than one first_authorship event"
                        )
                    ledgers[path].first_authorship = (timestamp_ms, engineer)
    for ref, paths, entries in meetings:
        if not any(attendees for attendees, _, _ in entries):
            continue  # its credit spells out no event
        for path in paths:
            held = (of_file := ledgers[path].meetings).get(ref)
            of_file[ref] = entries if held is None else [*held, *entries]
    return dict(ledgers)


def _engineers(ledger: FileLedger, meeting_people: Iterable[Iterable[str]]) -> set[str]:
    """Everyone with an event on the file, given each meeting bucket's attendees."""
    engineers = set(ledger.commits).union(ledger.reviews, *meeting_people)
    if ledger.first_authorship is not None:
        engineers.add(ledger.first_authorship[1])
    return engineers


class _PassMemo(dict):
    """What one scoring pass works out once per distinct value.

    As a dict it maps each timestamp to ``decay`` of its age, so ``decay``
    and its clock-skew check run once per timestamp, whatever the term.
    ``meeting_weights`` weighs a bucket list into its attendees' capped
    weights once: ``held`` finds a list again by identity (the meeting join
    shares one list among the files and commits of a window), and
    ``weighed`` by content, the tuple of its ``(attendees, start, minutes)``
    entries (the estimator's per-file lists of equal meetings). A content
    key is exact: within a pass the weights depend on nothing else, and
    ``math.fsum`` rounds correctly whatever the order of its terms.
    """

    def __init__(self, as_of_ms: int, params: AlgorithmParams) -> None:
        self.as_of_ms, self.params, self.weighed, self.held = as_of_ms, params, {}, {}

    def __missing__(self, ts: int) -> float:
        return self.setdefault(ts, decay(age_days(ts, self.as_of_ms), self.params.decay_days))

    def meeting_weights(self, entries) -> dict[str, float]:
        """Each attendee's ``min(1, sum of minutes * decay / mte)`` over one bucket."""
        held = self.held.get(id(entries))
        if held is not None:
            return held[1]
        key = tuple(entries)
        weights = self.weighed.get(key)
        if weights is None:
            weights = self.weighed[key] = self._weigh(key)
        self.held[id(entries)] = entries, weights  # holding the list keeps its id unique
        return weights

    def _weigh(self, entries: tuple) -> dict[str, float]:
        terms: defaultdict[str, list[float]] = defaultdict(list)
        for attendees, ts, minutes in entries:
            term = minutes * self[ts]
            for engineer in attendees:
                terms[engineer].append(term)
        mte, fsum, weights = self.params.mte_minutes, math.fsum, {}
        for engineer, decayed in terms.items():
            try:  # the sum of one term is that term
                w = (decayed[0] if len(decayed) == 1 else fsum(decayed)) / mte
            except OverflowError:  # a sum past the largest float passes every finite mte
                w = 1.0
            weights[engineer] = w if w < 1.0 else 1.0  # min(1.0, w), without a call per weight
        return weights


def _score_file_multimodal(ledger: FileLedger, decayed: _PassMemo) -> dict[str, float]:
    """Scores of everyone on the file, under the pass's params."""
    fsum, log1p, weigh, params = math.fsum, math.log1p, decayed.meeting_weights, decayed.params
    exposure: defaultdict[str, list[float]] = defaultdict(list)
    for entries in ledger.meetings.values():
        for engineer, weight in weigh(entries).items():
            exposure[engineer].append(weight)
    fa_ts, fa_engineer = ledger.first_authorship or (None, None)
    engineers = _engineers(ledger, (exposure,))
    dl, rv = dict.fromkeys(engineers, 0.0), dict.fromkeys(engineers, 0.0)
    for sums, stamps_of in ((dl, ledger.commits), (rv, ledger.reviews)):
        for e, stamps in stamps_of.items():
            sums[e] = fsum(map(decayed.__getitem__, stamps))
    dl_total, rv_total = fsum(dl.values()), fsum(rv.values())
    log_dl_total, log_rv_total = log1p(dl_total), log1p(rv_total)
    fa_weight, dl_weight, rv_weight = params.fa_weight, params.dl_weight, params.rv_weight
    log_dl_weight, log_rv_weight = params.log_dl_weight, params.log_rv_weight
    return {
        e: fsum((
            fa_weight * (decayed[fa_ts] if e == fa_engineer else 0.0),
            dl_weight * dl[e],
            rv_weight * rv[e],
            fsum(exposure.get(e, ())),
            log_dl_weight * (log_dl_total - log1p(dl_total - dl[e])),
            log_rv_weight * (log_rv_total - log1p(rv_total - rv[e])),
        ))
        for e in engineers
    }


def _score_file_baseline(ledger: FileLedger) -> dict[str, float]:
    """Baseline scores of everyone on the file, from its commit counts alone."""
    meetings = ledger.meetings.values()
    engineers = _engineers(ledger, (a for entries in meetings for a, _, _ in entries))
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


class DoaTable(NamedTuple):
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
    """Raw scores of everyone with an event on each file, under ``algorithm``.

    An engineer with no events on a file scores exactly 0.0 (every own term
    vanishes and the crowd terms cancel), as ``raw_score`` reads a pair the
    table does not hold.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
        )
    raw: dict[tuple[str, str], float] = {}
    file_max: dict[str, float] = {}
    file_engineers: dict[str, tuple[str, ...]] = {}
    decayed = _PassMemo(as_of_ms, params)
    total = 0.0  # of every score so far, so no engineer's sum in bus_factor overflows
    files = tuple(sorted(ledgers))
    for path in files:
        ledger = ledgers[path]
        try:
            if algorithm == "baseline":
                scores = _score_file_baseline(ledger)
            else:
                scores = _score_file_multimodal(ledger, decayed)
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
        files=files,
    )


def authorship(table: DoaTable, params: AlgorithmParams) -> dict[str, tuple[str, ...]]:
    """Authors of each file under the table's algorithm.

    Multimodal authorship needs a raw score at or above the absolute floor
    and a normalized score at or above the relative one. The baseline keeps
    its original strict rule: above the regression intercept and above the
    relative share of the file's top scorer.
    """
    authors: dict[str, tuple[str, ...]] = {}
    raw, baseline = table.raw, table.algorithm == "baseline"
    doa_threshold, norm_threshold = params.doa_threshold, params.norm_threshold
    for path in table.files:
        peak = table.file_max.get(path, 0.0)
        chosen = []
        for e in table.file_engineers.get(path, ()):
            score = raw[e, path]
            if baseline:
                ok = score > BASELINE_INTERCEPT and score > norm_threshold * peak
            else:
                ok = score >= doa_threshold and table.normalized(e, path) >= norm_threshold
            if ok:
                chosen.append(e)
        authors[path] = tuple(chosen)
    return authors


class BusFactorResult(NamedTuple):
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


class Ledgers(NamedTuple):
    """Checked ledgers of one credit set, with the files and the instant to score."""

    files: dict[str, FileLedger]
    live_files: tuple[str, ...]
    as_of_ms: int


def checked_as_of(as_of_ms, name: str = "as_of_ms") -> int | None:
    """``as_of_ms`` as a plain int, or None; any other value is an InputDataError naming ``name``."""
    if as_of_ms is None:
        return None
    try:
        return checked_timestamp(as_of_ms, name)
    except ValueError as exc:
        raise InputDataError(str(exc)) from None


def prepare_ledgers(
    credit: Iterable[Credit], live_files=None, as_of_ms: int | None = None, meetings=()
) -> Ledgers:
    """Build the ledgers of ``credit`` and of the ``meetings`` buckets once, then check them.

    ``credit`` or ``meetings`` that is not a list or a tuple is read into a
    list once. A bucket of ``meetings`` (a ``collab.MeetingBucket``, or any
    ``(commit_ref, file_paths, entries)``, entries in any sequence) counts as
    the MEETING credit of each of its entries on its files, and so files
    nothing if they name no attendee. ``live_files`` is the set of files the
    project currently contains; the credit must only name those, and the
    smallest file outside them is named. When omitted it is inferred from the
    files the ledgers hold. ``as_of_ms`` must be an int, as a credit timestamp
    must; it defaults to the newest credit timestamp or meeting start (a credit
    with no files counts too), or 0 with none. Anything newer than it is a
    clock-skew error naming the first event of ``canonical_blocks`` of the late
    credit; ``bucket_credit`` spells out a late bucket entry only then.
    """
    as_of_ms = checked_as_of(as_of_ms)
    if not isinstance(credit, (list, tuple)):
        credit = list(credit)
    if not isinstance(meetings, (list, tuple)):
        meetings = list(meetings)
    files = build_ledgers(credit, meetings)
    live_files = sorted(files if live_files is None else set(live_files))
    if stray := files.keys() - live_files:
        raise InputDataError(
            f"event references file {min(stray)!r} that is not a live file of the analyzed branch"
        )
    starts = {start for _, _, entries in meetings for _, start, _ in entries}
    if as_of_ms is None:
        as_of_ms = max(chain((c.timestamp_ms for c in credit), starts), default=0)
    late = [c for c in credit if c.timestamp_ms > as_of_ms]
    if starts and max(starts) > as_of_ms:
        late += (c for c in bucket_credit(meetings) if c.timestamp_ms > as_of_ms)
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
    table = table._replace(files=ledgers.live_files)
    result = bus_factor(table, params)
    for message in result.warnings:
        warn(warnings, message)
    return table, result
