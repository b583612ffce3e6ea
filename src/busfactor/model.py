"""Core domain types: engineers, contribution events, and knowledge decay.

Timestamps are UTC epoch milliseconds throughout; decay ages are fractional
days derived from millisecond differences. All types are immutable value
objects, safe to share across workers. A ``ContributionEvent`` is a tuple
of the event log's fields; ``SORT_KEY`` is the canonical order,
``canonical_blocks`` puts the events of credit in it without spelling each
one out, and ``event_credit`` turns events into ``Credit``. The two record
constructors own a contribution's kind, timestamp and magnitude: nothing
downstream checks them again.
"""
from __future__ import annotations

import dataclasses
import math
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .errors import ClockSkewError, ConfigError

MS_PER_DAY = 86_400_000.0
#: Epoch milliseconds of the years 1-9999 UTC: the instants a report can print.
INSTANT_RANGE_MS = range(-62_135_596_800_000, 253_402_300_800_000)


class EventKind(str, Enum):
    FIRST_AUTHORSHIP = "first_authorship"
    COMMIT = "commit"
    REVIEW = "review"
    MEETING = "meeting"


#: Canonical ordering of kinds inside one timestamp, used when sorting events.
KIND_ORDER = {
    EventKind.FIRST_AUTHORSHIP: 0,
    EventKind.COMMIT: 1,
    EventKind.REVIEW: 2,
    EventKind.MEETING: 3,
}


@dataclass(frozen=True)
class Engineer:
    """A canonical developer identity after alias merging.

    ``id`` is stable and order-independent: the smallest email, falling back
    to the smallest profile ref, then the name; ``merge_identities`` adds
    ``#n`` to an id that another engineer already holds.
    """

    id: str
    emails: frozenset[str]
    names: frozenset[str] = frozenset()
    profile_refs: frozenset[str] = frozenset()


class _EventFields(NamedTuple):
    kind: EventKind
    engineer_id: str
    file_path: str
    timestamp_ms: int
    magnitude: float = 1.0
    commit_ref: str = ""


class ContributionEvent(_EventFields):
    """One timestamped knowledge-bearing event bound to an engineer and a file.

    ``magnitude`` is meeting minutes for MEETING events and 1.0 otherwise.
    ``commit_ref`` names the commit the event attaches to; for MEETING events
    it is the commit the meeting was associated with.

    An event is the tuple ``(kind, engineer_id, file_path, timestamp_ms,
    magnitude, commit_ref)`` of the log's fields in constructor order. The
    constructor checks them as ``Credit``'s does, and ``_make``,
    ``_replace``, pickle and copy go through it.
    """

    __slots__ = ()

    def __new__(
        cls, kind: EventKind, engineer_id: str, file_path: str, timestamp_ms: int,
        magnitude: float = 1.0, commit_ref: str = "",
    ) -> "ContributionEvent":
        timestamp_ms, magnitude = _checked_numbers(kind, timestamp_ms, magnitude)
        return tuple.__new__(
            cls, (kind, engineer_id, file_path, timestamp_ms, magnitude, commit_ref)
        )

    @classmethod
    def _make(cls, fields) -> "ContributionEvent":
        """The event of the six fields, built and checked by the constructor."""
        return cls(*fields)


def SORT_KEY(event: ContributionEvent) -> tuple:
    """The canonical order of events: (timestamp, kind rank, engineer, file, commit)."""
    kind, engineer_id, file_path, timestamp_ms, _, commit_ref = event
    return timestamp_ms, KIND_ORDER[kind], engineer_id, file_path, commit_ref


_FLOAT_MAX = sys.float_info.max


def check_meeting_minutes(minutes) -> None:
    """Reject meeting minutes that are a bool or not an int or float in (0, largest float]."""
    if isinstance(minutes, bool) or not isinstance(minutes, (float, int)) or not 0 < minutes <= _FLOAT_MAX:
        try:
            shown = repr(minutes)
        except ValueError:  # an int past the digits str() prints, such as 10**5000
            where = "above the largest float" if minutes > 0 else "below 0"
            shown = f"{type(minutes).__name__} {where}"
        raise ValueError(f"magnitude must be a finite number > 0 for meeting events, got {shown}")


def canonical_order(events) -> list[ContributionEvent]:
    """Sort events by ``SORT_KEY``; events that tie on it keep their order."""
    return sorted(events, key=SORT_KEY)


def checked_timestamp(value, name: str = "timestamp_ms") -> int:
    """``value`` as a plain int; a bool or anything not an int is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value if value.__class__ is int else int(value)


def _checked_numbers(kind: EventKind, timestamp_ms, magnitude) -> tuple[int, float]:
    """The stored ``(timestamp_ms, magnitude)`` of a ``kind`` contribution: the
    plain int, and for a MEETING the plain int or float of minutes that pass
    ``check_meeting_minutes``, else 1.0, which the magnitude must equal."""
    if kind.__class__ is not EventKind:  # a str equal to a kind's value is not one
        raise ValueError(f"kind must be an EventKind, got {kind!r}")
    timestamp_ms = checked_timestamp(timestamp_ms)
    if kind is not EventKind.MEETING:
        if magnitude != 1.0 or isinstance(magnitude, bool):
            raise ValueError(f"magnitude must be 1.0 for {kind.value} events")
        return timestamp_ms, 1.0
    check_meeting_minutes(magnitude)
    return timestamp_ms, float(magnitude) if isinstance(magnitude, float) else int(magnitude)


class _CreditFields(NamedTuple):
    engineers: tuple[str, ...]
    commit_ref: str
    timestamp_ms: int
    magnitude: float
    file_paths: tuple[str, ...]
    kind: EventKind = EventKind.MEETING


class Credit(_CreditFields):
    """One contribution of ``engineers`` to the files of one commit, from any channel.

    It stands for a ``kind`` event of each engineer on each of ``file_paths``;
    ``credit_events`` spells those events out. ``magnitude`` is a meeting's
    minutes, and 1.0 for every other kind. The constructor checks ``kind``,
    ``timestamp_ms`` and ``magnitude`` by the rule events follow, and
    ``_make``, ``_replace``, pickle and copy go through it.
    """

    __slots__ = ()

    def __new__(
        cls, engineers: tuple[str, ...], commit_ref: str, timestamp_ms: int, magnitude: float,
        file_paths: tuple[str, ...], kind: EventKind = EventKind.MEETING,
    ) -> "Credit":
        timestamp_ms, magnitude = _checked_numbers(kind, timestamp_ms, magnitude)
        return tuple.__new__(cls, (engineers, commit_ref, timestamp_ms, magnitude, file_paths, kind))

    @classmethod
    def _make(cls, fields) -> "Credit":
        """The credit of the six fields, built and checked by the constructor."""
        return cls(*fields)


def credit_events(credit) -> Iterator[ContributionEvent]:
    """The events of each credit: one per engineer and file, engineer by engineer.

    The rows skip the event constructor: each holds its credit's kind,
    timestamp and magnitude, which the ``Credit`` constructor checked.
    """
    new, event = tuple.__new__, ContributionEvent
    for engineers, ref, timestamp_ms, magnitude, paths, kind in credit:
        for engineer in engineers:
            for path in paths:
                yield new(event, (kind, engineer, path, timestamp_ms, magnitude, ref))


def event_credit(events) -> list[Credit]:
    """The one-engineer, one-file credit of each event, in order: ``credit_events``
    inverted. The credit of one engineer, or of one file, shares its 1-tuple."""
    one: dict[str, tuple[str]] = {}
    return [tuple.__new__(Credit, (one.get(e) or one.setdefault(e, (e,)), ref, ts, magnitude,
                                   one.get(p) or one.setdefault(p, (p,)), kind))
            for kind, e, p, ts, magnitude, ref in events]


_TIMESTAMP = attrgetter("timestamp_ms")


def canonical_blocks(credit, cell) -> Iterator[tuple[int, EventKind, str, list]]:
    """The events of ``credit`` in canonical order, as ``(timestamp_ms, kind,
    engineer_id, cells)`` blocks.

    A block holds the events of one timestamp, kind and engineer, in
    ``SORT_KEY`` order; ``cells`` has one ``cell(path, credit)`` per event,
    for the credit it comes from and its file. The credit is sorted stably
    by timestamp, and the cells of one block by ``(path, commit_ref)``, ties
    in input order, so the blocks spell out exactly ``canonical_order`` of
    ``credit_events(credit)``. Blocks with the same credit share one list
    (all attendees of a meeting do), which is built once.
    """
    for timestamp_ms, group in groupby(sorted(credit, key=_TIMESTAMP), key=_TIMESTAMP):
        group = list(group)
        members: dict[tuple[int, str], list[int]] = {}
        for i, c in enumerate(group):
            rank = KIND_ORDER[c.kind]
            for engineer in c.engineers:
                members.setdefault((rank, engineer), []).append(i)
        shared: dict[tuple[int, ...], list] = {}
        for rank, engineer in sorted(members):
            key = tuple(members[rank, engineer])
            cells = shared.get(key)
            if cells is None:
                rows = sorted(
                    (path, group[i].commit_ref, i) for i in key for path in group[i].file_paths
                )
                cells = shared[key] = [cell(path, group[i]) for path, _, i in rows]
            if cells:
                yield timestamp_ms, group[key[0]].kind, engineer, cells


def _event_cell(path: str, credit: Credit) -> tuple:
    return path, credit.commit_ref, credit.magnitude


class CanonicalEvents:
    """Every event of ``credit`` in canonical order, spelled out lazily.

    Iterating walks ``canonical_blocks(credit, ...)`` afresh, one timestamp
    at a time, so the whole log is never held at once; ``write_event_log``
    formats the blocks themselves. Credit that is not a list or a tuple (a
    generator, say) is read into a list once, so every walk sees all of it.
    """

    __slots__ = ("credit",)

    def __init__(self, credit) -> None:
        self.credit = credit if isinstance(credit, (list, tuple)) else list(credit)

    def __iter__(self) -> Iterator[ContributionEvent]:
        new, event = tuple.__new__, ContributionEvent
        for timestamp_ms, kind, engineer, cells in canonical_blocks(self.credit, _event_cell):
            for path, ref, magnitude in cells:
                yield new(event, (kind, engineer, path, timestamp_ms, magnitude, ref))


_WEIGHT_FIELDS = ("fa_weight", "dl_weight", "rv_weight", "log_dl_weight", "log_rv_weight")
_FLOAT_FIELDS = (
    "decay_days", "mte_minutes", "doa_threshold", "norm_threshold",
    "coverage_threshold", *_WEIGHT_FIELDS,
)


def _number(name: str, value, integral: bool = False):
    """``value`` as a finite float, or an int when ``integral``.

    float() and int() would read True as 1, accept NaN and infinity, and
    int() would truncate 7.9 to 7; all of these are a ConfigError.
    """
    try:
        number = float(value)
        if isinstance(value, bool) or not math.isfinite(number):
            raise ValueError
        if integral and not number.is_integer():
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if integral else "a finite number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}") from None
    return int(number) if integral else number


@dataclass(frozen=True)
class AlgorithmParams:
    """Tunable knobs of the scoring and coverage algorithms.

    Defaults follow the multimodal model: knowledge decays with e-folding
    time ``decay_days`` and meeting credit per commit is capped at
    ``mte_minutes``.
    """

    decay_days: float = 220.0
    mte_minutes: float = 240.0
    fa_weight: float = 3.0
    dl_weight: float = 1.0
    rv_weight: float = 0.5
    log_dl_weight: float = 2.4
    log_rv_weight: float = 1.2
    doa_threshold: float = 1.0
    norm_threshold: float = 0.75
    coverage_threshold: float = 0.5
    meeting_window_days: int = 7
    meeting_exclude_keywords: tuple[str, ...] = ("seminar", "reading", "random")

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        for name in _FLOAT_FIELDS:
            coerce(self, name, _number(name, getattr(self, name)))
        window = _number("meeting_window_days", self.meeting_window_days, integral=True)
        coerce(self, "meeting_window_days", window)
        keywords = self.meeting_exclude_keywords
        if not isinstance(keywords, (list, tuple)) or not all(
            isinstance(k, str) for k in keywords
        ):
            raise ConfigError(
                f"meeting_exclude_keywords must be a list of strings, got {keywords!r}"
            )
        if "" in keywords:
            raise ConfigError("meeting_exclude_keywords must not hold '', which every title contains")
        coerce(self, "meeting_exclude_keywords", tuple(k.lower() for k in keywords))
        self._validate()

    def _validate(self) -> None:
        if not self.decay_days > 0:
            raise ConfigError("decay_days must be > 0")
        if not self.mte_minutes > 0:
            raise ConfigError("mte_minutes must be > 0")
        if not 0 < self.norm_threshold <= 1:
            raise ConfigError("norm_threshold must be in (0, 1]")
        if not 0 < self.coverage_threshold < 1:
            raise ConfigError("coverage_threshold must be in (0, 1)")
        for name in _WEIGHT_FIELDS:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.meeting_window_days < 0:
            raise ConfigError("meeting_window_days must be >= 0")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    def replace(self, **overrides) -> "AlgorithmParams":
        unknown = set(overrides) - set(self.field_names())
        if unknown:
            raise ConfigError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["meeting_exclude_keywords"] = list(self.meeting_exclude_keywords)
        return out


def decay(age_days: float, decay_days: float) -> float:
    """Exponential knowledge-decay factor exp(-age/decay_days), in (0, 1].

    Raises ClockSkewError for negative ages: the underlying event would be
    later than the instant the analysis is evaluated at.
    """
    if not decay_days > 0:
        raise ConfigError("decay_days must be > 0")
    if age_days < 0:
        raise ClockSkewError(
            f"event is {-age_days:.6g} days later than the analysis instant; "
            "check timestamps or pass an explicit as-of instant"
        )
    return math.exp(-age_days / decay_days)


def age_days(timestamp_ms: int, as_of_ms: int) -> float:
    return (as_of_ms - timestamp_ms) / MS_PER_DAY


#: ``YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]]``, where ``*`` is
#: any one character: the form ``datetime.fromisoformat`` reads on every
#: CPython from 3.10 (later ones read more).
_ISO_INSTANT = re.compile(
    r"\d{4}-\d{2}-\d{2}"
    r"(?:.\d{2}(?::\d{2}(?::\d{2}(?:\.\d{3}(?:\d{3})?)?)?)?"
    r"(?:[+-]\d{2}:\d{2}(?::\d{2}(?:\.\d{6})?)?)?)?",
    re.ASCII | re.DOTALL,
)


def parse_instant(text: str) -> int:
    """Parse an ISO-8601 instant into epoch milliseconds (naive means UTC).

    ``Z`` stands for ``+00:00``. Only ``_ISO_INSTANT`` is read, so every
    interpreter accepts the same strings.
    """
    raw = text.strip().replace("Z", "+00:00")
    try:
        if not _ISO_INSTANT.fullmatch(raw):
            raise ValueError
        dt = datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"not an ISO-8601 instant: {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    instant = round(dt.timestamp() * 1000)
    if instant not in INSTANT_RANGE_MS:
        raise ValueError(f"instant {text!r} is outside the years 1-9999 UTC")
    return instant


def format_instant(timestamp_ms: int) -> str:
    """Render epoch milliseconds as an ISO-8601 UTC instant."""
    dt = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(milliseconds=timestamp_ms)
    if timestamp_ms % 1000:
        return dt.isoformat(timespec="milliseconds").replace("+00:00", "Z")
    return dt.isoformat(timespec="seconds").replace("+00:00", "Z")
