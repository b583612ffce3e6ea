"""Core domain types: engineers, contribution events, and knowledge decay.

Timestamps are UTC epoch milliseconds throughout; decay ages are fractional
days derived from millisecond differences. All types are immutable value
objects, safe to share across workers. A ``ContributionEvent`` is a tuple
of the event log's fields; ``canonical_blocks`` defines the canonical order
and puts the events of credit in it without spelling each one out,
``event_credit`` turns events into ``Credit``, and ``bucket_credit``
meeting buckets. The two record
constructors own a contribution's kind, timestamp and magnitude: nothing
downstream checks them again.
"""
from __future__ import annotations

import gc
import math
import re
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import groupby
from operator import attrgetter
from types import SimpleNamespace
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


class Engineer(NamedTuple):
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
    ``CanonicalEvents`` spells those events out. ``magnitude`` is a meeting's
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


def bucket_credit(buckets) -> Iterator[Credit]:
    """The MEETING credit of ``(commit_ref, file_paths, entries)`` buckets: one
    per ``(attendees, start_ms, minutes)`` entry, bucket by bucket, on the
    bucket's files. The meeting join checked each entry's numbers."""
    new, meeting = tuple.__new__, EventKind.MEETING
    for ref, paths, entries in buckets:
        for attendees, start, minutes in entries:
            yield new(Credit, (attendees, ref, start, minutes, paths, meeting))


def event_credit(events) -> list[Credit]:
    """The one-engineer, one-file credit of each event, in order. The credit of
    one engineer, or of one file, shares its 1-tuple."""
    one: dict[str, tuple[str]] = {}
    return [tuple.__new__(Credit, (one.get(e) or one.setdefault(e, (e,)), ref, ts, magnitude,
                                   one.get(p) or one.setdefault(p, (p,)), kind))
            for kind, e, p, ts, magnitude, ref in events]


@contextmanager
def collector_paused():
    """Run a block with the cyclic garbage collector off; the caller's state
    comes back on every exit. The records a run builds hold no cycles, and
    the collector would only rescan them again and again as they pile up."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


_TIMESTAMP = attrgetter("timestamp_ms")


def canonical_blocks(credit, cell) -> Iterator[tuple[int, EventKind, str, list]]:
    """The events of ``credit`` in canonical order, as ``(timestamp_ms, kind,
    engineer_id, cells)`` blocks.

    A credit stands for one event per engineer and file. The canonical
    order puts events by timestamp, then kind rank (``KIND_ORDER``), then
    engineer, file and commit ref; events that tie on all five keep their
    input order. ``tests/order_reference.py`` spells it as a stable key sort.

    A block holds the events of one timestamp, kind and engineer, in that
    order; ``cells`` has one ``cell(path, credit)`` per event, for the
    credit it comes from and its file. The credit is sorted stably by
    timestamp, and the cells of one block by ``(path, commit_ref)``, ties in
    input order. The credit of one timestamp is grouped by kind and
    engineers tuple first (all matches of a meeting share one), and each
    group's index list goes to its engineers. An engineer in several groups,
    or twice in one tuple, gets those lists concatenated instead, repeats
    kept, so a repeated engineer's cells come twice, once per appearance;
    the cells sort by index last, so the order of the concatenation does
    not matter. Blocks that share a list share its cells, which are built
    once.
    """
    for timestamp_ms, group in groupby(sorted(credit, key=_TIMESTAMP), key=_TIMESTAMP):
        group = list(group)
        groups: dict[tuple[int, tuple[str, ...]], list[int]] = {}
        for i, c in enumerate(group):
            groups.setdefault((KIND_ORDER[c.kind], c.engineers), []).append(i)
        members: dict[tuple[int, str], list[int]] = {}
        for (rank, engineers), indices in groups.items():
            for engineer in engineers:
                held = members.get((rank, engineer))
                members[rank, engineer] = indices if held is None else held + indices
        shared: dict[int, list] = {}  # by the id of a list that members holds
        for rank, engineer in sorted(members):
            indices = members[rank, engineer]
            cells = shared.get(id(indices))
            if cells is None:
                rows = sorted(
                    (path, group[i].commit_ref, i) for i in indices for path in group[i].file_paths
                )
                cells = shared[id(indices)] = [cell(path, group[i]) for path, _, i in rows]
            if cells:
                yield timestamp_ms, group[indices[0]].kind, engineer, cells


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


def canonical_order(events) -> list[ContributionEvent]:
    """``events`` in canonical order, as new events equal to them."""
    return list(CanonicalEvents(event_credit(events)))


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


class AlgorithmParams(SimpleNamespace):
    """Tunable knobs of the scoring and coverage algorithms.

    Defaults follow the multimodal model: knowledge decays with e-folding
    time ``decay_days`` and meeting credit per commit is capped at
    ``mte_minutes``.

    Params are built by keyword and immutable; as a ``SimpleNamespace``,
    equal params are equal, and they hash alike. Each class attribute is its
    field's default, which the estimator's signature reads.
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

    def __init__(self, **fields) -> None:
        names = self.field_names()
        if unknown := fields.keys() - names:
            raise TypeError(f"AlgorithmParams() got an unexpected keyword argument {min(unknown)!r}")
        values = {name: fields.get(name, getattr(AlgorithmParams, name)) for name in names}
        for name in _FLOAT_FIELDS:
            values[name] = _number(name, values[name])
        window = _number("meeting_window_days", values["meeting_window_days"], integral=True)
        values["meeting_window_days"] = window
        keywords = values["meeting_exclude_keywords"]
        if not isinstance(keywords, (list, tuple)) or not all(
            isinstance(k, str) for k in keywords
        ):
            raise ConfigError(
                f"meeting_exclude_keywords must be a list of strings, got {keywords!r}"
            )
        if "" in keywords:
            raise ConfigError("meeting_exclude_keywords must not hold '', which every title contains")
        values["meeting_exclude_keywords"] = tuple(k.lower() for k in keywords)
        self.__dict__.update(values)
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

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of AlgorithmParams")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(cls.__annotations__)

    def replace(self, **overrides) -> "AlgorithmParams":
        unknown = set(overrides) - set(self.field_names())
        if unknown:
            raise ConfigError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
        return AlgorithmParams(**{**self.__dict__, **overrides})

    __replace__ = replace  # copy.replace: SimpleNamespace's own would skip the checks

    def as_dict(self) -> dict:
        return {**self.__dict__, "meeting_exclude_keywords": list(self.meeting_exclude_keywords)}


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
