"""Core domain types: engineers, files, contribution events, and knowledge decay.

Timestamps are UTC epoch milliseconds throughout; decay ages are fractional
days derived from millisecond differences. All types are immutable value
objects, safe to share across workers.
"""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import NamedTuple

from .errors import ClockSkewError, ConfigError

MS_PER_DAY = 86_400_000.0


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
    to the smallest profile ref, then the smallest name.
    """

    id: str
    emails: frozenset[str]
    names: frozenset[str] = frozenset()
    profile_refs: frozenset[str] = frozenset()


@dataclass(frozen=True)
class FileKey:
    """Identity of a file at branch head plus its historical names.

    ``rename_chain`` lists the paths the file has carried, oldest first;
    the last entry equals ``head_path``.
    """

    head_path: str
    rename_chain: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.rename_chain or self.rename_chain[-1] != self.head_path:
            raise ValueError("rename_chain must end with head_path")
        for prev, cur in zip(self.rename_chain, self.rename_chain[1:]):
            if prev == cur:
                raise ValueError("consecutive rename_chain entries must differ")


@dataclass(frozen=True)
class ContributionEvent:
    """One timestamped knowledge-bearing event bound to an engineer and a file.

    ``magnitude`` is meeting minutes for MEETING events and 1.0 otherwise.
    ``commit_ref`` names the commit the event attaches to; for MEETING events
    it is the commit the meeting was associated with.
    """

    kind: EventKind
    engineer_id: str
    file_path: str
    timestamp_ms: int
    magnitude: float = 1.0
    commit_ref: str = ""

    def __post_init__(self) -> None:
        if self.kind is EventKind.MEETING:
            if not self.magnitude > 0:
                raise ValueError("magnitude must be > 0 for meeting events")
        elif self.magnitude != 1.0:
            raise ValueError(f"magnitude must be 1.0 for {self.kind.value} events")

    def sort_key(self) -> tuple:
        return (
            self.timestamp_ms,
            KIND_ORDER[self.kind],
            self.engineer_id,
            self.file_path,
            self.commit_ref,
        )


def canonical_order(events) -> list[ContributionEvent]:
    """Sort events by (timestamp, kind, engineer, file, commit)."""
    return sorted(events, key=ContributionEvent.sort_key)


class MeetingCredit(NamedTuple):
    """One attendee's minutes in one meeting, attached to one related commit.

    It stands for a MEETING event on each of ``file_paths``, the live files
    of ``commit_ref``; ``credit_events`` spells those events out.
    """

    engineer_id: str
    commit_ref: str
    timestamp_ms: int
    magnitude: float
    file_paths: tuple[str, ...]


def credit_events(credit) -> Iterator[ContributionEvent]:
    """The MEETING events of each credit, one per file it stands for."""
    for c in credit:
        for path in c.file_paths:
            yield ContributionEvent(
                kind=EventKind.MEETING,
                engineer_id=c.engineer_id,
                file_path=path,
                timestamp_ms=c.timestamp_ms,
                magnitude=c.magnitude,
                commit_ref=c.commit_ref,
            )


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
        if isinstance(keywords, str):
            raise ConfigError("meeting_exclude_keywords must be a list of strings")
        coerce(self, "meeting_exclude_keywords", tuple(str(k).lower() for k in keywords))
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


def parse_instant(text: str) -> int:
    """Parse an ISO-8601 instant into epoch milliseconds (naive means UTC)."""
    raw = text.strip()
    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(f"not an ISO-8601 instant: {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return round(dt.timestamp() * 1000)


def format_instant(timestamp_ms: int) -> str:
    """Render epoch milliseconds as an ISO-8601 UTC instant."""
    dt = datetime.fromtimestamp(timestamp_ms / 1000, tz=timezone.utc)
    if timestamp_ms % 1000:
        return dt.isoformat(timespec="milliseconds").replace("+00:00", "Z")
    return dt.isoformat(timespec="seconds").replace("+00:00", "Z")
