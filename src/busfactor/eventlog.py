"""Contribution-event log serialization.

One JSON object per line, UTF-8, with the fields
{kind, engineer_id, file_path, timestamp_ms, magnitude, commit_ref}.
The log decouples ingestion from scoring: the engine can be driven from a
file without a live repository.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable

from .errors import InputDataError
from .inputs import field
from .model import (
    CanonicalEvents, ContributionEvent, EventKind, canonical_blocks, check_meeting_minutes,
)

FIELDS = ContributionEvent._fields


class _Quoted(dict):
    """JSON literals of the strings written so far; ids and paths repeat."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = encode_basestring_ascii(text)
        return literal


class _Heads(dict):
    """Line heads ``{"kind":…,"engineer_id":…,"file_path":`` by (kind, engineer)."""

    def __init__(self, quoted: _Quoted) -> None:
        super().__init__()
        self.quoted = quoted

    def __missing__(self, key: tuple[EventKind, str]) -> str:
        q = self.quoted
        kind, engineer = key
        head = self[key] = f'{{"kind":{q[kind]},"engineer_id":{q[engineer]},"file_path":'
        return head


def _json_numbers(source, magnitude: bool):
    """``source`` (a Credit or an event) with its timestamp, and its magnitude
    when ``magnitude``, as the plain int or float ``json.dumps`` writes for an
    int or finite float of any class; any other number is a ValueError."""
    ts, m = source.timestamp_ms, source.magnitude
    if ts.__class__ is int and (not magnitude or m.__class__ is float or m.__class__ is int):
        return source
    if source.kind is EventKind.MEETING:
        check_meeting_minutes(m)  # bad minutes get the message the ledgers give them
    changes = {"timestamp_ms": ts, "magnitude": m} if magnitude else {"timestamp_ms": ts}
    for name, value in changes.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not math.isfinite(value)
        ):
            raise ValueError(
                f"event log {name} must be an int or a finite float, got {type(value).__name__}"
            )
        changes[name] = int(value) if isinstance(value, int) else float(value)
    return source._replace(**changes)


def write_event_log(events: Iterable[ContributionEvent], sink: IO[str] | str | Path) -> None:
    """Write events one record per line, in the order given.

    A line is a head (kind and engineer) and a cell (file, timestamp,
    magnitude and commit). ``AnalysisRun.events``, a ``CanonicalEvents``, is
    written from its ``canonical_blocks``: no event is built, and each cell
    is formatted once for every block that shares it. Any other stream is
    written a line per event, a chunk at a time, so a one-pass stream is
    never held whole. A line has the bytes ``json.dumps`` gives the record
    with compact separators: strings ASCII-escaped, and numbers as ``repr``
    prints a plain int or float, made so once per credit or event.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_event_log(events, fh)
        return
    q = _Quoted()
    heads = _Heads(q)

    def cell(path: str, source) -> str:  # source: the line's Credit or ContributionEvent
        return (f'{q[path]},"timestamp_ms":{source.timestamp_ms!r},'
                f'"magnitude":{source.magnitude!r},"commit_ref":{q[source.commit_ref]}}}\n')

    if not isinstance(events, CanonicalEvents):
        events = iter(events)
        while chunk := list(islice(events, 4096)):  # one write per few thousand lines
            sink.write("".join([
                heads[e.kind, e.engineer_id] + cell(e.file_path, _json_numbers(e, True))
                for e in chunk
            ]))
        return
    credit = [_json_numbers(c, c.kind is EventKind.MEETING) for c in events.credit]
    parts: list[str] = []
    lines = 0
    for _, kind, engineer, cells in canonical_blocks(credit, cell):
        head = heads[kind, engineer]
        parts += head, head.join(cells)  # every cell ends its line
        lines += len(cells)
        if lines >= 4096:
            sink.write("".join(parts))
            parts.clear()
            lines = 0
    sink.write("".join(parts))


def event_from_record(record, where: str) -> ContributionEvent:
    """Validate one record with all six ``FIELDS``; errors name ``where``."""
    if not isinstance(record, Mapping):
        raise InputDataError(f"{where}: record must be an object")
    kind_raw = field(record, "kind", str, where)
    try:
        kind = EventKind(kind_raw)
    except ValueError:
        raise InputDataError(f"{where}: field 'kind' has unknown value {kind_raw!r}") from None
    try:
        return ContributionEvent(
            kind=kind,
            engineer_id=field(record, "engineer_id", str, where),
            file_path=field(record, "file_path", str, where),
            timestamp_ms=field(record, "timestamp_ms", int, where),
            magnitude=float(field(record, "magnitude", (int, float), where)),
            commit_ref=field(record, "commit_ref", str, where),
        )
    except (ValueError, OverflowError) as exc:
        raise InputDataError(f"{where}: field 'magnitude' invalid: {exc}") from None


def events_from_records(records: Iterable[tuple[str, object]]) -> list[ContributionEvent]:
    """Events from ``(where, record)`` pairs, in order.

    A record that is already a ``ContributionEvent`` is taken as is. A second
    first-authorship event for the same file is rejected.
    """
    events: list[ContributionEvent] = []
    first_authored: set[str] = set()
    for where, record in records:
        if isinstance(record, ContributionEvent):
            event = record
        else:
            event = event_from_record(record, where)
        if event.kind is EventKind.FIRST_AUTHORSHIP:
            if event.file_path in first_authored:
                raise InputDataError(
                    f"{where}: field 'kind' duplicates first authorship "
                    f"for file {event.file_path!r}"
                )
            first_authored.add(event.file_path)
        events.append(event)
    return events


def _log_records(lines: Iterable[str]):
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"event log line {line_no}"
        try:
            line.encode("utf-8")  # a byte that is not UTF-8 was read as a lone surrogate
        except UnicodeEncodeError:
            raise InputDataError(f"{where}: not UTF-8") from None
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputDataError(f"{where}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise InputDataError(f"{where}: invalid JSON (nested too deeply)") from None
        yield where, record


def read_event_log(source: IO[str] | str | Path) -> list[ContributionEvent]:
    """Read and validate an event log; malformed lines fail with their number."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return read_event_log(fh)
    return events_from_records(_log_records(source))
