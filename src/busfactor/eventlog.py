"""Contribution-event log serialization.

One JSON object per line, UTF-8, with the fields
{kind, engineer_id, file_path, timestamp_ms, magnitude, commit_ref}.
The log decouples ingestion from scoring: the engine can be driven from a
file without a live repository.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable

from .errors import InputDataError
from .inputs import field
from .model import ContributionEvent, EventKind

FIELDS = ("kind", "engineer_id", "file_path", "timestamp_ms", "magnitude", "commit_ref")


class _Quoted(dict):
    """JSON literals of the strings written so far; ids and paths repeat."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = encode_basestring_ascii(text)
        return literal


def write_event_log(events: Iterable[ContributionEvent], sink: IO[str] | str | Path) -> None:
    """Write events one record per line, in the order given.

    Each event is unpacked as the tuple it is, and a one-pass stream such
    as ``AnalysisRun.events`` is written a chunk at a time, never held whole.
    A line has the bytes ``json.dumps`` gives the record with compact
    separators: strings ASCII-escaped, and numbers as ``repr`` prints them,
    which is how json prints an int or a finite float.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_event_log(events, fh)
        return
    q = _Quoted()
    events = iter(events)
    while chunk := list(islice(events, 4096)):  # one write per few thousand lines
        sink.write("".join([
            f'{{"kind":{q[kind]},"engineer_id":{q[engineer]},"file_path":{q[path]},'
            f'"timestamp_ms":{timestamp_ms!r},"magnitude":{magnitude!r},"commit_ref":{q[ref]}}}\n'
            for timestamp_ms, _, engineer, path, ref, kind, magnitude in chunk
        ]))


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
