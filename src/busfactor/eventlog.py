"""Contribution-event log serialization.

One JSON object per line, UTF-8, with the fields
{kind, engineer_id, file_path, timestamp_ms, magnitude, commit_ref}.
The log decouples ingestion from scoring: the engine can be driven from a
file without a live repository.
"""
from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable

from .errors import InputDataError
from .inputs import field
from .model import CanonicalEvents, ContributionEvent, EventKind, canonical_blocks

FIELDS = ContributionEvent._fields
#: The most characters ``write_event_log`` hands the sink at once (the log is
#: ASCII, so bytes too), well under the 128 KiB at which malloc maps fresh
#: pages for each string and its encoding, and unmaps them when freed.
WRITE_BYTES = 1 << 16


def write_event_log(events: Iterable[ContributionEvent], sink: IO[str] | str | Path) -> None:
    """Write events one record per line, in the order given.

    A line is a head (kind and engineer) and a cell (file, timestamp,
    magnitude and commit), written from one stream of blocks: the
    ``canonical_blocks`` of ``AnalysisRun.events``, a ``CanonicalEvents``,
    which builds no event and formats each cell once for every block that
    shares it, or else a block per event, read one at a time, so a one-pass
    stream is never held whole. Each head is formatted once a call. A line
    has the bytes ``json.dumps`` gives the record with compact separators:
    strings ASCII-escaped, and numbers as ``repr`` prints the plain ints and
    floats the record constructors store. The lines go to ``sink`` in writes
    of at most ``WRITE_BYTES``, unless one block alone is longer.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_event_log(events, fh)
        return
    q = functools.cache(encode_basestring_ascii)  # ids and paths repeat

    def cell(path: str, source) -> str:  # source: the line's Credit or ContributionEvent
        return (f'{q(path)},"timestamp_ms":{source.timestamp_ms!r},'
                f'"magnitude":{source.magnitude!r},"commit_ref":{q(source.commit_ref)}}}\n')

    @functools.cache  # once per kind and engineer, not per block
    def head(kind: EventKind, engineer: str) -> str:
        return f'{{"kind":{q(kind)},"engineer_id":{q(engineer)},"file_path":'

    if isinstance(events, CanonicalEvents):
        blocks = canonical_blocks(events.credit, cell)
    else:
        blocks = ((e.timestamp_ms, e.kind, e.engineer_id, [cell(e.file_path, e)]) for e in events)
    parts: list[str] = []
    size = 0
    for _, kind, engineer, cells in blocks:
        start = head(kind, engineer)
        text = start.join(cells)  # every cell ends its line
        if parts and size + len(start) + len(text) > WRITE_BYTES:
            sink.write("".join(parts))
            parts.clear()
            size = 0
        parts += start, text
        size += len(start) + len(text)
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
            magnitude=field(record, "magnitude", (int, float), where),
            commit_ref=field(record, "commit_ref", str, where),
        )
    except ValueError as exc:
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
