"""Per-event reference writer of the event log, for oracle tests.

Builds each record as a dict and lets ``json.dumps`` print it.
``eventlog.write_event_log`` prints the same records with one f-string per
line and cached string literals; for every event the two must give the same
bytes. Intentionally simple and slow.
"""
import json


def event_to_record(event) -> dict:
    return {
        "kind": event.kind.value,
        "engineer_id": event.engineer_id,
        "file_path": event.file_path,
        "timestamp_ms": event.timestamp_ms,
        "magnitude": event.magnitude,
        "commit_ref": event.commit_ref,
    }


def write_event_log(events, sink) -> None:
    """Write events one record per line, in the order given."""
    for event in events:
        sink.write(json.dumps(event_to_record(event), separators=(",", ":")))
        sink.write("\n")
