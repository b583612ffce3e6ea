"""Key-sort reference of the canonical event order, for oracle tests.

``credit_events`` spells credit out as events, one per engineer and file,
and ``canonical_order`` sorts events stably on ``SORT_KEY``. The package
puts credit in the same order through ``model.canonical_blocks`` without
building a key per event; ``model.canonical_order`` and
``model.CanonicalEvents`` must give exactly the events these do.
Intentionally simple and slow.
"""
from collections.abc import Iterator

from busfactor.model import KIND_ORDER, ContributionEvent


def SORT_KEY(event: ContributionEvent) -> tuple:
    """The canonical order of events: (timestamp, kind rank, engineer, file, commit)."""
    kind, engineer_id, file_path, timestamp_ms, _, commit_ref = event
    return timestamp_ms, KIND_ORDER[kind], engineer_id, file_path, commit_ref


def canonical_order(events) -> list[ContributionEvent]:
    """Sort events by ``SORT_KEY``; events that tie on it keep their order."""
    return sorted(events, key=SORT_KEY)


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
