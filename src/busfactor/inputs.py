"""Helpers shared by every reader of outside input.

Typed field access, JSON file loading and the warning sink are written once
here so every input channel reports problems in the same words.
"""
from __future__ import annotations

import json
import logging
from collections.abc import Mapping
from pathlib import Path

from .errors import InputDataError
from .model import INSTANT_RANGE_MS

log = logging.getLogger(__name__)


def field(obj: Mapping, name: str, types, where: str):
    """The value of a required field, which must be one of ``types`` (never a bool)."""
    if name not in obj:
        raise InputDataError(f"{where}: missing field {name!r}")
    value = obj[name]
    if not isinstance(value, types) or isinstance(value, bool):
        raise InputDataError(f"{where}: field {name!r} has wrong type")
    return value


def instant(obj: Mapping, name: str, where: str) -> int:
    """The value of a required int field, an instant that a report can print."""
    value = field(obj, name, int, where)
    if value not in INSTANT_RANGE_MS:
        raise InputDataError(f"{where}: field {name!r} must be an instant in the years 1-9999 UTC")
    return value


def load_json(source, what: str):
    """Parse a JSON document from a path or a readable object."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            raise InputDataError(f"cannot read {what} file {source}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise InputDataError(
                f"{what} file {source} is not UTF-8: {exc.reason} at byte {exc.start}"
            ) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputDataError(f"{what} file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputDataError(f"{what} file nests JSON too deeply to parse") from None


def warn(sink: list[str] | None, message: str) -> None:
    """Log a warning and, when a sink is given, record it for the report."""
    log.warning("%s", message)
    if sink is not None:
        sink.append(message)
