"""Command-line interface.

Two subcommands: ``analyze`` runs the ingestion and scoring pipeline on a
git repository, ``evaluate`` scores a predictions file against human ground
truth. Exit codes: 0 success, 1 usage or configuration error, 2 input-data
error, 3 repository error.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import BusFactorError, ConfigError, InputDataError
from .eventlog import write_event_log
from .inputs import load_json
from .model import AlgorithmParams, collector_paused, parse_instant
from .pipeline import (
    ALGORITHM_CHOICES,
    render_evaluation_text,
    render_text,
    run_analysis,
    to_json,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for bad
    # input data and reports usage problems with exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="busfactor",
        description="Estimate a project's bus factor from git history, "
        "code reviews, and meetings.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    analyze = sub.add_parser(
        "analyze",
        help="analyze a repository and report its bus factor",
        description="Analyze a git repository and report bus factor, key "
        "engineers, and per-file authorship.",
    )
    analyze.add_argument("--repo", required=True, help="path to the git repository")
    analyze.add_argument("--branch", help="branch to analyze (default: checked-out branch)")
    analyze.add_argument("--reviews", help="JSON file with code-review metadata")
    analyze.add_argument("--meetings", help="JSON file with meeting metadata")
    analyze.add_argument("--config", help="JSON file with algorithm parameters")
    analyze.add_argument(
        "--algorithm", choices=ALGORITHM_CHOICES, default="multimodal",
        help="scoring algorithm (default: %(default)s)",
    )
    analyze.add_argument(
        "--as-of", dest="as_of", metavar="ISO8601",
        help="analysis instant (default: the newest timestamp among the commits "
        "and the review and meeting credit kept for them)",
    )
    analyze.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output format (default: %(default)s)",
    )
    analyze.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="override one algorithm parameter (repeatable, wins over --config)",
    )
    analyze.add_argument(
        "--dump-events", metavar="FILE",
        help="also write the combined event log as JSON lines",
    )
    analyze.add_argument("--output", metavar="FILE", help="write the report here instead of stdout")

    evaluate = sub.add_parser(
        "evaluate",
        help="score predictions against human ground truth",
        description="Compare predicted bus factors and key engineers with "
        "ground-truth estimates.",
    )
    evaluate.add_argument("--predictions", required=True, help="predictions JSON file")
    evaluate.add_argument("--truth", required=True, help="ground-truth JSON file")
    evaluate.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output format (default: %(default)s)",
    )
    evaluate.add_argument("--output", metavar="FILE", help="write the report here instead of stdout")
    return parser


def _parse_param_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw.strip()
        except RecursionError:
            raise ConfigError(f"--param {key}: value nests JSON too deeply to parse") from None
        if key == "meeting_exclude_keywords" and isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        overrides[key] = value
    return overrides


def load_config(config_path, overrides: dict | None = None) -> AlgorithmParams:
    """Merge defaults, a JSON config file, and explicit overrides, in order."""
    merged: dict = {}
    if config_path is not None:
        try:
            data = load_json(config_path, "config")
        except InputDataError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
        merged.update(data)
    if overrides:
        merged.update(overrides)
    return AlgorithmParams().replace(**merged)


@contextmanager
def _writing(path):
    """Report a failed write to ``path`` as one usage-error line."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _encodable(report: str) -> str:
    """``report``, once it is known to encode as UTF-8; check it before opening any sink.

    A JSON ``\\u`` escape can read a lone surrogate, which UTF-8 cannot encode;
    that is one input-data line naming its escape.
    """
    try:
        report.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InputDataError(
            f"the report holds the lone surrogate {exc.object[exc.start]!r}, which UTF-8 "
            "cannot encode; fix the \\u escape that reads it in the input"
        ) from None
    return report


def _write_output(report: str, output_path) -> None:
    if output_path is None:
        sys.stdout.write(report)
    else:
        with _writing(output_path):
            Path(output_path).write_text(report, encoding="utf-8")


def _run_analyze(args) -> int:
    params = load_config(args.config, _parse_param_overrides(args.param))
    as_of_ms = None
    if args.as_of is not None:
        try:
            as_of_ms = parse_instant(args.as_of)
        except ValueError as exc:
            raise ConfigError(f"--as-of: {exc}") from None
    run = run_analysis(
        args.repo,
        branch=args.branch,
        reviews_path=args.reviews,
        meetings_path=args.meetings,
        params=params,
        algorithm=args.algorithm,
        as_of_ms=as_of_ms,
    )
    render = render_text if args.format == "text" else to_json
    report = _encodable(render(run.report))  # before the dump, so a bad report writes nothing
    if args.dump_events:
        with _writing(args.dump_events):
            write_event_log(run.events, args.dump_events)
    _write_output(report, args.output)
    return 0


def _run_evaluate(args) -> int:
    from .evaluate import evaluate_predictions, load_predictions, load_truth

    warnings: list[str] = []
    predictions = load_predictions(args.predictions)
    truth = load_truth(args.truth)
    document = evaluate_predictions(predictions, truth, warnings=warnings)
    document["warnings"] = warnings
    render = render_evaluation_text if args.format == "text" else to_json
    _write_output(_encodable(render(document)), args.output)
    return 0


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused
    (``collector_paused``), since a run makes no cyclic garbage, and the
    caller's collector state comes back on every exit. The process entry,
    ``__main__.run``, turns the collector off before this module is imported
    and keeps it off to exit.
    """
    with collector_paused():
        return _main(argv)


def _main(argv) -> int:
    logging.basicConfig(
        level=logging.WARNING, format="busfactor: %(levelname)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("busfactor: error: a command is required\n")
        return 1
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_evaluate(args)
    except BusFactorError as exc:
        sys.stderr.write(f"busfactor: error: {exc}\n")
        return exc.exit_code
