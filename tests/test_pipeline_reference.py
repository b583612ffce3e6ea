"""Whole runs against the end-to-end reference pipeline in pipeline_reference.py.

Hypothesis draws small histories (the generator of test_history_fold.py:
merges, renames, deletes and re-adds), reviews of those commits and of
commits off the branch, and meetings around them. ``run_analysis`` must give
the reference's report and event dump byte for byte, or its clock-skew
message, under both algorithms and with and without an analysis instant.
Shuffling the review and meeting files must change no report byte but the
order of warnings; the dump, whose meetings tied on the whole sort key keep
their input order, must still be the reference's for the shuffled files.
"""
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import pipeline_reference
from busfactor.collab import parse_meetings, parse_reviews
from busfactor.errors import ClockSkewError
from busfactor.eventlog import write_event_log
from busfactor.pipeline import run_analysis, to_json
from conftest import EPOCH0
from test_history_fold import build, histories

ACTORS = (
    {"name": "Alice", "email": "alice@example.com"},
    {"email": " BOB@example.com"},
    {"email": "carol@example.com", "profile_ref": "u-carol"},
    {"profile_ref": "u-carol"},
    {"name": "Dave", "email": "dave@example.com", "profile_ref": "u-dave"},
    {"profile_ref": "u-erin"},
)
HOUR_MS = 3_600_000


def hour(h: int) -> int:
    return EPOCH0 * 1000 + h * HOUR_MS


reviews_st = st.lists(
    st.fixed_dictionaries({
        "id": st.sampled_from(["r0", "r1", "r2"]),
        "reviewers": st.lists(st.sampled_from(ACTORS), max_size=3),
        "commits": st.lists(st.one_of(st.integers(0, 9), st.just("ghost")), max_size=3),
        "completed_at": st.integers(0, 8).map(hour),
        "state": st.sampled_from(["merged", "MERGED", "open"]),
    }),
    max_size=4,
)
meetings_st = st.lists(
    st.fixed_dictionaries({
        "id": st.sampled_from(["m0", "m1"]),
        "participants": st.lists(st.sampled_from(ACTORS), max_size=4),
        # the default window is a week: most meetings reach some commit, not all
        "start": st.sampled_from([-200, -100, 0, 3, 6, 100, 180]).map(hour),
        "duration_minutes": st.sampled_from([15, 30.5, 60, 240]),
        "title": st.sampled_from(["sync", "design", "reading group"]),
    }),
    max_size=4,
)


def write_inputs(directory: Path, reviews, meetings, sha) -> tuple[Path, Path]:
    """The drawn reviews and meetings as input files, commit indices as ids."""
    reviews = [
        {**{k: v for k, v in review.items() if k != "commits"}, "commit_ids": [
            sha.get(c, "0" * 40) if isinstance(c, int) else c for c in review["commits"]
        ]}
        for review in reviews
    ]
    paths = directory / "reviews.json", directory / "meetings.json"
    for path, records in zip(paths, (reviews, meetings)):
        path.write_text(json.dumps(records), encoding="utf-8")
    return paths


def program(repo, reviews_path, meetings_path, algorithm, as_of_ms):
    """The report and dump bytes of a run, or its clock-skew message and None."""
    try:
        run = run_analysis(repo, reviews_path=reviews_path, meetings_path=meetings_path,
                           algorithm=algorithm, as_of_ms=as_of_ms)
    except ClockSkewError as exc:
        return str(exc), None
    dump = io.StringIO()
    write_event_log(run.events, dump)
    return to_json(run.report), dump.getvalue()


def reference(history, reviews_path, meetings_path, algorithm, as_of_ms):
    try:
        report, dump = pipeline_reference.analyze(
            history, parse_reviews(reviews_path), parse_meetings(meetings_path), "repo",
            algorithm=algorithm, as_of_ms=as_of_ms,
        )
    except ClockSkewError as exc:
        return str(exc), None
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n", dump


def without_warnings(report: str):
    doc = json.loads(report)
    for single in doc.get("results", {"": doc}).values():
        single["warnings"] = sorted(single["warnings"])
    return doc


@settings(max_examples=30, deadline=None)
@given(
    histories(),
    reviews_st,
    meetings_st,
    st.sampled_from(["multimodal", "baseline", "both"]),
    st.one_of(st.none(), st.integers(-2, 400).map(hour)),  # some before the last event
    st.randoms(use_true_random=False),
)
def test_run_matches_the_reference_pipeline(history, reviews, meetings, algorithm, as_of_ms, rng):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sha = build(history, tmp)
        repo = tmp / "repo"
        reviews_path, meetings_path = write_inputs(tmp, reviews, meetings, sha)
        expected = pipeline_reference.read_history(repo)
        report, dump = program(repo, reviews_path, meetings_path, algorithm, as_of_ms)
        assert (report, dump) == reference(expected, reviews_path, meetings_path, algorithm,
                                           as_of_ms)

        rng.shuffle(reviews)
        rng.shuffle(meetings)
        shuffled = tmp / "shuffled"
        shuffled.mkdir()
        paths = write_inputs(shuffled, reviews, meetings, sha)
        report_shuffled, dump_shuffled = program(repo, *paths, algorithm, as_of_ms)
        assert (report_shuffled, dump_shuffled) == reference(expected, *paths, algorithm, as_of_ms)
    if dump is not None:  # a report, not a clock-skew message
        assert without_warnings(report_shuffled) == without_warnings(report)
    else:
        assert report_shuffled == report
