"""Metamorphic properties of whole runs: input changes that must leave the
report alone, or move only the fields they name.

Hypothesis draws small histories (the generator of test_history_fold.py:
merges, renames, deletes and re-adds) with reviews and meetings, as
test_pipeline_reference.py does, and compares the report bytes of
``--algorithm both`` runs, or their clock-skew messages:

* shifting every commit, review, meeting and the analysis instant by one
  offset changes only the three ``as_of`` fields;
* replacing meetings by two meetings each, with half the minutes, the same
  start and the same attendees, changes nothing;
* an order-preserving relabel of the author emails changes only the
  engineer ids, relabelled the same way.

A commit id hashes its author and time, so reports name commits by their
index in the drawn history before they are compared. The shift and the
relabel change every commit id; the first authorship of a path that two
commits add at one instant goes to the first of them in fold order, which
no commit id decides, and the tied case is pinned below.
"""
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from busfactor.errors import ClockSkewError
from busfactor.model import format_instant, parse_instant
from busfactor.pipeline import run_analysis, to_json
from conftest import EPOCH0
from test_history_fold import AUTHORS, Commit, History, body, build, histories
from test_pipeline_reference import ACTORS, hour, meetings_st, reviews_st, write_inputs

SHIFT_S = 1000 * 86_400 + 3
SHIFT_MS = SHIFT_S * 1000
# each email's local part, relabelled in the same order: ann < ben < cyd < dan,
# and every one of them sorts before the profile refs ("u-...") as before
RELABEL = {"alice": "ann", "bob": "ben", "carol": "cyd", "dave": "dan"}
LOCAL_PART = re.compile(r"(alice|bob|carol|dave)(?=@)", re.IGNORECASE)

as_of_st = st.one_of(st.none(), st.integers(-2, 400).map(hour))  # some before the last event


def relabel(text: str) -> str:
    return LOCAL_PART.sub(lambda m: RELABEL[m.group(1).lower()], text)


def report(tmp: Path, name: str, history, reviews, meetings, as_of_ms, **build_args) -> str:
    """The report bytes of a run on a fresh build of ``history``, or its
    clock-skew message, with each commit id written as its history index."""
    directory = tmp / name
    directory.mkdir()
    sha = build(history, directory, **build_args)
    reviews_path, meetings_path = write_inputs(directory, reviews, meetings, sha)
    try:
        run = run_analysis(directory / "repo", reviews_path=reviews_path,
                           meetings_path=meetings_path, algorithm="both", as_of_ms=as_of_ms)
        text = to_json(run.report)
    except ClockSkewError as exc:
        text = str(exc)
    for i, commit_id in sha.items():
        text = text.replace(commit_id, f"<commit {i}>")
    return text


def shifted(text: str) -> str:
    """``text`` with every instant shifted by ``SHIFT_MS``: the three ``as_of``
    fields of a report, the epoch milliseconds of a clock-skew message."""
    if not text.startswith("{"):
        return re.sub(r"-?\d{12,}", lambda m: str(int(m.group()) + SHIFT_MS), text)
    doc = json.loads(text)
    for single in (doc, *doc["results"].values()):
        single["as_of"] = format_instant(parse_instant(single["as_of"]) + SHIFT_MS)
    return to_json(doc)


def assert_shift_moves_only_as_of(history, reviews, meetings, as_of_ms):
    later_reviews = [{**r, "completed_at": r["completed_at"] + SHIFT_MS} for r in reviews]
    later_meetings = [{**m, "start": m["start"] + SHIFT_MS} for m in meetings]
    later_as_of = None if as_of_ms is None else as_of_ms + SHIFT_MS
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        before = report(tmp, "before", history, reviews, meetings, as_of_ms)
        after = report(tmp, "after", history, later_reviews, later_meetings, later_as_of,
                       epoch=EPOCH0 + SHIFT_S)
    assert after == shifted(before)


@settings(max_examples=15, deadline=None)
@given(histories(), reviews_st, meetings_st, as_of_st)
def test_shifting_every_instant_moves_only_as_of(history, reviews, meetings, as_of_ms):
    assert_shift_moves_only_as_of(history, reviews, meetings, as_of_ms)


def test_shifting_a_tie_of_two_adds_of_one_path_moves_only_as_of():
    # alice and bob add f3.txt on two branches at one instant, and alice's
    # version is merged: her add comes first in fold order, whatever the ids
    base = {f"f{i}.txt": body(f"v{i}") for i in range(3)}
    history = History((
        Commit((), base, 0, 0),
        Commit((0,), {**base, "f3.txt": body("v3")}, 0, 0),
        Commit((0,), {**base, "f3.txt": body("v4")}, 1, 0),
        Commit((1, 2), {**base, "f3.txt": body("v3")}, 0, 0),
    ), 3)
    assert_shift_moves_only_as_of(history, [], [], None)


@settings(max_examples=15, deadline=None)
@given(histories(), reviews_st, meetings_st, as_of_st, st.randoms(use_true_random=False))
def test_splitting_meetings_in_halves_changes_nothing(history, reviews, meetings, as_of_ms, rng):
    halved = set(rng.sample(range(len(meetings)), len(meetings) // 2))
    split = []
    for i, meeting in enumerate(meetings):
        if i in halved:
            half = {**meeting, "duration_minutes": meeting["duration_minutes"] / 2}
            split += [half, dict(half)]
        else:
            split.append(meeting)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        whole = report(tmp, "whole", history, reviews, meetings, as_of_ms)
        halves = report(tmp, "halves", history, reviews, split, as_of_ms)
    assert halves == whole


def test_the_relabel_keeps_the_order_of_every_id():
    ids = sorted({
        *(email for _, email in AUTHORS),
        *(a[key].strip().lower() for a in ACTORS for key in ("email", "profile_ref") if key in a),
    })
    assert sorted(map(relabel, ids)) == list(map(relabel, ids))
    assert relabel(" BOB@example.com") == " ben@example.com"


@settings(max_examples=15, deadline=None)
@given(histories(), reviews_st, meetings_st, as_of_st)
def test_an_order_preserving_relabel_of_emails_relabels_only_the_ids(
    history, reviews, meetings, as_of_ms
):
    def relabelled(actors):
        return [{**a, "email": relabel(a["email"])} if "email" in a else a for a in actors]

    other_reviews = [{**r, "reviewers": relabelled(r["reviewers"])} for r in reviews]
    other_meetings = [{**m, "participants": relabelled(m["participants"])} for m in meetings]
    other_authors = tuple((name, relabel(email)) for name, email in AUTHORS)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        before = report(tmp, "before", history, reviews, meetings, as_of_ms)
        after = report(tmp, "after", history, other_reviews, other_meetings, as_of_ms,
                       authors=other_authors)
    assert after == relabel(before)
