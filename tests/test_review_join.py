"""The review join against the naive reference join in review_reference.py.

``collab.emit_review_events`` over the merged reviews returns one credit per
(review, commit). Spelled out and put in canonical order, that must be
exactly the reference's events, with the same warnings in the same order.
"""
from hypothesis import given, settings, strategies as st

import review_reference
from busfactor.collab import ReviewRecord, emit_review_events, filter_reviews
from busfactor.identity import IdentityIndex, RawActor, merge_identities
from busfactor.model import Credit, EventKind
from order_reference import canonical_order, credit_events

from conftest import day_ms

# the first two resolve to one engineer through their shared profile
ACTORS = (
    RawActor("A", "a@x.io", "u-a"),
    RawActor("A", "a.alt@x.io", "u-a"),
    RawActor("B", "b@x.io"),
    RawActor("C", "c@x.io"),
)
FILES = ("f0.txt", "f1.txt", "f2.txt")
COMMITS = ("c0", "c1", "c2", "c3")

commits_st = st.lists(
    st.tuples(
        st.sampled_from(ACTORS),
        st.integers(min_value=0, max_value=8),
        st.lists(st.sampled_from(FILES), unique=True, max_size=3),  # may be empty
    ),
    min_size=1,
    max_size=len(COMMITS),
)
reviews_st = st.lists(
    st.tuples(
        st.sampled_from(["r0", "r1", "r2"]),  # duplicate ids allowed
        st.lists(st.sampled_from(ACTORS), max_size=4),  # duplicates and authors allowed
        st.lists(st.sampled_from([*COMMITS, "ghost"]), max_size=4),  # ids off the branch too
        st.integers(min_value=0, max_value=8),
        st.sampled_from(["merged", "MERGED", "open"]),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(commits_st, reviews_st)
def test_review_join_matches_reference(commits, reviews):
    identity = IdentityIndex(merge_identities(ACTORS))
    commit_index = {
        ref: Credit(
            (identity.resolve(actor),), ref, day_ms(step), 1.0, tuple(sorted(files)),
            EventKind.COMMIT,
        )
        for ref, (actor, step, files) in zip(COMMITS, commits)
    }
    records = [
        ReviewRecord(review_id, tuple(reviewers), tuple(commit_ids), day_ms(step), state)
        for review_id, reviewers, commit_ids, step, state in reviews
    ]
    expected, expected_warnings = review_reference.emit_review_events(
        records, commit_index, identity
    )
    warnings: list[str] = []
    joined = emit_review_events(
        filter_reviews(records), commit_index, identity, warnings=warnings
    )
    assert canonical_order(credit_events(joined)) == canonical_order(expected)
    assert warnings == expected_warnings
