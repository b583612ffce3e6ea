import random

import pytest
from hypothesis import given, settings, strategies as st

from busfactor.collab import MeetingRecord, ReviewRecord, emit_meeting_events, emit_review_events
from busfactor.errors import InputDataError
from busfactor.gitvcs import (
    BranchSnapshot,
    ChangeKind,
    CommitRecord,
    FileChange,
    emit_vcs_events,
)
from busfactor.identity import Engineer, IdentityIndex, RawActor, merge_identities
from busfactor.model import Credit, EventKind


class TestMerging:
    def test_same_email_merges(self):
        engineers = merge_identities(
            [
                RawActor(name="Alice", email="alice@example.com"),
                RawActor(name="Alice Smith", email="ALICE@example.com "),
            ]
        )
        assert len(engineers) == 1
        assert engineers[0].id == "alice@example.com"
        assert engineers[0].names == frozenset({"Alice", "Alice Smith"})

    def test_profile_ref_bridges_emails(self):
        engineers = merge_identities(
            [
                RawActor(name="A", email="a@example.com", profile_ref="u7"),
                RawActor(name="A", email="a@corp.example.com", profile_ref="u7"),
            ]
        )
        assert len(engineers) == 1
        assert engineers[0].emails == frozenset({"a@example.com", "a@corp.example.com"})

    def test_transitive_closure_through_shared_links(self):
        # a <-(email)-> b via u1, b <-> c via shared second email
        engineers = merge_identities(
            [
                RawActor(email="one@example.com", profile_ref="u1"),
                RawActor(email="two@example.com", profile_ref="u1"),
                RawActor(email="two@example.com", profile_ref="u2"),
                RawActor(email="three@example.com", profile_ref="u2"),
            ]
        )
        assert len(engineers) == 1
        assert engineers[0].profile_refs == frozenset({"u1", "u2"})

    def test_distinct_actors_stay_distinct(self):
        engineers = merge_identities(
            [
                RawActor(name="A", email="a@example.com"),
                RawActor(name="B", email="b@example.com"),
            ]
        )
        assert [e.id for e in engineers] == ["a@example.com", "b@example.com"]

    def test_id_prefers_smallest_email(self):
        engineers = merge_identities(
            [
                RawActor(email="zed@example.com", profile_ref="u1"),
                RawActor(email="ann@example.com", profile_ref="u1"),
            ]
        )
        assert engineers[0].id == "ann@example.com"

    def test_id_falls_back_to_profile_then_name(self):
        only_profile = merge_identities([RawActor(name="Zoe", profile_ref="u9")])
        assert only_profile[0].id == "u9"
        only_name = merge_identities([RawActor(name="Zoe")])
        assert only_name[0].id == "Zoe"
        nothing = merge_identities([RawActor()])
        assert nothing[0].id == "unknown"

    def test_a_name_id_never_takes_an_email_id(self):
        engineers = merge_identities(
            [RawActor("bob@example.com", ""), RawActor("Bob", "bob@example.com")]
        )
        assert [(e.id, e.emails, e.names) for e in engineers] == [
            ("bob@example.com", frozenset({"bob@example.com"}), frozenset({"Bob"})),
            ("bob@example.com#2", frozenset(), frozenset({"bob@example.com"})),
        ]
        index = IdentityIndex(engineers)
        assert index.resolve(RawActor("bob@example.com", " ")) == "bob@example.com#2"
        assert index.resolve(RawActor("Robert", "BOB@example.com")) == "bob@example.com"

    def test_a_profile_ref_id_never_takes_an_email_id(self):
        actors = [RawActor("A", "x@y"), RawActor("B", "", "x@y"), RawActor("x@y#2", "")]
        engineers = merge_identities(actors)
        # the name "x@y#2" keeps its id, so the profile-ref engineer skips it
        assert [(e.id, e.names) for e in engineers] == [
            ("x@y", frozenset({"A"})), ("x@y#2", frozenset({"x@y#2"})), ("x@y#3", frozenset({"B"})),
        ]
        assert merge_identities(actors[::-1]) == engineers
        index = IdentityIndex(engineers)
        assert [index.resolve(a) for a in actors] == ["x@y", "x@y#3", "x@y#2"]

    def test_actors_with_neither_key_merge_by_name(self):
        engineers = merge_identities(
            [RawActor("Nobody", ""), RawActor(" Nobody ", " "), RawActor(), RawActor("unknown")]
        )
        assert [(e.id, e.names) for e in engineers] == [
            ("Nobody", frozenset({"Nobody"})),
            ("unknown", frozenset({"unknown"})),
            ("unknown#2", frozenset()),
        ]

    def test_blank_profile_ref_joins_nothing(self):
        engineers = merge_identities(
            [RawActor("A", "a@x", " "), RawActor("B", "b@x", " "), RawActor("C", "c@x", "")]
        )
        assert [(e.id, e.profile_refs) for e in engineers] == [
            ("a@x", frozenset()), ("b@x", frozenset()), ("c@x", frozenset()),
        ]

    def test_output_sorted_by_id(self):
        engineers = merge_identities(
            [RawActor(email=f"{c}@example.com") for c in "dcba"]
        )
        assert [e.id for e in engineers] == sorted(e.id for e in engineers)

    def test_idempotent(self):
        actors = [
            RawActor(name="A", email="a@example.com", profile_ref="u1"),
            RawActor(name="A2", email="a2@example.com", profile_ref="u1"),
            RawActor(name="B", email="b@example.com"),
        ]
        once = merge_identities(actors)
        again = merge_identities(
            [
                RawActor(name=sorted(e.names)[0] if e.names else "", email=email, profile_ref=ref)
                for e in once
                for email in sorted(e.emails)
                for ref in (sorted(e.profile_refs) or [None])
            ]
        )
        assert [(e.id, e.emails, e.profile_refs) for e in again] == [
            (e.id, e.emails, e.profile_refs) for e in once
        ]


# names and profile refs that equal another actor's email or profile ref,
# so that ids taken from different pools clash
actor_strategy = st.builds(
    RawActor,
    name=st.sampled_from(["", "A", "B", "C", "a@x.io", "u1", "unknown", "a@x.io#2"]),
    email=st.sampled_from(["", "a@x.io", "b@x.io", "c@x.io", "d@x.io"]),
    profile_ref=st.sampled_from([None, "", " ", "u1", "u2", "u3", "a@x.io"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(actor_strategy, max_size=12))
def test_merge_is_order_independent(actors):
    expected = merge_identities(actors)
    shuffled = list(actors)
    random.Random(17).shuffle(shuffled)
    assert merge_identities(shuffled) == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(actor_strategy, max_size=10))
def test_merge_matches_connected_components(actors):
    """Brute-force oracle: union by shared normalized email or profile ref."""
    engineers = merge_identities(actors)

    keyed = []
    for actor in actors:
        keys = set()
        if actor.email.strip():
            keys.add(("e", actor.email.strip().lower()))
        if actor.profile_ref and actor.profile_ref.strip():
            keys.add(("p", actor.profile_ref))
        keyed.append(keys)
    components: list[set] = []
    for keys in keyed:
        if not keys:
            components.append(set(keys))
            continue
        touching = [c for c in components if c & keys]
        merged = set(keys).union(*touching) if touching else set(keys)
        components = [c for c in components if not (c & keys)] + [merged]

    expected_emails = sorted(
        tuple(sorted(k[1] for k in component if k[0] == "e"))
        for component in components
        if component
    )
    got_emails = sorted(tuple(sorted(e.emails)) for e in engineers if e.emails or e.profile_refs)
    # engineers with neither email nor profile come from blank actors; ignore
    got_emails = [t for t in got_emails]
    assert got_emails == expected_emails
    assert len({e.id for e in engineers}) == len(engineers)
    index = IdentityIndex(engineers)
    owner = {("e", k): e.id for e in engineers for k in e.emails}
    owner.update({("p", k): e.id for e in engineers for k in e.profile_refs})
    for actor in actors:
        email, ref = actor.email.strip().lower(), (actor.profile_ref or "").strip()
        if email or ref:
            assert index.resolve(actor) == owner[("e", email) if email else ("p", ref)]


class TestIdentityIndex:
    def test_resolution_by_email_then_profile_then_name(self):
        index = IdentityIndex(merge_identities(
            [RawActor(name="A", email="a@example.com", profile_ref="u1"), RawActor(name="Nobody")]
        ))
        assert index.resolve(RawActor(email=" A@EXAMPLE.COM")) == "a@example.com"
        assert index.resolve(RawActor(profile_ref=" u1 ")) == "a@example.com"
        stale = RawActor(email="missing@example.com", profile_ref="u1")
        assert index.resolve(stale) == "a@example.com"
        assert index.resolve(RawActor(name=" Nobody", email=" ")) == "Nobody"

    @pytest.mark.parametrize("actor", [
        RawActor(email="missing@example.com"),
        RawActor(profile_ref="u2"),
        RawActor(name="A"),  # a name resolves only an actor with neither key
        RawActor(),
    ])
    def test_actor_outside_the_index_is_an_error(self, actor):
        index = IdentityIndex(merge_identities([RawActor(name="A", email="a@example.com")]))
        with pytest.raises(InputDataError, match="not in the identity index") as raised:
            index.resolve(actor)
        assert "\n" not in str(raised.value)

    def test_an_actor_outside_the_index_raises_on_every_call(self):
        index = IdentityIndex(merge_identities([RawActor(name="A", email="a@example.com")]))
        known, unknown = RawActor(email="A@example.com"), RawActor(email="zed@example.com")
        for _ in range(3):
            assert index.resolve(known) == "a@example.com"
            with pytest.raises(InputDataError, match="zed@example.com"):
                index.resolve(unknown)
        # an equal actor is the same actor
        assert index.resolve(RawActor(email="A@example.com")) == "a@example.com"

    @pytest.mark.parametrize("emit", ["vcs", "review", "meeting"])
    def test_emitters_reject_an_actor_outside_the_index(self, emit):
        index = IdentityIndex(merge_identities([RawActor(name="A", email="a@example.com")]))
        zed = RawActor(name="Zed", email="zed@example.com")
        knowledge = {"c1": Credit(("a@example.com",), "c1", 0, 1.0, ("a.txt",), EventKind.COMMIT)}
        added = (FileChange("a.txt", ChangeKind.ADDED),)
        calls = {
            "vcs": lambda: emit_vcs_events(
                [CommitRecord("c1", zed.email, zed.name, 0, (), added)],
                index,
                BranchSnapshot(frozenset({"a.txt"})),
            ),
            "review": lambda: emit_review_events(
                [ReviewRecord("R1", (zed,), ("c1",), 0, "merged")], knowledge, index
            ),
            "meeting": lambda: emit_meeting_events(
                [MeetingRecord("M1", (zed,), 0, 30.0, "sync")], knowledge, index
            ),
        }
        with pytest.raises(InputDataError, match="zed@example.com"):
            calls[emit]()

    def test_engineer_is_frozen_value_object(self):
        e = Engineer(id="x", emails=frozenset({"x"}))
        with pytest.raises(AttributeError):
            e.id = "y"
