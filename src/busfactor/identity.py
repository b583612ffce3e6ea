"""Canonical identity merging and resolution.

Raw actors observed in commits, reviews, and meetings are collapsed into
canonical Engineers: two actors belong to the same person when they share a
key, transitively. One rule (``_keys``) gives an actor's keys: its
normalized email and its stripped profile ref, each unless blank, and with
neither (a commit author with an empty email) its stripped name. Merging
unions by those keys, and an ``IdentityIndex`` built from the engineers
resolves an actor by the first of them it indexes, and raises for an actor
that shares no key with any of them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InputDataError
from .model import Engineer

@dataclass(frozen=True)
class RawActor:
    """An identity sighting before merging: display name, email, optional profile ref."""

    name: str = ""
    email: str = ""
    profile_ref: str | None = None


def normalize_email(email: str) -> str:
    return email.strip().lower()


def _ref(actor: RawActor) -> str:
    return (actor.profile_ref or "").strip()


def _engineer_id(emails: set[str], profile_refs: set[str], names: set[str]) -> str:
    for pool in (emails, profile_refs, names):
        if pool:
            return min(pool)
    return "unknown"


def _keys(actor: RawActor) -> list[tuple[str, str]]:
    """The ``(kind, key)`` pairs ``actor`` merges and resolves by, in the order
    they are tried: its normalized email and stripped profile ref, each unless
    blank; with neither, its stripped name."""
    keys = [k for k in (("email", normalize_email(actor.email)), ("ref", _ref(actor))) if k[1]]
    return keys or [("name", actor.name.strip())]


def _distinct_ids(engineers: list[Engineer]) -> list[Engineer]:
    """The engineers, sorted by id, no id held twice.

    Ids clash only across pools (an email, a profile ref, a name). The id
    goes to an engineer with an email, else one with a profile ref, else one
    with a name; each other takes the first ``ID#n`` (n = 2, 3, ...) that no
    engineer holds, in that order.
    """
    taken = {e.id for e in engineers}
    kept: set[str] = set()
    out = []
    for eng in sorted(engineers, key=lambda e: (not e.emails, not e.profile_refs, not e.names, e.id)):
        if eng.id in kept:
            n = 2
            while f"{eng.id}#{n}" in taken:
                n += 1
            eng = replace(eng, id=f"{eng.id}#{n}")
            taken.add(eng.id)
        kept.add(eng.id)
        out.append(eng)
    return sorted(out, key=lambda e: e.id)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def add(self, x: int) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def merge_identities(raw_actors) -> list[Engineer]:
    """Collapse actors that share a key (``_keys``), transitively, into Engineers.

    An engineer's id is its smallest email, else profile ref, else name
    (``unknown`` with none); ids are unique (``_distinct_ids``). The result
    is sorted by engineer id and is independent of input order. Idempotent:
    feeding the output identities back in yields the same partition.
    """
    actors = list(raw_actors)
    uf = _UnionFind()
    first: dict[tuple[str, str], int] = {}  # (kind, key) -> first actor holding it
    for i, actor in enumerate(actors):
        uf.add(i)
        for key in _keys(actor):
            uf.union(i, first.setdefault(key, i))

    groups: dict[int, list[RawActor]] = {}
    for i, actor in enumerate(actors):
        groups.setdefault(uf.find(i), []).append(actor)

    engineers = []
    for members in groups.values():
        emails = {normalize_email(m.email) for m in members} - {""}
        names = {m.name.strip() for m in members} - {""}
        refs = {_ref(m) for m in members} - {""}
        engineers.append(
            Engineer(
                id=_engineer_id(emails, refs, names),
                emails=frozenset(emails),
                names=frozenset(names),
                profile_refs=frozenset(refs),
            )
        )
    return _distinct_ids(engineers)


class IdentityIndex:
    """Resolves each actor to the engineer ``merge_identities`` merged it into.

    The index must be built from the engineers of every actor it is asked
    to resolve; it never makes one up.
    """

    def __init__(self, engineers) -> None:
        self._ids: dict[tuple[str, str], str] = {}  # an actor's key -> engineer id
        for eng in engineers:
            keys = [*(("email", e) for e in eng.emails), *(("ref", r) for r in eng.profile_refs)]
            # an engineer with neither key was merged by name
            keys = keys or [("name", n) for n in eng.names or ("",)]
            self._ids.update(dict.fromkeys(keys, eng.id))

    def resolve(self, actor: RawActor) -> str:
        """The engineer id of the first key of ``actor`` (``_keys``) the index holds.

        Raises InputDataError for an actor the index was not built from.
        """
        for key in _keys(actor):
            found = self._ids.get(key)
            if found is not None:
                return found
        raise InputDataError(f"{actor!r} is not in the identity index")
