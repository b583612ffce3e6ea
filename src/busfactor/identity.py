"""Canonical identity merging.

Raw actors observed in commits, reviews, and meetings are collapsed into
canonical Engineers: two actors belong to the same person when they share a
normalized email or a platform profile ref, transitively.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import Engineer

@dataclass(frozen=True)
class RawActor:
    """An identity sighting before merging: display name, email, optional profile ref."""

    name: str = ""
    email: str = ""
    profile_ref: str | None = None


def normalize_email(email: str) -> str:
    return email.strip().lower()


def _engineer_id(emails: set[str], profile_refs: set[str], names: set[str]) -> str:
    for pool in (emails - {""}, profile_refs, names):
        if pool:
            return min(pool)
    return "unknown"


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
    """Collapse actors sharing an email or profile ref into canonical Engineers.

    Emails are lowercased and trimmed before comparison; the closure is
    transitive over both keys. The result is sorted by engineer id and is
    independent of input order. Idempotent: feeding the output identities
    back in yields the same partition.
    """
    actors = [
        a if isinstance(a, RawActor) else RawActor(*a)
        for a in raw_actors
    ]
    if not actors:
        return []

    uf = _UnionFind()
    by_email: dict[str, int] = {}
    by_profile: dict[str, int] = {}
    for i, actor in enumerate(actors):
        uf.add(i)
        email = normalize_email(actor.email)
        if email:
            if email in by_email:
                uf.union(i, by_email[email])
            else:
                by_email[email] = i
        if actor.profile_ref:
            ref = actor.profile_ref.strip()
            if ref in by_profile:
                uf.union(i, by_profile[ref])
            else:
                by_profile[ref] = i

    groups: dict[int, list[RawActor]] = {}
    for i, actor in enumerate(actors):
        groups.setdefault(uf.find(i), []).append(actor)

    engineers = []
    for members in groups.values():
        emails = {normalize_email(m.email) for m in members if normalize_email(m.email)}
        names = {m.name.strip() for m in members if m.name.strip()}
        refs = {m.profile_ref.strip() for m in members if m.profile_ref and m.profile_ref.strip()}
        engineers.append(
            Engineer(
                id=_engineer_id(emails, refs, names),
                emails=frozenset(emails),
                names=frozenset(names),
                profile_refs=frozenset(refs),
            )
        )
    return sorted(engineers, key=lambda e: e.id)


class IdentityIndex:
    """Resolves emails and profile refs to canonical engineer ids.

    Unknown commit authors can be registered on the fly so ingestion never
    stalls on an unmapped identity.
    """

    def __init__(self, engineers) -> None:
        self.engineers: dict[str, Engineer] = {}
        self._by_email: dict[str, str] = {}
        self._by_profile: dict[str, str] = {}
        self._auto: dict[tuple[str, str], str] = {}
        for eng in engineers:
            self._register(eng)

    def _register(self, eng: Engineer) -> None:
        self.engineers[eng.id] = eng
        for email in eng.emails:
            self._by_email[email] = eng.id
        for ref in eng.profile_refs:
            self._by_profile[ref] = eng.id

    def resolve_email(self, email: str) -> str | None:
        return self._by_email.get(normalize_email(email))

    def resolve_profile(self, profile_ref: str) -> str | None:
        return self._by_profile.get(profile_ref.strip())

    def resolve(self, email: str = "", profile_ref: str | None = None) -> str | None:
        if email:
            found = self.resolve_email(email)
            if found is not None:
                return found
        if profile_ref:
            return self.resolve_profile(profile_ref)
        return None

    def resolve_or_create(self, name: str, email: str) -> str:
        """Resolve a commit author, creating a fresh engineer when unseen."""
        found = self.resolve_email(email)
        if found is not None:
            return found
        key = (normalize_email(email), name.strip())
        if key in self._auto:
            return self._auto[key]
        eng = merge_identities([RawActor(name=name, email=email)])[0]
        self._register(eng)
        self._auto[key] = eng.id
        return eng.id
