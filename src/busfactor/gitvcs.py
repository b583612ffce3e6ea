"""Git history ingestion.

Reads a local repository through the ``git`` command-line tool and turns a
branch into contribution events: first authorships and commit contributions
for the files live at its head. Merge commits contribute only the paths whose
content differs from every parent (the conflict resolutions); a rename moves
a file's history to its new path, and a pure rename contributes nothing.
Commit authors resolve through an ``IdentityIndex`` built from all of them.
"""
from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from enum import Enum

from .errors import RepositoryError
from .identity import IdentityIndex, RawActor, normalize_email
from .inputs import warn
from .model import ContributionEvent, EventKind, canonical_order

RENAME_THRESHOLD = "60%"


class ChangeKind(str, Enum):
    ADDED = "added"
    MODIFIED = "modified"
    DELETED = "deleted"
    RENAMED = "renamed"


@dataclass(frozen=True)
class FileChange:
    path: str
    kind: ChangeKind
    from_path: str | None = None
    rename_similarity: int | None = None

    @property
    def content_changed(self) -> bool:
        if self.kind is ChangeKind.RENAMED:
            return self.rename_similarity is not None and self.rename_similarity < 100
        return self.kind is not ChangeKind.DELETED


@dataclass(frozen=True)
class CommitRecord:
    id: str
    author_email: str
    author_name: str
    timestamp_ms: int
    parent_ids: tuple[str, ...]
    changed_files: tuple[FileChange, ...] = ()

    @property
    def is_merge(self) -> bool:
        return len(self.parent_ids) >= 2


@dataclass(frozen=True)
class BranchSnapshot:
    live_files: frozenset[str]


@dataclass(frozen=True)
class CommitKnowledge:
    """Per-commit summary the review/meeting channels attach to."""

    author_id: str
    timestamp_ms: int
    file_paths: tuple[str, ...]


@dataclass
class VcsIngestion:
    events: list[ContributionEvent]
    commit_index: dict[str, CommitKnowledge]


def _git(repo_path, *args: str, allowed: tuple[int, ...] = ()) -> tuple[int, str]:
    """Run one git command in the repository: its exit status and stdout.

    Exit statuses other than 0 and ``allowed`` raise RepositoryError, and so
    does output that is not UTF-8.
    """
    command = f"git {' '.join(args[:2])}"
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=str(repo_path), capture_output=True,
        )
    except FileNotFoundError:
        raise RepositoryError(f"repository path does not exist: {repo_path}") from None
    except NotADirectoryError:
        raise RepositoryError(f"not a git repository: {repo_path}") from None
    if proc.returncode not in (0, *allowed):
        detail = proc.stderr.decode("utf-8", "replace").strip().splitlines()
        raise RepositoryError(
            f"{command} failed in {repo_path}: {detail[0] if detail else 'unknown error'}"
        )
    try:
        return proc.returncode, proc.stdout.decode("utf-8")
    except UnicodeDecodeError as exc:
        near = proc.stdout[max(exc.start - 16, 0) : exc.end + 16]
        raise RepositoryError(
            f"{command} in {repo_path} printed bytes that are not UTF-8 near {near!r}; "
            "file and author names must be UTF-8"
        ) from None


def _query(repo_path, *args: str) -> str | None:
    """Answer of a git query, or None when git says no (exit status 1)."""
    code, out = _git(repo_path, *args, allowed=(1, 128))
    if code == 128:
        raise RepositoryError(f"not a git repository: {repo_path}")
    return out.strip() if code == 0 else None


def default_branch(repo_path) -> str:
    """The branch HEAD points at, or 'HEAD' when detached."""
    return _query(repo_path, "symbolic-ref", "--short", "-q", "HEAD") or "HEAD"


def _resolve_head(repo_path, branch: str) -> str | None:
    """Head commit of the branch, or None for an unborn (empty) branch."""
    head = _query(repo_path, "rev-parse", "--verify", "--quiet", f"{branch}^{{commit}}")
    if head is not None:
        return head
    if _query(repo_path, "symbolic-ref", "-q", "HEAD") in (f"refs/heads/{branch}", branch):
        return None
    raise RepositoryError(f"branch {branch!r} not found in {repo_path}")


_KIND_OF_STATUS = {
    "A": ChangeKind.ADDED,
    "C": ChangeKind.ADDED,
    "M": ChangeKind.MODIFIED,
    "T": ChangeKind.MODIFIED,
    "D": ChangeKind.DELETED,
    "R": ChangeKind.RENAMED,
}


def _read_log(out: str) -> dict[str, tuple[list[str], list[list[FileChange]]]]:
    """Commit id -> (header fields, one diff per header) from ``git log --raw -z``.

    Every token ends in NUL. A header is ``\\x01`` and the commit id, then
    four fields; a raw entry is a ``:meta`` token ending in its status, then
    one path, or two (source, destination) for a rename or copy. Paths are
    verbatim, so any UTF-8 file name reads back unchanged.
    """
    listed: dict[str, tuple[list[str], list[list[FileChange]]]] = {}
    tokens = iter(out.split("\x00"))
    for token in tokens:
        token = token.lstrip("\n")
        if token.startswith("\x01"):
            fields = [next(tokens) for _ in range(4)]
            listed.setdefault(token[1:], (fields, []))[1].append(diff := [])
        elif token.startswith(":"):
            status = token.rsplit(" ", 1)[-1]
            code, score = status[0], status[1:]
            path = next(tokens)
            if code in "RC":
                source, path = path, next(tokens)
            kind = _KIND_OF_STATUS.get(code)
            if kind is None:
                warn(None, f"ignoring unrecognized diff status {status!r}")
            elif kind is ChangeKind.RENAMED:
                diff.append(FileChange(path, kind, source, int(score) if score else None))
            else:
                diff.append(FileChange(path, kind))
    return listed


def _dfs_topological(head: str, parents_of: dict[str, tuple[str, ...]]) -> list[str]:
    """Depth-first order in which every commit follows all of its parents."""
    order: list[str] = []
    done: set[str] = set()
    stack: list[tuple[str, bool]] = [(head, False)]
    while stack:
        node, expanded = stack.pop()
        if node in done:
            continue
        if expanded:
            done.add(node)
            order.append(node)
            continue
        stack.append((node, True))
        for parent in reversed(parents_of[node]):
            if parent not in done:
                stack.append((parent, False))
    return order


def _intersect_parent_diffs(
    per_parent: list[list[FileChange]], n_parents: int
) -> list[FileChange]:
    """Paths changed relative to every parent; empty when any diff is empty.

    ``per_parent`` holds the diffs git printed against the parents. It may
    omit empty ones, which already forces an empty intersection when fewer
    diffs than parents arrive. A rename counts as deleting its old path and
    adding its new one: without copy or break detection, git forms a rename
    from exactly one deleted and one added path.
    """
    if len(per_parent) < n_parents:
        return []
    kind_of: list[dict[str, ChangeKind]] = []
    for diff in per_parent:
        kinds = {}
        for change in diff:
            if change.kind is ChangeKind.RENAMED:
                kinds[change.from_path] = ChangeKind.DELETED
                kinds[change.path] = ChangeKind.ADDED
            else:
                kinds[change.path] = change.kind
        kind_of.append(kinds)
    changes = []
    for path in sorted(set(kind_of[0]).intersection(*kind_of[1:])):
        kinds = {parent[path] for parent in kind_of}
        changes.append(FileChange(path, kinds.pop() if len(kinds) == 1 else ChangeKind.MODIFIED))
    return changes


def traverse_branch(repo_path, branch: str | None = None) -> list[CommitRecord]:
    """All commits reachable from the branch head, parents before children.

    The order is a deterministic depth-first topological order ending with
    the head. Each record carries its changed files: rename detection for
    ordinary commits, the intersection over parents for merges. One
    ``git log`` lists every commit, a merge once per parent.
    """
    head = _resolve_head(repo_path, branch or default_branch(repo_path))
    if head is None:
        return []
    _, out = _git(
        repo_path, "log", head, "--raw", "-z", "--root", "--diff-merges=separate",
        f"--find-renames={RENAME_THRESHOLD}", "--format=%x01%H%x00%P%x00%ae%x00%an%x00%at",
    )
    records: dict[str, CommitRecord] = {}
    for commit_id, ((parents, email, name, epoch), diffs) in _read_log(out).items():
        parent_ids = tuple(parents.split())
        if len(parent_ids) >= 2:
            changes = _intersect_parent_diffs(diffs, len(parent_ids))
        else:
            changes = diffs[0]
        records[commit_id] = CommitRecord(
            id=commit_id,
            author_email=email,
            author_name=name,
            timestamp_ms=int(epoch) * 1000,
            parent_ids=parent_ids,
            changed_files=tuple(changes),
        )
    order = _dfs_topological(head, {c: r.parent_ids for c, r in records.items()})
    return [records[commit_id] for commit_id in order]


def snapshot_branch(repo_path, head: str | None) -> BranchSnapshot:
    """The file paths present at ``head``; none when the branch is unborn (None).

    ``head`` is the commit ``traverse_branch`` ended with, so the snapshot
    and the history read the same commit.
    """
    if head is None:
        return BranchSnapshot(live_files=frozenset())
    _, out = _git(repo_path, "ls-tree", "-r", "-z", "--name-only", head)
    return BranchSnapshot(live_files=frozenset(p for p in out.split("\x00") if p))


@dataclass
class _FileState:
    adds: list[tuple[int, str, str]] = field(default_factory=list)  # (ts, commit, engineer)
    commits: list[tuple[str, int, str]] = field(default_factory=list)  # (engineer, ts, commit)


def emit_vcs_events(
    commits: list[CommitRecord],
    identity: IdentityIndex,
    snapshot: BranchSnapshot,
    *,
    warnings: list[str] | None = None,
) -> VcsIngestion:
    """Fold ordered commits into contribution events for head-live files.

    Every Added or content-changing entry yields a commit contribution for
    its author; the earliest add of a file identity (earliest timestamp,
    commit id breaking ties) additionally yields the first authorship.
    Renames move accumulated history to the new path without adding
    knowledge; files absent from the head snapshot are dropped.

    ``identity`` must be built from every commit author; each distinct
    (name, email) pair is resolved once. An author with a blank email is the
    engineer ``merge_identities`` made of its name, and the first one of each
    raw email string is named in one warning.
    """
    state: dict[str, _FileState] = {}
    authors: dict[str, str] = {}
    engineer_of = dict.fromkeys((c.author_name, c.author_email) for c in commits)
    blank_warned: set[str] = set()
    for name, email in engineer_of:
        engineer_of[name, email] = engineer = identity.resolve(RawActor(name, email))
        if not normalize_email(email) and email not in blank_warned:
            blank_warned.add(email)
            warn(
                warnings,
                f"author <{email}> missing from identity map; "
                f"attributed to new engineer '{engineer}'",
            )

    for commit in commits:
        engineer = authors[commit.id] = engineer_of[commit.author_name, commit.author_email]

        for change in commit.changed_files:
            if change.kind is ChangeKind.DELETED:
                state.pop(change.path, None)
                continue
            if change.kind is ChangeKind.RENAMED:
                entry = state[change.path] = state.pop(change.from_path, None) or _FileState()
                if not change.content_changed:
                    continue
            else:
                # an edit finds no state when a sibling branch deleted the path first
                entry = state.get(change.path) or state.setdefault(change.path, _FileState())
                if change.kind is ChangeKind.ADDED:
                    entry.adds.append((commit.timestamp_ms, commit.id, engineer))
            entry.commits.append((engineer, commit.timestamp_ms, commit.id))

    events: list[ContributionEvent] = []
    # commit id -> the head paths it added or edited, in sorted order
    touched: dict[str, dict[str, None]] = {}
    for path in sorted(snapshot.live_files):
        entry = state.get(path)
        if entry is None:
            warn(warnings, f"file {path!r} present at head but absent from history")
            continue
        if entry.adds:
            ts, commit_id, engineer = min(entry.adds)
            events.append(
                ContributionEvent(
                    kind=EventKind.FIRST_AUTHORSHIP,
                    engineer_id=engineer,
                    file_path=path,
                    timestamp_ms=ts,
                    commit_ref=commit_id,
                )
            )
        for engineer, ts, commit_id in entry.commits:
            events.append(
                ContributionEvent(
                    kind=EventKind.COMMIT,
                    engineer_id=engineer,
                    file_path=path,
                    timestamp_ms=ts,
                    commit_ref=commit_id,
                )
            )
            touched.setdefault(commit_id, {})[path] = None

    commit_index = {
        commit.id: CommitKnowledge(
            author_id=authors[commit.id],
            timestamp_ms=commit.timestamp_ms,
            file_paths=tuple(touched.get(commit.id, ())),
        )
        for commit in commits
    }
    return VcsIngestion(events=canonical_order(events), commit_index=commit_index)
