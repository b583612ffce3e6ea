"""Git history ingestion.

Reads a local repository through the ``git`` command-line tool and turns a
branch into contribution events: first authorships and commit contributions
for the files live at its head. Merge commits contribute only the paths whose
content differs from every parent (the conflict resolutions); a rename moves
a file's history to its new path, and a pure rename contributes nothing.
"""
from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from enum import Enum

from .errors import RepositoryError
from .identity import IdentityIndex
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
            ["git", "-c", "core.quotepath=false", *args],
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


def _unquote(raw: str) -> str:
    # git C-quotes paths containing control characters, quotes, or backslashes
    if len(raw) >= 2 and raw.startswith('"') and raw.endswith('"'):
        return (
            raw[1:-1]
            .encode("latin-1", "backslashreplace")
            .decode("unicode_escape")
            .encode("latin-1")
            .decode("utf-8")
        )
    return raw


def _parse_raw_line(line: str) -> FileChange | None:
    # ':100644 100644 abc1234 def5678 M\tpath' / '... R095\told\tnew'
    if not line.startswith(":") or "\t" not in line:
        return None
    meta, *paths = line.split("\t")
    status = meta.split()[-1]
    code, score = status[0], status[1:]
    if code == "A":
        return FileChange(_unquote(paths[0]), ChangeKind.ADDED)
    if code in ("M", "T"):
        return FileChange(_unquote(paths[0]), ChangeKind.MODIFIED)
    if code == "D":
        return FileChange(_unquote(paths[0]), ChangeKind.DELETED)
    if code == "R":
        return FileChange(
            _unquote(paths[1]),
            ChangeKind.RENAMED,
            from_path=_unquote(paths[0]),
            rename_similarity=int(score) if score else None,
        )
    if code == "C":
        return FileChange(_unquote(paths[1]), ChangeKind.ADDED)
    warn(None, f"ignoring unrecognized diff status {status!r}")
    return None


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

    ``per_parent`` holds the non-empty diffs against the parents (git omits
    empty ones, which already forces an empty intersection when fewer diffs
    than parents arrive). A rename counts as deleting its old path and adding
    its new one: without copy or break detection, git forms a rename from
    exactly one deleted and one added path.
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
        repo_path, "log", head, "--raw", "--root", "--diff-merges=separate",
        f"--find-renames={RENAME_THRESHOLD}", "--format=%x01%H%x00%P%x00%ae%x00%an%x00%at",
    )
    # commit id -> (header fields, its non-empty diffs: one per parent for merges)
    listed: dict[str, tuple[list[str], list[list[FileChange]]]] = {}
    for blob in out.split("\x01")[1:]:
        header, *lines = blob.split("\n")
        commit_id, *fields = header.split("\x00")
        diffs = listed.setdefault(commit_id, (fields, []))[1]
        changes = [change for line in lines if (change := _parse_raw_line(line))]
        if changes:
            diffs.append(changes)
    records: dict[str, CommitRecord] = {}
    for commit_id, ((parents, email, name, epoch), diffs) in listed.items():
        parent_ids = tuple(parents.split())
        if len(parent_ids) >= 2:
            changes = _intersect_parent_diffs(diffs, len(parent_ids))
        else:
            changes = diffs[0] if diffs else []
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
    """
    state: dict[str, _FileState] = {}
    commit_touch: dict[str, list[_FileState]] = {}
    authors: dict[str, str] = {}
    unknown_warned: set[str] = set()

    for commit in commits:
        engineer = identity.resolve_email(commit.author_email)
        if engineer is None:
            engineer = identity.resolve_or_create(commit.author_name, commit.author_email)
            if commit.author_email not in unknown_warned:
                unknown_warned.add(commit.author_email)
                warn(
                    warnings,
                    f"author <{commit.author_email}> missing from identity map; "
                    f"attributed to new engineer '{engineer}'",
                )
        authors[commit.id] = engineer
        touched = commit_touch.setdefault(commit.id, [])

        for change in commit.changed_files:
            if change.kind is ChangeKind.RENAMED:
                entry = state.pop(change.from_path, None) or _FileState()
                state[change.path] = entry
                if change.content_changed:
                    entry.commits.append((engineer, commit.timestamp_ms, commit.id))
                    touched.append(entry)
            elif change.kind is ChangeKind.ADDED:
                entry = state.get(change.path)
                if entry is None:
                    entry = state[change.path] = _FileState()
                entry.adds.append((commit.timestamp_ms, commit.id, engineer))
                entry.commits.append((engineer, commit.timestamp_ms, commit.id))
                touched.append(entry)
            elif change.kind is ChangeKind.MODIFIED:
                entry = state.get(change.path)
                if entry is None:
                    # deleted on a sibling branch before this edit folded in
                    entry = state[change.path] = _FileState()
                entry.commits.append((engineer, commit.timestamp_ms, commit.id))
                touched.append(entry)
            elif change.kind is ChangeKind.DELETED:
                state.pop(change.path, None)

    final_path: dict[int, str] = {}
    for path in sorted(snapshot.live_files):
        entry = state.get(path)
        if entry is None:
            warn(warnings, f"file {path!r} present at head but absent from history")
        else:
            final_path[id(entry)] = path

    events: list[ContributionEvent] = []
    for path in sorted(final_path.values()):
        entry = state[path]
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

    commit_index: dict[str, CommitKnowledge] = {}
    for commit in commits:
        paths = sorted(
            {
                final_path[id(entry)]
                for entry in commit_touch.get(commit.id, [])
                if id(entry) in final_path
            }
        )
        commit_index[commit.id] = CommitKnowledge(
            author_id=authors[commit.id],
            timestamp_ms=commit.timestamp_ms,
            file_paths=tuple(paths),
        )

    return VcsIngestion(events=canonical_order(events), commit_index=commit_index)
