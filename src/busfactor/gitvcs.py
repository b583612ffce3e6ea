"""Git history ingestion.

Reads a local repository through the ``git`` command-line tool and turns a
branch into contribution events: first authorships, commit contributions,
rename chains, and the head snapshot of live files. Merge commits contribute
only the paths whose content differs from every parent (the conflict
resolutions); pure renames contribute nothing but extend the file identity.
"""
from __future__ import annotations

import logging
import subprocess
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import RepositoryError
from .identity import IdentityIndex
from .inputs import warn
from .model import ContributionEvent, EventKind, FileKey, canonical_order

log = logging.getLogger(__name__)

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
    branch_name: str
    head_commit: str
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
    files: dict[str, FileKey]
    commit_index: dict[str, CommitKnowledge]


def _git(repo_path, *args: str, check: bool = True) -> str:
    cmd = ["git", "-c", "core.quotepath=false", *args]
    try:
        proc = subprocess.run(
            cmd, cwd=str(repo_path), capture_output=True, text=True, encoding="utf-8",
        )
    except (FileNotFoundError, NotADirectoryError):
        raise RepositoryError(f"repository path does not exist: {repo_path}") from None
    if check and proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        raise RepositoryError(
            f"git {' '.join(args[:2])} failed in {repo_path}: "
            f"{detail[0] if detail else 'unknown error'}"
        )
    return proc.stdout


def _ensure_repo(repo_path) -> None:
    if not Path(repo_path).exists():
        raise RepositoryError(f"repository path does not exist: {repo_path}")
    proc = subprocess.run(
        ["git", "rev-parse", "--git-dir"],
        cwd=str(repo_path), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RepositoryError(f"not a git repository: {repo_path}")


def default_branch(repo_path) -> str:
    """The branch HEAD points at, or 'HEAD' when detached."""
    _ensure_repo(repo_path)
    proc = subprocess.run(
        ["git", "symbolic-ref", "--short", "-q", "HEAD"],
        cwd=str(repo_path), capture_output=True, text=True,
    )
    name = proc.stdout.strip()
    return name if proc.returncode == 0 and name else "HEAD"


def _resolve_head(repo_path, branch: str) -> str | None:
    """Head commit of the branch, or None for an unborn (empty) branch."""
    _ensure_repo(repo_path)
    proc = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{branch}^{{commit}}"],
        cwd=str(repo_path), capture_output=True, text=True,
    )
    if proc.returncode == 0:
        return proc.stdout.strip()
    sym = subprocess.run(
        ["git", "symbolic-ref", "-q", "HEAD"],
        cwd=str(repo_path), capture_output=True, text=True,
    ).stdout.strip()
    if sym in (f"refs/heads/{branch}", branch):
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
    log.warning("ignoring unrecognized diff status %r", status)
    return None


def _split_chunks(output: str) -> list[list[str]]:
    chunks = []
    for blob in output.split("\x01"):
        if blob.strip():
            chunks.append(blob.splitlines())
    return chunks


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


def _read_metadata(repo_path, head: str) -> dict[str, CommitRecord]:
    out = _git(
        repo_path, "log", head,
        "--format=%x01%H%x00%P%x00%ae%x00%an%x00%at",
    )
    records: dict[str, CommitRecord] = {}
    for chunk in _split_chunks(out):
        commit_id, parents, email, name, epoch = chunk[0].split("\x00")
        records[commit_id] = CommitRecord(
            id=commit_id,
            author_email=email,
            author_name=name,
            timestamp_ms=int(epoch) * 1000,
            parent_ids=tuple(parents.split()) if parents else (),
        )
    return records


def _collect_plain_diffs(repo_path, head: str) -> dict[str, list[FileChange]]:
    out = _git(
        repo_path, "log", head, "--no-merges", "--raw", "--root",
        f"--find-renames={RENAME_THRESHOLD}", "--format=%x01%H",
    )
    diffs: dict[str, list[FileChange]] = {}
    for chunk in _split_chunks(out):
        commit_id = chunk[0].strip()
        diffs[commit_id] = [
            change for line in chunk[1:] if (change := _parse_raw_line(line))
        ]
    return diffs


def _intersect_parent_diffs(per_parent: list[dict[str, str]], n_parents: int) -> list[FileChange]:
    """Paths changed relative to every parent; empty when any diff is empty.

    ``per_parent`` holds path -> status-code maps, one per parent whose diff
    was non-empty (git omits empty ones, which already forces an empty
    intersection when fewer maps than parents arrive).
    """
    if len(per_parent) < n_parents or not per_parent:
        return []
    shared = set(per_parent[0])
    for diff in per_parent[1:]:
        shared &= set(diff)
    changes = []
    for path in sorted(shared):
        codes = {diff[path] for diff in per_parent}
        if codes == {"A"}:
            kind = ChangeKind.ADDED
        elif codes == {"D"}:
            kind = ChangeKind.DELETED
        else:
            kind = ChangeKind.MODIFIED
        changes.append(FileChange(path, kind))
    return changes


def _collect_merge_diffs(
    repo_path, head: str, records: dict[str, CommitRecord]
) -> dict[str, list[FileChange]]:
    out = _git(
        repo_path, "log", head, "--merges", "--diff-merges=separate",
        "--no-renames", "--raw", "--format=%x01%H",
    )
    grouped: dict[str, list[dict[str, str]]] = {}
    for chunk in _split_chunks(out):
        commit_id = chunk[0].strip()
        diff: dict[str, str] = {}
        for line in chunk[1:]:
            change = _parse_raw_line(line)
            if change is not None:
                diff[change.path] = {
                    ChangeKind.ADDED: "A",
                    ChangeKind.MODIFIED: "M",
                    ChangeKind.DELETED: "D",
                }[change.kind]
        grouped.setdefault(commit_id, []).append(diff)

    merged: dict[str, list[FileChange]] = {}
    for commit_id, record in records.items():
        if record.is_merge:
            merged[commit_id] = _intersect_parent_diffs(
                grouped.get(commit_id, []), len(record.parent_ids)
            )
    return merged


def traverse_branch(repo_path, branch: str | None = None) -> list[CommitRecord]:
    """All commits reachable from the branch head, parents before children.

    The order is a deterministic depth-first topological order; each record
    carries its changed files (intersection-over-parents for merges, rename
    detection for ordinary commits).
    """
    branch = branch or default_branch(repo_path)
    head = _resolve_head(repo_path, branch)
    if head is None:
        return []
    records = _read_metadata(repo_path, head)
    plain = _collect_plain_diffs(repo_path, head)
    merges = _collect_merge_diffs(repo_path, head, records)
    ordered = []
    for commit_id in _dfs_topological(head, {c: r.parent_ids for c, r in records.items()}):
        record = records[commit_id]
        changes = merges[commit_id] if record.is_merge else plain.get(commit_id, [])
        ordered.append(
            CommitRecord(
                id=record.id,
                author_email=record.author_email,
                author_name=record.author_name,
                timestamp_ms=record.timestamp_ms,
                parent_ids=record.parent_ids,
                changed_files=tuple(changes),
            )
        )
    return ordered


def diff_commit(repo_path, commit: CommitRecord | str) -> list[FileChange]:
    """Changed files of a non-merge commit (root commits diff the empty tree)."""
    commit_id = commit if isinstance(commit, str) else commit.id
    if not isinstance(commit, str) and commit.is_merge:
        raise ValueError("diff_commit handles commits with at most one parent; use merge_diff")
    out = _git(
        repo_path, "diff-tree", "-r", "--root", f"--find-renames={RENAME_THRESHOLD}",
        "--no-commit-id", commit_id,
    )
    return [change for line in out.splitlines() if (change := _parse_raw_line(line))]


def merge_diff(repo_path, commit: CommitRecord) -> list[FileChange]:
    """Paths a merge commit changed relative to every one of its parents."""
    if not commit.is_merge:
        raise ValueError("merge_diff requires a commit with at least two parents")
    per_parent = []
    for parent in commit.parent_ids:
        out = _git(repo_path, "diff-tree", "-r", "--no-renames", parent, commit.id)
        diff: dict[str, str] = {}
        for line in out.splitlines():
            change = _parse_raw_line(line)
            if change is not None:
                diff[change.path] = {
                    ChangeKind.ADDED: "A",
                    ChangeKind.MODIFIED: "M",
                    ChangeKind.DELETED: "D",
                }[change.kind]
        if diff:
            per_parent.append(diff)
    return _intersect_parent_diffs(per_parent, len(commit.parent_ids))


def snapshot_branch(repo_path, branch: str | None = None) -> BranchSnapshot:
    """The set of file paths present at the branch head."""
    branch = branch or default_branch(repo_path)
    head = _resolve_head(repo_path, branch)
    if head is None:
        return BranchSnapshot(branch_name=branch, head_commit="", live_files=frozenset())
    out = _git(repo_path, "ls-tree", "-r", "-z", "--name-only", head)
    paths = frozenset(p for p in out.split("\x00") if p)
    return BranchSnapshot(branch_name=branch, head_commit=head, live_files=paths)


@dataclass
class _FileState:
    chain: list[str]
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
    Renames transfer accumulated history to the new path without adding
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
                entry = state.pop(change.from_path, None)
                if entry is None:
                    entry = _FileState(chain=[change.from_path])
                if entry.chain[-1] != change.path:
                    entry.chain.append(change.path)
                state[change.path] = entry
                if change.content_changed:
                    entry.commits.append((engineer, commit.timestamp_ms, commit.id))
                    touched.append(entry)
            elif change.kind is ChangeKind.ADDED:
                entry = state.get(change.path)
                if entry is None:
                    entry = _FileState(chain=[change.path])
                    state[change.path] = entry
                entry.adds.append((commit.timestamp_ms, commit.id, engineer))
                entry.commits.append((engineer, commit.timestamp_ms, commit.id))
                touched.append(entry)
            elif change.kind is ChangeKind.MODIFIED:
                entry = state.get(change.path)
                if entry is None:
                    # deleted on a sibling branch before this edit folded in
                    entry = _FileState(chain=[change.path])
                    state[change.path] = entry
                entry.commits.append((engineer, commit.timestamp_ms, commit.id))
                touched.append(entry)
            elif change.kind is ChangeKind.DELETED:
                state.pop(change.path, None)

    files: dict[str, FileKey] = {}
    final_path: dict[int, str] = {}
    for path in sorted(snapshot.live_files):
        entry = state.get(path)
        if entry is None:
            files[path] = FileKey(head_path=path, rename_chain=(path,))
            warn(warnings, f"file {path!r} present at head but absent from history")
            continue
        files[path] = FileKey(head_path=path, rename_chain=tuple(entry.chain))
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

    return VcsIngestion(
        events=canonical_order(events),
        files=files,
        commit_index=commit_index,
    )
