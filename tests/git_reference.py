"""Per-commit reference reader of git history, for oracle tests.

Asks git about one commit at a time: ``git diff-tree`` against the empty tree
or the single parent, and for a merge one rename-free ``diff-tree`` per
parent, intersected here with plain sets. ``traverse_branch`` reads the
whole history in one ``git log`` with rename detection on for merges too;
these answers must match it commit for commit. Intentionally simple and slow.
"""
from busfactor.gitvcs import (
    RENAME_THRESHOLD,
    ChangeKind,
    CommitRecord,
    FileChange,
    _git,
    _parse_raw_line,
)


def _changes(repo_path, *args: str) -> list[FileChange]:
    _, out = _git(repo_path, "diff-tree", "-r", *args)
    return [change for line in out.splitlines() if (change := _parse_raw_line(line))]


def diff_commit(repo_path, commit: CommitRecord | str) -> list[FileChange]:
    """Changed files of a non-merge commit (root commits diff the empty tree)."""
    commit_id = commit if isinstance(commit, str) else commit.id
    if not isinstance(commit, str) and commit.is_merge:
        raise ValueError("diff_commit handles commits with at most one parent; use merge_diff")
    return _changes(
        repo_path, "--root", f"--find-renames={RENAME_THRESHOLD}", "--no-commit-id", commit_id
    )


def merge_diff(repo_path, commit: CommitRecord) -> list[FileChange]:
    """Paths a merge commit changed relative to every one of its parents, sorted.

    A path keeps its kind when every parent's diff agrees on it, and is
    MODIFIED otherwise.
    """
    if not commit.is_merge:
        raise ValueError("merge_diff requires a commit with at least two parents")
    per_parent = [
        {c.path: c.kind for c in _changes(repo_path, "--no-renames", parent, commit.id)}
        for parent in commit.parent_ids
    ]
    changes = []
    for path in sorted(set.intersection(*(set(kinds) for kinds in per_parent))):
        kinds = {diff[path] for diff in per_parent}
        changes.append(FileChange(path, kinds.pop() if len(kinds) == 1 else ChangeKind.MODIFIED))
    return changes
