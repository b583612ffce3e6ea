"""Per-commit reference reader of git history, for oracle tests.

Asks git about one commit at a time: ``git diff-tree`` against the empty tree
or the single parent, and for a merge one rename-free ``diff-tree`` per
parent, intersected here with plain sets. Each answer is read from
``--name-status -z`` output by a parser of its own, one ``diff-tree`` call
at a time, so a fault in the program's one-pass ``git log`` reader cannot
hide here too. ``traverse_branch`` reads the whole history in one ``git
log`` with rename detection on for merges too; these answers must match it
commit for commit. Intentionally simple and slow.
"""
from busfactor.gitvcs import RENAME_THRESHOLD, ChangeKind, CommitRecord, FileChange, _git

# a copy adds its destination; without copy detection git prints none
KIND_OF_LETTER = {
    "A": ChangeKind.ADDED,
    "C": ChangeKind.ADDED,
    "D": ChangeKind.DELETED,
    "M": ChangeKind.MODIFIED,
    "T": ChangeKind.MODIFIED,
}


def _changes(repo_path, *args: str) -> list[FileChange]:
    # NUL-separated: a status, then its path, or source and destination for R and C
    _, out = _git(repo_path, "diff-tree", "-r", "-z", "--name-status", *args)
    fields = out.split("\0")[:-1]
    changes, i = [], 0
    while i < len(fields):
        status = fields[i]
        if status[0] == "R":
            old, new = fields[i + 1], fields[i + 2]
            changes.append(FileChange(new, ChangeKind.RENAMED, old, int(status[1:])))
            i += 3
        elif status[0] == "C":
            changes.append(FileChange(fields[i + 2], ChangeKind.ADDED))
            i += 3
        else:
            changes.append(FileChange(fields[i + 1], KIND_OF_LETTER[status]))
            i += 2
    return changes


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
