"""Git history ingestion.

Reads a local repository through the ``git`` command-line tool and turns a
branch into contribution credit: first authorships and commit contributions
for the files live at its head. Merge commits contribute only the paths whose
content differs from every parent (the conflict resolutions); a rename moves
a file's history to its new path, and a pure rename contributes nothing.
Commit authors resolve through an ``IdentityIndex`` built from all of them.
A commit's one record is its COMMIT credit, which ``commit_index`` maps to.
Git prints UTF-8 and root-relative paths whatever the user's config, so a
``repo_path`` inside a work tree reads the whole repository. Git runs with
``GIT_FLUSH=0``, so it buffers its output instead of flushing each commit
into the pipe.
"""
from __future__ import annotations

import os
import subprocess
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .errors import RepositoryError
from .identity import IdentityIndex, RawActor, normalize_email
from .inputs import warn
# canonical_order is not called here; perfbench/probes.py wraps this binding
from .model import CanonicalEvents, ContributionEvent, Credit, EventKind, canonical_order

RENAME_THRESHOLD = "60%"


class ChangeKind(str, Enum):
    ADDED = "added"
    MODIFIED = "modified"
    DELETED = "deleted"
    RENAMED = "renamed"


class FileChange(NamedTuple):
    path: str
    kind: ChangeKind
    from_path: str | None = None
    rename_similarity: int | None = None

    @property
    def content_changed(self) -> bool:
        if self.kind is ChangeKind.RENAMED:
            return self.rename_similarity is not None and self.rename_similarity < 100
        return self.kind is not ChangeKind.DELETED


class CommitRecord(NamedTuple):
    id: str
    author_email: str
    author_name: str
    timestamp_ms: int
    parent_ids: tuple[str, ...]
    changed_files: tuple[FileChange, ...] = ()

    @property
    def is_merge(self) -> bool:
        return len(self.parent_ids) >= 2


class BranchSnapshot(NamedTuple):
    live_files: frozenset[str]


class VcsIngestion(NamedTuple):
    credit: list[Credit]
    #: commit id -> that commit's COMMIT credit, the very object in ``credit``
    commit_index: dict[str, Credit]

    @property
    def events(self) -> list[ContributionEvent]:
        """The credit spelled out, in canonical order."""
        return list(CanonicalEvents(self.credit))


def _git(repo_path, *args: str, allowed: tuple[int, ...] = ()) -> tuple[int, str]:
    """Run one git command in the repository: its exit status and stdout.

    Exit statuses other than 0 and ``allowed`` raise RepositoryError, and so
    do output that is not UTF-8 and a git that cannot start (not on PATH, or
    the repository path cannot be entered).
    """
    command = f"git {' '.join(args[:2])}"
    cwd = str(repo_path)
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=cwd, capture_output=True,
            env={**os.environ, "GIT_FLUSH": "0"},
        )
    except OSError as exc:
        # subprocess names the directory it could not enter, else the program
        if exc.filename != cwd:
            message = f"cannot run git ({exc.strerror}); git 2.31 or newer must be on PATH"
        elif isinstance(exc, FileNotFoundError):
            message = f"repository path does not exist: {repo_path}"
        elif isinstance(exc, NotADirectoryError):
            message = f"not a git repository: {repo_path}"
        else:
            message = f"cannot open repository {repo_path}: {exc.strerror}"
        raise RepositoryError(message) from None
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
    code, out = _git(repo_path, *args, allowed=(1,))
    return out.strip() if code == 0 else None


def default_branch(repo_path) -> str:
    """The branch HEAD points at, or 'HEAD' when detached."""
    return _query(repo_path, "symbolic-ref", "--short", "-q", "HEAD") or "HEAD"


def _resolve_head(repo_path, branch: str) -> tuple[str, str | None, bool]:
    """The project's name, the head commit of the branch (None for an unborn
    branch) and whether the repository is a shallow clone.

    One ``rev-parse`` prints whether the repository is shallow and its common
    git directory, even when the branch does not resolve, and then the head.
    The project is named after that directory, or after its parent when it is
    a ``.git``, so a work tree, any directory in it, its ``.git``, a linked
    worktree and a bare repository all name the repository.
    """
    code, out = _git(
        repo_path, "rev-parse", "--verify", "--is-shallow-repository", "--quiet",
        "--path-format=absolute", "--git-common-dir", f"{branch}^{{commit}}", allowed=(1,),
    )
    shallow, _, out = out[:-1].partition("\n")
    git_dir, head = out.rsplit("\n", 1) if code == 0 else (out, None)
    parent, name = os.path.split(git_dir)
    project = os.path.basename(parent) if name == ".git" else name
    if head is None and _query(repo_path, "symbolic-ref", "-q", "HEAD") not in (
        f"refs/heads/{branch}", branch
    ):
        raise RepositoryError(f"branch {branch!r} not found in {repo_path}")
    return project, head, shallow == "true"


# the status of an entry with one path and no score -> its kind (a type change
# is an edit), also with the newline that starts the first entry of a diff
_ONE_PATH = {"A": ChangeKind.ADDED, "M": ChangeKind.MODIFIED, "T": ChangeKind.MODIFIED,
             "D": ChangeKind.DELETED}
_ONE_PATH.update({f"\n{code}": kind for code, kind in _ONE_PATH.items()})


def _read_log(out: str) -> dict[str, tuple[list[str], list[list[FileChange]]]]:
    """Commit id -> (header fields, one diff per header) from ``git log --name-status -z``.

    Every token ends in NUL. A header is ``\\x01`` and the commit id, then
    four fields; a diff entry is a status token (its letter, then a score for
    a rename or copy; the first one of a diff follows a newline) and one path,
    or two (source, destination) for a rename or copy. Paths are verbatim, so
    any UTF-8 file name reads back unchanged.
    """
    listed: dict[str, tuple[list[str], list[list[FileChange]]]] = {}
    new, one_path = tuple.__new__, _ONE_PATH
    added, renamed = ChangeKind.ADDED, ChangeKind.RENAMED
    tokens = iter(out.split("\x00"))
    for token in tokens:
        kind = one_path.get(token)
        if kind is not None:
            diff.append(new(FileChange, (next(tokens), kind, None, None)))
            continue
        status = token.lstrip("\n")
        code = status[:1]
        if code == "\x01":
            fields = [next(tokens), next(tokens), next(tokens), next(tokens)]
            listed.setdefault(status[1:], (fields, []))[1].append(diff := [])
        elif code == "R":
            source = next(tokens)
            score = int(status[1:]) if status[1:] else None
            diff.append(new(FileChange, (next(tokens), renamed, source, score)))
        elif code == "C":
            next(tokens)  # a copy adds its destination
            diff.append(new(FileChange, (next(tokens), added, None, None)))
        elif code:
            next(tokens)
            warn(None, f"ignoring unrecognized diff status {status!r}")
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
    renamed, deleted, added = ChangeKind.RENAMED, ChangeKind.DELETED, ChangeKind.ADDED
    kind_of: list[dict[str, ChangeKind]] = []
    for diff in per_parent:
        kinds = {}
        for path, kind, from_path, _ in diff:
            if kind is renamed:
                kinds[from_path] = deleted
                kinds[path] = added
            else:
                kinds[path] = kind
        kind_of.append(kinds)
    changes = []
    for path in sorted(set(kind_of[0]).intersection(*kind_of[1:])):
        kinds = {parent[path] for parent in kind_of}
        changes.append(FileChange(path, kinds.pop() if len(kinds) == 1 else ChangeKind.MODIFIED))
    return changes


class History(list):
    """A branch's commits, ``project``, the name of their repository, and
    ``shallow``, whether it is a shallow clone: git then lists each boundary
    commit with no parents, so its diff adds its whole tree."""

    __slots__ = ("project", "shallow")

    def __init__(self, commits, project: str, shallow: bool) -> None:
        super().__init__(commits)
        self.project = project
        self.shallow = shallow


def traverse_branch(repo_path, branch: str | None = None) -> History:
    """All commits reachable from the branch head, parents before children.

    The order is a deterministic depth-first topological order ending with
    the head. Each record carries its changed files: rename detection for
    ordinary commits, the intersection over parents for merges. One
    ``git log`` lists every commit, a merge once per parent, with its names
    in UTF-8 and its paths relative to the root, whatever the user's config.
    """
    project, head, shallow = _resolve_head(repo_path, branch or default_branch(repo_path))
    if head is None:
        return History((), project, shallow)
    _, out = _git(
        repo_path, "log", head, "--name-status", "-z", "--root", "--diff-merges=separate",
        "--encoding=UTF-8", "--no-relative", f"--find-renames={RENAME_THRESHOLD}",
        "--format=%x01%H%x00%P%x00%ae%x00%an%x00%at",
    )
    records: dict[str, CommitRecord] = {}
    parents_of: dict[str, tuple[str, ...]] = {}
    new = tuple.__new__
    for commit_id, ((parents, email, name, epoch), diffs) in _read_log(out).items():
        parent_ids = parents_of[commit_id] = tuple(parents.split())
        if len(parent_ids) >= 2:
            changes = _intersect_parent_diffs(diffs, len(parent_ids))
        else:
            changes = diffs[0]
        records[commit_id] = new(
            CommitRecord,
            (commit_id, email, name, int(epoch) * 1000, parent_ids, tuple(changes)),
        )
    order = _dfs_topological(head, parents_of)
    return History((records[commit_id] for commit_id in order), project, shallow)


def snapshot_branch(repo_path, head: str | None) -> BranchSnapshot:
    """The file paths present at ``head`` from its root; none when unborn (None).

    ``head`` is the commit ``traverse_branch`` ended with, so the snapshot
    and the history read the same commit.
    """
    if head is None:
        return BranchSnapshot(live_files=frozenset())
    _, out = _git(repo_path, "ls-tree", "-r", "-z", "--full-tree", "--name-only", head)
    return BranchSnapshot(live_files=frozenset(p for p in out.split("\x00") if p))


class _FileState:
    """The history of the file living at one path."""

    __slots__ = ("adds", "commits")

    def __init__(self) -> None:
        self.adds: list[tuple[int, str, tuple[str]]] = []  # (ts, commit, (engineer,))
        # for each commit that added or edited it, the head paths that commit
        # touched (filled in once the fold is done)
        self.commits: list[list[str]] = []


def emit_vcs_events(
    commits: list[CommitRecord],
    identity: IdentityIndex,
    snapshot: BranchSnapshot,
    *,
    warnings: list[str] | None = None,
) -> VcsIngestion:
    """Fold ordered commits into contribution credit for head-live files.

    Every Added or content-changing entry credits its commit's author; the
    earliest add of a file identity (earliest timestamp, then first in fold
    order) additionally yields the first authorship. Renames move accumulated
    history to the new path without adding knowledge; files absent from the
    head snapshot are dropped. A live file whose history earns no credit
    (absent from it, or only a pure rename of a path a sibling branch
    deleted) is named in a warning and gets none. The credit comes in fold
    order: first authorships by path, then one COMMIT credit per commit in
    history order, which is also the commit's ``commit_index`` entry. A
    commit with no live file still gets one, with no files: it dates the run.

    ``identity`` must be built from every commit author; each distinct
    (name, email) pair is resolved once. An author with a blank email is the
    engineer ``merge_identities`` made of its name, and the first one of each
    raw email string is named in one warning that says so.
    """
    state: dict[str, _FileState] = {}
    engineer_of: dict[tuple[str, str], tuple[str]] = {}
    blank_warned: set[str] = set()
    # per commit: the head paths it added or edited, in sorted order, are
    # filled in once the fold is done
    folded: list[tuple[tuple[str], str, int, list[str]]] = []
    deleted, renamed, added = ChangeKind.DELETED, ChangeKind.RENAMED, ChangeKind.ADDED
    for commit_id, email, name, ts, _, changes in commits:
        author = engineer_of.get((name, email))
        if author is None:
            author = engineer_of[name, email] = (identity.resolve(RawActor(name, email)),)
            if not normalize_email(email) and email not in blank_warned:
                blank_warned.add(email)
                warn(
                    warnings,
                    f"author <{email}> has a blank email; "
                    f"merged by name into engineer '{author[0]}'",
                )
        touched: list[str] = []
        folded.append((author, commit_id, ts, touched))
        for change in changes:
            path, kind, from_path, _ = change
            if kind is deleted:
                state.pop(path, None)
                continue
            if kind is renamed:
                entry = state[path] = state.pop(from_path, None) or _FileState()
                if not change.content_changed:
                    continue
            else:
                # an edit finds no state when a sibling branch deleted the path first
                entry = state.get(path) or state.setdefault(path, _FileState())
                if kind is added:
                    entry.adds.append((ts, commit_id, author))
            entry.commits.append(touched)

    new, first, commit = tuple.__new__, EventKind.FIRST_AUTHORSHIP, EventKind.COMMIT
    credit = []
    for path in sorted(snapshot.live_files):
        entry = state.get(path)
        if entry is None or not entry.commits:  # an add always comes with its commit
            warn(warnings, f"file {path!r} present at head but absent from history")
            continue
        if entry.adds:
            ts, commit_id, author = min(entry.adds, key=itemgetter(0))
            credit.append(new(Credit, (author, commit_id, ts, 1.0, (path,), first)))
        for touched in entry.commits:
            touched.append(path)

    commit_index = {}
    for author, commit_id, ts, touched in folded:
        record = new(Credit, (author, commit_id, ts, 1.0, tuple(touched), commit))
        credit.append(record)
        commit_index[commit_id] = record
    return VcsIngestion(credit, commit_index)
