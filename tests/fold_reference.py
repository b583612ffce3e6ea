"""Naive per-commit fold of git history, the oracle for ``gitvcs.emit_vcs_events``.

Replays each commit's reference diff (see git_reference.py) over plain dicts.
Every path maps to the touches of the file living there, oldest first, each
``(added?, engineer, timestamp_ms, commit)``. An add or an edit appends a
touch; a rename moves the list to the new path and, when it also edits,
appends one; a delete drops the list, so a later add of that path starts a
new one. The events and each commit's live files are then read off the lists
of the files live at head. Intentionally simple and slow.
"""
from dataclasses import dataclass
from operator import itemgetter


@dataclass
class Fold:
    #: ``(timestamp_ms, kind, engineer, path, commit)`` in canonical order
    events: list[tuple]
    #: commit id -> the head paths of the files it added or edited, sorted
    file_paths: dict[str, tuple[str, ...]]
    warnings: list[str]


def fold(commits, diffs, author_of, live_files) -> Fold:
    """``commits`` in fold order, ``diffs`` and ``author_of`` keyed by commit id."""
    touches: dict[str, list[tuple]] = {}
    for commit in commits:
        edit = (False, author_of[commit.id], commit.timestamp_ms, commit.id)
        for change in diffs[commit.id]:
            kind = change.kind.value
            if kind == "deleted":
                touches.pop(change.path, None)
            elif kind == "renamed":
                touches[change.path] = touches.pop(change.from_path, [])
                if change.rename_similarity != 100:
                    touches[change.path].append(edit)
            else:
                touches.setdefault(change.path, []).append((kind == "added", *edit[1:]))

    rank = {"first_authorship": 0, "commit": 1}
    events = []
    file_paths: dict[str, list[str]] = {commit.id: [] for commit in commits}
    warnings = []
    for path in sorted(live_files):
        if not touches.get(path):
            warnings.append(f"file {path!r} present at head but absent from history")
            continue
        adds = [(ts, commit, who) for added, who, ts, commit in touches[path] if added]
        if adds:
            ts, commit, who = min(adds, key=itemgetter(0))  # the first of the earliest
            events.append((ts, "first_authorship", who, path, commit))
        for _, who, ts, commit in touches[path]:
            events.append((ts, "commit", who, path, commit))
            if path not in file_paths[commit]:
                file_paths[commit].append(path)
    events.sort(key=lambda e: (e[0], rank[e[1]], *e[2:]))
    return Fold(events, {c: tuple(paths) for c, paths in file_paths.items()}, warnings)
