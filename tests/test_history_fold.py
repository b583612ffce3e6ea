"""The one-pass git read and the history fold against naive oracles.

Hypothesis generates small commit graphs: branches, two-parent and octopus
merges whose trees take each path from some parent, resolve it with an edit
that differs from every parent, drop it, or add a file born in the merge;
adds, edits, deletes, re-adds of deleted paths, and renames with and without
edits. Each file has 12 distinct lines and an edit rewrites one of them, so
a renamed file keeps well over the 60% similarity git needs to pair it.

Each history is written with one ``git fast-import``. ``traverse_branch``
must then list the reachable commits with their parents, authors and times,
and give each commit the diff that git_reference.py reads for it alone;
``emit_vcs_events`` must give the events, commit files and warnings of the
naive fold in fold_reference.py.
"""
import subprocess
import tempfile
from itertools import count
from pathlib import Path
from typing import NamedTuple

from hypothesis import example, given, settings, strategies as st

import fold_reference
from busfactor.gitvcs import emit_vcs_events, snapshot_branch, traverse_branch
from busfactor.identity import IdentityIndex, RawActor, merge_identities
from busfactor.model import canonical_order
from conftest import ALICE, BOB, CAROL, EPOCH0
from git_reference import diff_commit, merge_diff

AUTHORS = (ALICE, BOB, CAROL)
NAMES = tuple(f"f{i}.txt" for i in range(6))


class Commit(NamedTuple):
    parents: tuple[int, ...]  # indices of earlier commits, first parent first
    files: dict[str, str]  # the whole tree: path -> content
    author: int  # index into AUTHORS
    hour: int  # author and committer time, hours after EPOCH0


class History(NamedTuple):
    commits: tuple[Commit, ...]
    head: int  # the commit ``main`` points at


def body(token: str) -> str:
    return "".join(f"{token} line {i}\n" for i in range(12))


def edited(text: str, line: int, token: str) -> str:
    lines = text.splitlines(keepends=True)
    lines[line] = f"{token} edit\n"
    return "".join(lines)


@st.composite
def histories(draw):
    fresh = (f"v{n}" for n in count())
    commits: list[Commit] = []

    def edit(text):
        return edited(text, draw(st.integers(0, 11)), next(fresh))

    def add(parents, files):
        commits.append(Commit(parents, files, draw(st.integers(0, 2)), draw(st.integers(0, 6))))
        return len(commits) - 1

    def commit_on(tip):
        files = dict(commits[tip].files)
        for _ in range(draw(st.integers(1, 2))):
            op = draw(st.sampled_from(("add", "edit", "delete", "rename", "rename-edit")))
            unused = [name for name in NAMES if name not in files]
            if op == "add" or not files or (op.startswith("rename") and not unused):
                # a path deleted earlier comes back as a new file
                files[draw(st.sampled_from(NAMES))] = body(next(fresh))
                continue
            path = draw(st.sampled_from(sorted(files)))
            if op == "edit":
                files[path] = edit(files[path])
            elif op == "delete":
                del files[path]
            else:
                text = files.pop(path)
                files[draw(st.sampled_from(unused))] = edit(text) if op == "rename-edit" else text
        return add((tip,), files)

    def merge(parents):
        trees = [commits[p].files for p in parents]
        parents_twice = [*range(len(parents))] * 2  # most paths keep a parent's version
        files = {}
        for path in sorted(set().union(*trees)):
            pick = draw(st.sampled_from((*parents_twice, "resolve", "drop")))
            if pick == "resolve":
                files[path] = edit(next(tree[path] for tree in trees if path in tree))
            elif pick != "drop" and path in trees[pick]:
                files[path] = trees[pick][path]
        unused = [name for name in NAMES if name not in files]
        if unused and draw(st.booleans()):
            files[draw(st.sampled_from(unused))] = body(next(fresh))
        return add(parents, files)

    roots = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    tips = [add((), {name: body(next(fresh)) for name in roots})]  # tips[0] is main
    for _ in range(draw(st.integers(1, 6))):
        step = draw(st.sampled_from(("commit", "branch", "branch", "merge", "merge")))
        k = draw(st.integers(0, len(tips) - 1))
        others = sorted(set(tips) - {tips[k]})
        if step == "merge" and others:
            merged = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True))
            tips[k] = merge((tips[k], *merged))
        elif step == "branch":
            tips.append(commit_on(draw(st.integers(0, len(commits) - 1))))
        else:
            tips[k] = commit_on(tips[k])
    others = sorted(set(tips) - {tips[0]})
    if others:  # main takes in up to three branches at the end
        tips[0] = merge((tips[0], *others[-3:]))
    return History(tuple(commits), tips[0])


def _fixed_history() -> History:
    """Each case of the module docstring at least once."""
    a, b, c, d, s = (body(t) for t in "abcds")
    s_main, s_side = edited(s, 0, "main"), edited(s, 11, "side")
    b_again, e, born = body("b again"), body("e"), body("born")
    c_moved, e_side = edited(c, 5, "moved"), edited(e, 2, "e")
    s_both = edited(s_main, 11, "both")
    head = {"a2": a, "b": b_again, "c2": c_moved, "e": e_side, "s": s_both, "born": born}
    commits = (
        Commit((), {"a": a, "b": b, "c": c, "d": d, "s": s}, 0, 0),
        # pure rename a -> a2, edits of b and s
        Commit((0,), {"a2": a, "b": edited(b, 3, "b"), "c": c, "d": d, "s": s_main}, 1, 1),
        # rename c -> c2 with an edit, delete d, an edit of s that conflicts with 1's
        Commit((0,), {"a": a, "b": b, "c2": c_moved, "s": s_side}, 2, 1),
        Commit((1,), {"a2": a, "c": c, "d": d, "s": s_main}, 0, 2),  # delete b
        Commit((3,), {"a2": a, "b": b_again, "c": c, "d": d, "s": s_main}, 2, 3),  # re-add b
        Commit((0,), {"a": a, "b": b, "c": c, "d": d, "s": s, "e": e}, 1, 2),
        # octopus: s resolved unlike every parent, "born" born in the merge
        Commit((4, 2, 5), {**head, "e": e}, 2, 4),
        Commit((5,), {"a": a, "b": b, "c": c, "d": d, "s": s, "e": e_side}, 0, 3),
        # a clean two-parent merge
        Commit((6, 7), head, 1, 5),
    )
    return History(commits, 8)


def build(history: History, path: Path) -> dict[int, str]:
    """Write the history into a new repository at ``path``: commit index -> id."""
    stream = []
    for i, commit in enumerate(history.commits):
        name, email = AUTHORS[commit.author]
        when = f"{EPOCH0 + commit.hour * 3600} +0000"
        stream.append(
            f"commit refs/heads/build\nmark :{i + 1}\n"
            f"author {name} <{email}> {when}\ncommitter {name} <{email}> {when}\n"
            f"data 2\nc{i % 10}\n"
        )
        words = ["from"] + ["merge"] * (len(commit.parents) - 1)
        stream.extend(f"{word} :{p + 1}\n" for word, p in zip(words, commit.parents))
        stream.append("deleteall\n")
        for file_path, content in sorted(commit.files.items()):
            data = content.encode()
            stream.append(f"M 100644 inline {file_path}\ndata {len(data)}\n{content}\n")
    stream.append(f"reset refs/heads/main\nfrom :{history.head + 1}\n\n")
    marks = path / "marks"
    subprocess.run(["git", "init", "-q", "-b", "main", str(path / "repo")], check=True)
    subprocess.run(
        ["git", "fast-import", "--quiet", f"--export-marks={marks}"],
        cwd=path / "repo", input="".join(stream).encode(), check=True,
    )
    pairs = (line.split() for line in marks.read_text().splitlines())
    return {int(mark[1:]) - 1: sha for mark, sha in pairs}


def reachable(history: History) -> set[int]:
    seen, todo = set(), [history.head]
    while todo:
        i = todo.pop()
        if i not in seen:
            seen.add(i)
            todo.extend(history.commits[i].parents)
    return seen


@settings(max_examples=100, deadline=None)
@example(_fixed_history())
@given(histories())
def test_one_pass_read_and_fold_match_the_naive_oracles(history):
    with tempfile.TemporaryDirectory() as tmp:
        sha = build(history, Path(tmp))
        repo = Path(tmp) / "repo"
        commits = traverse_branch(repo, "main")
        index_of = {commit_id: i for i, commit_id in sha.items()}
        assert sorted(index_of[c.id] for c in commits) == sorted(reachable(history))
        seen = set()
        diffs = {}
        for record in commits:
            spec = history.commits[index_of[record.id]]
            assert record.parent_ids == tuple(sha[p] for p in spec.parents)
            assert set(record.parent_ids) <= seen
            seen.add(record.id)
            assert record.author_email == AUTHORS[spec.author][1]
            assert record.timestamp_ms == (EPOCH0 + spec.hour * 3600) * 1000
            reference = merge_diff if record.is_merge else diff_commit
            diffs[record.id] = reference(repo, record)
            assert list(record.changed_files) == diffs[record.id], record.id

        snapshot = snapshot_branch(repo, commits[-1].id)
        assert snapshot.live_files == set(history.commits[history.head].files)
        identity = IdentityIndex(merge_identities(RawActor(*author) for author in AUTHORS))
        warnings: list[str] = []
        ingestion = emit_vcs_events(commits, identity, snapshot, warnings=warnings)

    author_of = {c.id: identity.resolve(RawActor(c.author_name, c.author_email)) for c in commits}
    expected = fold_reference.fold(commits, diffs, author_of, snapshot.live_files)
    assert [
        (e.timestamp_ms, e.kind.value, e.engineer_id, e.file_path, e.commit_ref)
        for e in canonical_order(ingestion.events)
    ] == expected.events
    assert {c: k.file_paths for c, k in ingestion.commit_index.items()} == expected.file_paths
    assert {c: k.engineers for c, k in ingestion.commit_index.items()} == {
        c: (author,) for c, author in author_of.items()
    }
    assert warnings == expected.warnings
