"""Seeded workload generator.

A workload is a git repository written with ``git fast-import`` (pinned
author and committer timestamps, so one seed always gives one HEAD sha) plus
optional review and meeting JSON files. The seed picks authors, touched files,
rename targets, reviewers and attendees; the amount of work (commit, file,
review and meeting counts) is fixed per shape so that run-to-run spread comes
from the machine, not from the seed.

The program under test sees only the files written here. ``Workload`` keeps
what the generator knows about them, which the benchmark checks the report
and the trace against.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path

EPOCH0 = 1704067200  # 2024-01-01T00:00:00Z
EXCLUDED_TITLES = ("Reading group", "Random sync", "Architecture seminar")
KEPT_TITLES = ("Design review", "Sprint planning", "Incident retro", "Pairing")
MAX_TOUCH = 3  # files modified per ordinary commit: 1..MAX_TOUCH


@dataclass(frozen=True)
class Shape:
    """Size and structure of one generated workload."""

    commits: int
    files: int
    authors: int
    step_s: int  # mean spacing between commits
    merge_every: int = 0  # a resolved-conflict merge every N steps; 0 = none
    rename_every: int = 0  # a pure rename every N steps; 0 = none
    reviews: int = 0
    unmerged_share: float = 0.0
    meetings: int = 0
    excluded_share: float = 0.0
    attendees: tuple[int, int] = (2, 4)


@dataclass(frozen=True)
class Workload:
    repo: Path
    reviews: Path | None
    meetings: Path | None
    head: str
    commits: int
    merges: int
    renames: int
    live_files: int
    reviews_kept: int
    meetings_kept: int


def _git(args, cwd, stdin: bytes | None = None) -> bytes:
    proc = subprocess.run(
        ["git", *args], cwd=cwd, input=stdin, capture_output=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"git {args[0]} failed: {proc.stderr.decode(errors='replace')}")
    return proc.stdout


class _Stream:
    """Builds a fast-import stream; commits are numbered by their mark."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.marks = 0
        self.tips: dict[str, int] = {}

    def commit(self, ref, author, when, parents, changes, message) -> int:
        self.marks += 1
        name, email = author
        ident = f"{name} <{email}> {when} +0000"
        lines = [
            f"commit {ref}",
            f"mark :{self.marks}",
            f"author {ident}",
            f"committer {ident}",
            f"data {len(message)}",
            message,
        ]
        # an explicit 'from' makes fast-import reload the parent tree, so it
        # is written only when the parent is not already the ref's tip
        if parents and self.tips.get(ref) != parents[0]:
            lines.append(f"from :{parents[0]}")
        lines.extend(f"merge :{p}" for p in parents[1:])
        for change in changes:
            if change[0] == "M":
                _, path, content = change
                lines.append(f"M 100644 inline {path}")
                lines.append(f"data {len(content)}")
                lines.append(content)
            else:
                _, old, new = change
                lines.append(f"R {old} {new}")
        self.parts.append("\n".join(lines) + "\n")
        self.tips[ref] = self.marks
        return self.marks

    def data(self) -> bytes:
        return "".join(self.parts).encode()


def _weighted_authors(n: int) -> tuple[list[tuple[str, str]], list[float]]:
    # skewed but fixed activity: a few heavy committers and a long tail
    authors = [(f"Dev {i:02d}", f"dev{i:02d}@example.com") for i in range(n)]
    cum, total = [], 0.0
    for i in range(n):
        total += 1.0 / (i + 1) ** 0.8
        cum.append(total)
    return authors, cum


def _history(shape: Shape, rng: random.Random):
    """Commit graph on refs/heads/main; returns the stream and its facts."""
    authors, cum = _weighted_authors(shape.authors)
    stream = _Stream()
    live: list[str] = []
    next_file = 0
    create_span = max(1, shape.commits // 10)
    commits: list[tuple[int, int, tuple[str, str]]] = []  # (mark, when, author)
    merges = renames = 0
    tip = None
    step = 0
    when = EPOCH0

    def author():
        return rng.choices(authors, cum_weights=cum)[0]

    def content(path: str) -> str:
        return f"{path} rev {stream.marks + 1} {rng.getrandbits(32):08x}\n"

    def touch() -> list[str]:
        k = min(len(live), rng.randint(1, MAX_TOUCH))
        return rng.sample(live, k)

    while len(commits) < shape.commits:
        step += 1
        when += rng.randint(shape.step_s // 2, shape.step_s * 3 // 2)
        remaining = shape.commits - len(commits)
        target = -(-shape.files * min(step, create_span) // create_span)
        adds = []
        while next_file < min(target, shape.files):
            adds.append(f"pkg{next_file % 20:02d}/sub{next_file // 20 % 10}/mod{next_file:05d}.py")
            next_file += 1
        if adds:
            who = author()
            changes = [("M", p, content(p)) for p in adds]
            tip = stream.commit("refs/heads/main", who, when, [tip] if tip else [], changes, f"add {len(adds)}\n")
            live.extend(adds)
            commits.append((tip, when, who))
        elif shape.merge_every and step % shape.merge_every == 0 and remaining >= 3:
            # side and main both edit one file; the merge resolves it, so the
            # merge tree differs from every parent on exactly that path
            path = rng.choice(live)
            side_author, main_author = author(), author()
            side = stream.commit("refs/heads/side", side_author, when, [tip], [("M", path, content(path))], "side edit\n")
            main = stream.commit("refs/heads/main", main_author, when + 1, [tip], [("M", path, content(path))], "main edit\n")
            tip = stream.commit("refs/heads/main", main_author, when + 2, [main, side], [("M", path, content(path))], "merge side\n")
            commits.extend([(side, when, side_author), (main, when + 1, main_author), (tip, when + 2, main_author)])
            merges += 1
            when += 2
        elif shape.rename_every and step % shape.rename_every == 1:
            i = rng.randrange(len(live))
            old = live[i]
            new = f"{old.rsplit('/', 1)[0]}/moved{stream.marks + 1:06d}.py"
            live[i] = new
            who = author()
            tip = stream.commit("refs/heads/main", who, when, [tip], [("R", old, new)], "rename\n")
            commits.append((tip, when, who))
            renames += 1
        else:
            who = author()
            changes = [("M", p, content(p)) for p in touch()]
            tip = stream.commit("refs/heads/main", who, when, [tip], changes, "edit\n")
            commits.append((tip, when, who))
    return stream, commits, merges, renames, len(live), authors


def _reviews(shape, rng, commits, shas, authors, head_when):
    unmerged = set(rng.sample(range(shape.reviews), round(shape.reviews * shape.unmerged_share)))
    out = []
    for n in range(shape.reviews):
        picked = rng.sample(commits, rng.randint(1, 2))
        latest = max(when for _, when, _ in picked)
        reviewers = rng.sample(authors, rng.randint(1, 3))
        out.append(
            {
                "id": f"r{n:05d}",
                "reviewers": [{"name": name, "email": email} for name, email in reviewers],
                "commit_ids": [shas[mark] for mark, _, _ in picked],
                "completed_at": min(head_when, latest + rng.randint(3600, 2 * 86400)) * 1000,
                "state": "abandoned" if n in unmerged else "merged",
            }
        )
    return out, shape.reviews - len(unmerged)


def _meetings(shape, rng, authors, first_when, head_when):
    excluded = set(rng.sample(range(shape.meetings), round(shape.meetings * shape.excluded_share)))
    # distinct start minutes, so a (start, commit) pair names one meeting
    starts = sorted(rng.sample(range((head_when - first_when) // 60), shape.meetings))
    out = []
    for n, minute in enumerate(starts):
        titles = EXCLUDED_TITLES if n in excluded else KEPT_TITLES
        people = rng.sample(authors, rng.randint(*shape.attendees))
        out.append(
            {
                "id": f"m{n:05d}",
                "participants": [{"name": name, "email": email} for name, email in people],
                "start": (first_when + minute * 60) * 1000,
                "duration_minutes": rng.choice((15, 30, 45, 60, 90)),
                "title": f"{rng.choice(titles)} {n}",
            }
        )
    return out, shape.meetings - len(excluded)


def generate(shape: Shape, seed: int, root: Path) -> Workload:
    """Write the workload for ``seed`` under ``root`` (replaced if present)."""
    rng = random.Random(seed)
    if root.exists():
        shutil.rmtree(root)
    repo = root / "repo"
    repo.mkdir(parents=True)
    stream, commits, merges, renames, live_files, authors = _history(shape, rng)
    _git(["init", "-q", "--bare", "-b", "main"], repo)
    marks_file = root / "marks"
    _git(["fast-import", "--quiet", f"--export-marks={marks_file}"], repo, stream.data())
    shas = {}
    for line in marks_file.read_text().splitlines():
        mark, sha = line.split()
        shas[int(mark[1:])] = sha
    head = _git(["rev-parse", "refs/heads/main"], repo).decode().strip()

    first_when, head_when = commits[0][1], commits[-1][1]
    reviews_path = meetings_path = None
    reviews_kept = meetings_kept = 0
    if shape.reviews:
        reviews, reviews_kept = _reviews(shape, rng, commits, shas, authors, head_when)
        reviews_path = root / "reviews.json"
        reviews_path.write_text(json.dumps(reviews), encoding="utf-8")
    if shape.meetings:
        meetings, meetings_kept = _meetings(shape, rng, authors, first_when, head_when)
        meetings_path = root / "meetings.json"
        meetings_path.write_text(json.dumps(meetings), encoding="utf-8")
    os.remove(marks_file)
    return Workload(
        repo=repo,
        reviews=reviews_path,
        meetings=meetings_path,
        head=head,
        commits=len(commits),
        merges=merges,
        renames=renames,
        live_files=live_files,
        reviews_kept=reviews_kept,
        meetings_kept=meetings_kept,
    )
