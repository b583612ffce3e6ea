"""Shared test fixtures: scripted git repositories with pinned timestamps."""
import gc
import os
import subprocess
from pathlib import Path

import pytest

EPOCH0 = 1704067200  # 2024-01-01T00:00:00Z

ALICE = ("Alice", "alice@example.com")
BOB = ("Bob", "bob@example.com")
CAROL = ("Carol", "carol@example.com")
DAVE = ("Dave", "dave@example.com")


def day_seconds(day: float) -> int:
    return EPOCH0 + int(day * 86400)


def day_ms(day: float) -> int:
    return day_seconds(day) * 1000


class GitRepo:
    """Thin wrapper that pins author identity and timestamps per commit."""

    def __init__(self, path: Path, branch: str = "main"):
        self.path = path
        path.mkdir(parents=True, exist_ok=True)
        self.git("init", "-q", "-b", branch)
        self.git("config", "user.email", ALICE[1])
        self.git("config", "user.name", ALICE[0])
        self.git("config", "commit.gpgsign", "false")

    def git(self, *args, author=None, day=None, check=True) -> str:
        env = os.environ.copy()
        if day is not None:
            stamp = f"{day_seconds(day)} +0000"
            env["GIT_AUTHOR_DATE"] = stamp
            env["GIT_COMMITTER_DATE"] = stamp
        if author is not None:
            name, email = author
            env.update(
                GIT_AUTHOR_NAME=name,
                GIT_AUTHOR_EMAIL=email,
                GIT_COMMITTER_NAME=name,
                GIT_COMMITTER_EMAIL=email,
            )
        proc = subprocess.run(
            ["git", *args],
            cwd=self.path,
            env=env,
            capture_output=True,
            text=True,
        )
        if check and proc.returncode != 0:
            raise AssertionError(f"git {' '.join(args)} failed: {proc.stderr}")
        return proc.stdout

    def write(self, rel: str, content: str) -> None:
        target = self.path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")

    def commit(self, message, files=None, author=ALICE, day=0, delete=()) -> str:
        for rel, content in (files or {}).items():
            self.write(rel, content)
        for rel in delete:
            self.git("rm", "-q", rel)
        self.git("add", "-A")
        self.git("commit", "-q", "--allow-empty", "-m", message, author=author, day=day)
        return self.head()

    def merge(self, message, branches, author=ALICE, day=0, resolve=None) -> str:
        self.git("merge", "--no-ff", *branches, "-m", message,
                 author=author, day=day, check=resolve is None)
        if resolve:
            for rel, content in resolve.items():
                self.write(rel, content)
            self.git("add", "-A")
            self.git("commit", "-q", "-m", message, author=author, day=day)
        return self.head()

    def head(self) -> str:
        return self.git("rev-parse", "HEAD").strip()


@pytest.fixture
def collector():
    """Give the collector back in the state the test found it."""
    collecting = gc.isenabled()
    yield
    (gc.enable if collecting else gc.disable)()


@pytest.fixture
def mkrepo(tmp_path):
    def make(name: str = "repo", branch: str = "main") -> GitRepo:
        return GitRepo(tmp_path / name, branch)

    return make


@pytest.fixture
def single_owner_repo(mkrepo) -> GitRepo:
    repo = mkrepo("single")
    repo.commit(
        "add everything",
        {f"src/f{i}.txt": f"content {i}\n" for i in range(10)},
        author=ALICE,
        day=0,
    )
    return repo


@pytest.fixture
def quarter_owners_repo(mkrepo) -> GitRepo:
    repo = mkrepo("quarters")
    for n, owner in enumerate((ALICE, BOB, CAROL, DAVE)):
        repo.commit(
            f"add block {n}",
            {f"block{n}/f{i}.txt": f"{owner[0]} {i}\n" for i in range(5)},
            author=owner,
            day=n,
        )
    return repo


@pytest.fixture
def half_owners_repo(mkrepo) -> GitRepo:
    repo = mkrepo("halves")
    repo.commit("alice half", {f"a/f{i}.txt": f"a{i}\n" for i in range(5)}, author=ALICE, day=0)
    repo.commit("bob half", {f"b/f{i}.txt": f"b{i}\n" for i in range(5)}, author=BOB, day=1)
    return repo


@pytest.fixture
def rename_only_repo(mkrepo) -> GitRepo:
    repo = mkrepo("renames")
    repo.commit("create", {"keep.txt": "stable content that is long enough to match\n"}, author=ALICE, day=0)
    repo.git("mv", "keep.txt", "moved.txt")
    repo.git("commit", "-q", "-m", "pure rename", author=BOB, day=10)
    return repo


@pytest.fixture
def merge_conflict_repo(mkrepo) -> GitRepo:
    repo = mkrepo("conflict")
    repo.commit("base", {"f1.txt": "base\n", "f2.txt": "two\n"}, author=ALICE, day=0)
    repo.git("checkout", "-q", "-b", "side")
    repo.commit("side edit", {"f1.txt": "side version\n"}, author=ALICE, day=1)
    repo.git("checkout", "-q", "main")
    repo.commit("main edit", {"f1.txt": "main version\n"}, author=BOB, day=1)
    repo.merge("merge side", ["side"], author=BOB, day=2, resolve={"f1.txt": "resolved\n"})
    return repo


def build_big_repo(path: Path, n_commits: int = 10_000, n_files: int = 50) -> GitRepo:
    """Generate a large linear history quickly via git fast-import."""
    repo = GitRepo(path)
    authors = (ALICE, BOB, CAROL, DAVE, ("Erin", "erin@example.com"))
    lines = []
    for i in range(n_commits):
        name, email = authors[i % len(authors)]
        content = f"revision {i}\n"
        when = day_seconds(i / 96)  # one commit every 15 minutes
        lines.append(f"blob\nmark :{i + 1}\ndata {len(content)}\n{content}")
        lines.append(
            f"commit refs/heads/main\n"
            f"mark :{n_commits + i + 1}\n"
            f"author {name} <{email}> {when} +0000\n"
            f"committer {name} <{email}> {when} +0000\n"
            f"data 9\ncommit {i % 10}\n"
            f"M 100644 :{i + 1} dir{i % 5}/file{i % n_files}.txt\n"
        )
    stream = "".join(lines)
    proc = subprocess.run(
        ["git", "fast-import", "--quiet"],
        cwd=repo.path,
        input=stream.encode(),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    repo.git("checkout", "-q", "main")
    return repo
