"""The report does not depend on where in the repository ``--repo`` points or
on the user's git configuration, nor on whether the user asks git to flush
its output (``GIT_FLUSH=1``).

The sweep gives git a configuration of its own: ``GIT_CONFIG_GLOBAL`` names a
file that sets one output-shaping key, and ``GIT_CONFIG_NOSYSTEM=1`` leaves
the system file out. Every such run must print the bytes of the run with an
empty configuration.
"""
import json
import subprocess

import pytest

from busfactor.cli import main

from conftest import ALICE, BOB

ZOE = ("Zoë", "zoe@example.com")  # not ASCII, so a re-encoding shows

# (key, value) pairs that change what ``git log`` or ``git ls-tree`` print
# when the program does not pin it
OUTPUT_SHAPING = (
    ("i18n.logOutputEncoding", "ISO-8859-1"),
    ("diff.relative", "true"),
    ("color.ui", "always"),
    ("diff.noprefix", "true"),
    ("core.quotePath", "false"),
    ("log.mailmap", "true"),
    ("diff.renames", "copies"),
    ("log.showSignature", "true"),
)


@pytest.fixture
def nested_repo(mkrepo):
    """A history with a subdirectory, a rename into it, a space and non-ASCII names."""
    repo = mkrepo("nested")
    body = "".join(f"line {i}\n" for i in range(12))
    files = {"top.txt": body, "d/sp ace.txt": body, "d/é.txt": "e\n"}
    repo.commit("add", files, author=ZOE, day=0)
    repo.git("mv", "top.txt", "d/moved.txt")
    repo.git("commit", "-q", "-m", "move", author=BOB, day=1)
    repo.commit("edit", {"d/sp ace.txt": body + "more\n"}, author=ALICE, day=2)
    return repo


def report_bytes(tmp_path, repo_path) -> bytes:
    out = tmp_path / "report.json"
    assert main(["analyze", "--repo", str(repo_path), "--output", str(out)]) == 0
    return out.read_bytes()


def use_git_config(monkeypatch, tmp_path, *settings) -> None:
    """Run git under a global configuration holding only ``settings``."""
    config = tmp_path / "gitconfig"
    config.write_text("", encoding="utf-8")
    for key, value in settings:
        subprocess.run(["git", "config", "--file", str(config), key, value], check=True)
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")


def test_subdirectory_repo_means_the_whole_repository(tmp_path, monkeypatch, nested_repo):
    use_git_config(monkeypatch, tmp_path)
    whole = report_bytes(tmp_path, nested_repo.path)
    assert report_bytes(tmp_path, nested_repo.path / "d") == whole
    whole = json.loads(whole)
    assert whole["project"] == "nested"
    assert whole["warnings"] == []
    assert [f["path"] for f in whole["files"]] == ["d/moved.txt", "d/sp ace.txt", "d/é.txt"]
    assert whole["key_engineers"] == ["zoe@example.com"]


def test_every_way_into_the_repository_names_it(tmp_path, monkeypatch, nested_repo):
    """The project is the repository: a work tree, a directory in it, its
    ``.git``, a linked worktree and a bare clone all report its name."""
    use_git_config(monkeypatch, tmp_path)
    nested_repo.git("worktree", "add", "-q", "--detach", str(tmp_path / "linked"))
    bare = tmp_path / "bare.git"
    subprocess.run(["git", "clone", "-q", "--bare", str(nested_repo.path), str(bare)], check=True)
    reports = {
        where: json.loads(report_bytes(tmp_path, path))
        for where, path in [
            ("root", nested_repo.path),
            ("subdirectory", nested_repo.path / "d"),
            (".git", nested_repo.path / ".git"),
            ("linked worktree", tmp_path / "linked"),
            ("bare clone", bare),
        ]
    }
    projects = {where: report.pop("project") for where, report in reports.items()}
    assert projects == {**dict.fromkeys(projects, "nested"), "bare clone": "bare.git"}
    # the linked worktree is detached, so its branch reads HEAD
    reports["linked worktree"]["branch"] = "main"
    assert all(report == reports["root"] for report in reports.values())


@pytest.mark.parametrize("where", ["root", "subdirectory"])
@pytest.mark.parametrize("key, value", OUTPUT_SHAPING)
def test_git_config_does_not_change_the_report(
    tmp_path, monkeypatch, nested_repo, key, value, where
):
    repo_path = nested_repo.path if where == "root" else nested_repo.path / "d"
    use_git_config(monkeypatch, tmp_path)
    plain = report_bytes(tmp_path, repo_path)
    # a mailmap that renames Zoë, which log.mailmap would apply to %aN but not %an
    mailmap = tmp_path / "mailmap"
    mailmap.write_text("Someone Else <else@example.com> Zoë <zoe@example.com>\n", encoding="utf-8")
    use_git_config(monkeypatch, tmp_path, (key, value), ("mailmap.file", str(mailmap)))
    assert report_bytes(tmp_path, repo_path) == plain


def test_a_flushing_user_environment_does_not_change_the_report(
    tmp_path, monkeypatch, nested_repo
):
    use_git_config(monkeypatch, tmp_path)
    plain = report_bytes(tmp_path, nested_repo.path)
    monkeypatch.setenv("GIT_FLUSH", "1")
    assert report_bytes(tmp_path, nested_repo.path) == plain
