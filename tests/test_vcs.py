import json
import math
import os

import pytest

from busfactor import gitvcs
from busfactor.cli import main
from busfactor.errors import ConfigError, InputDataError, RepositoryError
from busfactor.gitvcs import (
    ChangeKind,
    FileChange,
    _read_log,
    default_branch,
    emit_vcs_events,
    snapshot_branch,
    traverse_branch,
)
from busfactor.identity import IdentityIndex, RawActor, merge_identities
from busfactor.model import INSTANT_RANGE_MS, EventKind
from busfactor.pipeline import run_analysis

from conftest import ALICE, BOB, CAROL, day_ms
from git_reference import diff_commit, merge_diff


def ingest(repo_path, branch="main"):
    commits = traverse_branch(repo_path, branch)
    snapshot = snapshot_branch(repo_path, branch)
    actors = [RawActor(name=c.author_name, email=c.author_email) for c in commits]
    identity = IdentityIndex(merge_identities(actors))
    return emit_vcs_events(commits, identity, snapshot), snapshot, commits


def events_of(repo, branch="main"):
    ingestion, _, _ = ingest(repo.path, branch)
    return ingestion.events


@pytest.fixture
def octopus_repo(mkrepo):
    repo = mkrepo("octopus")
    base = "top\n\nmid\n\nbot\n"
    repo.commit("base", {"shared.txt": base}, author=ALICE, day=0)
    for n, region in enumerate(("TOP\n\nmid\n\nbot\n", "top\n\nMID\n\nbot\n", "top\n\nmid\n\nBOT\n")):
        repo.git("branch", f"b{n}")
        repo.git("checkout", "-q", f"b{n}")
        repo.commit(f"edit {n}", {"shared.txt": region}, author=BOB, day=1)
        repo.git("checkout", "-q", "main")
    repo.commit("main work", {"own.txt": "m\n"}, author=ALICE, day=1)
    repo.merge("octopus", ["b0", "b1", "b2"], author=CAROL, day=2)
    return repo


@pytest.fixture
def born_in_merge_repo(mkrepo):
    repo = mkrepo("born")
    repo.commit("base", {"f.txt": "base\n"}, author=ALICE, day=0)
    repo.git("checkout", "-q", "-b", "side")
    repo.commit("side", {"f.txt": "side\n"}, author=BOB, day=1)
    repo.git("checkout", "-q", "main")
    repo.commit("main", {"f.txt": "main\n"}, author=ALICE, day=1)
    repo.git("merge", "side", "-m", "merge", author=CAROL, day=2, check=False)
    repo.write("f.txt", "settled\n")
    repo.write("hotfix.txt", "born in the merge\n")
    repo.git("add", "-A")
    repo.git("commit", "-q", "-m", "merge", author=CAROL, day=2)
    return repo


@pytest.fixture
def side_rename_repo(mkrepo):
    # the side branch renames doc.txt while main edits it, and the merge
    # itself renames keep.txt: against the main parent the merge shows two
    # renames, against the side parent an edit and one rename
    repo = mkrepo("side-rename")
    body = "".join(f"line {i}\n" for i in range(30))
    repo.commit("base", {"doc.txt": body, "keep.txt": body.upper()}, author=ALICE, day=0)
    repo.git("checkout", "-q", "-b", "side")
    repo.git("mv", "doc.txt", "guide.txt")
    repo.git("commit", "-q", "-m", "rename", author=BOB, day=1)
    repo.git("checkout", "-q", "main")
    repo.commit("edit", {"doc.txt": "LINE 0\n" + body[7:]}, author=ALICE, day=1)
    repo.git("merge", "-q", "--no-ff", "--no-commit", "side")
    repo.git("mv", "keep.txt", "kept.txt")
    repo.git("commit", "-q", "-m", "merge side", author=CAROL, day=2)
    return repo


@pytest.fixture
def empty_no_ff_repo(mkrepo):
    # the merge tree equals both parents' trees: every per-parent diff is empty
    repo = mkrepo("empty-merge")
    repo.commit("base", {"a.txt": "a\n"}, author=ALICE, day=0)
    repo.git("checkout", "-q", "-b", "side")
    repo.commit("nothing", None, author=BOB, day=1)
    repo.git("checkout", "-q", "main")
    repo.merge("merge nothing", ["side"], author=CAROL, day=2)
    return repo


class TestTraversal:
    def test_linear_history_in_commit_order(self, mkrepo):
        repo = mkrepo()
        first = repo.commit("one", {"a.txt": "1\n"}, author=ALICE, day=0)
        second = repo.commit("two", {"b.txt": "2\n"}, author=BOB, day=1)
        commits = traverse_branch(repo.path, "main")
        assert [c.id for c in commits] == [first, second]
        assert commits[0].author_email == "alice@example.com"
        assert commits[0].author_name == "Alice"
        assert commits[0].timestamp_ms == day_ms(0)
        assert commits[1].parent_ids == (first,)
        assert [(c.path, c.kind) for c in commits[1].changed_files] == [
            ("b.txt", ChangeKind.ADDED)
        ]

    def test_parents_precede_children_across_merges(self, merge_conflict_repo):
        commits = traverse_branch(merge_conflict_repo.path, "main")
        seen = set()
        for commit in commits:
            assert set(commit.parent_ids) <= seen
            seen.add(commit.id)
        assert commits[-1].is_merge

    def test_traversal_is_deterministic(self, merge_conflict_repo):
        once = traverse_branch(merge_conflict_repo.path, "main")
        again = traverse_branch(merge_conflict_repo.path, "main")
        assert once == again

    @pytest.mark.parametrize(
        "history",
        ["merge_conflict", "octopus", "side_rename", "empty_no_ff", "born_in_merge"],
    )
    def test_batched_diffs_match_per_commit_oracle(self, request, history):
        repo = request.getfixturevalue(f"{history}_repo")
        commits = traverse_branch(repo.path, "main")
        assert commits[-1].is_merge
        for commit in commits:
            if commit.is_merge:
                oracle = merge_diff(repo.path, commit)
            else:
                oracle = diff_commit(repo.path, commit)
            assert list(commit.changed_files) == oracle, commit.id

    def test_read_log_reads_a_hand_built_name_status_stream(self, caplog):
        def header(commit, parents, when):
            return f"\x01{commit}\0{parents}\0a@example.com\0Alice\0{when}\0"

        stream = "".join([
            # the merge, once per parent; the first status of a diff follows a newline
            header("c4", "c2 c3", 400), "\nM\0:colon.txt\0",
            header("c4", "c2 c3", 400), "\nM\0:colon.txt\0A\0Rfile.txt\0",
            header("c3", "c1", 300), "\nX\0odd.txt\0D\0gone.txt\0",
            header("c2", "c1", 200),
            "\nR087\0old.txt\0new.txt\0R100\0R\0Rr\0",
            "C075\0new.txt\0copy.txt\0T\0link\0",
            header("c1", "", 100), "\nA\0old.txt\0A\0R\0A\0gone.txt\0",
        ])
        listed = _read_log(stream)
        assert list(listed) == ["c4", "c3", "c2", "c1"]
        assert listed["c4"] == (
            ["c2 c3", "a@example.com", "Alice", "400"],
            [
                [FileChange(":colon.txt", ChangeKind.MODIFIED)],
                [
                    FileChange(":colon.txt", ChangeKind.MODIFIED),
                    FileChange("Rfile.txt", ChangeKind.ADDED),
                ],
            ],
        )
        # an unknown status is skipped with its path, once, and the next commit still reads
        assert listed["c3"][1] == [[FileChange("gone.txt", ChangeKind.DELETED)]]
        assert [r.getMessage() for r in caplog.records] == [
            "ignoring unrecognized diff status 'X'"
        ]
        assert listed["c2"][1] == [[
            FileChange("new.txt", ChangeKind.RENAMED, "old.txt", 87),
            FileChange("Rr", ChangeKind.RENAMED, "R", 100),
            FileChange("copy.txt", ChangeKind.ADDED),
            FileChange("link", ChangeKind.MODIFIED),
        ]]
        assert listed["c1"] == (
            ["", "a@example.com", "Alice", "100"],
            [[
                FileChange("old.txt", ChangeKind.ADDED),
                FileChange("R", ChangeKind.ADDED),
                FileChange("gone.txt", ChangeKind.ADDED),
            ]],
        )
        changes = [c for _, diffs in listed.values() for diff in diffs for c in diff]
        assert all(type(change.kind) is ChangeKind for change in changes)

    def test_empty_commit_changes_nothing(self, mkrepo):
        repo = mkrepo()
        repo.commit("seed", {"a.txt": "1\n"}, day=0)
        repo.commit("empty", None, day=1)
        commits = traverse_branch(repo.path, "main")
        assert commits[1].changed_files == ()

    def test_unborn_branch_is_empty(self, mkrepo):
        repo = mkrepo("fresh")
        assert traverse_branch(repo.path, "main") == []
        snap = snapshot_branch(repo.path, None)
        assert snap.live_files == frozenset()

    def test_unknown_branch_is_an_error_naming_it(self, single_owner_repo):
        with pytest.raises(RepositoryError, match="no-such-branch"):
            traverse_branch(single_owner_repo.path, "no-such-branch")

    def test_missing_path_is_an_error(self, tmp_path):
        with pytest.raises(RepositoryError, match="does not exist"):
            traverse_branch(tmp_path / "nowhere", "main")

    def test_non_repository_is_an_error(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        # git's own reason, from its first stderr line
        with pytest.raises(
            RepositoryError, match=r"git rev-parse --verify failed in .*: fatal: not a git repository"
        ):
            traverse_branch(plain, "main")

    def test_default_branch_detected(self, single_owner_repo):
        assert default_branch(single_owner_repo.path) == "main"

    def test_quoted_and_unicode_paths(self, mkrepo):
        repo = mkrepo()
        repo.commit("odd names", {'we"ird.txt': "x\n", "san josé.txt": "y\n"}, day=0)
        commits = traverse_branch(repo.path, "main")
        paths = sorted(c.path for c in commits[0].changed_files)
        assert paths == ['san josé.txt', 'we"ird.txt']
        snap = snapshot_branch(repo.path, "main")
        assert snap.live_files == {'san josé.txt', 'we"ird.txt'}

    def test_awkward_names_through_rename_and_merge(self, capsys, mkrepo):
        # git C-quotes every one of these names unless asked for NUL-separated output
        body = "".join(f"line {i}\n" for i in range(30))
        quoted, moved = 'naïve "quoted".txt', 'moved\\ "ü"\tname.txt'
        back, tab, newline = "日本\\back.txt", "tab\there ü.txt", "new\nline é.txt"
        repo = mkrepo()
        repo.commit("base", {quoted: body, back: "x\n", tab: "t\n", newline: "n\n"},
                    author=ALICE, day=0)
        repo.git("checkout", "-q", "-b", "side")
        repo.git("mv", quoted, moved)
        repo.commit("rename and edit", {moved: body + "more\n", tab: "side\n"},
                    author=BOB, day=1)
        repo.git("checkout", "-q", "main")
        repo.commit("edit", {back: "y\n", tab: "main\n"}, author=CAROL, day=1)
        repo.merge("merge side", ["side"], author=ALICE, day=2, resolve={tab: "both\n"})

        commits = traverse_branch(repo.path, "main")
        assert [c.is_merge for c in commits] == [False, False, False, True]
        for commit in commits:
            reference = merge_diff if commit.is_merge else diff_commit
            assert list(commit.changed_files) == reference(repo.path, commit), commit.id
        renames = [c for c in commits[1].changed_files + commits[2].changed_files
                   if c.kind is ChangeKind.RENAMED]
        assert [(c.from_path, c.path) for c in renames] == [(quoted, moved)]
        assert [c.path for c in commits[-1].changed_files] == [tab]

        code = main(["analyze", "--repo", str(repo.path)])
        out, err = capsys.readouterr()
        assert code == 0, err
        report = json.loads(out)
        assert sorted(f["path"] for f in report["files"]) == sorted([moved, back, tab, newline])
        assert report["warnings"] == []


class TestRenames:
    def test_pure_rename_detected(self, rename_only_repo):
        commits = traverse_branch(rename_only_repo.path, "main")
        change = commits[1].changed_files[0]
        assert change.kind is ChangeKind.RENAMED
        assert (change.from_path, change.path) == ("keep.txt", "moved.txt")
        assert change.rename_similarity == 100
        assert not change.content_changed

    def test_rename_extends_identity_without_new_knowledge(self, rename_only_repo):
        ingestion, _, _ = ingest(rename_only_repo.path, "main")
        kinds = [(e.kind, e.engineer_id) for e in ingestion.events]
        assert kinds == [
            (EventKind.FIRST_AUTHORSHIP, "alice@example.com"),
            (EventKind.COMMIT, "alice@example.com"),
        ]
        assert all(e.file_path == "moved.txt" for e in ingestion.events)

    def test_rename_with_edits_credits_the_renamer(self, mkrepo):
        repo = mkrepo()
        body = "\n".join(f"line {i}" for i in range(30)) + "\n"
        repo.commit("create", {"old.txt": body}, author=ALICE, day=0)
        repo.write("new.txt", body + "extra\n")
        repo.git("rm", "-q", "old.txt")
        repo.git("add", "-A")
        repo.git("commit", "-q", "-m", "rename and tweak", author=BOB, day=1)
        commits = traverse_branch(repo.path, "main")
        change = commits[1].changed_files[0]
        assert change.kind is ChangeKind.RENAMED
        assert change.rename_similarity < 100
        ingestion, _, _ = ingest(repo.path, "main")
        bob_commits = [
            e for e in ingestion.events
            if e.kind is EventKind.COMMIT and e.engineer_id == "bob@example.com"
        ]
        assert [e.file_path for e in bob_commits] == ["new.txt"]

    def test_delete_ends_the_file_segment(self, mkrepo):
        repo = mkrepo()
        repo.commit("first life", {"f.txt": "v1\n"}, author=ALICE, day=0)
        repo.commit("gone", None, author=ALICE, day=1, delete=["f.txt"])
        repo.commit("second life", {"f.txt": "v2\n"}, author=BOB, day=2)
        ingestion, _, _ = ingest(repo.path, "main")
        fa = [e for e in ingestion.events if e.kind is EventKind.FIRST_AUTHORSHIP]
        assert len(fa) == 1
        assert fa[0].engineer_id == "bob@example.com"
        assert fa[0].timestamp_ms == day_ms(2)
        assert all(e.engineer_id == "bob@example.com" for e in ingestion.events)

    def test_dead_files_leave_no_events(self, mkrepo):
        repo = mkrepo()
        repo.commit("both", {"keep.txt": "k\n", "temp.txt": "t\n"}, author=ALICE, day=0)
        repo.commit("drop temp", None, author=BOB, day=1, delete=["temp.txt"])
        ingestion, _, _ = ingest(repo.path, "main")
        assert {e.file_path for e in ingestion.events} == {"keep.txt"}


class TestMerges:
    def test_conflicted_merge_credits_only_the_intersection(self, merge_conflict_repo):
        commits = traverse_branch(merge_conflict_repo.path, "main")
        merge = commits[-1]
        assert [(c.path, c.kind) for c in merge.changed_files] == [
            ("f1.txt", ChangeKind.MODIFIED)
        ]

    def test_clean_merge_adds_no_events(self, mkrepo):
        repo = mkrepo()
        repo.commit("base", {"a.txt": "a\n"}, author=ALICE, day=0)
        repo.git("checkout", "-q", "-b", "side")
        repo.commit("side adds", {"b.txt": "b\n"}, author=BOB, day=1)
        repo.git("checkout", "-q", "main")
        repo.commit("main adds", {"c.txt": "c\n"}, author=ALICE, day=1)
        repo.merge("clean merge", ["side"], author=CAROL, day=2)
        commits = traverse_branch(repo.path, "main")
        merge = commits[-1]
        assert merge.is_merge
        assert merge.changed_files == ()
        ingestion, _, _ = ingest(repo.path, "main")
        assert "carol@example.com" not in {e.engineer_id for e in ingestion.events}

    def test_octopus_merge_intersects_all_parents(self, octopus_repo):
        repo = octopus_repo
        commits = traverse_branch(repo.path, "main")
        merge = commits[-1]
        assert len(merge.parent_ids) == 4
        assert [(c.path, c.kind) for c in merge.changed_files] == [
            ("shared.txt", ChangeKind.MODIFIED)
        ]
        assert merge_diff(repo.path, merge) == list(merge.changed_files)

    def test_merge_tree_equal_to_one_parent_changes_nothing(self, mkrepo):
        # the per-parent diff against the identical parent is empty, which
        # git omits from the batched listing entirely; the intersection must
        # still come out empty
        repo = mkrepo()
        repo.commit("base", {"a.txt": "a\n"}, author=ALICE, day=0)
        repo.git("checkout", "-q", "-b", "side")
        repo.commit("side work", {"b.txt": "b\n"}, author=BOB, day=1)
        repo.git("checkout", "-q", "main")
        repo.merge("keep history", ["side"], author=CAROL, day=2)
        merge = traverse_branch(repo.path, "main")[-1]
        assert merge.is_merge
        assert merge.changed_files == ()
        assert merge_diff(repo.path, merge) == []

    def test_file_born_in_a_merge_is_added_vs_all_parents(self, born_in_merge_repo):
        repo = born_in_merge_repo
        merge = traverse_branch(repo.path, "main")[-1]
        assert merge.is_merge
        changed = {c.path: c.kind for c in merge.changed_files}
        assert changed == {"f.txt": ChangeKind.MODIFIED, "hotfix.txt": ChangeKind.ADDED}
        ingestion, _, _ = ingest(repo.path, "main")
        fa = [
            e for e in ingestion.events
            if e.kind is EventKind.FIRST_AUTHORSHIP and e.file_path == "hotfix.txt"
        ]
        assert len(fa) == 1 and fa[0].engineer_id == "carol@example.com"


class TestEmission:
    def test_single_commit_produces_first_authorship_plus_commit(self, mkrepo):
        repo = mkrepo()
        sha = repo.commit("seed", {"a.txt": "1\n"}, author=ALICE, day=0)
        ingestion, _, _ = ingest(repo.path, "main")
        assert [(e.kind, e.engineer_id, e.file_path, e.timestamp_ms, e.commit_ref) for e in ingestion.events] == [
            (EventKind.FIRST_AUTHORSHIP, "alice@example.com", "a.txt", day_ms(0), sha),
            (EventKind.COMMIT, "alice@example.com", "a.txt", day_ms(0), sha),
        ]

    def test_first_add_wins_by_timestamp_then_hash(self, mkrepo):
        repo = mkrepo()
        repo.commit("base", {"root.txt": "r\n"}, author=ALICE, day=0)
        repo.git("checkout", "-q", "-b", "side")
        repo.commit("side adds f", {"f.txt": "same\n"}, author=BOB, day=1)
        repo.git("checkout", "-q", "main")
        repo.commit("main adds f later", {"f.txt": "different\n"}, author=CAROL, day=3)
        repo.git("merge", "side", "-m", "merge", author=ALICE, day=4, check=False)
        repo.write("f.txt", "settled\n")
        repo.git("add", "-A")
        repo.git("commit", "-q", "-m", "merge", author=ALICE, day=4)
        ingestion, _, _ = ingest(repo.path, "main")
        fa = [e for e in ingestion.events if e.kind is EventKind.FIRST_AUTHORSHIP and e.file_path == "f.txt"]
        assert len(fa) == 1
        assert fa[0].engineer_id == "bob@example.com"
        assert fa[0].timestamp_ms == day_ms(1)

    def test_events_filtered_to_head_live_files(self, single_owner_repo):
        ingestion, snapshot, _ = ingest(single_owner_repo.path, "main")
        assert {e.file_path for e in ingestion.events} <= snapshot.live_files
        assert len(snapshot.live_files) == 10

    def test_commit_index_maps_authors_and_files(self, mkrepo):
        repo = mkrepo()
        first = repo.commit("one", {"a.txt": "1\n"}, author=ALICE, day=0)
        second = repo.commit("two", {"a.txt": "2\n", "b.txt": "1\n"}, author=BOB, day=1)
        ingestion, _, _ = ingest(repo.path, "main")
        assert ingestion.commit_index[first].engineers == ("alice@example.com",)
        assert ingestion.commit_index[first].file_paths == ("a.txt",)
        assert ingestion.commit_index[second].file_paths == ("a.txt", "b.txt")
        assert ingestion.commit_index[second].timestamp_ms == day_ms(1)

    def test_commit_index_holds_each_commits_own_commit_credit(self, merge_conflict_repo):
        ingestion, _, commits = ingest(merge_conflict_repo.path, "main")
        commit_credit = [c for c in ingestion.credit if c.kind is EventKind.COMMIT]
        assert [c.commit_ref for c in commit_credit] == [c.id for c in commits]
        assert list(ingestion.commit_index) == [c.id for c in commits]
        for credit in commit_credit:
            assert ingestion.commit_index[credit.commit_ref] is credit

    def test_unknown_author_is_an_error(self, mkrepo):
        repo = mkrepo()
        repo.commit("seed", {"a.txt": "1\n"}, author=ALICE, day=0)
        commits = traverse_branch(repo.path, "main")
        snapshot = snapshot_branch(repo.path, "main")
        index = IdentityIndex(merge_identities([RawActor(name="Zed", email="zed@example.com")]))
        with pytest.raises(InputDataError, match="alice@example.com"):
            emit_vcs_events(commits, index, snapshot)

    def test_emission_is_deterministic(self, merge_conflict_repo):
        first = events_of(merge_conflict_repo)
        second = events_of(merge_conflict_repo)
        assert first == second


class TestHeadResolution:
    @pytest.mark.parametrize("branch, budget", [(None, 4), ("main", 3)])
    def test_git_call_budget(self, monkeypatch, single_owner_repo, branch, budget):
        calls = []
        envs = []
        real_run = gitvcs.subprocess.run

        def counting_run(cmd, *args, **kwargs):
            calls.append(cmd)
            envs.append(kwargs.get("env"))
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(gitvcs.subprocess, "run", counting_run)
        # git buffers its output whatever the user asks, and keeps the rest of the environment
        monkeypatch.setenv("GIT_FLUSH", "1")
        monkeypatch.setenv("BUSFACTOR_TEST_MARKER", "kept")
        run_analysis(single_owner_repo.path, branch=branch)
        assert len(calls) <= budget, calls
        assert sum("log" in cmd for cmd in calls) == 1, calls
        assert envs == [{**os.environ, "GIT_FLUSH": "0"}] * len(calls)

    def test_unknown_algorithm_is_a_config_error(self, single_owner_repo):
        message = r"^unknown algorithm 'nope'; expected one of multimodal, baseline, both$"
        with pytest.raises(ConfigError, match=message):
            run_analysis(single_owner_repo.path, algorithm="nope")

    @pytest.mark.parametrize("as_of_ms", [10**30, -(10**30), INSTANT_RANGE_MS.stop])
    def test_as_of_outside_the_printable_years_is_a_config_error(self, single_owner_repo, as_of_ms):
        with pytest.raises(ConfigError, match=r"^as_of_ms is outside the years 1-9999 UTC$"):
            run_analysis(single_owner_repo.path, as_of_ms=as_of_ms)

    def test_as_of_that_is_not_an_int_is_an_input_error(self, tmp_path):
        # checked before git runs: the directory is not a repository
        with pytest.raises(InputDataError, match=r"^as_of_ms must be an int, got nan$"):
            run_analysis(tmp_path, as_of_ms=math.nan)

    def test_detached_head_analyzes_the_checked_out_commit(self, quarter_owners_repo):
        on_main = run_analysis(quarter_owners_repo.path).report
        quarter_owners_repo.git("checkout", "-q", "--detach")
        detached = run_analysis(quarter_owners_repo.path).report
        assert detached["branch"] == "HEAD"
        assert detached["bus_factor"] == on_main["bus_factor"] == 3
        assert detached["key_engineers"] == on_main["key_engineers"]
