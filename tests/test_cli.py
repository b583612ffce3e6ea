import gc
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import busfactor
from busfactor import gitvcs
from busfactor.cli import main
from busfactor.eventlog import read_event_log
from busfactor.gitvcs import traverse_branch
from busfactor.model import AlgorithmParams, format_instant
from busfactor.pipeline import run_analysis

from conftest import ALICE, BOB, CAROL, DAVE, build_big_repo, day_ms

REPORT_KEYS = {
    "project",
    "branch",
    "as_of",
    "algorithm",
    "bus_factor",
    "key_engineers",
    "coverage_trace",
    "file_count",
    "files",
    "params",
    "warnings",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_json(capsys, repo, *extra):
    code, out, err = run_cli(capsys, "analyze", "--repo", str(repo.path), *extra)
    assert code == 0, err
    return json.loads(out)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def input_file_argv(tmp_path, repo, command, flag, path):
    """Arguments of a run that reads ``path`` as ``flag``, every other input valid."""
    if command == "analyze":
        return ["analyze", "--repo", str(repo.path), flag, str(path)]
    good = write_json(tmp_path, "good.json", {"projects": []})
    files = {"--predictions": good, "--truth": good, flag: str(path)}
    return ["evaluate", *[part for pair in files.items() for part in pair]]


def fresh_cli(python, *argv):
    """Run the CLI in a fresh ``python`` process, so warnings reach stderr."""
    src = str(Path(busfactor.__file__).resolve().parents[1])
    return subprocess.run(
        [python, "-m", "busfactor", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )


def other_interpreters() -> list[str]:
    """Every other CPython 3.10-3.13 on PATH that starts."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or exe is None:
            continue
        try:
            proc = subprocess.run(
                [exe, "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == str((3, minor)):
            found.append(exe)
    return found


def set_first(path, name, value):
    """Set field ``name`` of the first record of a JSON array file."""
    records = json.loads(Path(path).read_text(encoding="utf-8"))
    records[0][name] = value
    Path(path).write_text(json.dumps(records), encoding="utf-8")


def merge_rename_delete_repo(mkrepo):
    """A history with a conflicted merge, a rename with an edit and a delete."""
    repo = mkrepo("branchy")
    body = "".join(f"line {i}\n" for i in range(20))
    repo.commit("base", {"doc.txt": body, "old.txt": body.upper(), "tmp.txt": "t\n",
                         "lib/a.py": "a\n"}, author=ALICE, day=0)
    repo.git("checkout", "-q", "-b", "side")
    repo.git("mv", "old.txt", "new.txt")
    repo.commit("rename and edit", {"new.txt": body.upper() + "MORE\n"}, author=BOB, day=1)
    repo.commit("side edit", {"lib/a.py": "a side\n"}, author=BOB, day=2.5)
    repo.git("checkout", "-q", "main")
    repo.commit("main edit", {"lib/a.py": "a main\n", "doc.txt": body + "x\n"},
                author=CAROL, day=2, delete=["tmp.txt"])
    repo.merge("merge side", ["side"], author=ALICE, day=3, resolve={"lib/a.py": "a resolved\n"})
    repo.commit("after", {"lib/b.py": "b\n"}, author=DAVE, day=4)
    return repo


def collab_argv(inputs, repo) -> list[str]:
    """``analyze --algorithm both`` with reviews of every third commit and 12 meetings."""
    inputs.mkdir()
    log = repo.git("log", "--reverse", "--format=%H %at", "main").split("\n")
    commits = [(sha, int(at) * 1000) for sha, at in (line.split() for line in log if line)]
    people = ["alice", "bob", "carol", "dave", "erin"]
    reviews = write_json(inputs, "reviews.json", [
        {
            "id": f"r{i}",
            "reviewers": [{"email": f"{people[(i + k) % 5]}@example.com"} for k in (1, 2)],
            "commit_ids": [sha],
            "completed_at": ms + 864_000,
            "state": "merged",
        }
        for i, (sha, ms) in enumerate(commits) if i % 3 == 0
    ])
    meetings = write_json(inputs, "meetings.json", [
        {
            "id": f"m{i}",
            "participants": [{"email": f"{name}@example.com"} for name in people[i % 3:]],
            "start": commits[i * len(commits) // 12][1],
            "duration_minutes": 15 + 7 * (i % 5),
            "title": "design sync",
        }
        for i in range(12)
    ])
    return ["analyze", "--repo", str(repo.path), "--reviews", reviews,
            "--meetings", meetings, "--algorithm", "both"]


# every AlgorithmParams field with each value no field accepts
BAD_CONFIG_VALUES = [
    pytest.param(name, value, id=f"{name}={json.dumps(value)}")
    for name in AlgorithmParams.field_names()
    for value in (True, None, {}, "NaN", "inf", [1], [])
    # an empty list is a valid keyword list: it excludes no meeting
    if (name, value) != ("meeting_exclude_keywords", [])
]

FIRST_MS_OF_YEAR_1 = -62_135_596_800_000
FIRST_MS_OF_YEAR_10000 = 253_402_300_800_000


class TestAnalyzeReport:
    def test_report_schema_and_values(self, capsys, single_owner_repo):
        report = analyze_json(capsys, single_owner_repo)
        assert set(report) == REPORT_KEYS
        assert report["project"] == "single"
        assert report["branch"] == "main"
        assert report["as_of"] == "2024-01-01T00:00:00Z"
        assert report["algorithm"] == "multimodal"
        assert report["bus_factor"] == 1
        assert report["key_engineers"] == ["alice@example.com"]
        assert report["coverage_trace"] == [0.0]
        assert report["file_count"] == 10
        assert len(report["files"]) == 10
        for entry in report["files"]:
            assert set(entry) == {"path", "authors", "top_doa"}
            assert entry["authors"] == ["alice@example.com"]
            assert entry["top_doa"] == pytest.approx(5.663553233343869, abs=1e-9)
        assert report["params"]["decay_days"] == 220.0
        assert report["warnings"] == []

    def test_empty_repository_report(self, capsys, mkrepo):
        repo = mkrepo("empty")
        report = analyze_json(capsys, repo)
        assert report["bus_factor"] == 0
        assert report["file_count"] == 0
        assert report["coverage_trace"] == []
        assert report["key_engineers"] == [] and report["files"] == []
        assert report["warnings"] == [
            "event log is empty; every score is 0 and the bus factor is 0",
            "no files to analyze; bus factor is 0",
        ]
        # in a fresh interpreter, so the warnings reach stderr through logging
        src = str(Path(busfactor.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "busfactor", "analyze", "--repo", str(repo.path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            f"busfactor: WARNING: {warning}" for warning in report["warnings"]
        ]

    def test_unborn_branch_reports_no_instant(self, capsys, mkrepo):
        repo = mkrepo("fresh")  # git init, no commit
        assert analyze_json(capsys, repo)["as_of"] is None
        both = analyze_json(capsys, repo, "--algorithm", "both")
        assert both["as_of"] is None
        assert [doc["as_of"] for doc in both["results"].values()] == [None, None]
        code, out, err = run_cli(capsys, "analyze", "--repo", str(repo.path), "--format", "text")
        assert code == 0, err
        assert "as of:          (none)\n" in out
        # an explicit instant is still reported
        report = analyze_json(capsys, repo, "--as-of", "2024-01-01T00:00:00Z")
        assert report["as_of"] == "2024-01-01T00:00:00Z"

    def test_runs_are_byte_identical(self, capsys, quarter_owners_repo):
        args = ["analyze", "--repo", str(quarter_owners_repo.path)]
        code_a = main(args)
        first = capsys.readouterr().out
        code_b = main(args)
        second = capsys.readouterr().out
        assert code_a == code_b == 0
        assert first == second

    def test_quarter_owners_walk(self, capsys, quarter_owners_repo):
        report = analyze_json(capsys, quarter_owners_repo)
        # newest block owner has the highest decayed total, leaves first
        assert report["bus_factor"] == 3
        assert report["key_engineers"] == [
            "dave@example.com",
            "carol@example.com",
            "bob@example.com",
        ]
        assert report["coverage_trace"] == [0.75, 0.5, 0.25]
        assert report["as_of"] == "2024-01-04T00:00:00Z"

    def test_both_mode_embeds_single_run_documents(self, capsys, half_owners_repo):
        both = analyze_json(capsys, half_owners_repo, "--algorithm", "both")
        single_multi = analyze_json(capsys, half_owners_repo, "--algorithm", "multimodal")
        single_base = analyze_json(capsys, half_owners_repo, "--algorithm", "baseline")
        assert set(both) == {"project", "branch", "as_of", "algorithm", "results"}
        assert both["algorithm"] == "both"
        assert both["results"]["multimodal"] == single_multi
        assert both["results"]["baseline"] == single_base

    def test_text_format(self, capsys, single_owner_repo):
        code, out, _ = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), "--format", "text"
        )
        assert code == 0
        assert "bus factor:     1" in out
        assert "key engineers:  alice@example.com" in out

    def test_output_file(self, capsys, tmp_path, single_owner_repo):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "--repo",
            str(single_owner_repo.path),
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        on_disk = json.loads(target.read_text(encoding="utf-8"))
        assert set(on_disk) == REPORT_KEYS

    def test_branch_flag(self, capsys, mkrepo):
        repo = mkrepo("branchy")
        repo.commit("base", {"a.txt": "a\n"}, author=ALICE, day=0)
        repo.git("checkout", "-q", "-b", "feature")
        repo.commit("extra", {"b.txt": "b\n"}, author=BOB, day=1)
        repo.git("checkout", "-q", "main")
        report = analyze_json(capsys, repo, "--branch", "feature")
        assert report["branch"] == "feature"
        assert report["file_count"] == 2


# --as-of strings: the form every CPython from 3.10 reads, then forms that
# only 3.11 and later read, forms that 3.10 reads outside its documented
# grammar, and strings no interpreter reads
INSTANT_TEXTS = (
    "2024-01-01", "2024-01-01T05", "2024-01-01T05:06", "2024-01-01 05:06:07",
    "2024-01-01T05:06:07.123", "2024-01-01T05:06:07.123456Z", "2024-01-01T05-01:30",
    "2024-01-01T05:06:07+01:30:15.123456", " 2024-01-01T00:00:00Z\n", "2024-01-01\ud80005:06",
    "2024-01-01T00:00:00.5Z", "20240101T000000Z", "2024-W01-1", "2024-01-01T00:00:00,500",
    "2024-01-01T0506", "2024-01-01T05:06+0130", "2024-01-01T05:06:07+01:30:15.123",
    "2024-01-01T05:06.500", "2024-01-01T05:06:07x+01:00",
    "2024-01-01T24:00", "2024-02-30", "\uff12\uff10\uff12\uff14-01-01", "yesterday", "",
    "9999-12-31T23:59:59-01:00",
)
PARSE_INSTANTS = """
import json, sys
from busfactor.model import parse_instant
out = []
for text in json.load(sys.stdin):
    try:
        out.append(parse_instant(text))
    except ValueError as exc:
        out.append(str(exc))
print(json.dumps(out))
"""


class TestAsOf:
    def test_flag_sets_instant(self, capsys, single_owner_repo):
        report = analyze_json(
            capsys, single_owner_repo, "--as-of", "2024-06-01T00:00:00Z"
        )
        assert report["as_of"] == "2024-06-01T00:00:00Z"
        assert report["files"][0]["top_doa"] < 5.663553233343869

    def test_invalid_instant_is_a_usage_error(self, capsys, single_owner_repo):
        code, _, err = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), "--as-of", "yesterday"
        )
        assert code == 1
        assert "--as-of" in err

    @pytest.mark.parametrize("text", ["2024-01-01T00:00:00.5Z", "20240101T000000Z", "2024-W01-1"])
    def test_forms_read_only_by_later_interpreters_are_usage_errors(
        self, capsys, single_owner_repo, text
    ):
        code, out, err = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), "--as-of", text
        )
        assert (code, out) == (1, "")
        assert err == f"busfactor: error: --as-of: not an ISO-8601 instant: {text!r}\n"

    def test_instants_parse_alike_across_interpreters(self):
        interpreters = other_interpreters()
        if not interpreters:
            pytest.skip("no other CPython 3.10-3.13 on PATH starts")
        src = str(Path(busfactor.__file__).resolve().parents[1])
        runs = {
            python: subprocess.run(
                [python, "-c", PARSE_INSTANTS], input=json.dumps(INSTANT_TEXTS),
                env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            )
            for python in (sys.executable, *interpreters)
        }
        expected = json.loads(runs.pop(sys.executable).stdout)
        assert sum(isinstance(r, int) for r in expected) == 10
        for python, proc in runs.items():
            assert proc.returncode == 0, (python, proc.stderr)
            assert json.loads(proc.stdout) == expected, python

    def test_default_instant_is_the_newest_commit(self, capsys, mkrepo):
        # after a rebase or cherry-pick an ancestor can be newer than the head
        repo = mkrepo("rebased")
        repo.commit("newer ancestor", {"a.txt": "a\n"}, author=ALICE, day=4)
        repo.commit("older head", {"b.txt": "b\n"}, author=BOB, day=0)
        report = analyze_json(capsys, repo)
        assert report["as_of"] == "2024-01-05T00:00:00Z"
        assert report["file_count"] == 2

    def test_instant_before_events_is_input_error(self, capsys, single_owner_repo):
        code, _, err = run_cli(
            capsys,
            "analyze",
            "--repo",
            str(single_owner_repo.path),
            "--as-of",
            "2023-01-01T00:00:00Z",
        )
        assert code == 2
        assert "as-of" in err or "as_of" in err

    @pytest.mark.parametrize("text", ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+00:01"])
    def test_instant_outside_years_1_to_9999_is_a_usage_error(
        self, capsys, single_owner_repo, text
    ):
        code, out, err = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), "--as-of", text
        )
        assert (code, out) == (1, "")
        assert err == (
            f"busfactor: error: --as-of: instant {text!r} is outside the years 1-9999 UTC\n"
        )


class TestParams:
    def test_param_overrides_config_file(self, capsys, tmp_path, single_owner_repo):
        config = write_json(tmp_path, "config.json", {"decay_days": 10, "fa_weight": 5})
        report = analyze_json(
            capsys,
            single_owner_repo,
            "--config",
            config,
            "--param",
            "decay_days=500",
        )
        assert report["params"]["decay_days"] == 500.0
        assert report["params"]["fa_weight"] == 5.0

    def test_param_changes_result(self, capsys, quarter_owners_repo):
        report = analyze_json(
            capsys, quarter_owners_repo, "--param", "coverage_threshold=0.75"
        )
        assert report["bus_factor"] == 2
        assert report["params"]["coverage_threshold"] == 0.75

    def test_keywords_param_comma_split(self, capsys, single_owner_repo):
        report = analyze_json(
            capsys,
            single_owner_repo,
            "--param",
            "meeting_exclude_keywords=standup, sync",
        )
        assert report["params"]["meeting_exclude_keywords"] == ["standup", "sync"]

    def test_unknown_param_key(self, capsys, single_owner_repo):
        code, _, err = run_cli(
            capsys,
            "analyze",
            "--repo",
            str(single_owner_repo.path),
            "--param",
            "velocity=9",
        )
        assert code == 1
        assert "velocity" in err

    def test_param_without_equals(self, capsys, single_owner_repo):
        code, _, err = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), "--param", "decay_days"
        )
        assert code == 1
        assert "KEY=VALUE" in err

    def test_out_of_range_param_value(self, capsys, single_owner_repo):
        code, _, err = run_cli(
            capsys,
            "analyze",
            "--repo",
            str(single_owner_repo.path),
            "--param",
            "coverage_threshold=1.5",
        )
        assert code == 1
        assert "coverage_threshold" in err

    @pytest.mark.parametrize("value", ["7.9", "true", "0.5", "1e400"])
    def test_meeting_window_days_must_be_integral(self, capsys, single_owner_repo, value):
        code, out, err = run_cli(
            capsys,
            "analyze",
            "--repo",
            str(single_owner_repo.path),
            "--param",
            f"meeting_window_days={value}",
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert "meeting_window_days must be an integer" in err

    @pytest.mark.parametrize(
        "pair", ["decay_days=true", "fa_weight=NaN", "doa_threshold=-Infinity"]
    )
    def test_bool_or_non_finite_param_is_a_config_error(self, capsys, single_owner_repo, pair):
        code, out, err = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), "--param", pair
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert f"{pair.split('=')[0]} must be a finite number" in err

    @pytest.mark.parametrize("value", ["5", "[1, null]"])
    @pytest.mark.parametrize("via", ["--param", "--config"])
    def test_keywords_must_be_a_list_of_strings(
        self, capsys, tmp_path, single_owner_repo, via, value
    ):
        if via == "--param":
            flag = f"meeting_exclude_keywords={value}"
        else:
            flag = str(tmp_path / "config.json")
            Path(flag).write_text(f'{{"meeting_exclude_keywords": {value}}}', encoding="utf-8")
        code, out, err = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), via, flag
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert "meeting_exclude_keywords must be a list of strings" in err

    @pytest.mark.parametrize("via", ["--param", "--config"])
    def test_empty_keyword_is_a_config_error(self, capsys, tmp_path, single_owner_repo, via):
        # "" is in every title, so it would silently drop every meeting
        if via == "--param":
            flag = 'meeting_exclude_keywords=["standup", ""]'
        else:
            flag = write_json(tmp_path, "config.json", {"meeting_exclude_keywords": [""]})
        code, out, err = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), via, flag
        )
        assert (code, out) == (1, "")
        assert err == (
            "busfactor: error: meeting_exclude_keywords must not hold '', "
            "which every title contains\n"
        )

    @pytest.mark.parametrize(("name", "value"), BAD_CONFIG_VALUES)
    def test_bad_config_value_is_a_one_line_config_error(
        self, capsys, tmp_path, single_owner_repo, name, value
    ):
        config = write_json(tmp_path, "config.json", {name: value})
        code, out, err = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), "--config", config
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith(f"busfactor: error: {name} ")

    def test_unknown_config_key(self, capsys, tmp_path, single_owner_repo):
        config = write_json(tmp_path, "config.json", {"decay_dayz": 10})
        code, _, err = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), "--config", config
        )
        assert code == 1
        assert "decay_dayz" in err

    def test_config_must_be_object(self, capsys, tmp_path, single_owner_repo):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), "--config", str(path)
        )
        assert code == 1
        assert "object" in err


class TestExitCodes:
    def test_unknown_branch(self, capsys, single_owner_repo):
        code, _, err = run_cli(
            capsys, "analyze", "--repo", str(single_owner_repo.path), "--branch", "release"
        )
        assert code == 3
        assert "release" in err

    def test_missing_repository(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--repo", str(tmp_path / "nowhere"))
        assert code == 3

    def test_file_as_repository(self, capsys, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("x\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", "--repo", str(path))
        assert code == 3
        assert err == f"busfactor: error: not a git repository: {path}\n"

    def test_git_not_on_path(self, capsys, monkeypatch, single_owner_repo, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))
        code, out, err = run_cli(capsys, "analyze", "--repo", str(single_owner_repo.path))
        assert (code, out) == (3, "")
        assert err == (
            "busfactor: error: cannot run git (No such file or directory); "
            "git 2.31 or newer must be on PATH\n"
        )

    def test_missing_repository_named_git(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "analyze", "--repo", "git")
        assert (code, out) == (3, "")
        assert err == "busfactor: error: repository path does not exist: git\n"

    def test_repository_git_cannot_enter(self, capsys, monkeypatch, single_owner_repo):
        # what a user who may not search the directory meets
        path = str(single_owner_repo.path)

        def refused(*args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(gitvcs.subprocess, "run", refused)
        code, out, err = run_cli(capsys, "analyze", "--repo", path)
        assert (code, out) == (3, "")
        assert err == f"busfactor: error: cannot open repository {path}: Permission denied\n"

    def test_non_utf8_path_is_a_repository_error(self, capsys, mkrepo):
        repo = mkrepo("latin1")
        (repo.path / os.fsdecode(b"caf\xe9.txt")).write_text("x\n", encoding="utf-8")
        repo.commit("latin-1 file name", author=ALICE, day=0)
        code, out, err = run_cli(capsys, "analyze", "--repo", str(repo.path))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "git log" in err and "UTF-8" in err

    def test_unmapped_commit_author_warns_once(self, mkrepo):
        repo = mkrepo("anonymous")
        repo.commit("add", {"a.txt": "a\n"}, author=("Nobody", ""), day=0)
        # in a fresh interpreter, so the warnings reach stderr through logging
        src = str(Path(busfactor.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "busfactor", "analyze", "--repo", str(repo.path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "busfactor: WARNING: author <> has a blank email; "
            "merged by name into engineer 'Nobody'"
        ]

    def test_second_blank_email_author_is_its_own_engineer_without_a_second_warning(
        self, mkrepo
    ):
        repo = mkrepo("anonymous")
        repo.commit("add", {"a.txt": "a\n"}, author=("Nobody", ""), day=0)
        repo.commit("add", {"b.txt": "b\n"}, author=("Other", ""), day=1)
        repo.commit("edit", {"a.txt": "a2\n"}, author=("Nobody", ""), day=2)
        proc = fresh_cli(sys.executable, "analyze", "--repo", str(repo.path))
        assert proc.returncode == 0, proc.stderr
        warning = "author <> has a blank email; merged by name into engineer 'Nobody'"
        assert proc.stderr == f"busfactor: WARNING: {warning}\n"
        report = json.loads(proc.stdout)
        assert report["warnings"] == [warning]
        assert [(f["path"], f["authors"]) for f in report["files"]] == [
            ("a.txt", ["Nobody"]), ("b.txt", ["Other"]),
        ]
        assert report["key_engineers"] == ["Nobody", "Other"]

    def test_malformed_reviews_file(self, capsys, tmp_path, single_owner_repo):
        path = tmp_path / "reviews.json"
        path.write_text("{oops", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "analyze",
            "--repo",
            str(single_owner_repo.path),
            "--reviews",
            str(path),
        )
        assert code == 2
        assert "reviews" in err

    @pytest.mark.parametrize(
        ("command", "flag", "expected"),
        [
            ("analyze", "--reviews", 2),
            ("analyze", "--meetings", 2),
            ("analyze", "--config", 1),
            ("evaluate", "--predictions", 2),
            ("evaluate", "--truth", 2),
        ],
    )
    def test_non_utf8_input_file_is_one_line(
        self, capsys, tmp_path, single_owner_repo, command, flag, expected
    ):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'[{"title": "caf\xe9"}]')
        argv = input_file_argv(tmp_path, single_owner_repo, command, flag, bad)
        code, out, err = run_cli(capsys, *argv)
        assert code == expected
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("busfactor: error: ")
        assert f"{bad} is not UTF-8" in err

    @pytest.mark.parametrize(
        ("command", "flag", "expected"),
        [
            ("analyze", "--reviews", 2),
            ("analyze", "--meetings", 2),
            ("analyze", "--config", 1),
            ("analyze", "--param", 1),
            ("evaluate", "--predictions", 2),
            ("evaluate", "--truth", 2),
        ],
    )
    def test_deeply_nested_json_is_one_line(
        self, capsys, tmp_path, single_owner_repo, command, flag, expected
    ):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        if flag == "--param":
            value = f"decay_days={'[' * 100_000}"
            argv = ["analyze", "--repo", str(single_owner_repo.path), flag, value]
        else:
            argv = input_file_argv(tmp_path, single_owner_repo, command, flag, deep)
        code, out, err = run_cli(capsys, *argv)
        assert code == expected
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("busfactor: error: ")
        assert "nests JSON too deeply to parse" in err

    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    @pytest.mark.parametrize(
        "flag", ["analyze --output", "analyze --dump-events", "evaluate --output"]
    )
    def test_unwritable_output_is_one_line(
        self, capsys, tmp_path, single_owner_repo, flag, target
    ):
        path = tmp_path if target == "directory" else tmp_path / "absent" / "out.json"
        command, option = flag.split()
        if command == "analyze":
            argv = ["analyze", "--repo", str(single_owner_repo.path)]
        else:
            project = {"name": "a", "bus_factor": 1, "estimates": [1], "key_engineers": ["x"]}
            files = write_json(tmp_path, "both.json", {"projects": [project]})
            argv = ["evaluate", "--predictions", files, "--truth", files]
        code, out, err = run_cli(capsys, *argv, option, str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"busfactor: error: cannot write {path}: ")

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "command" in err

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze"])
        assert excinfo.value.code == 1

    def test_unknown_algorithm_choice(self, capsys, single_owner_repo):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--repo", str(single_owner_repo.path), "--algorithm", "x"])
        assert excinfo.value.code == 1


class TestCollaborationChannels:
    @pytest.fixture
    def reviewed_repo(self, mkrepo):
        repo = mkrepo("reviewed")
        repo.commit(
            "feature",
            {
                "src/a.py": "a = 1\n",
                "src/b.py": "b = 2\n",
                "src/c.py": "c = 3\n",
            },
            author=ALICE,
            day=0,
        )
        return repo

    def review_file(self, tmp_path, repo, completed_day):
        return write_json(
            tmp_path,
            "reviews.json",
            [
                {
                    "id": "r1",
                    "reviewers": [{"name": "Bob", "email": "bob@example.com"}],
                    "commit_ids": [repo.head()],
                    "completed_at": day_ms(completed_day),
                    "state": "merged",
                }
            ],
        )

    def test_review_after_newest_commit_sets_default_as_of(
        self, capsys, tmp_path, reviewed_repo
    ):
        reviews = self.review_file(tmp_path, reviewed_repo, completed_day=730)
        report = analyze_json(capsys, reviewed_repo, "--reviews", reviews)
        assert report["as_of"] == format_instant(day_ms(730))
        code, _, err = run_cli(
            capsys,
            "analyze",
            "--repo",
            str(reviewed_repo.path),
            "--reviews",
            reviews,
            "--as-of",
            format_instant(day_ms(0)),
        )
        assert code == 2
        assert "--as-of" in err

    def test_actors_named_by_case_padding_or_profile_ref_resolve_silently(
        self, tmp_path, reviewed_repo
    ):
        reviews = write_json(tmp_path, "reviews.json", [{
            "id": "r1",
            "reviewers": [
                {"email": "BOB@Example.com"},
                {"email": "  carol@example.com "},
                {"profile_ref": "u/dave"},
            ],
            "commit_ids": [reviewed_repo.head()],
            "completed_at": day_ms(1),
            "state": "merged",
        }])
        meetings = write_json(tmp_path, "meetings.json", [{
            "id": "m1",
            "participants": [
                {"email": " ALICE@example.com"},
                {"email": "Bob@example.com\t"},
                {"profile_ref": " u/dave"},
            ],
            "start": day_ms(1),
            "duration_minutes": 30,
            "title": "design sync",
        }])
        dump = tmp_path / "events.jsonl"
        proc = fresh_cli(
            sys.executable, "analyze", "--repo", str(reviewed_repo.path),
            "--reviews", reviews, "--meetings", meetings, "--dump-events", str(dump),
        )
        assert proc.returncode == 0, proc.stderr
        assert "has a blank email" not in proc.stderr
        assert json.loads(proc.stdout)["warnings"] == []
        by_kind = {}
        for event in read_event_log(dump):
            by_kind.setdefault(event.kind.value, set()).add(event.engineer_id)
        assert by_kind["review"] == {"bob@example.com", "carol@example.com", "u/dave"}
        assert by_kind["meeting"] == {"alice@example.com", "bob@example.com", "u/dave"}

    def test_reviewers_sharing_a_blank_profile_ref_stay_two_engineers(
        self, capsys, tmp_path, reviewed_repo
    ):
        reviews = write_json(tmp_path, "reviews.json", [{
            "id": "r1",
            "reviewers": [
                {"email": "bob@example.com", "profile_ref": " "},
                {"email": "carol@example.com", "profile_ref": " "},
            ],
            "commit_ids": [reviewed_repo.head()],
            "completed_at": day_ms(1),
            "state": "merged",
        }])
        dump = tmp_path / "events.jsonl"
        code, _, err = run_cli(
            capsys, "analyze", "--repo", str(reviewed_repo.path),
            "--reviews", reviews, "--dump-events", str(dump),
        )
        assert code == 0, err
        reviewers = {e.engineer_id for e in read_event_log(dump) if e.kind.value == "review"}
        assert reviewers == {"bob@example.com", "carol@example.com"}

    @pytest.mark.parametrize("actor", [
        {"name": "Nobody", "email": " ", "profile_ref": " "},
        {"name": "Nobody", "email": "", "profile_ref": "\t"},
        {"name": "Nobody"},
    ])
    @pytest.mark.parametrize("flag", ["--reviews", "--meetings"])
    def test_actor_blank_on_both_keys_is_a_one_line_input_error(
        self, capsys, tmp_path, reviewed_repo, actor, flag
    ):
        if flag == "--reviews":
            path = self.review_file(tmp_path, reviewed_repo, completed_day=1)
            set_first(path, "reviewers", [actor])
            where = "review #0 reviewer #0"
        else:
            path = self.meeting_file(tmp_path, 1, ["alice@example.com"])
            set_first(path, "participants", [actor])
            where = "meeting #0 participant #0"
        code, out, err = run_cli(capsys, "analyze", "--repo", str(reviewed_repo.path), flag, path)
        assert (code, out) == (2, "")
        assert err == f"busfactor: error: {where}: actor needs an 'email' or a 'profile_ref'\n"

    def test_report_bytes_match_across_interpreters(self, tmp_path, mkrepo):
        interpreters = other_interpreters()
        if not interpreters:
            pytest.skip("no other CPython 3.10-3.13 on PATH starts")
        linear = build_big_repo(tmp_path / "big", n_commits=300, n_files=12)
        branchy = merge_rename_delete_repo(mkrepo)
        changes = [c for commit in traverse_branch(branchy.path) for c in commit.changed_files]
        assert {c.kind.value for c in changes} == {"added", "modified", "deleted", "renamed"}
        assert any(commit.is_merge for commit in traverse_branch(branchy.path))
        for repo in (linear, branchy):
            argv = collab_argv(tmp_path / f"{repo.path.name}-inputs", repo)
            expected = fresh_cli(sys.executable, *argv)
            assert expected.returncode == 0, expected.stderr
            for python in interpreters:
                proc = fresh_cli(python, *argv)
                assert proc.returncode == 0, (python, proc.stderr)
                assert proc.stdout == expected.stdout, (python, repo.path.name)

    def meeting_file(self, tmp_path, start_day, emails):
        return write_json(
            tmp_path,
            "meetings.json",
            [
                {
                    "id": "m1",
                    "participants": [{"email": email} for email in emails],
                    "start": day_ms(start_day),
                    "duration_minutes": 30,
                    "title": "design sync",
                }
            ],
        )

    @pytest.mark.parametrize("dump", [False, True])
    @pytest.mark.parametrize("duration", ["NaN", "Infinity", "1e999"])
    def test_non_finite_meeting_duration_is_an_input_error(
        self, capsys, tmp_path, reviewed_repo, duration, dump
    ):
        meetings = Path(self.meeting_file(tmp_path, 1, ["alice@example.com"]))
        meetings.write_text(
            meetings.read_text().replace('"duration_minutes": 30', f'"duration_minutes": {duration}')
        )
        extra = ["--dump-events", str(tmp_path / "events.jsonl")] if dump else []
        code, out, err = run_cli(
            capsys, "analyze", "--repo", str(reviewed_repo.path), "--meetings", str(meetings), *extra
        )
        assert (code, out) == (2, "")
        assert err == (
            "busfactor: error: meeting #0: field 'duration_minutes' must be a positive "
            "finite number\n"
        )

    @pytest.mark.parametrize(
        "instant", [FIRST_MS_OF_YEAR_1 - 1, FIRST_MS_OF_YEAR_10000, 10**20]
    )
    @pytest.mark.parametrize("channel", ["review", "meeting"])
    def test_instant_outside_years_1_to_9999_is_an_input_error(
        self, capsys, tmp_path, reviewed_repo, channel, instant
    ):
        if channel == "review":
            path, name = self.review_file(tmp_path, reviewed_repo, 0), "completed_at"
        else:
            path, name = self.meeting_file(tmp_path, 0, ["alice@example.com"]), "start"
        set_first(path, name, instant)
        code, out, err = run_cli(
            capsys, "analyze", "--repo", str(reviewed_repo.path), f"--{channel}s", path
        )
        assert (code, out) == (2, "")
        assert err == (
            f"busfactor: error: {channel} #0: field {name!r} must be an instant "
            "in the years 1-9999 UTC\n"
        )

    def test_instants_at_both_ends_of_the_range_are_kept(self, capsys, tmp_path, reviewed_repo):
        reviews = self.review_file(tmp_path, reviewed_repo, 0)
        set_first(reviews, "completed_at", FIRST_MS_OF_YEAR_10000 - 1)
        meetings = self.meeting_file(tmp_path, 0, ["alice@example.com"])
        set_first(meetings, "start", FIRST_MS_OF_YEAR_1)
        report = analyze_json(
            capsys, reviewed_repo, "--reviews", reviews, "--meetings", meetings
        )
        # the review is the newest instant; rendered to the millisecond
        assert report["as_of"] == "9999-12-31T23:59:59.999Z"
        assert report["file_count"] == 3

    def test_meeting_after_newest_commit_sets_default_as_of(
        self, capsys, tmp_path, reviewed_repo
    ):
        meetings = self.meeting_file(tmp_path, 1, ["alice@example.com", "bob@example.com"])
        report = analyze_json(capsys, reviewed_repo, "--meetings", meetings)
        assert report["as_of"] == format_instant(day_ms(1))
        assert report["file_count"] == 3

    def test_late_meeting_is_named_in_canonical_order(self, capsys, tmp_path, reviewed_repo):
        # the meeting (day 1) precedes the review (day 2); of its six events
        # the first in canonical order is alice's on src/a.py
        meetings = self.meeting_file(tmp_path, 1, ["bob@example.com", "alice@example.com"])
        reviews = self.review_file(tmp_path, reviewed_repo, completed_day=2)
        code, out, err = run_cli(
            capsys,
            "analyze",
            "--repo",
            str(reviewed_repo.path),
            "--reviews",
            reviews,
            "--meetings",
            meetings,
            "--as-of",
            format_instant(day_ms(0)),
        )
        assert (code, out) == (2, "")
        assert err == (
            f"busfactor: error: event at {day_ms(1)} (meeting by 'alice@example.com' "
            f"on 'src/a.py') is newer than the analysis instant {day_ms(0)}; "
            "pass a later --as-of or fix the event timestamps\n"
        )

    def test_stale_author_loses_to_active_reviewer(self, capsys, tmp_path, reviewed_repo):
        reviews = self.review_file(tmp_path, reviewed_repo, completed_day=730)
        as_of = format_instant(day_ms(730))
        multimodal = analyze_json(
            capsys, reviewed_repo, "--reviews", reviews, "--as-of", as_of
        )
        assert multimodal["key_engineers"] == ["bob@example.com"]
        baseline = analyze_json(
            capsys,
            reviewed_repo,
            "--reviews",
            reviews,
            "--as-of",
            as_of,
            "--algorithm",
            "baseline",
        )
        assert baseline["key_engineers"] == ["alice@example.com"]

    def test_meetings_credit_attendees_and_keywords_filter(
        self, capsys, tmp_path, single_owner_repo
    ):
        meetings = write_json(
            tmp_path,
            "meetings.json",
            [
                {
                    "id": "m1",
                    "participants": [
                        {"name": "Alice", "email": "alice@example.com"},
                        {"name": "Bob", "email": "bob@example.com"},
                    ],
                    "start": day_ms(1),
                    "duration_minutes": 120,
                    "title": "architecture sync",
                },
                {
                    "id": "m2",
                    "participants": [
                        {"name": "Alice", "email": "alice@example.com"},
                        {"name": "Bob", "email": "bob@example.com"},
                    ],
                    "start": day_ms(2),
                    "duration_minutes": 60,
                    "title": "Reading group",
                },
            ],
        )
        dump = tmp_path / "events.jsonl"
        code, out, err = run_cli(
            capsys,
            "analyze",
            "--repo",
            str(single_owner_repo.path),
            "--meetings",
            meetings,
            "--as-of",
            "2024-01-03T00:00:00Z",
            "--dump-events",
            str(dump),
        )
        assert code == 0, err
        events = read_event_log(dump)
        meeting_events = [e for e in events if e.kind.value == "meeting"]
        # one kept meeting, two attendees, ten files
        assert len(meeting_events) == 20
        assert {e.engineer_id for e in meeting_events} == {
            "alice@example.com",
            "bob@example.com",
        }
        assert all(e.magnitude == 120.0 for e in meeting_events)

    def test_dump_events_round_trip(self, capsys, tmp_path, single_owner_repo):
        dump = tmp_path / "events.jsonl"
        code, _, _ = run_cli(
            capsys,
            "analyze",
            "--repo",
            str(single_owner_repo.path),
            "--dump-events",
            str(dump),
        )
        assert code == 0
        events = read_event_log(dump)
        kinds = sorted(e.kind.value for e in events)
        assert kinds == ["commit"] * 10 + ["first_authorship"] * 10
        assert all(e.timestamp_ms == day_ms(0) for e in events)


class TestEvaluateCommand:
    def fixture_files(self, tmp_path):
        predictions = write_json(
            tmp_path,
            "predictions.json",
            {
                "projects": [
                    {"name": "p1", "bus_factor": 4, "key_engineers": ["ann", "ben"]},
                    {"name": "p2", "bus_factor": 2, "key_engineers": ["cyd"]},
                ]
            },
        )
        truth = write_json(
            tmp_path,
            "truth.json",
            {
                "projects": [
                    {"name": "p1", "estimates": [4.0], "key_engineers": ["ann", "dee"]},
                    {"name": "p2", "estimates": [5.0], "key_engineers": []},
                ]
            },
        )
        return predictions, truth

    def test_evaluate_json(self, capsys, tmp_path):
        predictions, truth = self.fixture_files(tmp_path)
        code, out, _ = run_cli(
            capsys, "evaluate", "--predictions", predictions, "--truth", truth
        )
        assert code == 0
        report = json.loads(out)
        assert report["project_count"] == 2
        assert report["mae"] == pytest.approx(1.5)
        assert report["precision"] == pytest.approx(0.5)
        assert report["recall"] == pytest.approx(0.5)
        assert report["f1"] == pytest.approx(0.5)
        assert any("no key engineers" in w for w in report["warnings"])

    def test_evaluate_text(self, capsys, tmp_path):
        predictions, truth = self.fixture_files(tmp_path)
        code, out, _ = run_cli(
            capsys,
            "evaluate",
            "--predictions",
            predictions,
            "--truth",
            truth,
            "--format",
            "text",
        )
        assert code == 0
        assert "MAE:             1.5000" in out

    def test_zero_overlap_is_input_error(self, capsys, tmp_path):
        predictions = write_json(
            tmp_path, "p.json", {"projects": [{"name": "left", "bus_factor": 1}]}
        )
        truth = write_json(
            tmp_path, "t.json", {"projects": [{"name": "right", "estimates": [1]}]}
        )
        code, _, err = run_cli(
            capsys, "evaluate", "--predictions", predictions, "--truth", truth
        )
        assert code == 2
        assert "share no projects" in err

    def test_missing_truth_flag(self, capsys, tmp_path):
        predictions = write_json(
            tmp_path, "p.json", {"projects": [{"name": "a", "bus_factor": 1}]}
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--predictions", predictions])
        assert excinfo.value.code == 1


def test_cli_import_leaves_the_estimator_and_evaluation_unloaded():
    src = str(Path(busfactor.__file__).resolve().parents[1])
    code = "\n".join([
        "import sys",
        "import busfactor.cli",
        "lazy = ('busfactor.estimator', 'busfactor.evaluate')",
        "print(sorted(m for m in lazy if m in sys.modules))",
        "from busfactor import BusFactorEstimator, evaluate_predictions, load_predictions, load_truth",
        "print(BusFactorEstimator.__module__, evaluate_predictions.__module__,",
        "      load_predictions.__module__, load_truth.__module__)",
        "try:",
        "    busfactor.no_such_name",
        "except AttributeError as exc:",
        "    print(exc)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "busfactor.estimator busfactor.evaluate busfactor.evaluate busfactor.evaluate",
        "module 'busfactor' has no attribute 'no_such_name'",
    ]


def test_cli_import_skips_the_dataclass_machinery():
    """``import busfactor.cli`` loads neither ``dataclasses`` nor the ``inspect`` it
    pulls in, on this interpreter and every other one on PATH."""
    src = str(Path(busfactor.__file__).resolve().parents[1])
    code = "import sys, busfactor.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    for python in (sys.executable, *other_interpreters()):
        proc = subprocess.run(
            [python, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), (python, proc.stderr)


@pytest.mark.parametrize("error, exit_code", [
    (busfactor.BusFactorError, 1),
    (busfactor.ConfigError, 1),
    (busfactor.InputDataError, 2),
    (busfactor.ClockSkewError, 2),
    (busfactor.RepositoryError, 3),
])
def test_each_error_class_exits_with_its_own_code(capsys, monkeypatch, error, exit_code):
    def fail(*args, **kwargs):
        raise error("it went wrong")

    monkeypatch.setattr(busfactor.cli, "run_analysis", fail)
    assert error.exit_code == exit_code
    assert run_cli(capsys, "analyze", "--repo", ".") == (
        exit_code, "", "busfactor: error: it went wrong\n"
    )


@pytest.mark.parametrize("params", [
    # the weighted terms of one file overflow while they are summed
    ["fa_weight=1.7e308", "dl_weight=1.7e308"],
    # a score is infinite: two commits give a dl sum near 2
    ["dl_weight=1.7e308", "fa_weight=0", "rv_weight=0", "log_dl_weight=0", "log_rv_weight=0"],
])
def test_weights_that_make_a_score_infinite_are_a_config_error(capsys, mkrepo, params):
    repo = mkrepo("huge")
    repo.commit("add", {"f.txt": "one\n"}, author=ALICE, day=0)
    repo.commit("edit", {"f.txt": "two\n"}, author=ALICE, day=1)
    argv = [part for pair in params for part in ("--param", pair)]
    code, out, err = run_cli(capsys, "analyze", "--repo", str(repo.path), *argv)
    assert (code, out) == (1, "")
    assert err == (
        "busfactor: error: scores reach infinity at file 'f.txt'; lower the algorithm weights\n"
    )


def test_meeting_minutes_past_the_largest_float_cap_the_bucket(capsys, tmp_path, mkrepo):
    # two meetings of 1e308 minutes sum past the largest float, two of 1e307
    # do not; either bucket weighs its cap, 1, so the reports agree
    repo = mkrepo("long-meetings")
    repo.commit("add", {"f.txt": "one\n"}, author=ALICE, day=0)
    reports = []
    for minutes in (1e307, 1e308):
        meetings = write_json(tmp_path, f"meetings-{minutes}.json", [
            {"id": f"m{i}", "participants": [{"email": ALICE[1]}], "start": day_ms(0),
             "duration_minutes": minutes, "title": "design sync"}
            for i in range(2)
        ])
        reports.append(analyze_json(capsys, repo, "--meetings", meetings))
    assert reports[1] == reports[0]
    # first authorship, one commit, the capped meeting and the crowd term
    top_doa = 3.0 + 1.0 + 1.0 + 2.4 * math.log1p(1.0)
    assert reports[1]["files"] == [
        {"path": "f.txt", "authors": [ALICE[1]], "top_doa": pytest.approx(top_doa)}
    ]


@pytest.mark.parametrize("predicted, estimates, message", [
    (1, "[Infinity]", "truth project 'p': field 'estimates' has no finite mean"),
    (1, "[NaN, 2]", "truth project 'p': field 'estimates' has no finite mean"),
    (1, "[1e308, 1e308]", "truth project 'p': field 'estimates' has no finite mean"),
    (10**400, "[1]", "predictions project 'p': field 'bus_factor' is too large"),
], ids=["infinite", "nan", "sum-overflows", "huge-bus-factor"])
def test_evaluation_numbers_must_average_to_finite_floats(
    capsys, tmp_path, predicted, estimates, message
):
    predictions = tmp_path / "predictions.json"
    predictions.write_text(f'{{"projects": [{{"name": "p", "bus_factor": {predicted}}}]}}')
    truth = tmp_path / "truth.json"
    truth.write_text(f'{{"projects": [{{"name": "p", "estimates": {estimates}}}]}}')
    code, out, err = run_cli(
        capsys, "evaluate", "--predictions", str(predictions), "--truth", str(truth)
    )
    assert (code, out, err) == (2, "", f"busfactor: error: {message}\n")


SURROGATE_ERROR = (
    "busfactor: error: the report holds the lone surrogate '\\ud800', which UTF-8 "
    "cannot encode; fix the \\u escape that reads it in the input\n"
)


@pytest.mark.parametrize("sinks", [[], ["--output"], ["--output", "--dump-events"]])
def test_a_lone_surrogate_in_the_analyze_report_is_one_line(
    capsys, tmp_path, single_owner_repo, sinks
):
    paths = {flag: tmp_path / f"{flag[2:]}.out" for flag in sinks}
    if "--output" in paths:
        paths["--output"].write_text("previous report\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "analyze", "--repo", str(single_owner_repo.path),
        "--param", 'meeting_exclude_keywords=["\\ud800"]',
        *[part for flag, path in paths.items() for part in (flag, str(path))],
    )
    assert (code, out, err) == (2, "", SURROGATE_ERROR)
    if "--output" in paths:
        assert paths["--output"].read_text(encoding="utf-8") == "previous report\n"
    assert "--dump-events" not in paths or not paths["--dump-events"].exists()


@pytest.mark.parametrize("output", [False, True])
def test_a_lone_surrogate_in_the_evaluation_report_is_one_line(capsys, tmp_path, output):
    files = tmp_path / "both.json"
    files.write_text(
        '{"projects": [{"name": "\\ud800", "bus_factor": 1, "estimates": [1]}]}',
        encoding="utf-8",
    )
    target = tmp_path / "out.json"
    extra = ["--output", str(target)] if output else []
    code, out, err = run_cli(
        capsys, "evaluate", "--predictions", str(files), "--truth", str(files), *extra
    )
    assert (code, out, err) == (2, "", SURROGATE_ERROR)
    assert not target.exists()


@pytest.mark.parametrize("caller_collects", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("error, exit_code", [
    (None, 0),
    (busfactor.ConfigError, 1),
    (busfactor.InputDataError, 2),
    (busfactor.RepositoryError, 3),
])
def test_main_runs_the_command_without_the_collector_and_restores_it(
    capsys, monkeypatch, collector, single_owner_repo, caller_collects, error, exit_code
):
    seen = []

    def recording_run(*args, **kwargs):
        seen.append(gc.isenabled())
        if error is not None:
            raise error("it went wrong")
        return run_analysis(*args, **kwargs)

    monkeypatch.setattr(busfactor.cli, "run_analysis", recording_run)
    (gc.enable if caller_collects else gc.disable)()
    frozen = gc.get_freeze_count()
    code, _, _ = run_cli(capsys, "analyze", "--repo", str(single_owner_repo.path))
    assert (code, seen, gc.isenabled()) == (exit_code, [False], caller_collects)
    assert gc.get_freeze_count() == frozen  # only the process entry freezes


@pytest.mark.parametrize("caller_collects", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_collector_after_a_usage_exit(capsys, collector, caller_collects):
    (gc.enable if caller_collects else gc.disable)()
    with pytest.raises(SystemExit):
        main(["analyze"])
    assert gc.isenabled() is caller_collects


@pytest.mark.parametrize("caller_collects", [True, False], ids=["enabled", "disabled"])
def test_run_analysis_leaves_the_collector_alone(
    monkeypatch, collector, single_owner_repo, caller_collects
):
    seen = []
    real_run = gitvcs.subprocess.run

    def recording_run(*args, **kwargs):
        seen.append(gc.isenabled())
        return real_run(*args, **kwargs)

    monkeypatch.setattr(gitvcs.subprocess, "run", recording_run)
    (gc.enable if caller_collects else gc.disable)()
    run_analysis(single_owner_repo.path)
    assert seen and set(seen) == {caller_collects}
    assert gc.isenabled() is caller_collects
