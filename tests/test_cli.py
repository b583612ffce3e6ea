import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import busfactor
from busfactor.cli import main
from busfactor.eventlog import read_event_log
from busfactor.model import format_instant

from conftest import ALICE, BOB, day_ms

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
            "busfactor: WARNING: author <> missing from identity map; "
            "attributed to new engineer 'Nobody'"
        ]

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
