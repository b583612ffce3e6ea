"""End-to-end acceptance gate.

One test per shipping criterion; each prints a single PASS/FAIL line (run
pytest with -s to see them) and fails loudly when the bar is missed.
"""
import contextlib
import json
import math
import random
import time

import pytest

from busfactor.cli import main
from busfactor.engine import FileLedger, bus_factor, score_table
from busfactor.evaluate import ProjectPrediction, ProjectTruth, evaluate_predictions
from busfactor.identity import RawActor, merge_identities
from busfactor.model import AlgorithmParams, decay
from busfactor.pipeline import run_analysis

from conftest import build_big_repo, day_ms
from greedy_reference import make_table, naive_walk

PARAMS = AlgorithmParams()
HALF_LIFE_DAYS = 220.0 * math.log(2)
HALF_LIFE_MS = round(HALF_LIFE_DAYS * 86_400_000)


def doa(led, engineer, as_of_ms, params, algorithm="multimodal") -> float:
    """The raw score of ``engineer`` on ``led``, scored alone."""
    return score_table({"f": led}, as_of_ms, params, algorithm).raw_score(engineer, "f")


@contextlib.contextmanager
def criterion(number: int, label: str):
    outcome = {"detail": ""}
    try:
        yield outcome
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    detail = f" ({outcome['detail']})" if outcome["detail"] else ""
    print(f"PASS criterion {number}: {label}{detail}")


def test_criterion_1_formula_oracles():
    with criterion(1, "formula oracles within 1e-9"):
        fresh = FileLedger(first_authorship=(day_ms(0), "a"), commits={"a": [day_ms(0)]})
        assert doa(fresh, "a", day_ms(0), PARAMS) == pytest.approx(
            5.663553233343869, abs=1e-9
        )
        assert doa(fresh, "a", day_ms(0) + HALF_LIFE_MS, PARAMS) == pytest.approx(
            2.9731162594595946, abs=1e-9
        )
        assert doa(fresh, "a", day_ms(0), PARAMS, algorithm="baseline") == pytest.approx(
            4.555, abs=1e-9
        )
        # knowledge halves after one half-life, about five months
        assert decay(HALF_LIFE_DAYS, 220.0) == pytest.approx(0.5, abs=1e-6)


def test_criterion_2_zero_activity_cancellation():
    with criterion(2, "zero-activity DOA cancels to 0 on 100 random ledgers"):
        rng = random.Random(2024)
        for _ in range(100):
            engineers = [f"e{i}" for i in range(rng.randint(1, 5))]
            first_authorship = (day_ms(rng.randint(0, 900)), rng.choice(engineers))
            commits = {
                e: [day_ms(rng.randint(0, 1000)) for _ in range(rng.randint(0, 5))]
                for e in engineers
            }
            reviews = {
                e: [day_ms(rng.randint(0, 1000)) for _ in range(rng.randint(0, 4))]
                for e in engineers
            }
            meetings: dict = {}  # commit ref -> [(attendees, start, minutes)]
            for e in engineers:
                for j in range(rng.randint(0, 3)):
                    meetings.setdefault(f"c{j}", []).extend(
                        ((e,), day_ms(rng.randint(0, 1000)), rng.uniform(1, 700))
                        for _ in range(rng.randint(1, 3))
                    )
            led = FileLedger(first_authorship, commits, reviews, meetings)
            assert abs(doa(led, "uninvolved", day_ms(1000), PARAMS)) <= 1e-9


def test_criterion_3_golden_fixtures(
    tmp_path,
    single_owner_repo,
    quarter_owners_repo,
    half_owners_repo,
    rename_only_repo,
    merge_conflict_repo,
    mkrepo,
):
    with criterion(3, "golden fixture repositories, each under 5s") as outcome:
        timings = []

        def timed(repo, **kwargs):
            started = time.monotonic()
            run = run_analysis(repo.path, **kwargs)
            elapsed = time.monotonic() - started
            timings.append(elapsed)
            assert elapsed < 5.0
            return run

        run = timed(single_owner_repo)
        assert run.report["bus_factor"] == 1

        run = timed(quarter_owners_repo)
        assert run.report["bus_factor"] == 3
        assert run.report["coverage_trace"] == [0.75, 0.5, 0.25]

        run = timed(half_owners_repo)
        assert run.report["bus_factor"] == 2

        run = timed(rename_only_repo)
        assert run.report["bus_factor"] == 1
        assert run.report["key_engineers"] == ["alice@example.com"]
        assert all(e.engineer_id != "bob@example.com" for e in run.events)

        run = timed(merge_conflict_repo)
        bob_files = {
            e.file_path for e in run.events if e.engineer_id == "bob@example.com"
        }
        assert bob_files == {"f1.txt"}  # merge credits only the conflicted file

        reviewed = mkrepo("reviewed")
        reviewed.commit(
            "feature",
            {"src/a.py": "a\n", "src/b.py": "b\n", "src/c.py": "c\n"},
            day=0,
        )
        reviews = tmp_path / "reviews.json"
        reviews.write_text(
            json.dumps(
                [
                    {
                        "id": "r1",
                        "reviewers": [{"name": "Bob", "email": "bob@example.com"}],
                        "commit_ids": [reviewed.head()],
                        "completed_at": day_ms(730),
                        "state": "merged",
                    }
                ]
            ),
            encoding="utf-8",
        )
        multimodal = timed(
            reviewed, reviews_path=str(reviews), as_of_ms=day_ms(730)
        )
        assert multimodal.report["key_engineers"] == ["bob@example.com"]
        baseline = timed(
            reviewed,
            reviews_path=str(reviews),
            as_of_ms=day_ms(730),
            algorithm="baseline",
        )
        assert baseline.report["key_engineers"] == ["alice@example.com"]

        outcome["detail"] = f"slowest fixture {max(timings):.2f}s"


def test_criterion_4_greedy_matches_naive_reference():
    with criterion(4, "greedy walk equals naive reference on 200 instances") as outcome:
        rng = random.Random(404)
        started = time.monotonic()
        for _ in range(200):
            engineers = [f"e{i}" for i in range(rng.randint(1, 6))]
            files = [f"f{i:02d}" for i in range(rng.randint(1, 20))]
            raw, authors = {}, {}
            for path in files:
                owners = tuple(
                    sorted(rng.sample(engineers, rng.randint(0, len(engineers))))
                )
                authors[path] = owners
                for e in owners:
                    raw[(e, path)] = round(rng.uniform(1.0, 8.0), 3)
            result = bus_factor(make_table(raw, files), PARAMS, authors=authors)
            removed, trace = naive_walk(authors, raw, len(files), 0.5)
            assert list(result.key_engineers) == removed
            assert list(result.coverage_trace) == trace
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        outcome["detail"] = f"{elapsed:.2f}s"


def test_criterion_5_evaluation_harness():
    with criterion(5, "evaluation fixture gives MAE 1.5 and P/R/F1 0.5"):
        report = evaluate_predictions(
            [
                ProjectPrediction("p1", 4, ("ann", "ben")),
                ProjectPrediction("p2", 2, ("cyd",)),
            ],
            [
                ProjectTruth("p1", (4.0,), ("ann", "dee")),
                ProjectTruth("p2", (5.0,), ()),
            ],
        )
        assert report["mae"] == 1.5
        assert report["precision"] == 0.5
        assert report["recall"] == 0.5
        assert report["f1"] == 0.5


def test_criterion_6_determinism_and_performance(tmp_path):
    with criterion(6, "10k-commit repo: byte-identical runs under 60s") as outcome:
        repo = build_big_repo(tmp_path / "big", n_commits=10_000, n_files=50)
        durations = []
        outputs = []
        for n in (1, 2):
            target = tmp_path / f"report{n}.json"
            started = time.monotonic()
            code = main(
                ["analyze", "--repo", str(repo.path), "--output", str(target)]
            )
            durations.append(time.monotonic() - started)
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]
        assert max(durations) < 60.0
        report = json.loads(outputs[0])
        assert report["file_count"] == 50
        outcome["detail"] = (
            f"runs took {durations[0]:.2f}s and {durations[1]:.2f}s"
        )


def test_criterion_7_property_invariants():
    with criterion(7, "randomized property invariants hold"):
        rng = random.Random(7777)

        # decay is bounded and monotonically falling
        ages = sorted(rng.uniform(0, 2000) for _ in range(200))
        values = [decay(age, 220.0) for age in ages]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

        # coverage trace never rises during the walk
        for _ in range(50):
            engineers = [f"e{i}" for i in range(rng.randint(1, 5))]
            files = [f"f{i}" for i in range(rng.randint(1, 15))]
            raw, authors = {}, {}
            for path in files:
                owners = tuple(
                    sorted(rng.sample(engineers, rng.randint(0, len(engineers))))
                )
                authors[path] = owners
                for e in owners:
                    raw[(e, path)] = rng.uniform(1, 9)
            result = bus_factor(make_table(raw, files), PARAMS, authors=authors)
            trace = result.coverage_trace
            assert all(a >= b for a, b in zip(trace, trace[1:]))

        # a single commit's meeting credit saturates at one unit
        for _ in range(50):
            minutes = [
                (("m",), day_ms(rng.randint(0, 1000)), rng.uniform(1, 5000))
                for _ in range(rng.randint(1, 6))
            ]
            led = FileLedger(meetings={"c": minutes})
            assert doa(led, "m", day_ms(1000), PARAMS) <= 1.0 + 1e-12

        # shifting every timestamp by the same delta changes nothing
        for _ in range(50):
            base_ts = [day_ms(rng.randint(0, 500)) for _ in range(4)]
            delta = rng.randint(0, 10_000) * 86_400_000
            led = FileLedger(
                first_authorship=(base_ts[0], "a"),
                commits={"a": [base_ts[1]], "b": [base_ts[2]]},
                reviews={"b": [base_ts[3]]},
            )
            moved = FileLedger(
                first_authorship=(base_ts[0] + delta, "a"),
                commits={"a": [base_ts[1] + delta], "b": [base_ts[2] + delta]},
                reviews={"b": [base_ts[3] + delta]},
            )
            for engineer in ("a", "b"):
                assert math.isclose(
                    doa(led, engineer, day_ms(500), PARAMS),
                    doa(moved, engineer, day_ms(500) + delta, PARAMS),
                    rel_tol=1e-12,
                    abs_tol=1e-12,
                )

        # identity merging is idempotent and order independent
        pool = [
            RawActor(name="Ann", email="ann@example.com"),
            RawActor(name="A. N.", email="ann@example.com", profile_ref="u/ann"),
            RawActor(name="Ann N", email="ann@corp.example", profile_ref="u/ann"),
            RawActor(name="Ben", email="ben@example.com"),
            RawActor(name="Cyd", email="cyd@example.com", profile_ref="u/cyd"),
        ]
        for _ in range(30):
            actors = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
            once = merge_identities(actors)
            again = merge_identities(actors + actors)
            shuffled = list(actors)
            rng.shuffle(shuffled)
            reordered = merge_identities(shuffled)
            assert once == again == reordered
