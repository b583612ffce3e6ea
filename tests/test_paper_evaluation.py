"""The paper's evaluation end to end: ``analyze`` reports fed to ``evaluate``.

Each fixture project is built so that its bus factor and key engineers follow
from the construction; the ground truth is written from that construction,
the predictions from the CLI's own reports under both algorithms. Only what
the model forces is asserted, never that one algorithm beats the other.
"""
import json

import pytest

from busfactor.cli import main

from conftest import ALICE, BOB, CAROL, DAVE, day_ms

EMAILS = sorted(email for _, email in (ALICE, BOB, CAROL, DAVE))


def solo(mkrepo):
    """One engineer writes every file: bus factor 1."""
    repo = mkrepo("solo")
    repo.commit("all", {f"f{i}.txt": f"{i}\n" for i in range(4)}, author=ALICE, day=0)
    return repo, None, {"estimates": [1], "key_engineers": [ALICE[1]]}


def quarters(mkrepo):
    """Four engineers each add two files: any three leave a quarter covered."""
    repo = mkrepo("quarters")
    for n, owner in enumerate((ALICE, BOB, CAROL, DAVE)):
        repo.commit(f"add {n}", {f"q{n}/a.txt": "a\n", f"q{n}/b.txt": "b\n"}, author=owner, day=n)
    return repo, None, {"estimates": [3], "key_engineers": EMAILS}


def reviewed(mkrepo, tmp_path):
    """Alice's two files reach Bob only through six merged review rounds of
    her one commit; Carol writes two files of her own.

    Multimodal: Bob scores 0.5·6 + 1.2·ln 7 ≈ 5.34 on each of Alice's files
    against her 3 + 1 + 2.4·ln 2 ≈ 5.66, normalized 0.94 ≥ 0.75, so he is
    their second author, and all three must leave. The baseline reads commits
    only: Bob is no author, and two departures uncover every file.
    """
    repo = mkrepo("reviewed")
    commit = repo.commit("alice", {"a1.txt": "1\n", "a2.txt": "2\n"}, author=ALICE, day=0)
    repo.commit("carol", {"c1.txt": "1\n", "c2.txt": "2\n"}, author=CAROL, day=0)
    reviews = tmp_path / "reviews.json"
    reviews.write_text(json.dumps([
        {"id": f"r{n}", "reviewers": [{"name": BOB[0], "email": BOB[1]}], "commit_ids": [commit],
         "completed_at": day_ms(0), "state": "merged"}
        for n in range(6)
    ]), encoding="utf-8")
    truth = {"estimates": [3], "key_engineers": [ALICE[1], BOB[1], CAROL[1]]}
    return repo, reviews, truth


@pytest.fixture
def suite(mkrepo, tmp_path):
    """Project name -> (report under --algorithm both, ground-truth entry)."""
    out = {}
    for repo, reviews, truth in (solo(mkrepo), quarters(mkrepo), reviewed(mkrepo, tmp_path)):
        target = tmp_path / f"{repo.path.name}.json"
        argv = ["analyze", "--repo", str(repo.path), "--algorithm", "both", "--output", str(target)]
        assert main(argv + (["--reviews", str(reviews)] if reviews else [])) == 0
        report = json.loads(target.read_text(encoding="utf-8"))
        out[report["project"]] = (report["results"], truth)
    return out


def evaluate(tmp_path, suite, algorithm):
    predictions, truth = tmp_path / f"{algorithm}-predictions.json", tmp_path / "truth.json"
    predictions.write_text(json.dumps({"projects": [
        {"name": name, "bus_factor": results[algorithm]["bus_factor"],
         "key_engineers": results[algorithm]["key_engineers"]}
        for name, (results, _) in suite.items()
    ]}), encoding="utf-8")
    truth.write_text(json.dumps({"projects": [
        {"name": name, **entry} for name, (_, entry) in suite.items()
    ]}), encoding="utf-8")
    target = tmp_path / f"{algorithm}-evaluation.json"
    argv = ["evaluate", "--predictions", str(predictions), "--truth", str(truth)]
    assert main(argv + ["--output", str(target)]) == 0
    return json.loads(target.read_text(encoding="utf-8"))


def test_each_project_reports_what_its_construction_forces(suite):
    for algorithm in ("multimodal", "baseline"):
        solo_result = suite["solo"][0][algorithm]
        assert (solo_result["bus_factor"], solo_result["key_engineers"]) == (1, [ALICE[1]])
        assert solo_result["coverage_trace"] == [0.0]
        quarters_result = suite["quarters"][0][algorithm]
        assert quarters_result["bus_factor"] == 3
        assert quarters_result["coverage_trace"] == [0.75, 0.5, 0.25]
        assert set(quarters_result["key_engineers"]) < set(EMAILS)
    multimodal, baseline = suite["reviewed"][0]["multimodal"], suite["reviewed"][0]["baseline"]
    assert multimodal["bus_factor"] == 3
    assert set(multimodal["key_engineers"]) == {ALICE[1], BOB[1], CAROL[1]}
    assert multimodal["coverage_trace"] == [1.0, 0.5, 0.0]
    assert baseline["bus_factor"] == 2
    assert set(baseline["key_engineers"]) == {ALICE[1], CAROL[1]}
    assert baseline["coverage_trace"] == [0.5, 0.0]
    for results, _ in suite.values():
        assert results["multimodal"]["warnings"] == results["baseline"]["warnings"] == []


@pytest.mark.parametrize("algorithm, mae, recall", [
    # key engineers named by the truth: 1 + 4 + 3; every predicted one is among them
    ("multimodal", 0.0, 7 / 8),
    ("baseline", 1 / 3, 6 / 8),
])
def test_evaluate_scores_the_reports_against_the_construction(tmp_path, suite, algorithm, mae, recall):
    document = evaluate(tmp_path, suite, algorithm)
    assert document["project_count"] == 3
    assert document["mae"] == mae
    assert document["precision"] == 1.0
    assert document["recall"] == recall
    assert document["f1"] == 2 * recall / (1 + recall)
    assert document["warnings"] == []
