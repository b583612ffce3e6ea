"""The traced benchmark run (perfbench/run.py --trace 1) wraps module
attributes of the package by name; every one of them must still exist, and
the counts it reads from their arguments and results must still add up."""
import importlib
import importlib.util
import json
import sys
from functools import reduce
from pathlib import Path

import busfactor

from conftest import ALICE, BOB, day_ms

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_probes(monkeypatch):
    # probes.py imports its sibling ``spans``; write no bytecode next to them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_probes", PERFBENCH / "probes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_probe_resolves(monkeypatch):
    probes = load_probes(monkeypatch)
    assert probes.TIMED
    for module, attr in probes.TIMED:
        owner = importlib.import_module(f"busfactor.{module}")
        assert callable(reduce(getattr, attr.split("."), owner)), f"{module}.{attr}"


def test_traced_run_counts_both_engines_and_the_meeting_join(monkeypatch, tmp_path, mkrepo):
    import busfactor.cli  # noqa: F401  (the probes wrap names in every module)

    probes = load_probes(monkeypatch)
    repo = mkrepo("traced")
    repo.commit("add", {"a.txt": "a\n", "b.txt": "b\n"}, author=ALICE, day=0)
    repo.commit("edit", {"a.txt": "a2\n"}, author=BOB, day=1)
    reviews = tmp_path / "reviews.json"
    reviews.write_text(json.dumps([{
        "id": "r1", "reviewers": [{"email": BOB[1]}], "commit_ids": [repo.head()],
        "completed_at": day_ms(1), "state": "merged",
    }]))
    meetings = tmp_path / "meetings.json"
    meetings.write_text(json.dumps([{
        "id": "m1", "participants": [{"email": ALICE[1]}, {"email": BOB[1]}],
        "start": day_ms(1), "duration_minutes": 30, "title": "sync",
    }]))
    argv = ["analyze", "--repo", str(repo.path), "--algorithm", "both",
            "--reviews", str(reviews), "--meetings", str(meetings),
            "--output", str(tmp_path / "report.json"),
            "--dump-events", str(tmp_path / "events")]

    tracer = probes.Tracer()
    with probes.installed(tracer, busfactor):
        assert busfactor.cli.main(argv) == 0
    metrics = probes.layer_metrics(tracer)

    assert metrics["engine.calls"] == 2
    assert 0 < metrics["collab.meeting_match_ratio"] <= 1
    assert metrics["collab.meeting_events"] > 0
    assert metrics["engine.ledger_s"] > 0 and metrics["engine.score_s"] > 0
    # the dump orders credit cells by canonical_blocks, not events by canonical_order
    assert "model.events" not in metrics
    assert metrics["eventlog.bytes"] == (tmp_path / "events").stat().st_size
