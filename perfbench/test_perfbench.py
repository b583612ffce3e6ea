"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest -q perfbench
"""
import json
import os

import probes
import run
from spans import Span, Tracer, self_times
from workloads import Shape, generate

TINY = Shape(
    commits=80, files=12, authors=5, step_s=3600, merge_every=6, rename_every=9,
    reviews=20, unmerged_share=0.1, meetings=10, excluded_share=0.2, attendees=(2, 3),
)
SPEC = run.Spec(TINY, both=True, dump=True)
ENV = dict(os.environ, PYTHONPATH=str(run.SRC))


def analyze(w, out, reference=None):
    out.mkdir(parents=True, exist_ok=True)
    _, _, code = run.run_cli(run.analyze_argv(SPEC, w, out), ENV, out / "stderr.log")
    assert code == 0, (out / "stderr.log").read_text()
    return run.check_outputs(SPEC, w, out, reference)


def test_same_seed_same_head_and_report(tmp_path):
    first = generate(TINY, 7, tmp_path / "a")
    again = generate(TINY, 7, tmp_path / "b")
    other = generate(TINY, 8, tmp_path / "c")
    assert first.head == again.head != other.head
    assert (first.commits, first.merges, first.renames) == (80, again.merges, again.renames)
    assert first.merges > 0 and first.renames > 0
    assert first.reviews_kept == 18 and first.meetings_kept == 8

    digests, problem = analyze(first, tmp_path / "out-a")
    assert problem is None
    assert set(digests) == {"report_sha256", "dump_sha256"}
    assert analyze(again, tmp_path / "out-b", reference=digests) == (digests, None)


def test_corrupted_report_counts_as_failure(tmp_path):
    w = generate(TINY, 3, tmp_path / "in")
    out = tmp_path / "out"
    reference, problem = analyze(w, out)
    assert problem is None
    report = out / "report.json"
    good = report.read_bytes()

    outcome = run.Outcome()
    outcome.record(reference, problem)
    # a changed byte that keeps the JSON valid, then a truncated file
    report.write_bytes(good.replace(b'"project"', b'"projekt"', 1))
    outcome.record(*run.check_outputs(SPEC, w, out, reference))
    report.write_bytes(good[: len(good) // 2])
    outcome.record(*run.check_outputs(SPEC, w, out, reference))
    doc = json.loads(good)
    doc["results"]["baseline"]["file_count"] += 1
    report.write_text(json.dumps(doc))
    outcome.record(*run.check_outputs(SPEC, w, out, None))
    assert outcome.attempted == 4
    assert len(outcome.problems) == 3


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: together they cover [1, 5]
        Span("c", 8.0, 12.0, 0, 0),  # only [8, 10] lies inside root
        Span("leaf", 1.5, 2.5, 1, 0),
    ]
    assert self_times(spans) == [4.0, 1.0, 3.0, 4.0, 1.0]


def test_tracer_records_nesting_and_restores_attributes():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    original = Owner.outer
    tracer = Tracer(trace=5)
    with tracer.patched([(Owner, "outer", "o", True), (Owner, "inner", "i", False)]):
        assert Owner.outer(3) == 7
    assert Owner.outer is original
    assert [(s.name, s.parent, s.trace) for s in tracer.spans] == [("o", None, 5), ("i", 0, 5)]
    assert [(name, args, result) for name, args, _, result in tracer.calls] == [("o", (3,), 7)]


def test_traced_counts_match_generator(tmp_path):
    package = run.load_program()
    w = generate(TINY, 11, tmp_path / "in")
    out = tmp_path / "out"
    out.mkdir()
    tracer = Tracer()
    with probes.installed(tracer, package):
        assert package.cli.main(run.analyze_argv(SPEC, w, out)) == 0
    assert package.gitvcs.subprocess is probes.subprocess
    metrics = probes.layer_metrics(tracer)
    for metric, field in run.EXPECTED_COUNTS.items():
        assert metrics[metric] == getattr(w, field), metric
    assert metrics["engine.calls"] == 2
    assert metrics["eventlog.bytes"] == os.path.getsize(out / "events.jsonl")
    assert 0 < metrics["collab.meeting_match_ratio"] <= 1
    # every span lands in one layer, so the layers add up to the root span
    root = tracer.spans[0]
    layer_total = sum(v for k, v in metrics.items() if k.endswith("_s"))
    assert abs(layer_total - (root.end - root.start)) < 1e-6
