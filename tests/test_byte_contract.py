"""The report and event dump of generated workloads, pinned by sha256.

Two workloads are the small shape of perfbench/test_perfbench.py, which has
merges, renames, reviews (some unmerged) and meetings (some excluded), run
with ``--algorithm both --dump-events``. One is the benchmark's ``collab``
workload of seed 1, whose meeting buckets share much of their content, run
as the ``collab`` and ``collab-dump`` workloads run it. The report is the
program's contract:
a change that moves one byte of either output fails here, unless it fixes a
documented defect and updates the digests. The generator writes its
repository with ``git fast-import``, so the digests hold for the git that
computed them (2.39); another git may detect renames differently.
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from busfactor import BusFactorEstimator
from busfactor.cli import main
from busfactor.engine import ALGORITHMS
from busfactor.eventlog import read_event_log

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# seed -> (report sha256, dump sha256)
DIGESTS = {
    7: (
        "515b5c28d16cb69bdc59e0cf048bafd064bdd300ba087bb42f3964b4e894fe86",
        "9ba54fb7b14299fed1c0cf1a7fc97688060c34711163989648c7d210c0559f7b",
    ),
    11: (
        "622fe57f09d5086b9423c76264048fe73885586400ed0380a280afb2dd2884a6",
        "ceca3e2871bd2c869728a149b12a4cbf18442ea342f4aa8d100fc2cc7dc512f5",
    ),
}

# the benchmark's collab shape (perfbench/run.py) at seed 1: the report of a
# default run, then the report and dump of --algorithm both --dump-events
COLLAB = dict(
    commits=2_000, files=200, authors=30, step_s=7200,
    reviews=1_200, unmerged_share=0.1, meetings=240, excluded_share=0.05, attendees=(4, 10),
)
COLLAB_DIGESTS = (
    "73a59f982c87b5e514041d595130d56226787ebb89a80d24463cdd98b7faa986",
    "fda5c37367291b4d415540a49151761a63c4625cdb601fac5c3a63bca9da0196",
    "9633d4f8019a2c072302d79596e81cc23b7993a0c90a042e6cd83e471934254b",
)


def load_workloads(monkeypatch):
    # write no bytecode next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def analyze_tiny(seed, monkeypatch, tmp_path) -> tuple[Path, Path]:
    """The report and event dump of the small workload of ``seed``."""
    workloads = load_workloads(monkeypatch)
    tiny = workloads.Shape(
        commits=80, files=12, authors=5, step_s=3600, merge_every=6, rename_every=9,
        reviews=20, unmerged_share=0.1, meetings=10, excluded_share=0.2, attendees=(2, 3),
    )
    w = workloads.generate(tiny, seed, tmp_path / "in")
    report, dump = tmp_path / "report.json", tmp_path / "events.jsonl"
    argv = ["analyze", "--repo", str(w.repo), "--reviews", str(w.reviews),
            "--meetings", str(w.meetings), "--algorithm", "both",
            "--dump-events", str(dump), "--output", str(report)]
    assert main(argv) == 0
    return report, dump


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_report_and_dump_bytes_are_pinned(seed, monkeypatch, tmp_path):
    report, dump = analyze_tiny(seed, monkeypatch, tmp_path)
    assert (sha256(report), sha256(dump)) == DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_the_dump_drives_the_estimator_to_the_report(seed, monkeypatch, tmp_path):
    report_path, dump = analyze_tiny(seed, monkeypatch, tmp_path)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    events = read_event_log(dump)
    for algorithm in ALGORITHMS:
        doc = report["results"][algorithm]
        paths = [f["path"] for f in doc["files"]]
        est = BusFactorEstimator(algorithm=algorithm, as_of=report["as_of"])
        est.fit(events, live_files=paths)
        assert est.bus_factor_ == doc["bus_factor"]
        assert est.key_engineers_ == doc["key_engineers"]
        assert est.coverage_trace_ == doc["coverage_trace"]
        assert [
            {"path": p, "authors": list(est.authors_[p]), "top_doa": est.doa_.file_max.get(p, 0.0)}
            for p in paths
        ] == [{k: f[k] for k in ("path", "authors", "top_doa")} for f in doc["files"]]


def test_the_benchmark_collab_workload_is_pinned(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    w = workloads.generate(workloads.Shape(**COLLAB), 1, tmp_path / "in")
    inputs = ["--repo", str(w.repo), "--reviews", str(w.reviews), "--meetings", str(w.meetings)]
    assert main(["analyze", *inputs, "--output", str(tmp_path / "collab.json")]) == 0
    dump = ["--dump-events", str(tmp_path / "events.jsonl")]
    both = [*inputs, "--algorithm", "both", *dump, "--output", str(tmp_path / "collab-dump.json")]
    assert main(["analyze", *both]) == 0
    outputs = ("collab.json", "collab-dump.json", "events.jsonl")
    assert tuple(sha256(tmp_path / name) for name in outputs) == COLLAB_DIGESTS
