#!/usr/bin/env python3
"""Benchmark of ``busfactor analyze`` on seeded synthetic workloads.

    python3 perfbench/run.py --workload collab --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports the program from
the checkout's ``src`` directory and writes only under ``.perfbench/`` there.
Each run generates its workload from ``--seed`` (timed, several times, for
``setup_s``), then for ``--seconds`` seconds:

* ``--trace 0`` runs the real CLI, ``python3 -m busfactor analyze``, once per
  fresh process, between runs of a fixed reference computation that gauges
  the machine's current speed, and reports end-to-end metrics;
* ``--trace 1`` alternates untraced and traced in-process runs of
  ``busfactor.cli.main`` and reports per-layer metrics (see probes.py).

Every invocation's outputs are checked. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. See
README.md for the workloads and the meaning of every metric.
"""
import sys

# keep the benchmark's own directory free of generated files
sys.dont_write_bytecode = True

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import probes
from spans import Tracer
from workloads import Shape, Workload, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUPS = 3  # generations per run; setup_s is their median
REFERENCE_ITEMS = 150_000  # Python part of the reference computation (0.15-0.3 s on 2 vCPUs)
MIN_INVOCATIONS = 5  # timed CLI invocations per run, even past --seconds

# Sized so that a 30 s run holds 8-26 invocations: on a noisy host the median
# needs many samples more than it needs bigger inputs.
HISTORY = Shape(
    commits=10_000, files=1_000, authors=40, step_s=1800, merge_every=25, rename_every=50,
)
COLLAB = Shape(
    commits=2_000, files=200, authors=30, step_s=7200,
    reviews=1_200, unmerged_share=0.1, meetings=240, excluded_share=0.05, attendees=(4, 10),
)


@dataclass(frozen=True)
class Spec:
    shape: Shape
    both: bool = False  # --algorithm both: the engine runs twice
    dump: bool = False  # --dump-events: the event stream becomes an output


SPECS = {
    "history": Spec(HISTORY),
    "collab": Spec(COLLAB),
    "collab-dump": Spec(COLLAB, both=True, dump=True),
}

END_TO_END_UNITS = {"analyze_rel": "ref", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "gitvcs.git_calls": "count",
    "gitvcs.git_wait_s": "s",
    "gitvcs.git_stdout_bytes": "B",
    "gitvcs.parse_s": "s",
    "gitvcs.fold_s": "s",
    "gitvcs.commits": "count",
    "gitvcs.merges": "count",
    "gitvcs.renames": "count",
    "gitvcs.live_files": "count",
    "gitvcs.vcs_events": "count",
    "identity.merge_s": "s",
    "identity.actors": "count",
    "identity.engineers": "count",
    "collab.parse_s": "s",
    "collab.review_join_s": "s",
    "collab.meeting_join_s": "s",
    "collab.reviews_in": "count",
    "collab.reviews_kept": "count",
    "collab.meetings_in": "count",
    "collab.meetings_kept": "count",
    "collab.review_events": "count",
    "collab.meeting_events": "count",
    "collab.meeting_pairs_scanned": "count",
    "collab.meeting_match_ratio": "ratio",
    "model.sort_s": "s",
    "model.events": "count",
    "engine.check_s": "s",
    "engine.ledger_s": "s",
    "engine.score_s": "s",
    "engine.authorship_s": "s",
    "engine.walk_s": "s",
    "engine.pairs_scored": "count",
    "engine.calls": "count",
    "pipeline.self_s": "s",
    "pipeline.to_json_s": "s",
    "eventlog.write_s": "s",
    "eventlog.bytes": "B",
    "cli.self_s": "s",
    "trace.total_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_share": "ratio",
}

# traced counts that must equal what the generator wrote
EXPECTED_COUNTS = {
    "gitvcs.commits": "commits",
    "gitvcs.merges": "merges",
    "gitvcs.renames": "renames",
    "gitvcs.live_files": "live_files",
    "collab.reviews_kept": "reviews_kept",
    "collab.meetings_kept": "meetings_kept",
}


def say(text: str) -> None:
    print(f"perfbench: {text}", flush=True)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def analyze_argv(spec: Spec, w: Workload, out: Path) -> list[str]:
    argv = ["analyze", "--repo", str(w.repo), "--output", str(out / "report.json")]
    if w.reviews is not None:
        argv += ["--reviews", str(w.reviews)]
    if w.meetings is not None:
        argv += ["--meetings", str(w.meetings)]
    if spec.both:
        argv += ["--algorithm", "both"]
    if spec.dump:
        argv += ["--dump-events", str(out / "events.jsonl")]
    return argv


def clear_outputs(out: Path) -> None:
    for name in ("report.json", "events.jsonl"):
        (out / name).unlink(missing_ok=True)


def check_outputs(spec: Spec, w: Workload, out: Path, reference: dict | None):
    """Digests of one invocation's outputs and the first problem found, or None."""
    digests: dict[str, str] = {}
    try:
        data = (out / "report.json").read_bytes()
        digests["report_sha256"] = hashlib.sha256(data).hexdigest()
        if spec.dump:
            digests["dump_sha256"] = sha256(out / "events.jsonl")
        report = json.loads(data)
    except (OSError, ValueError) as exc:
        return digests, f"output unreadable: {exc}"
    if not isinstance(report, dict):
        return digests, "report is not a JSON object"
    docs = report.get("results", {}).values() if spec.both else [report]
    counts = [doc.get("file_count") if isinstance(doc, dict) else None for doc in docs]
    if len(counts) != (2 if spec.both else 1) or any(c != w.live_files for c in counts):
        return digests, f"file_count {counts} != {w.live_files} live files"
    if reference is not None and digests != reference:
        return digests, "outputs differ from the run's first invocation"
    return digests, None


def setup(spec: Spec, seed: int, run_dir: Path) -> tuple[Workload, list[float]]:
    times, heads = [], set()
    for _ in range(SETUPS):
        shutil.rmtree(run_dir / "input", ignore_errors=True)
        start = time.perf_counter()
        w = generate(spec.shape, seed, run_dir / "input")
        times.append(time.perf_counter() - start)
        heads.add(w.head)
    if len(heads) != 1:
        raise RuntimeError(f"seed {seed} generated different heads: {sorted(heads)}")
    return w, times


def run_cli(argv: list[str], env: dict, log_path: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MiB (the process and the git children it
    waited for) and exit code of one CLI invocation."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "busfactor", *argv],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024, proc.returncode


class Outcome:
    """Attempted and failed invocations, and the run's reference digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.reference: dict | None = None

    def record(self, digests: dict, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.problems.append(problem)
            say(f"invocation {self.attempted} failed: {problem}")
        elif self.reference is None:
            self.reference = digests


def reference_s(repo: Path) -> float:
    """Wall time of a fixed computation shaped like the program's work: a git
    log over the workload's repository, then small-object allocation, dict
    grouping and a sort in Python."""
    gc.collect()
    git_start = time.perf_counter()
    subprocess.run(
        ["git", "log", "--raw", "--no-renames", "-n", "1500", "--format=%H"],
        cwd=repo, stdout=subprocess.DEVNULL, check=True,
    )
    git_s = time.perf_counter() - git_start
    rng = random.Random(0)
    start = time.perf_counter()
    groups: dict[int, list] = {}
    for _ in range(REFERENCE_ITEMS):
        key = rng.getrandbits(32)
        groups.setdefault(key & 0xFFFF, []).append((key, f"{key:x}"))
    ordered = sorted(groups.items())
    elapsed = time.perf_counter() - start
    del groups, ordered
    return elapsed + git_s


def keep_going(start: float, durations: list[float], minimum: int, seconds: int) -> bool:
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def measure_cli(spec, w, seconds, out, outcome) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # compile the package's bytecode once, as an installed copy would have it
    subprocess.run([sys.executable, "-c", "import busfactor.cli"], env=env, check=True)
    argv = analyze_argv(spec, w, out)
    durations, rss, refs = [], [], [reference_s(w.repo)]
    start = time.perf_counter()
    while keep_going(start, durations, MIN_INVOCATIONS, seconds):
        clear_outputs(out)
        elapsed, peak, code = run_cli(argv, env, out / "stderr.log")
        refs.append(reference_s(w.repo))
        durations.append(elapsed)
        rss.append(peak)
        digests, problem = check_outputs(spec, w, out, outcome.reference)
        if code != 0:
            tail = (out / "stderr.log").read_text(errors="replace").strip().splitlines()[-1:]
            problem = f"exit code {code} {tail}"
        outcome.record(digests, problem)
    say(f"analyze_s samples: {' '.join(f'{d:.4f}' for d in durations)}")
    say(f"reference_s samples: {' '.join(f'{r:.4f}' for r in refs)}")
    say(f"peak_rss_mb samples: {' '.join(f'{r:.1f}' for r in rss)}")
    say(f"analyze_s median {statistics.median(durations):.4f} s over {len(durations)} invocations")
    # each invocation against the machine's speed just before and just after it
    ratios = [d / ((before + after) / 2) for d, before, after in zip(durations, refs, refs[1:])]
    return {"analyze_rel": statistics.median(ratios), "peak_rss_mb": statistics.median(rss)}


def load_program():
    sys.path.insert(0, str(SRC))
    import busfactor.cli  # noqa: F401  (imports every module the probes wrap)

    where = Path(busfactor.__file__).resolve().parent
    if where != SRC / "busfactor":
        raise RuntimeError(f"imported busfactor from {where}, not from {SRC}")
    return busfactor


def measure_traced(spec, w, seconds, out, outcome, trace_path) -> dict[str, float]:
    package = load_program()
    argv = analyze_argv(spec, w, out)
    untraced, traced, layers, spans = [], [], [], []

    def invoke(run):
        clear_outputs(out)
        gc.collect()
        start = time.perf_counter()
        try:
            code, error = run(), None
        except Exception as exc:  # a crash of the program counts as a failed invocation
            code, error = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        digests, problem = check_outputs(spec, w, out, outcome.reference)
        if error or code != 0:
            problem = error or f"exit code {code}"
        return elapsed, digests, problem

    start = time.perf_counter()
    pairs: list[float] = []
    while keep_going(start, pairs, 1, seconds):
        pair_start = time.perf_counter()
        elapsed, digests, problem = invoke(lambda: package.cli.main(argv))
        untraced.append(elapsed)
        outcome.record(digests, problem)

        tracer = Tracer(trace=len(traced))
        with probes.installed(tracer, package):
            elapsed, digests, problem = invoke(lambda: package.cli.main(argv))
        traced.append(elapsed)
        metrics = probes.layer_metrics(tracer)
        for metric, field in EXPECTED_COUNTS.items():
            if problem is None and metrics.get(metric, 0) != getattr(w, field):
                problem = f"traced {metric} {metrics.get(metric, 0)} != generated {getattr(w, field)}"
        outcome.record(digests, problem)
        layers.append(metrics)
        spans.extend(tracer.dump())
        del tracer
        pairs.append(time.perf_counter() - pair_start)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({"spans": spans}), encoding="utf-8")
    # median_low reports one traced invocation's value, so counts stay whole
    result = {
        name: statistics.median_low(m.get(name, 0) for m in layers)
        for name in PER_LAYER_UNITS
        if not name.startswith("trace.")
    }
    result["trace.total_s"] = statistics.median(traced)
    result["trace.untraced_s"] = statistics.median(untraced)
    result["trace.overhead_share"] = result["trace.total_s"] / result["trace.untraced_s"] - 1
    total = result["trace.total_s"]
    shares = {}
    for name, value in result.items():
        if name.endswith("_s") and not name.startswith("trace."):
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + value / total
    say("share of traced time by layer: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])
    ))
    say(f"spans written to {trace_path.relative_to(ROOT)}")
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark busfactor analyze.")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "busfactor" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure: {SRC / 'busfactor'} is missing\n")
        return 2
    if shutil.which("git") is None:
        sys.stderr.write("perfbench: git is not on PATH\n")
        return 2
    # Speed swings on one CPU are not shared by the others here, so the
    # reference computation tracks the program only on the same CPU: pin
    # this process, and with it every process it starts, to one CPU.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    git = subprocess.run(["git", "--version"], capture_output=True, text=True).stdout.strip()
    say(f"environment: python {sys.version.split()[0]}, {git}, {os.cpu_count()} CPUs, pinned to CPU {cpu}")
    spec = SPECS[args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    out = run_dir / "out"
    out.mkdir(parents=True)
    outcome = Outcome()
    try:
        w, setup_times = setup(spec, args.seed, run_dir)
        say(
            f"workload {args.workload} seed {args.seed}: head {w.head}, {w.commits} commits, "
            f"{w.merges} merges, {w.renames} renames, {w.live_files} live files, "
            f"{w.reviews_kept} kept reviews, {w.meetings_kept} kept meetings"
        )
        say(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup_times)}")
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            values = measure_traced(spec, w, args.seconds, out, outcome, trace_path)
            units = PER_LAYER_UNITS
        else:
            values = measure_cli(spec, w, args.seconds, out, outcome)
            values["setup_s"] = statistics.median(setup_times)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(outcome.problems)
    say(f"failed_share: {failed}/{outcome.attempted}")
    say(f"digests: {json.dumps(outcome.reference, sort_keys=True)}")
    for name in units:
        say(f"{name} = {values[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
