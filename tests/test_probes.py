"""The traced benchmark run (perfbench/run.py --trace 1) wraps module
attributes of the package by name; every one of them must still exist."""
import importlib
import importlib.util
import sys
from functools import reduce
from pathlib import Path

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
