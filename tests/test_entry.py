"""The package root and the process entry.

``import busfactor`` loads no submodule and serves every public name on first
use; ``python -m busfactor`` and the ``busfactor`` script both run
``__main__.run``, which turns the cyclic collector off before the first
submodule is imported and freezes what is left before exit.
"""
import json
import os
import re
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import busfactor
import busfactor.__main__
from busfactor.cli import main

SRC = str(Path(busfactor.__file__).resolve().parents[1])
ROOT = Path(SRC).parent


def python(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
    )


def test_import_loads_no_submodule_and_serves_every_public_name():
    code = "\n".join([
        "import json, sys",
        "import busfactor",
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'busfactor')",
        "resolved = {}",
        "for name in busfactor.__all__:",
        "    value = getattr(busfactor, name)",
        "    resolved[name] = value is getattr(sys.modules['busfactor.' + busfactor._LAZY[name]], name)",
        "served = {}",
        "exec('from busfactor import *', served)",
        "print(json.dumps([loaded, resolved, sorted(served.keys() - {'__builtins__'})]))",
    ])
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
    loaded, resolved, star = json.loads(proc.stdout)
    assert loaded == ["busfactor"]
    assert resolved == dict.fromkeys(busfactor.__all__, True)
    assert star == sorted(busfactor.__all__)


def test_each_public_name_is_served_from_the_module_that_defines_it():
    assert sorted(busfactor._LAZY) == sorted(busfactor.__all__)
    for name in busfactor.__all__:
        value = getattr(busfactor, name)
        assert getattr(value, "__module__", None) in (None, f"busfactor.{busfactor._LAZY[name]}"), name
    assert set(busfactor.__all__) <= set(dir(busfactor))


def test_each_submodule_is_served_as_an_attribute_on_first_use():
    modules = {path.stem for path in Path(busfactor.__file__).parent.glob("*.py")} - {"__init__", "__main__"}
    assert busfactor._SUBMODULES == modules
    code = "\n".join([
        "import json, sys",
        "import busfactor",
        "served = {m: getattr(busfactor, m) is sys.modules['busfactor.' + m] for m in sorted(busfactor._SUBMODULES)}",
        "print(json.dumps(served))",
    ])
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == dict.fromkeys(sorted(modules), True)


def test_only_the_process_entry_runs_as_a_script():
    package = Path(busfactor.__file__).parent
    scripts = sorted(p.name for p in package.glob("*.py") if 'if __name__ == "__main__":' in p.read_text(encoding="utf-8"))
    assert scripts == ["__main__.py"]


def test_the_script_runs_the_process_entry():
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").partition("[project.scripts]")[2]
    target = re.search(r'^busfactor = "([^"]+)"$', scripts, re.M).group(1)
    assert EntryPoint("busfactor", target, "console_scripts").load() is busfactor.__main__.run


# Runs the package as `python -m busfactor` does and prints, at exit, the
# collector's state, whether anything was frozen, and the collector's state at
# each busfactor submodule import (busfactor.__main__, the entry itself, is
# found by runpy before it runs).
PROBE = """
import atexit, gc, json, runpy, sys

seen = {}


class Watch:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("busfactor.") and name != "busfactor.__main__":
            seen[name] = gc.isenabled()
        return None


sys.meta_path.insert(0, Watch())
atexit.register(lambda: print(json.dumps([gc.isenabled(), gc.get_freeze_count() > 0, seen])))
sys.argv = ["busfactor", *sys.argv[1:]]
runpy.run_module("busfactor", run_name="__main__", alter_sys=True)
"""


@pytest.fixture
def bad_reviews(tmp_path):
    path = tmp_path / "reviews.json"
    path.write_text("[{]", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case", ["report", "no command", "usage", "input data", "repository"])
def test_the_process_entry_exits_with_the_collector_off_and_frozen(
    capsys, tmp_path, single_owner_repo, bad_reviews, case
):
    repo = str(single_owner_repo.path)
    argv, expected_code = {
        "report": (["analyze", "--repo", repo], 0),
        "no command": ([], 1),
        "usage": (["analyze", "--output"], 1),
        "input data": (["analyze", "--repo", repo, "--reviews", bad_reviews], 2),
        "repository": (["analyze", "--repo", str(tmp_path / "missing")], 3),
    }[case]
    output = ["--output", str(tmp_path / "report.json")] if len(argv) > 2 else []

    proc = python(PROBE, *argv, *output)
    report = (tmp_path / "report.json").read_bytes() if case == "report" else None
    try:
        in_process = main([*argv, *output])
    except SystemExit as exc:
        in_process = exc.code
    assert (proc.returncode, in_process) == (expected_code, expected_code)
    assert proc.stderr == capsys.readouterr().err
    collecting, frozen, seen = json.loads(proc.stdout)
    assert (collecting, frozen) == (False, True)
    assert "busfactor.cli" in seen and not any(seen.values()), seen
    if case == "report":
        assert (tmp_path / "report.json").read_bytes() == report
