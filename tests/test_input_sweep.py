"""Generated bad input for every input file and flag of the CLI.

Valid reviews, meetings, config, predictions and truth documents are
mutated (types swapped, numbers made non-finite or huge, fields dropped,
values nested wrongly); ``--param`` values come from the same pool and
``--as-of`` values from a list of malformed and out-of-range instants.
Whatever the input, ``cli.main`` must return 0, 1, 2 or 3; a failure prints
exactly one ``busfactor: error:`` line, and a success prints JSON with no
``Infinity`` or ``NaN`` in it. The hypothesis seed is fixed, so every run
tries the same inputs.
"""
import copy
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from busfactor.cli import main
from busfactor.model import AlgorithmParams

from conftest import ALICE, BOB, GitRepo, day_ms

BAD_VALUES = [
    None, True, "", "x", [], {}, [[]],  # wrong types
    math.inf, -math.inf, math.nan,
    1e308, 1.7e308, -1.7e308, 2**63, 10**400, -10**400,  # huge
    0, -1, 0.5, 5e-324,
]
DROP = object()


def parts(value, path=()):
    """The path of ``value`` and of every value nested in it."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from parts(item, (*path, key))


def replaced(value, path, new):
    """A copy of ``value`` with the part at ``path`` set to ``new``, or dropped."""
    if not path:
        return new
    out = copy.copy(value)
    if len(path) == 1 and new is DROP:
        del out[path[0]]
    else:
        out[path[0]] = replaced(value[path[0]], path[1:], new)
    return out


@st.composite
def mutated(draw, value):
    """``value`` with one part swapped for a bad value, dropped or nested wrongly."""
    path = draw(st.sampled_from(list(parts(value))))
    old = value
    for key in path:
        old = old[key]
    choices = [*BAD_VALUES, [old], {"x": old}]
    if path:  # a part can be dropped, the whole document cannot
        choices.append(DROP)
    return replaced(value, path, draw(st.sampled_from(choices)))


def reject_constant(name):
    raise ValueError(f"{name} in the output")


def check_run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=reject_constant)
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("busfactor: error: "), lines


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A three-commit repository, its commit ids and a folder for input files."""
    root = tmp_path_factory.mktemp("sweep")
    repo = GitRepo(root / "repo")
    first = repo.commit("add", {"a.txt": "a\n", "b.txt": "b\n"}, author=ALICE, day=0)
    second = repo.commit("edit", {"a.txt": "a2\n"}, author=ALICE, day=0.5)
    third = repo.commit("more", {"c.txt": "c\n"}, author=BOB, day=1)
    return repo, (first, second, third), root


def analyze_inputs(commits):
    """Valid reviews, meetings and config for the sweep repository."""
    review = {
        "id": "r1", "reviewers": [{"email": BOB[1], "name": "Bob"}],
        "commit_ids": [commits[0], commits[1]], "completed_at": day_ms(1), "state": "merged",
    }
    meeting = {
        "id": "m1", "participants": [{"email": ALICE[1]}, {"profile_ref": "bob"}],
        "start": day_ms(0.5), "duration_minutes": 30, "title": "design",
    }
    return {"reviews": [review], "meetings": [meeting], "config": AlgorithmParams().as_dict()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_analyze_ends_in_a_known_exit_code_and_one_line(sweep, data):
    repo, commits, root = sweep
    inputs = analyze_inputs(commits)
    argv = ["analyze", "--repo", str(repo.path)]
    targets = st.sampled_from(["reviews", "meetings", "config", "param", "as_of"])
    for target in data.draw(st.lists(targets, min_size=1, max_size=2), label="faults"):
        if target == "param":
            name = data.draw(st.sampled_from(AlgorithmParams.field_names()), label="param")
            values = [*map(json.dumps, BAD_VALUES), "[1,", "a,b"]  # and two that are not JSON
            value = data.draw(st.sampled_from(values), label="value")
            argv.append(f"--param={name}={value}")
        elif target == "as_of":
            argv.append("--as-of=" + data.draw(st.sampled_from([
                "2023-12-31", "garbage", "", "0001-01-01T00:00:00+14:00",
                "9999-12-31T23:59:59.999Z", "nan", "1e400", "2024-01-01T00:00:00+25:00",
            ]), label="as_of"))
        else:
            inputs[target] = data.draw(mutated(inputs[target]), label=target)
    for name, value in inputs.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        argv.append(f"--{name}={path}")
    algorithm = data.draw(st.sampled_from(["multimodal", "baseline", "both"]), label="algorithm")
    check_run([*argv, f"--algorithm={algorithm}"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_evaluate_ends_in_a_known_exit_code_and_one_line(sweep, data):
    _, _, root = sweep
    inputs = {
        "predictions": {"projects": [
            {"name": "p", "bus_factor": 2, "key_engineers": ["ann"]},
            {"name": "q", "bus_factor": 1},
        ]},
        "truth": {"projects": [
            {"name": "p", "estimates": [2, 3.5], "key_engineers": ["ann", "ben"]},
            {"name": "q", "estimates": [1]},
        ]},
    }
    for target in data.draw(st.lists(st.sampled_from(list(inputs)), min_size=1, max_size=2)):
        inputs[target] = data.draw(mutated(inputs[target]), label=target)
    argv = ["evaluate"]
    for name, value in inputs.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        argv.append(f"--{name}={path}")
    check_run(argv)
