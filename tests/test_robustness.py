"""Mutated fixture inputs through ``cli.main``: every run ends with an exit
code; a report is written to stdout alone, and a refused input gets one
``error:`` line on stderr and nothing on stdout.

Each case is a golden command (``tests/test_golden.py``) with one of its
input files replaced by a mutated copy: a JSON value replaced by null, a
bool, a huge or negative integer, NaN, a string or nested lists, a key
deleted or a list item duplicated; or a text line replaced, duplicated or
deleted.  All cases run in one child process that pins BLAS to one thread
and limits its own address space to 2 GiB, so an input that asks for too
much memory must be refused, not served.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from .test_golden import COMMANDS, ROOT

SEED = 20261020
CASES = 1000

# cases as JSON on stdin, [exit code or traceback, stdout, stderr] per case
# as JSON on stdout
_CHILD = r"""
import contextlib, io, json, resource, sys, traceback

limit = 2 << 30
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (
    limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
from specat.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:
        code = traceback.format_exc()
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

_VALUES = [None, True, False, 2 ** 70, -(2 ** 63), -1, 10 ** 9, float("nan"),
           "x", "", "0", [], [[]], [1, [2, [3]]], [["a", "b"], ["c"]]]
_LINES = ["", "x y", "0 1 2", "-1 2", "0 99999999", "0 " + "9" * 30, "nan,1",
          "1e999,0,0", "1,2", "a,b,c", "0", "#", "1+2j,0,0", ",,", "0 0"]


def _nodes(obj):
    """Every (container, key) below ``obj``, depth first."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield obj, key
        yield from _nodes(value)


def _mutate_json(text: str, rng: random.Random) -> str:
    root = json.loads(text)
    nodes = list(_nodes(root))
    parent, key = rng.choice(nodes)
    action = rng.choice(["replace", "replace", "delete", "duplicate"])
    if action == "delete" and isinstance(parent, dict):
        del parent[key]
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    else:
        parent[key] = rng.choice(_VALUES)
    return json.dumps(root)


def _mutate_text(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    at = rng.randrange(len(lines))
    action = rng.choice(["replace", "replace", "duplicate", "delete"])
    if action == "duplicate":
        lines.insert(at, lines[at])
    elif action == "delete":
        del lines[at]
    else:
        lines[at] = rng.choice(_LINES)
    return "\n".join(lines) + "\n"


def _cases(tmp_path: Path) -> list[list[str]]:
    """``CASES`` golden commands, each with one input file mutated."""
    rng = random.Random(SEED)
    commands = [argv for _, argv in sorted(COMMANDS.items())
                if any(arg.startswith("fixtures/") for arg in argv)]
    cases = []
    for i in range(CASES):
        argv = list(rng.choice(commands))
        at = rng.choice([j for j, arg in enumerate(argv)
                         if arg.startswith("fixtures/")])
        text = (ROOT / argv[at]).read_text()
        mutate = _mutate_json if argv[at].endswith(".json") else _mutate_text
        path = tmp_path / f"{i}-{Path(argv[at]).name}"
        path.write_text(mutate(text, rng))
        argv[at] = str(path)
        cases.append(argv)
    return cases


def test_mutated_inputs_exit_with_a_code_and_a_message(tmp_path):
    pytest.importorskip("resource")
    cases = _cases(tmp_path)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(cases),
                           capture_output=True, text=True, cwd=ROOT, env=env,
                           timeout=300, check=True)
    codes = []
    for argv, (code, out, err) in zip(cases, json.loads(child.stdout), strict=True):
        assert code in (0, 1, 2, 3), (argv, code)
        if code >= 2:
            assert out == "", argv
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
        else:
            assert out and err == "", (argv, err)
        codes.append(code)
    assert set(codes) == {0, 1, 2, 3}  # the mutations reach every outcome
