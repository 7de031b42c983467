"""Mutated fixture inputs through ``cli.main``: every run ends with an exit
code; a report is written to stdout alone, and a refused input gets one
``error:`` line on stderr and nothing on stdout.

Each case is a golden command (``tests/test_golden.py``) with one of its
input files replaced by a mutated copy.  The first test mutates values: a
JSON value replaced by null, a bool, a huge or negative integer, NaN, a
string or nested lists, a key deleted or a list item duplicated; or a text
line replaced, duplicated or deleted.  The second mutates bytes: a byte
that is not UTF-8 put in, a byte of a decomposition's ``project`` or
``inject`` grid replaced, or the file cut short.  The cases of each test
run in one child process that pins BLAS to one thread and limits its own
address space to 2 GiB, so an input that asks for too much memory must be
refused, not served.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from .test_golden import COMMANDS, ROOT

SEED = 20261020
CASES = 1000
BYTES_SEED = 20261021
BYTES_CASES = 300

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


# a grid of a decomposition, up to its closing brackets
_GRID = re.compile(rb'"(?:project|inject)"\s*:\s*\[[^"]*?\]\s*\]')


def _mutate_bytes(data: bytes, rng: random.Random) -> bytes:
    action = rng.choice(["utf-8", "grid", "grid", "cut"])
    grids = list(_GRID.finditer(data))
    if action == "grid" and grids:
        grid = rng.choice(grids)
        at = rng.randrange(grid.start(), grid.end())
        return data[:at] + bytes([rng.choice(b'0123456789[],. \n"-e')]) + data[at + 1:]
    if action == "cut":
        return data[:rng.randrange(len(data))]
    at = rng.randrange(len(data) + 1)
    # a byte that starts no UTF-8 sequence, a lone continuation byte, or
    # the first byte of a sequence cut short
    return data[:at] + rng.choice([b"\xff", b"\x80", b"\xc3", b"\xe2\x82"]) + data[at:]


def _cases(tmp_path: Path, seed: int, count: int, mutate) -> list[list[str]]:
    """``count`` golden commands, each with one input file mutated by
    ``mutate(path, rng)``, which gives the mutated bytes."""
    rng = random.Random(seed)
    commands = [argv for _, argv in sorted(COMMANDS.items())
                if any(arg.startswith("fixtures/") for arg in argv)]
    cases = []
    for i in range(count):
        argv = list(rng.choice(commands))
        at = rng.choice([j for j, arg in enumerate(argv)
                         if arg.startswith("fixtures/")])
        path = tmp_path / f"{i}-{Path(argv[at]).name}"
        path.write_bytes(mutate(ROOT / argv[at], rng))
        argv[at] = str(path)
        cases.append(argv)
    return cases


def _mutated_values(path: Path, rng: random.Random) -> bytes:
    mutate = _mutate_json if path.suffix == ".json" else _mutate_text
    return mutate(path.read_text(encoding="utf-8"), rng).encode()


def _run_cases(cases: list[list[str]]) -> list[int]:
    """Run the cases through ``cli.main`` in one child process, check each
    outcome and give the exit codes."""
    pytest.importorskip("resource")
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
    return codes


def test_mutated_inputs_exit_with_a_code_and_a_message(tmp_path):
    codes = _run_cases(_cases(tmp_path, SEED, CASES, _mutated_values))
    assert set(codes) == {0, 1, 2, 3}  # the mutations reach every outcome


def test_mutated_bytes_exit_with_a_code_and_a_message(tmp_path):
    codes = _run_cases(_cases(tmp_path, BYTES_SEED, BYTES_CASES,
                              lambda path, rng: _mutate_bytes(path.read_bytes(), rng)))
    assert {0, 1, 2} <= set(codes)
