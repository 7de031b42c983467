"""Golden reports: every CLI command the fixtures support, byte for byte.

Each case reruns one ``specat`` command from the repository root and
compares its stdout and exit code with the files under ``tests/golden/``.
This pins the ``specat-report/2`` output across versions, not only across
runs.  After a deliberate output change, regenerate the files with

    PYTHONPATH=src python -m tests.test_golden

run from the repository root, and say why in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from specat.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

_REL = "fixtures/relations/"
_DEC = "fixtures/decomps/"
_B4 = ("--instance", "rel-l", "--lattice", "builtin:b4")
_PAIRS = {
    "diag2": (_REL + "b4_diag2_f.json", _DEC + "b4_diag2_dec.json"),
    "loops3": (_REL + "b4_loops3_f2.json", _DEC + "b4_loops3_dec2.json"),
    "path3": (_REL + "b4_path3_f1.json", _DEC + "b4_path3_dec1.json"),
}
_LINE3 = ("--arrow", "fixtures/matrices/line3_f.csv")


def _commands() -> dict[str, tuple[str, ...]]:
    """Name -> argv; each name is also the stem of its golden file."""
    jobs: dict[str, tuple[str, ...]] = {}
    for name, (arrow, dec) in _PAIRS.items():
        jobs[f"verify-{name}"] = ("verify", *_B4, "--arrow", arrow,
                                  "--decomposition", dec)
        jobs[f"separate-{name}"] = ("separate", *_B4, "--arrow", arrow)
        jobs[f"functor-{name}"] = ("functor", "--hom",
                                   "fixtures/homs/b4_upper_a.json",
                                   "--arrow", arrow, "--decomposition", dec)
    arrow, dec = _PAIRS["diag2"]
    jobs["verify-diag2-lattice-file"] = (
        "verify", "--instance", "rel-l",
        "--lattice", "fixtures/lattices/b4.json",
        "--arrow", arrow, "--decomposition", dec)
    jobs["functor-diag2-upper-a"] = (
        "functor", "--lattice", "builtin:b4", "--hom", "builtin:upper:a",
        "--arrow", arrow, "--decomposition", dec)
    # one mutated local arrow: law d fails, so these pin a counterexample
    jobs["verify-diag2-bad-local"] = ("verify", *_B4, "--arrow", arrow,
                                      "--decomposition",
                                      _DEC + "b4_diag2_dec_bad_local.json")
    jobs["functor-diag2-identity"] = (
        "functor", "--lattice", "builtin:b4", "--hom", "builtin:identity",
        "--arrow", arrow, "--decomposition", dec)
    for instance in ("mat-r", "mat-c", "mat-nn"):
        jobs[f"verify-line3-{instance}"] = (
            "verify", "--instance", instance, *_LINE3,
            "--decomposition", _DEC + "line3_dec.json")
        jobs[f"separate-line3-{instance}"] = (
            "separate", "--instance", instance, *_LINE3)
    jobs["verify-line3-mat-r-bad-local"] = (
        "verify", "--instance", "mat-r", *_LINE3,
        "--decomposition", _DEC + "line3_dec_bad_local.json")
    for graph in ("path3", "star4"):
        jobs[f"equitable-{graph}"] = ("equitable", "--graph",
                                      f"fixtures/graphs/{graph}.txt")
    laws = ("laws", "--trials", "10", "--seed", "1", "--instance")
    jobs["laws-rel"] = (*laws, "rel")
    jobs["laws-b4"] = (*laws, "rel-l", "--lattice", "builtin:b4")
    jobs["laws-b4-functor-file"] = (*laws, "rel-l", "--lattice", "builtin:b4",
                                    "--functor", "fixtures/homs/b4_upper_a.json")
    jobs["laws-b4-functor-upper-a"] = (*laws, "rel-l", "--lattice",
                                       "builtin:b4", "--functor",
                                       "builtin:upper:a")
    # mat-r and mat-c law residuals are last-bit rounding of random
    # products, which differs between BLAS kernels, so only mat-nn is pinned.
    jobs["laws-mat-nn"] = (*laws, "mat-nn")

    cases = {}
    for name, argv in jobs.items():
        formats = ("json", "text", "dot") if argv[0] in (
            "separate", "equitable") else ("json", "text")
        for fmt in formats:
            cases[f"{name}.{fmt}"] = (*argv, "--format", fmt)
    return cases


COMMANDS = _commands()


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _expected_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def test_golden_set_matches_command_list():
    assert sorted(_expected_codes()) == sorted(COMMANDS)


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_report_bytes_match_golden(case):
    code, out = _run(COMMANDS[case])
    assert code == _expected_codes()[case]
    assert out == (GOLDEN / case).read_text()


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(COMMANDS.items()):
        codes[case], out = _run(argv)
        (GOLDEN / case).write_text(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    write_golden()
