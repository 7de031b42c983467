"""Output checks that never call the code under test.

Each check takes a job from the manifest, the exit code the program
returned and the text it printed, and returns ``None`` when the output is
right or a short reason when it is not.  Expected values come from the
planted structure the generator recorded, or from the small colour
refinement below.
"""

from __future__ import annotations

import json

import numpy as np


def colour_refinement(n: int, edges) -> list[list[int]]:
    """Coarsest equitable partition of a graph by plain 1-dimensional
    Weisfeiler-Leman refinement from the one-colour start, cells sorted by
    smallest member."""
    neighbours = [[] for _ in range(n)]
    for u, v in edges:
        if u != v:
            neighbours[u].append(v)
            neighbours[v].append(u)
    colour = [0] * n
    count = 1
    while True:
        signatures = [(colour[v], tuple(sorted(colour[u] for u in neighbours[v])))
                      for v in range(n)]
        ids = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        colour = [ids[sig] for sig in signatures]
        if len(ids) == count:
            break
        count = len(ids)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colour[v], []).append(v)
    return sorted(cells.values(), key=lambda c: c[0])


def _equitable_problem(n: int, edges, cells) -> str | None:
    """Why ``cells`` is not an equitable partition of the graph, or None."""
    members = sorted(v for cell in cells for v in cell)
    if members != list(range(n)):
        return "cells do not partition the vertices"
    if any(cell != sorted(cell) for cell in cells) or \
            [cell[0] for cell in cells] != sorted(cell[0] for cell in cells):
        return "cells are not in canonical order"
    adjacency = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adjacency[u, v] = adjacency[v, u] = 1
    indicator = np.zeros((n, len(cells)), dtype=np.int64)
    for j, cell in enumerate(cells):
        indicator[cell, j] = 1
    counts = adjacency @ indicator
    for cell in cells:
        if np.any(counts[cell] != counts[cell[0]]):
            return f"cell starting at {cell[0]} is not equitable"
    return None


def _same_cells(got, want) -> bool:
    return sorted(sorted(c) for c in got) == sorted(sorted(c) for c in want)


def check_output(job: dict, code, stdout: str, stderr: str) -> str | None:
    expect = job["expect"]
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}: {stderr.strip()[:200]}"
    if code in (2, 3):
        if stdout or not stderr.startswith("error: "):
            return "a rejected input must print only an error message"
        return None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "report is not JSON"
    failing = [c["law"] for c in report["checks"] if not c["passed"]]
    if report["passed"] != (code == 0) or report["passed"] != (not failing):
        return "passed flag disagrees with the exit code or the checks"
    if not report["checks"]:
        return "report has no checks"
    if "failing" in expect and expect["failing"] not in failing:
        return f"law {expect['failing']} should fail, failing: {failing[:5]}"
    payload = report.get("payload", {})
    if "cells" in expect and job["kind"] == "separate":
        if not _same_cells(payload["partition"]["cells"], expect["cells"]):
            return "separate partition differs from the planted blocks"
    if "image" in expect and payload["image_arrow"]["values"] != expect["image"]:
        return "functor image differs from the thresholded arrow"
    if job["kind"] == "equitable":
        n, edges, cells = expect["n"], expect["edges"], payload["cells"]
        problem = _equitable_problem(n, edges, cells)
        if problem:
            return problem
        want = expect.get("cells") or colour_refinement(n, edges)
        if not _same_cells(cells, want):
            return "equitable cells differ from the coarsest partition"
    return None
