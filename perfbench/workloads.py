"""Seeded input generation for the four benchmark workloads.

Every input is a file written under the run directory plus an argv for
``specat.cli.main``; the expected outcome of each job is computed here from
the planted structure, never by calling the code under test.  The same
``(workload, seed)`` always yields byte-identical files.

A workload is a ladder of job shapes (kind, instance, size, blocks) that is
fixed per workload; the seed only changes the random content (which carrier
cells form a block, cell values, vertex numbering, law-suite seeds).  Fixing
the shapes keeps the amount of work in a cycle nearly independent of the
seed, so runs with different seeds are comparable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("rel-decompose", "mat-decompose", "equitable", "laws")

# Every ladder has an odd number of shapes, so that the p50 and p75 of a
# run's job times fall inside one shape's samples rather than on the edge
# between two shapes, where they would jump with small timing noise.
#
# Distinct input cycles generated per run.  The timed phase replays them in
# order, wrapping around, so a faster program re-times the same inputs.
CYCLES = 3


def lattice_labels(spec: str) -> list[str]:
    """Element labels of a builtin lattice, in the package's index order."""
    if spec in ("bool", "chain:2"):
        return ["0", "1"]
    if spec == "b4":
        return ["0", "a", "b", "1"]
    k = int(spec.split(":")[1])
    return [str(Fraction(i, k - 1)) for i in range(k)]


def _dump(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    return str(path)


def _sizes(rng, n: int, blocks: int) -> np.ndarray:
    """A random composition of n into ``blocks`` parts of at least 2."""
    return rng.multinomial(n - 2 * blocks, [1.0 / blocks] * blocks) + 2


def _planted_cells(rng, n: int, blocks: int) -> list[list[int]]:
    """Random disjoint cells covering range(n), sorted by smallest member."""
    perm = rng.permutation(n)
    cells, start = [], 0
    for size in _sizes(rng, n, blocks):
        cells.append(perm[start:start + size])
        start += size
    return sorted((sorted(int(v) for v in c) for c in cells), key=lambda c: c[0])


# ---------------------------------------------------------------------------
# rel-decompose


def _planted_relation(rng, n: int, cells, k: int) -> np.ndarray:
    """Grid of lattice indices whose support components are exactly ``cells``.

    Each cell gets a spanning path in random order and random directions,
    plus sparse extra entries inside the cell; nothing links two cells.
    """
    grid = np.zeros((n, n), dtype=np.int64)
    for cell in cells:
        order = rng.permutation(cell)
        vals = rng.integers(1, k, size=len(order) - 1)
        flip = rng.random(len(order) - 1) < 0.5
        for a, b, v, f in zip(order[:-1], order[1:], vals, flip):
            if f:
                a, b = b, a
            grid[b, a] = v
        idx = np.array(cell)
        sub = grid[np.ix_(idx, idx)]
        extra = rng.random(sub.shape) < 0.15
        sub = np.where(extra & (sub == 0), rng.integers(0, k, size=sub.shape), sub)
        grid[np.ix_(idx, idx)] = sub
    return grid


def _relation_decomposition(carrier, grid, cells, labels) -> dict:
    n = len(carrier)
    bottom, top = labels[0], labels[-1]
    blocks = []
    for cell in cells:
        project = [[bottom] * n for _ in cell]
        for r, c in enumerate(cell):
            project[r][c] = top
        inject = [list(col) for col in zip(*project)]
        local = [[labels[grid[t, s]] for s in cell] for t in cell]
        blocks.append({"space": [carrier[i] for i in cell], "project": project,
                       "inject": inject, "local": local})
    return {"carrier": list(carrier), "blocks": blocks}


def _mutate_relation_local(rng, dec: dict, labels) -> None:
    block = dec["blocks"][int(rng.integers(len(dec["blocks"])))]
    local = block["local"]
    r, c = (int(x) for x in rng.integers(len(local), size=2))
    choices = [l for l in labels if l != local[r][c]]
    local[r][c] = choices[int(rng.integers(len(choices)))]


# (kind, lattice, n, blocks, mutated); the instance is rel for bool and rel-l
# otherwise.  Block counts run from 2 to n/4; failing verifies sit at every
# lattice so the whole-arrow counterexample path is timed on each.
REL_LADDER = [
    ("separate", "bool", 200, 4, False),
    ("separate", "b4", 96, 24, False),
    ("separate", "b4", 160, 8, False),
    ("separate", "chain:64", 128, 4, False),
    ("separate", "chain:64", 48, 12, False),
    ("verify", "bool", 96, 6, False),
    ("verify", "bool", 160, 2, True),
    ("verify", "b4", 200, 8, False),
    ("verify", "b4", 64, 16, True),
    ("verify", "chain:64", 96, 3, False),
    ("verify", "chain:64", 128, 6, True),
    ("functor", "b4", 128, 4, False),
    ("functor", "b4", 48, 12, False),
]
REL_TINY = [
    ("separate", "b4", 12, 3, False),
    ("verify", "chain:64", 10, 2, True),
    ("functor", "b4", 8, 2, False),
]


def _threshold_a(labels, grid) -> list[list[str]]:
    """Image of a b4 grid under the threshold x >= a (elements a and 1)."""
    return [["1" if labels[v] in ("a", "1") else "0" for v in row]
            for row in grid.tolist()]


def _rel_jobs(rng, outdir: Path, ladder, cycle: int) -> list[dict]:
    jobs = []
    for i, (kind, lattice, n, nblocks, mutated) in enumerate(ladder):
        labels = lattice_labels(lattice)
        carrier = [f"c{j}" for j in range(n)]
        cells = _planted_cells(rng, n, nblocks)
        grid = _planted_relation(rng, n, cells, len(labels))
        stem = f"rel{cycle}_{i}"
        arrow = _dump(outdir / f"{stem}_f.json", {
            "source": carrier, "target": carrier,
            "values": [[labels[v] for v in row] for row in grid.tolist()]})
        instance = ["--instance", "rel"] if lattice == "bool" else [
            "--instance", "rel-l", "--lattice", f"builtin:{lattice}"]
        expect = {"exit": 0}
        if kind == "separate":
            argv = ["separate", *instance, "--arrow", arrow]
            expect["cells"] = [[carrier[j] for j in c] for c in cells]
        else:
            dec = _relation_decomposition(carrier, grid, cells, labels)
            if mutated:
                _mutate_relation_local(rng, dec, labels)
                expect = {"exit": 1, "failing": "d"}
            path = _dump(outdir / f"{stem}_dec.json", dec)
            if kind == "verify":
                argv = ["verify", *instance, "--arrow", arrow,
                        "--decomposition", path]
            else:
                argv = ["functor", "--lattice", "builtin:b4",
                        "--hom", "builtin:upper:a", "--arrow", arrow,
                        "--decomposition", path]
                expect["image"] = _threshold_a(labels, grid)
        jobs.append({"kind": kind, "argv": argv, "expect": expect,
                     "meta": {"instance": instance[1], "lattice": lattice,
                              "n": n, "blocks": nblocks, "mutated": mutated}})
    return jobs


# ---------------------------------------------------------------------------
# mat-decompose


def _format_entry(v, complex_: bool) -> object:
    """A JSON/CSV entry for ``v``, a Python float or complex."""
    return f"{v.real!r}{v.imag:+}j" if complex_ else v


def _block_matrix(rng, n: int, cells, complex_: bool) -> np.ndarray:
    """Dense blocks on ``cells``, every block entry of magnitude >= 0.5."""
    mags = np.round(rng.uniform(0.5, 2.0, size=(n, n)), 3)
    signs = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    values = mags * signs
    if complex_:
        imag = np.round(rng.uniform(-2.0, 2.0, size=(n, n)), 3)
        values = values + 1j * imag
    mask = np.zeros((n, n), dtype=bool)
    for cell in cells:
        mask[np.ix_(cell, cell)] = True
    return np.where(mask, values, 0)


def _matrix_decomposition(values, cells, complex_: bool) -> dict:
    n = len(values)
    blocks = []
    for cell in cells:
        project = [[0] * n for _ in cell]
        for r, c in enumerate(cell):
            project[r][c] = 1
        inject = [list(col) for col in zip(*project)]
        local = [[_format_entry(values[t][s], complex_) for s in cell]
                 for t in cell]
        blocks.append({"space": len(cell), "project": project,
                       "inject": inject, "local": local})
    return {"carrier": n, "blocks": blocks}


# (kind, instance, n, blocks, mutated)
MAT_LADDER = [
    ("separate", "mat-r", 512, 8, False),
    ("separate", "mat-r", 256, 64, False),
    ("separate", "mat-c", 320, 12, False),
    ("separate", "mat-c", 128, 32, False),
    ("verify", "mat-r", 384, 6, False),
    ("verify", "mat-r", 256, 32, True),
    ("verify", "mat-c", 256, 4, False),
    ("verify", "mat-c", 192, 16, True),
    ("verify", "mat-c", 320, 8, False),
]
MAT_TINY = [
    ("separate", "mat-c", 12, 3, False),
    ("verify", "mat-r", 10, 2, True),
]


def _mat_jobs(rng, outdir: Path, ladder, cycle: int) -> list[dict]:
    jobs = []
    for i, (kind, instance, n, nblocks, mutated) in enumerate(ladder):
        complex_ = instance == "mat-c"
        cells = _planted_cells(rng, n, nblocks)
        values = _block_matrix(rng, n, cells, complex_).tolist()
        stem = f"mat{cycle}_{i}"
        arrow = outdir / f"{stem}_f.csv"
        arrow.write_text("".join(
            ",".join([str(_format_entry(v, complex_)) for v in row]) + "\n"
            for row in values))
        expect = {"exit": 0}
        if kind == "separate":
            argv = ["separate", "--instance", instance, "--arrow", str(arrow)]
            expect["cells"] = cells
        else:
            dec = _matrix_decomposition(values, cells, complex_)
            if mutated:
                b = int(rng.integers(len(cells)))
                r, c = (int(x) for x in rng.integers(len(cells[b]), size=2))
                old = values[cells[b][r]][cells[b][c]]
                dec["blocks"][b]["local"][r][c] = _format_entry(old + 10.0,
                                                                complex_)
                expect = {"exit": 1, "failing": "d"}
            path = _dump(outdir / f"{stem}_dec.json", dec)
            argv = ["verify", "--instance", instance, "--arrow", str(arrow),
                    "--decomposition", path]
        jobs.append({"kind": kind, "argv": argv, "expect": expect,
                     "meta": {"instance": instance, "lattice": None, "n": n,
                              "blocks": nblocks, "mutated": mutated}})
    return jobs


# ---------------------------------------------------------------------------
# equitable


def _family_edges(rng, family: str, size: int) -> tuple[int, list, list | None]:
    """(vertex count, edges, known coarsest cells or None) before relabelling."""
    if family == "path":
        edges = [(i, i + 1) for i in range(size - 1)]
        cells = [[i, size - 1 - i] if i != size - 1 - i else [i]
                 for i in range((size + 1) // 2)]
        return size, edges, cells
    if family == "cycle":
        return size, [(i, (i + 1) % size) for i in range(size)], [list(range(size))]
    if family == "circulant":
        jump = int(rng.integers(2, size // 2))
        edges = {tuple(sorted((i, (i + d) % size))) for i in range(size)
                 for d in (1, jump)}
        return size, sorted(edges), [list(range(size))]
    if family == "tree":
        n = 2 ** (size + 1) - 1
        edges = [(i, c) for i in range(n) for c in (2 * i + 1, 2 * i + 2) if c < n]
        cells = [list(range(2 ** d - 1, 2 ** (d + 1) - 1)) for d in range(size + 1)]
        return n, edges, cells
    if family == "grid":
        rows, cols = size, size + 2
        edges = [(r * cols + c, r * cols + c + 1)
                 for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c)
                  for r in range(rows - 1) for c in range(cols)]
        return rows * cols, edges, None
    if family == "random":
        order = rng.permutation(size)
        edges = {tuple(sorted((int(a), int(b))))
                 for a, b in zip(order[:-1], order[1:])}
        while len(edges) < 2 * size:
            a, b = (int(x) for x in rng.integers(size, size=2))
            if a != b:
                edges.add((min(a, b), max(a, b)))
        return size, sorted(edges), None
    raise ValueError(family)


# (family, size): vertex count for path/cycle/circulant/random, depth for
# tree, rows for grid (rows x rows+2); "huge-id" and "malformed" are the
# rejected inputs.  Path and grid need many refinement rounds, cycle,
# circulant and tree settle at once and are dominated by the n^2 output.
EQ_LADDER = [
    ("malformed", 0), ("grid", 7), ("tree", 6), ("random", 60), ("grid", 9),
    ("huge-id", 0), ("grid", 11), ("tree", 7), ("path", 70), ("circulant", 300),
    ("cycle", 400), ("random", 180), ("path", 120),
]
EQ_TINY = [("path", 7), ("tree", 2), ("random", 9), ("huge-id", 0),
           ("malformed", 0)]


def _eq_jobs(rng, outdir: Path, ladder, cycle: int) -> list[dict]:
    jobs = []
    for i, (family, size) in enumerate(ladder):
        path = outdir / f"eq{cycle}_{i}.txt"
        meta = {"instance": family, "lattice": None, "n": size, "blocks": None,
                "mutated": False}
        if family == "huge-id":
            # the top id is fixed so that peak_rss_mb does not move with the seed
            top = 3999
            low = int(rng.integers(1, 100))
            path.write_text(f"0 {low}\n{low} {low + 1}\n{top - 1} {top}\n")
            expect = {"exit": 3}
            meta["n"] = top + 1
        elif family == "malformed":
            bad = int(rng.integers(2, 6))
            lines = [f"{j} {j + 1}" for j in range(6)]
            lines[bad] = f"{bad} {bad + 1} {bad + 2}"
            path.write_text("\n".join(lines) + "\n")
            expect = {"exit": 2}
            meta["n"] = 7
        else:
            n, edges, cells = _family_edges(rng, family, size)
            relabel = rng.permutation(n)
            edges = [(int(relabel[a]), int(relabel[b])) for a, b in edges]
            order = rng.permutation(len(edges))
            path.write_text("".join(f"{edges[j][0]} {edges[j][1]}\n"
                                    for j in order))
            expect = {"exit": 0, "n": n, "edges": edges}
            if cells is not None:
                expect["cells"] = [sorted(int(relabel[v]) for v in c)
                                   for c in cells]
            meta["n"] = n
        jobs.append({"kind": "equitable",
                     "argv": ["equitable", "--graph", str(path)],
                     "expect": expect, "meta": meta})
    return jobs


# ---------------------------------------------------------------------------
# laws

# (instance, lattice, functor); "exhaustive" is the b4->bool exhaustive
# functor check, which has no subcommand.
LAWS_LADDER = [
    ("mat-r", None, None),
    ("mat-c", None, None),
    ("mat-nn", None, None),
    ("mat-r", None, None),
    ("exhaustive", "b4", None),
    ("exhaustive", "b4", None),
    ("rel", "bool", "builtin:identity"),
    ("rel-l", "b4", "builtin:upper:a"),
    ("rel-l", "chain:8", "builtin:upper:3/7"),
]
LAWS_TRIALS, LAWS_TINY_TRIALS = 100, 3
EXHAUSTIVE_CELLS, EXHAUSTIVE_TINY_CELLS = 3, 1


def _laws_jobs(rng, ladder, cycle: int, tiny: bool) -> list[dict]:
    jobs = []
    trials = LAWS_TINY_TRIALS if tiny else LAWS_TRIALS
    for instance, lattice, functor in ladder:
        seed = int(rng.integers(1_000_000))
        meta = {"instance": instance, "lattice": lattice, "n": None,
                "blocks": None, "mutated": False}
        if instance == "exhaustive":
            cells = EXHAUSTIVE_TINY_CELLS if tiny else EXHAUSTIVE_CELLS
            meta["n"] = cells
            jobs.append({"kind": "exhaustive", "argv": None,
                         "call": {"element": "a", "max_cells": cells},
                         "expect": {"exit": 0}, "meta": meta})
            continue
        argv = ["laws", "--instance", instance, "--trials", str(trials),
                "--seed", str(seed)]
        if lattice is not None:
            argv += ["--lattice", f"builtin:{lattice}"]
        if functor is not None:
            argv += ["--functor", functor]
        meta["n"] = trials
        jobs.append({"kind": "laws", "argv": argv, "expect": {"exit": 0},
                     "meta": meta})
    return jobs


# ---------------------------------------------------------------------------
# entry point

# Lattices and homs each workload resolves; set-up time covers building them.
SETUP = {
    "rel-decompose": {"lattices": ["bool", "b4", "chain:64"],
                      "homs": [["b4", "upper:a"]]},
    "mat-decompose": {"lattices": [], "homs": []},
    "equitable": {"lattices": [], "homs": []},
    "laws": {"lattices": ["bool", "b4", "chain:8"],
             "homs": [["bool", "identity"], ["b4", "upper:a"],
                      ["chain:8", "upper:3/7"]]},
}


def generate(workload: str, seed: int, outdir: Path, tiny: bool = False) -> dict:
    """Write the inputs of one run and return its manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cycles = []
    for cycle in range(CYCLES):
        if workload == "rel-decompose":
            jobs = _rel_jobs(rng, outdir, REL_TINY if tiny else REL_LADDER, cycle)
        elif workload == "mat-decompose":
            jobs = _mat_jobs(rng, outdir, MAT_TINY if tiny else MAT_LADDER, cycle)
        elif workload == "equitable":
            jobs = _eq_jobs(rng, outdir, EQ_TINY if tiny else EQ_LADDER, cycle)
        else:
            jobs = _laws_jobs(rng, LAWS_LADDER, cycle, tiny)
        cycles.append(jobs)
    return {"workload": workload, "seed": seed, "setup": SETUP[workload],
            "cycles": cycles}
