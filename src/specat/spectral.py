"""Spectral decompositions of endo-arrows, and constructors for them.

A decomposition of ``f: c -> c`` splits the carrier into blocks, each with a
projection out of the carrier, an injection back in (the block's
eigeninjection), and a local arrow describing the action of ``f`` on the
block.  The verifier checks the defining equations; the constructors cover
relation component separation, block detection in matrices under
permutation, and equitable graph partitions with their reduced random-walk
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import (
    DEFAULT_TOL_ABS,
    ArrowTypeError,
    Arrow,
    DecompositionError,
    LawReport,
    LawTally,
    PreconditionError,
    SemiadditiveCategory,
    SpecatError,
    Tolerance,
    UnsupportedDomainError,
    _Selection,
)
from .matrices import MAT_R, REAL, MatrixCategory, ScalarMatrix
from .relations import LRelation, RelationCategory


@dataclass(frozen=True)
class Block:
    """One invariant block: its space and the three arrows tying it to the carrier."""

    space: Any
    project: Arrow   # carrier -> space
    inject: Arrow    # space -> carrier (the block's eigeninjection)
    local: Arrow     # space -> space (the action on the block)


@dataclass(frozen=True)
class SpectralDecomposition:
    """A family of blocks decomposing an endo-arrow on ``carrier``.

    Two blocks is the primitive form; longer families fold down to it via
    :func:`fold_to_binary`.  When known, the decomposed arrow itself is kept
    on the ``arrow`` field so combinators can produce the arrow of their
    result.
    """

    carrier: Any
    blocks: tuple[Block, ...]
    arrow: Arrow | None = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise DecompositionError("a decomposition needs at least one block")

    @property
    def spaces(self) -> tuple:
        return tuple(b.space for b in self.blocks)


@dataclass(frozen=True)
class Partition:
    """Disjoint cells covering a carrier, in canonical order.

    Cells are ordered by their smallest member's position in the carrier and
    each cell lists its members in carrier order.
    """

    carrier: tuple
    cells: tuple[tuple, ...]

    def __post_init__(self):
        carrier = tuple(self.carrier)
        position = {label: i for i, label in enumerate(carrier)}
        if len(position) != len(carrier):
            raise PreconditionError("carrier labels must be pairwise distinct")
        seen: set = set()
        cells = []
        for cell in self.cells:
            # unknown labels sort first, so that the check below names them
            members = tuple(sorted(cell, key=lambda label: position.get(label, -1)))
            if not members:
                raise PreconditionError("partition cells must be non-empty")
            for label in members:
                if label not in position:
                    raise PreconditionError(f"unknown carrier label {label!r}")
                if label in seen:
                    raise PreconditionError(f"label {label!r} appears in two cells")
                seen.add(label)
            cells.append(members)
        if len(seen) != len(carrier):
            missing = [l for l in carrier if l not in seen]
            raise PreconditionError(f"partition does not cover {missing!r}")
        cells.sort(key=lambda members: position[members[0]])
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "cells", tuple(cells))

    def positions(self) -> list[list[int]]:
        position = {label: i for i, label in enumerate(self.carrier)}
        return [[position[label] for label in cell] for cell in self.cells]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(cell) for cell in self.cells)


# ---------------------------------------------------------------------------
# verifier and combinators


def verify_decomposition(cat: SemiadditiveCategory, f: Arrow,
                         dec: SpectralDecomposition,
                         tol: Tolerance | None = None) -> LawReport:
    """Check the decomposition equations, plus the intertwining they imply.

    Conditions: (a) each projection retracts its injection, (b) mixed
    projection/injection composites vanish, (c) the injections and
    projections partition the identity on the carrier, (d) the blocks
    reassemble ``f``.  The intertwining equations ``project.f =
    local.project`` and ``f.inject = inject.local`` must follow whenever
    (a)-(d) hold and are reported alongside them.

    All of them are equations between stacked arrows.  With P the
    projections stacked, I the injections side by side and L the block sum
    of the locals: (a) and (b) read P.I = id, (c) I.P = id, (d) I.(L.P) = f,
    and the intertwining P.f = L.P and f.I = I.L.  Those five products are
    one compose each; L.P and I.L are formed block by block, so B blocks
    take 5 + 2B composes.  P and I are built once per call.

    When the blocks' projections and injections carry their selection
    forms, as a split's blocks and blocks read from 0/1 grids do (see
    ``core._GridCategory``), P and I are held as positions, O(n) each, and
    no n x n grid of them is built: P.I and I.P compose index maps and are
    compared with the identity position by position, and P.f, L.P,
    I.(L.P) and f.I are gathers that read the positions instead of scanning
    a grid.  Otherwise P and I are grids, and P is dropped after P.f, its
    last use.  Each product is compared with its right-hand side once, by
    ``LawTally.check_blocks``, and is dropped before the next product is
    formed.  I.L is stacked before f.I is formed, so its pieces are gone
    by then: with I held as positions, the last check holds two n x n
    grids, f.I and I.L.  The report holds one entry per block, 3B + 2 of
    them: retract[i], row band i of P.I, which is (a) and (b) for block i;
    c; d; then intertwine_project[i], row band i of P.f, and
    intertwine_inject[i], column band i of f.I.
    """
    if f.source != dec.carrier or f.target != dec.carrier:
        raise ArrowTypeError(
            f"arrow must be an endo-arrow on {dec.carrier!r}, "
            f"got {f.source!r} -> {f.target!r}")
    _check_block_types(dec)

    tally = LawTally(cat, tol)
    blocks = dec.blocks
    spaces = dec.spaces
    whole = [dec.carrier]
    numbers = range(1, len(blocks) + 1)

    project = cat.stack([b.project for b in blocks])
    inject = cat.costack([b.inject for b in blocks])
    retract = cat.compose(project, inject)
    tally.check_blocks([f"retract[{i}]" for i in numbers], retract,
                       cat.identity(retract.target), spaces, [retract.source])
    del retract
    tally.check_blocks(["c"], cat.compose(inject, project),
                       cat.identity(dec.carrier), whole, whole)
    local_project = cat.stack([cat.compose(b.local, b.project) for b in blocks])
    tally.check_blocks(["d"], cat.compose(inject, local_project), f, whole, whole)
    tally.check_blocks([f"intertwine_project[{i}]" for i in numbers],
                       cat.compose(project, f), local_project, spaces, whole)
    del project, local_project
    inject_local = cat.costack([cat.compose(b.inject, b.local) for b in blocks])
    tally.check_blocks([f"intertwine_inject[{i}]" for i in numbers],
                       cat.compose(f, inject), inject_local, whole, spaces)
    return tally.report()


def _check_block_types(dec: SpectralDecomposition) -> None:
    for i, blk in enumerate(dec.blocks, start=1):
        if blk.project.source != dec.carrier or blk.project.target != blk.space:
            raise ArrowTypeError(f"block {i}: project must map carrier -> space")
        if blk.inject.source != blk.space or blk.inject.target != dec.carrier:
            raise ArrowTypeError(f"block {i}: inject must map space -> carrier")
        if blk.local.source != blk.space or blk.local.target != blk.space:
            raise ArrowTypeError(f"block {i}: local must be an endo-arrow on its space")


def _combined(cat: SemiadditiveCategory, first: SpectralDecomposition,
              second: SpectralDecomposition, op) -> SpectralDecomposition:
    """``first``'s blocks with local arrows ``op(local1, local2)``, and the
    arrow ``op(first.arrow, second.arrow)`` when both are known."""
    if first.carrier != second.carrier:
        raise DecompositionError(
            f"carriers differ: {first.carrier!r} vs {second.carrier!r}")
    if len(first.blocks) != len(second.blocks):
        raise DecompositionError("decompositions have different block counts")
    for i, (b1, b2) in enumerate(zip(first.blocks, second.blocks), start=1):
        if b1.space != b2.space:
            raise DecompositionError(f"block {i}: spaces differ")
        if not cat.equal(b1.inject, b2.inject):
            raise DecompositionError(f"block {i}: eigeninjections differ")
        if not cat.equal(b1.project, b2.project):
            raise DecompositionError(f"block {i}: projections differ")
    blocks = tuple(Block(b1.space, b1.project, b1.inject, op(b1.local, b2.local))
                   for b1, b2 in zip(first.blocks, second.blocks))
    arrow = None
    if first.arrow is not None and second.arrow is not None:
        arrow = op(first.arrow, second.arrow)
    return SpectralDecomposition(first.carrier, blocks, arrow=arrow)


def compose_decompositions(cat: SemiadditiveCategory,
                           first: SpectralDecomposition,
                           second: SpectralDecomposition) -> SpectralDecomposition:
    """Decomposition of ``second.arrow . first.arrow``.

    Both inputs must share carrier, spaces, projections, and
    eigeninjections; the result keeps them and composes the local arrows.
    """
    return _combined(cat, first, second, lambda f1, f2: cat.compose(f2, f1))


def sum_decompositions(cat: SemiadditiveCategory,
                       first: SpectralDecomposition,
                       second: SpectralDecomposition) -> SpectralDecomposition:
    """Decomposition of ``first.arrow + second.arrow`` (same sharing rules)."""
    return _combined(cat, first, second, cat.add)


def fold_to_binary(cat: SemiadditiveCategory,
                   dec: SpectralDecomposition) -> SpectralDecomposition:
    """View an n-block decomposition as a two-block one.

    Blocks after the first are grouped on their stacked spaces (the
    left-folded biproduct of :func:`fold_biproduct`), with their projections
    stacked, their injections side by side and the block sum of their
    locals; a single-block decomposition is padded with the zero object.
    """
    if len(dec.blocks) == 2:
        return dec
    _check_block_types(dec)
    head = dec.blocks[0]
    rest = dec.blocks[1:]
    if not rest:
        z = cat.zero_object()
        pad = Block(z, cat.zero(dec.carrier, z), cat.zero(z, dec.carrier),
                    cat.identity(z))
        return SpectralDecomposition(dec.carrier, (head, pad), arrow=dec.arrow)
    project = cat.stack([b.project for b in rest])
    tail = Block(project.target, project, cat.costack([b.inject for b in rest]),
                 cat.block_sum([b.local for b in rest]))
    return SpectralDecomposition(dec.carrier, (head, tail), arrow=dec.arrow)


# ---------------------------------------------------------------------------
# sparse undirected graphs


@dataclass(frozen=True, eq=False)
class SparseGraph:
    """An undirected graph on vertices ``0..n-1`` in compressed sparse rows.

    ``indices[indptr[v]:indptr[v+1]]`` lists the neighbours of ``v`` in
    ascending order, each once; the rows are symmetric, and a self-loop
    appears once in its own row, as a 1 on the diagonal of the adjacency
    matrix.  Every graph routine in this module runs on this form.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, src: np.ndarray, dst: np.ndarray) -> "SparseGraph":
        """The graph of an edge list whose ids must cover ``0..max id``.

        Nothing proportional to the largest id is allocated: a missing id
        is named before the vertex count is fixed.  Edges are symmetrized
        and de-duplicated.
        """
        ids = np.unique(np.concatenate([src, dst]))
        gaps = np.flatnonzero(ids != np.arange(ids.size))
        if gaps.size:
            raise PreconditionError(
                f"vertex {int(gaps[0])} has no edges; vertex ids must cover "
                f"0..{int(ids[-1])}")
        n = int(ids.size)
        keys = np.unique(np.concatenate([src * n + dst, dst * n + src]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return cls(n, indptr, keys % n)

    @property
    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    def rows(self) -> np.ndarray:
        """The source vertex of every entry of ``indices``."""
        return np.repeat(np.arange(self.n), self.degrees)

    def neighbours(self, vertices: np.ndarray) -> np.ndarray:
        """The concatenated neighbour lists of ``vertices``."""
        return self.indices[_ranges(self.indptr[vertices],
                                    self.indptr[vertices + 1])]

    def dense(self) -> np.ndarray:
        """The 0/1 int64 adjacency matrix."""
        adj = np.zeros((self.n, self.n), dtype=np.int64)
        adj[self.rows(), self.indices] = 1
        return adj


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(lo[i], hi[i])`` over ``i``."""
    lengths = hi - lo
    ends = np.cumsum(lengths)
    return (np.repeat(lo - ends + lengths, lengths)
            + np.arange(ends[-1] if ends.size else 0))


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values begins."""
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _run_lengths(heads: np.ndarray, total: int) -> np.ndarray:
    """Lengths of the runs that begin at ``heads`` and end at ``total``."""
    lengths = np.empty_like(heads)
    np.subtract(heads[1:], heads[:-1], out=lengths[:-1])
    lengths[-1:] = total - heads[-1:]
    return lengths


def _support_graph(support: np.ndarray) -> SparseGraph:
    """The graph of the nonzero entries of a square matrix, symmetrized."""
    sym = (support != 0) | (support.T != 0)
    indptr = np.zeros(sym.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(sym, axis=1), out=indptr[1:])
    return SparseGraph(sym.shape[0], indptr, np.nonzero(sym)[1])


def _component_cells(graph: SparseGraph) -> list[list[int]]:
    """Connected components, by one frontier-at-a-time BFS per component.

    Cells come out ordered by smallest member, members ascending.
    """
    label = np.full(graph.n, -1, dtype=np.int64)
    count = 0
    for seed in range(graph.n):
        if label[seed] >= 0:
            continue
        frontier = np.array([seed])
        label[seed] = count
        while frontier.size:
            reached = graph.neighbours(frontier)
            reached = np.sort(reached[label[reached] < 0])
            frontier = reached[_run_starts(reached)]
            label[frontier] = count
        count += 1
    order = np.argsort(label, kind="stable")
    bounds = np.cumsum(np.bincount(label, minlength=count))[:-1]
    return [cell.tolist() for cell in np.split(order, bounds)]


def _split_support(cat: SemiadditiveCategory, f: Arrow, support: np.ndarray,
                   labels: tuple) -> tuple[Partition, SpectralDecomposition]:
    """Blocks of an endo-arrow along the components of its symmetrized
    ``support`` mask, whose positions ``labels`` names: selections are
    built from each cell's positions, locals are principal sub-arrows of
    ``f``.  An empty carrier gives one block on the zero object."""
    carrier = f.source
    if not labels:
        zero = cat.zero(carrier, carrier)
        return (Partition((), ()),
                SpectralDecomposition(carrier, (Block(carrier, zero, zero, zero),),
                                      arrow=f))
    cells = _component_cells(_support_graph(support))
    blocks = []
    for cell in cells:
        space, project, inject = cat._selections(carrier, cell)
        blocks.append(Block(space, project, inject, cat.restrict(f, cell, cell)))
    partition = Partition(labels, tuple(tuple(labels[i] for i in cell)
                                        for cell in cells))
    return partition, SpectralDecomposition(carrier, tuple(blocks), arrow=f)


def separate_components(f: LRelation) -> tuple[Partition, SpectralDecomposition]:
    """Split an endo-relation along the weakly connected components of its support.

    Each component becomes a block whose projection and injection are the
    top-valued inclusion of the component, with the local arrow the
    restriction of ``f``; the result reconstructs ``f`` exactly.
    """
    if f.source != f.target:
        raise ArrowTypeError("component separation needs an endo-relation")
    return _split_support(RelationCategory(f.algebra), f,
                          f.values != f.algebra.bottom, f.source)


def detect_blocks(f: ScalarMatrix, zero_tol: float | None = None
                  ) -> tuple[Partition, SpectralDecomposition]:
    """Find block-diagonal structure of a square matrix, up to permutation.

    An entry counts as zero iff its magnitude is at most ``zero_tol``
    (default the package-wide absolute tolerance); blocks are the connected
    components of the symmetrized nonzero-support graph.  Projections are
    0/1 coordinate selections and the local arrows principal submatrices.
    """
    if f.rows != f.cols:
        raise ArrowTypeError("block detection needs a square matrix")
    if zero_tol is None:
        zero_tol = DEFAULT_TOL_ABS
    return _split_support(MatrixCategory(f.domain), f, np.abs(f.values) > zero_tol,
                          tuple(range(f.rows)))


# ---------------------------------------------------------------------------
# equitable partitions of undirected graphs


def _as_graph(adjacency) -> SparseGraph:
    """The sparse form of a graph given as one, or as a dense 0/1 adjacency."""
    if isinstance(adjacency, SparseGraph):
        return adjacency
    values = adjacency.values if isinstance(adjacency, ScalarMatrix) else adjacency
    adj = np.asarray(values)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise PreconditionError("adjacency must be a square matrix")
    if adj.shape[0] == 0:
        raise PreconditionError("adjacency must have at least one vertex")
    if not np.array_equal(adj, adj.T):
        raise PreconditionError("adjacency must be symmetric (undirected graph)")
    if not np.all((adj == 0) | (adj == 1)):
        raise PreconditionError("adjacency entries must be 0 or 1")
    return _support_graph(adj.astype(np.int64))


def _require_connected(graph: SparseGraph) -> None:
    loops = np.count_nonzero(graph.indices == graph.rows())
    if ((graph.indices.size - loops) // 2 < graph.n - 1
            or len(_component_cells(graph)) != 1):
        raise PreconditionError("graph not connected")


def coarsest_equitable_partition(adjacency) -> Partition:
    """The coarsest partition in which neighbour counts into every cell are
    constant on each cell.

    Worklist refinement from the single-cell partition (Cardon & Crochemore
    1982): each cell is a contiguous range of a vertex ordering.  Popping a
    splitter cell counts, for every vertex it touches, the neighbours it has
    in the splitter, and splits each touched cell by that count.  The
    largest piece keeps the cell's id and every other piece is queued, so a
    vertex lies in a splitter O(log n) times and the run takes
    O((n + m) log n).  The coarsest equitable partition is unique, and
    :class:`Partition` puts its cells in canonical order.
    """
    graph = _as_graph(adjacency)
    _require_connected(graph)
    n = graph.n
    order = np.arange(n)
    where = np.arange(n)
    cell_of = np.zeros(n, dtype=np.int64)
    start = np.zeros(n, dtype=np.int64)
    stop = np.zeros(n, dtype=np.int64)
    stop[0] = n
    marked = np.zeros(n, dtype=bool)
    cells = 1
    queue = [0]
    while queue:
        splitter = queue.pop()
        reached = graph.neighbours(order[start[splitter]:stop[splitter]])
        if not reached.size:
            continue
        reached.sort()
        first = np.flatnonzero(_run_starts(reached))
        touched, counts = reached[first], _run_lengths(first, reached.size)
        # touched vertices grouped by cell, by count within a cell
        key = cell_of[touched] * (n + 1) + counts
        rank = np.argsort(key)
        touched, key = touched[rank], key[rank]
        cell = key // (n + 1)
        new_cell = _run_starts(cell)
        new_count = _run_starts(key)
        heads = np.flatnonzero(new_cell)
        hit = _run_lengths(heads, touched.size)
        whole = stop[cell[heads]] - start[cell[heads]] == hit  # no rest piece
        split = np.add.reduceat(new_count, heads, dtype=np.int64) > whole
        if not split.any():
            continue
        keep = np.repeat(split, hit)
        touched, cell, new_count = touched[keep], cell[keep], new_count[keep]
        hit, whole = hit[split], whole[split]
        heads = np.cumsum(hit) - hit
        split_cells = cell[heads]
        # move the touched members of each split cell, in count order, to the
        # end of its range; the members they displace take their old slots
        tail = np.repeat(stop[split_cells] - hit, hit)
        dest = tail + np.arange(touched.size) - np.repeat(heads, hit)
        old = where[touched]
        occupants = order[dest]
        marked[touched] = True
        displaced = occupants[~marked[occupants]]
        marked[touched] = False
        free = old[old < tail]
        order[free] = displaced
        where[displaced] = free
        order[dest] = touched
        where[touched] = dest
        # pieces: the untouched rest of each split cell, then one per count
        groups = np.flatnonzero(new_count)
        group_size = _run_lengths(groups, touched.size)
        rest = split_cells[~whole]
        piece_cell = np.concatenate([rest, cell[groups]])
        piece_start = np.concatenate([start[rest], dest[groups]])
        piece_stop = np.concatenate([stop[rest] - hit[~whole],
                                     dest[groups] + group_size])
        size = piece_stop - piece_start
        rank = np.argsort(piece_cell * (n + 1) + n - size)
        largest = _run_starts(piece_cell[rank])
        kept, moved = rank[largest], rank[~largest]
        start[piece_cell[kept]] = piece_start[kept]
        stop[piece_cell[kept]] = piece_stop[kept]
        fresh = np.arange(cells, cells + moved.size)
        start[fresh] = piece_start[moved]
        stop[fresh] = piece_stop[moved]
        cell_of[order[_ranges(piece_start[moved], piece_stop[moved])]] = \
            np.repeat(fresh, size[moved])
        cells += moved.size
        queue.extend(fresh.tolist())
    return Partition(tuple(range(n)), tuple(
        tuple(order[start[c]:stop[c]].tolist()) for c in range(cells)))


@dataclass(frozen=True)
class EquitableQuotient:
    """Cell-level view of a random walk on an equitably partitioned graph.

    ``degrees[j, k]`` counts the neighbours any vertex of cell ``j`` has in
    cell ``k``.  ``reduced`` is the row-stochastic cell transition matrix,
    ``average`` maps vertex space to cell space by averaging over cells, and
    ``indicator`` embeds cell space back via 0/1 cell indicators.
    """

    partition: Partition
    degrees: np.ndarray
    reduced: ScalarMatrix
    average: ScalarMatrix
    indicator: ScalarMatrix

    @property
    def cell_sizes(self) -> tuple[int, ...]:
        return self.partition.sizes

    def quotient_block(self) -> Block:
        return Block(len(self.partition.cells), self.average, self.indicator,
                     self.reduced)


def walk_matrix(adjacency) -> ScalarMatrix:
    """Transition matrix of the simple random walk: row ``j`` spreads ``1/d_j``."""
    graph = _as_graph(adjacency)
    degrees = graph.degrees
    if np.any(degrees == 0):
        v = int(np.nonzero(degrees == 0)[0][0])
        raise PreconditionError(
            f"vertex {v} has no neighbours; the walk matrix needs positive degree")
    rows = graph.rows()
    walk = np.zeros((graph.n, graph.n))
    walk[rows, graph.indices] = 1.0 / degrees[rows]
    REAL.validate(walk)
    return ScalarMatrix._derived(walk, REAL)


def reduced_transition_matrix(adjacency, partition: Partition) -> EquitableQuotient:
    """Quotient walk data for an equitable partition; validates equitability.

    Raises a precondition error naming a violating vertex if some vertex's
    neighbour count into some cell deviates from its cell's constant: the
    first such vertex of the first such pair of cells.
    """
    graph = _as_graph(adjacency)
    n = graph.n
    if partition.carrier != tuple(range(n)):
        raise PreconditionError(
            "partition carrier must be the vertex range of the adjacency")
    cells = partition.positions()
    num = len(cells)
    sizes = np.array([len(cell) for cell in cells], dtype=np.int64)
    members = np.concatenate(cells)
    cell_of = np.empty(n, dtype=np.int64)
    cell_of[members] = np.repeat(np.arange(num), sizes)
    # neighbour counts of each vertex into each cell it has a neighbour in;
    # a cell's first member sets the count its other members must match
    pairs, counts = np.unique(graph.rows() * num + cell_of[graph.indices],
                              return_counts=True)
    vertex, other = np.divmod(pairs, num)
    cell = cell_of[vertex]
    lead = vertex == members[np.cumsum(sizes) - sizes][cell]
    degrees = np.zeros((num, num), dtype=np.int64)
    degrees[cell[lead], other[lead]] = counts[lead]
    bad = counts != degrees[cell, other]
    present = np.bincount(cell * num + other, minlength=num * num)
    # a pair of cells is wrong where some member's count differs from the
    # lead's, or the lead has neighbours there and some member has none
    wrong = (degrees > 0) & (present.reshape(num, num) < sizes[:, None])
    wrong[cell[bad], other[bad]] = True
    if wrong.any():
        j, k = divmod(int(np.argmax(wrong)), num)
        found = (cell == j) & (other == k)
        got = np.zeros(sizes[j], dtype=np.int64)
        got[np.searchsorted(cells[j], vertex[found])] = counts[found]
        i = int(np.argmax(got != got[0]))
        raise PreconditionError(
            f"partition is not equitable: vertex {cells[j][i]} has "
            f"{int(got[i])} neighbours in cell {k}, expected {int(got[0])}")
    row_degrees = degrees.sum(axis=1)
    if np.any(row_degrees == 0):
        j = int(np.nonzero(row_degrees == 0)[0][0])
        raise PreconditionError(
            f"cell {j} has degree zero; the walk matrix needs positive degree")
    balance = sizes[:, None] * degrees
    if not np.array_equal(balance, balance.T):
        raise SpecatError("edge-count conservation violated between cells")
    reduced = ScalarMatrix(degrees / row_degrees[:, None])
    # vertex v's indicator row has its 1 at cell_of[v]; when every cell is
    # one vertex, averaging selects the members
    indicator = MAT_R._arrow(_Selection(MAT_R, cell_of, 0, (n, num)), num, n)
    if num == n:
        average = MAT_R._arrow(_Selection(MAT_R, members, 0, (n, n)), n, n)
    else:
        average_vals = np.zeros((num, n))
        average_vals[cell_of, np.arange(n)] = 1.0 / sizes[cell_of]
        average = ScalarMatrix(average_vals)
    degrees.flags.writeable = False
    return EquitableQuotient(partition, degrees, reduced, average, indicator)


def _require_endo(name: str, f: ScalarMatrix, n: int) -> None:
    if f.rows != n or f.cols != n:
        raise ArrowTypeError(
            f"{name} must be an endo-matrix on {n} vertices, "
            f"got {f.rows}x{f.cols}")


def verify_quotient(quotient: EquitableQuotient, walk: ScalarMatrix,
                    residual: ScalarMatrix, tol: Tolerance | None = None) -> LawReport:
    """The laws of an equitable quotient of ``walk``: stochastic reduced rows,
    edge-count conservation, averaging intertwines ``walk`` with the reduced
    walk, retracts the indicators and annihilates ``residual`` (see
    :func:`residual_part`).  Each is one check of two matrices, judged as
    every matrix law is, cell by cell by ``Tolerance.close``."""
    n = len(quotient.partition.carrier)
    _require_endo("walk", walk, n)
    _require_endo("residual", residual, n)
    tally = LawTally(MAT_R, tol)
    average, reduced = quotient.average, quotient.reduced
    cells = average.rows
    tally.check("stochastic_rows", ScalarMatrix(reduced.values.sum(axis=1)[:, None]),
                ScalarMatrix(np.ones((cells, 1))))
    balance = ScalarMatrix(np.array(quotient.cell_sizes)[:, None] * quotient.degrees)
    tally.check("conservation", balance, balance.transpose())
    tally.check("intertwine_average", average @ walk, reduced @ average)
    tally.check("average_retracts_indicator", average @ quotient.indicator,
                MAT_R.identity(cells))
    tally.check("residual_annihilated", average @ residual, MAT_R.zero(n, cells))
    return tally.report()


def residual_part(f: ScalarMatrix, quotient: EquitableQuotient) -> ScalarMatrix:
    """What remains of ``f`` after removing the cell-level walk component.

    Returns ``f - indicator . reduced . average``; adding the removed
    composite back recovers ``f``, and the averaging map annihilates the
    result.  Needs a scalar domain with negation.

    The composite is formed as arrows, so the indicator's form, and a
    discrete partition's averaging form, gather instead of multiplying;
    the arrays are subtracted, so a complex ``f`` meets the real composite.
    """
    if not f.domain.has_negation:
        raise UnsupportedDomainError(
            "residual needs subtraction; the non-negative domain has none")
    _require_endo("arrow", f, len(quotient.partition.carrier))
    removed = quotient.indicator @ quotient.reduced @ quotient.average
    values = np.asarray(f.values - removed.values, f.domain.dtype)
    f.domain.validate(values)
    return ScalarMatrix._derived(values, f.domain)
