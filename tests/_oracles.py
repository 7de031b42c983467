"""Independent brute-force oracles for cross-checking library results.

Everything here deliberately avoids the library's vectorized code paths:
plain Python loops, set-based graph searches, and exhaustive enumeration.
"""

from __future__ import annotations

import functools
import itertools
import json
import random

import numpy as np

from specat import (
    ArrowTypeError,
    Arrow,
    BiproductWitness,
    Block,
    LatticeError,
    LawReport,
    LRelation,
    ParseError,
    Partition,
    PreconditionError,
    RelationCategory,
    ScalarMatrix,
    SpectralDecomposition,
    Tolerance,
)
from specat.core import (
    DEFAULT_TOL_ABS,
    LawTally,
    _biproduct_cases,
    _SelectionPayload,
    copair,
    fold_biproduct,
    oplus,
    pair,
    sum_via_biproduct,
)
from specat.formats import _read_text, decomposition_from_dict
from specat.matrices import COMPLEX, _check_domains
from specat.relations import _check_algebras, _read_labels, as_carrier, tagged_union
from specat.spectral import _component_cells, _support_graph


def compose_relations_slow(g: LRelation, f: LRelation) -> LRelation:
    """Triple-loop relation composition at the label level."""
    alg = g.algebra
    rows = []
    for c in range(len(g.target)):
        row = []
        for a in range(len(f.source)):
            acc = alg.bottom
            for b in range(len(f.target)):
                acc = alg.join_of(acc, alg.meet_of(int(g.values[c, b]),
                                                   int(f.values[b, a])))
            row.append(acc)
        rows.append(row)
    return LRelation(alg, f.source, g.target, rows)


def lattice_law_violation_slow(elements, meet, join) -> str | None:
    """The first lattice-law violation of index tables ``meet`` and ``join``
    over ``elements``, as HeytingTable words it, or None.

    Laws in the library's order: for meet and then join, commutativity,
    idempotency and associativity, then the two absorptions.  Associativity
    is checked on the whole (x, y, z) cube at once.
    """
    k = len(elements)
    idx = np.arange(k)

    def violation(what, *cells):
        return f"{what} fails at ({', '.join(repr(elements[c]) for c in cells)})"

    for which, table in (("meet", np.asarray(meet)), ("join", np.asarray(join))):
        if not np.array_equal(table, table.T):
            return violation(f"{which} commutativity",
                             *np.argwhere(table != table.T)[0])
        if not np.array_equal(np.diagonal(table), idx):
            return violation(f"{which} idempotency",
                             np.nonzero(np.diagonal(table) != idx)[0][0])
        left = table[table[:, :, None], idx[None, None, :]]   # (x?y)?z
        right = table[idx[:, None, None], table[None, :, :]]  # x?(y?z)
        if not np.array_equal(left, right):
            return violation(f"{which} associativity",
                             *np.argwhere(left != right)[0])
    meet, join = np.asarray(meet), np.asarray(join)
    for what, absorbed in (("absorption x v (x ^ y) = x", join[idx[:, None], meet]),
                           ("absorption x ^ (x v y) = x", meet[idx[:, None], join])):
        if not np.array_equal(absorbed, np.broadcast_to(idx[:, None], (k, k))):
            return violation(what, *np.argwhere(absorbed != idx[:, None])[0])
    return None


def join_relations_slow(f: LRelation, g: LRelation) -> LRelation:
    alg = f.algebra
    rows = [[alg.join_of(int(f.values[t, s]), int(g.values[t, s]))
             for s in range(len(f.source))]
            for t in range(len(f.target))]
    return LRelation(alg, f.source, f.target, rows)


def check_lattice_hom_slow(src, tgt, h) -> None:
    """``LatticeError`` unless the map ``h`` (a sequence of target indices)
    preserves bottom, top, then meet and join pair by pair, in that order."""
    if h[src.bottom] != tgt.bottom:
        raise LatticeError(
            f"map does not preserve bottom: "
            f"{src.label(src.bottom)!r} -> {tgt.label(h[src.bottom])!r}")
    if h[src.top] != tgt.top:
        raise LatticeError(
            f"map does not preserve top: "
            f"{src.label(src.top)!r} -> {tgt.label(h[src.top])!r}")
    k = len(src.elements)
    for x in range(k):
        for y in range(k):
            if h[src.meet_of(x, y)] != tgt.meet_of(h[x], h[y]):
                raise LatticeError(
                    f"map does not preserve meet at "
                    f"({src.label(x)!r}, {src.label(y)!r})")
            if h[src.join_of(x, y)] != tgt.join_of(h[x], h[y]):
                raise LatticeError(
                    f"map does not preserve join at "
                    f"({src.label(x)!r}, {src.label(y)!r})")


def matmul_slow(a: ScalarMatrix, b: ScalarMatrix) -> list[list]:
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0.0
            for k in range(a.cols):
                acc += a.values[i, k] * b.values[k, j]
            row.append(acc)
        out.append(row)
    return out


def bfs_components(n: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    """Connected components from an undirected edge set, via set-based BFS."""
    neighbours: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    remaining = set(range(n))
    cells = []
    while remaining:
        start = min(remaining)
        frontier = {start}
        component = set()
        while frontier:
            component |= frontier
            frontier = set().union(*(neighbours[v] for v in frontier)) - component
        cells.append(sorted(component))
        remaining -= component
    cells.sort(key=lambda cell: cell[0])
    return cells


def relation_support_edges(f: LRelation) -> tuple[int, set[tuple[int, int]]]:
    """Symmetrized support of an endo-relation as an index edge set."""
    n = len(f.source)
    edges = set()
    for t in range(n):
        for s in range(n):
            if int(f.values[t, s]) != f.algebra.bottom:
                edges.add((min(s, t), max(s, t)))
    return n, edges


@functools.lru_cache(maxsize=None)
def set_partitions(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of range(n), ordered by cell count ascending.

    Generated as restricted growth strings, so cells are ordered by first
    occurrence (equivalently by smallest member) with members ascending.
    """
    results: list[tuple[tuple[int, ...], ...]] = []

    def extend(v: int, cells: list[list[int]]) -> None:
        if v == n:
            results.append(tuple(tuple(cell) for cell in cells))
            return
        for cell in cells:
            cell.append(v)
            extend(v + 1, cells)
            cell.pop()
        cells.append([v])
        extend(v + 1, cells)
        cells.pop()

    extend(0, [])
    results.sort(key=len)
    return tuple(results)


def adjacency_bitrows(adj) -> list[int]:
    n = len(adj)
    rows = []
    for v in range(n):
        mask = 0
        for u in range(n):
            if adj[v][u]:
                mask |= 1 << u
        rows.append(mask)
    return rows


@functools.lru_cache(maxsize=None)
def partitions_with_masks(n: int):
    """Partitions of range(n) with per-cell bitmasks, cell count ascending."""
    return tuple(
        (cells, tuple(sum(1 << v for v in cell) for cell in cells))
        for cells in set_partitions(n))


def is_equitable(rows: list[int], cells, masks=None) -> bool:
    if masks is None:
        masks = tuple(sum(1 << v for v in cell) for cell in cells)
    for cell in cells:
        reference = None
        for v in cell:
            signature = tuple((rows[v] & mask).bit_count() for mask in masks)
            if reference is None:
                reference = signature
            elif signature != reference:
                return False
    return True


def coarsest_equitable_slow(adj) -> tuple[tuple[int, ...], ...]:
    """First equitable partition in ascending cell-count order.

    The equitable partitions of a graph are closed under the coarsest
    common coarsening, so the one with the fewest cells is unique and is
    the coarsest overall.
    """
    rows = adjacency_bitrows(adj)
    for cells, masks in partitions_with_masks(len(rows)):
        if is_equitable(rows, cells, masks):
            return cells
    raise AssertionError("the all-singletons partition is always equitable")


def refines(fine: tuple[tuple[int, ...], ...],
            coarse: tuple[tuple[int, ...], ...]) -> bool:
    coarse_sets = [set(cell) for cell in coarse]
    return all(any(set(cell) <= other for other in coarse_sets) for cell in fine)


def coarsest_equitable_rounds(adj) -> tuple[tuple[int, ...], ...]:
    """Round-based refinement of a dense 0/1 adjacency from one cell.

    Every round recomputes each vertex's neighbour count into every cell
    and splits each cell by that signature, until a round splits nothing.
    Cells are ordered by smallest member, members ascending.
    """
    adj = np.asarray(adj, dtype=np.int64)
    n = adj.shape[0]
    cells: list[list[int]] = [list(range(n))]
    while True:
        signatures = [
            tuple(int(adj[v, cell].sum()) for cell in cells) for v in range(n)
        ]
        refined: list[list[int]] = []
        for cell in cells:
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                groups.setdefault(signatures[v], []).append(v)
            for signature in sorted(groups):
                refined.append(groups[signature])
        if len(refined) == len(cells):
            break
        refined.sort(key=lambda members: members[0])
        cells = refined
    return tuple(tuple(cell) for cell in cells)


def equitable_degrees_slow(adj, cells) -> np.ndarray:
    """Cell-to-cell neighbour counts, one dense sum per pair of cells.

    ``cells`` hold vertex indices in canonical order.  Raises the
    library's precondition errors, with the same text: the first vertex
    whose count into some cell differs from its cell's first member's, in
    (cell, other cell, member) order, then the first cell of degree zero.
    """
    adj = np.asarray(adj, dtype=np.int64)
    num = len(cells)
    degrees = np.zeros((num, num), dtype=np.int64)
    for j, cell in enumerate(cells):
        for k, other in enumerate(cells):
            counts = adj[np.ix_(cell, other)].sum(axis=1)
            expected = int(counts[0])
            bad = np.nonzero(counts != expected)[0]
            if bad.size:
                v = cell[int(bad[0])]
                raise PreconditionError(
                    f"partition is not equitable: vertex {v} has "
                    f"{int(counts[bad[0]])} neighbours in cell {k}, "
                    f"expected {expected}")
            degrees[j, k] = expected
    row_degrees = degrees.sum(axis=1)
    if np.any(row_degrees == 0):
        j = int(np.nonzero(row_degrees == 0)[0][0])
        raise PreconditionError(
            f"cell {j} has degree zero; the walk matrix needs positive degree")
    return degrees


def spell_slow(algebra, values: np.ndarray) -> list[list[str]]:
    """The labels of a grid of element indices, cell by cell."""
    return [[algebra.label(v) for v in row] for row in values.tolist()]


def relation_from_payload_slow(algebra, payload, src, tgt) -> LRelation:
    """A JSON relation grid read cell by cell, each label through
    ``algebra.index``, and checked again by the validating constructor."""
    if not (isinstance(payload, list)
            and all(isinstance(row, list) for row in payload)):
        raise ParseError("relation grid must be a list of rows")
    if len(payload) != len(tgt):
        raise ParseError(
            f"relation grid has {len(payload)} rows, expected {len(tgt)}")
    try:
        grid = [[algebra.index(v) for v in row] for row in payload]
    except KeyError as exc:
        raise ParseError(f"unknown lattice element {exc.args[0]!r}") from exc
    for i, row in enumerate(grid):
        if len(row) != len(src):
            raise ParseError(
                f"relation grid row {i} has {len(row)} entries, "
                f"expected {len(src)}")
    return LRelation(algebra, src, tgt, grid)


def generalized_matrix_witness_slow(cat, f: ScalarMatrix, g: ScalarMatrix,
                                    f_inv: ScalarMatrix,
                                    g_inv: ScalarMatrix) -> BiproductWitness:
    """The witness of two basis changes laid out by hand: each basis change
    beside a zero block, each inverse above or below one."""
    m, n = f.rows, g.rows
    pi1 = ScalarMatrix(np.hstack([f.values, np.zeros((m, n))]), cat.domain)
    pi2 = ScalarMatrix(np.hstack([np.zeros((n, m)), g.values]), cat.domain)
    iota1 = ScalarMatrix(np.vstack([f_inv.values, np.zeros((n, m))]), cat.domain)
    iota2 = ScalarMatrix(np.vstack([np.zeros((m, n)), g_inv.values]), cat.domain)
    return BiproductWitness(m, n, m + n, pi1, pi2, iota1, iota2)


def canonical_json_slow(payload) -> str:
    """Report text straight from the stdlib's indented JSON encoder."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def public_type(obj) -> type:
    """``type(obj)``, or for an arrow that carries a selection form (see
    ``core._GridCategory``) the public arrow class its private one derives
    from: an arrow's public class, whatever it holds."""
    return next(c for c in type(obj).__mro__ if not c.__name__.startswith("_"))


def listed(payload):
    """``payload`` with every numpy array and selection payload, inside
    dicts, lists and tuples at any depth, replaced by its ``tolist()``: what
    the stdlib encoder reads."""
    if isinstance(payload, (np.ndarray, _SelectionPayload)):
        return payload.tolist()
    if isinstance(payload, dict):
        return {key: listed(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [listed(value) for value in payload]
    return payload


def matrix_from_payload_slow(payload, complex_: bool) -> np.ndarray:
    """A JSON matrix block read the way text is: each entry through str()."""
    parse = complex if complex_ else float
    return np.array([[parse(str(v)) for v in row] for row in payload],
                    dtype=np.complex128 if complex_ else np.float64)


def read_matrix_payload_slow(payload, domain) -> np.ndarray:
    """A JSON matrix block as the reader read it before text rows were read
    in bulk: numbers and numeric arrays straight to the dtype, anything
    else entry by entry through ``domain.parse(str(v))``."""
    if isinstance(payload, np.ndarray) and payload.dtype.kind in "iuf":
        return np.array(payload, dtype=domain.dtype)
    if set(map(type, itertools.chain.from_iterable(payload))) <= {int, float}:
        try:
            return np.array(payload, dtype=domain.dtype)
        except OverflowError as exc:
            raise ParseError(f"{domain.name} entry out of range: {exc}") from exc
    return np.array([[domain.parse(str(v)) for v in row] for row in payload],
                    dtype=domain.dtype)


def matrix_arrow_from_payload_slow(cat, payload, src: int, tgt: int) -> ScalarMatrix:
    """``MatrixCategory.arrow_from_payload`` as it was before 0/1 grids
    were read by their positions."""
    arr = read_matrix_payload_slow(payload, cat.domain)
    if arr.shape == (0,) and tgt == 0:
        arr = arr.reshape(0, src)
    if arr.ndim != 2 or arr.shape != (tgt, src):
        raise ParseError(f"matrix block must be {tgt}x{src}, got {arr.shape}")
    return ScalarMatrix(arr, cat.domain)


def quotient_maps_slow(partition: Partition) -> tuple[ScalarMatrix, ScalarMatrix]:
    """(average, indicator) of an equitable quotient on ``partition`` as
    ``reduced_transition_matrix`` built them before they carried forms:
    dense grids, ``1/size`` of its cell at each vertex and a 1 at each
    vertex's cell."""
    cells = partition.positions()
    n, num = len(partition.carrier), len(cells)
    sizes = np.array([len(cell) for cell in cells], dtype=np.int64)
    cell_of = np.empty(n, dtype=np.int64)
    cell_of[np.concatenate(cells)] = np.repeat(np.arange(num), sizes)
    average_vals = np.zeros((num, n))
    average_vals[cell_of, np.arange(n)] = 1.0 / sizes[cell_of]
    indicator_vals = np.zeros((n, num))
    indicator_vals[np.arange(n), cell_of] = 1.0
    return ScalarMatrix(average_vals), ScalarMatrix(indicator_vals)


def relation_arrow_from_payload_slow(cat, payload, src, tgt) -> LRelation:
    """``RelationCategory.arrow_from_payload`` as it was before grids of
    bottom and top labels were read by their positions."""
    if not (isinstance(payload, list)
            and all(isinstance(row, list) for row in payload)):
        raise ParseError("relation grid must be a list of rows")
    if len(payload) != len(tgt):
        raise ParseError(
            f"relation grid has {len(payload)} rows, expected {len(tgt)}")
    try:
        grid = _read_labels(cat.algebra._index, payload)
    except KeyError as exc:
        raise ParseError(f"unknown lattice element {exc.args[0]!r}") from exc
    for i, row in enumerate(grid):
        if len(row) != len(src):
            raise ParseError(
                f"relation grid row {i} has {len(row)} entries, "
                f"expected {len(src)}")
    values = np.array(grid, dtype=np.int16).reshape(len(tgt), len(src))
    return LRelation._derived(cat.algebra, as_carrier(src), as_carrier(tgt), values)


def load_matrix_csv_slow(path, domain) -> ScalarMatrix:
    """The CSV loader entry by entry: every token through ``domain.parse``."""
    rows = []
    width = None
    parse = domain.parse
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entries = [parse(tok) for tok in line.split(",")]
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ParseError(
                f"{path}: line {lineno} has {len(entries)} entries, expected {width}")
        rows.append(entries)
    if not rows:
        raise ParseError(f"{path}: no matrix rows found")
    return ScalarMatrix(np.array(rows, dtype=domain.dtype), domain)


def load_decomposition_json_slow(path, cat) -> SpectralDecomposition:
    """The decomposition loader without the bulk grid scan: ``json.loads``
    of the whole text, then ``decomposition_from_dict`` on its lists."""
    text = _read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    return decomposition_from_dict(payload, cat)


def complex_payload_slow(values: np.ndarray) -> list[list[str]]:
    """Complex matrix entries as report text, each through ``str``."""
    return [[str(v) for v in row] for row in values.tolist()]


def matrix_payload_slow(cat, f: ScalarMatrix) -> list:
    """A matrix arrow's report entries as lists: the grid plus 0, so that
    no zero keeps its sign, through ``tolist()``, or for complex entries
    each through ``str``."""
    values = f.values + 0
    if cat.domain.is_complex or np.iscomplexobj(values):
        return complex_payload_slow(values)
    return values.tolist()


def random_relation_slow(sampler, rng, src, tgt) -> LRelation:
    """A sampled relation drawn cell by cell with ``rng.randrange``."""
    algebra = sampler.algebra

    def cell() -> int:
        if sampler.bottom_bias and rng.random() < sampler.bottom_bias:
            return algebra.bottom
        return rng.randrange(len(algebra.elements))

    grid = [[cell() for _ in range(len(src))] for _ in range(len(tgt))]
    return LRelation(algebra, src, tgt,
                     np.array(grid, dtype=np.int16).reshape(len(tgt), len(src)))


def random_matrix_slow(sampler, rng, src: int, tgt: int) -> ScalarMatrix:
    """A sampled matrix drawn cell by cell with ``rng.uniform``."""
    domain = sampler.domain

    def entry():
        if rng.random() < 0.25:
            return 0.0
        if domain is COMPLEX:
            return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if domain.nonnegative:
            return rng.uniform(0.0, 2.0)
        return rng.uniform(-2.0, 2.0)

    values = [[entry() for _ in range(src)] for _ in range(tgt)]
    return ScalarMatrix(np.array(values, dtype=domain.dtype).reshape(tgt, src),
                        domain)


def all_relations(algebra, source, target):
    """Every relation source -> target, grids in lexicographic order."""
    cells = len(source) * len(target)
    for assignment in itertools.product(range(len(algebra.elements)),
                                        repeat=cells):
        grid = np.array(assignment, dtype=np.int16)
        yield LRelation(algebra, source, target,
                        grid.reshape(len(target), len(source)))


def _functor_tally_slow(functor, tol) -> LawTally:
    """A tally comparing in the target, with the zero object's image checked."""
    tgt = functor.target
    tally = LawTally(tgt, tol, input_cat=functor.source)
    fz = functor.apply_object(functor.source.zero_object())
    tally.check("zero_object", tgt.zero(fz, fz), tgt.identity(fz), {})
    return tally


def _witness_transport_slow(functor, tally, x, y):
    """The comparison arrow between the images of the canonical witnesses
    on (x, y), checked against both witnesses and for invertibility."""
    src, tgt = functor.source, functor.target
    wit = src.canonical_biproduct(x, y)
    wit_t = tgt.canonical_biproduct(functor.apply_object(x),
                                    functor.apply_object(y))
    f_pi1 = functor.apply_arrow(wit.pi1)
    f_pi2 = functor.apply_arrow(wit.pi2)
    f_iota1 = functor.apply_arrow(wit.iota1)
    f_iota2 = functor.apply_arrow(wit.iota2)
    gamma = tgt.add(tgt.compose(wit_t.iota1, f_pi1),
                    tgt.compose(wit_t.iota2, f_pi2))
    tally.check("gamma_pi1", tgt.compose(wit_t.pi1, gamma), f_pi1, {})
    tally.check("gamma_pi2", tgt.compose(wit_t.pi2, gamma), f_pi2, {})
    tally.check("gamma_iota1", tgt.compose(gamma, f_iota1), wit_t.iota1, {})
    tally.check("gamma_iota2", tgt.compose(gamma, f_iota2), wit_t.iota2, {})
    gamma_inv = tgt.add(tgt.compose(f_iota1, wit_t.pi1),
                        tgt.compose(f_iota2, wit_t.pi2))
    fcarrier = functor.apply_object(wit.carrier)
    tally.check("gamma_invertible_left", tgt.compose(gamma_inv, gamma),
                tgt.identity(fcarrier), {})
    tally.check("gamma_invertible_right", tgt.compose(gamma, gamma_inv),
                tgt.identity(wit_t.carrier), {})
    return wit, wit_t, gamma


def _exhaustive_functor_laws_slow(functor, tally, max_cells: int) -> None:
    """Every pair of each small homset checked on its own.

    The functor is applied to each sum and each composite, and every pair
    is compared as two arrows of the target; no arrow is looked up.
    """
    src, tgt = functor.source, functor.target
    shapes = [(rows, cols) for rows in range(1, max_cells + 1)
              for cols in range(1, max_cells + 1) if rows * cols <= max_cells]
    for rows, cols in shapes:
        source = tuple(f"s{i}" for i in range(cols))
        target = tuple(f"t{i}" for i in range(rows))
        arrows = list(all_relations(src.algebra, source, target))
        images = [functor.apply_arrow(f) for f in arrows]
        for f, f_img in zip(arrows, images):
            for g, g_img in zip(arrows, images):
                tally.check("additive", functor.apply_arrow(src.add(f, g)),
                            tgt.add(f_img, g_img), {"f": f, "g": g})
        tally.check("zero_arrow", functor.apply_arrow(src.zero(source, target)),
                    tgt.zero(functor.apply_object(source),
                             functor.apply_object(target)), {})
        tally.check("identity", functor.apply_arrow(src.identity(source)),
                    tgt.identity(functor.apply_object(source)), {})
        mid = ("m0",)
        outgoing = list(all_relations(src.algebra, mid, target))
        out_images = [functor.apply_arrow(g) for g in outgoing]
        incoming = list(all_relations(src.algebra, source, mid))
        in_images = [functor.apply_arrow(f) for f in incoming]
        for g, g_img in zip(outgoing, out_images):
            for f, f_img in zip(incoming, in_images):
                tally.check("composition",
                            functor.apply_arrow(src.compose(g, f)),
                            tgt.compose(g_img, f_img), {"f": f, "g": g})
        _witness_transport_slow(functor, tally, source, target)


def exhaustive_functor_check_slow(functor, max_cells: int,
                                  tol=None) -> LawReport:
    """``check_cmon_functor_exhaustive`` with every pair checked on its own."""
    tally = _functor_tally_slow(functor, tol)
    _exhaustive_functor_laws_slow(functor, tally, max_cells)
    return tally.report()


def separate_components_slow(f: LRelation):
    """Component separation with top-valued selections built cell by cell
    through the validating constructor, and the injection as the converse."""
    if f.source != f.target:
        raise ArrowTypeError("component separation needs an endo-relation")
    alg = f.algebra
    carrier = f.source
    if not carrier:
        # no vertices: empty partition, one block on the zero object
        zero = LRelation.zero(alg, (), ())
        block = Block((), zero, zero, zero)
        return (Partition((), ()),
                SpectralDecomposition((), (block,), arrow=f))
    cells_idx = _component_cells(_support_graph(f.values != alg.bottom))
    blocks = []
    for cell in cells_idx:
        space = tuple(carrier[i] for i in cell)
        grid = np.full((len(cell), len(carrier)), alg.bottom, dtype=np.int16)
        grid[np.arange(len(cell)), cell] = alg.top
        project = LRelation(alg, carrier, space, grid)
        local = LRelation(alg, space, space, f.values[np.ix_(cell, cell)])
        blocks.append(Block(space, project, project.converse(), local))
    partition = Partition(carrier,
                          tuple(tuple(carrier[i] for i in cell)
                                for cell in cells_idx))
    return partition, SpectralDecomposition(carrier, tuple(blocks), arrow=f)


def detect_blocks_slow(f: ScalarMatrix, zero_tol: float | None = None):
    """Block detection with 0/1 selections built cell by cell through the
    validating constructor, and the injection as the transpose."""
    if f.rows != f.cols:
        raise ArrowTypeError("block detection needs a square matrix")
    if zero_tol is None:
        zero_tol = DEFAULT_TOL_ABS
    if f.rows == 0:
        zero = ScalarMatrix.zeros(0, 0, f.domain)
        block = Block(0, zero, zero, zero)
        return (Partition((), ()),
                SpectralDecomposition(0, (block,), arrow=f))
    cells_idx = _component_cells(_support_graph(np.abs(f.values) > zero_tol))
    n = f.rows
    blocks = []
    for cell in cells_idx:
        sel = np.zeros((len(cell), n))
        sel[np.arange(len(cell)), cell] = 1.0
        project = ScalarMatrix(sel, f.domain)
        local = ScalarMatrix(f.values[np.ix_(cell, cell)], f.domain)
        blocks.append(Block(len(cell), project, project.transpose(), local))
    partition = Partition(tuple(range(n)),
                          tuple(tuple(cell) for cell in cells_idx))
    return partition, SpectralDecomposition(n, tuple(blocks), arrow=f)


def split_support_by_restrict(cat, f: Arrow, support: np.ndarray, labels: tuple):
    """``spectral._split_support`` restricting the carrier identity twice
    per cell, once to the cell's rows and once to its columns."""
    carrier = f.source
    if not labels:
        zero = cat.zero(carrier, carrier)
        return (Partition((), ()),
                SpectralDecomposition(carrier, (Block(carrier, zero, zero, zero),),
                                      arrow=f))
    cells = _component_cells(_support_graph(support))
    ident = cat.identity(carrier)
    blocks = []
    for cell in cells:
        project = cat.restrict(ident, cell, None)
        blocks.append(Block(project.target, project, cat.restrict(ident, None, cell),
                            cat.restrict(f, cell, cell)))
    partition = Partition(labels, tuple(tuple(labels[i] for i in cell)
                                        for cell in cells))
    return partition, SpectralDecomposition(carrier, tuple(blocks), arrow=f)


def verify_decomposition_slow(cat, f: Arrow, dec: SpectralDecomposition,
                              tol=None) -> LawReport:
    """``verify_decomposition`` with one compose or more per block pair
    (B^2 + 7B composes for B blocks), and sums of per-block composites."""
    if f.source != dec.carrier or f.target != dec.carrier:
        raise ArrowTypeError(
            f"arrow must be an endo-arrow on {dec.carrier!r}, "
            f"got {f.source!r} -> {f.target!r}")
    for i, blk in enumerate(dec.blocks, start=1):
        if blk.project.source != dec.carrier or blk.project.target != blk.space:
            raise ArrowTypeError(f"block {i}: project must map carrier -> space")
        if blk.inject.source != blk.space or blk.inject.target != dec.carrier:
            raise ArrowTypeError(f"block {i}: inject must map space -> carrier")
        if blk.local.source != blk.space or blk.local.target != blk.space:
            raise ArrowTypeError(f"block {i}: local must be an endo-arrow on its space")

    tally = LawTally(cat, tol)
    check = tally.check
    blocks = dec.blocks
    for i, blk in enumerate(blocks, start=1):
        check(f"a[{i}]", cat.compose(blk.project, blk.inject),
              cat.identity(blk.space))
    for i, blk_i in enumerate(blocks, start=1):
        for j, blk_j in enumerate(blocks, start=1):
            if i != j:
                check(f"b[{i},{j}]", cat.compose(blk_i.project, blk_j.inject),
                      cat.zero(blk_j.space, blk_i.space))

    add = functools.partial(functools.reduce, cat.add)
    check("c", add(cat.compose(b.inject, b.project) for b in blocks),
          cat.identity(dec.carrier))
    check("d", add(cat.compose(b.inject, cat.compose(b.local, b.project))
                   for b in blocks), f)

    for i, blk in enumerate(blocks, start=1):
        check(f"intertwine_project[{i}]", cat.compose(blk.project, f),
              cat.compose(blk.local, blk.project))
        check(f"intertwine_inject[{i}]", cat.compose(f, blk.inject),
              cat.compose(blk.inject, blk.local))
    return tally.report()


def fold_to_binary_slow(cat, dec: SpectralDecomposition) -> SpectralDecomposition:
    """``fold_to_binary`` with the tail summed from composites with the
    witnesses of :func:`fold_biproduct`: 3(B-1) composes and 2(B-1) sums."""
    if len(dec.blocks) == 2:
        return dec
    head = dec.blocks[0]
    rest = dec.blocks[1:]
    if not rest:
        z = cat.zero_object()
        pad = Block(z, cat.zero(dec.carrier, z), cat.zero(z, dec.carrier),
                    cat.identity(z))
        return SpectralDecomposition(dec.carrier, (head, pad), arrow=dec.arrow)
    grouped, pis, iotas = fold_biproduct(cat, [b.space for b in rest])
    parts = list(zip(rest, pis, iotas))
    add = functools.partial(functools.reduce, cat.add)
    project = add([cat.compose(iota, b.project) for b, _, iota in parts])
    inject = add([cat.compose(b.inject, pi) for b, pi, _ in parts])
    local = add([cat.compose(iota, cat.compose(b.local, pi))
                 for b, pi, iota in parts])
    tail = Block(grouped, project, inject, local)
    return SpectralDecomposition(dec.carrier, (head, tail), arrow=dec.arrow)


def run_law_suite_slow(cat, sampler=None, trials: int = 100, tol=None,
                       seed: int = 0) -> LawReport:
    """``run_law_suite`` one trial at a time, every law on single arrows."""
    if trials < 1:
        raise PreconditionError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    if sampler is None:
        sampler = cat.default_sampler()
    tally = LawTally(cat, tol)
    check = tally.check

    for _ in range(trials):
        x = sampler.random_object(rng)
        y = sampler.random_object(rng)
        z = sampler.random_object(rng)
        w = sampler.random_object(rng)

        f = sampler.random_arrow(rng, x, y)
        g = sampler.random_arrow(rng, x, y)
        h = sampler.random_arrow(rng, x, y)
        check("add_associative", cat.add(cat.add(f, g), h),
              cat.add(f, cat.add(g, h)), {"f": f, "g": g, "h": h})
        check("add_commutative", cat.add(f, g), cat.add(g, f), {"f": f, "g": g})
        check("add_unit", cat.add(f, cat.zero(x, y)), f, {"f": f})

        check("zero_absorbs_left", cat.compose(cat.zero(y, z), f),
              cat.zero(x, z), {"f": f})
        check("zero_absorbs_right", cat.compose(f, cat.zero(w, x)),
              cat.zero(w, y), {"f": f})

        u = sampler.random_arrow(rng, y, z)
        v = sampler.random_arrow(rng, z, w)
        check("compose_associative", cat.compose(cat.compose(v, u), f),
              cat.compose(v, cat.compose(u, f)), {"f": f, "u": u, "v": v})
        check("identity_left", cat.compose(cat.identity(y), f), f, {"f": f})
        check("identity_right", cat.compose(f, cat.identity(x)), f, {"f": f})

        check("distributes_left", cat.compose(u, cat.add(f, g)),
              cat.add(cat.compose(u, f), cat.compose(u, g)),
              {"u": u, "f": f, "g": g})
        k = sampler.random_arrow(rng, w, x)
        check("distributes_right", cat.compose(cat.add(f, g), k),
              cat.add(cat.compose(f, k), cat.compose(g, k)),
              {"f": f, "g": g, "k": k})

        wit = cat.canonical_biproduct(x, y)
        for law, got, want in _biproduct_cases(cat, wit):
            check("witness_" + law, got, want, {})

        f1 = sampler.random_arrow(rng, z, x)
        f2 = sampler.random_arrow(rng, z, y)
        paired = pair(cat, f1, f2, wit)
        check("pair_project1", cat.compose(wit.pi1, paired), f1,
              {"f1": f1, "f2": f2})
        check("pair_project2", cat.compose(wit.pi2, paired), f2,
              {"f1": f1, "f2": f2})
        into = sampler.random_arrow(rng, z, wit.carrier)
        check("pair_unique",
              pair(cat, cat.compose(wit.pi1, into), cat.compose(wit.pi2, into), wit),
              into, {"h": into})

        g1 = sampler.random_arrow(rng, x, z)
        g2 = sampler.random_arrow(rng, y, z)
        copaired = copair(cat, g1, g2, wit)
        check("copair_inject1", cat.compose(copaired, wit.iota1), g1,
              {"g1": g1, "g2": g2})
        check("copair_inject2", cat.compose(copaired, wit.iota2), g2,
              {"g1": g1, "g2": g2})
        outof = sampler.random_arrow(rng, wit.carrier, z)
        check("copair_unique",
              copair(cat, cat.compose(outof, wit.iota1),
                     cat.compose(outof, wit.iota2), wit),
              outof, {"h": outof})

        hh = sampler.random_arrow(rng, w, x)
        kk = sampler.random_arrow(rng, w, y)
        lhs = cat.compose(copair(cat, g1, g2, wit), pair(cat, hh, kk, wit))
        w_src = cat.canonical_biproduct(w, w)
        w_tgt = cat.canonical_biproduct(z, z)
        block = oplus(cat, cat.compose(g1, hh), cat.compose(g2, kk), w_src, w_tgt)
        rhs = cat.compose(
            copair(cat, cat.identity(z), cat.identity(z), w_tgt),
            cat.compose(block, pair(cat, cat.identity(w), cat.identity(w), w_src)))
        check("copair_pair_factors", lhs, rhs,
              {"h": hh, "k": kk, "f": g1, "g": g2})

        check("sum_via_biproduct", sum_via_biproduct(cat, f, g), cat.add(f, g),
              {"f": f, "g": g})

    return tally.report()


def _functor_laws_on(functor, tally, f, g, u) -> None:
    """Functor laws on a parallel pair f, g and a post-composable u."""
    src, tgt = functor.source, functor.target
    fx = functor.apply_object(f.source)
    fy = functor.apply_object(f.target)
    tally.check("additive", functor.apply_arrow(src.add(f, g)),
                tgt.add(functor.apply_arrow(f), functor.apply_arrow(g)),
                {"f": f, "g": g})
    tally.check("zero_arrow",
                functor.apply_arrow(src.zero(f.source, f.target)),
                tgt.zero(fx, fy), {})
    tally.check("identity", functor.apply_arrow(src.identity(f.source)),
                tgt.identity(fx), {})
    tally.check("composition", functor.apply_arrow(src.compose(u, f)),
                tgt.compose(functor.apply_arrow(u), functor.apply_arrow(f)),
                {"f": f, "u": u})


def _functor_naturality(functor, tally, wit, wit_t, gamma, a1, a2) -> None:
    src, tgt = functor.source, functor.target
    wit_d = src.canonical_biproduct(a1.target, a2.target)
    wit_dt = tgt.canonical_biproduct(functor.apply_object(a1.target),
                                     functor.apply_object(a2.target))
    block_src = oplus(src, a1, a2, wit, wit_d)
    gamma_d = tgt.add(
        tgt.compose(wit_dt.iota1, functor.apply_arrow(wit_d.pi1)),
        tgt.compose(wit_dt.iota2, functor.apply_arrow(wit_d.pi2)))
    block_tgt = oplus(tgt, functor.apply_arrow(a1),
                      functor.apply_arrow(a2), wit_t, wit_dt)
    tally.check("gamma_natural",
                tgt.compose(gamma_d, functor.apply_arrow(block_src)),
                tgt.compose(block_tgt, gamma), {"a1": a1, "a2": a2})


def check_cmon_functor_sampled_slow(functor, sampler=None, trials: int = 100,
                                    tol=None, seed: int = 0,
                                    exhaustive_cells: int = 2) -> LawReport:
    """``check_cmon_functor`` with its sampled trials checked one at a time
    and its exhaustive pass pair by pair, as in
    :func:`exhaustive_functor_check_slow`."""
    if trials < 1:
        raise PreconditionError(f"trials must be at least 1, got {trials}")
    src = functor.source
    rng = random.Random(seed)
    if sampler is None:
        sampler = src.default_sampler()
    tally = _functor_tally_slow(functor, tol)

    for _ in range(trials):
        x = sampler.random_object(rng)
        y = sampler.random_object(rng)
        w = sampler.random_object(rng)
        f = sampler.random_arrow(rng, x, y)
        g = sampler.random_arrow(rng, x, y)
        u = sampler.random_arrow(rng, y, w)
        _functor_laws_on(functor, tally, f, g, u)
        wit, wit_t, gamma = _witness_transport_slow(functor, tally, x, y)
        d1 = sampler.random_object(rng)
        d2 = sampler.random_object(rng)
        a1 = sampler.random_arrow(rng, x, d1)
        a2 = sampler.random_arrow(rng, y, d2)
        _functor_naturality(functor, tally, wit, wit_t, gamma, a1, a2)

    if exhaustive_cells > 0 and isinstance(src, RelationCategory):
        _exhaustive_functor_laws_slow(functor, tally, exhaustive_cells)
    return tally.report()


# ---------------------------------------------------------------------------
# zero, identity, canonical witness, restrict, equal and residual as each
# shipped instance wrote them for itself, before one grid base wrote them once;
# equal_cells and residual_cells are the per-grid comparison kernels each
# wrote before the base derived them from per-cell hooks


def _sub_grid_slow(values: np.ndarray, rows, cols) -> np.ndarray:
    if rows is None or cols is None:
        return values[slice(None) if rows is None else rows,
                      slice(None) if cols is None else cols]
    return values[np.ix_(rows, cols)]


class RelationAlgebraSlow:
    """The arrow algebra of ``RelationCategory(algebra)``, per instance."""

    def __init__(self, algebra):
        self.algebra = algebra

    def zero(self, src, tgt) -> LRelation:
        source, target = as_carrier(src), as_carrier(tgt)
        grid = np.full((len(target), len(source)), self.algebra.bottom,
                       dtype=np.int16)
        return LRelation._derived(self.algebra, source, target, grid)

    def identity(self, obj) -> LRelation:
        carrier = as_carrier(obj)
        n = len(carrier)
        grid = np.full((n, n), self.algebra.bottom, dtype=np.int16)
        np.fill_diagonal(grid, self.algebra.top)
        return LRelation._derived(self.algebra, carrier, carrier, grid)

    def canonical_biproduct(self, left, right) -> BiproductWitness:
        left, right = as_carrier(left), as_carrier(right)
        carrier = tagged_union(left, right)
        n1, n2 = len(left), len(right)
        alg = self.algebra
        p1 = np.full((n1, n1 + n2), alg.bottom, dtype=np.int16)
        p1[np.arange(n1), np.arange(n1)] = alg.top
        p2 = np.full((n2, n1 + n2), alg.bottom, dtype=np.int16)
        p2[np.arange(n2), n1 + np.arange(n2)] = alg.top
        pi1 = LRelation._derived(alg, carrier, left, p1)
        pi2 = LRelation._derived(alg, carrier, right, p2)
        return BiproductWitness(left, right, carrier, pi1, pi2,
                                pi1.converse(), pi2.converse())

    def restrict(self, f: LRelation, rows, cols) -> LRelation:
        return LRelation._derived(
            f.algebra,
            f.source if cols is None else as_carrier(f.source[j] for j in cols),
            f.target if rows is None else as_carrier(f.target[i] for i in rows),
            _sub_grid_slow(f.values, rows, cols))

    def equal(self, f: LRelation, g: LRelation, tol=None) -> bool:
        _check_algebras(self.algebra, f.algebra)
        _check_algebras(self.algebra, g.algebra)
        return (f.source == g.source and f.target == g.target
                and np.array_equal(f.values, g.values))

    def residual(self, f: LRelation, g: LRelation) -> float:
        _check_algebras(self.algebra, f.algebra)
        _check_algebras(self.algebra, g.algebra)
        return float(np.count_nonzero(f.values != g.values))

    def equal_cells(self, a: np.ndarray, b: np.ndarray, tol) -> np.ndarray:
        return (a == b).all(axis=(-2, -1))

    def residual_cells(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The differing cells of each grid, counted as a float (one grid on
        its own was counted by np.count_nonzero, the same count as an int)."""
        differ = a != b
        *lead, rows, cols = differ.shape
        return differ.reshape(*lead, rows * cols).sum(axis=-1, dtype=float)


class MatrixAlgebraSlow:
    """The arrow algebra of ``MatrixCategory(domain)``, per instance."""

    def __init__(self, domain):
        self.domain = domain

    def zero(self, src: int, tgt: int) -> ScalarMatrix:
        return ScalarMatrix._derived(
            np.zeros((tgt, src), dtype=self.domain.dtype), self.domain)

    def identity(self, obj: int) -> ScalarMatrix:
        return ScalarMatrix._derived(np.eye(obj, dtype=self.domain.dtype),
                                     self.domain)

    def canonical_biproduct(self, left: int, right: int) -> BiproductWitness:
        if left < 0 or right < 0:
            raise ArrowTypeError("dimensions must be non-negative")
        dtype = self.domain.dtype
        pi1 = ScalarMatrix._derived(
            np.eye(left, left + right, dtype=dtype), self.domain)
        pi2 = ScalarMatrix._derived(
            np.eye(right, left + right, k=left, dtype=dtype), self.domain)
        return BiproductWitness(left, right, left + right,
                                pi1, pi2, pi1.transpose(), pi2.transpose())

    def restrict(self, f: ScalarMatrix, rows, cols) -> ScalarMatrix:
        return ScalarMatrix._derived(_sub_grid_slow(f.values, rows, cols),
                                     f.domain)

    def equal(self, f: ScalarMatrix, g: ScalarMatrix, tol=None) -> bool:
        _check_domains(self.domain, f.domain)
        _check_domains(self.domain, g.domain)
        if f.source != g.source or f.target != g.target:
            return False
        if tol is None:
            tol = Tolerance()
        return bool(tol.close(f.values, g.values).all())

    def residual(self, f: ScalarMatrix, g: ScalarMatrix) -> float:
        _check_domains(self.domain, f.domain)
        _check_domains(self.domain, g.domain)
        if f.values.size == 0:
            return 0.0
        return float(np.max(np.abs(f.values - g.values)))

    def equal_cells(self, a: np.ndarray, b: np.ndarray, tol) -> np.ndarray:
        return (Tolerance() if tol is None else tol).close(a, b).all(axis=(-2, -1))

    def residual_cells(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(a - b).max(axis=(-2, -1), initial=0.0)
