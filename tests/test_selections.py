"""Selection forms: grid arrows that carry their positions.

``core._GridCategory`` lets an arrow whose grid is a 0/1 selection carry
the position of each row's unit (or each column's) instead of the grid;
the grid is built on first read.  Every operation on such an arrow must
give what the same operation gives on its grid held densely: values, dtype,
layout, endpoints, verdicts and residuals.  The payload readers that set
forms are held to the bodies they replaced (``_oracles``), and a loaded
decomposition's verify must hold fewer n x n grids than it did.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specat import (
    MAT_C,
    MAT_NN,
    MAT_R,
    ArrowTypeError,
    Block,
    DecompositionError,
    HeytingTable,
    LRelation,
    ParseError,
    RelationCategory,
    ScalarDomain,
    ScalarMatrix,
    SpectralDecomposition,
    Tolerance,
    b4,
    bool_algebra,
    chain,
    compose_decompositions,
    detect_blocks,
    separate_components,
    sum_decompositions,
    verify_decomposition,
)
from specat.cli import main
from specat.core import _gather, _Selection, _SelectionPayload
from specat.formats import (
    _FALLBACK,
    canonical_json,
    decomposition_from_dict,
    decomposition_to_dict,
    load_decomposition_json,
    save_decomposition_json,
)
from specat.matrices import _matrix_from_payload

from ._oracles import (
    canonical_json_slow,
    listed,
    matrix_arrow_from_payload_slow,
    public_type,
    read_matrix_payload_slow,
    relation_arrow_from_payload_slow,
)
from .test_grid import obj
from .test_stacked import count_dense_kernels

CASES = (RelationCategory(bool_algebra()), RelationCategory(b4()),
         RelationCategory(chain(64)), MAT_R, MAT_C, MAT_NN)
# with an absolute tolerance of 1 or more a unit is close to a blank; a
# negative one makes even equal cells differ
TOLERANCES = (None, Tolerance(0.0, 0.0), Tolerance(1.0, 0.0), Tolerance(2.5, 0.0),
              Tolerance(-1.0, 0.0))


def assert_same_result(got, want) -> None:
    """Same public class, endpoints, dtype, bits, layout and read-only flag."""
    assert public_type(got) is public_type(want)
    assert (got.source, got.target) == (want.source, want.target)
    assert got.values.dtype == want.values.dtype
    assert got.values.shape == want.values.shape
    assert got.values.strides == want.values.strides
    assert got.values.tobytes() == want.values.tobytes()
    assert not got.values.flags.writeable


@st.composite
def arrows(draw, cat, src, tgt):
    """(arrow, its twin) from ``src`` to ``tgt``: a form-carrying selection,
    maybe transposed, and the same grid held by a dense arrow; or a dense
    grid twice, a selection or not, row- or column-major."""
    rows, cols = cat._size(tgt), cat._size(src)
    kind = draw(st.sampled_from(["rows", "cols", "transposed", "dense", "dense-F"]))
    if kind.startswith("dense"):
        cells = draw(st.lists(st.sampled_from([cat._blank, cat._unit, cat._unit,
                                               cat._blank, other_cell(cat)]),
                              min_size=rows * cols, max_size=rows * cols))
        grid = np.array(cells, cat._dtype).reshape(rows, cols)
        if kind == "dense-F":
            grid = np.asfortranarray(grid)
        return cat._arrow(grid, src, tgt), cat._arrow(grid, src, tgt)
    axis = 1 if kind == "cols" else 0
    shape = (rows, cols)
    if kind == "transposed":
        shape = shape[::-1]
    length, across = shape[axis], shape[1 - axis]
    if draw(st.booleans()) and length <= across:  # no two units share a line
        lines = draw(st.permutations(range(across)))[:length]
        lines = [-1 if draw(st.integers(0, 4)) == 0 else j for j in lines]
    else:
        lines = draw(st.lists(st.integers(-1, across - 1), min_size=length,
                              max_size=length))
    form = _Selection(cat, np.array(lines, np.intp), axis, shape)
    if kind == "transposed":
        form = form.transposed()
    return (cat._arrow(form, src, tgt),
            cat._arrow(form.grid(), src, tgt))


def other_cell(cat):
    """A cell that is neither blank nor the unit."""
    if cat.exact:
        k = len(cat.algebra.elements)
        return next((v for v in range(k) if v not in (cat._blank, cat._unit)),
                    cat._blank)
    return 2.0


def cuts(draw, size: int) -> list[int]:
    """Sizes of consecutive blocks covering ``size`` positions, some empty."""
    sizes, left = [], size
    while left or not sizes or draw(st.integers(0, 3)) == 0:
        step = draw(st.integers(0, left))
        sizes.append(step)
        left -= step
        if len(sizes) > 6:
            sizes.append(left)
            break
    return sizes


@settings(max_examples=400, deadline=None)
@given(data=st.data(), cat=st.sampled_from(CASES), n=st.integers(0, 4),
       mid=st.integers(0, 4), m=st.integers(0, 4), tol=st.sampled_from(TOLERANCES))
def test_operations_on_selection_forms_equal_those_on_their_grids(
        data, cat, n, mid, m, tol):
    """Compose on either side, stack, costack, compare_blocks and equal
    give, on form-carrying arrows, what they give on the same grids held
    densely: values, dtype, layout, endpoints, verdicts and residuals."""
    draw = data.draw
    x, y, z = obj(cat, m, "x"), obj(cat, mid, "y"), obj(cat, n, "z")
    g, g_grid = draw(arrows(cat, y, z))
    f, f_grid = draw(arrows(cat, x, y))
    assert_same_result(cat.compose(g, f), cat.compose(g_grid, f_grid))
    assert_same_result(g @ f, g_grid @ f_grid)
    assert_same_result(cat.compose(g, f_grid), cat.compose(g_grid, f_grid))
    assert_same_result(cat.compose(g_grid, f), cat.compose(g_grid, f_grid))

    # a family out of x, then a family into z
    for op, ends in (("stack", lambda w: (x, w)), ("costack", lambda w: (w, z))):
        sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
        family = [draw(arrows(cat, *ends(obj(cat, k, f"w{i}."))))
                  for i, k in enumerate(sizes)]
        assert_same_result(getattr(cat, op)([a for a, _ in family]),
                           getattr(cat, op)([b for _, b in family]))

    a, a_grid = draw(arrows(cat, x, z))
    b, b_grid = draw(arrows(cat, x, z))
    targets = [obj(cat, k, f"t{i}.") for i, k in enumerate(cuts(draw, n))]
    sources = [obj(cat, k, f"s{i}.") for i, k in enumerate(cuts(draw, m))]
    for p, q, p_grid, q_grid in ((a, b, a_grid, b_grid), (a, a, a_grid, a_grid),
                                 (a, b_grid, a_grid, b_grid)):
        got = cat.compare_blocks(p, q, targets, sources, tol)
        want = cat.compare_blocks(p_grid, q_grid, targets, sources, tol)
        for got_part, want_part in zip(got, want):
            assert got_part.dtype == want_part.dtype
            assert got_part.shape == want_part.shape == (len(targets), len(sources))
            assert np.array_equal(got_part, want_part)
        assert cat.equal(p, q, tol) is cat.equal(p_grid, q_grid, tol)
        assert cat.residual(p, q) == cat.residual(p_grid, q_grid)


# finite cells of every magnitude: signed zeros, subnormals, the largest
FINITE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e300, -1e300]),
                   st.floats(allow_nan=False, allow_infinity=False))
LAYOUTS = ("C", "F", "T", "strided")


def laid_out(grid: np.ndarray, layout: str) -> np.ndarray:
    """``grid``'s cells held C-ordered, column-major, as the ``.T`` view of
    a C-ordered grid, or as every other row of a grid twice as tall."""
    if layout == "C":
        return np.array(grid, order="C")
    if layout == "F":
        return np.array(grid, order="F")
    if layout == "T":
        return np.array(grid.T, order="C").T
    return np.repeat(grid, 2, axis=0)[::2]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), cat=st.sampled_from([MAT_R, MAT_NN, MAT_C]),
       k=st.integers(1, 12), n=st.integers(1, 12), m=st.integers(1, 12))
def test_selection_products_are_exact_in_every_layout(data, cat, k, n, m):
    """``np.matmul`` of a 0/1 row selection ``s`` and a finite grid ``a``,
    as ``s @ a`` and as ``a.T @ s.T``, gives the same bits whatever the
    layout of either operand, and the gather up to the sign of a zero.
    Each cell is one of ``a``'s times the unit plus zeros, and a sum of
    signed zeros does not depend on its order (IEEE 754-2019, 6.3): so a
    selection's grid may be laid out C-ordered whatever its axis."""
    draw = data.draw
    # blank lines (-1) and repeated columns
    lines = np.array(draw(st.lists(st.integers(-1, n - 1), min_size=k, max_size=k)),
                     np.intp)
    s = _Selection(cat, lines, 0, (k, n)).grid()
    cells = st.one_of(FINITE.map(abs), st.just(-0.0)) if cat.domain.nonnegative \
        else FINITE
    if cat.domain.is_complex:
        cells = st.builds(complex, cells, cells)
    a = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m)),
                 cat._dtype).reshape(n, m)
    for left, right, gathered in ((s, a, _gather(a, lines, 0, 0)),
                                  (a.T, s.T, _gather(a.T, lines, 1, 0))):
        products = {np.matmul(laid_out(left, p), laid_out(right, q)).tobytes()
                    for p in LAYOUTS for q in LAYOUTS}
        assert len(products) == 1
        assert np.array_equal(np.matmul(left, right), gathered)


@pytest.mark.parametrize("cat", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("loaded", [False, True], ids=["split", "loaded"])
def test_verifying_selections_builds_none_of_their_grids(monkeypatch, cat, loaded):
    """P, I, P.I and I.P of a split or a loaded decomposition are held as
    positions: no selection's grid is built by a passing verify (no block's
    local is itself a selection, which a product would gather)."""
    if loaded:
        f, payload = planted_payload(cat, 12, 4)
        dec = decomposition_from_dict(payload, cat)
    elif cat.exact:
        labels = tuple(f"v{i}" for i in range(6))
        f = LRelation.from_pairs(cat.algebra, labels, labels,
                                 [(a, b) for x, y in (("v0", "v3"), ("v1", "v4"),
                                                      ("v5", "v2"))
                                  for a, b in ((x, x), (x, y), (y, x))])
        _, dec = separate_components(f)
    else:
        f = ScalarMatrix(np.kron(np.eye(3), [[1.0, 2.0], [0.0, 1.0]]), cat.domain)
        _, dec = detect_blocks(f)
    assert all(b.project._form is not None and b.inject._form is not None
               for b in dec.blocks)
    built, grid = [], _Selection.grid
    monkeypatch.setattr(_Selection, "grid", lambda self: built.append(self) or grid(self))
    assert verify_decomposition(cat, f, dec).passed
    assert built == []


# ---------------------------------------------------------------------------
# payload readers


def zeros_unsigned(cat, f):
    """The dense arrow holding ``f``'s grid with each -0.0 read as 0.0."""
    return cat._arrow(f.values + 0, f.source, f.target)


def read_outcome(read):
    try:
        return read()
    except Exception as exc:  # the same exception, with the same message
        return exc


def assert_same_outcome(got, want) -> None:
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert_same_result(got, want)


@st.composite
def selection_payload(draw, blank, unit, flaws):
    """(payload, width, rows): rows of ``blank`` with at most one ``unit``,
    some blank, then maybe one flaw: a cell from ``flaws``, a second unit,
    a ragged row, or one row too many."""
    rows, width = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    payload = []
    for _ in range(rows):
        row = [blank] * width
        if width and draw(st.integers(0, 3)):
            row[draw(st.integers(0, width - 1))] = unit
        payload.append(row)
    flaw = draw(st.sampled_from(["none", "none", "cell", "two units", "ragged",
                                 "extra row"]))
    if payload and width and flaw == "cell":
        payload[draw(st.integers(0, rows - 1))][draw(st.integers(0, width - 1))] = \
            draw(st.sampled_from(flaws))
    elif payload and width > 1 and flaw == "two units":
        payload[draw(st.integers(0, rows - 1))][:2] = [unit, unit]
    elif payload and flaw == "ragged":
        payload[draw(st.integers(0, rows - 1))].append(blank)
    elif flaw == "extra row":
        payload.append([blank] * width)
        rows -= draw(st.integers(0, 1))
        rows += draw(st.integers(0, 1))
    return payload, width, max(rows, 0)


MATRIX_FLAWS = [True, False, -0.0, 0.0, 1.0, 2, -1, 0.5, "1", None, 2 ** 70]


@settings(max_examples=300, deadline=None)
@given(cat=st.sampled_from([MAT_R, MAT_C, MAT_NN]),
       case=selection_payload(0, 1, MATRIX_FLAWS))
@example(cat=MAT_R, case=([[0, True]], 2, 1))
@example(cat=MAT_R, case=([[-0.0, 1]], 2, 1))
@example(cat=MAT_C, case=([[0.0, 1.0]], 2, 1))
@example(cat=MAT_R, case=([], 3, 0))
@example(cat=MAT_C, case=([["0j", "(1+0j)"], ["0j", "0j"]], 2, 2))
@example(cat=MAT_C, case=([["-0j", "(1+0j)"]], 2, 1))
@example(cat=MAT_R, case=([["0.0", "1.0"]], 2, 1))
@example(cat=MAT_NN, case=([[1.0, -0.0], [0.0, 0]], 2, 2))
def test_matrix_selections_are_read_as_the_old_reader_reads_them(cat, case):
    """A grid of integer 0s and 1s, or of the writer's own blank and unit
    (no bools), with at most one unit per row carries a form; every grid,
    signed zeros, other values, two units, ragged rows and wrong row counts
    included, reads as before: the same bits and layout, or the same
    error.  A form's grid is built from its positions, so its zeros are
    compared sign-blind."""
    payload, width, rows = case
    got = read_outcome(lambda: cat.arrow_from_payload(payload, width, rows))
    want = read_outcome(
        lambda: matrix_arrow_from_payload_slow(cat, payload, width, rows))
    if getattr(got, "_form", None) is not None:
        want = zeros_unsigned(cat, want)
    assert_same_outcome(got, want)
    kinds = {type(v) for row in payload for v in row}
    blank, unit = (0, 1) if kinds == {int} else cat._payload_cells
    selection = (not isinstance(want, Exception) and payload and width
                 and bool not in kinds
                 and all(all(v == blank or v == unit for v in row)
                         and row.count(unit) <= 1 for row in payload))
    assert (getattr(got, "_form", None) is not None) == bool(selection)


RELATION_FLAWS = ["a", "b", "1/63", 0, 1, True, None, 1.0, "zz", ["0"]]


@settings(max_examples=300, deadline=None)
@given(cat=st.sampled_from(CASES[:3]), data=st.data())
def test_relation_selections_are_read_as_the_old_reader_reads_them(cat, data):
    """A grid of bottom labels with at most one top label per row is read
    by its positions; every other grid as before: the same relation, or the
    same error."""
    labels = cat.algebra.elements
    payload, width, rows = data.draw(selection_payload(
        labels[cat._blank], labels[cat._unit], RELATION_FLAWS))
    src, tgt = obj(cat, width, "s"), obj(cat, rows, "t")
    got = read_outcome(lambda: cat.arrow_from_payload(payload, src, tgt))
    want = read_outcome(
        lambda: relation_arrow_from_payload_slow(cat, payload, src, tgt))
    assert_same_outcome(got, want)


TEXT_ENTRIES = [
    "1.5", "-0.0", "0.0", "-0", "+0.0", "1e3", "1E-3", "2.5e400", "-1e400",
    "nan", "NaN", "-nan", "inf", "-inf", "+inf", "Infinity", "-Infinity",
    "infinity", "iNf", " 1.5", "1.5 ", " -0.0 ", "1_0", "٣", "", " ",
    "abc", "1..2", "0x10", "1,5", "1\n2", "1\r", "\t2\t", "1j", "2J", "-1j",
    "1+2j", "1-2j", "(1+2j)", "1++2j", "1+-2j", "1 + 2j", "-0-0j", "0j",
    "nanj", "inf+infj", "1e400j", "+1.5-2.5j", "j", "1+j", "True", "None",
]
# NUL and the code points str.splitlines breaks at but "\n" does not: alone,
# leading, trailing and inside a number
TEXT_ENTRIES += [spelling.format(c)
                 for c in "\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
                 for spelling in ("{}", "{}1.5", "1.5{}", "1{}5", "1{}+2j", "-{}0.0")]


@settings(max_examples=400, deadline=None)
@given(cat=st.sampled_from([MAT_R, MAT_C, MAT_NN]),
       cells=st.lists(st.lists(st.one_of(
           st.sampled_from(TEXT_ENTRIES), st.floats().map(repr),
           st.complex_numbers().map(lambda z: repr(z).strip("()"))),
           min_size=1, max_size=3), min_size=1, max_size=3),
       rectangular=st.booleans())
@example(cat=MAT_C, cells=[["1+2j", "-0.5-0j"], ["(1+0j)", "0j"]], rectangular=True)
@example(cat=MAT_R, cells=[["-0.0", "nan"], ["inf", "1e400"]], rectangular=True)
@example(cat=MAT_C, cells=[["1\x0b5", "\u20281.5"], ["1.5\x85", "\x00"]],
         rectangular=True)
def test_text_entries_are_read_as_the_entry_loop_reads_them(cat, cells,
                                                            rectangular):
    """String entries read in bulk give the bits the per-entry parse gives,
    signed zeros and every inf/nan spelling included, or the same
    ParseError."""
    if rectangular:
        cells = [(row * 3)[:len(cells[0])] for row in cells]
    got = read_outcome(lambda: _matrix_from_payload(cells, cat.domain))
    want = read_outcome(lambda: read_matrix_payload_slow(cells, cat.domain))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# verify's memory and the combinators


def planted_payload(cat, n: int, count: int):
    """(arrow, decomposition JSON) of ``count`` blocks on a permuted carrier
    of ``n`` positions, with 0/1 project and inject grids as the benchmark's
    inputs write them, and dense locals."""
    rng = np.random.default_rng(7)
    cells = [sorted(c.tolist()) for c in np.array_split(rng.permutation(n), count)]
    if cat.exact:
        labels = [f"c{i}" for i in range(n)]
        values = np.full((n, n), cat._blank, np.int16)
        for c in cells:  # no bottom cell: no local is a selection
            values[np.ix_(c, c)] = rng.integers(1, len(cat.algebra.elements),
                                                (len(c), len(c)))
        f = LRelation(cat.algebra, labels, labels, values)
        blank, unit = cat.algebra.elements[cat._blank], cat.algebra.elements[cat._unit]
        space = lambda c: [labels[i] for i in c]
        carrier = labels
    else:
        values = np.zeros((n, n))
        for c in cells:
            values[np.ix_(c, c)] = rng.uniform(0.5, 2.0, (len(c), len(c)))
        f = ScalarMatrix(values, cat.domain)
        blank, unit, space, carrier = 0, 1, len, n
    blocks = []
    for c in cells:
        project = [[blank] * n for _ in c]
        for r, col in enumerate(c):
            project[r][col] = unit
        local = cat.restrict(f, c, c)
        blocks.append({"space": space(c), "project": project,
                       "inject": [list(col) for col in zip(*project)],
                       "local": listed(cat.arrow_to_payload(local))})
    return f, {"carrier": carrier, "blocks": blocks}


# Peak traced memory of verify_decomposition on the loaded decompositions of
# the test below, in n x n grids of the instance's cells, measured on the
# code before selections kept their positions, when the verify held P and I
# as grids (Python 3.11.7, numpy 2.4.6); 3.08 and 5.12 grids after.
PEAK_BEFORE = {"mat-r": 4.130, "rel-b4": 6.841}


@pytest.mark.parametrize("cat", [MAT_R, RelationCategory(b4())],
                         ids=lambda c: c.name)
def test_verifying_a_loaded_decomposition_holds_one_grid_less(cat):
    """At n=800 and B=50 a loaded decomposition's verify peaks at least
    one n x n grid below what it took when P and I were grids."""
    n = 800
    f, payload = planted_payload(cat, n, 50)
    dec = decomposition_from_dict(payload, cat)
    tracemalloc.start()
    try:
        report = verify_decomposition(cat, f, dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    grid = n * n * np.dtype(cat._dtype).itemsize
    assert peak <= (PEAK_BEFORE[cat.name] - 1) * grid


@pytest.mark.parametrize("cat", [MAT_R, RelationCategory(b4())],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("loaded", [True, False])
def test_combining_reports_the_first_mismatch_as_block_by_block(cat, loaded):
    """compose and sum name the lowest block that differs, its injection
    before its projection, and a later block's spaces only when every
    block before it matches."""
    f, payload = planted_payload(cat, 12, 4)
    dec = decomposition_from_dict(payload, cat)
    if not loaded:  # the same blocks held densely
        dec = SpectralDecomposition(dec.carrier, [
            Block(b.space, *(cat._arrow(np.array(a.values), a.source, a.target)
                             for a in (b.project, b.inject, b.local)))
            for b in dec.blocks])

    def changed(block: int, **arrows) -> SpectralDecomposition:
        blocks = list(dec.blocks)
        blocks[block - 1] = Block(**{**vars(blocks[block - 1]), **arrows})
        return SpectralDecomposition(dec.carrier, blocks)

    def zero_like(arrow):
        return cat.zero(arrow.source, arrow.target)

    b1, b3 = dec.blocks[0], dec.blocks[2]
    cases = [
        (changed(3, inject=zero_like(b3.inject)), "block 3: eigeninjections differ"),
        (changed(3, project=zero_like(b3.project)), "block 3: projections differ"),
        (changed(1, project=zero_like(b1.project)), "block 1: projections differ"),
        (changed(1, inject=zero_like(b1.inject), project=zero_like(b1.project)),
         "block 1: eigeninjections differ"),
        (changed(3, space=obj(cat, 1, "x")), "block 3: spaces differ"),
    ]
    cases.append((SpectralDecomposition(dec.carrier, [
        Block(**{**vars(cases[2][0].blocks[0])}), *cases[4][0].blocks[1:]]),
        "block 1: projections differ"))
    for other, message in cases:
        for combine in (compose_decompositions, sum_decompositions):
            for first, second in ((dec, other), (other, dec)):
                with pytest.raises(DecompositionError) as error:
                    combine(cat, first, second)
                assert str(error.value) == message
    total = sum_decompositions(cat, dec, dec)
    assert all(got.project is want.project and got.inject is want.inject
               for got, want in zip(total.blocks, dec.blocks))


# ---------------------------------------------------------------------------
# payloads written from positions

# chain(3) relabelled with labels that JSON escapes
ESCAPES = HeytingTable(['"bot"\n', "mid\\é", "top \x00"],
                       chain(3).meet, chain(3).join, name="escapes")
PAYLOAD_CASES = CASES + (RelationCategory(ESCAPES),)


def nested(payload, depth: int):
    """``payload`` at ``depth`` levels of a report's dicts and lists."""
    for _ in range(depth):
        payload = {"blocks": [{"project": payload}]}
    return payload


@settings(max_examples=400, deadline=None)
@given(data=st.data(), cat=st.sampled_from(PAYLOAD_CASES), n=st.integers(0, 5),
       m=st.integers(0, 5), depth=st.integers(0, 2))
@example(data=None, cat=MAT_R, n=3, m=1, depth=1)
def test_selection_payloads_encode_as_their_dense_twins(data, cat, n, m, depth):
    """A row selection's payload is its positions, and ``canonical_json``
    writes it as the stdlib writes its dense twin's lists, at any depth:
    blank rows, width 1, column forms, two units in one column or in one
    row, and empty grids included."""
    src, tgt = obj(cat, m, "x"), obj(cat, n, "y")
    if data is None:  # every row's unit in the one column
        form = _Selection(cat, np.zeros(n, np.intp), 0, (n, m))
        f, twin = cat._arrow(form, src, tgt), cat._arrow(form.grid(), src, tgt)
    else:
        f, twin = data.draw(arrows(cat, src, tgt))
    payload, want = cat.arrow_to_payload(f), listed(cat.arrow_to_payload(twin))
    by_positions = f._form is not None and n and m and f._form.along(0) is not None
    assert (type(payload) is _SelectionPayload) == bool(by_positions)
    assert listed(payload) == want
    assert canonical_json(nested(payload, depth)) == canonical_json_slow(
        nested(want, depth))
    assert _FALLBACK.encode(nested(payload, depth)) + "\n" == canonical_json_slow(
        nested(want, depth))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), cat=st.sampled_from(PAYLOAD_CASES),
       other=st.sampled_from(PAYLOAD_CASES), n=st.integers(0, 4),
       m=st.integers(0, 4), dn=st.integers(-1, 1), dm=st.integers(-1, 1))
def test_selection_payloads_are_read_back_in_process(data, cat, other, n, m,
                                                      dn, dm):
    """A selection payload reads back as the selection it spells, as its
    lists do; read with another shape or by another instance, it gives
    what its lists give."""
    src, tgt = obj(cat, m, "x"), obj(cat, n, "y")
    f, _ = data.draw(arrows(cat, src, tgt))
    payload = cat.arrow_to_payload(f)
    if type(payload) is not _SelectionPayload:
        return
    back = cat.arrow_from_payload(payload, src, tgt)
    assert_same_result(back, cat.arrow_from_payload(listed(payload), src, tgt))
    assert back._form is not None
    src2, tgt2 = obj(other, max(m + dm, 0), "x"), obj(other, max(n + dn, 0), "y")
    got = read_outcome(lambda: other.arrow_from_payload(payload, src2, tgt2))
    assert_same_outcome(got, read_outcome(
        lambda: other.arrow_from_payload(listed(payload), src2, tgt2)))


@pytest.mark.parametrize("cat", CASES, ids=lambda c: c.name)
def test_split_decompositions_round_trip_in_process(cat):
    f, payload = planted_payload(cat, 12, 4)
    _, dec = separate_components(f) if cat.exact else detect_blocks(f)
    written = decomposition_to_dict(dec, cat)
    assert all(type(b[key]) is _SelectionPayload
               for b in written["blocks"] for key in ("project", "inject"))
    back = decomposition_from_dict(written, cat)
    assert back.carrier == dec.carrier
    for got, want in zip(back.blocks, dec.blocks):
        assert got.space == want.space
        for a, b in ((got.project, want.project), (got.inject, want.inject),
                     (got.local, want.local)):
            assert a._form is not None or b._form is None
            assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("cat", [MAT_R, MAT_NN, MAT_C], ids=lambda c: c.name)
def test_saved_splits_load_as_forms_and_verify_by_gathers(monkeypatch, tmp_path, cat):
    """A ``detect_blocks`` split saved and loaded: every P and I carries a
    form whose grid is the old reader's with its zeros unsigned (a ``-0.0``
    written by hand into a real P reads as ``0.0``), and the loaded split
    verifies with no dense kernel."""
    f, _ = planted_payload(cat, 12, 4)
    _, dec = detect_blocks(f)
    path = tmp_path / "decomposition.json"
    save_decomposition_json(dec, cat, path)
    if not cat.domain.is_complex:
        payload = json.loads(path.read_text())
        row = payload["blocks"][0]["project"][0]
        row[row.index(0.0)] = -0.0
        path.write_text(json.dumps(payload))
    payload = json.loads(path.read_text())
    loaded = load_decomposition_json(path, cat)
    for got, raw in zip(loaded.blocks, payload["blocks"]):
        for key, src, tgt in (("project", 12, got.space), ("inject", got.space, 12)):
            arrow = getattr(got, key)
            assert arrow._form is not None
            assert_same_result(arrow, zeros_unsigned(
                cat, matrix_arrow_from_payload_slow(cat, raw[key], src, tgt)))
    if not cat.domain.is_complex:
        assert np.signbit(loaded.blocks[0].project.values).sum() == 0
    kernels = count_dense_kernels(monkeypatch)
    assert verify_decomposition(cat, f, loaded).passed
    assert kernels == []


@pytest.mark.parametrize("instance", ["rel", "mat-r"])
def test_writing_a_split_builds_none_of_its_selection_grids(monkeypatch, capsys,
                                                            tmp_path, instance):
    """``separate`` verifies and writes its blocks' P and I from their
    positions: no selection's grid is built."""
    cat = RelationCategory(bool_algebra()) if instance == "rel" else MAT_R
    f, _ = planted_payload(cat, 12, 4)
    path = tmp_path / "arrow"
    if cat.exact:
        path.write_text(canonical_json(RelationCategory(f.algebra).describe_arrow(f)))
    else:
        path.write_text("\n".join(",".join(map(repr, row))
                                  for row in f.values.tolist()) + "\n")
    built, grid = [], _Selection.grid
    monkeypatch.setattr(_Selection, "grid", lambda self: built.append(self) or grid(self))
    assert main(["separate", "--instance", instance, "--arrow", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["payload"]["decomposition"]["blocks"]) == 4
    assert built == []


def test_gathers_validate_nothing(monkeypatch):
    """A gather copies cells that were validated when their arrow was
    built, so ``ScalarDomain.validate`` runs only on kernel products."""
    f = ScalarMatrix(np.arange(12.0).reshape(3, 4), MAT_NN.domain)
    p = MAT_NN._arrow(_Selection(MAT_NN, np.array([2, -1, 0]), 0, (3, 3)), 3, 3)
    i = MAT_NN._arrow(_Selection(MAT_NN, np.array([3, 1]), 1, (4, 2)), 2, 4)
    calls = []
    monkeypatch.setattr(ScalarDomain, "validate",
                        lambda self, values: calls.append(values.shape))
    assert (p @ f).values.tolist() == [[8.0, 9.0, 10.0, 11.0], [0.0] * 4,
                                       [0.0, 1.0, 2.0, 3.0]]
    assert (f @ i).values.tolist() == [[3.0, 1.0], [7.0, 5.0], [11.0, 9.0]]
    assert calls == []
    f @ ScalarMatrix(np.full((4, 2), 2.0), MAT_NN.domain)  # a kernel product
    assert calls == [(4, 2), (3, 2)]

