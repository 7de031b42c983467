"""One grid algebra for both shipped instances, against the per-instance
bodies it replaced (``_oracles.RelationAlgebraSlow``, ``MatrixAlgebraSlow``).

Zero arrows, identities, canonical witnesses, restrict, equal and residual
are written once on ``core._GridCategory``; every arrow they build must
match the old one in values, dtype, shape, memory layout and endpoints, and
a foreign arrow must be refused with the per-arrow message.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specat import (
    MAT_C,
    MAT_NN,
    MAT_R,
    ArrowTypeError,
    LRelation,
    RelationCategory,
    ScalarMatrix,
    Tolerance,
    b4,
    bool_algebra,
    chain,
)
from specat import core
from specat.matrices import COMPLEX, REAL

from ._oracles import MatrixAlgebraSlow, RelationAlgebraSlow, public_type

CASES = (RelationCategory(bool_algebra()), RelationCategory(b4()),
         RelationCategory(chain(64)), MAT_R, MAT_C, MAT_NN)
TOLERANCES = (None, Tolerance(0.0, 0.0), Tolerance(0.5, 0.0))


def oracle_for(cat):
    if cat.exact:
        return RelationAlgebraSlow(cat.algebra)
    return MatrixAlgebraSlow(cat.domain)


def obj(cat, size: int, tag: str = "v"):
    return tuple(f"{tag}{i}" for i in range(size)) if cat.exact else size


def foreign_arrow(cat, f):
    """``f``'s grid as an arrow over another algebra or domain."""
    if cat.exact:
        other = chain(3) if cat.algebra != chain(3) else b4()
        return LRelation(other, f.source, f.target,
                         np.minimum(f.values, len(other.elements) - 1))
    if cat.domain == COMPLEX:
        return ScalarMatrix(f.values.real, REAL)
    return ScalarMatrix(f.values, COMPLEX)


def foreign_message(cat) -> str:
    if cat.exact:
        return "relations live over different algebras"
    return "domain mismatch"


def assert_same_arrow(got, want, fresh: bool) -> None:
    """Same class, endpoints, values, dtype, shape and layout.

    A fresh grid must be laid out as numpy copies the old one (relation
    injections used to be transposed views of their projections; a copy of
    such a view keeps its layout); a sub-grid keeps the old strides as they
    are, views included.
    """
    assert public_type(got) is public_type(want)
    assert (got.source, got.target) == (want.source, want.target)
    assert got.values.dtype == want.values.dtype
    assert got.values.shape == want.values.shape
    layout = np.array(want.values) if fresh else want.values
    assert got.values.strides == layout.strides
    assert np.array_equal(got.values, want.values)
    assert not got.values.flags.writeable
    if hasattr(want, "domain"):
        assert got.domain == want.domain
    else:
        assert got.algebra == want.algebra


def c_ordered(cat, f):
    """The dense arrow holding a C-ordered copy of ``f``'s grid, as a
    selection form lays out its grid whatever its axis."""
    return cat._arrow(np.array(f.values, order="C"), f.source, f.target)


positions = st.one_of(st.none(), st.lists(st.integers(0, 3), unique=True,
                                          max_size=4))


@settings(max_examples=120, deadline=None)
@given(cat=st.sampled_from(CASES), m=st.integers(0, 4), n=st.integers(0, 4),
       rows=positions, cols=positions, tol=st.sampled_from(TOLERANCES),
       seed=st.integers(0, 2 ** 16))
def test_grid_algebra_matches_the_per_instance_bodies(cat, m, n, rows, cols,
                                                      tol, seed):
    oracle = oracle_for(cat)
    x, y = obj(cat, m), obj(cat, n, "w")
    for name, args in (("zero", (x, y)), ("zero", (y, x)),
                       ("identity", (x,)), ("identity", (y,))):
        assert_same_arrow(getattr(cat, name)(*args),
                          getattr(oracle, name)(*args), fresh=True)
    got, want = cat.canonical_biproduct(x, y), oracle.canonical_biproduct(x, y)
    assert (got.left, got.right, got.carrier) == \
        (want.left, want.right, want.carrier)
    for name in ("pi1", "pi2"):
        assert_same_arrow(getattr(got, name), getattr(want, name), fresh=True)
    for name in ("iota1", "iota2"):  # built from their positions
        assert_same_arrow(getattr(got, name), c_ordered(cat, getattr(want, name)),
                          fresh=True)

    rng = random.Random(seed)
    sampler = cat.default_sampler()
    f, g = (sampler.random_arrow(rng, x, y) for _ in range(2))
    rows = None if rows is None else [i for i in rows if i < n]
    cols = None if cols is None else [j for j in cols if j < m]
    assert_same_arrow(cat.restrict(f, rows, cols),
                      oracle.restrict(f, rows, cols), fresh=False)

    for a, b in ((f, g), (f, f), (g, f), (f, cat.zero(x, y)),
                 (cat.identity(x), cat.zero(x, x))):
        assert cat.equal(a, b, tol) is oracle.equal(a, b, tol)
        assert cat.residual(a, b) == oracle.residual(a, b)
    if m != n:
        assert cat.equal(f, cat.zero(y, x), tol) is False

    foreign, message = foreign_arrow(cat, f), foreign_message(cat)
    for a, b in ((foreign, f), (f, foreign)):
        for method in ("equal", "residual"):
            with pytest.raises(ArrowTypeError, match=message) as want_error:
                getattr(oracle, method)(a, b)
            with pytest.raises(ArrowTypeError) as got_error:
                getattr(cat, method)(a, b)
            assert str(got_error.value) == str(want_error.value)
    # the old restrict bodies did not check, so there is no oracle to match
    with pytest.raises(ArrowTypeError, match=message):
        cat.restrict(foreign, rows, cols)


# small entries with exact zeros; mat-nn's stay nonnegative when moved
ENTRIES = {"mat-r": [0.0, -2.0, -1.0, 1.0, 2.5], "mat-c": [0, 1, -2, 1j, 1 - 1j],
           "mat-nn": [0.0, 1.0, 2.0, 3.5]}
STEPS = (lambda v: v + 1e-12, lambda v: v + 0.25, lambda v: v + 2.0,
         lambda v: v * 1.5, lambda v: v * 4.0)


def random_cells(cat, rng, shape) -> np.ndarray:
    if cat.exact:
        return rng.integers(0, len(cat.algebra.elements), shape).astype(np.int16)
    return rng.choice(np.array(ENTRIES[cat.name], cat._dtype), shape)


def moved_cells(cat, rng, values) -> np.ndarray:
    """``values`` with a few cells moved: relations to another element,
    matrices by a step within the default tolerance, or within or beyond
    0.5, absolute or relative."""
    values = values.copy()
    flat = values.reshape(-1)
    for i in rng.integers(0, flat.size, rng.integers(0, 4)) if flat.size else ():
        if cat.exact:
            k = len(cat.algebra.elements)
            flat[i] = (int(flat[i]) + rng.integers(1, k)) % k
        else:
            flat[i] = STEPS[rng.integers(len(STEPS))](flat[i])
    return values


def assert_same_values(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(cat=st.sampled_from(CASES), lead=st.lists(st.integers(0, 3), max_size=2),
       rows=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       cols=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       tol=st.sampled_from(TOLERANCES + (Tolerance(0.0, 0.5),)),
       band_cells=st.sampled_from([1, 5, core._BAND_CELLS]),
       seed=st.integers(0, 2 ** 16))
def test_comparisons_from_cell_hooks_match_the_per_instance_kernels(
        cat, lead, rows, cols, tol, band_cells, seed):
    """The padded batches' ``compare`` on grids with leading batch axes,
    ``equal`` and ``residual`` on each of those grids, and ``compare_blocks``
    block by block, which the grid base derives from the per-cell hooks,
    give what each instance's own per-grid kernels gave: values, dtype and
    shape."""
    oracle = oracle_for(cat)
    rng = np.random.default_rng(seed)
    a = random_cells(cat, rng, (*lead, sum(rows), sum(cols)))
    source, target = obj(cat, sum(cols), "s"), obj(cat, sum(rows), "t")
    batches = cat._batches()
    for x, y in ((a, a), (a, moved_cells(cat, rng, a))):
        for p, q in ((x, y), (y, x)):
            residuals, passed = batches.compare(
                core._Stack(None, None, p), core._Stack(None, None, q), tol)
            assert_same_values(passed, oracle.equal_cells(p, q, tol))
            assert_same_values(residuals, oracle.residual_cells(p, q))
            for i in np.ndindex(*lead):
                f, g = (cat._arrow(v[i], source, target) for v in (p, q))
                with mock.patch.object(core, "_BAND_CELLS", band_cells):
                    equal, residual = cat.equal(f, g, tol), cat.residual(f, g)
                assert equal is bool(oracle.equal_cells(p[i], q[i], tol))
                assert type(residual) is float
                assert residual == oracle.residual_cells(p[i], q[i])

    targets = [obj(cat, n, f"t{i}.") for i, n in enumerate(rows)]
    sources = [obj(cat, n, f"s{i}.") for i, n in enumerate(cols)]
    row_ends = np.cumsum([0] + rows)
    col_ends = np.cumsum([0] + cols)
    got = random_cells(cat, rng, (sum(rows), sum(cols)))
    for want in (got.copy(), moved_cells(cat, rng, got)):
        blocks = [[(got[r0:r1, c0:c1], want[r0:r1, c0:c1])
                   for c0, c1 in zip(col_ends, col_ends[1:])]
                  for r0, r1 in zip(row_ends, row_ends[1:])]
        arrows = [cat._arrow(v, obj(cat, sum(cols), "s"), obj(cat, sum(rows), "t"))
                  for v in (got, want)]
        with mock.patch.object(core, "_BAND_CELLS", band_cells):
            residuals, passed = cat.compare_blocks(*arrows, targets, sources, tol)
        assert_same_values(residuals, [[oracle.residual_cells(*pair) for pair in row]
                                       for row in blocks])
        assert_same_values(passed, [[oracle.equal_cells(*pair, tol) for pair in row]
                                    for row in blocks])


@pytest.mark.parametrize("cat, f, g, message", [
    (MAT_R, ScalarMatrix([[1, 2]]), ScalarMatrix([[1, 2], [3, 5]]), "1x2 and 2x2"),
    (MAT_R, ScalarMatrix([[1, 2, 3]]), ScalarMatrix([[1, 2], [3, 5]]), "1x3 and 2x2"),
    (MAT_C, ScalarMatrix.zeros(2, 0, COMPLEX), ScalarMatrix.zeros(0, 2, COMPLEX),
     "2x0 and 0x2"),
    (RelationCategory(b4()), LRelation.zero(b4(), ("x",), ("y",)),
     LRelation.zero(b4(), ("x",), ("y", "z")), "1x1 and 2x1"),
], ids=["mat-broadcast", "mat-1x3", "mat-c-empty", "rel"])
def test_residual_refuses_mismatched_grids(cat, f, g, message):
    # numpy would broadcast the first pair to a residual of 3.0
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ArrowTypeError, match="compare_blocks: the arrows' grids"):
            cat.residual(a, b)
    with pytest.raises(ArrowTypeError, match=message):
        cat.residual(f, g)
    assert cat.equal(f, g) is False


def test_equal_shaped_relations_over_different_carriers_are_not_equal():
    cat = RelationCategory(b4())
    f = cat.identity(("a", "b"))
    for g in (cat.identity(("c", "d")), cat._arrow(f.values, ("a", "b"), ("b", "a"))):
        assert np.array_equal(f.values, g.values)
        for tol in TOLERANCES:
            assert cat.equal(f, g, tol) is False
            assert cat.equal(g, f, tol) is False
    assert cat.equal(f, cat.identity(("a", "b"))) is True


@pytest.mark.parametrize("build", [
    lambda: MAT_R.zero(-1, 2), lambda: MAT_R.zero(2, -1),
    lambda: MAT_R.identity(-3), lambda: MAT_NN.canonical_biproduct(1, -1),
    lambda: ScalarMatrix.zeros(-1, 0), lambda: ScalarMatrix.identity(-1, COMPLEX),
], ids=["zero-src", "zero-tgt", "identity", "witness", "zeros", "eye"])
def test_negative_dimension_raises_the_witness_error(build):
    with pytest.raises(ArrowTypeError, match="dimensions must be non-negative"):
        build()


def test_restricting_everything_is_a_view_of_the_same_grid():
    f = ScalarMatrix([[1.0, 2.0], [3.0, 4.0]])
    whole = MAT_R.restrict(f, None, None)
    assert np.shares_memory(whole.values, f.values)
    assert not np.shares_memory(MAT_R.restrict(f, [0, 1], None).values, f.values)


def test_generalized_relation_witness_composes_onto_the_canonical_one():
    cat = RelationCategory(bool_algebra())
    swap = LRelation.from_pairs(bool_algebra(), ("a", "b"), ("a", "b"),
                                [("a", "b"), ("b", "a")])
    canonical = cat.canonical_biproduct(("a", "b"), ("c",))
    w = cat.generalized_biproduct(("a", "b"), ("c",), left_iso=swap)
    assert w.carrier == canonical.carrier
    assert w.pi1 == swap @ canonical.pi1
    assert w.iota1 == w.pi1.converse()
    assert w.pi2 == canonical.pi2


def other_value(cat):
    """A cell that is neither blank nor the unit, if the instance has one."""
    if cat.exact:
        others = set(range(len(cat.algebra.elements))) - {cat._blank, cat._unit}
        return min(others, default=None)
    return 2.0
