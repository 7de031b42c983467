"""Block operations and the stacked decomposition verifier.

``stack``, ``costack``, ``block_sum`` and ``unstack`` are written once on
``core._GridCategory`` by concatenation and slicing; they must equal the
generic ``SemiadditiveCategory`` defaults built from ``fold_biproduct``.
So must ``compare_blocks``, which ``_GridCategory`` writes by comparing
cells and reducing them block by block.  ``verify_decomposition`` and
``fold_to_binary`` run on them and must give what the per-pair bodies in
``_oracles`` give, failing decompositions and counterexamples included;
the verifier's retract[i] is the oracle's a[i] and b[i,j] folded over row
band i.  Matrix entries are small integers, so every product and sum is
exact whatever order BLAS adds in; only the sign of an exact zero may
differ, which BLAS kernels choose by the shape of a product.
"""

import random
import weakref
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
    Block,
    LawCheck,
    LawReport,
    LRelation,
    RelationCategory,
    ScalarMatrix,
    SemiadditiveCategory,
    SpectralDecomposition,
    Tolerance,
    b4,
    bool_algebra,
    chain,
    detect_blocks,
    fold_to_binary,
    separate_components,
    verify_decomposition,
)
from specat import core, relations

from ._oracles import (fold_to_binary_slow, listed, public_type,
                       verify_decomposition_slow)
from .test_grid import (assert_same_arrow, foreign_arrow, foreign_message, obj,
                        other_value)

KINDS = {
    "rel": RelationCategory(bool_algebra()),
    "rel-b4": RelationCategory(b4()),
    "rel-chain64": RelationCategory(chain(64)),
    "mat-r": MAT_R,
    "mat-c": MAT_C,
    "mat-nn": MAT_NN,
}
# nonzero matrix entries; zeros come from the cells outside the blocks
ENTRIES = {
    "mat-r": [-2.0, -1.0, 1.0, 2.0, 3.0],
    "mat-c": [1.0, -2.0, 1j, 1 - 1j, 2 + 1j],
    "mat-nn": [1.0, 2.0, 3.0],
}
MUTATIONS = ("none", "local", "arrow", "swap", "borrow", "scale")


def regrid(cat, arrow, values):
    """``arrow``'s endpoints with another grid."""
    if cat.exact:
        return LRelation(cat.algebra, arrow.source, arrow.target, values)
    return ScalarMatrix(values, cat.domain)


def another_cell(cat, draw, value):
    """A cell value other than ``value``."""
    if cat.exact:
        k = len(cat.algebra.elements)
        return (int(value) + draw(st.integers(1, k - 1))) % k
    return value + draw(st.sampled_from(ENTRIES[cat.name]))


def changed_cell(cat, draw, arrow):
    """``arrow`` with one cell changed, or ``arrow`` if it has no cells."""
    values = np.array(arrow.values)
    if not values.size:
        return arrow
    r = draw(st.integers(0, values.shape[0] - 1))
    c = draw(st.integers(0, values.shape[1] - 1))
    values[r, c] = another_cell(cat, draw, values[r, c])
    return regrid(cat, arrow, values)


def scaled(cat, draw, arrow):
    """``arrow`` with its cells no longer 0/1 selections: doubled or
    negated matrices, relations met with a lattice element."""
    if cat.exact:
        element = draw(st.integers(0, len(cat.algebra.elements) - 1))
        return regrid(cat, arrow, cat.algebra.meet[arrow.values, element])
    factor = draw(st.sampled_from([2.0] if cat.domain.nonnegative else [2.0, -1.0]))
    return regrid(cat, arrow, arrow.values * factor)


def swapped(cat, first, second):
    """``second`` on ``first``'s endpoints when their grids fit, else
    ``second`` itself, which the verifier refuses for its endpoints."""
    if first.values.shape == second.values.shape:
        return regrid(cat, first, second.values)
    return second


@st.composite
def planted_case(draw):
    """(category, arrow, decomposition): a block arrow scattered over the
    carrier by a permutation, split by ``separate_components`` or
    ``detect_blocks``, then perhaps mutated, and perhaps with a block on the
    zero object inserted among the others."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    cat = KINDS[kind]
    sizes = draw(st.lists(st.integers(1, 3), max_size=4))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    if cat.exact:
        cells = st.integers(0, len(cat.algebra.elements) - 1)
        grid = np.full((n, n), cat.algebra.bottom, dtype=np.int16)
    else:
        cells = st.sampled_from(ENTRIES[kind] + [0.0])
        grid = np.zeros((n, n), dtype=cat.domain.dtype)
    start = 0
    for size in sizes:
        members = order[start:start + size]
        start += size
        for r in members:
            for c in members:
                grid[r, c] = draw(cells)
    if cat.exact:
        labels = tuple(f"v{i}" for i in range(n))
        f = LRelation(cat.algebra, labels, labels, grid)
        _, dec = separate_components(f)
    else:
        f = ScalarMatrix(grid, cat.domain)
        _, dec = detect_blocks(f)
    blocks = list(dec.blocks)
    mutation = draw(st.sampled_from(MUTATIONS))
    i = draw(st.integers(0, len(blocks) - 1))
    j = draw(st.integers(0, len(blocks) - 1))
    if mutation == "local":
        blocks[i] = Block(blocks[i].space, blocks[i].project, blocks[i].inject,
                          changed_cell(cat, draw, blocks[i].local))
    elif mutation == "arrow":
        f = changed_cell(cat, draw, f)
    elif mutation == "swap":
        pi, pj = blocks[i].project, blocks[j].project
        blocks[i] = Block(blocks[i].space, swapped(cat, pi, pj),
                          blocks[i].inject, blocks[i].local)
        blocks[j] = Block(blocks[j].space, swapped(cat, pj, pi),
                          blocks[j].inject, blocks[j].local)
    elif mutation == "borrow":
        blocks[i] = Block(blocks[i].space, blocks[i].project,
                          swapped(cat, blocks[i].inject, blocks[j].inject),
                          blocks[i].local)
    elif mutation == "scale":
        blocks[i] = Block(blocks[i].space, scaled(cat, draw, blocks[i].project),
                          blocks[i].inject, blocks[i].local)
    if draw(st.booleans()):
        # a block on the zero object, which every equation passes on
        z = cat.zero_object()
        blocks.insert(draw(st.integers(0, len(blocks))),
                      Block(z, cat.zero(dec.carrier, z), cat.zero(z, dec.carrier),
                            cat.zero(z, z)))
    return cat, f, SpectralDecomposition(dec.carrier, blocks, arrow=f)


def zero_signs_ignored(value):
    """``value`` with the complex entries that reports spell as text read
    back as numbers, which compare as real entries do: -0.0 == 0.0."""
    if isinstance(value, dict):
        return {k: zero_signs_ignored(v) for k, v in value.items()}
    if isinstance(value, list):
        return [zero_signs_ignored(v) for v in value]
    if isinstance(value, str) and value.endswith(("j", "j)")):
        return complex(value)
    return value


def outcome(verify, cat, f, dec, tol):
    """The report as a dict, or the type and text of the error raised."""
    try:
        return zero_signs_ignored(listed(verify(cat, f, dec, tol).to_dict()))
    except ArrowTypeError as exc:
        return type(exc), str(exc)


TOLERANCES = [None, Tolerance(0.0, 0.0), Tolerance(0.5, 0.0), Tolerance(0.0, 0.5)]


def band_example(cat, dec, i) -> dict:
    """Row band i of P.I and of the identity on its target, described."""
    space = dec.blocks[i].space
    lhs = cat.compose(dec.blocks[i].project,
                      cat.costack([b.inject for b in dec.blocks]))
    rhs = cat.costack([cat.identity(space) if j == i else cat.zero(b.space, space)
                       for j, b in enumerate(dec.blocks)])
    return {"lhs": cat.describe_arrow(lhs), "rhs": cat.describe_arrow(rhs)}


def folded_oracle(cat, f, dec, tol):
    """The per-pair oracle's report with a[i] and every b[i,j] folded into
    one retract[i] entry per row band i of P.I: it fails if any of them
    fails, its residual is theirs reduced by ``_residual_ufunc`` (max for
    matrices, the count of differing cells for relations), and its
    counterexample is the band.  The other entries are the oracle's, with
    every intertwine_project[i] before every intertwine_inject[i]."""
    report = verify_decomposition_slow(cat, f, dec, tol)
    checks = {c.law: c.to_dict() for c in report.checks}
    numbers = range(1, len(dec.blocks) + 1)
    entries = []
    for i in numbers:
        row = [checks[f"a[{i}]"]] + [checks[f"b[{i},{j}]"] for j in numbers
                                     if j != i]
        passed = all(c["passed"] for c in row)
        entries.append({
            "law": f"retract[{i}]", "passed": passed, "trials": 1,
            "max_residual": float(cat._residual_ufunc.reduce(
                [c["max_residual"] for c in row])),
            "counterexample": None if passed else band_example(cat, dec, i - 1)})
    entries += [checks["c"], checks["d"]]
    entries += [checks[f"intertwine_{side}[{i}]"]
                for side in ("project", "inject") for i in numbers]
    return LawReport([LawCheck(**entry) for entry in entries])


@settings(max_examples=400, deadline=None)
@given(case=planted_case(), tol=st.sampled_from(TOLERANCES))
def test_stacked_verifier_matches_the_per_pair_oracle(case, tol):
    cat, f, dec = case
    assert (outcome(verify_decomposition, cat, f, dec, tol)
            == outcome(folded_oracle, cat, f, dec, tol))


def count_composes(monkeypatch) -> list:
    """Counts every relation and matrix product, as the traced run does."""
    calls = []
    for cls in (LRelation, ScalarMatrix):
        product = cls.__matmul__

        def counted(g, f, product=product):
            calls.append(1)
            return product(g, f)

        monkeypatch.setattr(cls, "__matmul__", counted)
    return calls


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("count", [1, 2, 5])
def test_verifier_makes_five_plus_two_composes_per_block(monkeypatch, kind,
                                                         count):
    cat = KINDS[kind]
    if cat.exact:
        labels = tuple(f"v{i}" for i in range(2 * count))
        f = LRelation.from_pairs(cat.algebra, labels, labels,
                                 [(labels[2 * b], labels[2 * b + 1])
                                  for b in range(count)])
        _, dec = separate_components(f)
    else:
        f = ScalarMatrix(np.kron(np.eye(count), [[1.0, 2.0], [0.0, 1.0]]),
                         cat.domain)
        _, dec = detect_blocks(f)
    assert len(dec.blocks) == count
    calls = count_composes(monkeypatch)
    assert verify_decomposition(cat, f, dec).passed
    assert len(calls) == 5 + 2 * count
    calls.clear()
    verify_decomposition_slow(cat, f, dec)
    assert len(calls) == count * count + 7 * count


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("count", [1, 2, 5])
def test_verifier_builds_p_and_i_once(monkeypatch, kind, count):
    """One verify stacks twice, P and then L.P, and costacks twice, I and
    then I.L, whether blocks pass or fail."""
    cat = KINDS[kind]
    cls = type(cat)
    f, dec = block_case(cat, count)
    calls = []
    for name in ("stack", "costack"):
        def counted(self, arrows, name=name, method=getattr(cls, name)):
            calls.append(name)
            return method(self, arrows)

        monkeypatch.setattr(cls, name, counted)
    for case, passed in ((dec, True), (failing_projections(cat, dec), False)):
        calls.clear()
        assert verify_decomposition(cat, f, case).passed is passed
        assert calls == ["stack", "costack", "stack", "costack"]


def count_dense_kernels(monkeypatch) -> list:
    """Counts every call of the dense product kernels by name: the level
    cuts' product for relations, ``np.matmul`` for matrices (the level
    cuts run ``np.matmul`` too)."""
    calls = []
    cuts, matmul = relations._LevelCuts.compose, np.matmul

    def counted_cuts(self, g, f):
        calls.append("cuts")
        return cuts(self, g, f)

    def counted_matmul(*args, **kwargs):
        calls.append("matmul")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(relations._LevelCuts, "compose", counted_cuts)
    monkeypatch.setattr(np, "matmul", counted_matmul)
    return calls


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("count", [1, 2, 5])
def test_verifying_a_split_decomposition_runs_no_dense_kernel(monkeypatch, kind,
                                                              count):
    """Every product the verifier forms has a selection on one side, so
    each is a gather; the 5 + 2B composes stay 5 + 2B, failing projections
    included."""
    cat = KINDS[kind]
    f, dec = block_case(cat, count)
    composes = count_composes(monkeypatch)
    kernels = count_dense_kernels(monkeypatch)
    for case, passed in ((dec, True), (failing_projections(cat, dec), False)):
        composes.clear()
        assert verify_decomposition(cat, f, case).passed is passed
        assert len(composes) == 5 + 2 * count
    assert kernels == []


@pytest.mark.parametrize("kind, flaw", [
    (kind, flaw) for kind in sorted(KINDS)
    for flaw in ("none", "two units", "other value")
    if not (kind == "rel" and flaw == "other value")])
def test_a_near_selection_takes_the_dense_kernel(monkeypatch, kind, flaw):
    """A projection with a second unit in a row, or a cell that is neither
    blank nor the unit (2.0 for matrices, ``a`` or another middle element
    for relations), is no selection: its product runs the kernel once.  So
    does the exact selection held by a plain arrow: products read forms,
    not cells."""
    cat = KINDS[kind]
    _, dec = block_case(cat, 2)
    project = dec.blocks[0].project
    values = project.values.copy()
    if flaw == "two units":
        values[0, :] = cat._unit
    elif flaw == "other value":
        values[values == cat._unit] = other_value(cat)
    near = cat._arrow(values, project.source, project.target)
    units = cat._arrow(np.full((4, 3), cat._unit, cat._dtype),
                       obj(cat, 3, "x"), project.source)
    kernels = count_dense_kernels(monkeypatch)
    project @ units
    assert kernels == []
    near @ units
    assert kernels.count("cuts" if cat.exact else "matmul") == 1


def block_case(cat, count):
    """(arrow, decomposition): ``count`` blocks of two positions each, as
    the compose-count test above builds them."""
    if cat.exact:
        labels = tuple(f"v{i}" for i in range(2 * count))
        f = LRelation.from_pairs(cat.algebra, labels, labels,
                                 [(labels[2 * b], labels[2 * b + 1])
                                  for b in range(count)])
        _, dec = separate_components(f)
    else:
        f = ScalarMatrix(np.kron(np.eye(count), [[1.0, 2.0], [0.0, 1.0]]),
                         cat.domain)
        _, dec = detect_blocks(f)
    assert len(dec.blocks) == count
    return f, dec


def failing_projections(cat, dec):
    """``dec`` with every projection zero: each retract[i] fails, and c and d."""
    return SpectralDecomposition(dec.carrier, [
        Block(b.space, cat.zero(dec.carrier, b.space), b.inject, b.local)
        for b in dec.blocks])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_verifier_compares_once_per_product_whatever_the_block_count(
        monkeypatch, kind):
    """The per-cell comparison hooks run as often for 20 blocks as for one
    (every grid here fits one band of rows), and a failing law is described
    once: its lhs and rhs, at its first failure."""
    cat = KINDS[kind]
    calls = {"kernels": 0, "describe": 0}

    def counting(name, counter):
        method = getattr(type(cat), name)

        def counted(self, *args):
            calls[counter] += 1
            return method(self, *args)

        monkeypatch.setattr(type(cat), name, counted)

    counting("_cell_equal", "kernels")
    counting("_cell_residual", "kernels")
    counting("describe_arrow", "describe")
    kernels = set()
    for count in (1, 2, 5, 20):
        f, dec = block_case(cat, count)
        for case in (dec, failing_projections(cat, dec)):
            calls.update(kernels=0, describe=0)
            report = verify_decomposition(cat, f, case)
            kernels.add(calls["kernels"])
            failing = len(report.failures())
            assert failing == (0 if case is dec else count + 2)
            assert calls["describe"] == 2 * failing
            assert len(report.checks) == 3 * count + 2
    assert len(kernels) == 1


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("count", [1, 2, 5, 20])
def test_verifier_reports_one_entry_per_block(kind, count):
    cat = KINDS[kind]
    f, dec = block_case(cat, count)
    numbers = range(1, count + 1)
    laws = ([f"retract[{i}]" for i in numbers] + ["c", "d"]
            + [f"intertwine_project[{i}]" for i in numbers]
            + [f"intertwine_inject[{i}]" for i in numbers])
    for case in (dec, failing_projections(cat, dec)):
        report = verify_decomposition(cat, f, case)
        assert [c.law for c in report.checks] == laws
        assert len(laws) == 3 * count + 2


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_verifier_drops_every_product_before_forming_the_last(monkeypatch,
                                                               kind):
    """P.I, I.P, L.P, I.(L.P) and P.f are all freed by the time f.I is
    composed, whether blocks pass or fail (zero projections fail a, c and
    d; zero locals fail d and the intertwining): a failing block is
    described when its product is compared, not kept for later.  Of the
    stacked grids, P, I, L.P and I.L, only I and I.L are still alive then:
    I.L is stacked before f.I is formed."""
    cat = KINDS[kind]
    cls = type(cat)
    compose, stack, costack = cls.compose, cls.stack, cls.costack
    f, dec = block_case(cat, 3)
    zero_locals = SpectralDecomposition(dec.carrier, [
        Block(b.space, b.project, b.inject, cat.zero(b.space, b.space))
        for b in dec.blocks])
    for case in (dec, failing_projections(cat, dec), zero_locals):
        projects = [b.project for b in case.blocks]
        stacked, products, at_last = [], [], []

        def tracked_stack(self, arrows, make=stack):
            arrows = list(arrows)
            out = make(self, arrows)
            stacked.append(weakref.ref(out.values))
            if make is stack and any(a is not p for a, p in zip(arrows, projects)):
                products.append(weakref.ref(out.values))  # L.P
            return out

        def tracked_compose(self, g, h):
            if g is f:  # f.I
                at_last.append((len(products),
                                sum(ref() is not None for ref in products),
                                [ref() is h.values for ref in stacked
                                 if ref() is not None]))
            out = compose(self, g, h)
            if h is f or any(ref() is v for ref in stacked
                             for v in (g.values, h.values)):
                products.append(weakref.ref(out.values))
            return out

        monkeypatch.setattr(cls, "compose", tracked_compose)
        monkeypatch.setattr(cls, "stack", tracked_stack)
        monkeypatch.setattr(cls, "costack",
                            lambda self, arrows: tracked_stack(self, arrows, costack))
        report = verify_decomposition(cat, f, case)
        monkeypatch.undo()
        assert report.passed is (case is dec)
        assert at_last == [(5, 0, [True, False])] and len(stacked) == 4


# ---------------------------------------------------------------------------
# fold_to_binary


@st.composite
def random_blocks_case(draw):
    """(category, decomposition) of random blocks drawn by the sampler, on
    empty objects too; it need not decompose anything."""
    cat = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    sampler = cat.default_sampler(3)
    carrier = obj(cat, draw(st.integers(0, 3)), "c")
    blocks = []
    for b, size in enumerate(draw(st.lists(st.integers(0, 3), min_size=1,
                                           max_size=4))):
        space = obj(cat, size, f"s{b}.")
        blocks.append(Block(space, sampler.random_arrow(rng, carrier, space),
                            sampler.random_arrow(rng, space, carrier),
                            sampler.random_arrow(rng, space, space)))
    return cat, SpectralDecomposition(carrier, blocks)


def assert_same_decomposition(got, want) -> None:
    assert got.carrier == want.carrier and got.arrow is want.arrow
    assert len(got.blocks) == len(want.blocks) == 2
    for got_block, want_block in zip(got.blocks, want.blocks):
        assert got_block.space == want_block.space
        for name in ("project", "inject", "local"):
            got_arrow = getattr(got_block, name)
            want_arrow = getattr(want_block, name)
            if got_arrow is not want_arrow:
                assert_same_arrow(got_arrow, want_arrow, fresh=True)


def well_typed(dec) -> bool:
    return all(b.project.source == b.inject.target == dec.carrier
               and b.project.target == b.inject.source == b.space
               and b.local.source == b.local.target == b.space
               for b in dec.blocks)


@settings(max_examples=200, deadline=None)
@given(planted_case())
def test_fold_to_binary_matches_the_witness_oracle_on_planted_blocks(case):
    """Swapped or borrowed arrows that do not fit their block are refused,
    as the verifier refuses them; the oracle failed on them by chance."""
    cat, _, dec = case
    if len(dec.blocks) != 2 and not well_typed(dec):
        with pytest.raises(ArrowTypeError, match=r"^block \d+: "):
            fold_to_binary(cat, dec)
        return
    assert_same_decomposition(fold_to_binary(cat, dec),
                              fold_to_binary_slow(cat, dec))


@settings(max_examples=200, deadline=None)
@given(random_blocks_case())
def test_fold_to_binary_matches_the_witness_oracle_on_random_blocks(case):
    cat, dec = case
    assert_same_decomposition(fold_to_binary(cat, dec),
                              fold_to_binary_slow(cat, dec))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("size", [0, 2])
def test_fold_pads_one_block_as_the_oracle_does(kind, size):
    cat = KINDS[kind]
    space = obj(cat, size)
    ident = cat.identity(space)
    dec = SpectralDecomposition(space, (Block(space, ident, ident, ident),),
                                arrow=ident)
    got = fold_to_binary(cat, dec)
    assert_same_decomposition(got, fold_to_binary_slow(cat, dec))
    assert got.blocks[1].space == cat.zero_object()


# ---------------------------------------------------------------------------
# block operations against the generic defaults


def assert_equal_arrows(got, want) -> None:
    """Same class, endpoints, dtype and values; layouts may differ."""
    assert public_type(got) is public_type(want)
    assert (got.source, got.target) == (want.source, want.target)
    assert got.values.dtype == want.values.dtype
    assert np.array_equal(got.values, want.values)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), m=st.integers(0, 3),
       sizes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_grid_block_operations_equal_the_generic_defaults(kind, m, sizes, seed):
    cat = KINDS[kind]
    rng = random.Random(seed)
    sampler = cat.default_sampler()
    x = obj(cat, m, "x")
    ys = [obj(cat, a, f"y{i}.") for i, (a, _) in enumerate(sizes)]
    zs = [obj(cat, b, f"z{i}.") for i, (_, b) in enumerate(sizes)]
    families = {
        "stack": [sampler.random_arrow(rng, x, y) for y in ys],
        "costack": [sampler.random_arrow(rng, y, x) for y in ys],
        "block_sum": [sampler.random_arrow(rng, y, z) for y, z in zip(ys, zs)],
    }
    for name, arrows in families.items():
        assert_same_arrow(getattr(cat, name)(arrows),
                          getattr(SemiadditiveCategory, name)(cat, arrows),
                          fresh=True)
    whole = sampler.random_arrow(rng, cat.block_sum(families["block_sum"]).source,
                                 cat.block_sum(families["block_sum"]).target)
    for targets, sources in ((zs, ys), ([whole.target], ys), (zs, [whole.source])):
        got = cat.unstack(whole, targets, sources)
        want = SemiadditiveCategory.unstack(cat, whole, targets, sources)
        assert [len(row) for row in got] == [len(row) for row in want]
        for got_row, want_row in zip(got, want):
            for got_block, want_block in zip(got_row, want_row):
                assert_equal_arrows(got_block, want_block)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_block_operations_refuse_foreign_arrows(kind):
    """Checked before any grid is copied: a complex block must not turn a
    real stack complex."""
    cat = KINDS[kind]
    rng = random.Random(5)
    sampler = cat.default_sampler()
    x, y = obj(cat, 2, "x"), obj(cat, 1, "y")
    into, out = sampler.random_arrow(rng, x, y), sampler.random_arrow(rng, y, x)
    message = foreign_message(cat)
    for name, arrows in (("stack", [into, foreign_arrow(cat, into)]),
                         ("costack", [foreign_arrow(cat, out), out]),
                         ("block_sum", [into, foreign_arrow(cat, out)])):
        with pytest.raises(ArrowTypeError, match=message):
            getattr(cat, name)(arrows)
    with pytest.raises(ArrowTypeError, match=message):
        cat.unstack(foreign_arrow(cat, into), [y], [x])


@pytest.mark.parametrize("kind", ["rel-b4", "mat-r"])
def test_block_operations_check_how_the_arrows_fit(kind):
    cat = KINDS[kind]
    x, y = obj(cat, 2, "x"), obj(cat, 1, "y")
    with pytest.raises(ArrowTypeError, match="must share their source"):
        cat.stack([cat.zero(x, y), cat.zero(y, y)])
    with pytest.raises(ArrowTypeError, match="must share their target"):
        cat.costack([cat.zero(y, x), cat.zero(y, y)])
    with pytest.raises(ArrowTypeError, match="stack to 1 positions, not 2"):
        cat.unstack(cat.zero(x, x), [y], [x])
    with pytest.raises(ArrowTypeError, match="stack to 3 positions, not 2"):
        cat.unstack(cat.zero(x, x), [x], [x, y])


def stacked_objects(cat, objects):
    """The object the family stacks to."""
    return cat.costack([cat.zero(x, obj(cat, 0)) for x in objects]).source


def perturbed(cat, rng, arrow):
    """``arrow`` with a few cells moved: relations to another element,
    matrices by an absolute or a relative step, within or beyond 0.5."""
    values = np.array(arrow.values)
    for _ in range(rng.randrange(4) if values.size else 0):
        r, c = rng.randrange(values.shape[0]), rng.randrange(values.shape[1])
        if cat.exact:
            k = len(cat.algebra.elements)
            values[r, c] = (int(values[r, c]) + rng.randrange(1, k)) % k
        elif rng.random() < 0.5:
            values[r, c] += rng.choice([0.25, 2.0])
        else:
            values[r, c] *= rng.choice([1.5, 4.0])
    return regrid(cat, arrow, values)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)),
       rows=st.lists(st.integers(0, 3), min_size=1, max_size=4),
       cols=st.lists(st.integers(0, 3), min_size=1, max_size=4),
       tol=st.sampled_from(TOLERANCES),
       band_cells=st.sampled_from([1, 5, core._BAND_CELLS]),
       seed=st.integers(0, 2 ** 16))
def test_grid_block_comparison_equals_the_generic_default(kind, rows, cols, tol,
                                                          band_cells, seed):
    """Zero-size targets and sources among the others read residual 0 and
    pass; the residuals are the per-block ones exactly, however many bands
    of rows the grids are compared in."""
    cat = KINDS[kind]
    rng = random.Random(seed)
    targets = [obj(cat, size, f"t{i}.") for i, size in enumerate(rows)]
    sources = [obj(cat, size, f"s{i}.") for i, size in enumerate(cols)]
    got = cat.default_sampler().random_arrow(
        rng, stacked_objects(cat, sources), stacked_objects(cat, targets))
    for want in (got, perturbed(cat, rng, got)):
        with mock.patch.object(core, "_BAND_CELLS", band_cells):
            residuals, passed = cat.compare_blocks(got, want, targets, sources,
                                                   tol)
        generic = SemiadditiveCategory.compare_blocks(cat, got, want, targets,
                                                      sources, tol)
        for value, expected in zip((residuals, passed), generic):
            assert value.shape == (len(targets), len(sources))
            assert value.dtype == expected.dtype
            assert np.array_equal(value, expected)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("generic", [False, True])
def test_block_operations_refuse_empty_families(kind, generic):
    cat = KINDS[kind]
    ops = SemiadditiveCategory if generic else type(cat)
    x = obj(cat, 2)
    f = cat.identity(x)
    for name in ("stack", "costack", "block_sum"):
        with pytest.raises(ArrowTypeError, match=f"^{name}: no arrows$"):
            getattr(ops, name)(cat, [])
    for targets, sources, missing in (([], [], "targets"), ([], [x], "targets"),
                                      ([x], [], "sources")):
        with pytest.raises(ArrowTypeError, match=f"^unstack: no {missing}$"):
            ops.unstack(cat, f, targets, sources)
        with pytest.raises(ArrowTypeError,
                           match=f"^compare_blocks: no {missing}$"):
            ops.compare_blocks(cat, f, f, targets, sources)
