"""Property-based checks of the algebraic invariants."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from specat import (
    MAT_C,
    MAT_NN,
    MAT_R,
    HeytingTable,
    LatticeError,
    LRelation,
    Partition,
    PreconditionError,
    RelationCategory,
    ScalarMatrix,
    b4,
    bool_algebra,
    chain,
    check_biproduct_axioms,
    coarsest_equitable_partition,
    copair,
    detect_blocks,
    pair,
    reduced_transition_matrix,
    relations,
    separate_components,
    sum_via_biproduct,
    verify_decomposition,
)

from ._oracles import (
    coarsest_equitable_rounds,
    compose_relations_slow,
    detect_blocks_slow,
    equitable_degrees_slow,
    join_relations_slow,
    lattice_law_violation_slow,
    random_matrix_slow,
    random_relation_slow,
    relation_from_payload_slow,
    separate_components_slow,
    spell_slow,
)


def product_lattice(left, right) -> HeytingTable:
    """The product lattice, from componentwise meet and join tables."""
    pairs = [(i, j) for i in range(len(left.elements))
             for j in range(len(right.elements))]
    pos = {p: n for n, p in enumerate(pairs)}
    meet = [[pos[left.meet_of(x[0], y[0]), right.meet_of(x[1], y[1])]
             for y in pairs] for x in pairs]
    join = [[pos[left.join_of(x[0], y[0]), right.join_of(x[1], y[1])]
             for y in pairs] for x in pairs]
    labels = [f"{left.label(i)},{right.label(j)}" for i, j in pairs]
    return HeytingTable(labels, meet, join, name="product")


# chain(1) has no join-irreducible levels, chain(64) has 63, and the product
# of chain(2) and chain(3) is distributive but neither a chain nor Boolean
ALGEBRAS = (bool_algebra(), b4(), chain(3), chain(1), chain(64),
            product_lattice(chain(2), chain(3)))


def carriers(prefix: str, max_size: int = 4):
    return st.integers(min_value=0, max_value=max_size).map(
        lambda n: tuple(f"{prefix}{i}" for i in range(n)))


@st.composite
def relation_between(draw, algebra, source, target):
    k = len(algebra.elements)
    grid = draw(st.lists(
        st.lists(st.integers(0, k - 1), min_size=len(source),
                 max_size=len(source)),
        min_size=len(target), max_size=len(target)))
    return LRelation(algebra, source, target,
                     np.array(grid, dtype=np.int16).reshape(len(target),
                                                            len(source)))


@st.composite
def down_set_lattice(draw, max_points: int = 5):
    """The lattice of down-sets of a random poset on at most ``max_points``
    points, its elements in a random order.  By Birkhoff's representation
    theorem every finite distributive lattice arises this way."""
    n = draw(st.integers(0, max_points))
    below = [[i < j and draw(st.booleans()) for j in range(n)]
             for i in range(n)]
    for m in range(n):
        for i in range(n):
            for j in range(n):
                below[i][j] = below[i][j] or (below[i][m] and below[m][j])
    down_sets = [s for s in range(1 << n)
                 if all(s >> i & 1 for j in range(n) if s >> j & 1
                        for i in range(n) if below[i][j])]
    order = draw(st.permutations(down_sets))
    pos = {s: p for p, s in enumerate(order)}
    meet = [[pos[a & b] for b in order] for a in order]
    join = [[pos[a | b] for b in order] for a in order]
    labels = ["{" + ",".join(str(i) for i in range(n) if s >> i & 1) + "}"
              for s in order]
    return HeytingTable(labels, meet, join, name=f"down-sets-{n}")


SPELL_ALGEBRAS = (bool_algebra(), b4(), chain(64),
                  product_lattice(chain(2), chain(3)))


@st.composite
def spelled_relation(draw):
    algebra = draw(st.sampled_from(SPELL_ALGEBRAS))
    return draw(relation_between(algebra, draw(carriers("a", 6)),
                                 draw(carriers("b", 6))))


@settings(max_examples=300, deadline=None)
@given(spelled_relation())
@example(LRelation(b4(), ("a0", "a1", "a2"), (), []))
@example(LRelation(chain(64), (), ("b0", "b1"), [[], []]))
def test_relations_are_spelled_as_the_cell_loop_spells_them(f):
    want = spell_slow(f.algebra, f.values)
    got = f.algebra.spell(f.values)
    assert got == want
    assert all(type(label) is str for row in got for label in row)
    assert RelationCategory(f.algebra).arrow_to_payload(f) == want
    assert repr(f) == (f"LRelation({f.algebra.name!r}, source={f.source!r}, "
                       f"target={f.target!r}, values={want!r})")


@pytest.mark.parametrize("algebra", SPELL_ALGEBRAS, ids=lambda a: a.name)
def test_lattice_tables_are_spelled_as_the_cell_loop_spells_them(algebra):
    table = algebra.to_dict()
    assert table["meet"] == spell_slow(algebra, algebra.meet)
    assert table["join"] == spell_slow(algebra, algebra.join)


@st.composite
def relation_payload(draw):
    """A JSON relation grid over one of the spelled algebras: mostly labels,
    sometimes mixed with the numbers, bools, nulls, lists and unknown labels
    that are read through ``str``, with rows of the wrong length now and then
    and carriers that may repeat a label."""
    algebra = draw(st.sampled_from(SPELL_ALGEBRAS))
    cells = st.sampled_from(algebra.elements)
    if draw(st.booleans()):
        cells = st.one_of(cells, st.integers(-1, 2),
                          st.sampled_from([0.0, 1.0, 0.5, -0.0]), st.booleans(),
                          st.none(), st.lists(st.sampled_from(["a", 1]), max_size=2),
                          st.sampled_from(["zz", "True", "None"]))

    def carrier() -> tuple:
        return tuple(draw(st.lists(st.sampled_from("pqrs"), max_size=4,
                                   unique=draw(st.integers(0, 3)) > 0)))

    def length(n: int) -> int:
        return max(n + draw(st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1])), 0)

    src, tgt = carrier(), carrier()
    widths = [length(len(src)) for _ in range(length(len(tgt)))]
    payload = [draw(st.lists(cells, min_size=w, max_size=w)) for w in widths]
    return algebra, payload, src, tgt


def _read_or_raise(read):
    try:
        return read()
    except Exception as exc:
        return exc


@settings(max_examples=400, deadline=None)
@given(relation_payload())
@example((b4(), [[1, "a"], [None, "b"]], ("p", "q"), ("r", "s")))
@example((b4(), [["a", "b"]], ("p", "p"), ("r",)))
@example((bool_algebra(), [[["1"]]], ("p",), ("r",)))
def test_relation_grids_are_read_as_the_cell_loop_reads_them(case):
    """``arrow_from_payload`` reads every grid to the relation, or the error,
    of the cell-by-cell reader, without the validating constructor."""
    algebra, payload, src, tgt = case
    want = _read_or_raise(
        lambda: relation_from_payload_slow(algebra, payload, src, tgt))
    built, init = [], LRelation.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    with mock.patch.object(LRelation, "__init__", counting_init):
        got = _read_or_raise(
            lambda: RelationCategory(algebra).arrow_from_payload(payload, src, tgt))
    assert built == []
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        return
    assert (got.source, got.target) == (want.source, want.target)
    assert got.values.dtype == want.values.dtype
    assert np.array_equal(got.values, want.values)
    assert not got.values.flags.writeable and not want.values.flags.writeable


@st.composite
def composable_pair(draw, algebras=st.sampled_from(ALGEBRAS)):
    algebra = draw(algebras)
    src = draw(carriers("a"))
    mid = draw(carriers("b"))
    tgt = draw(carriers("c"))
    f = draw(relation_between(algebra, src, mid))
    g = draw(relation_between(algebra, mid, tgt))
    return g, f


@st.composite
def parallel_pair(draw):
    algebra = draw(st.sampled_from(ALGEBRAS))
    src = draw(carriers("a"))
    tgt = draw(carriers("b"))
    f = draw(relation_between(algebra, src, tgt))
    g = draw(relation_between(algebra, src, tgt))
    return f, g


@settings(max_examples=60, deadline=None)
@given(composable_pair())
def test_relation_composition_matches_loop_oracle(pair_):
    g, f = pair_
    assert g @ f == compose_relations_slow(g, f)


@settings(max_examples=60, deadline=None)
@given(composable_pair())
def test_composition_one_level_at_a_time_matches_loop_oracle(pair_):
    g, f = pair_
    with mock.patch.object(relations, "_CUT_CHUNK_BYTES", 1):
        assert g @ f == compose_relations_slow(g, f)


def test_composition_with_one_chain_per_decode_group_matches_loop_oracle():
    with mock.patch.object(relations, "_DECODE_TABLE_MAX", 1):
        algebras = [HeytingTable(a.elements, a.meet, a.join)
                    for a in (b4(), product_lattice(chain(2), chain(3)))]
    rng = np.random.default_rng(7)
    for algebra in algebras:
        assert len(algebra._cuts.tables) == 2
        k = len(algebra.elements)
        for _ in range(20):
            g = LRelation(algebra, range(5), range(4), rng.integers(0, k, (4, 5)))
            f = LRelation(algebra, range(3), range(5), rng.integers(0, k, (5, 3)))
            assert g @ f == compose_relations_slow(g, f)


def test_every_table_has_level_cuts():
    assert all(isinstance(algebra._cuts, relations._LevelCuts)
               for algebra in ALGEBRAS)


def test_level_cuts_that_miss_the_table_fail_loudly():
    # under an order that relates no two distinct elements, b4 has no
    # join-irreducibles, and its (empty) cuts cannot tell the elements apart
    with pytest.raises(LatticeError,
                       match="level cuts do not represent the lattice 'b4'"):
        relations._LevelCuts.of(b4(), np.eye(4, dtype=bool))


@settings(max_examples=60, deadline=None)
@given(down_set_lattice(), st.data())
def test_every_distributive_lattice_composes_by_level_cuts(algebra, data):
    trials = [data.draw(composable_pair(st.just(algebra))) for _ in range(3)]
    for g, f in trials:
        assert g @ f == compose_relations_slow(g, f)
    batches = RelationCategory(algebra)._batches()
    X, Y, Z = (batches.objects(list(objects)) for objects in zip(
        *[(f.source, f.target, g.target) for g, f in trials]))
    stacked = batches.compose(batches.arrows([g for g, _ in trials], Y, Z),
                              batches.arrows([f for _, f in trials], X, Y))
    for i, (g, f) in enumerate(trials):
        assert batches.arrow(stacked, i) == compose_relations_slow(g, f)


# tables of the lattice-law oracle: a chain, Boolean algebras and a product
ORACLE_TABLES = (bool_algebra(), b4(), chain(5),
                 product_lattice(chain(2), chain(3)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORACLE_TABLES), st.sampled_from(["meet", "join"]),
       st.booleans(), st.data())
def test_lattice_law_messages_match_the_whole_cube_oracle(algebra, which,
                                                          mirrored, data):
    # a mirrored corruption keeps the table commutative, so the later laws
    # (associativity, absorption) get to fail first
    tables = {"meet": np.array(algebra.meet), "join": np.array(algebra.join)}
    table = tables[which]
    k = len(algebra.elements)
    x, y = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    value = data.draw(st.integers(0, k - 1).filter(lambda v: v != table[x, y]))
    table[x, y] = value
    if mirrored:
        table[y, x] = value
    want = lattice_law_violation_slow(algebra.elements, tables["meet"],
                                      tables["join"])
    assert want is not None
    with pytest.raises(LatticeError) as err:
        HeytingTable(algebra.elements, tables["meet"], tables["join"])
    assert str(err.value) == want


@settings(max_examples=60, deadline=None)
@given(parallel_pair())
def test_relation_join_matches_loop_oracle(pair_):
    f, g = pair_
    assert (f | g) == join_relations_slow(f, g)
    assert (f | g) == (g | f)


@settings(max_examples=60, deadline=None)
@given(composable_pair())
def test_converse_reverses_composition(pair_):
    g, f = pair_
    assert (g @ f).converse() == f.converse() @ g.converse()


@settings(max_examples=60, deadline=None)
@given(parallel_pair())
def test_sum_via_biproduct_matches_join(pair_):
    f, g = pair_
    cat = RelationCategory(f.algebra)
    assert sum_via_biproduct(cat, f, g) == (f | g)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALGEBRAS), carriers("x"), carriers("y"))
def test_canonical_witness_axioms_hold_exactly(algebra, left, right):
    cat = RelationCategory(algebra)
    report = check_biproduct_axioms(cat, cat.canonical_biproduct(left, right))
    assert report.passed and report.max_residual == 0.0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pair_cancellation_and_uniqueness(data):
    algebra = data.draw(st.sampled_from(ALGEBRAS))
    cat = RelationCategory(algebra)
    left = data.draw(carriers("x"))
    right = data.draw(carriers("y"))
    probe = data.draw(carriers("z"))
    w = cat.canonical_biproduct(left, right)
    f1 = data.draw(relation_between(algebra, probe, left))
    f2 = data.draw(relation_between(algebra, probe, right))
    paired = pair(cat, f1, f2, w)
    assert cat.compose(w.pi1, paired) == f1
    assert cat.compose(w.pi2, paired) == f2
    h = data.draw(relation_between(algebra, probe, w.carrier))
    rebuilt = pair(cat, cat.compose(w.pi1, h), cat.compose(w.pi2, h), w)
    assert rebuilt == h


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_copair_cancellation(data):
    algebra = data.draw(st.sampled_from(ALGEBRAS))
    cat = RelationCategory(algebra)
    left = data.draw(carriers("x"))
    right = data.draw(carriers("y"))
    out = data.draw(carriers("z"))
    w = cat.canonical_biproduct(left, right)
    g1 = data.draw(relation_between(algebra, left, out))
    g2 = data.draw(relation_between(algebra, right, out))
    copaired = copair(cat, g1, g2, w)
    assert cat.compose(copaired, w.iota1) == g1
    assert cat.compose(copaired, w.iota2) == g2


@st.composite
def real_matrix(draw, rows, cols):
    entries = draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return ScalarMatrix(np.array(entries, dtype=float).reshape(rows, cols))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matrix_sum_via_biproduct_is_exact(data):
    rows = data.draw(st.integers(0, 4))
    cols = data.draw(st.integers(0, 4))
    f = data.draw(real_matrix(rows, cols))
    g = data.draw(real_matrix(rows, cols))
    # the canonical witnesses are 0/1 matrices, so the detour adds each pair
    # of entries once and agrees bitwise with the native sum
    assert sum_via_biproduct(MAT_R, f, g) == (f + g)


@st.composite
def connected_graph(draw, max_vertices: int = 40):
    """A dense 0/1 adjacency: a spanning path, cycle or random tree,
    relabelled, plus sparse or dense extra edges and sometimes self-loops."""
    n = draw(st.integers(1, max_vertices))
    shape = draw(st.sampled_from(("path", "cycle", "tree", "sparse", "dense")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = np.zeros((n, n), dtype=np.int64)
    for v in range(1, n):
        parent = v - 1 if shape in ("path", "cycle") else int(rng.integers(v))
        adj[v, parent] = adj[parent, v] = 1
    if shape == "cycle" and n > 2:
        adj[0, n - 1] = adj[n - 1, 0] = 1
    if shape in ("sparse", "dense"):
        extra = np.triu(rng.random((n, n)) < (0.1 if shape == "sparse" else 0.7), 1)
        adj |= extra | extra.T
    if draw(st.booleans()):
        adj[np.diag_indices(n)] = rng.random(n) < 0.3
    perm = rng.permutation(n)
    return adj[np.ix_(perm, perm)]


def degrees_or_error(fn):
    try:
        return fn().tolist()
    except PreconditionError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(connected_graph(), st.data())
def test_equitable_refinement_matches_round_based_oracle(adj, data):
    n = adj.shape[0]
    partition = coarsest_equitable_partition(adj)
    assert partition.cells == coarsest_equitable_rounds(adj)
    assert degrees_or_error(
        lambda: reduced_transition_matrix(adj, partition).degrees) == \
        degrees_or_error(lambda: equitable_degrees_slow(adj, partition.cells))
    # random partitions are mostly not equitable: the first violation named
    # must be the oracle's
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    other = Partition(tuple(range(n)), tuple(
        cell for cell in (tuple(v for v in range(n) if labels[v] == c)
                          for c in range(4)) if cell))
    assert degrees_or_error(
        lambda: reduced_transition_matrix(adj, other).degrees) == \
        degrees_or_error(lambda: equitable_degrees_slow(adj, other.cells))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_samplers_draw_the_per_cell_stream(data):
    """Samplers give the arrow and leave the generator in the state that
    drawing each cell through randrange or uniform would."""
    import random

    from specat import MAT_C, MAT_NN
    from specat.matrices import MatrixSampler
    from specat.relations import RelationSampler

    seed = data.draw(st.integers(0, 2 ** 32))
    src = data.draw(st.integers(0, 6))
    tgt = data.draw(st.integers(0, 6))
    if data.draw(st.booleans()):
        cat = data.draw(st.sampled_from([MAT_R, MAT_C, MAT_NN]))
        sampler, slow = MatrixSampler(cat.domain), random_matrix_slow
        carriers = (src, tgt)
    else:
        algebra = data.draw(st.sampled_from(ALGEBRAS))
        bias = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
        sampler = RelationSampler(algebra, bottom_bias=bias)
        slow = random_relation_slow
        carriers = (tuple(range(src)), tuple(range(tgt)))
    fast_rng, slow_rng = random.Random(seed), random.Random(seed)
    got = sampler.random_arrow(fast_rng, *carriers)
    want = slow(sampler, slow_rng, *carriers)
    assert got == want
    assert got.values.dtype == want.values.dtype
    if got.values.size:
        assert got.values.strides == want.values.strides
    assert fast_rng.getstate() == slow_rng.getstate()


# Support splitting: the generic splitter against the per-instance bodies it
# replaced.  Matrix entries sit on both sides of each threshold drawn, and
# the default threshold is 1e-9.
SPLIT_RELATIONS = {"bool": bool_algebra(), "b4": b4(), "chain3": chain(3)}
SPLIT_MATRICES = {
    "mat-r": (MAT_R, [0.0, -0.0, 1e-9, -1e-9, 2e-9, 0.5, -0.5, 1.0, -1.0, 3.0]),
    "mat-nn": (MAT_NN, [0.0, 1e-9, 2e-9, 0.5, 0.75, 1.0, 3.0]),
    "mat-c": (MAT_C, [0.0, 1e-9j, -2e-9, 0.5j, -0.5, 0.3 + 0.4j, 1.0, -1j,
                      2 - 1j]),
}
SPLIT_KINDS = sorted(SPLIT_RELATIONS) + sorted(SPLIT_MATRICES)


def split_both(kind, grid, zero_tol=None):
    """(category, arrow, new split, oracle split) for a square grid of
    lattice indices (relations) or entries (matrices)."""
    n = len(grid)
    if kind in SPLIT_RELATIONS:
        algebra = SPLIT_RELATIONS[kind]
        labels = tuple(f"v{i}" for i in range(n))
        f = LRelation(algebra, labels, labels,
                      np.array(grid, dtype=np.int16).reshape(n, n))
        return (RelationCategory(algebra), f, separate_components(f),
                separate_components_slow(f))
    cat, _ = SPLIT_MATRICES[kind]
    f = ScalarMatrix(np.array(grid, dtype=cat.domain.dtype).reshape(n, n),
                     cat.domain)
    return (cat, f, detect_blocks(f, zero_tol), detect_blocks_slow(f, zero_tol))


def assert_split_matches(cat, f, got, want):
    (got_partition, got_dec), (want_partition, want_dec) = got, want
    assert got_partition == want_partition
    assert got_dec.carrier == want_dec.carrier and got_dec.arrow is f
    assert len(got_dec.blocks) == len(want_dec.blocks)
    for got_block, want_block in zip(got_dec.blocks, want_dec.blocks):
        assert got_block.space == want_block.space
        for name in ("project", "inject", "local"):
            g, w = getattr(got_block, name), getattr(want_block, name)
            assert g == w
            assert g.values.dtype == w.values.dtype
            assert g.values.tobytes() == w.values.tobytes()
            if isinstance(g, ScalarMatrix):
                # BLAS rounds alike only on the same memory layout
                assert g.values.flags.c_contiguous == w.values.flags.c_contiguous
    assert (verify_decomposition(cat, f, got_dec).to_dict()
            == verify_decomposition(cat, f, want_dec).to_dict())


@st.composite
def split_case(draw):
    kind = draw(st.sampled_from(SPLIT_KINDS))
    n = draw(st.integers(0, 9))
    # a cell is in the support with probability density/10, so low densities
    # give several components
    density = draw(st.integers(0, 5))
    present = draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n))
    if kind in SPLIT_RELATIONS:
        k = len(SPLIT_RELATIONS[kind].elements)
        bottom = SPLIT_RELATIONS[kind].bottom
        others = [v for v in range(k) if v != bottom]
        values = draw(st.lists(st.sampled_from(others), min_size=n * n,
                               max_size=n * n))
        zero, zero_tol = bottom, None
    else:
        entries = SPLIT_MATRICES[kind][1]
        values = draw(st.lists(st.sampled_from(entries), min_size=n * n,
                               max_size=n * n))
        zero = 0.0
        zero_tol = draw(st.sampled_from([None, 0.0, 1e-9, 0.5, 1.0]))
    cells = [v if p < density else zero for v, p in zip(values, present)]
    return kind, [cells[i * n:(i + 1) * n] for i in range(n)], zero_tol


@settings(max_examples=300, deadline=None)
@given(split_case())
def test_support_split_matches_per_instance_oracle(case):
    kind, grid, zero_tol = case
    cat, f, got, want = split_both(kind, grid, zero_tol)
    assert_split_matches(cat, f, got, want)


@pytest.mark.parametrize("kind", SPLIT_KINDS)
def test_support_split_of_empty_carrier_matches_oracle(kind):
    cat, f, got, want = split_both(kind, [])
    assert_split_matches(cat, f, got, want)
