import random
from dataclasses import replace

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
    DecompositionError,
    LRelation,
    Partition,
    PreconditionError,
    RelationCategory,
    ScalarDomain,
    ScalarMatrix,
    SpectralDecomposition,
    Tolerance,
    UnsupportedDomainError,
    b4,
    bool_algebra,
    chain,
    coarsest_equitable_partition,
    compose_decompositions,
    detect_blocks,
    fold_to_binary,
    reduced_transition_matrix,
    residual_part,
    separate_components,
    sum_decompositions,
    verify_decomposition,
    verify_quotient,
    walk_matrix,
)
from specat.formats import decomposition_to_dict
from specat.matrices import COMPLEX, REAL

from ._oracles import (
    bfs_components,
    listed,
    coarsest_equitable_slow,
    is_equitable,
    adjacency_bitrows,
    quotient_maps_slow,
    refines,
    relation_support_edges,
    set_partitions,
    split_support_by_restrict,
)
from .test_grid import assert_same_arrow, c_ordered
from .test_stacked import count_dense_kernels

B4 = b4()
BOOL = bool_algebra()
REL_B4 = RelationCategory(B4)
REL = RelationCategory(BOOL)


def brel(source, target, grid):
    return LRelation.from_labels(B4, source, target, grid)


C3 = ("c1", "c2", "c3")
X2 = ("x1", "x2")
Y1 = ("y1",)


def path3_decomposition():
    f1 = brel(C3, C3, [["0", "a", "0"], ["0", "0", "b"], ["0", "0", "0"]])
    blocks = (
        Block(X2, brel(C3, X2, [["a", "b", "0"], ["0", "a", "b"]]),
              brel(X2, C3, [["a", "0"], ["b", "a"], ["0", "b"]]),
              brel(X2, X2, [["0", "1"], ["0", "0"]])),
        Block(Y1, brel(C3, Y1, [["b", "0", "a"]]),
              brel(Y1, C3, [["b"], ["0"], ["a"]]),
              brel(Y1, Y1, [["0"]])),
    )
    return SpectralDecomposition(C3, blocks, arrow=f1)


def loops3_decomposition():
    f2 = brel(C3, C3, [["1", "0", "0"], ["0", "a", "0"], ["0", "0", "b"]])
    base = path3_decomposition()
    blocks = (
        Block(X2, base.blocks[0].project, base.blocks[0].inject,
              brel(X2, X2, [["a", "0"], ["0", "1"]])),
        Block(Y1, base.blocks[1].project, base.blocks[1].inject,
              brel(Y1, Y1, [["b"]])),
    )
    return SpectralDecomposition(C3, blocks, arrow=f2)


def line3_decomposition():
    f = ScalarMatrix([[0, 1, 1], [1, 0, -1], [0, 0, 1]])
    blocks = (
        Block(2, ScalarMatrix([[1, 0, 0], [0, 1, 1]]),
              ScalarMatrix([[1, 0], [0, 1], [0, 0]]),
              ScalarMatrix([[0, 1], [1, 0]])),
        Block(1, ScalarMatrix([[0, 0, 1]]),
              ScalarMatrix([[0], [-1], [1]]),
              ScalarMatrix([[1]])),
    )
    return SpectralDecomposition(3, blocks, arrow=f)


class TestVerify:
    def test_b4_diagonal_fixture_exact(self):
        C = ("c1", "c2")
        f = brel(C, C, [["a", "0"], ["0", "b"]])
        dec = SpectralDecomposition(C, (
            Block(("s1",), brel(C, ("s1",), [["a", "b"]]),
                  brel(("s1",), C, [["a"], ["b"]]),
                  brel(("s1",), ("s1",), [["1"]])),
            Block(("s2",), brel(C, ("s2",), [["b", "a"]]),
                  brel(("s2",), C, [["b"], ["a"]]),
                  brel(("s2",), ("s2",), [["0"]])),
        ), arrow=f)
        report = verify_decomposition(REL_B4, f, dec)
        assert report.passed and report.max_residual == 0.0

    def test_real_fixture_tight_tolerance(self):
        dec = line3_decomposition()
        report = verify_decomposition(MAT_R, dec.arrow, dec,
                                      Tolerance(1e-12, 0.0))
        assert report.passed

    def test_identity_single_block(self):
        ident = MAT_R.identity(3)
        dec = SpectralDecomposition(3, (Block(3, ident, ident, ident),),
                                    arrow=ident)
        assert verify_decomposition(MAT_R, ident, dec).passed

    def test_mutated_local_fails_condition_d(self):
        dec = line3_decomposition()
        bad_blocks = (dec.blocks[0],
                      Block(1, dec.blocks[1].project, dec.blocks[1].inject,
                            ScalarMatrix([[2]])))
        bad = SpectralDecomposition(3, bad_blocks)
        report = verify_decomposition(MAT_R, dec.arrow, bad)
        failed = {c.law for c in report.failures()}
        assert "d" in failed
        assert "retract[1]" not in failed and "c" not in failed

    def test_intertwining_reported(self):
        dec = path3_decomposition()
        report = verify_decomposition(REL_B4, dec.arrow, dec)
        laws = {c.law for c in report.checks}
        assert {"intertwine_project[1]", "intertwine_inject[2]"} <= laws

    def test_type_mismatch_raises(self):
        dec = line3_decomposition()
        with pytest.raises(ArrowTypeError):
            verify_decomposition(MAT_R, MAT_R.identity(2), dec)

    @pytest.mark.parametrize("kind", ["rel-b4", "mat-r", "mat-c", "mat-nn"])
    @pytest.mark.parametrize("where", ["f", "project", "inject", "local"])
    def test_foreign_arrow_raises_the_per_arrow_error(self, kind, where):
        """An arrow over another algebra or domain is refused, never cast:
        a complex local must not turn a real product complex."""
        if kind == "rel-b4":
            cat, message = REL_B4, "relations live over different algebras"
            f = brel(C3, C3, [["a", "1", "0"], ["b", "0", "0"], ["0", "0", "b"]])
            _, dec = separate_components(f)

            def foreign(arrow):
                return LRelation(chain(3), arrow.source, arrow.target,
                                 np.minimum(arrow.values, 2))
        else:
            cat = {"mat-r": MAT_R, "mat-c": MAT_C, "mat-nn": MAT_NN}[kind]
            f = ScalarMatrix([[1, 2, 0], [3, 4, 0], [0, 0, 5]], cat.domain)
            _, dec = detect_blocks(f)
            other = REAL if cat.domain == COMPLEX else COMPLEX
            message = "domain mismatch: "

            def foreign(arrow):
                return ScalarMatrix(arrow.values.real if other is REAL
                                    else arrow.values, other)
        assert verify_decomposition(cat, f, dec).passed
        for i in range(len(dec.blocks)):
            if where == "f":
                args = (foreign(f), dec)
            else:
                blocks = list(dec.blocks)
                blocks[i] = replace(blocks[i], **{where: foreign(
                    getattr(blocks[i], where))})
                args = (f, SpectralDecomposition(dec.carrier, blocks))
            with pytest.raises(ArrowTypeError, match=message):
                verify_decomposition(cat, *args)


class TestCombinators:
    def test_compose_path3_with_itself_is_nilpotent(self):
        dec = path3_decomposition()
        squared = compose_decompositions(REL_B4, dec, dec)
        # the two labels meet to bottom, so the square collapses entirely
        assert squared.arrow == REL_B4.zero(C3, C3)
        assert squared.blocks[0].local == REL_B4.zero(X2, X2)
        assert verify_decomposition(REL_B4, squared.arrow, squared).passed

    def test_compose_with_identity_locals_returns_same(self):
        dec = path3_decomposition()
        ident = SpectralDecomposition(C3, tuple(
            Block(b.space, b.project, b.inject, REL_B4.identity(b.space))
            for b in dec.blocks), arrow=REL_B4.identity(C3))
        composed = compose_decompositions(REL_B4, dec, ident)
        assert composed.arrow == dec.arrow
        for got, want in zip(composed.blocks, dec.blocks):
            assert got.local == want.local

    def test_compose_real_fixture_with_itself(self):
        dec = line3_decomposition()
        squared = compose_decompositions(MAT_R, dec, dec)
        assert squared.blocks[0].local == MAT_R.identity(2)
        assert squared.blocks[1].local == ScalarMatrix([[1]])
        assert verify_decomposition(MAT_R, squared.arrow, squared).passed

    def test_sum_path3_loops3_matches_expected_locals(self):
        total = sum_decompositions(REL_B4, path3_decomposition(),
                                   loops3_decomposition())
        assert total.blocks[0].local == brel(X2, X2, [["a", "1"], ["0", "1"]])
        assert total.blocks[1].local == brel(Y1, Y1, [["b"]])
        assert total.arrow == brel(
            C3, C3, [["1", "a", "0"], ["0", "a", "b"], ["0", "0", "b"]])
        assert verify_decomposition(REL_B4, total.arrow, total).passed

    def test_sum_with_zero_locals_is_unit(self):
        dec = path3_decomposition()
        zeros = SpectralDecomposition(C3, tuple(
            Block(b.space, b.project, b.inject, REL_B4.zero(b.space, b.space))
            for b in dec.blocks), arrow=REL_B4.zero(C3, C3))
        total = sum_decompositions(REL_B4, dec, zeros)
        assert total.arrow == dec.arrow
        assert verify_decomposition(REL_B4, total.arrow, total).passed

    def test_sum_real_fixture_doubles(self):
        dec = line3_decomposition()
        doubled = sum_decompositions(MAT_R, dec, dec)
        assert doubled.arrow == ScalarMatrix(2 * np.asarray(dec.arrow.values))
        assert verify_decomposition(MAT_R, doubled.arrow, doubled).passed

    def test_closure_on_random_block_supported_pairs(self):
        # pairs of relations supported inside one shared block structure have
        # decompositions with the same projections and injections; their sum
        # and composite must verify against the summed/composed arrows
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randrange(1, 7)
            carrier = tuple(f"n{i}" for i in range(n))
            grouping: dict[int, list[int]] = {}
            for i in range(n):
                grouping.setdefault(rng.randrange(n), []).append(i)
            cells = sorted(grouping.values(), key=lambda cell: cell[0])

            def block_supported():
                vals = np.full((n, n), B4.bottom, dtype=np.int16)
                for cell in cells:
                    for t in cell:
                        for s in cell:
                            vals[t, s] = rng.randrange(4)
                return LRelation(B4, carrier, carrier, vals)

            def blocks_for(f):
                made = []
                for cell in cells:
                    space = tuple(carrier[i] for i in cell)
                    grid = np.full((len(cell), n), B4.bottom, dtype=np.int16)
                    grid[np.arange(len(cell)), cell] = B4.top
                    project = LRelation(B4, carrier, space, grid)
                    local = LRelation(B4, space, space,
                                      f.values[np.ix_(cell, cell)])
                    made.append(Block(space, project, project.converse(), local))
                return SpectralDecomposition(carrier, tuple(made), arrow=f)

            f, g = block_supported(), block_supported()
            dec_f, dec_g = blocks_for(f), blocks_for(g)
            assert verify_decomposition(REL_B4, f, dec_f).passed
            assert verify_decomposition(REL_B4, g, dec_g).passed
            total = sum_decompositions(REL_B4, dec_f, dec_g)
            assert verify_decomposition(REL_B4, total.arrow, total).passed
            composite = compose_decompositions(REL_B4, dec_f, dec_g)
            assert verify_decomposition(REL_B4, composite.arrow,
                                        composite).passed

    def test_mismatched_eigeninjections_rejected(self):
        dec = path3_decomposition()
        other_blocks = (
            Block(X2, dec.blocks[0].project,
                  brel(X2, C3, [["1", "0"], ["0", "1"], ["0", "0"]]),
                  dec.blocks[0].local),
            dec.blocks[1],
        )
        other = SpectralDecomposition(C3, other_blocks, arrow=dec.arrow)
        with pytest.raises(DecompositionError, match="eigeninjection"):
            compose_decompositions(REL_B4, dec, other)

    def test_fold_to_binary(self):
        f = LRelation.from_pairs(BOOL, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5),
                                 [(2, 1), (4, 3)])
        _, dec = separate_components(f)
        assert len(dec.blocks) == 3
        folded = fold_to_binary(REL, dec)
        assert len(folded.blocks) == 2
        assert verify_decomposition(REL, f, folded).passed

    def test_fold_single_block_pads_with_zero_object(self):
        ident = MAT_R.identity(2)
        dec = SpectralDecomposition(2, (Block(2, ident, ident, ident),),
                                    arrow=ident)
        folded = fold_to_binary(MAT_R, dec)
        assert len(folded.blocks) == 2
        assert folded.blocks[1].space == 0
        assert verify_decomposition(MAT_R, ident, folded).passed


class TestSeparateComponents:
    def test_two_components_bool(self):
        f = LRelation.from_pairs(BOOL, (1, 2, 3, 4), (1, 2, 3, 4),
                                 [(2, 1), (1, 2), (4, 3)])
        partition, dec = separate_components(f)
        assert partition.cells == ((1, 2), (3, 4))
        assert dec.blocks[0].local.to_pairs() == {(1, 2), (2, 1)}
        assert dec.blocks[1].local.to_pairs() == {(4, 3)}
        assert verify_decomposition(REL, f, dec).passed

    def test_empty_relation_gives_singletons(self):
        f = LRelation.zero(BOOL, (1, 2), (1, 2))
        partition, dec = separate_components(f)
        assert partition.cells == ((1,), (2,))
        for blk in dec.blocks:
            assert blk.local == LRelation.zero(BOOL, blk.space, blk.space)
        assert verify_decomposition(REL, f, dec).passed

    def test_b4_block_relation_restricts(self):
        carrier = ("p", "q", "r")
        f = brel(carrier, carrier, [["a", "1", "0"], ["b", "0", "0"],
                                    ["0", "0", "b"]])
        partition, dec = separate_components(f)
        assert partition.cells == (("p", "q"), ("r",))
        assert dec.blocks[0].local == brel(("p", "q"), ("p", "q"),
                                           [["a", "1"], ["b", "0"]])
        assert dec.blocks[1].local == brel(("r",), ("r",), [["b"]])
        assert verify_decomposition(REL_B4, f, dec).passed

    def test_connected_input_single_cell(self):
        f = LRelation.from_pairs(BOOL, (1, 2), (1, 2), [(2, 1), (1, 2)])
        partition, dec = separate_components(f)
        assert len(partition.cells) == 1
        assert dec.blocks[0].local == f

    def test_matches_bfs_oracle_on_random_relations(self):
        rng = random.Random(99)
        sampler = REL_B4.default_sampler(8)
        for _ in range(60):
            carrier = tuple(f"n{i}" for i in range(rng.randrange(1, 9)))
            f = sampler.random_arrow(rng, carrier, carrier)
            # thin the support so several components appear
            mask = np.array([[rng.random() < 0.25 for _ in carrier]
                             for _ in carrier])
            values = np.where(mask, f.values, B4.bottom)
            f = LRelation(B4, carrier, carrier, values)
            partition, dec = separate_components(f)
            n, edges = relation_support_edges(f)
            expected = bfs_components(n, edges)
            assert partition.positions() == expected
            assert verify_decomposition(REL_B4, f, dec).passed

    def test_non_endo_rejected(self):
        with pytest.raises(ArrowTypeError):
            separate_components(LRelation.zero(BOOL, (1,), (1, 2)))

    def test_empty_carrier_yields_zero_object_block(self):
        f = LRelation.zero(BOOL, (), ())
        partition, dec = separate_components(f)
        assert partition.cells == ()
        assert len(dec.blocks) == 1 and dec.blocks[0].space == ()
        assert verify_decomposition(REL, f, dec).passed


class TestDetectBlocks:
    def test_ordered_blocks(self):
        f = ScalarMatrix([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
        partition, dec = detect_blocks(f)
        assert partition.cells == ((0, 1), (2,))
        assert dec.blocks[0].local.values.tolist() == [[1, 2], [3, 4]]
        assert verify_decomposition(MAT_R, f, dec).passed

    def test_block_structure_under_permutation(self):
        base = np.array([[1.0, 2, 0], [3, 4, 0], [0, 0, 5]])
        perm = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        f = ScalarMatrix(perm @ base @ perm.T)
        partition, dec = detect_blocks(f)
        n, edges = 3, {(1, 2)}
        assert partition.positions() == bfs_components(n, edges)
        assert verify_decomposition(MAT_R, f, dec).passed

    def test_dense_matrix_single_cell(self):
        f = ScalarMatrix(np.arange(1.0, 10.0).reshape(3, 3))
        partition, dec = detect_blocks(f)
        assert partition.cells == ((0, 1, 2),)
        assert dec.blocks[0].local == f

    def test_zero_threshold_merges_noise(self):
        noise = 1e-12
        f = ScalarMatrix([[1, noise], [0, 2]])
        partition, _ = detect_blocks(f)
        assert partition.cells == ((0,), (1,))
        partition, _ = detect_blocks(f, zero_tol=1e-15)
        assert partition.cells == ((0, 1),)

    def test_nonnegative_domain_supported(self):
        f = ScalarMatrix([[1, 0], [0, 2]], MAT_NN.domain)
        partition, dec = detect_blocks(f)
        assert partition.cells == ((0,), (1,))
        assert verify_decomposition(MAT_NN, f, dec).passed

    def test_domain_outside_the_shipped_three(self):
        domain = ScalarDomain("float32", np.float32)
        f = ScalarMatrix([[1, 0], [0, 2]], domain)
        partition, dec = detect_blocks(f)
        assert partition.cells == ((0,), (1,))
        assert dec.blocks[1].local.values.dtype == np.float32
        assert dec.blocks[1].local.domain is domain

    def test_non_square_rejected(self):
        with pytest.raises(ArrowTypeError):
            detect_blocks(ScalarMatrix([[1, 2, 3]]))


def star(n_leaves: int) -> np.ndarray:
    adj = np.zeros((n_leaves + 1, n_leaves + 1), dtype=int)
    adj[0, 1:] = 1
    adj[1:, 0] = 1
    return adj


def cycle(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=int)
    for v in range(n):
        adj[v, (v + 1) % n] = adj[(v + 1) % n, v] = 1
    return adj


def complete(n: int) -> np.ndarray:
    return np.ones((n, n), dtype=int) - np.eye(n, dtype=int)


def path(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=int)
    for v in range(n - 1):
        adj[v, v + 1] = adj[v + 1, v] = 1
    return adj


class TestEquitablePartition:
    def test_star_center_and_leaves(self):
        partition = coarsest_equitable_partition(star(3))
        assert partition.cells == ((0,), (1, 2, 3))

    def test_star_is_coarsest_by_exhaustion(self):
        adj = star(3)
        rows = adjacency_bitrows(adj.tolist())
        ours = tuple(tuple(cell) for cell in coarsest_equitable_partition(adj).cells)
        assert is_equitable(rows, ours)
        for cells in set_partitions(4):
            if cells != ours and is_equitable(rows, cells) and refines(ours, cells):
                raise AssertionError(f"strictly coarser equitable partition {cells}")

    def test_complete_graph_single_cell(self):
        assert coarsest_equitable_partition(complete(3)).cells == ((0, 1, 2),)

    def test_cycle_single_cell(self):
        assert coarsest_equitable_partition(cycle(4)).cells == ((0, 1, 2, 3),)

    def test_path4_pairs_ends_and_middles(self):
        partition = coarsest_equitable_partition(path(4))
        assert partition.cells == ((0, 3), (1, 2))

    def test_no_strictly_coarser_equitable_partition_exists(self):
        # direct refinement-order scan over every partition of every
        # connected graph on up to four vertices
        import itertools

        for n in range(2, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                adj = np.zeros((n, n), dtype=int)
                for bit, (i, j) in enumerate(pairs):
                    if mask >> bit & 1:
                        adj[i, j] = adj[j, i] = 1
                edges = {(i, j) for bit, (i, j) in enumerate(pairs)
                         if mask >> bit & 1}
                if len(bfs_components(n, edges)) != 1:
                    continue
                ours = tuple(tuple(cell) for cell in
                             coarsest_equitable_partition(adj).cells)
                rows = adjacency_bitrows(adj.tolist())
                assert is_equitable(rows, ours)
                for cells in set_partitions(n):
                    if (cells != ours and is_equitable(rows, cells)
                            and refines(ours, cells)):
                        raise AssertionError(
                            f"{cells} is equitable and strictly coarser")

    def test_matches_exhaustive_oracle_on_small_graphs(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(2, 7)
            while True:
                adj = np.zeros((n, n), dtype=int)
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < 0.5:
                            adj[i, j] = adj[j, i] = 1
                if len(bfs_components(n, {(i, j) for i in range(n)
                                          for j in range(i + 1, n)
                                          if adj[i, j]})) == 1:
                    break
            ours = tuple(tuple(c) for c in coarsest_equitable_partition(adj).cells)
            assert ours == coarsest_equitable_slow(adj.tolist())

    def test_disconnected_rejected(self):
        adj = np.zeros((4, 4), dtype=int)
        adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = 1
        with pytest.raises(PreconditionError, match="not connected"):
            coarsest_equitable_partition(adj)

    def test_asymmetric_rejected(self):
        adj = np.zeros((2, 2), dtype=int)
        adj[0, 1] = 1
        with pytest.raises(PreconditionError, match="symmetric"):
            coarsest_equitable_partition(adj)

    def test_fractional_entries_rejected_before_rounding(self):
        # 1.7 must not count as an edge, nor 0.5 as no edge
        with pytest.raises(PreconditionError, match="entries must be 0 or 1"):
            walk_matrix([[0, 1.7], [1.7, 0]])
        with pytest.raises(PreconditionError, match="entries must be 0 or 1"):
            coarsest_equitable_partition([[0, .5], [.5, 0]])


class TestReducedTransition:
    def test_star_quotient(self):
        adj = star(3)
        quotient = reduced_transition_matrix(
            adj, coarsest_equitable_partition(adj))
        assert quotient.reduced.values.tolist() == [[0, 1], [1, 0]]
        assert quotient.degrees.tolist() == [[0, 3], [1, 0]]

    def test_single_cell_regular_graph(self):
        adj = cycle(5)
        quotient = reduced_transition_matrix(
            adj, Partition(tuple(range(5)), (tuple(range(5)),)))
        assert quotient.reduced.values.tolist() == [[1.0]]

    def test_path3_quotient(self):
        adj = path(3)
        partition = coarsest_equitable_partition(adj)
        assert partition.cells == ((0, 2), (1,))
        quotient = reduced_transition_matrix(adj, partition)
        assert quotient.reduced.values.tolist() == [[0, 1], [1, 0]]

    def test_average_intertwines_walk(self):
        adj = star(3)
        quotient = reduced_transition_matrix(
            adj, coarsest_equitable_partition(adj))
        walk = walk_matrix(adj)
        lhs = quotient.average.values @ walk.values
        rhs = quotient.reduced.values @ quotient.average.values
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        retract = quotient.average.values @ quotient.indicator.values
        assert np.array_equal(retract, np.eye(2))

    def test_conservation_law_integers(self):
        adj = path(4)
        quotient = reduced_transition_matrix(
            adj, coarsest_equitable_partition(adj))
        sizes = np.array(quotient.cell_sizes)
        balance = sizes[:, None] * quotient.degrees
        assert np.array_equal(balance, balance.T)

    def test_rows_stochastic(self):
        adj = complete(4)
        quotient = reduced_transition_matrix(
            adj, coarsest_equitable_partition(adj))
        assert np.allclose(quotient.reduced.values.sum(axis=1), 1.0)

    def test_non_equitable_partition_names_vertex(self):
        adj = path(3)
        bad = Partition((0, 1, 2), ((0, 1), (2,)))
        with pytest.raises(PreconditionError, match="vertex"):
            reduced_transition_matrix(adj, bad)


def random_graph(rng, n: int) -> np.ndarray:
    """A connected graph on ``n`` vertices: a path through them in random
    order, then random edges up to ``2n`` (fewer if the graph fills up)."""
    adj = np.zeros((n, n), dtype=int)
    order = rng.permutation(n)
    adj[order[:-1], order[1:]] = adj[order[1:], order[:-1]] = 1
    while adj.sum() < min(4 * n, n * (n - 1)):
        a, b = rng.integers(n, size=2)
        if a != b:
            adj[a, b] = adj[b, a] = 1
    return adj


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(["random", "cycle", "star", "path", "complete"]),
       n=st.integers(2, 12), discrete=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_quotient_maps_carry_forms_with_the_dense_bits(family, n, discrete, seed):
    """The indicator always carries its form, the averaging map exactly when
    every cell is one vertex; both grids are the dense construction's bit
    for bit, laid out alike."""
    adj = {"random": lambda: random_graph(np.random.default_rng(seed), n),
           "cycle": lambda: cycle(n), "star": lambda: star(n - 1),
           "path": lambda: path(n), "complete": lambda: complete(n)}[family]()
    partition = (Partition(tuple(range(n)), tuple((v,) for v in range(n)))
                 if discrete else coarsest_equitable_partition(adj))
    quotient = reduced_transition_matrix(adj, partition)
    assert quotient.indicator._form is not None
    singletons = all(len(cell) == 1 for cell in partition.cells)
    assert (quotient.average._form is not None) == singletons
    for got, want in zip((quotient.average, quotient.indicator),
                         quotient_maps_slow(partition)):
        assert_same_arrow(got, want, fresh=False)
        assert got.values.tobytes() == want.values.tobytes()


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(["random", "path"]), n=st.integers(2, 14),
       discrete=st.booleans(), kind=st.sampled_from(["walk", "real", "complex"]),
       seed=st.integers(0, 2 ** 16))
def test_residual_is_the_dense_composite_subtracted_bit_for_bit(family, n, discrete,
                                                                 kind, seed):
    """``residual_part`` forms ``indicator . reduced . average`` as arrows,
    gathering by the forms; it gives ``f`` minus the product of the dense
    grids, bit for bit and laid out alike, for a complex ``f`` against the
    real quotient too."""
    rng = np.random.default_rng(seed)
    adj = random_graph(rng, n) if family == "random" else path(n)
    partition = (Partition(tuple(range(n)), tuple((v,) for v in range(n)))
                 if discrete else coarsest_equitable_partition(adj))
    quotient = reduced_transition_matrix(adj, partition)
    walk = walk_matrix(adj)
    cells = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.75)
    f = {"walk": walk, "real": ScalarMatrix(cells),
         "complex": ScalarMatrix(cells + 1j * rng.normal(size=(n, n)), COMPLEX)}[kind]
    average, indicator = quotient_maps_slow(partition)
    removed = indicator.values @ quotient.reduced.values @ average.values
    got, want = residual_part(f, quotient), ScalarMatrix(f.values - removed, f.domain)
    assert_same_arrow(got, want, fresh=False)
    assert got.values.tobytes() == want.values.tobytes()


def test_a_discrete_quotient_is_verified_by_gathers(monkeypatch):
    """On a random graph of 180 vertices, whose coarsest equitable partition
    is discrete, every averaging product of ``verify_quotient`` is a gather
    or a composite of forms: no ``np.matmul`` runs."""
    adj = random_graph(np.random.default_rng(180), 180)
    quotient, walk, residual = TestVerifyQuotient.quotient_of(adj)
    assert len(quotient.partition.cells) == 180
    kernels = count_dense_kernels(monkeypatch)
    assert verify_quotient(quotient, walk, residual).passed
    assert kernels == []


class TestPartition:
    @pytest.mark.parametrize("cells, label", [
        (((0, 1, 99),), "99"), (((99, 0), (1, 2)), "99"), (((0,), (1, 2, "x")), "'x'"),
        (((0, 1), (2, (1,))), r"\(1,\)")])
    def test_unknown_label_is_named(self, cells, label):
        with pytest.raises(PreconditionError, match=f"^unknown carrier label {label}$"):
            Partition((0, 1, 2), cells)

    def test_cells_are_sorted_into_carrier_order(self):
        part = Partition(("a", "b", "c"), (("c", "a"), ("b",)))
        assert part.cells == (("a", "c"), ("b",))
        with pytest.raises(PreconditionError, match="appears in two cells"):
            Partition(("a", "b"), (("b", "a"), ("a",)))


class TestResidual:
    def test_reassembles_walk(self):
        adj = star(3)
        quotient = reduced_transition_matrix(
            adj, coarsest_equitable_partition(adj))
        walk = walk_matrix(adj)
        res = residual_part(walk, quotient)
        removed = (quotient.indicator.values @ quotient.reduced.values
                   @ quotient.average.values)
        assert np.allclose(res.values + removed, walk.values)

    def test_zero_when_arrow_equals_quotient_composite(self):
        adj = complete(3)
        quotient = reduced_transition_matrix(
            adj, Partition((0, 1, 2), ((0, 1, 2),)))
        composite = ScalarMatrix(
            quotient.indicator.values @ quotient.reduced.values
            @ quotient.average.values)
        res = residual_part(composite, quotient)
        assert np.array_equal(res.values, np.zeros((3, 3)))

    def test_average_annihilates_residual(self):
        adj = star(3)
        quotient = reduced_transition_matrix(
            adj, coarsest_equitable_partition(adj))
        res = residual_part(walk_matrix(adj), quotient)
        assert np.max(np.abs(quotient.average.values @ res.values)) < 1e-12

    def test_nonnegative_domain_rejected(self):
        adj = complete(2)
        quotient = reduced_transition_matrix(adj, Partition((0, 1), ((0, 1),)))
        f = ScalarMatrix(walk_matrix(adj).values, MAT_NN.domain)
        with pytest.raises(UnsupportedDomainError):
            residual_part(f, quotient)

    def test_quotient_block_verifies_intertwining(self):
        adj = star(3)
        quotient = reduced_transition_matrix(
            adj, coarsest_equitable_partition(adj))
        blk = quotient.quotient_block()
        walk = walk_matrix(adj)
        assert MAT_R.equal(MAT_R.compose(blk.project, walk),
                           MAT_R.compose(blk.local, blk.project))
        assert MAT_R.equal(MAT_R.compose(blk.project, blk.inject),
                           MAT_R.identity(2))


class TestVerifyQuotient:
    LAWS = ["stochastic_rows", "conservation", "intertwine_average",
            "average_retracts_indicator", "residual_annihilated"]

    @staticmethod
    def quotient_of(adj):
        quotient = reduced_transition_matrix(
            adj, coarsest_equitable_partition(adj))
        walk = walk_matrix(adj)
        return quotient, walk, residual_part(walk, quotient)

    @pytest.mark.parametrize("adj", [star(3), path(5), cycle(6)],
                             ids=["star3", "path5", "cycle6"])
    def test_laws_hold_in_order(self, adj):
        report = verify_quotient(*self.quotient_of(adj))
        assert report.passed
        assert [c.law for c in report.checks] == self.LAWS
        assert all(c.trials == 1 and c.counterexample is None
                   for c in report.checks)
        assert report.checks[1].max_residual == 0.0

    def test_walk_of_another_graph_fails_intertwining(self):
        # path 0-1-2 and the triangle share the three vertices but not the
        # walk; averaging over path3's cells does not intertwine the
        # triangle's walk with path3's reduced walk
        quotient, _, residual = self.quotient_of(path(3))
        report = verify_quotient(quotient, walk_matrix(complete(3)), residual)
        assert [c.law for c in report.failures()] == ["intertwine_average"]
        check = report.checks[2]
        assert check.max_residual == pytest.approx(0.5)

    @pytest.mark.parametrize("which", ["walk", "residual"])
    def test_arrows_on_other_vertex_counts_are_rejected(self, which):
        # the walk of a 4-vertex graph cannot be checked against path3's
        # quotient; the shape is named instead of failing inside numpy
        quotient, walk, residual = self.quotient_of(path(3))
        arrows = {"walk": walk, "residual": residual}
        arrows[which] = walk_matrix(path(4))
        with pytest.raises(ArrowTypeError,
                           match=f"{which} must be an endo-matrix on 3 "
                                 f"vertices, got 4x4"):
            verify_quotient(quotient, arrows["walk"], arrows["residual"])

    def test_residual_is_judged_by_tolerance_close(self):
        # every law compares two matrices cell by cell as Tolerance.close
        # does: |x - y| <= abs + rel * max(|x|, |y|), where y is zero here
        quotient, walk, residual = self.quotient_of(path(3))
        shifted = ScalarMatrix(residual.values + 0.25)
        res = float(np.max(np.abs(quotient.average.values @ shifted.values)))
        below = float(np.nextafter(res, 0))
        for tol, passed in ((Tolerance(res, 0.0), True),
                            (Tolerance(below, 0.0), False),
                            (Tolerance(0.0, 1.0), True),
                            (Tolerance(0.0, float(np.nextafter(1.0, 0))), False)):
            report = verify_quotient(quotient, walk, shifted, tol)
            assert [c.law for c in report.failures()] == (
                [] if passed else ["residual_annihilated"])
            check = report.checks[-1]
            assert check.max_residual == res
            if not passed:
                assert listed(check.counterexample["lhs"]["entries"]) == (
                    quotient.average.values @ shifted.values).tolist()
                assert (listed(check.counterexample["rhs"]["entries"])
                        == [[0.0] * 3] * 2)


SPLIT_KINDS = (REL, REL_B4, RelationCategory(chain(64)), MAT_R, MAT_C, MAT_NN)


@settings(max_examples=150, deadline=None)
@given(cat=st.sampled_from(SPLIT_KINDS), n=st.integers(0, 9),
       density=st.sampled_from([0.0, 0.1, 0.3, 1.0]), seed=st.integers(0, 2 ** 16))
def test_split_selections_are_the_restricted_identity(cat, n, density, seed):
    """``separate_components`` and ``detect_blocks`` build each block's
    selections from its cell: both are forms whose grids equal the rows
    and the columns of the restricted carrier identity in values, dtype,
    endpoints and strides (C-ordered), and the decomposition verifies and
    serializes as that one does."""
    rng = np.random.default_rng(seed)
    nonzero = rng.random((n, n)) < density
    if cat.exact:
        labels = tuple(f"v{i}" for i in range(n))
        cells = np.where(nonzero, rng.integers(0, len(cat.algebra.elements), (n, n)),
                         cat.algebra.bottom)
        f = LRelation(cat.algebra, labels, labels, cells)
        support = f.values != cat.algebra.bottom
        partition, dec = separate_components(f)
    else:
        f = ScalarMatrix(np.where(nonzero, rng.uniform(0.5, 2.0, (n, n)), 0.0),
                         cat.domain)
        support = np.abs(f.values) > 1e-9
        partition, dec = detect_blocks(f)
        labels = tuple(range(n))
    want_partition, want = split_support_by_restrict(cat, f, support, labels)
    assert partition == want_partition
    assert dec.carrier == want.carrier and len(dec.blocks) == len(want.blocks)
    for got_block, want_block in zip(dec.blocks, want.blocks):
        assert got_block.space == want_block.space
        for name in ("project", "inject"):
            got, want_arrow = getattr(got_block, name), getattr(want_block, name)
            assert got._form is not None
            assert_same_arrow(got, c_ordered(cat, want_arrow), fresh=False)
        assert_same_arrow(got_block.local, want_block.local, fresh=False)
    assert (listed(verify_decomposition(cat, f, dec).to_dict())
            == listed(verify_decomposition(cat, f, want).to_dict()))
    assert (listed(decomposition_to_dict(dec, cat))
            == listed(decomposition_to_dict(want, cat)))
