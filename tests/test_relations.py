import tracemalloc

import numpy as np
import pytest

from specat import (
    ArrowTypeError,
    HeytingTable,
    LatticeError,
    LRelation,
    RelationCategory,
    b4,
    bool_algebra,
    chain,
    check_biproduct_axioms,
)

from ._oracles import compose_relations_slow, join_relations_slow

B4 = b4()
BOOL = bool_algebra()


def brel(source, target, grid):
    return LRelation.from_labels(B4, source, target, grid)


class TestHeytingTable:
    def test_b4_basic_facts(self):
        a, b = B4.index("a"), B4.index("b")
        assert B4.meet_of(a, b) == B4.index("0")
        assert B4.join_of(a, b) == B4.index("1")
        assert not B4.leq(a, b) and not B4.leq(b, a)
        assert B4.leq(B4.bottom, a) and B4.leq(a, B4.top)

    def test_b4_implication_is_complement_join(self):
        # on a Boolean algebra the derived implication is (not x) or y
        neg = {"0": "1", "a": "b", "b": "a", "1": "0"}
        for x in B4.elements:
            for y in B4.elements:
                expected = B4.join_of(B4.index(neg[x]), B4.index(y))
                assert B4.implies(B4.index(x), B4.index(y)) == expected

    def test_chain_goedel_implication(self):
        c3 = chain(3)
        for i in range(3):
            for j in range(3):
                expected = c3.top if i <= j else j
                assert c3.implies(i, j) == expected

    def test_chain_labels(self):
        assert chain(3).elements == ("0", "1/2", "1")
        assert bool_algebra().elements == ("0", "1")

    def test_rejects_non_lattice_table(self):
        # break absorption: meet says x ^ y = y for everything
        with pytest.raises(LatticeError) as err:
            HeytingTable(("0", "1"), [[0, 1], [1, 1]], [[0, 1], [1, 1]])
        assert "absorption" in str(err.value) or "idempot" in str(err.value)

    def test_rejects_non_residuated_lattice_naming_triple(self):
        # the five-element diamond is a lattice but meet does not distribute,
        # so no implication can residuate it
        elements = ("0", "x", "y", "z", "1")
        def meet(i, j):
            if i == j:
                return i
            if 0 in (i, j):
                return 0
            if 4 in (i, j):
                return i if j == 4 else j
            return 0
        def join(i, j):
            if i == j:
                return i
            if 4 in (i, j):
                return 4
            if 0 in (i, j):
                return i if j == 0 else j
            return 4
        meet_t = [[meet(i, j) for j in range(5)] for i in range(5)]
        join_t = [[join(i, j) for j in range(5)] for i in range(5)]
        with pytest.raises(LatticeError) as err:
            HeytingTable(elements, meet_t, join_t)
        assert "residuation" in str(err.value)

    def test_validating_a_large_chain_keeps_memory_quadratic(self):
        # the whole (x, y, z) cube of a 256-element table takes about 100 MB
        # of index arrays; one x at a time keeps the peak near k^2
        tracemalloc.start()
        try:
            chain.__wrapped__(256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_unknown_label_in_tables(self):
        with pytest.raises(LatticeError):
            HeytingTable.from_label_tables(
                ("0", "1"), [["0", "0"], ["0", "oops"]],
                [["0", "1"], ["1", "1"]])

    def test_structural_equality(self):
        assert bool_algebra() == chain(2)
        assert b4() != bool_algebra()


class TestLRelation:
    def test_identity_composition(self):
        f = brel(("a1", "a2"), ("b1",), [["a", "1"]])
        assert LRelation.identity(B4, ("b1",)) @ f == f
        assert f @ LRelation.identity(B4, ("a1", "a2")) == f

    def test_bool_composition_is_relational(self):
        f = LRelation.from_pairs(BOOL, ("a",), ("b",), [("b", "a")])
        g = LRelation.from_pairs(BOOL, ("b",), ("c",), [("c", "b")])
        assert (g @ f).to_pairs() == {("c", "a")}

    def test_b4_projection_retracts_injection(self):
        rho1 = brel(("c1", "c2"), ("s1",), [["a", "b"]])
        kappa1 = brel(("s1",), ("c1", "c2"), [["a"], ["b"]])
        assert rho1 @ kappa1 == LRelation.identity(B4, ("s1",))

    def test_compose_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        src = ("a1", "a2", "a3")
        mid = ("b1", "b2")
        tgt = ("c1", "c2", "c3", "c4")
        f = LRelation(B4, src, mid, rng.integers(0, 4, size=(2, 3)))
        g = LRelation(B4, mid, tgt, rng.integers(0, 4, size=(4, 2)))
        assert g @ f == compose_relations_slow(g, f)

    def test_join_zero_unit_and_b4_values(self):
        f = brel(("x",), ("y",), [["a"]])
        assert f | LRelation.zero(B4, ("x",), ("y",)) == f
        g = brel(("x",), ("y",), [["b"]])
        assert (f | g).value("y", "x") == "1"

    def test_join_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        src, tgt = ("a1", "a2"), ("b1", "b2", "b3")
        f = LRelation(B4, src, tgt, rng.integers(0, 4, size=(3, 2)))
        g = LRelation(B4, src, tgt, rng.integers(0, 4, size=(3, 2)))
        assert f | g == join_relations_slow(f, g)

    def test_converse_involution_and_antidistribution(self):
        rng = np.random.default_rng(5)
        f = LRelation(B4, ("a1", "a2"), ("b1", "b2", "b3"),
                      rng.integers(0, 4, size=(3, 2)))
        g = LRelation(B4, ("b1", "b2", "b3"), ("c1",),
                      rng.integers(0, 4, size=(1, 3)))
        assert f.converse().converse() == f
        assert (g @ f).converse() == f.converse() @ g.converse()

    def test_carrier_and_algebra_mismatches(self):
        f = brel(("x",), ("y",), [["a"]])
        with pytest.raises(ArrowTypeError):
            f @ f
        g = LRelation.from_labels(BOOL, ("x",), ("y",), [["1"]])
        with pytest.raises(ArrowTypeError):
            f | g

    def test_duplicate_carrier_labels_rejected(self):
        with pytest.raises(ArrowTypeError):
            LRelation.zero(B4, ("x", "x"), ("y",))

    def test_bool_pair_set_round_trip(self):
        pairs = {("b2", "a1"), ("b1", "a2")}
        f = LRelation.from_pairs(BOOL, ("a1", "a2"), ("b1", "b2"), pairs)
        assert f.to_pairs() == pairs


class TestRelBiproduct:
    def test_tagged_union_carrier_and_axioms(self):
        cat = RelationCategory(BOOL)
        w = cat.canonical_biproduct(("a",), ("b", "c"))
        assert w.carrier == ((1, "a"), (2, "b"), (2, "c"))
        assert check_biproduct_axioms(cat, w).passed
        assert w.iota1 == w.pi1.converse()
        assert w.iota2 == w.pi2.converse()

    def test_partition_of_identity_one_element_factors(self):
        cat = RelationCategory(B4)
        w = cat.canonical_biproduct(("x",), ("y",))
        total = cat.add(cat.compose(w.iota1, w.pi1), cat.compose(w.iota2, w.pi2))
        assert total == cat.identity(w.carrier)

    def test_empty_left_factor(self):
        cat = RelationCategory(BOOL)
        w = cat.canonical_biproduct((), ("y1", "y2"))
        assert w.carrier == ((2, "y1"), (2, "y2"))
        # pi2 is a bijection between the carrier and the right factor
        assert w.pi2 @ w.pi2.converse() == cat.identity(("y1", "y2"))
        assert w.pi2.converse() @ w.pi2 == cat.identity(w.carrier)
        assert check_biproduct_axioms(cat, w).passed

    def test_witness_from_one_element_bijection(self):
        cat = RelationCategory(BOOL)
        swap = LRelation.identity(BOOL, ("a",))
        w = cat.generalized_biproduct(("a",), ("b",), left_iso=swap)
        assert check_biproduct_axioms(cat, w).passed

    def test_witness_from_two_element_swap(self):
        cat = RelationCategory(BOOL)
        swap = LRelation.from_pairs(BOOL, ("a1", "a2"), ("a1", "a2"),
                                    [("a1", "a2"), ("a2", "a1")])
        w = cat.generalized_biproduct(("a1", "a2"), ("b",), left_iso=swap)
        assert check_biproduct_axioms(cat, w).passed

    def test_non_bijection_rejected(self):
        cat = RelationCategory(BOOL)
        collapse = LRelation.from_pairs(BOOL, ("a1", "a2"), ("a1", "a2"),
                                        [("a1", "a1"), ("a1", "a2")])
        with pytest.raises(ArrowTypeError):
            cat.generalized_biproduct(("a1", "a2"), ("b",), left_iso=collapse)


class TestRestrict:
    def test_chosen_labels_become_the_endpoints(self):
        f = brel(("a1", "a2"), ("b1", "b2", "b3"),
                 [["a", "0"], ["b", "1"], ["0", "a"]])
        sub = RelationCategory(B4).restrict(f, [2, 0], [1])
        assert (sub.source, sub.target) == (("a2",), ("b3", "b1"))
        assert sub == brel(("a2",), ("b3", "b1"), [["a"], ["0"]])
        rows = RelationCategory(B4).restrict(f, None, [1])
        assert rows == brel(("a2",), ("b1", "b2", "b3"), [["0"], ["1"], ["a"]])

    def test_repeated_position_rejected(self):
        f = brel(("a",), ("b",), [["1"]])
        with pytest.raises(ArrowTypeError, match="distinct"):
            RelationCategory(B4).restrict(f, [0, 0], [0])
