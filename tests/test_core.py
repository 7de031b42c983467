import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specat.core import LawTally
from specat.formats import canonical_json
from specat.matrices import MatrixSampler
from specat.relations import RelationSampler
from specat import (
    MAT_C,
    MAT_NN,
    MAT_R,
    ArrowTypeError,
    HeytingTable,
    LatticeError,
    LRelation,
    PreconditionError,
    RelationCategory,
    ScalarMatrix,
    Tolerance,
    b4,
    bool_algebra,
    chain,
    check_biproduct_axioms,
    check_zero_object,
    codiagonal,
    copair,
    diagonal,
    fold_biproduct,
    oplus,
    pair,
    run_law_suite,
    sum_via_biproduct,
    verify_decomposition,
)

from ._oracles import listed
from .test_grid import CASES, TOLERANCES, moved_cells, obj, oracle_for, random_cells
from .test_stacked import KINDS, block_case, failing_projections

B4 = b4()
BOOL = bool_algebra()
REL_B4 = RelationCategory(B4)
REL = RelationCategory(BOOL)


class TestZeroObject:
    def test_zero_dimension_passes(self):
        assert check_zero_object(MAT_R, 0).passed

    def test_empty_carrier_passes(self):
        assert check_zero_object(REL, ()).passed

    def test_dimension_one_fails_with_counterexample(self):
        report = check_zero_object(MAT_R, 1)
        assert not report.passed
        (failure,) = report.failures()
        assert listed(failure.counterexample["identity"]["entries"]) == [[1.0]]
        assert listed(failure.counterexample["zero"]["entries"]) == [[0.0]]

    def test_report_names_the_identity_and_the_zero_arrow(self):
        cell = {"source": ["x"], "target": ["x"]}
        assert listed(check_zero_object(REL, ("x",)).to_dict()) == {
            "passed": False,
            "checks": [{"law": "zero_object", "passed": False, "trials": 1,
                        "max_residual": 1.0, "counterexample": {
                            "identity": {**cell, "values": [["1"]]},
                            "zero": {**cell, "values": [["0"]]}}}]}


class TestBiproductAxioms:
    def test_scaled_injection_fails_condition_a(self):
        w = MAT_R.canonical_biproduct(2, 1)
        bad = w.__class__(w.left, w.right, w.carrier, w.pi1, w.pi2,
                          ScalarMatrix(2 * np.asarray(w.iota1.values)), w.iota2)
        report = check_biproduct_axioms(MAT_R, bad)
        failed = {c.law for c in report.failures()}
        assert "a" in failed
        # doubling the injection doubles the retract
        a_check = next(c for c in report.checks if c.law == "a")
        assert (listed(a_check.counterexample["lhs"]["entries"])
                == [[2.0, 0.0], [0.0, 2.0]])
        assert set(a_check.counterexample) == {"lhs", "rhs"}
        assert [c.law for c in report.checks] == ["a", "b", "c", "d", "e"]

    def test_endpoint_mismatch_names_offender(self):
        w = MAT_R.canonical_biproduct(2, 1)
        bad = w.__class__(w.left, w.right, w.carrier, w.pi1, w.pi2,
                          MAT_R.identity(3), w.iota2)
        with pytest.raises(ArrowTypeError, match="iota1"):
            check_biproduct_axioms(MAT_R, bad)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_report_dicts_are_plain_data_spelled_as_the_report_spells_them(kind):
    """A failing report's counterexamples can hold arrays and selection
    payloads (zero arrows, identities, matrix products), which the stdlib
    ``json`` refuses; ``LawReport.to_dict()`` holds their lists, which it
    encodes to the text ``canonical_json`` gives the checks' own dicts."""
    cat = KINDS[kind]
    x = obj(cat, 2, "x")
    w = cat.canonical_biproduct(x, obj(cat, 1, "y"))
    zero_pi1 = w.__class__(w.left, w.right, w.carrier, cat.zero(w.carrier, w.left),
                           w.pi2, w.iota1, w.iota2)
    f, dec = block_case(cat, 2)
    refused = 0
    for report in (check_zero_object(cat, x), check_biproduct_axioms(cat, zero_pi1),
                   verify_decomposition(cat, f, failing_projections(cat, dec))):
        assert not report.passed
        checks = [c.to_dict() for c in report.checks]
        try:
            json.dumps(checks)
        except TypeError:
            refused += 1
        plain = report.to_dict()
        assert json.loads(json.dumps(plain)) == listed(plain)
        assert (json.dumps(plain["checks"], sort_keys=True, indent=2) + "\n"
                == canonical_json(checks))
    assert refused


class TestPairCopair:
    def test_pair_of_identities_is_diagonal(self):
        w = MAT_R.canonical_biproduct(2, 2)
        ident = MAT_R.identity(2)
        assert pair(MAT_R, ident, ident, w) == diagonal(MAT_R, 2)
        rel_w = REL.canonical_biproduct(("x",), ("x",))
        rel_id = REL.identity(("x",))
        assert pair(REL, rel_id, rel_id, rel_w) == diagonal(REL, ("x",))

    def test_pair_stacks_rows(self):
        w = MAT_R.canonical_biproduct(1, 1)
        got = pair(MAT_R, ScalarMatrix([[1, 0]]), ScalarMatrix([[0, 1]]), w)
        assert got == MAT_R.identity(2)

    def test_pair_on_decomposition_witness_recovers_identity(self):
        # the fixture carrier is itself a biproduct of the two block spaces,
        # via the fixture's own projections and injections
        rel = lambda s, t, g: LRelation.from_labels(B4, s, t, g)
        C = ("c1", "c2")
        rho1 = rel(C, ("s1",), [["a", "b"]])
        rho2 = rel(C, ("s2",), [["b", "a"]])
        kappa1 = rel(("s1",), C, [["a"], ["b"]])
        kappa2 = rel(("s2",), C, [["b"], ["a"]])
        from specat import BiproductWitness

        w = BiproductWitness(("s1",), ("s2",), C, rho1, rho2, kappa1, kappa2)
        assert check_biproduct_axioms(REL_B4, w).passed
        assert pair(REL_B4, rho1, rho2, w) == REL_B4.identity(C)

    def test_copair_of_identities_is_codiagonal(self):
        w = MAT_R.canonical_biproduct(2, 2)
        ident = MAT_R.identity(2)
        assert copair(MAT_R, ident, ident, w) == codiagonal(MAT_R, 2)

    def test_copair_juxtaposes_columns(self):
        w = MAT_R.canonical_biproduct(1, 1)
        got = copair(MAT_R, ScalarMatrix([[1], [0]]), ScalarMatrix([[0], [1]]), w)
        assert got == MAT_R.identity(2)

    def test_copair_of_disjoint_inclusions_is_union(self):
        y = ("u", "v", "w")
        inc1 = LRelation.from_pairs(BOOL, ("a",), y, [("u", "a")])
        inc2 = LRelation.from_pairs(BOOL, ("b",), y, [("w", "b")])
        w = REL.canonical_biproduct(("a",), ("b",))
        got = copair(REL, inc1, inc2, w)
        # composite images computed by hand: tags route each factor
        assert got.to_pairs() == {("u", (1, "a")), ("w", (2, "b"))}
        assert got == (inc1 @ w.pi1) | (inc2 @ w.pi2)

    def test_pair_source_mismatch(self):
        w = MAT_R.canonical_biproduct(1, 1)
        with pytest.raises(ArrowTypeError, match="source"):
            pair(MAT_R, ScalarMatrix([[1, 0]]), ScalarMatrix([[1]]), w)

    def test_copair_target_mismatch(self):
        w = MAT_R.canonical_biproduct(1, 1)
        with pytest.raises(ArrowTypeError, match="target"):
            copair(MAT_R, ScalarMatrix([[1], [0]]), ScalarMatrix([[1]]), w)


class TestOplus:
    def test_identity_blocks(self):
        w_src = MAT_R.canonical_biproduct(2, 1)
        got = oplus(MAT_R, MAT_R.identity(2), MAT_R.identity(1), w_src, w_src)
        assert got == MAT_R.identity(3)

    def test_scalar_blocks(self):
        w = MAT_R.canonical_biproduct(1, 1)
        got = oplus(MAT_R, ScalarMatrix([[2]]), ScalarMatrix([[3]]), w, w)
        assert got.values.tolist() == [[2, 0], [0, 3]]

    def test_zero_block_pads(self):
        w_src = MAT_R.canonical_biproduct(2, 1)
        w_tgt = MAT_R.canonical_biproduct(2, 1)
        f = ScalarMatrix([[1, 2], [3, 4]])
        got = oplus(MAT_R, f, MAT_R.zero(1, 1), w_src, w_tgt)
        assert got.values.tolist() == [[1, 2, 0], [3, 4, 0], [0, 0, 0]]


class TestSumViaBiproduct:
    def test_scalars(self):
        got = sum_via_biproduct(MAT_R, ScalarMatrix([[1]]), ScalarMatrix([[2]]))
        assert got.values.tolist() == [[3]]

    def test_relations_union(self):
        src, tgt = ("a",), ("b", "b2")
        f = LRelation.from_pairs(BOOL, src, tgt, [("b", "a")])
        g = LRelation.from_pairs(BOOL, src, tgt, [("b2", "a")])
        assert sum_via_biproduct(REL, f, g) == (f | g)
        assert sum_via_biproduct(REL, f, g).to_pairs() == {("b", "a"), ("b2", "a")}

    def test_b4_values_join(self):
        f = LRelation.from_labels(B4, ("x",), ("y",), [["a"]])
        g = LRelation.from_labels(B4, ("x",), ("y",), [["b"]])
        assert sum_via_biproduct(REL_B4, f, g).value("y", "x") == "1"

    def test_non_parallel_rejected(self):
        with pytest.raises(ArrowTypeError):
            sum_via_biproduct(MAT_R, ScalarMatrix([[1]]), ScalarMatrix([[1, 2]]))


class TestFoldBiproduct:
    def test_empty_sequence_is_zero_object(self):
        carrier, pis, iotas = fold_biproduct(MAT_R, [])
        assert carrier == 0 and pis == [] and iotas == []

    def test_three_factor_fold(self):
        carrier, pis, iotas = fold_biproduct(MAT_R, [1, 2, 1])
        assert carrier == 4
        for i, (pi, iota) in enumerate(zip(pis, iotas)):
            assert MAT_R.equal(MAT_R.compose(pi, iota), MAT_R.identity(pi.target))
        total = None
        for pi, iota in zip(pis, iotas):
            piece = MAT_R.compose(iota, pi)
            total = piece if total is None else MAT_R.add(total, piece)
        assert MAT_R.equal(total, MAT_R.identity(4))


class TestLawSuite:
    @pytest.mark.parametrize("cat,tol", [
        (MAT_R, Tolerance(1e-9, 1e-9)),
        (MAT_C, Tolerance(1e-9, 1e-9)),
        (MAT_NN, Tolerance(1e-9, 1e-9)),
    ])
    def test_matrix_instances(self, cat, tol):
        report = run_law_suite(cat, trials=25, tol=tol, seed=11)
        assert report.passed, [c.law for c in report.failures()]

    @pytest.mark.parametrize("algebra", [BOOL, B4, chain(3)])
    def test_relation_instances_exact(self, algebra):
        report = run_law_suite(RelationCategory(algebra), trials=25, seed=11)
        assert report.passed, [c.law for c in report.failures()]
        assert report.max_residual == 0.0

    def test_corrupted_meet_table_is_rejected_when_built(self):
        # set meet(a, b) to the top: the unit rows stay intact, but the meet
        # is no longer associative, so no relation category over it exists
        meet = np.array(B4.meet, dtype=np.int16).copy()
        a, b, one = B4.index("a"), B4.index("b"), B4.index("1")
        meet[a, b] = meet[b, a] = one
        with pytest.raises(LatticeError) as err:
            HeytingTable(B4.elements, meet, B4.join, name="broken")
        assert str(err.value) == "meet associativity fails at ('a', 'a', 'b')"

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_raises(self, trials):
        with pytest.raises(PreconditionError,
                           match=f"trials must be at least 1, got {trials}"):
            run_law_suite(MAT_R, trials=trials)

    def test_negative_sampler_bound_raises_when_built(self):
        with pytest.raises(PreconditionError, match="max_dim .* got -2"):
            MAT_R.default_sampler(-2)
        with pytest.raises(PreconditionError, match="max_dim"):
            MatrixSampler(MAT_C.domain, max_dim=-1)
        with pytest.raises(PreconditionError, match="max_carrier .* got -1"):
            REL.default_sampler(-1)
        with pytest.raises(PreconditionError, match="max_carrier"):
            RelationSampler(B4, max_carrier=-1)
        assert MAT_R.default_sampler(0).max_dim == 0


class TestLawTally:
    def test_batch_folds_like_single_checks(self):
        # the residuals of a batch are the differing cell counts of exact
        # checks; totals, order and the first counterexample match checking
        # the same pairs one at a time
        x, y = ("x",), ("y0", "y1")
        arrows = [LRelation(BOOL, x, y, grid)
                  for grid in ([[0], [0]], [[1], [0]], [[0], [1]], [[1], [1]])]
        zero = REL.zero(x, y)
        single = LawTally(REL)
        for arrow in arrows:
            single.check("is_zero", arrow, zero, {"f": arrow})
        single.check("other", zero, zero, {})
        batched = LawTally(REL)
        seen = []

        def counterexample(i):
            seen.append(i)
            return batched.counterexample({"f": arrows[i]}, arrows[i], zero)

        residuals = np.array([REL.residual(a, zero) for a in arrows])
        batched.check_batch("is_zero", residuals[:2], counterexample,
                            residuals[:2] == 0)
        batched.check_batch("is_zero", residuals[2:], lambda i: {},
                            residuals[2:] == 0)
        batched.check("other", zero, zero, {})
        # the zero arrow's payload is a selection payload: compare its lists
        assert listed(batched.report().to_dict()) == listed(single.report().to_dict())
        assert seen == [1]
        check = batched.report().checks[0]
        assert (check.trials, check.max_residual) == (4, 2.0)

    def test_counterexample_lists_inputs_only_when_given(self):
        x, y = ("x",), ("y",)
        one = LRelation(BOOL, x, y, [[1]])
        zero = REL.zero(x, y)
        tally = LawTally(REL)
        tally.check("bare", one, zero)
        tally.check("with_inputs", one, zero, {"f": one})
        tally.check("no_inputs", one, zero, {})
        bare, with_inputs, no_inputs = (c.counterexample
                                        for c in tally.report().checks)
        assert set(bare) == {"lhs", "rhs"}
        assert with_inputs["inputs"] == {"f": REL.describe_arrow(one)}
        assert no_inputs == dict(bare, inputs={})

    def test_non_parallel_sides_raise_naming_the_law(self):
        x, y = ("x",), ("y",)
        tally = LawTally(REL)
        for want in (REL.zero(y, x), REL.zero(x, ("z",)), REL.zero(("w",), y)):
            with pytest.raises(ArrowTypeError,
                               match="law swapped: the sides are not parallel"):
                tally.check("swapped", REL.zero(x, y), want)
        with pytest.raises(ArrowTypeError, match="law first: the sides"):
            tally.check_blocks(["first", "second"], REL.zero(x, y),
                               REL.zero(x, ("z",)), [y], [x])
        with pytest.raises(ArrowTypeError, match="law mat: the sides"):
            LawTally(MAT_R).check("mat", MAT_R.zero(2, 1), MAT_R.zero(1, 2))
        assert tally.report().checks == []

    def test_blocks_are_recorded_row_major_with_their_own_counterexamples(self):
        targets, sources = [("a",), ("b", "c")], [("p",), ("q",)]
        got = LRelation.from_labels(B4, ("p", "q"), ("a", "b", "c"),
                                    [["0", "1"], ["0", "0"], ["b", "0"]])
        want = REL_B4.zero(("p", "q"), ("a", "b", "c"))
        tally = LawTally(REL_B4)
        tally.check_blocks(["b00", "b01", "b10", "b11"], got, want, targets,
                           sources, {"f": got})
        tally.check_blocks(["b01", "b11"], want, want, [("a", "b", "c")], sources)
        checks = tally.report().checks
        assert [(c.law, c.passed, c.trials, c.max_residual) for c in checks] == [
            ("b00", True, 1, 0.0), ("b01", False, 2, 1.0), ("b10", False, 1, 1.0),
            ("b11", True, 2, 0.0)]
        b01, b10 = checks[1].counterexample, checks[2].counterexample
        assert b01["lhs"] == {"source": ["q"], "target": ["a"], "values": [["1"]]}
        assert b01["rhs"] == {"source": ["q"], "target": ["a"], "values": [["0"]]}
        assert b10["lhs"] == {"source": ["p"], "target": ["b", "c"],
                              "values": [["0"], ["b"]]}
        assert b01["inputs"] == b10["inputs"] == {"f": REL_B4.describe_arrow(got)}


def tally_oracle_checks(cat, draws):
    """``(law, got, want, inputs)`` checks over the arrows ``draws`` gives:
    a pair of parallel arrows, and each with a few cells moved."""
    checks = []
    for k, (x, y, seed) in enumerate(draws):
        rng = np.random.default_rng(seed)
        values = random_cells(cat, rng, (len(y) if cat.exact else y,
                                         len(x) if cat.exact else x))
        f = cat._arrow(values, x, y)
        g = cat._arrow(moved_cells(cat, rng, values), x, y)
        h = cat._arrow(moved_cells(cat, rng, values), x, y)
        law = f"law{k % 2}"
        checks += [(law, f, f, None), (law, f, g, {"f": f}), ("moved", g, h, {}),
                   (law, h, f, {"f": h, "g": f})]
    return checks


@settings(max_examples=150, deadline=None)
@given(cat=st.sampled_from(CASES),
       sizes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                st.integers(0, 2 ** 16)), min_size=1, max_size=3),
       tol=st.sampled_from(TOLERANCES + (Tolerance(0.0, 0.5),)))
def test_tally_and_zero_object_match_the_per_instance_comparisons(cat, sizes, tol):
    """``LawTally.check`` and ``check_zero_object`` report what a tally fed
    each check's residual and verdict by the per-instance ``residual`` and
    ``equal`` bodies they replaced reports, empty grids included."""
    oracle = oracle_for(cat)
    draws = [(obj(cat, m), obj(cat, n, "w"), seed) for m, n, seed in sizes]
    checks = tally_oracle_checks(cat, draws)
    got, want = LawTally(cat, tol), LawTally(cat, tol)
    for law, a, b, inputs in checks:
        got.check(law, a, b, inputs)
        want.check_batch(law, np.array([oracle.residual(a, b)]),
                         lambda i: want.counterexample(inputs, a, b),
                         np.array([oracle.equal(a, b, tol)]))
    assert listed(got.report().to_dict()) == listed(want.report().to_dict())

    for x, _, _ in draws:
        zero, ident = cat.zero(x, x), cat.identity(x)
        expected = LawTally(cat, tol)
        expected.check_batch(
            "zero_object", np.array([oracle.residual(zero, ident)]),
            lambda i: {"identity": cat.describe_arrow(ident),
                       "zero": cat.describe_arrow(zero)},
            np.array([oracle.equal(zero, ident, tol)]))
        assert (listed(check_zero_object(cat, x, tol).to_dict())
                == listed(expected.report().to_dict()))
