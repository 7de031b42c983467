import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specat import (
    MAT_C,
    MAT_NN,
    MAT_R,
    ArrowTypeError,
    ScalarMatrix,
    Tolerance,
    check_biproduct_axioms,
    is_monomial,
    monomial_inverse,
)
from specat.matrices import COMPLEX, NONNEGATIVE

from ._oracles import generalized_matrix_witness_slow, matmul_slow


def mat(rows, domain=None):
    return ScalarMatrix(rows, domain or MAT_R.domain)


class TestScalarMatrix:
    def test_arrow_orientation(self):
        f = mat([[1, 2, 3], [4, 5, 6]])
        assert f.source == 3 and f.target == 2

    def test_identity_composition(self):
        f = mat([[1.5, -2], [0, 3], [7, 1]])
        assert MAT_R.identity(3) @ f == f
        assert f @ MAT_R.identity(2) == f

    def test_swap_squares_to_identity(self):
        swap = mat([[0, 1], [1, 0]])
        assert swap @ swap == MAT_R.identity(2)

    def test_compose_matches_loop_oracle(self):
        g = mat([[1, 2], [3, 4], [5, 6]])
        f = mat([[1, 0, 2], [0, -1, 1]])
        assert (g @ f).values.tolist() == matmul_slow(g, f)

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ArrowTypeError):
            mat([[1, 2]]) @ mat([[1, 2]])

    def test_add_unit_and_values(self):
        f = mat([[1.0]])
        assert f + MAT_R.zero(1, 1) == f
        assert (mat([[1.0]]) + mat([[2.0]])).values.tolist() == [[3.0]]

    def test_add_block_pattern(self):
        diag = mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        superdiag = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        expected = [[1, 1, 0], [0, 0, 1], [0, 0, 0]]
        assert (diag + superdiag).values.tolist() == expected

    def test_add_shape_mismatch(self):
        with pytest.raises(ArrowTypeError):
            mat([[1]]) + mat([[1, 2]])

    def test_nonnegative_rejects_negative_entries(self):
        with pytest.raises(ArrowTypeError):
            ScalarMatrix([[-1.0]], NONNEGATIVE)

    def test_nonnegative_has_no_subtraction(self):
        from specat import UnsupportedDomainError

        a = ScalarMatrix([[2.0]], NONNEGATIVE)
        with pytest.raises(UnsupportedDomainError):
            a - a

    def test_nonnegative_closed_under_operations(self):
        f = ScalarMatrix([[0.5, 2], [1, 0]], NONNEGATIVE)
        g = ScalarMatrix([[1, 1], [0, 3]], NONNEGATIVE)
        for result in (f @ g, f + g):
            assert result.domain is NONNEGATIVE
            assert np.min(result.values) >= 0

    @pytest.mark.parametrize("domain", [MAT_R.domain, COMPLEX, NONNEGATIVE])
    def test_overflowing_results_raise(self, domain):
        big = ScalarMatrix([[1e200]], domain)
        huge = ScalarMatrix([[1.5e308]], domain)
        with np.errstate(over="ignore"):
            with pytest.raises(ArrowTypeError, match="must be finite"):
                big @ big
            with pytest.raises(ArrowTypeError, match="must be finite"):
                huge + huge

    def test_nonnegative_results_are_checked(self):
        # a negative entry smuggled past the constructor surfaces in the
        # first sum or product computed from it
        bad = ScalarMatrix._derived(np.array([[-1.0]]), NONNEGATIVE)
        half = ScalarMatrix([[0.5]], NONNEGATIVE)
        with pytest.raises(ArrowTypeError, match="negative"):
            bad + half
        with pytest.raises(ArrowTypeError, match="negative"):
            half @ bad

    def test_complex_tolerance_on_modulus(self):
        a = ScalarMatrix([[1 + 1j]], COMPLEX)
        b = ScalarMatrix([[1 + 1j + 1e-12j]], COMPLEX)
        assert MAT_C.equal(a, b, Tolerance(1e-9, 0.0))
        assert not MAT_C.equal(a, b, Tolerance(1e-15, 0.0))


class TestCanonicalBiproduct:
    def test_two_one_blocks(self):
        w = MAT_R.canonical_biproduct(2, 1)
        assert w.pi1.values.tolist() == [[1, 0, 0], [0, 1, 0]]
        assert w.pi2.values.tolist() == [[0, 0, 1]]
        assert w.iota1 == w.pi1.transpose()
        assert check_biproduct_axioms(MAT_R, w).passed

    def test_zero_factor(self):
        w = MAT_R.canonical_biproduct(0, 3)
        assert w.pi2 == MAT_R.identity(3)
        assert w.pi1.values.shape == (0, 3)
        assert check_biproduct_axioms(MAT_R, w).passed

    def test_partition_of_identity(self):
        w = MAT_R.canonical_biproduct(1, 1)
        total = (w.iota1 @ w.pi1) + (w.iota2 @ w.pi2)
        assert total == MAT_R.identity(2)

    def test_axioms_exact_zero_one_entries(self):
        w = MAT_R.canonical_biproduct(3, 2)
        report = check_biproduct_axioms(MAT_R, w, Tolerance(0.0, 0.0))
        assert report.passed and report.max_residual == 0.0


@pytest.mark.parametrize("cat", [MAT_R, MAT_C, MAT_NN])
def test_built_arrows_match_validated_construction(cat):
    """Zeros, identities, witnesses, products and sums equal what the
    validating constructor made of the same numpy expressions: values,
    dtype and memory layout, which decides how BLAS is called.  Canonical
    injections are selections, built C-ordered from their positions."""
    def validated(values):
        return np.array(values, dtype=cat.domain.dtype)

    for left, right in [(0, 0), (0, 2), (2, 0), (1, 1), (2, 3)]:
        w = cat.canonical_biproduct(left, right)
        pi1 = validated(np.hstack([np.eye(left), np.zeros((left, right))]))
        pi2 = validated(np.hstack([np.zeros((right, left)), np.eye(right)]))
        iota1, iota2 = (validated(np.array(p.T, order="C")) for p in (pi1, pi2))
        pairs = [
            (cat.zero(left, right), validated(np.zeros((right, left)))),
            (cat.identity(right), validated(np.eye(right))),
            (w.pi1, pi1), (w.pi2, pi2),
            (w.iota1, iota1), (w.iota2, iota2),
        ]
        first = w.iota1 @ w.pi1
        total = first + w.iota2 @ w.pi2
        pairs += [
            (first, validated(iota1 @ pi1)),
            (total, validated(first.values + iota2 @ pi2)),
        ]
        for got, want in pairs:
            assert got.values.dtype == want.dtype
            assert got.values.shape == want.shape
            assert got.values.strides == want.strides
            assert np.array_equal(got.values, want)
            assert not got.values.flags.writeable


class TestGeneralizedWitness:
    def test_monomial_inverse_values(self):
        m = ScalarMatrix([[0, 2], [3, 0]], NONNEGATIVE)
        inv = monomial_inverse(m)
        assert inv.values.tolist() == [[0, 1 / 3], [1 / 2, 0]]
        assert (m @ inv) == ScalarMatrix(np.eye(2), NONNEGATIVE)

    def test_monomial_inverse_rejects_dense(self):
        with pytest.raises(ArrowTypeError):
            monomial_inverse(mat([[1, 1], [0, 1]]))

    def test_is_monomial(self):
        assert is_monomial(ScalarMatrix([[0, 5], [1, 0]]))
        assert not is_monomial(ScalarMatrix([[1, 1], [0, 1]]))
        assert not is_monomial(ScalarMatrix([[1, 0, 0], [0, 1, 0]]))

    def test_nonnegative_monomial_witness_passes_axioms(self):
        f = ScalarMatrix([[0, 2], [3, 0]], NONNEGATIVE)
        g = ScalarMatrix([[5]], NONNEGATIVE)
        w = MAT_NN.generalized_biproduct(f, g)
        assert check_biproduct_axioms(MAT_NN, w).passed
        assert np.min(w.iota1.values) >= 0 and np.min(w.iota2.values) >= 0

    def test_real_witness_with_supplied_inverse(self):
        f = mat([[2, 1], [1, 1]])
        f_inv = mat([[1, -1], [-1, 2]])
        g = mat([[4]])
        g_inv = mat([[0.25]])
        w = MAT_R.generalized_biproduct(f, g, f_inv, g_inv)
        assert check_biproduct_axioms(MAT_R, w).passed

    def test_real_witness_requires_explicit_inverse_when_dense(self):
        f = mat([[2, 1], [1, 1]])
        g = mat([[4]])
        with pytest.raises(ArrowTypeError):
            MAT_R.generalized_biproduct(f, g)

    @pytest.mark.parametrize("cat", [MAT_R, MAT_C, MAT_NN], ids=lambda c: c.name)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_witness_is_the_one_laid_out_by_hand(self, cat, data):
        (f, f_inv), (g, g_inv) = (data.draw(basis_change(cat)) for _ in "fg")
        got = cat.generalized_biproduct(f, g, f_inv, g_inv)
        want = generalized_matrix_witness_slow(
            cat, f, g, monomial_inverse(f) if f_inv is None else f_inv,
            monomial_inverse(g) if g_inv is None else g_inv)
        assert (got.left, got.right, got.carrier) == (want.left, want.right,
                                                      want.carrier)
        for name in ("pi1", "pi2", "iota1", "iota2"):
            a, b = getattr(got, name), getattr(want, name)
            # equal up to the sign of a zero, which == ignores
            assert a.values.dtype == b.values.dtype and a == b
        assert check_biproduct_axioms(cat, got).passed

    @pytest.mark.parametrize("f,g,f_inv,g_inv", [
        # a basis change or an inverse from another domain
        (ScalarMatrix([[0, 2], [3, 0]], NONNEGATIVE), mat([[1]]), None, None),
        (mat([[1]]), ScalarMatrix([[2j]], COMPLEX), None, None),
        (mat([[2, 1], [1, 1]]), mat([[1]]),
         ScalarMatrix([[1, -1], [-1, 2]], COMPLEX), None),
        # an inverse of the wrong size
        (mat([[2]]), mat([[1]]), mat([[0.5, 0]]), None),
        (mat([[2]]), mat([[1]]), None, mat([[1], [0]])),
    ], ids=["nonnegative-change", "complex-change", "complex-inverse",
            "wide-inverse", "tall-inverse"])
    def test_a_foreign_or_misshapen_basis_change_is_refused(self, f, g, f_inv,
                                                            g_inv):
        with pytest.raises(ArrowTypeError):
            MAT_R.generalized_biproduct(f, g, f_inv, g_inv)


@st.composite
def basis_change(draw, cat):
    """A basis change of up to 4 dimensions and its inverse: a monomial
    matrix with power-of-two scalars and no inverse given, or (outside the
    non-negative domain) a unit lower triangular one with small Gaussian
    integer entries and its exact inverse."""
    n = draw(st.integers(0, 4))
    if cat.domain.nonnegative or draw(st.booleans()):
        scalars = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])
        if not cat.domain.nonnegative:
            signs = [1, -1] + [1j, -1j] * cat.domain.is_complex
            scalars = st.builds(lambda s, sign: s * sign, scalars,
                                st.sampled_from(signs))
        values = np.zeros((n, n), dtype=cat.domain.dtype)
        values[np.arange(n), draw(st.permutations(range(n)))] = [
            draw(scalars) for _ in range(n)]
        return ScalarMatrix(values, cat.domain), None
    entries = st.integers(-2, 2)
    if cat.domain.is_complex:
        entries = st.builds(complex, entries, entries)
    values = np.eye(n, dtype=cat.domain.dtype)
    for i, j in zip(*np.tril_indices(n, -1)):
        values[i, j] = draw(entries)
    # the inverse is unit lower triangular with integer entries too
    inverse = np.round(np.linalg.inv(values))
    return ScalarMatrix(values, cat.domain), ScalarMatrix(inverse, cat.domain)


def test_reduced_action_reproduces_local_block():
    f = mat([[0, 1, 1], [1, 0, -1], [0, 0, 1]])
    rho1 = mat([[1, 0, 0], [0, 1, 1]])
    kappa1 = mat([[1, 0], [0, 1], [0, 0]])
    assert (rho1 @ f @ kappa1).values.tolist() == [[0, 1], [1, 0]]


class TestRestrict:
    def test_rows_and_columns_in_the_given_order(self):
        f = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        sub = MAT_R.restrict(f, [2, 0], [1])
        assert (sub.source, sub.target) == (1, 2)
        assert sub.values.tolist() == [[8.0], [2.0]]
        assert sub.values.flags.c_contiguous and not sub.values.flags.writeable
        assert MAT_R.restrict(f, [], [0, 1]) == MAT_R.zero(2, 0)

    def test_none_keeps_every_row_or_column(self):
        f = mat([[1, 2, 3], [4, 5, 6]])
        assert MAT_R.restrict(f, None, [2]).values.tolist() == [[3.0], [6.0]]
        assert MAT_R.restrict(f, [1], None).values.tolist() == [[4.0, 5.0, 6.0]]
        assert MAT_R.restrict(f, None, None) == f
