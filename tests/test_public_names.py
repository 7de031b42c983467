"""The public names of ``specat`` are part of its contract."""

import specat

PUBLIC_NAMES = [
    "Arrow", "ArrowSampler", "ArrowTypeError", "BiproductWitness", "Block",
    "COMPLEX", "DecompositionError", "EquitableQuotient", "HeytingTable",
    "LRelation", "LatticeError", "LatticeHom", "LawCheck", "LawReport",
    "MAT_C", "MAT_NN", "MAT_R", "MatrixCategory", "NONNEGATIVE", "ParseError",
    "Partition", "PreconditionError", "REAL", "REL", "RelationCategory",
    "ScalarDomain", "ScalarMatrix", "SemiadditiveCategory",
    "SemiadditiveFunctor", "SpecatError", "SpectralDecomposition",
    "Tolerance", "UnsupportedDomainError", "b4", "bool_algebra", "chain",
    "check_biproduct_axioms", "check_cmon_functor",
    "check_cmon_functor_exhaustive", "check_zero_object",
    "coarsest_equitable_partition", "codiagonal", "compose_decompositions",
    "copair", "detect_blocks", "diagonal", "fold_biproduct", "fold_to_binary",
    "identity_hom", "induced_functor", "is_monomial", "map_decomposition",
    "monomial_inverse", "oplus", "pair", "principal_filter_hom",
    "reduced_transition_matrix", "residual_part", "run_law_suite",
    "separate_components", "sum_decompositions", "sum_via_biproduct",
    "verify_decomposition", "verify_quotient", "walk_matrix",
]


def test_public_names_are_pinned():
    assert sorted(specat.__all__) == PUBLIC_NAMES


def test_every_public_name_imports():
    namespace = {}
    exec("from specat import *", namespace)
    assert [name for name in PUBLIC_NAMES if name not in namespace] == []
