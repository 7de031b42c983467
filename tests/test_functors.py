import dataclasses
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specat import (
    MAT_R,
    ArrowTypeError,
    DecompositionError,
    LatticeError,
    LatticeHom,
    LRelation,
    PreconditionError,
    RelationCategory,
    SemiadditiveFunctor,
    ScalarMatrix,
    b4,
    bool_algebra,
    chain,
    check_cmon_functor,
    check_cmon_functor_exhaustive,
    core,
    functors,
    identity_hom,
    induced_functor,
    map_decomposition,
    principal_filter_hom,
    separate_components,
    verify_decomposition,
)

from ._oracles import (
    all_relations,
    check_lattice_hom_slow,
    exhaustive_functor_check_slow,
    listed,
)
from .test_grid import obj
from .test_properties import product_lattice
from .test_selections import arrows
from .test_spectral import brel, path3_decomposition, loops3_decomposition, C3

B4 = b4()
BOOL = bool_algebra()
REL_B4 = RelationCategory(B4)


class TestLatticeHom:
    def test_threshold_keeps_upper_set_of_a(self):
        hom = principal_filter_hom(B4, "a")
        assert [BOOL.label(v) for v in hom.mapping] == ["0", "1", "0", "1"]

    def test_threshold_keeps_upper_set_of_b(self):
        hom = principal_filter_hom(B4, "b")
        assert [BOOL.label(v) for v in hom.mapping] == ["0", "0", "1", "1"]

    def test_identity_hom(self):
        hom = identity_hom(B4)
        assert hom.mapping == (0, 1, 2, 3)

    def test_collapsing_map_rejected_with_pair(self):
        with pytest.raises(LatticeError, match="meet"):
            LatticeHom.from_labels(B4, BOOL,
                                   {"0": "0", "a": "1", "b": "1", "1": "1"})

    def test_bottom_preservation_required(self):
        with pytest.raises(LatticeError, match="bottom"):
            LatticeHom.from_labels(BOOL, BOOL, {"0": "1", "1": "1"})

    def test_chain_floor_map(self):
        # send the middle chain value down to bottom: a valid hom
        hom = LatticeHom.from_labels(chain(3), BOOL,
                                     {"0": "0", "1/2": "0", "1": "1"})
        assert [BOOL.label(v) for v in hom.mapping] == ["0", "0", "1"]


HOM_ALGEBRAS = (BOOL, B4, chain(5), product_lattice(chain(2), chain(3)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_lattice_hom_check_names_the_oracles_first_violation(data):
    """Random maps, some keeping bottom and top, some a principal filter's
    threshold map with an entry moved: each is refused with the message of
    the pair-by-pair oracle, or accepted by both."""
    src = data.draw(st.sampled_from(HOM_ALGEBRAS))
    tgt = data.draw(st.sampled_from(HOM_ALGEBRAS))
    k, elements = len(src.elements), st.integers(0, len(tgt.elements) - 1)
    if data.draw(st.booleans()):
        cut = data.draw(st.integers(0, k - 1))
        mapping = [tgt.top if src.leq(cut, x) else tgt.bottom for x in range(k)]
        if data.draw(st.booleans()):
            mapping[data.draw(st.integers(0, k - 1))] = data.draw(elements)
    else:
        mapping = data.draw(st.lists(elements, min_size=k, max_size=k))
        if data.draw(st.booleans()):
            mapping[src.bottom], mapping[src.top] = tgt.bottom, tgt.top
    try:
        check_lattice_hom_slow(src, tgt, mapping)
    except LatticeError as exc:
        with pytest.raises(LatticeError) as got:
            LatticeHom(src, tgt, tuple(mapping))
        assert str(got.value) == str(exc)
    else:
        assert LatticeHom(src, tgt, tuple(mapping)).mapping == tuple(mapping)


class TestInducedFunctor:
    def test_object_action_is_identity_on_carriers(self):
        functor = induced_functor(principal_filter_hom(B4, "a"))
        assert functor.apply_object(("x", "y")) == ("x", "y")

    def test_entrywise_arrow_action(self):
        functor = induced_functor(principal_filter_hom(B4, "a"))
        f = brel(("x",), ("y", "z"), [["a"], ["b"]])
        image = functor.apply_arrow(f)
        assert image.to_pairs() == {("y", "x")}

    def test_randomized_checker_passes(self):
        for hom in (principal_filter_hom(B4, "a"),
                    principal_filter_hom(B4, "b"),
                    identity_hom(B4)):
            report = check_cmon_functor(induced_functor(hom), trials=25, seed=2)
            assert report.passed, [c.law for c in report.failures()]

    def test_trials_below_one_raises(self):
        functor = induced_functor(identity_hom(B4))
        with pytest.raises(PreconditionError, match="trials must be at least 1"):
            check_cmon_functor(functor, trials=0)

    def test_exhaustive_checker_over_small_homsets(self):
        from specat import check_cmon_functor_exhaustive

        # every homset whose grid has at most four cells is enumerated in
        # full; entrywise action makes this cover all value combinations the
        # laws can meet
        report = check_cmon_functor_exhaustive(
            induced_functor(principal_filter_hom(B4, "a")), max_cells=4)
        assert report.passed, [c.law for c in report.failures()]
        additive = next(c for c in report.checks if c.law == "additive")
        homset_sizes = {(1, 1): 4, (1, 2): 16, (2, 1): 16, (1, 3): 64,
                        (3, 1): 64, (1, 4): 256, (4, 1): 256, (2, 2): 256}
        assert additive.trials == sum(v * v for v in homset_sizes.values())

    def test_exhaustive_checker_needs_finite_homsets(self):
        from specat import MAT_R, check_cmon_functor_exhaustive
        from specat.core import ArrowTypeError

        doubling = SemiadditiveFunctor(
            "caller-supplied", MAT_R, MAT_R, lambda obj: obj, lambda f: f)
        with pytest.raises(ArrowTypeError):
            check_cmon_functor_exhaustive(doubling)

    def test_hand_rolled_enumeration_agrees(self):
        # independent cross-check of the exhaustive checker on one shape
        functor = induced_functor(principal_filter_hom(B4, "a"))
        src_cat, tgt_cat = functor.source, functor.target
        source, target = ("s0", "s1"), ("t0",)
        arrows = list(all_relations(B4, source, target))
        for f in arrows:
            ff = functor.apply_arrow(f)
            for g in arrows:
                assert functor.apply_arrow(src_cat.add(f, g)) == tgt_cat.add(
                    ff, functor.apply_arrow(g))
        left = list(all_relations(B4, ("m",), target))
        right = list(all_relations(B4, source, ("m",)))
        for g in left:
            for f in right:
                assert functor.apply_arrow(src_cat.compose(g, f)) == \
                    tgt_cat.compose(functor.apply_arrow(g),
                                    functor.apply_arrow(f))
        assert functor.apply_arrow(src_cat.identity(source)) == \
            tgt_cat.identity(source)
        assert functor.apply_arrow(src_cat.zero(source, target)) == \
            tgt_cat.zero(source, target)

    def test_checker_catches_non_functor(self):
        # entrywise map sending everything nonzero to top preserves joins but
        # not meets, so composition must fail
        table = np.array([0, 1, 1, 1], dtype=np.int16)
        src = RelationCategory(B4)
        tgt = RelationCategory(BOOL)

        def bad_map(f):
            return LRelation(BOOL, f.source, f.target, table[f.values])

        bogus = SemiadditiveFunctor("caller-supplied", src, tgt,
                                    lambda obj: obj, bad_map)
        report = check_cmon_functor(bogus, trials=40, seed=1)
        assert not report.passed
        assert "composition" in {c.law for c in report.failures()}

    def test_zero_object_preserved(self):
        functor = induced_functor(principal_filter_hom(B4, "a"))
        report = check_cmon_functor(functor, trials=1, seed=0)
        zero_check = next(c for c in report.checks if c.law == "zero_object")
        assert zero_check.passed


class TestMapDecomposition:
    def test_threshold_image_of_summed_fixture(self):
        from specat import sum_decompositions

        total = sum_decompositions(REL_B4, path3_decomposition(),
                                   loops3_decomposition())
        functor = induced_functor(principal_filter_hom(B4, "a"))
        image, mapped = map_decomposition(functor, total.arrow, total)
        assert image.to_pairs() == {("c1", "c1"), ("c1", "c2"), ("c2", "c2")}
        report = verify_decomposition(functor.target, image, mapped)
        assert report.passed and report.max_residual == 0.0

    def test_identity_functor_returns_inputs(self):
        dec = path3_decomposition()
        functor = induced_functor(identity_hom(B4))
        image, mapped = map_decomposition(functor, dec.arrow, dec)
        assert image == dec.arrow
        for got, want in zip(mapped.blocks, dec.blocks):
            assert got.local == want.local
            assert got.inject == want.inject

    def test_complementary_threshold_image(self):
        from specat import sum_decompositions

        total = sum_decompositions(REL_B4, path3_decomposition(),
                                   loops3_decomposition())
        functor = induced_functor(principal_filter_hom(B4, "b"))
        image, mapped = map_decomposition(functor, total.arrow, total)
        assert image.to_pairs() == {("c1", "c1"), ("c2", "c3"), ("c3", "c3")}
        assert verify_decomposition(functor.target, image, mapped).passed

    def test_unverified_input_rejected(self):
        dec = path3_decomposition()
        wrong = brel(C3, C3, [["1", "1", "1"], ["1", "1", "1"], ["1", "1", "1"]])
        functor = induced_functor(principal_filter_hom(B4, "a"))
        with pytest.raises(DecompositionError, match="does not verify"):
            map_decomposition(functor, wrong, dec)

    def test_component_decompositions_map_to_verified_images(self):
        rng = random.Random(17)
        functor = induced_functor(principal_filter_hom(B4, "a"))
        sampler = REL_B4.default_sampler(6)
        for _ in range(30):
            carrier = tuple(f"n{i}" for i in range(rng.randrange(1, 7)))
            f = sampler.random_arrow(rng, carrier, carrier)
            mask = np.array([[rng.random() < 0.3 for _ in carrier]
                             for _ in carrier])
            f = LRelation(B4, carrier, carrier,
                          np.where(mask, f.values, B4.bottom))
            _, dec = separate_components(f)
            image, mapped = map_decomposition(functor, f, dec)
            assert verify_decomposition(functor.target, image, mapped).passed


# The batched exhaustive pass against the per-pair oracle.  Homsets are kept
# to at most 64 arrows (4096 pairs) so the oracle stays quick.
FUNCTOR_ALGEBRAS = (bool_algebra(), b4(), chain(3),
                    product_lattice(chain(2), chain(3)))


def _small_cells(algebra):
    k = len(algebra.elements)
    return st.integers(1, 3).filter(lambda cells: k ** cells <= 64)


def _assert_matches_oracle(functor, max_cells):
    got = check_cmon_functor_exhaustive(functor, max_cells=max_cells)
    want = exhaustive_functor_check_slow(functor, max_cells)
    assert listed(got.to_dict()) == listed(want.to_dict())
    return got


def _entrywise(source, target, table):
    table = np.array(table, dtype=np.int16)

    def arrow_map(f):
        return LRelation(target, f.source, f.target, table[f.values])

    return SemiadditiveFunctor("caller-supplied", RelationCategory(source),
                               RelationCategory(target), lambda obj: obj,
                               arrow_map)


def _induced_homs(algebra):
    homs = [identity_hom(algebra)]
    for label in algebra.elements:
        try:
            homs.append(principal_filter_hom(algebra, label))
        except LatticeError:
            pass
    return homs


@settings(max_examples=200, deadline=None)
@given(data=st.data(), broken=st.booleans(), n=st.integers(0, 4),
       m=st.integers(0, 4))
def test_induced_functors_keep_selection_forms(data, broken, n, m):
    """A form-carrying arrow maps to the selection with the same positions,
    whose grid is the dense image's; a table that does not send bottom to
    bottom maps it densely."""
    algebra = data.draw(st.sampled_from(FUNCTOR_ALGEBRAS))
    hom = data.draw(st.sampled_from(_induced_homs(algebra)))
    if broken:  # a map no LatticeHom accepts
        table = list(hom.mapping)
        table[algebra.bottom] = hom.target.top
        hom = SimpleNamespace(source=algebra, target=hom.target, mapping=table)
    cat = RelationCategory(algebra)
    f, twin = data.draw(arrows(cat, obj(cat, m, "x"), obj(cat, n, "y")))
    functor = induced_functor(hom)
    got, want = functor.apply_arrow(f), functor.apply_arrow(twin)
    assert (got._form is not None) == (f._form is not None and not broken)
    assert (got.source, got.target) == (want.source, want.target)
    assert got.values.dtype == want.values.dtype
    assert np.array_equal(got.values, want.values)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_exhaustive_pass_matches_per_pair_oracle_on_induced_functors(data):
    algebra = data.draw(st.sampled_from(FUNCTOR_ALGEBRAS))
    hom = data.draw(st.sampled_from(_induced_homs(algebra)))
    report = _assert_matches_oracle(induced_functor(hom),
                                    data.draw(_small_cells(algebra)))
    assert report.passed


def test_exhaustive_pass_matches_oracle_on_product_lattice_at_three_cells():
    algebra = product_lattice(chain(2), chain(3))
    _assert_matches_oracle(induced_functor(identity_hom(algebra)), 3)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exhaustive_pass_matches_oracle_on_arbitrary_entrywise_maps(data):
    # an arbitrary table breaks joins, meets, bottom or top in any mix
    source = data.draw(st.sampled_from(FUNCTOR_ALGEBRAS))
    target = data.draw(st.sampled_from(FUNCTOR_ALGEBRAS))
    table = data.draw(st.lists(st.integers(0, len(target.elements) - 1),
                               min_size=len(source.elements),
                               max_size=len(source.elements)))
    # small chunks split the pairs of one homset into several batches
    chunk = data.draw(st.sampled_from([1, 7, 64, functors._PAIRS_PER_CHUNK]))
    with mock.patch.object(functors, "_PAIRS_PER_CHUNK", chunk):
        _assert_matches_oracle(_entrywise(source, target, table),
                               data.draw(_small_cells(source)))


@pytest.mark.parametrize("algebra", [BOOL, B4, chain(5), chain(8)],
                         ids=["bool", "b4", "chain5", "chain8"])
@pytest.mark.parametrize("max_cells", [1, 2, 3])
def test_pair_count_is_what_the_exhaustive_pass_checks(algebra, max_cells,
                                                       monkeypatch):
    k = len(algebra.elements)
    pairs = []
    check_pairs = functors._check_pairs

    def counting(T, tally, law, lefts, rights, *rest):
        pairs.append(len(lefts.arrows) * len(rights.arrows))
        return check_pairs(T, tally, law, lefts, rights, *rest)

    monkeypatch.setattr(functors, "_check_pairs", counting)
    check_cmon_functor_exhaustive(induced_functor(identity_hom(algebra)),
                                  max_cells)
    assert sum(pairs) == functors._exhaustive_pairs(k, max_cells)
    if max_cells == 2:
        # 2k^4 + 2k^3 + 2k^2
        assert sum(pairs) == 2 * (k ** 4 + k ** 3 + k ** 2)
        assert sum(pairs) == {2: 56, 4: 672, 5: 1550, 8: 9344}[k]


@pytest.mark.parametrize("chunk", [1, functors._PAIRS_PER_CHUNK])
@pytest.mark.parametrize("max_cells", [1, 2, 3])
def test_exhaustive_pass_reports_broken_joins_like_the_oracle(max_cells, chunk,
                                                              monkeypatch):
    # top only at top: keeps meets, bottom and top, breaks a v b = 1; the
    # first failing pair (a, b) lies in the second chunk of one pair each
    monkeypatch.setattr(functors, "_PAIRS_PER_CHUNK", chunk)
    top = B4.top
    table = [BOOL.top if x == top else BOOL.bottom for x in range(4)]
    report = _assert_matches_oracle(_entrywise(B4, BOOL, table), max_cells)
    failing = {c.law for c in report.failures()}
    assert "additive" in failing and "composition" not in failing


@pytest.mark.parametrize("max_cells", [1, 2, 3])
def test_exhaustive_pass_reports_broken_meets_like_the_oracle(max_cells):
    # everything above bottom to top: keeps joins, breaks a ^ b = 0
    table = [BOOL.bottom, BOOL.top, BOOL.top, BOOL.top]
    report = _assert_matches_oracle(_entrywise(B4, BOOL, table), max_cells)
    failing = {c.law for c in report.failures()}
    assert "composition" in failing and "additive" not in failing


def _padded(algebra, pad_value):
    """A rel -> rel functor that adds one element to every carrier.

    The image keeps the grid and sets the new corner cell to
    ``pad_value(f)``, so carriers change and composition in the target runs
    through a two-element middle.
    """
    def object_map(carrier):
        return tuple(carrier) + ("pad",)

    def arrow_map(f):
        grid = np.full((len(f.target) + 1, len(f.source) + 1), algebra.bottom,
                       dtype=np.int16)
        grid[:-1, :-1] = f.values
        grid[-1, -1] = pad_value(f)
        return LRelation(algebra, object_map(f.source), object_map(f.target),
                         grid)

    cat = RelationCategory(algebra)
    return SemiadditiveFunctor("caller-supplied", cat, cat, object_map,
                               arrow_map)


@pytest.mark.parametrize("pad", ["bottom", "top", "max"])
@pytest.mark.parametrize("max_cells", [1, 2, 3])
def test_exhaustive_pass_matches_oracle_on_carrier_changing_functor(pad,
                                                                    max_cells):
    pad_value = {
        "bottom": lambda f: B4.bottom,
        "top": lambda f: B4.top,
        "max": lambda f: int(f.values.max(initial=0)),
    }[pad]
    _assert_matches_oracle(_padded(B4, pad_value), max_cells)


def test_exhaustive_pass_rejects_images_over_two_algebras_like_the_oracle():
    def arrow_map(f):
        target = BOOL if f.values.max(initial=0) == B4.top else B4
        return LRelation(target, f.source, f.target,
                         np.zeros(f.values.shape, dtype=np.int16))

    functor = SemiadditiveFunctor("caller-supplied", REL_B4, REL_B4,
                                  lambda obj: obj, arrow_map)
    messages = []
    for check in (check_cmon_functor_exhaustive,
                  exhaustive_functor_check_slow):
        with pytest.raises(ArrowTypeError) as info:
            check(functor, 2)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def _support_matrix(algebra, weights):
    """A rel -> mat functor: each cell's weight, carriers to their size."""
    weights = np.array(weights, dtype=np.float64)
    return SemiadditiveFunctor(
        "caller-supplied", RelationCategory(algebra), MAT_R, len,
        lambda f: ScalarMatrix(weights[f.values]))


@pytest.mark.parametrize("weights", [[0, 1, 1, 1], [0, 1, 2, 3], [0, 0, 0, 0]])
@pytest.mark.parametrize("max_cells", [1, 2])
def test_relation_to_matrix_functor_matches_the_oracle(weights, max_cells):
    functor = _support_matrix(B4, weights)
    report = _assert_matches_oracle(functor, max_cells)
    additive = next(c for c in report.checks if c.law == "additive")
    assert additive.trials == sum(
        16 ** (r * c) for r in range(1, 3) for c in range(1, 3)
        if r * c <= max_cells)
    # joins do not become sums and identities do not survive, so it fails
    assert not report.passed


class ListRelationCategory(RelationCategory):
    """Relations whose batches are the list default of the batch layer."""

    def _batches(self):
        return core._ListBatches(self)


# top only at top breaks joins; everything above bottom to top breaks meets
BROKEN_JOINS = [BOOL.bottom, BOOL.bottom, BOOL.bottom, BOOL.top]
BROKEN_MEETS = [BOOL.bottom, BOOL.top, BOOL.top, BOOL.top]


@pytest.mark.parametrize("max_cells", [1, 2, 3])
@pytest.mark.parametrize("target", ["list", "mat"])
def test_exhaustive_pass_on_any_target_batches_matches_the_oracle(target,
                                                                  max_cells):
    # the pair laws of every target run on its batches: a relation instance
    # keeping the list default, and the padded matrix stacks
    if target == "list":
        functors_ = [dataclasses.replace(_entrywise(B4, BOOL, table),
                                         target=ListRelationCategory(BOOL))
                     for table in ([0, 1, 0, 1], BROKEN_JOINS, BROKEN_MEETS)]
    else:
        functors_ = [_support_matrix(B4, [0, 1, 2, 3])]
    for functor in functors_:
        _assert_matches_oracle(functor, max_cells)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("table", [BROKEN_JOINS, BROKEN_MEETS],
                         ids=["joins", "meets"])
def test_first_pair_counterexample_is_the_oracles_in_small_chunks(table, chunk,
                                                                  monkeypatch):
    monkeypatch.setattr(functors, "_PAIRS_PER_CHUNK", chunk)
    functor = _entrywise(B4, BOOL, table)
    got = check_cmon_functor_exhaustive(functor, max_cells=2)
    want = exhaustive_functor_check_slow(functor, 2)
    laws = ("additive", "composition")
    got_pairs = [c for c in got.checks if c.law in laws]
    assert [c.to_dict() for c in got_pairs] == \
        [c.to_dict() for c in want.checks if c.law in laws]
    assert any(c.counterexample is not None for c in got_pairs)
