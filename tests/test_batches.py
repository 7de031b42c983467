"""The batched law checkers against their trial-by-trial oracles.

``run_law_suite`` and the sampled part of ``check_cmon_functor`` check each
law once over a chunk of trials, on stacks padded to the largest object of
each batch.  These tests hold them to the per-trial loops in ``_oracles``,
pin the padding invariants the batches rely on, and bound their memory.
"""

import random
import tracemalloc

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
    SemiadditiveFunctor,
    Tolerance,
    b4,
    bool_algebra,
    chain,
    check_cmon_functor,
    induced_functor,
    principal_filter_hom,
    run_law_suite,
)
from specat import core, relations
from specat.core import _ListBatches
from specat.matrices import COMPLEX
from specat.relations import RelationSampler, _lookup

from ._oracles import (check_cmon_functor_sampled_slow, listed,
                       run_law_suite_slow)
from .test_properties import product_lattice

EXACT_CASES = (
    RelationCategory(bool_algebra()),
    RelationCategory(b4()),
    RelationCategory(chain(3)),
    RelationCategory(product_lattice(chain(2), chain(3))),
)
MATRIX_CASES = (MAT_R, MAT_C, MAT_NN)


def assert_reports_agree(got, want, exact: bool) -> None:
    """Equal reports; matrix residuals may differ in their last bits, since
    padding changes the inner dimension BLAS sums over."""
    if exact:
        assert got.to_dict() == want.to_dict()
        return
    assert got.passed == want.passed
    assert [c.law for c in got.checks] == [c.law for c in want.checks]
    for a, b in zip(got.checks, want.checks):
        assert (a.passed, a.trials) == (b.passed, b.trials), a.law
        assert a.max_residual == pytest.approx(b.max_residual, abs=1e-12), a.law
        assert (a.counterexample is None) == (b.counterexample is None)
        if a.counterexample is not None:
            assert a.counterexample.keys() == b.counterexample.keys()


def chunk_budget(cat, trials: int, bound: int) -> int:
    """A chunk budget that holds ``trials`` trials with objects at ``bound``."""
    widest = tuple(range(bound)) if cat.exact else bound
    return trials * cat._batches().footprint([widest])


# ---------------------------------------------------------------------------
# kernels with a batch axis


@pytest.mark.parametrize("algebra", [bool_algebra(), b4(), chain(8),
                                     product_lattice(chain(2), chain(3))],
                         ids=["bool", "b4", "chain8", "product"])
def test_level_cuts_compose_a_stack_as_each_grid(algebra):
    rng = np.random.default_rng(7)
    k = len(algebra.elements)
    g = rng.integers(0, k, size=(5, 3, 4, 6)).astype(np.int16)
    f = rng.integers(0, k, size=(5, 3, 6, 2)).astype(np.int16)
    stacked = algebra._cuts.compose(g, f)
    assert stacked.shape == (5, 3, 4, 2)
    for idx in np.ndindex(5, 3):
        assert np.array_equal(stacked[idx], algebra._cuts.compose(g[idx], f[idx]))


def test_level_cuts_chunk_a_stack_by_its_whole_size(monkeypatch):
    # a budget below one level's cuts of the whole stack forces one level
    # per product; the result must not depend on how levels are grouped
    algebra = chain(8)
    rng = np.random.default_rng(3)
    g = rng.integers(0, 8, size=(9, 5, 5)).astype(np.int16)
    f = rng.integers(0, 8, size=(9, 5, 5)).astype(np.int16)
    whole = algebra._cuts.compose(g, f)
    monkeypatch.setattr(relations, "_CUT_CHUNK_BYTES", 4 * 9 * 25)
    assert np.array_equal(algebra._cuts.compose(g, f), whole)


# ---------------------------------------------------------------------------
# padded batches: blank padding, and agreement with the list default

ALL_CASES = MATRIX_CASES + EXACT_CASES


def objects_for(cat, sizes):
    if cat.exact:
        return [tuple(f"v{i}" for i in range(n)) for n in sizes]
    return list(sizes)


def random_arrows(cat, sources, targets, rng):
    sampler = cat.default_sampler()
    return [sampler.random_arrow(rng, s, t) for s, t in zip(sources, targets)]


def assert_blank_padding(batches, stack):
    rows = np.arange(stack.target.pad) < stack.target.sizes[:, None]
    cols = np.arange(stack.source.pad) < stack.source.sizes[:, None]
    real = rows[:, :, None] & cols[:, None, :]
    assert np.all(stack.values[~real] == batches.cat._blank)


def assert_same_arrows(cat, padded, listed, stack_a, stack_b):
    for i in range(len(stack_a.source.items)):
        a, b = padded.arrow(stack_a, i), listed.arrow(stack_b, i)
        assert (a.source, a.target) == (b.source, b.target)
        if cat.exact:
            assert np.array_equal(a.values, b.values)
        else:
            assert np.allclose(a.values, b.values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("cat", ALL_CASES, ids=lambda c: c.name)
def test_padded_batches_keep_padding_blank_and_match_the_list_default(cat):
    rng = random.Random(4)
    padded, listed = cat._batches(), _ListBatches(cat)
    assert type(padded) is not _ListBatches
    sizes = {name: [rng.randrange(4) for _ in range(6)] for name in "xyz"}
    objects = {name: objects_for(cat, s) for name, s in sizes.items()}
    P = {n: padded.objects(o) for n, o in objects.items()}
    L = {n: listed.objects(o) for n, o in objects.items()}
    f = random_arrows(cat, objects["x"], objects["y"], rng)
    g = random_arrows(cat, objects["x"], objects["y"], rng)
    u = random_arrows(cat, objects["y"], objects["z"], rng)
    pf, lf = padded.arrows(f, P["x"], P["y"]), listed.arrows(f, L["x"], L["y"])
    pg, lg = padded.arrows(g, P["x"], P["y"]), listed.arrows(g, L["x"], L["y"])
    pu, lu = padded.arrows(u, P["y"], P["z"]), listed.arrows(u, L["y"], L["z"])

    results = [
        (padded.compose(pu, pf), listed.compose(lu, lf)),
        (padded.add(pf, pg), listed.add(lf, lg)),
        (padded.zero(P["x"], P["z"]), listed.zero(L["x"], L["z"])),
        (padded.identity(P["y"]), listed.identity(L["y"])),
    ]
    pw = padded.canonical_biproduct(P["x"], P["y"])
    lw = listed.canonical_biproduct(L["x"], L["y"])
    assert pw.carrier.items == lw.carrier.items
    results += [(getattr(pw, name), getattr(lw, name))
                for name in ("pi1", "pi2", "iota1", "iota2")]
    # the composite through the carrier pads twice the factors' widths
    results.append((padded.compose(pw.iota1, pw.pi1),
                    listed.compose(lw.iota1, lw.pi1)))
    for got, want in results:
        assert_blank_padding(padded, got)
        assert_same_arrows(cat, padded, listed, got, want)
    # un-padding returns each drawn arrow as it was
    for i, arrow in enumerate(f):
        assert cat.equal(padded.arrow(pf, i), arrow, Tolerance(0.0, 0.0))

    residual, passed = padded.compare(padded.add(pf, pg), pf, None)
    want_residual, want_passed = listed.compare(listed.add(lf, lg), lf, None)
    assert np.array_equal(passed, want_passed)
    assert np.allclose(residual, want_residual, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the law suite against its per-trial oracle

BUDGETS = ("default", "one", "seven")


def budget_for(cat, which: str, max_size: int):
    if which == "default":
        return core._CHUNK_BYTES
    if which == "one":
        return 1
    return chunk_budget(cat, 7, max_size)


@settings(max_examples=60, deadline=None)
@given(cat=st.sampled_from(EXACT_CASES + MATRIX_CASES),
       trials=st.integers(1, 40), max_size=st.integers(0, 3),
       seed=st.integers(0, 2 ** 16), budget=st.sampled_from(BUDGETS))
def test_law_suite_matches_the_per_trial_oracle(cat, trials, max_size, seed,
                                                budget):
    sampler = cat.default_sampler(max_size)
    want = run_law_suite_slow(cat, sampler, trials=trials, seed=seed)
    saved = core._CHUNK_BYTES
    core._CHUNK_BYTES = budget_for(cat, budget, max_size)
    try:
        got = run_law_suite(cat, sampler, trials=trials, seed=seed)
    finally:
        core._CHUNK_BYTES = saved
    assert_reports_agree(got, want, exact=cat.exact)


class FullSizeSampler(RelationSampler):
    """Every carrier at the bound, so each trial costs the same."""

    def random_object(self, rng):
        return tuple(f"v{i}" for i in range(self.max_carrier))


class MeetAddCategory(RelationCategory):
    """Relations over b4 "added" by meets, per arrow and on batches: a
    failing instance whose padding stays bottom."""

    def add(self, f, g):
        return LRelation._derived(f.algebra, f.source, f.target,
                                  f.algebra.meet[f.values, g.values])

    def _add_cells(self, f, g):
        return _lookup(self.algebra.meet, f, g)


@pytest.mark.parametrize("per_chunk", [1, 7])
def test_chunks_of_one_and_seven_keep_the_first_counterexample(
        monkeypatch, per_chunk):
    cat = MeetAddCategory(b4())
    sampler = FullSizeSampler(cat.algebra, max_carrier=2)
    chunk_sizes = []
    draw_chunks = core._trial_chunks

    def recording(*args):
        for chunk in draw_chunks(*args):
            chunk_sizes.append(len(chunk))
            yield chunk

    monkeypatch.setattr(core, "_trial_chunks", recording)
    monkeypatch.setattr(core, "_CHUNK_BYTES", chunk_budget(cat, per_chunk, 2))
    got = run_law_suite(cat, sampler, trials=23, seed=3)
    full, rest = divmod(23, per_chunk)
    assert chunk_sizes == [per_chunk] * full + ([rest] if rest else [])
    want = run_law_suite_slow(cat, sampler, trials=23, seed=3)
    assert not got.passed
    assert got.to_dict() == want.to_dict()


def test_law_suite_memory_does_not_grow_with_trials(monkeypatch):
    # every object at the bound, so each chunk pads to the same widths; the
    # interpreter's free lists keep freed blocks traced, so one long run
    # first fills them and both peaks are read above the memory it leaves
    cat = RelationCategory(b4())
    sampler = FullSizeSampler(cat.algebra, max_carrier=6)
    monkeypatch.setattr(core, "_CHUNK_BYTES", chunk_budget(cat, 8, 6))

    def peak(trials: int) -> int:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_law_suite(cat, sampler, trials=trials, seed=1)
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(200)
        one_chunk, ten_chunks = peak(8), peak(80)
    finally:
        tracemalloc.stop()
    assert ten_chunks <= 1.25 * one_chunk


# ---------------------------------------------------------------------------
# sampled functor trials against their per-trial oracle

BOOL = bool_algebra()
THRESHOLD = np.array([0, 1, 1, 1], dtype=np.int16)


def bogus_functor():
    """Sends every nonzero b4 value to top: keeps joins, breaks meets."""
    def bad_map(f):
        return LRelation(BOOL, f.source, f.target, THRESHOLD[f.values])

    return SemiadditiveFunctor("caller-supplied", RelationCategory(b4()),
                               RelationCategory(BOOL), lambda obj: obj, bad_map)


def counting_functor():
    """Relations over bool as 0/1 real matrices: additive and composition
    fail wherever two terms meet, the witnesses transport exactly."""
    def as_matrix(f):
        return ScalarMatrix((f.values == BOOL.top).astype(float))

    return SemiadditiveFunctor("caller-supplied", RelationCategory(BOOL), MAT_R,
                               len, as_matrix)


FUNCTORS = (
    ("bogus", bogus_functor()),
    ("rel-to-mat", counting_functor()),
    ("upper-a", induced_functor(principal_filter_hom(b4(), "a"))),
    ("chain8", induced_functor(principal_filter_hom(chain(8), "3/7"))),
)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(FUNCTORS), trials=st.integers(1, 40),
       max_size=st.integers(0, 3), seed=st.integers(0, 2 ** 16),
       budget=st.sampled_from(BUDGETS))
def test_functor_trials_match_the_per_trial_oracle(case, trials, max_size,
                                                   seed, budget):
    _, functor = case
    sampler = functor.source.default_sampler(max_size)
    want = check_cmon_functor_sampled_slow(functor, sampler, trials=trials,
                                           seed=seed, exhaustive_cells=1)
    saved = core._CHUNK_BYTES
    core._CHUNK_BYTES = budget_for(functor.source, budget, max_size)
    try:
        got = check_cmon_functor(functor, sampler, trials=trials, seed=seed,
                                 exhaustive_cells=1)
    finally:
        core._CHUNK_BYTES = saved
    assert listed(got.to_dict()) == listed(want.to_dict())


def test_counting_functor_fails_where_the_oracle_does():
    report = check_cmon_functor(counting_functor(), trials=30, seed=4)
    failed = {c.law for c in report.failures()}
    assert {"additive", "composition"} <= failed
    assert "gamma_pi1" not in failed


def test_padded_relation_batches_reject_images_over_another_algebra():
    # a rel-b4 -> rel-b4 functor whose images live over chain(3): stacked
    # as they are, chain(3) indices would be read as b4 elements
    c3, table = chain(3), np.array([0, 1, 1, 2], dtype=np.int16)
    foreign = SemiadditiveFunctor(
        "caller-supplied", RelationCategory(b4()), RelationCategory(b4()),
        lambda obj: obj,
        lambda f: LRelation(c3, f.source, f.target, table[f.values]))
    with pytest.raises(relations.ArrowTypeError) as want:
        check_cmon_functor_sampled_slow(foreign, trials=30, seed=3,
                                        exhaustive_cells=0)
    with pytest.raises(relations.ArrowTypeError) as got:
        check_cmon_functor(foreign, trials=30, seed=3, exhaustive_cells=0)
    assert str(got.value) == str(want.value) == \
        "relations live over different algebras"


def test_padded_matrix_batches_reject_images_over_another_domain():
    # complex images in a real stack would lose their imaginary parts
    foreign = SemiadditiveFunctor(
        "caller-supplied", RelationCategory(b4()), MAT_R, len,
        lambda f: ScalarMatrix(f.values * (1 + 1j), COMPLEX))
    with pytest.raises(relations.ArrowTypeError) as want:
        check_cmon_functor_sampled_slow(foreign, trials=30, seed=3,
                                        exhaustive_cells=0)
    with pytest.raises(relations.ArrowTypeError) as got:
        check_cmon_functor(foreign, trials=30, seed=3, exhaustive_cells=0)
    assert str(got.value) == str(want.value) == \
        "domain mismatch: real vs complex"


FOREIGN_ARROWS = (
    (RelationCategory(b4()), LRelation(chain(3), ("x",), ("y",), [[1]]),
     LRelation(b4(), ("x",), ("y",), [[1]]),
     "relations live over different algebras"),
    (MAT_R, ScalarMatrix([[1.0]], COMPLEX), ScalarMatrix([[1.0]]),
     "domain mismatch: real vs complex"),
)


@pytest.mark.parametrize("cat, foreign, own, message", FOREIGN_ARROWS,
                         ids=["rel", "mat"])
def test_equal_and_residual_reject_a_foreign_arrow(cat, foreign, own, message):
    for f, g in ((foreign, own), (own, foreign)):
        with pytest.raises(ArrowTypeError, match=message):
            cat.equal(f, g)
        with pytest.raises(ArrowTypeError, match=message):
            cat.residual(f, g)


@pytest.mark.parametrize("cat, foreign, own, message", FOREIGN_ARROWS,
                         ids=["rel", "mat"])
def test_list_and_padded_compare_reject_a_foreign_stack(cat, foreign, own,
                                                        message):
    # the list default stacks the foreign arrow and compare refuses it;
    # padded batches refuse it already when stacking it
    for batches in (_ListBatches(cat), cat._batches()):
        src, tgt = batches.objects([own.source]), batches.objects([own.target])
        with pytest.raises(ArrowTypeError, match=message):
            batches.compare(batches.arrows([foreign], src, tgt),
                            batches.arrows([own], src, tgt), None)


class Refusal(Exception):
    pass


def refusing_functor():
    """The identity on bool relations, except that it refuses any arrow
    with more than three related pairs, naming the arrow."""
    def refuse_big(f):
        if np.count_nonzero(f.values) > 3:
            raise Refusal(f"refused {f.source} -> {f.target}: {f.values.tolist()}")
        return f

    cat = RelationCategory(BOOL)
    return SemiadditiveFunctor("caller-supplied", cat, cat, lambda obj: obj,
                               refuse_big)


@pytest.mark.parametrize("seed", range(5))
def test_raising_functor_raises_as_the_oracle_does(seed):
    functor = refusing_functor()
    with pytest.raises(Refusal) as want:
        check_cmon_functor_sampled_slow(functor, trials=20, seed=seed)
    with pytest.raises(Refusal) as got:
        check_cmon_functor(functor, trials=20, seed=seed)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("trials", [1, 7, 40])
def test_each_sampled_trial_maps_sixteen_arrows(trials):
    # the sum f + g, f, g, the zero, the identity, the composite u.f, u, the
    # six witness arrows on (x, y) and (d1, d2), a1, a2 and their block sum
    induced = induced_functor(principal_filter_hom(b4(), "a"))
    mapped = []

    def counted(f):
        mapped.append(f)
        return induced.arrow_map(f)

    functor = SemiadditiveFunctor("caller-supplied", induced.source,
                                  induced.target, induced.object_map, counted)
    assert check_cmon_functor(functor, trials=trials, exhaustive_cells=0).passed
    assert len(mapped) == 16 * trials


# ---------------------------------------------------------------------------
# one tolerance rule


def test_tolerance_close_is_a_bool_on_scalars_and_elementwise_on_arrays():
    tol = Tolerance(1e-9, 1e-6)
    assert tol.close(1.0, 1.0 + 5e-7) is True
    assert tol.close(1.0, 1.0 + 2e-6) is False
    assert tol.close(1 + 0j, 1 + 5e-7j) is True
    got = tol.close(np.array([1.0, 1.0, 0.0]), np.array([1.0 + 5e-7, 2.0, 1e-10]))
    assert got.tolist() == [True, False, True]


def test_matrix_equality_follows_the_tolerance_rule():
    a = ScalarMatrix([[1.0, 100.0]])
    b = ScalarMatrix([[1.0 + 5e-7, 100.0 + 5e-5]])
    assert MAT_R.equal(a, b, Tolerance(0.0, 1e-6))
    assert not MAT_R.equal(a, b, Tolerance(0.0, 1e-8))
    assert MAT_R.equal(ScalarMatrix(np.zeros((0, 3))), ScalarMatrix(np.zeros((0, 3))))
