"""Structure-preserving functors between relation instances.

A lattice homomorphism (preserving bottom, top, binary meet, and binary
join) applied entrywise induces a functor between the corresponding
relation categories that is additive on homsets, and therefore carries any
verified decomposition of an endo-arrow to a verified decomposition of its
image.  Caller-supplied functors between arbitrary instances may be plugged
in and put through the same checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .core import (
    Arrow,
    ArrowSampler,
    ArrowTypeError,
    DecompositionError,
    LatticeError,
    LawReport,
    LawTally,
    PreconditionError,
    SemiadditiveCategory,
    Tolerance,
    _chunk_checker,
    _trial_chunks,
    oplus,
)
from .relations import HeytingTable, LRelation, RelationCategory, bool_algebra
from .spectral import Block, SpectralDecomposition, verify_decomposition


@dataclass(frozen=True)
class LatticeHom:
    """A map between finite Heyting algebras preserving the lattice structure.

    Preservation of bottom, top, binary meet, and binary join is checked
    exhaustively at construction; on a finite algebra that also covers the
    joins taken during relation composition.
    """

    source: HeytingTable
    target: HeytingTable
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(int(v) for v in self.mapping))
        if len(self.mapping) != len(self.source.elements):
            raise LatticeError("lattice map must cover every source element")
        for v in self.mapping:
            if not 0 <= v < len(self.target.elements):
                raise LatticeError("lattice map hits an unknown target element")
        self._check_preservation()

    def _check_preservation(self) -> None:
        src, tgt, h = self.source, self.target, self.mapping
        if h[src.bottom] != tgt.bottom:
            raise LatticeError(
                f"map does not preserve bottom: "
                f"{src.label(src.bottom)!r} -> {tgt.label(h[src.bottom])!r}")
        if h[src.top] != tgt.top:
            raise LatticeError(
                f"map does not preserve top: "
                f"{src.label(src.top)!r} -> {tgt.label(h[src.top])!r}")
        k = len(src.elements)
        for x in range(k):
            for y in range(k):
                if h[src.meet_of(x, y)] != tgt.meet_of(h[x], h[y]):
                    raise LatticeError(
                        f"map does not preserve meet at "
                        f"({src.label(x)!r}, {src.label(y)!r})")
                if h[src.join_of(x, y)] != tgt.join_of(h[x], h[y]):
                    raise LatticeError(
                        f"map does not preserve join at "
                        f"({src.label(x)!r}, {src.label(y)!r})")

    @classmethod
    def from_labels(cls, source: HeytingTable, target: HeytingTable,
                    mapping: dict) -> "LatticeHom":
        table = [None] * len(source.elements)
        for key, value in mapping.items():
            try:
                table[source.index(key)] = target.index(value)
            except KeyError as exc:
                raise LatticeError(f"unknown lattice element {exc.args[0]!r}") from exc
        if any(v is None for v in table):
            missing = [source.elements[i] for i, v in enumerate(table) if v is None]
            raise LatticeError(f"lattice map misses elements {missing!r}")
        return cls(source, target, tuple(table))

    def apply(self, i: int) -> int:
        return self.mapping[i]


def identity_hom(algebra: HeytingTable) -> LatticeHom:
    return LatticeHom(algebra, algebra, tuple(range(len(algebra.elements))))


def principal_filter_hom(algebra: HeytingTable, label: str,
                         target: HeytingTable | None = None) -> LatticeHom:
    """Threshold map sending x to top iff the named element lies below x.

    Valid exactly when the element's upper set is closed the right way
    under meet and join; an invalid choice is rejected with the violating
    pair.
    """
    if target is None:
        target = bool_algebra()
    cut = algebra.index(label)
    mapping = tuple(
        target.top if algebra.leq(cut, x) else target.bottom
        for x in range(len(algebra.elements)))
    return LatticeHom(algebra, target, mapping)


@dataclass(frozen=True)
class SemiadditiveFunctor:
    """Object and arrow actions between two category instances.

    ``kind`` records how the functor arose (``lattice-hom-induced`` or
    ``caller-supplied``); the checker treats both alike.
    """

    kind: str
    source: SemiadditiveCategory
    target: SemiadditiveCategory
    object_map: Callable[[Any], Any]
    arrow_map: Callable[[Arrow], Arrow]

    def apply_object(self, obj: Any) -> Any:
        return self.object_map(obj)

    def apply_arrow(self, f: Arrow) -> Arrow:
        image = self.arrow_map(f)
        if (image.source != self.object_map(f.source)
                or image.target != self.object_map(f.target)):
            raise ArrowTypeError(
                "functor image endpoints disagree with the object action")
        return image


def induced_functor(hom: LatticeHom) -> SemiadditiveFunctor:
    """Entrywise application of a lattice homomorphism, identity on carriers."""
    source_cat = RelationCategory(hom.source)
    target_cat = RelationCategory(hom.target)
    table = np.array(hom.mapping, dtype=np.int16)

    def map_arrow(f: LRelation) -> LRelation:
        if f.algebra != hom.source:
            raise ArrowTypeError("arrow lives over a different algebra")
        return LRelation._derived(hom.target, f.source, f.target,
                                  table[f.values])

    return SemiadditiveFunctor(
        kind="lattice-hom-induced",
        source=source_cat,
        target=target_cat,
        object_map=lambda obj: obj,
        arrow_map=map_arrow,
    )


class _FunctorChecker:
    """Functor laws: both sides compared in the target, inputs from the source."""

    def __init__(self, functor: SemiadditiveFunctor, tol: Tolerance | None):
        self.functor = functor
        self.tally = LawTally(functor.target, tol, input_cat=functor.source)
        self.check = self.tally.check

    def check_zero_object(self) -> None:
        fz = self.functor.apply_object(self.functor.source.zero_object())
        self.check("zero_object", self.functor.target.zero(fz, fz),
                   self.functor.target.identity(fz), {})

    def check_witness_transport(self, x: Any, y: Any) -> "tuple[Any, Any, Arrow]":
        """Comparison arrow between the images of canonical witnesses."""
        functor, tgt = self.functor, self.functor.target
        src = self.functor.source
        wit = src.canonical_biproduct(x, y)
        wit_t = tgt.canonical_biproduct(functor.apply_object(x),
                                        functor.apply_object(y))
        f_pi1 = functor.apply_arrow(wit.pi1)
        f_pi2 = functor.apply_arrow(wit.pi2)
        f_iota1 = functor.apply_arrow(wit.iota1)
        f_iota2 = functor.apply_arrow(wit.iota2)
        gamma = tgt.add(tgt.compose(wit_t.iota1, f_pi1),
                        tgt.compose(wit_t.iota2, f_pi2))
        self.check("gamma_pi1", tgt.compose(wit_t.pi1, gamma), f_pi1, {})
        self.check("gamma_pi2", tgt.compose(wit_t.pi2, gamma), f_pi2, {})
        self.check("gamma_iota1", tgt.compose(gamma, f_iota1), wit_t.iota1, {})
        self.check("gamma_iota2", tgt.compose(gamma, f_iota2), wit_t.iota2, {})
        gamma_inv = tgt.add(tgt.compose(f_iota1, wit_t.pi1),
                            tgt.compose(f_iota2, wit_t.pi2))
        fcarrier = functor.apply_object(wit.carrier)
        self.check("gamma_invertible_left", tgt.compose(gamma_inv, gamma),
                   tgt.identity(fcarrier), {})
        self.check("gamma_invertible_right", tgt.compose(gamma, gamma_inv),
                   tgt.identity(wit_t.carrier), {})
        return wit, wit_t, gamma

    def report(self) -> LawReport:
        return self.tally.report()


# Sums checked at once by the batched ``additive`` pass: it holds a few
# arrays of this many pairs times the image's cells.
_PAIRS_PER_CHUNK = 1 << 14


def _homset(algebra: HeytingTable, source, target, place) -> list[LRelation]:
    """Every relation ``source -> target``, in the order of their codes.

    The cells of relation ``i``, row-major, are the base-k digits of ``i``
    with place values ``place``, most significant first.
    """
    k = len(algebra.elements)
    codes = np.arange(k ** len(place))
    grids = (codes[:, None] // place % k).astype(np.int16)
    return [LRelation._derived(algebra, source, target, grid)
            for grid in grids.reshape(len(codes), len(target), len(source))]


def _exhaustive_shapes(max_cells: int):
    for rows in range(1, max_cells + 1):
        for cols in range(1, max_cells + 1):
            if rows * cols <= max_cells:
                yield rows, cols


def _algebra_of(relations: list[LRelation]) -> HeytingTable:
    """The algebra the relations share; relations over two cannot combine."""
    algebra = relations[0].algebra
    if any(r.algebra != algebra for r in relations):
        raise ArrowTypeError("relations live over different algebras")
    return algebra


def _cells(relations: list[LRelation]) -> np.ndarray:
    """The grids of same-shaped relations, one flattened grid per row."""
    return np.stack([r.values for r in relations]).reshape(len(relations), -1)


def _compose_all(cat: RelationCategory, lefts: list[LRelation],
                 rights: list[LRelation]) -> np.ndarray:
    """Cells of ``g @ f`` for every g in ``lefts`` and f in ``rights``.

    One product computes them all: the left grids stacked on top of each
    other, after the right grids set side by side, has the pairwise
    composites as its blocks.  Indexed (g, f, cell).
    """
    algebra = _algebra_of(lefts + rights)
    g = np.stack([r.values for r in lefts])
    f = np.stack([r.values for r in rights])
    (ng, rows, mid), (nf, _, cols) = g.shape, f.shape
    tall = LRelation._derived(algebra, lefts[0].source,
                              tuple(range(ng * rows)),
                              g.reshape(ng * rows, mid))
    wide = LRelation._derived(algebra, tuple(range(nf * cols)),
                              rights[0].target,
                              f.transpose(1, 0, 2).reshape(mid, nf * cols))
    blocks = cat.compose(tall, wide).values.reshape(ng, rows, nf, cols)
    return blocks.transpose(0, 2, 1, 3).reshape(ng, nf, rows * cols)


def _check_sums(checker: _FunctorChecker, arrows: list[LRelation],
                images: list[LRelation], image_cells: np.ndarray,
                place: np.ndarray) -> None:
    """``additive`` on every pair (f, g) of one homset, chunked over f.

    Each sum ``f + g`` lies in the homset, so the image it must equal is
    looked up by its code instead of being recomputed.
    """
    tgt, tally = checker.functor.target, checker.tally
    join = arrows[0].algebra.join
    image_join = _algebra_of(images).join
    digits = _cells(arrows)
    n = len(arrows)
    step = max(1, _PAIRS_PER_CHUNK // n)
    for lo in range(0, n, step):
        chunk = slice(lo, lo + step)
        sums = join[digits[chunk, None], digits[None]] @ place
        got = image_cells[sums]
        want = image_join[image_cells[chunk, None], image_cells[None]]

        def counterexample(i: int, lo=lo, sums=sums) -> dict:
            fi, gi = lo + i // n, i % n
            return tally.counterexample(
                {"f": arrows[fi], "g": arrows[gi]}, images[sums.flat[i]],
                tgt.add(images[fi], images[gi]))

        tally.check_batch("additive", np.count_nonzero(got != want, axis=-1),
                          counterexample)


def _check_composites(checker: _FunctorChecker, images: list[LRelation],
                      image_cells: np.ndarray,
                      outgoing: list[LRelation], out_images: list[LRelation],
                      incoming: list[LRelation], in_images: list[LRelation],
                      place: np.ndarray) -> None:
    """``composition`` of every outgoing g after every incoming f.

    Each composite ``g @ f`` lies in the homset of ``images``, so the image
    it must equal is looked up by its code.
    """
    functor, tally = checker.functor, checker.tally
    codes = _compose_all(functor.source, outgoing, incoming) @ place
    got = image_cells[codes]
    want = _compose_all(functor.target, out_images, in_images)

    def counterexample(i: int) -> dict:
        gi, fi = divmod(i, len(incoming))
        return tally.counterexample(
            {"f": incoming[fi], "g": outgoing[gi]}, images[codes.flat[i]],
            functor.target.compose(out_images[gi], in_images[fi]))

    tally.check_batch("composition", np.count_nonzero(got != want, axis=-1),
                      counterexample)


def _run_exhaustive_pass(checker: _FunctorChecker, max_cells: int) -> None:
    """Enumerate every arrow between small carriers and check the laws.

    Covers each shape whose grid has at most ``max_cells`` cells:
    additivity over all parallel pairs, composition through a one-element
    middle carrier (which meets every lattice value combination), plus
    identity, zero, and witness transport once per shape.  The functor is
    applied once to each enumerated arrow.  For relation targets the pair
    laws are checked as array identities over the stacked images; other
    targets are checked pair by pair.
    """
    functor = checker.functor
    src, tgt = functor.source, functor.target
    algebra = src.algebra
    k = len(algebra.elements)
    batched = isinstance(tgt, RelationCategory)
    for rows, cols in _exhaustive_shapes(max_cells):
        source = tuple(f"s{i}" for i in range(cols))
        target = tuple(f"t{i}" for i in range(rows))
        place = k ** np.arange(rows * cols - 1, -1, -1)
        arrows = _homset(algebra, source, target, place)
        images = [functor.apply_arrow(f) for f in arrows]
        if batched:
            image_cells = _cells(images)
            _check_sums(checker, arrows, images, image_cells, place)
        else:
            for f, f_img in zip(arrows, images):
                for g, g_img in zip(arrows, images):
                    checker.check("additive", functor.apply_arrow(src.add(f, g)),
                                  tgt.add(f_img, g_img), {"f": f, "g": g})
        checker.check("zero_arrow",
                      functor.apply_arrow(src.zero(source, target)),
                      tgt.zero(functor.apply_object(source),
                               functor.apply_object(target)), {})
        checker.check("identity", functor.apply_arrow(src.identity(source)),
                      tgt.identity(functor.apply_object(source)), {})
        mid = ("m0",)
        outgoing = _homset(algebra, mid, target, place[-rows:])
        out_images = [functor.apply_arrow(g) for g in outgoing]
        incoming = _homset(algebra, source, mid, place[-cols:])
        in_images = [functor.apply_arrow(f) for f in incoming]
        if batched:
            _check_composites(checker, images, image_cells, outgoing,
                              out_images, incoming, in_images, place)
        else:
            for g, g_img in zip(outgoing, out_images):
                for f, f_img in zip(incoming, in_images):
                    checker.check("composition",
                                  functor.apply_arrow(src.compose(g, f)),
                                  tgt.compose(g_img, f_img), {"f": f, "g": g})
        checker.check_witness_transport(source, target)


def _draw_functor_trial(sampler: ArrowSampler,
                        rng: random.Random) -> tuple[dict, tuple]:
    """One sampled trial's objects and arrows, by name, in drawing order."""
    x, y, w = (sampler.random_object(rng) for _ in range(3))
    trial = {"x": x, "y": y, "w": w, "f": sampler.random_arrow(rng, x, y),
             "g": sampler.random_arrow(rng, x, y),
             "u": sampler.random_arrow(rng, y, w)}
    d1, d2 = sampler.random_object(rng), sampler.random_object(rng)
    trial.update(d1=d1, d2=d2, a1=sampler.random_arrow(rng, x, d1),
                 a2=sampler.random_arrow(rng, y, d2))
    return trial, (x, y, w, d1, d2)


def _check_functor_chunk(checker: _FunctorChecker, S, chunk: list[dict]) -> None:
    """The sampled functor laws, each checked once for the chunk.

    The source side is computed on the source's batches ``S``.  The functor,
    an arbitrary callable, is applied arrow by arrow to every trial's
    un-padded arrows, in the order trial-by-trial checks apply it; the
    images are then compared as the target's batches.  Per trial the laws
    are: additivity on a parallel pair f, g, preservation of zero arrows,
    identities and the composite with u; on the object pair (x, y), the
    comparison arrow gamma built from the image projections commutes with
    the canonical witnesses on both sides and is invertible; and gamma is
    natural in the block sum of a1 and a2.
    """
    functor = checker.functor
    T = functor.target._batches()
    check = _chunk_checker(T, checker.tally, chunk)
    X, Y, W, D1, D2 = (S.objects([t[name] for t in chunk])
                       for name in ("x", "y", "w", "d1", "d2"))

    def stack(name: str, src, tgt):
        return S.arrows([t[name] for t in chunk], src, tgt)

    f, u = stack("f", X, Y), stack("u", Y, W)
    total, zero, ident = S.add(f, stack("g", X, Y)), S.zero(X, Y), S.identity(X)
    composite = S.compose(u, f)
    wit, wit_d = S.canonical_biproduct(X, Y), S.canonical_biproduct(D1, D2)
    block = oplus(S, stack("a1", X, D1), stack("a2", Y, D2), wit, wit_d)

    rows = []
    for i, t in enumerate(chunk):
        arrows = (S.arrow(total, i), t["f"], t["g"], S.arrow(zero, i),
                  S.arrow(ident, i), S.arrow(composite, i), t["u"], t["f"],
                  *(S.arrow(s, i) for s in (wit.pi1, wit.pi2, wit.iota1,
                                            wit.iota2, wit_d.pi1, wit_d.pi2)),
                  t["a1"], t["a2"], S.arrow(block, i))
        rows.append([functor.apply_arrow(a) for a in arrows])
    (i_total, i_f, i_g, i_zero, i_ident, i_composite, i_u, i_f_again, i_pi1,
     i_pi2, i_iota1, i_iota2, i_pi1_d, i_pi2_d, i_a1, i_a2, i_block) = zip(*rows)

    FX, FY = T.objects([a.source for a in i_f]), T.objects([a.target for a in i_f])
    FW = T.objects([a.target for a in i_u])
    FC = T.objects([a.source for a in i_pi1])
    FD1 = T.objects([a.target for a in i_a1])
    FD2 = T.objects([a.target for a in i_a2])
    FCD = T.objects([a.source for a in i_pi1_d])

    check("additive", T.arrows(i_total, FX, FY),
          T.add(T.arrows(i_f, FX, FY), T.arrows(i_g, FX, FY)), "f g")
    check("zero_arrow", T.arrows(i_zero, FX, FY), T.zero(FX, FY), "")
    check("identity", T.arrows(i_ident, FX, FX), T.identity(FX), "")
    check("composition", T.arrows(i_composite, FX, FW),
          T.compose(T.arrows(i_u, FY, FW), T.arrows(i_f_again, FX, FY)), "f u")

    wit_t = T.canonical_biproduct(FX, FY)
    f_pi1, f_pi2 = T.arrows(i_pi1, FC, FX), T.arrows(i_pi2, FC, FY)
    f_iota1, f_iota2 = T.arrows(i_iota1, FX, FC), T.arrows(i_iota2, FY, FC)
    gamma = T.add(T.compose(wit_t.iota1, f_pi1), T.compose(wit_t.iota2, f_pi2))
    check("gamma_pi1", T.compose(wit_t.pi1, gamma), f_pi1, "")
    check("gamma_pi2", T.compose(wit_t.pi2, gamma), f_pi2, "")
    check("gamma_iota1", T.compose(gamma, f_iota1), wit_t.iota1, "")
    check("gamma_iota2", T.compose(gamma, f_iota2), wit_t.iota2, "")
    gamma_inv = T.add(T.compose(f_iota1, wit_t.pi1), T.compose(f_iota2, wit_t.pi2))
    check("gamma_invertible_left", T.compose(gamma_inv, gamma), T.identity(FC), "")
    check("gamma_invertible_right", T.compose(gamma, gamma_inv),
          T.identity(wit_t.carrier), "")

    wit_dt = T.canonical_biproduct(FD1, FD2)
    gamma_d = T.add(T.compose(wit_dt.iota1, T.arrows(i_pi1_d, FCD, FD1)),
                    T.compose(wit_dt.iota2, T.arrows(i_pi2_d, FCD, FD2)))
    block_tgt = oplus(T, T.arrows(i_a1, FX, FD1), T.arrows(i_a2, FY, FD2),
                      wit_t, wit_dt)
    check("gamma_natural", T.compose(gamma_d, T.arrows(i_block, FC, FCD)),
          T.compose(block_tgt, gamma), "a1 a2")


def check_cmon_functor(functor: SemiadditiveFunctor,
                       sampler: ArrowSampler | None = None,
                       trials: int = 100, tol: Tolerance | None = None,
                       seed: int = 0, exhaustive_cells: int = 2) -> LawReport:
    """Functor laws plus transport of canonical biproduct witnesses.

    Per sampled trial: additivity on a parallel pair, preservation of zero
    arrows, identities, and composition; then, on a sampled object pair, the
    comparison arrow built from the image projections is checked to commute
    with the canonical witnesses on both sides, to be invertible, and to be
    natural in a sampled square.  Preservation of the zero object is checked
    once.  For relation-instance sources the finite homsets between carriers
    with at most ``exhaustive_cells`` grid cells are additionally enumerated
    in full; scalar homsets are infinite, so those instances stay purely
    sampling-based.  ``trials`` below 1 raises.
    """
    if trials < 1:
        raise PreconditionError(f"trials must be at least 1, got {trials}")
    src = functor.source
    rng = random.Random(seed)
    if sampler is None:
        sampler = src.default_sampler()
    checker = _FunctorChecker(functor, tol)
    checker.check_zero_object()
    batches = src._batches()
    for chunk in _trial_chunks(batches, trials,
                               lambda: _draw_functor_trial(sampler, rng)):
        _check_functor_chunk(checker, batches, chunk)

    if exhaustive_cells > 0 and isinstance(src, RelationCategory):
        _run_exhaustive_pass(checker, exhaustive_cells)
    return checker.report()


def check_cmon_functor_exhaustive(functor: SemiadditiveFunctor,
                                  max_cells: int = 4,
                                  tol: Tolerance | None = None) -> LawReport:
    """Exhaustive functor laws over all small finite homsets.

    Only available for relation-instance sources.  Enumerates every arrow
    between carriers whose grid has at most ``max_cells`` cells; because
    induced functors act entrywise, this meets every combination of lattice
    values the laws can involve.
    """
    if not isinstance(functor.source, RelationCategory):
        raise ArrowTypeError(
            "exhaustive functor checking needs finite homsets "
            "(a relation-instance source)")
    checker = _FunctorChecker(functor, tol)
    checker.check_zero_object()
    _run_exhaustive_pass(checker, max_cells)
    return checker.report()


def map_decomposition(functor: SemiadditiveFunctor, f: Arrow,
                      dec: SpectralDecomposition,
                      tol: Tolerance | None = None
                      ) -> tuple[Arrow, SpectralDecomposition]:
    """Carry a verified decomposition through a functor.

    The input must verify in the source instance (a failing input is
    rejected); the image consists of the functor applied to every arrow of
    the decomposition and decomposes the image of ``f``.
    """
    source_report = verify_decomposition(functor.source, f, dec, tol)
    if not source_report.passed:
        failing = ", ".join(c.law for c in source_report.failures())
        raise DecompositionError(
            f"input decomposition does not verify (failing: {failing})")
    blocks = tuple(
        Block(functor.apply_object(b.space),
              functor.apply_arrow(b.project),
              functor.apply_arrow(b.inject),
              functor.apply_arrow(b.local))
        for b in dec.blocks)
    image = functor.apply_arrow(f)
    mapped = SpectralDecomposition(functor.apply_object(dec.carrier), blocks,
                                   arrow=image)
    return image, mapped
