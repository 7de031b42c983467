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
    _Selection,
    _trial_chunks,
    oplus,
)
from .relations import (
    HeytingTable,
    LRelation,
    RelationCategory,
    _lookup,
    bool_algebra,
)
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
        # h(x op y) against h(x) op h(y) for every pair (x, y) at once, as
        # tables indexed (x, y, op); the first bad entry in that order is named
        h = np.array(h, dtype=np.intp)
        bad = np.stack([h[src.meet] != tgt.meet[h[:, None], h],
                        h[src.join] != tgt.join[h[:, None], h]], axis=-1)
        if bad.any():
            x, y, op = map(int, np.unravel_index(bad.argmax(), bad.shape))
            raise LatticeError(
                f"map does not preserve {('meet', 'join')[op]} at "
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
    """Entrywise application of a lattice homomorphism, identity on carriers.

    A map sending bottom to bottom and top to top sends a selection to the
    selection with the same positions, so an arrow carrying a form (see
    ``core._GridCategory``) keeps it and its grid is not built."""
    source_cat = RelationCategory(hom.source)
    target_cat = RelationCategory(hom.target)
    table = np.array(hom.mapping, dtype=np.int16)
    keeps_forms = (table[source_cat._blank] == target_cat._blank
                   and table[source_cat._unit] == target_cat._unit)

    def map_arrow(f: LRelation) -> LRelation:
        if f.algebra != hom.source:
            raise ArrowTypeError("arrow lives over a different algebra")
        form = f._form
        values = (_Selection(target_cat, form.lines, form.axis, form.shape)
                  if form is not None and keeps_forms else table[f.values])
        return LRelation._derived(hom.target, f.source, f.target, values)

    return SemiadditiveFunctor(
        kind="lattice-hom-induced",
        source=source_cat,
        target=target_cat,
        object_map=lambda obj: obj,
        arrow_map=map_arrow,
    )


def _functor_tally(functor: SemiadditiveFunctor,
                   tol: Tolerance | None) -> LawTally:
    """A tally comparing in the target and describing inputs in the source,
    with the zero object's image checked."""
    tally = LawTally(functor.target, tol, input_cat=functor.source)
    fz = functor.apply_object(functor.source.zero_object())
    tally.check("zero_object", functor.target.zero(fz, fz),
                functor.target.identity(fz), {})
    return tally


def _check_transport(T, check, FX, FY, FC, f_pi1, f_pi2, f_iota1, f_iota2):
    """Transport of the canonical witness on (x, y), per trial.

    ``FX``, ``FY`` and ``FC`` are the images of x, y and the witness's
    carrier, ``f_pi1`` ... ``f_iota2`` those of its four arrows.  The
    comparison arrow gamma built from the image projections must commute
    with the target's witness on (Fx, Fy) on both sides and be invertible.
    Returns that witness and gamma.
    """
    wit_t = T.canonical_biproduct(FX, FY)
    gamma = T.add(T.compose(wit_t.iota1, f_pi1), T.compose(wit_t.iota2, f_pi2))
    check("gamma_pi1", T.compose(wit_t.pi1, gamma), f_pi1, "")
    check("gamma_pi2", T.compose(wit_t.pi2, gamma), f_pi2, "")
    check("gamma_iota1", T.compose(gamma, f_iota1), wit_t.iota1, "")
    check("gamma_iota2", T.compose(gamma, f_iota2), wit_t.iota2, "")
    gamma_inv = T.add(T.compose(f_iota1, wit_t.pi1), T.compose(f_iota2, wit_t.pi2))
    check("gamma_invertible_left", T.compose(gamma_inv, gamma), T.identity(FC), "")
    check("gamma_invertible_right", T.compose(gamma, gamma_inv),
          T.identity(wit_t.carrier), "")
    return wit_t, gamma


# Pairs checked at once by the exhaustive pass: it holds a few stacks of
# this many arrows.
_PAIRS_PER_CHUNK = 1 << 14


class _Homset:
    """Every relation ``source -> target``, in the order of their codes, and
    their images on the target's batches ``T``.

    The cells of relation ``i``, row-major, are the base-k digits of ``i``
    with place values ``place``, most significant first.  The functor is
    applied once to each relation, in that order.
    """

    def __init__(self, functor: SemiadditiveFunctor, T, source, target,
                 place: np.ndarray) -> None:
        algebra = functor.source.algebra
        k = len(algebra.elements)
        codes = np.arange(k ** len(place))
        self.place = place
        self.digits = (codes[:, None] // place % k).reshape(
            len(codes), len(target), len(source))
        self.arrows = [LRelation._derived(algebra, source, target, grid)
                       for grid in self.digits.astype(np.int16)]
        self.ends = functor.apply_object(source), functor.apply_object(target)
        self._repeats: dict[int, tuple] = {}
        self.images = T.arrows([functor.apply_arrow(f) for f in self.arrows],
                               *self._ends(T, len(codes)))

    def _ends(self, T, count: int) -> tuple:
        """The images of the endpoints, each repeated ``count`` times; every
        full chunk of :func:`_check_pairs` asks for the same count."""
        if count not in self._repeats:
            self._repeats[count] = tuple(T.repeat(end, count)
                                         for end in self.ends)
        return self._repeats[count]

    def take(self, T, codes: np.ndarray):
        """The images of the relations with these codes, as a batch."""
        return T.take(self.images, codes, *self._ends(T, len(codes)))


def _check_pairs(T, tally: LawTally, law: str, lefts: _Homset,
                 rights: _Homset, product: _Homset, cells, combine,
                 inputs: str) -> None:
    """``law`` on every pair of a relation of ``lefts`` and one of ``rights``.

    Pairs run left-major, _PAIRS_PER_CHUNK at a time.  ``cells`` combines
    stacks of their digits in the source, into digits of ``product``; the
    image of each result, looked up by its code, must equal ``combine`` of
    the pair's images in the target.  ``inputs`` names a counterexample's
    relations ``left`` and ``right`` as :func:`core._chunk_checker` does.
    """
    count = len(rights.arrows)
    pairs = len(lefts.arrows) * count
    for lo in range(0, pairs, _PAIRS_PER_CHUNK):
        i, j = np.divmod(np.arange(lo, min(lo + _PAIRS_PER_CHUNK, pairs)), count)
        digits = cells(np.take(lefts.digits, i, axis=0),
                       np.take(rights.digits, j, axis=0))
        codes = digits.reshape(len(i), -1) @ product.place
        check = _chunk_checker(T, tally, lambda p, i=i, j=j: {
            "left": lefts.arrows[i[p]], "right": rights.arrows[j[p]]})
        check(law, product.take(T, codes),
              combine(lefts.take(T, i), rights.take(T, j)), inputs)


def _shapes(max_cells: int) -> list[tuple[int, int]]:
    """Every (rows, cols) of at most ``max_cells`` cells, rows first."""
    return [(rows, cols) for rows in range(1, max_cells + 1)
            for cols in range(1, max_cells // rows + 1)]


def _exhaustive_pairs(k: int, max_cells: int = 2) -> int:
    """The pairs the exhaustive pass checks over ``k`` lattice elements:
    per shape, all parallel pairs and all pairs through the middle."""
    return sum(k ** (2 * rows * cols) + k ** (rows + cols)
               for rows, cols in _shapes(max_cells))


def _run_exhaustive_pass(functor: SemiadditiveFunctor, tally: LawTally,
                         max_cells: int) -> None:
    """Enumerate every arrow between small carriers and check the laws.

    Covers each shape whose grid has at most ``max_cells`` cells:
    additivity over all parallel pairs, composition through a one-element
    middle carrier (which meets every lattice value combination), plus
    identity, zero, and witness transport once per shape.  The functor is
    applied once to each enumerated arrow, shape by shape; then the laws
    are checked on the target's batches, in the order the sampled trials
    first meet them: the pair laws a chunk of pairs at a time, looking up
    the image of each sum or composite by its code, and the once-per-shape
    laws as one batch with a trial per shape.
    """
    src = functor.source
    T = functor.target._batches()
    algebra = src.algebra
    k = len(algebra.elements)
    mid = ("m0",)
    homsets, once = [], []
    for rows, cols in _shapes(max_cells):
        source = tuple(f"s{i}" for i in range(cols))
        target = tuple(f"t{i}" for i in range(rows))
        place = k ** np.arange(rows * cols - 1, -1, -1)
        homset = _Homset(functor, T, source, target, place)
        zero = functor.apply_arrow(src.zero(source, target))
        ident = functor.apply_arrow(src.identity(source))
        outgoing = _Homset(functor, T, mid, target, place[-rows:])
        incoming = _Homset(functor, T, source, mid, place[-cols:])
        wit = src.canonical_biproduct(source, target)
        once.append((*homset.ends, functor.apply_object(wit.carrier), zero,
                     ident, *map(functor.apply_arrow,
                                 (wit.pi1, wit.pi2, wit.iota1, wit.iota2))))
        homsets.append((homset, outgoing, incoming))
    if not homsets:
        return

    for homset, _, _ in homsets:
        _check_pairs(T, tally, "additive", homset, homset, homset,
                     lambda f, g: _lookup(algebra.join, f, g), T.add,
                     "f=left g=right")
    fx, fy, fc, zeros, idents, pi1s, pi2s, iota1s, iota2s = zip(*once)
    FX, FY, FC = T.objects(fx), T.objects(fy), T.objects(fc)
    check = _chunk_checker(T, tally, lambda i: {})
    check("zero_arrow", T.arrows(zeros, FX, FY), T.zero(FX, FY), "")
    check("identity", T.arrows(idents, FX, FX), T.identity(FX), "")
    # through a one-element middle, cell (r, c) of a composite joins the
    # meet of g's row r and f's column c to bottom
    join_bottom = algebra.join[algebra.bottom]
    for homset, outgoing, incoming in homsets:
        _check_pairs(T, tally, "composition", outgoing, incoming, homset,
                     lambda g, f: join_bottom[_lookup(algebra.meet, g, f)],
                     T.compose, "f=right g=left")
    _check_transport(T, check, FX, FY, FC, T.arrows(pi1s, FC, FX),
                     T.arrows(pi2s, FC, FY), T.arrows(iota1s, FX, FC),
                     T.arrows(iota2s, FY, FC))


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


def _check_functor_chunk(functor: SemiadditiveFunctor, tally: LawTally, S,
                         chunk: list[dict]) -> None:
    """The sampled functor laws, each checked once for the chunk.

    The source side is computed on the source's batches ``S``.  The functor,
    an arbitrary callable, is applied arrow by arrow to every trial's
    un-padded arrows, once each, in the order trial-by-trial checks first
    apply it; the images are then compared as the target's batches.  Per
    trial the laws are: additivity on a parallel pair f, g, preservation of
    zero arrows, identities and the composite with u; witness transport on
    the object pair (x, y) (:func:`_check_transport`); and gamma is natural
    in the block sum of a1 and a2.
    """
    T = functor.target._batches()
    check = _chunk_checker(T, tally, chunk.__getitem__)
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
                  S.arrow(ident, i), S.arrow(composite, i), t["u"],
                  *(S.arrow(s, i) for s in (wit.pi1, wit.pi2, wit.iota1,
                                            wit.iota2, wit_d.pi1, wit_d.pi2)),
                  t["a1"], t["a2"], S.arrow(block, i))
        rows.append([functor.apply_arrow(a) for a in arrows])
    (i_total, i_f, i_g, i_zero, i_ident, i_composite, i_u, i_pi1, i_pi2,
     i_iota1, i_iota2, i_pi1_d, i_pi2_d, i_a1, i_a2, i_block) = zip(*rows)

    FX, FY = T.objects([a.source for a in i_f]), T.objects([a.target for a in i_f])
    FW = T.objects([a.target for a in i_u])
    FC = T.objects([a.source for a in i_pi1])
    FD1 = T.objects([a.target for a in i_a1])
    FD2 = T.objects([a.target for a in i_a2])
    FCD = T.objects([a.source for a in i_pi1_d])

    Ff = T.arrows(i_f, FX, FY)
    check("additive", T.arrows(i_total, FX, FY),
          T.add(Ff, T.arrows(i_g, FX, FY)), "f g")
    check("zero_arrow", T.arrows(i_zero, FX, FY), T.zero(FX, FY), "")
    check("identity", T.arrows(i_ident, FX, FX), T.identity(FX), "")
    check("composition", T.arrows(i_composite, FX, FW),
          T.compose(T.arrows(i_u, FY, FW), Ff), "f u")

    wit_t, gamma = _check_transport(
        T, check, FX, FY, FC, T.arrows(i_pi1, FC, FX), T.arrows(i_pi2, FC, FY),
        T.arrows(i_iota1, FX, FC), T.arrows(i_iota2, FY, FC))

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
    tally = _functor_tally(functor, tol)
    batches = src._batches()
    for chunk in _trial_chunks(batches, trials,
                               lambda: _draw_functor_trial(sampler, rng)):
        _check_functor_chunk(functor, tally, batches, chunk)

    if exhaustive_cells > 0 and isinstance(src, RelationCategory):
        _run_exhaustive_pass(functor, tally, exhaustive_cells)
    return tally.report()


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
    tally = _functor_tally(functor, tol)
    _run_exhaustive_pass(functor, tally, max_cells)
    return tally.report()


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
