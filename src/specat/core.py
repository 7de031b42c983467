"""Arrow-algebra contract shared by all category instances.

A category instance supplies composition, homset addition with zero arrows,
identities, and canonical biproduct witnesses.  On top of that contract this
module derives pairing, copairing, block sums, addition-via-biproduct, and a
randomized law suite that exercises the defining equations of the structure.
Instances whose arrows are grids of cells derive from ``_GridCategory``,
which writes the arrow algebra once from a few per-instance hooks.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-9


class SpecatError(Exception):
    """Base class for all errors raised by this package."""


class ArrowTypeError(SpecatError):
    """An arrow's endpoints do not fit the requested operation."""


class UnsupportedDomainError(SpecatError):
    """The scalar domain lacks an operation needed here (e.g. subtraction)."""


class LatticeError(SpecatError):
    """A lattice table or lattice map violates a required law."""


class PreconditionError(SpecatError):
    """An operation's stated precondition does not hold for the input."""


class DecompositionError(SpecatError):
    """A decomposition is malformed or incompatible with its partner."""


class ParseError(SpecatError):
    """An input file or selector string could not be understood."""


@dataclass(frozen=True)
class Tolerance:
    """Two-sided comparison threshold: |x - y| <= abs + rel * max(|x|, |y|)."""

    abs: float = DEFAULT_TOL_ABS
    rel: float = DEFAULT_TOL_REL

    def close(self, x, y):
        """Whether ``x`` and ``y`` agree: a bool for scalars, elementwise on arrays."""
        ok = np.abs(x - y) <= self.abs + self.rel * np.maximum(np.abs(x), np.abs(y))
        return ok if isinstance(ok, np.ndarray) else bool(ok)


@runtime_checkable
class Arrow(Protocol):
    """Anything that knows the objects it maps between."""

    @property
    def source(self) -> Any: ...

    @property
    def target(self) -> Any: ...


def parallel(f: Arrow, g: Arrow) -> bool:
    return f.source == g.source and f.target == g.target


@dataclass(frozen=True)
class LawCheck:
    """Outcome of checking one named law, possibly over several trials."""

    law: str
    passed: bool
    trials: int = 1
    max_residual: float = 0.0
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "passed": self.passed,
            "trials": self.trials,
            "max_residual": self.max_residual,
            "counterexample": self.counterexample,
        }


@dataclass
class LawReport:
    """An ordered collection of law checks; merging reports is associative."""

    checks: list[LawCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.max_residual for c in self.checks), default=0.0)

    def failures(self) -> list[LawCheck]:
        return [c for c in self.checks if not c.passed]

    def record(
        self,
        law: str,
        passed: bool,
        *,
        trials: int = 1,
        max_residual: float = 0.0,
        counterexample: dict | None = None,
    ) -> None:
        self.checks.append(
            LawCheck(law, passed, trials=trials, max_residual=max_residual,
                     counterexample=counterexample))

    def merged(self, other: "LawReport") -> "LawReport":
        return LawReport(self.checks + other.checks)

    def to_dict(self) -> dict:
        """The verdict and the checks, as plain data that the stdlib ``json``
        encodes: each array or selection payload in a counterexample is its
        ``tolist()``.  ``LawCheck.to_dict`` keeps them, and
        ``formats.canonical_json`` writes either form as the same text."""
        return {"passed": self.passed,
                "checks": [_plain(c.to_dict()) for c in self.checks]}


def _plain(obj):
    """``obj`` with every numpy array and selection payload among the values
    of its nested dicts replaced by its ``tolist()``."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (np.ndarray, _SelectionPayload)):
        return obj.tolist()
    return obj


@dataclass(frozen=True)
class BiproductWitness:
    """An object plus the four structure arrows exhibiting it as a biproduct.

    ``pi1: carrier -> left``, ``pi2: carrier -> right`` and the injections go
    the other way.  Whether the arrows actually satisfy the biproduct laws is
    checked by :func:`check_biproduct_axioms`; this class only fixes types.
    """

    left: Any
    right: Any
    carrier: Any
    pi1: Arrow
    pi2: Arrow
    iota1: Arrow
    iota2: Arrow

    def validate(self) -> None:
        expected = (
            ("pi1", self.pi1, self.carrier, self.left),
            ("pi2", self.pi2, self.carrier, self.right),
            ("iota1", self.iota1, self.left, self.carrier),
            ("iota2", self.iota2, self.right, self.carrier),
        )
        for name, arrow, src, tgt in expected:
            if arrow.source != src or arrow.target != tgt:
                raise ArrowTypeError(
                    f"{name} must map {src!r} -> {tgt!r}, "
                    f"got {arrow.source!r} -> {arrow.target!r}")


class ArrowSampler(ABC):
    """Produces random objects and random arrows for law checking."""

    @abstractmethod
    def random_object(self, rng: random.Random) -> Any: ...

    @abstractmethod
    def random_arrow(self, rng: random.Random, src: Any, tgt: Any) -> Arrow: ...


class SemiadditiveCategory(ABC):
    """A category whose homsets carry a commutative-monoid addition.

    Arrows are immutable values that carry their own endpoints; every method
    is a pure function of its inputs, so instances are safe to share across
    threads.  Third parties may implement this contract to plug in further
    instances.
    """

    name: str = "abstract"
    #: exact instances compare arrows by strict equality, ignoring tolerances
    exact: bool = False

    # -- arrow algebra ------------------------------------------------------

    @abstractmethod
    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        """g after f; defined when ``target(f) == source(g)``."""

    @abstractmethod
    def add(self, f: Arrow, g: Arrow) -> Arrow:
        """Homset addition; defined for parallel arrows."""

    @abstractmethod
    def zero(self, src: Any, tgt: Any) -> Arrow: ...

    @abstractmethod
    def identity(self, obj: Any) -> Arrow: ...

    # -- objects --------------------------------------------------------------

    @abstractmethod
    def zero_object(self) -> Any: ...

    @abstractmethod
    def canonical_biproduct(self, left: Any, right: Any) -> BiproductWitness:
        """The fixed identity-based biproduct witness on a pair of objects."""

    # -- comparison and reporting ----------------------------------------------

    @abstractmethod
    def equal(self, f: Arrow, g: Arrow, tol: Tolerance | None = None) -> bool: ...

    @abstractmethod
    def residual(self, f: Arrow, g: Arrow) -> float:
        """Largest pointwise deviation between two parallel arrows."""

    @abstractmethod
    def describe_arrow(self, f: Arrow) -> dict:
        """Payload from which the arrow can be rebuilt, as
        ``formats.canonical_json`` encodes it: lists, or numpy grids."""

    @abstractmethod
    def describe_object(self, obj: Any) -> Any: ...

    def arrow_to_payload(self, f: Arrow) -> Any:
        """Entries of ``f`` that ``formats.canonical_json`` encodes, as
        decoded by :meth:`arrow_from_payload`, also from their JSON text:
        lists, numpy arrays, or a grid instance's selection payload, each
        written as its ``tolist()`` would be."""
        raise ParseError(f"cannot encode arrows for instance {self.name!r}")

    def arrow_from_payload(self, payload: Any, src: Any, tgt: Any) -> Arrow:
        """The arrow ``src -> tgt`` with the given entries; ParseError if malformed."""
        raise ParseError(f"cannot decode arrows for instance {self.name!r}")

    def object_from_payload(self, payload: Any) -> Any:
        """The object that :meth:`describe_object` spells as ``payload``."""
        raise ParseError(f"cannot decode objects for instance {self.name!r}")

    @abstractmethod
    def default_sampler(self, max_size: int | None = None) -> ArrowSampler: ...

    # -- block operations -------------------------------------------------------
    # A family of objects stacks to its left-folded biproduct, as
    # :func:`fold_biproduct` builds it; each takes one or more arrows.

    def stack(self, arrows) -> Arrow:
        """The arrow into the stacked targets of ``arrows``, which share a
        source, whose projections are ``arrows``: :func:`pair` of a family."""
        arrows = _family(arrows, "stack", "arrows")
        _, _, iotas = fold_biproduct(self, [f.target for f in arrows])
        return reduce(self.add, [self.compose(i, f) for i, f in zip(iotas, arrows)])

    def costack(self, arrows) -> Arrow:
        """The arrow out of the stacked sources of ``arrows``, which share a
        target, whose injections are ``arrows``: :func:`copair` of a family."""
        arrows = _family(arrows, "costack", "arrows")
        _, pis, _ = fold_biproduct(self, [f.source for f in arrows])
        return reduce(self.add, [self.compose(f, p) for p, f in zip(pis, arrows)])

    def block_sum(self, arrows) -> Arrow:
        """The arrow between the stacked sources and the stacked targets of
        ``arrows`` that acts as ``arrows[i]`` from factor i to factor i."""
        arrows = _family(arrows, "block_sum", "arrows")
        _, pis, _ = fold_biproduct(self, [f.source for f in arrows])
        _, _, iotas = fold_biproduct(self, [f.target for f in arrows])
        return reduce(self.add, [self.compose(i, self.compose(f, p))
                                 for p, i, f in zip(pis, iotas, arrows)])

    def unstack(self, f: Arrow, targets, sources) -> list[list[Arrow]]:
        """The blocks of ``f``, from the stacked ``sources`` to the stacked
        ``targets``: entry ``[i][j]`` goes ``sources[j] -> targets[i]``."""
        _, pis, _ = fold_biproduct(self, _family(targets, "unstack", "targets"))
        _, _, iotas = fold_biproduct(self, _family(sources, "unstack", "sources"))
        return [[self.compose(p, self.compose(f, i)) for i in iotas] for p in pis]

    def compare_blocks(self, got: Arrow, want: Arrow, targets, sources,
                       tol: Tolerance | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Block by block, as :meth:`unstack` cuts ``got`` and ``want``: the
        residual and whether the blocks are equal, each an array indexed
        ``[i, j]`` for the block ``sources[j] -> targets[i]``."""
        targets = _family(targets, "compare_blocks", "targets")
        sources = _family(sources, "compare_blocks", "sources")
        rows = zip(self.unstack(got, targets, sources),
                   self.unstack(want, targets, sources))
        residuals, passed = _compare_pairs(
            self, [both for got_row, want_row in rows
                   for both in zip(got_row, want_row)], tol)
        shape = (len(targets), len(sources))
        return residuals.reshape(shape), passed.reshape(shape)

    def _batches(self) -> "_ListBatches":
        """This instance's arrow algebra on batches, for the law checkers."""
        return _ListBatches(self)


# ---------------------------------------------------------------------------
# derived constructions


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ArrowTypeError(message)


def _family(items, op: str, name: str) -> list:
    """``items`` as a list; ArrowTypeError naming ``op`` if there are none."""
    items = list(items)
    _require(bool(items), f"{op}: no {name}")
    return items


def _compare_pairs(cat: SemiadditiveCategory, pairs: list,
                   tol: Tolerance | None) -> tuple[np.ndarray, np.ndarray]:
    """The residual of each pair of arrows and whether they are equal."""
    return (np.array([cat.residual(a, b) for a, b in pairs], float),
            np.array([cat.equal(a, b, tol) for a, b in pairs], bool))


def check_zero_object(cat: SemiadditiveCategory, candidate: Any,
                      tol: Tolerance | None = None) -> LawReport:
    """Pass iff the zero endo-arrow on ``candidate`` equals its identity."""
    zero = cat.zero(candidate, candidate)
    ident = cat.identity(candidate)
    residuals, passed = cat.compare_blocks(zero, ident, [ident.target],
                                           [ident.source], tol)
    tally = LawTally(cat, tol)
    tally.check_batch(
        "zero_object", residuals[0],
        lambda i: {"identity": cat.describe_arrow(ident),
                   "zero": cat.describe_arrow(zero)},
        passed[0])
    return tally.report()


def check_biproduct_axioms(cat: SemiadditiveCategory, w: BiproductWitness,
                           tol: Tolerance | None = None) -> LawReport:
    """Check the five equations a biproduct witness must satisfy.

    (a) pi1.iota1 = id, (b) pi2.iota2 = id, (c) pi1.iota2 = 0,
    (d) pi2.iota1 = 0, (e) iota1.pi1 + iota2.pi2 = id on the carrier.
    """
    w.validate()
    tally = LawTally(cat, tol)
    for law, got, want in _biproduct_cases(cat, w):
        tally.check(law, got, want)
    return tally.report()


def _biproduct_cases(cat: SemiadditiveCategory, w: BiproductWitness):
    """``(law, got, want)`` for each of the five biproduct equations."""
    yield "a", cat.compose(w.pi1, w.iota1), cat.identity(w.left)
    yield "b", cat.compose(w.pi2, w.iota2), cat.identity(w.right)
    yield "c", cat.compose(w.pi1, w.iota2), cat.zero(w.right, w.left)
    yield "d", cat.compose(w.pi2, w.iota1), cat.zero(w.left, w.right)
    yield ("e", cat.add(cat.compose(w.iota1, w.pi1), cat.compose(w.iota2, w.pi2)),
           cat.identity(w.carrier))


def pair(cat: SemiadditiveCategory, f1: Arrow, f2: Arrow,
         w: BiproductWitness) -> Arrow:
    """The unique arrow into the carrier with projections f1 and f2.

    Built as ``iota1.f1 + iota2.f2``; satisfies ``pi1.result = f1`` and
    ``pi2.result = f2`` whenever the witness passes its axioms.
    """
    _require(f1.source == f2.source,
             f"pair: source mismatch {f1.source!r} vs {f2.source!r}")
    _require(f1.target == w.left,
             f"pair: f1 must target {w.left!r}, got {f1.target!r}")
    _require(f2.target == w.right,
             f"pair: f2 must target {w.right!r}, got {f2.target!r}")
    return cat.add(cat.compose(w.iota1, f1), cat.compose(w.iota2, f2))


def copair(cat: SemiadditiveCategory, f1: Arrow, f2: Arrow,
           w: BiproductWitness) -> Arrow:
    """The unique arrow out of the carrier with injections f1 and f2.

    Built as ``f1.pi1 + f2.pi2``; satisfies ``result.iota1 = f1`` and
    ``result.iota2 = f2``.
    """
    _require(f1.target == f2.target,
             f"copair: target mismatch {f1.target!r} vs {f2.target!r}")
    _require(f1.source == w.left,
             f"copair: f1 must start at {w.left!r}, got {f1.source!r}")
    _require(f2.source == w.right,
             f"copair: f2 must start at {w.right!r}, got {f2.source!r}")
    return cat.add(cat.compose(f1, w.pi1), cat.compose(f2, w.pi2))


def oplus(cat: SemiadditiveCategory, f: Arrow, g: Arrow,
          w_src: BiproductWitness, w_tgt: BiproductWitness) -> Arrow:
    """Block sum of two arrows between the given biproduct witnesses.

    With canonical matrix witnesses this is the block-diagonal matrix
    ``diag(f, g)``.
    """
    _require(f.source == w_src.left and g.source == w_src.right,
             "oplus: arrows do not start at the source witness factors")
    _require(f.target == w_tgt.left and g.target == w_tgt.right,
             "oplus: arrows do not end at the target witness factors")
    return cat.add(
        cat.compose(cat.compose(w_tgt.iota1, f), w_src.pi1),
        cat.compose(cat.compose(w_tgt.iota2, g), w_src.pi2))


def diagonal(cat: SemiadditiveCategory, obj: Any) -> Arrow:
    """The arrow x -> x (+) x pairing the identity with itself."""
    w = cat.canonical_biproduct(obj, obj)
    ident = cat.identity(obj)
    return pair(cat, ident, ident, w)


def codiagonal(cat: SemiadditiveCategory, obj: Any) -> Arrow:
    """The arrow x (+) x -> x copairing the identity with itself."""
    w = cat.canonical_biproduct(obj, obj)
    ident = cat.identity(obj)
    return copair(cat, ident, ident, w)


def sum_via_biproduct(cat: SemiadditiveCategory, f: Arrow, g: Arrow) -> Arrow:
    """Recover homset addition from the biproduct structure.

    Computes ``codiagonal . (f (+) g) . diagonal`` on canonical witnesses;
    must agree with the instance's native ``add``.
    """
    _require(parallel(f, g), "sum_via_biproduct: arrows are not parallel")
    w_src = cat.canonical_biproduct(f.source, f.source)
    w_tgt = cat.canonical_biproduct(f.target, f.target)
    block = oplus(cat, f, g, w_src, w_tgt)
    delta = pair(cat, cat.identity(f.source), cat.identity(f.source), w_src)
    nabla = copair(cat, cat.identity(f.target), cat.identity(f.target), w_tgt)
    return cat.compose(nabla, cat.compose(block, delta))


def fold_biproduct(cat: SemiadditiveCategory, objects) -> tuple[Any, list, list]:
    """Left-folded biproduct of a finite object sequence.

    Returns ``(carrier, projections, injections)`` with composite structure
    arrows.  The empty sequence yields the zero object with no arrows.
    """
    objects = list(objects)
    if not objects:
        return cat.zero_object(), [], []
    carrier = objects[0]
    pis: list[Arrow] = [cat.identity(carrier)]
    iotas: list[Arrow] = [cat.identity(carrier)]
    for obj in objects[1:]:
        w = cat.canonical_biproduct(carrier, obj)
        pis = [cat.compose(p, w.pi1) for p in pis]
        iotas = [cat.compose(w.iota1, i) for i in iotas]
        pis.append(w.pi2)
        iotas.append(w.iota2)
        carrier = w.carrier
    return carrier, pis, iotas


# ---------------------------------------------------------------------------
# batches: the arrow algebra on one arrow per trial of a chunk


class _Objects:
    """One object per trial of a chunk.

    Padded batches record each object's size; every arrow of the batch is
    padded to ``pad``, the largest of them, at this end.
    """

    __slots__ = ("items", "sizes", "pad")

    def __init__(self, items: list, sizes: np.ndarray | None = None) -> None:
        self.items = items
        self.sizes = sizes
        self.pad = 0 if sizes is None else int(sizes.max(initial=0))


class _Stack:
    """One arrow per trial of a chunk, all between the same two object batches.

    ``values`` is a list of arrows, or a padded batch's array of grids
    indexed (trial, target row, source column).
    """

    __slots__ = ("source", "target", "values")

    def __init__(self, source: _Objects, target: _Objects, values) -> None:
        self.source = source
        self.target = target
        self.values = values


# Bytes a drawn arrow holds besides its cells: the arrow, its array header
# and its share of the trial's objects.
_ARROW_BYTES = 512
# A chunk holds as many trials as keep each of its batches within this many
# bytes, so the law checkers' memory does not grow with the trial count.
_CHUNK_BYTES = 1 << 15


class _ListBatches:
    """A category's arrow algebra on batches, one arrow per trial of a chunk.

    The methods mirror the category's own, so constructions written against
    a category (:func:`pair`, :func:`copair`, :func:`oplus`, ...) build
    batches when handed one of these.  This default keeps lists and maps
    the category's per-arrow methods over them, so every instance has it;
    grid instances have padded stacks instead (:class:`_PaddedBatches`).
    """

    def __init__(self, cat: SemiadditiveCategory) -> None:
        self.cat = cat

    def footprint(self, objects) -> int:
        """Bytes each batch holds for a trial drawn on these objects."""
        return _ARROW_BYTES

    def carrier(self, left: Any, right: Any) -> Any:
        """The carrier of the canonical biproduct of two objects."""
        return self.cat.canonical_biproduct(left, right).carrier

    def objects(self, items: list) -> _Objects:
        return _Objects(items)

    def repeat(self, obj: Any, count: int) -> _Objects:
        """The batch holding ``obj`` in each of ``count`` trials."""
        return _Objects([obj] * count)

    def arrows(self, arrows: list, src: _Objects, tgt: _Objects) -> _Stack:
        """The batch of ``arrows``, trial ``i``'s going ``src[i] -> tgt[i]``."""
        return _Stack(src, tgt, list(arrows))

    def arrow(self, stack: _Stack, i: int) -> Arrow:
        """Trial ``i``'s arrow of the batch."""
        return stack.values[i]

    def take(self, stack: _Stack, trials: np.ndarray, src: _Objects,
             tgt: _Objects) -> _Stack:
        """The batch of ``stack``'s arrows at ``trials``, in that order,
        going ``src -> tgt`` (padded batches: with the pads of ``stack``)."""
        return _Stack(src, tgt, [stack.values[i] for i in trials])

    def compose(self, g: _Stack, f: _Stack) -> _Stack:
        return _Stack(f.source, g.target,
                      [self.cat.compose(a, b) for a, b in zip(g.values, f.values)])

    def add(self, f: _Stack, g: _Stack) -> _Stack:
        return _Stack(f.source, f.target,
                      [self.cat.add(a, b) for a, b in zip(f.values, g.values)])

    def zero(self, src: _Objects, tgt: _Objects) -> _Stack:
        return _Stack(src, tgt, [self.cat.zero(s, t)
                                 for s, t in zip(src.items, tgt.items)])

    def identity(self, obj: _Objects) -> _Stack:
        return _Stack(obj, obj, [self.cat.identity(o) for o in obj.items])

    def canonical_biproduct(self, left: _Objects,
                            right: _Objects) -> BiproductWitness:
        """Canonical witnesses, trial by trial, as a witness of batches."""
        wits = [self.cat.canonical_biproduct(a, b)
                for a, b in zip(left.items, right.items)]
        carrier = self.objects([w.carrier for w in wits])

        def stack(name: str, src: _Objects, tgt: _Objects) -> _Stack:
            return _Stack(src, tgt, [getattr(w, name) for w in wits])

        return BiproductWitness(
            left, right, carrier, stack("pi1", carrier, left),
            stack("pi2", carrier, right), stack("iota1", left, carrier),
            stack("iota2", right, carrier))

    def compare(self, got: _Stack, want: _Stack,
                tol: Tolerance | None) -> tuple[np.ndarray, np.ndarray]:
        """Per trial, the residual and whether ``got`` equals ``want``."""
        return _compare_pairs(self.cat, list(zip(got.values, want.values)), tol)


class _PaddedBatches(_ListBatches):
    """Batches of a grid instance as arrays of grids padded to the largest
    object at each end.

    Trial ``i``'s arrow fills the top-left ``target.sizes[i] x
    source.sizes[i]`` corner of its grid.  The other cells are blank, the
    cell of a zero arrow, and every operation leaves them blank, so the
    padding never reaches a real cell: blank cells add nothing and absorb
    products (0 for matrices; bottom for relations, which absorbs meets in
    every lattice), identities put the unit cell on the real diagonal only,
    and the witnesses of a biproduct lay its factors side by side from the
    corner.  Everything else comes from the hooks of :class:`_GridCategory`.
    """

    def __init__(self, cat: "_GridCategory") -> None:
        super().__init__(cat)
        self.itemsize = np.dtype(cat._dtype).itemsize

    def footprint(self, objects) -> int:
        widest = max(map(self.cat._size, objects), default=0)
        return _ARROW_BYTES + (2 * widest) ** 2 * self.itemsize

    def carrier(self, left: Any, right: Any) -> Any:
        return self.cat._carrier(left, right)

    def objects(self, items: list) -> _Objects:
        return _Objects(items, np.fromiter(map(self.cat._size, items), np.intp,
                                           len(items)))

    def _blank(self, src: _Objects, tgt: _Objects) -> np.ndarray:
        return self.cat._blank_grid(len(src.items), tgt.pad, src.pad)

    def repeat(self, obj: Any, count: int) -> _Objects:
        return _Objects([obj] * count, np.full(count, self.cat._size(obj), np.intp))

    def arrows(self, arrows: list, src: _Objects, tgt: _Objects) -> _Stack:
        values = self._blank(src, tgt)
        for grid, f in zip(values, arrows):
            self.cat._admit(f)
            rows, cols = f.values.shape
            grid[:rows, :cols] = f.values
        return _Stack(src, tgt, values)

    def arrow(self, stack: _Stack, i: int) -> Arrow:
        rows, cols = stack.target.sizes[i], stack.source.sizes[i]
        return self.cat._arrow(np.array(stack.values[i, :rows, :cols]),
                               stack.source.items[i], stack.target.items[i])

    def take(self, stack: _Stack, trials: np.ndarray, src: _Objects,
             tgt: _Objects) -> _Stack:
        return _Stack(src, tgt, np.take(stack.values, trials, axis=0))

    def compose(self, g: _Stack, f: _Stack) -> _Stack:
        return _Stack(f.source, g.target, self.cat._compose_cells(g.values, f.values))

    def add(self, f: _Stack, g: _Stack) -> _Stack:
        return _Stack(f.source, f.target, self.cat._add_cells(f.values, g.values))

    def zero(self, src: _Objects, tgt: _Objects) -> _Stack:
        return _Stack(src, tgt, self._blank(src, tgt))

    def _diagonal(self, src: _Objects, tgt: _Objects, sizes: np.ndarray,
                  row_shift: np.ndarray | None = None,
                  col_shift: np.ndarray | None = None) -> _Stack:
        """The unit cell at (row_shift + j, col_shift + j) for j below each size."""
        values = self._blank(src, tgt)
        trial = np.repeat(np.arange(len(sizes)), sizes)
        step = np.arange(trial.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        rows = step if row_shift is None else step + row_shift[trial]
        cols = step if col_shift is None else step + col_shift[trial]
        values[trial, rows, cols] = self.cat._unit
        return _Stack(src, tgt, values)

    def identity(self, obj: _Objects) -> _Stack:
        return self._diagonal(obj, obj, obj.sizes)

    def canonical_biproduct(self, left: _Objects,
                            right: _Objects) -> BiproductWitness:
        carrier = self.objects([self.carrier(a, b)
                                for a, b in zip(left.items, right.items)])
        return BiproductWitness(
            left, right, carrier,
            self._diagonal(carrier, left, left.sizes),
            self._diagonal(carrier, right, right.sizes, col_shift=left.sizes),
            self._diagonal(left, carrier, left.sizes),
            self._diagonal(right, carrier, right.sizes, row_shift=left.sizes))

    def compare(self, got: _Stack, want: _Stack,
                tol: Tolerance | None) -> tuple[np.ndarray, np.ndarray]:
        # whole stacks at once: a banded pass per law costs more than it saves
        cat, a, b = self.cat, got.values, want.values
        return (cat._residual_ufunc.reduce(cat._cell_residual(a, b),
                                           axis=(-2, -1), initial=0.0),
                cat._cell_equal(a, b, tol).all(axis=(-2, -1)))


class _GridCategory(SemiadditiveCategory):
    """An instance whose arrows are grids of cells, target rows by source
    columns, and whose canonical biproducts lay grids side by side.

    Zero arrows, identities, canonical witnesses, sub-arrows, block
    operations, comparison and the padded batches are written here once,
    from these hooks:

    - ``_dtype``, ``_blank`` and ``_unit``: the cells' dtype, the cell of a
      zero arrow (it adds nothing and absorbs products) and the diagonal
      cell of an identity;
    - ``_object(obj)``: ``obj`` as the instance holds it, or ArrowTypeError
      if it is no object; ``_size(obj)``: its number of grid positions;
    - ``_carrier(left, right)``: the biproduct carrier, ``left``'s positions
      first; ``_sub_object(obj, positions)``: the object at those positions;
    - ``_arrow(values, src, tgt)``: the arrow holding ``values``, unchecked:
      a grid, read-only and written by nothing, or a :class:`_Selection`
      (see below); ``_admit(f)``: the per-arrow operations' ArrowTypeError
      unless ``f`` is an arrow of this instance;
    - cell kernels on grids with the same leading batch axes, if any:
      ``_compose_cells(g, f)`` and ``_add_cells(f, g)``;
    - comparison cell by cell, on arrays that broadcast: whether cells are
      equal, ``_cell_equal(a, b, tol)``, and how far apart they are, as
      floats, ``_cell_residual(a, b)``; ``_residual_ufunc``: the ufunc that
      reduces the residuals of cells to the residual of the grid that holds
      them.  Arrows are compared by :meth:`compare_blocks` (``equal`` and
      ``residual`` are its one-block case), padded batches trial by trial;
    - payloads: ``_grid_payload(values)``, the entries of the arrow holding
      the grid ``values`` as ``formats.canonical_json`` encodes them, and
      ``_grid_from_payload(payload, src, tgt)``, the arrow they spell (see
      :meth:`arrow_to_payload`).

    **Selections.**  A grid is a row selection when each of its rows holds
    at most one non-blank cell and that cell is the unit; a column
    selection likewise by columns.  An arrow may carry its selection form
    privately, in ``_form``: a :class:`_Selection`, the position of each
    row's unit (or each column's), -1 for a blank line.  Every other arrow
    reads ``_form`` as ``None``.  The form is set where the positions are
    known, never found by scanning: by :meth:`zero` (every line blank),
    :meth:`identity`, :meth:`canonical_biproduct`, :meth:`_selections`
    (the blocks a split builds), the instances' payload readers,
    ``spectral.reduced_transition_matrix`` and ``functors.induced_functor``,
    each handing the form to the arrow constructor as it would a grid.
    Forms are closed under the operations the verifier forms: a stack of
    row selections is a row selection (positions concatenated), a costack
    of column selections is a column selection, and a composite of two row
    selections is one too (index maps composed).  :meth:`compare_blocks`
    compares two row selections by their positions.  Any other operation
    reads the grid.

    A product with a form is a gather (:meth:`_product`): ``g.f`` is
    ``f``'s rows gathered by the row selection ``g``, a blank row where
    ``g``'s row is blank, and ``g.f`` is ``g``'s columns gathered by the
    column selection ``f``.  The unit is neutral and the blank absorbing,
    so the gather is the kernel's product cell for cell (for matrices, up
    to the sign of a zero).  A selection held as a plain grid takes the
    kernel.

    An arrow with a form is of a private subclass of the instance's arrow
    class, which the arrow class's ``_derived`` constructor picks when it is
    given a form.  Its ``values`` is built from the positions alone on
    first read, once: the grid a dense arrow would hold, with the same
    dtype and read-only flag, C-ordered whatever the form's axis.  Each
    cell of a product with a selection is one operand cell times the unit
    plus blanks, so no product's bits depend on that layout.  Ordinary
    arrows keep ``values`` as a plain slot: a ``values`` property, or an
    attribute fallback, on the public classes would slow every read.
    """

    def _blank_grid(self, *shape: int) -> np.ndarray:
        # np.zeros leaves pages untouched until they are written
        values = np.zeros(shape, self._dtype)
        if self._blank:
            values.fill(self._blank)
        return values

    def zero(self, src: Any, tgt: Any) -> Arrow:
        src, tgt = self._object(src), self._object(tgt)
        rows = self._size(tgt)
        return self._arrow(
            _Selection(self, np.full(rows, -1, np.intp), 0, (rows, self._size(src))),
            src, tgt)

    def identity(self, obj: Any) -> Arrow:
        obj = self._object(obj)
        n = self._size(obj)
        return self._arrow(_Selection(self, np.arange(n), 0, (n, n)), obj, obj)

    def canonical_biproduct(self, left: Any, right: Any) -> BiproductWitness:
        left, right = self._object(left), self._object(right)
        carrier = self._carrier(left, right)
        m, n = self._size(left), self._size(right)
        p1 = _Selection(self, np.arange(m), 0, (m, m + n))
        p2 = _Selection(self, np.arange(m, m + n), 0, (n, m + n))
        return BiproductWitness(
            left, right, carrier, self._arrow(p1, carrier, left),
            self._arrow(p2, carrier, right),
            self._arrow(p1.transposed(), left, carrier),
            self._arrow(p2.transposed(), right, carrier))

    def restrict(self, f: Arrow, rows, cols) -> Arrow:
        """The sub-arrow of ``f`` on these target rows and source columns;
        ``None`` keeps all of them (as a view, if both are ``None``)."""
        self._admit(f)
        if rows is None or cols is None:
            values = f.values[slice(None) if rows is None else rows,
                              slice(None) if cols is None else cols]
        else:
            values = f.values[np.ix_(rows, cols)]
        return self._arrow(
            values, f.source if cols is None else self._sub_object(f.source, cols),
            f.target if rows is None else self._sub_object(f.target, rows))

    def _selections(self, obj: Any, positions: list[int]) -> tuple[Any, Arrow, Arrow]:
        """The object at ``positions`` of ``obj``, the projection onto it and
        the injection back: the rows and the columns of ``obj``'s identity at
        ``positions``, both held by the positions as their form."""
        space = self._sub_object(obj, positions)
        project = _Selection(self, np.array(positions, np.intp), 0,
                             (len(positions), self._size(obj)))
        return (space, self._arrow(project, obj, space),
                self._arrow(project.transposed(), space, obj))

    def arrow_to_payload(self, f: Arrow) -> Any:
        """A row selection with a cell, as its form says, is a
        :class:`_SelectionPayload` of its positions, written by
        ``formats.canonical_json`` byte for byte as ``_grid_payload`` of
        its grid; any other arrow is ``_grid_payload`` of its grid."""
        form = f._form
        lines = form.along(0) if form is not None and all(form.shape) else None
        if lines is None:
            return self._grid_payload(f.values)
        return _SelectionPayload(lines, form.shape[1], *self._payload_cells)

    @cached_property
    def _payload_cells(self) -> tuple:
        """The blank and the unit as ``_grid_payload`` spells them."""
        cells = self._grid_payload(np.array([[self._blank, self._unit]], self._dtype))
        (row,) = cells.tolist() if isinstance(cells, np.ndarray) else cells
        return tuple(row)

    # whether a selection payload of the arrow's shape, of integer 0 and 1
    # cells or of the _payload_cells, may be held by its positions as it
    # stands: _grid_from_payload reads such a grid as that row selection,
    # and _arrow takes the endpoints as they are given
    _payload_selections = False

    def arrow_from_payload(self, payload: Any, src: Any, tgt: Any) -> Arrow:
        """The arrow ``_grid_from_payload`` reads from ``payload``, or its
        refusal; a :class:`_SelectionPayload` is read as its ``tolist()``.
        Where that list would be read as a selection
        (``_payload_selections``: integer 0 and 1 cells, as ``formats``
        scans them from matrix JSON, or the writer's, compared with their
        types), the payload's positions are held straight away."""
        if type(payload) is _SelectionPayload:
            shape = (len(payload.lines), payload.width)
            cells = [(type(c), c) for c in (payload.blank, payload.unit)]
            if (self._payload_selections and all(shape)
                    and shape == (self._size(tgt), self._size(src))
                    and cells in ([(int, 0), (int, 1)],
                                  [(type(c), c) for c in self._payload_cells])):
                return self._arrow(_Selection(self, payload.lines, 0, shape),
                                   src, tgt)
            payload = payload.tolist()
        return self._grid_from_payload(payload, src, tgt)

    # Block operations by concatenation.  Every arrow is admitted before its
    # grid is copied: numpy would cast a foreign arrow's cells silently.

    def _stacked(self, objects) -> Any:
        return reduce(self._carrier, map(self._object, objects))

    def _admit_all(self, arrows) -> None:
        for f in arrows:
            self._admit(f)

    def _joined(self, arrows, axis: int) -> np.ndarray:
        """The arrows' grids joined along ``axis`` into a fresh C-ordered grid,
        the layout a sum of products has (numpy would lay column selections
        out column-major)."""
        shape = list(arrows[0].values.shape)
        shape[axis] = sum(f.values.shape[axis] for f in arrows)
        return np.concatenate([f.values for f in arrows], axis,
                              out=np.empty(shape, self._dtype))

    def _laid(self, arrows, axis: int):
        """The arrows' grids joined along ``axis``: a :class:`_Selection`
        of their positions concatenated when each carries a form that is a
        selection along ``axis`` (rows for 0, columns for 1), else
        :meth:`_joined`'s grid."""
        forms = [f._form for f in arrows]
        if all(form is not None for form in forms):
            lines = [form.along(axis) for form in forms]
            if all(line is not None for line in lines):
                shape = list(forms[0].shape)
                shape[axis] = sum(form.shape[axis] for form in forms)
                return _Selection(self, np.concatenate(lines), axis, tuple(shape))
        return self._joined(arrows, axis)

    def stack(self, arrows) -> Arrow:
        arrows = _family(arrows, "stack", "arrows")
        self._admit_all(arrows)
        source = arrows[0].source
        _require(all(f.source == source for f in arrows),
                 "stack: arrows must share their source")
        return self._arrow(self._laid(arrows, 0), source,
                           self._stacked([f.target for f in arrows]))

    def costack(self, arrows) -> Arrow:
        arrows = _family(arrows, "costack", "arrows")
        self._admit_all(arrows)
        target = arrows[0].target
        _require(all(f.target == target for f in arrows),
                 "costack: arrows must share their target")
        return self._arrow(self._laid(arrows, 1),
                           self._stacked([f.source for f in arrows]), target)

    def block_sum(self, arrows) -> Arrow:
        arrows = _family(arrows, "block_sum", "arrows")
        self._admit_all(arrows)
        shapes = [f.values.shape for f in arrows]
        values = self._blank_grid(sum(r for r, _ in shapes), sum(c for _, c in shapes))
        row = col = 0
        for f, (rows, cols) in zip(arrows, shapes):
            values[row:row + rows, col:col + cols] = f.values
            row, col = row + rows, col + cols
        return self._arrow(values, self._stacked([f.source for f in arrows]),
                           self._stacked([f.target for f in arrows]))

    def unstack(self, f: Arrow, targets, sources) -> list[list[Arrow]]:
        """The blocks as views of ``f``'s grid."""
        self._admit(f)
        targets = _family(targets, "unstack", "targets")
        sources = _family(sources, "unstack", "sources")
        rows, cols = f.values.shape
        row_ends = self._ends(targets, rows, "unstack", "targets")
        col_ends = self._ends(sources, cols, "unstack", "sources")
        return [[self._arrow(f.values[r0:r1, c0:c1], src, tgt)
                 for src, c0, c1 in zip(sources, [0] + col_ends, col_ends)]
                for tgt, r0, r1 in zip(targets, [0] + row_ends, row_ends)]

    def compare_blocks(self, got: Arrow, want: Arrow, targets, sources,
                       tol: Tolerance | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Every cell compared, a band of rows at a time, then reduced block
        by block: residuals by ``_residual_ufunc``, verdicts by logical and.
        Two arrows that carry forms are compared by their positions."""
        self._admit(got)
        self._admit(want)
        targets = _family(targets, "compare_blocks", "targets")
        sources = _family(sources, "compare_blocks", "sources")
        rows, cols = _grid_shape(got)
        _require(_grid_shape(want) == (rows, cols),
                 f"compare_blocks: the arrows' grids are {rows}x{cols} and "
                 "{}x{}".format(*_grid_shape(want)))
        return self._compare(
            _held(got), _held(want),
            self._ends(targets, rows, "compare_blocks", "targets"),
            self._ends(sources, cols, "compare_blocks", "sources"), tol)

    def _compare(self, got, want, row_ends: list[int], col_ends: list[int],
                 tol: Tolerance | None) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`compare_blocks` of two grids or :class:`_Selection` forms,
        cut into blocks after ``row_ends`` and ``col_ends``."""
        if isinstance(got, _Selection) and isinstance(want, _Selection):
            compared = self._compare_selections(got, want, row_ends, col_ends, tol)
            if compared is not None:
                return compared
        got, want = (a.grid() if isinstance(a, _Selection) else a for a in (got, want))
        rows, cols = got.shape
        row_cut, col_cut = _cut(row_ends), _cut(col_ends)
        residuals = np.empty((rows, len(col_ends)))
        passed = np.empty((rows, len(col_ends)), bool)
        band = max(1, _BAND_CELLS // max(cols, 1))
        for r0 in range(0, rows, band):
            a, b = got[r0:r0 + band], want[r0:r0 + band]
            residuals[r0:r0 + band] = _per_block(
                self._residual_ufunc, self._cell_residual(a, b), col_cut, 1, 0.0)
            passed[r0:r0 + band] = _per_block(
                np.logical_and, self._cell_equal(a, b, tol), col_cut, 1, True)
        return (_per_block(self._residual_ufunc, residuals, row_cut, 0, 0.0),
                _per_block(np.logical_and, passed, row_cut, 0, True))

    def _compare_selections(self, got: "_Selection", want: "_Selection",
                            row_ends: list[int], col_ends: list[int],
                            tol: Tolerance | None):
        """:meth:`_compare` by positions, in O(rows + cols + blocks), when
        both forms are row selections; else None.

        Only four pairs of cells occur: unit against unit, unit against
        blank, blank against unit and blank against blank.  The cell hooks
        judge those four once, and each block takes the verdicts of the
        pairs it holds and the residuals of the cells that differ, one by
        one; a cell compared with an equal one has residual 0."""
        g, w = got.along(0), want.along(0)
        if g is None or w is None:
            return None
        blank, unit = self._blank, self._unit
        cells = np.array([[unit, unit, blank, blank], [unit, blank, unit, blank]],
                         self._dtype)
        equal = np.asarray(self._cell_equal(cells[0], cells[1], tol), bool)
        residual = np.asarray(self._cell_residual(cells[0], cells[1]), float)
        row_block = np.searchsorted(row_ends, np.arange(len(g)), side="right")
        width = len(col_ends)
        differ = g != w
        pairs = ((g >= 0) & ~differ, (g >= 0) & differ, (w >= 0) & differ)
        blocks = [row_block[hit] * width
                  + np.searchsorted(col_ends, at[hit], side="right")
                  for hit, at in zip(pairs, (g, g, w))]
        sizes = np.diff(row_ends, prepend=0)[:, None] * np.diff(col_ends, prepend=0)
        counts = [np.bincount(block, minlength=sizes.size) for block in blocks]
        counts.append(sizes.ravel() - sum(counts))
        passed = np.logical_and.reduce(
            [equal[k] | (count == 0) for k, count in enumerate(counts)])
        residuals = np.zeros(sizes.size)
        for k in (1, 2):
            self._residual_ufunc.at(residuals, blocks[k], residual[k])
        return residuals.reshape(sizes.shape), passed.reshape(sizes.shape)

    def _ends(self, objects, size: int, op: str, name: str) -> list[int]:
        """Where each of ``objects`` ends along a side of ``size`` positions."""
        ends = list(accumulate(map(self._size, objects)))
        _require(ends[-1] == size,
                 f"{op}: the {name} stack to {ends[-1]} positions, not {size}")
        return ends

    def equal(self, f: Arrow, g: Arrow, tol: Tolerance | None = None) -> bool:
        self._admit(f)
        self._admit(g)
        return parallel(f, g) and bool(
            self.compare_blocks(f, g, [g.target], [g.source], tol)[1][0, 0])

    def residual(self, f: Arrow, g: Arrow) -> float:
        return float(self.compare_blocks(f, g, [g.target], [g.source])[0][0, 0])

    def _batches(self) -> _PaddedBatches:
        return _PaddedBatches(self)

    @staticmethod
    def _product(g, f, blank, kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        """The grid of the arrow ``g`` after the arrow ``f``, read from their
        forms only (see Selections above).

        Two forms that compose give a :class:`_Selection`.  Otherwise the
        product is a gather when ``g``'s form is a row selection or ``f``'s
        a column selection, else ``kernel(g, f)``.  A gather is a fresh
        C-ordered grid of the operands' dtype, as the kernels give; empty
        grids go to the kernel."""
        g_form, f_form = g._form, f._form
        rows, mid = _grid_shape(g)
        if not (rows and mid and _grid_shape(f)[1]):
            return kernel(g.values, f.values)
        if g_form is not None and f_form is not None:
            product = g_form.compose(f_form)
            if product is not None:
                return product
        lines = None if g_form is None else g_form.along(0)
        if lines is not None:
            return _gather(f.values, lines, 0, blank)
        lines = None if f_form is None else f_form.along(1)
        if lines is not None:
            return _gather(g.values, lines, 1, blank)
        return kernel(g.values, f.values)


_UNKNOWN = object()


class _Selection:
    """A grid of blank cells and units, at most one unit on each line along
    ``axis`` (each row for 0, each column for 1), held by its positions.

    ``lines[i]`` is the position across line ``i`` of its unit, or -1 if
    the line is blank; ``shape`` is the grid's.  ``cat`` gives the cells'
    dtype, blank and unit.  :meth:`along` reads the positions along the
    other axis too, when the grid is a selection that way as well.  The
    grid is a function of the positions alone, built C-ordered on first use
    and kept.
    """

    __slots__ = ("cat", "lines", "axis", "shape", "_grid", "_across")

    def __init__(self, cat: _GridCategory, lines: np.ndarray, axis: int,
                 shape: tuple[int, int]) -> None:
        self.cat = cat
        self.lines = lines
        self.axis = axis
        self.shape = shape
        self._grid = None
        self._across = _UNKNOWN

    def along(self, axis: int) -> np.ndarray | None:
        """Per line along ``axis``, the position of its unit or -1; None if
        some line along ``axis`` holds two units."""
        if axis == self.axis:
            return self.lines
        if self._across is _UNKNOWN:
            self._across = _inverted(self.lines, self.shape[axis])
        return self._across

    def transposed(self) -> "_Selection":
        """The transposed selection: the same positions along the other axis."""
        return _Selection(self.cat, self.lines, 1 - self.axis, self.shape[::-1])

    def compose(self, other: "_Selection") -> "_Selection | None":
        """This selection after ``other``, if both are row selections: row
        ``i`` is ``other``'s row at this one's position ``i``, so the index
        maps compose; else None."""
        rows, inner = self.along(0), other.along(0)
        if rows is None or inner is None:
            return None
        lines = np.full(len(rows), -1, np.intp)
        hit = rows >= 0
        lines[hit] = inner[rows[hit]]
        return _Selection(self.cat, lines, 0, (self.shape[0], other.shape[1]))

    def grid(self) -> np.ndarray:
        """The read-only grid, built once."""
        if self._grid is None:
            grid = self.cat._blank_grid(*self.shape)
            hit = np.flatnonzero(self.lines >= 0)
            at = (hit, self.lines[hit]) if self.axis == 0 else (self.lines[hit], hit)
            grid[at] = self.cat._unit
            grid.flags.writeable = False
            self._grid = grid
        return self._grid


class _SelectionPayload:
    """The payload of a row selection's grid, held by its positions: row
    ``i`` is ``width`` cells ``blank``, but ``unit`` at ``lines[i]`` unless
    that is -1.  ``blank`` and ``unit`` are scalars of the instance's grid
    payload; ``formats.canonical_json`` writes the rows from the positions,
    as the text of :meth:`tolist`."""

    __slots__ = ("lines", "width", "blank", "unit")

    def __init__(self, lines: np.ndarray, width: int, blank, unit) -> None:
        self.lines = lines.view()
        self.lines.flags.writeable = False
        self.width, self.blank, self.unit = width, blank, unit

    def tolist(self) -> list:
        rows = []
        for at in self.lines.tolist():
            row = [self.blank] * self.width
            if at >= 0:
                row[at] = self.unit
            rows.append(row)
        return rows


def _inverted(lines: np.ndarray, size: int) -> np.ndarray | None:
    """For each of ``size`` positions, the line whose unit is there, or -1;
    None if two lines have their unit at the same position."""
    hit = np.flatnonzero(lines >= 0)
    at = lines[hit]
    if np.bincount(at, minlength=size).max(initial=0) > 1:
        return None
    inverse = np.full(size, -1, np.intp)
    inverse[at] = hit
    return inverse


class _SelectionArrow:
    """Mixin of the private arrow classes whose arrows carry a form: the
    grid is built from the form the first time ``values`` is read.  A
    concrete class lists the public arrow class after this one and adds a
    ``_form`` slot."""

    __slots__ = ()

    @property
    def values(self) -> np.ndarray:
        return self._form.grid()


def _grid_shape(f) -> tuple[int, int]:
    """The shape of ``f``'s grid, without building it from a form."""
    return f.values.shape if f._form is None else f._form.shape


def _held(f):
    """``f``'s form if it carries one, else its grid."""
    return f.values if f._form is None else f._form


def _unit_lines(grid: list, width: int, blank, unit) -> np.ndarray | None:
    """Per row of a grid given as lists, the position of its one entry
    equal to ``unit``, or -1 for a row all ``blank``; None unless every row
    is a list of ``width`` entries, all ``blank`` but at most one ``unit``,
    and the grid has a cell.  Counting and finding run in C, one pass each
    per row."""
    if not (grid and width):
        return None
    lines = []
    for row in grid:
        if type(row) is not list or len(row) != width:
            return None
        blanks = row.count(blank)
        if blanks == width:
            lines.append(-1)
        elif blanks != width - 1:
            return None
        else:
            try:
                lines.append(row.index(unit))
            except ValueError:
                return None
    return np.array(lines, np.intp)


def _gather(grid: np.ndarray, lines: np.ndarray, axis: int, blank) -> np.ndarray:
    """``grid``'s rows (axis 0) or columns (axis 1) at ``lines``, blank
    where a line is -1, as a fresh C-ordered grid (``np.take`` lays it out
    so; ``grid[:, lines]`` would come out column-major)."""
    out = np.take(grid, lines, axis=axis)
    empty = lines < 0
    if empty.any():
        out.swapaxes(0, axis)[empty] = blank
    return out


# A block comparison takes its grids a band of rows of about this many cells
# at a time, so its per-cell temporaries stay small whatever the grid's size
# (and in cache: 2^14 cells compared a 512x512 real grid faster than 2^12 or
# 2^16 did, and three times as fast as the whole grid at once).
_BAND_CELLS = 1 << 14


def _cut(ends: list[int]) -> tuple[np.ndarray, np.ndarray | None]:
    """Where the runs of positions that end at ``ends`` start, and which of
    them hold any position: None if all do."""
    stops = np.array(ends)
    starts = np.concatenate(([0], stops[:-1]))
    full = starts < stops
    return starts, None if full.all() else full


def _per_block(ufunc: np.ufunc, cells: np.ndarray, cut: tuple, axis: int,
               empty) -> np.ndarray:
    """``ufunc`` reduced along ``axis`` of ``cells`` over each run of
    ``cut``; ``empty`` for a run of no positions, which ``reduceat`` would
    read as the position after it."""
    starts, full = cut
    if full is None:
        return ufunc.reduceat(cells, starts, axis=axis)
    shape = list(cells.shape)
    shape[axis] = len(starts)
    blocks = np.full(shape, empty, cells.dtype)
    if full.any():
        reduced = ufunc.reduceat(cells, starts[full], axis=axis)
        blocks.swapaxes(0, axis)[full] = reduced.swapaxes(0, axis)
    return blocks


def _trial_chunks(batches: _ListBatches, trials: int, draw):
    """``trials`` draws, in order, grouped into chunks within _CHUNK_BYTES.

    ``draw()`` returns a trial and the objects it was drawn on.  A chunk
    holds at least one trial.  The next chunk's first trial is drawn before
    the current chunk is checked; checks consume no randomness, so every
    trial draws what it would draw on its own.
    """
    chunk, widest = [], 0
    for _ in range(trials):
        trial, objects = draw()
        size = max(widest, batches.footprint(objects))
        if chunk and (len(chunk) + 1) * size > _CHUNK_BYTES:
            yield chunk
            # checked: its trials are freed before the next chunk is drawn
            chunk.clear()
            size = batches.footprint(objects)
        chunk.append(trial)
        widest = size
    yield chunk


# ---------------------------------------------------------------------------
# law suite


class _Totals:
    __slots__ = ("trials", "failures", "max_residual", "counterexample")

    def __init__(self) -> None:
        self.trials = 0
        self.failures = 0
        self.max_residual = 0.0
        self.counterexample: dict | None = None


class LawTally:
    """Per-law totals over many checks, reported in the order laws first occur.

    Each law keeps its trial and failure counts, its largest residual and
    the counterexample of its first failure.  Both sides of a check are
    compared and described in ``cat``; the inputs that produced them, when
    given, are described in ``input_cat``, which defaults to ``cat``.
    """

    def __init__(self, cat: SemiadditiveCategory, tol: Tolerance | None = None,
                 input_cat: SemiadditiveCategory | None = None) -> None:
        self.cat = cat
        self.tol = tol
        self.input_cat = cat if input_cat is None else input_cat
        self._totals: dict[str, _Totals] = {}

    def counterexample(self, inputs: dict | None, got: Arrow, want: Arrow) -> dict:
        example = {"lhs": self.cat.describe_arrow(got),
                   "rhs": self.cat.describe_arrow(want)}
        if inputs is not None:
            describe = self.input_cat.describe_arrow
            example["inputs"] = {k: describe(v) for k, v in inputs.items()}
        return example

    def check(self, law: str, got: Arrow, want: Arrow,
              inputs: dict | None = None) -> None:
        """One check of ``got == want``, computed from ``inputs`` if given."""
        self.check_blocks([law], got, want, [want.target], [want.source], inputs)

    def check_blocks(self, laws: list[str], got: Arrow, want: Arrow, targets,
                     sources, inputs: dict | None = None) -> None:
        """Law ``laws[k]`` on block ``k``, row-major, of ``got == want`` as
        ``cat.unstack`` cuts them, all compared by one ``cat.compare_blocks``.
        Failures are described at once: the caller may drop ``got`` after."""
        if not parallel(got, want):
            raise ArrowTypeError(f"law {laws[0]}: the sides are not parallel")
        residuals, passed = self.cat.compare_blocks(got, want, targets, sources,
                                                    self.tol)
        if not passed.all():
            got, want = (self.cat.unstack(a, targets, sources) for a in (got, want))
        for law, (i, j) in zip(laws, np.ndindex(passed.shape)):
            totals = self._add(law, 1, float(residuals[i, j]), 0 if passed[i, j] else 1)
            if totals is not None:
                totals.counterexample = self.counterexample(inputs, got[i][j],
                                                            want[i][j])

    def check_batch(self, law: str, residuals: np.ndarray,
                    counterexample: Callable[[int], dict],
                    passed: np.ndarray) -> None:
        """A batch of checks, in order, given by their residuals and verdicts.

        ``counterexample(i)`` describes the failure of check ``i``: any dict,
        or None for a law without one.  It is called for the first failure,
        and for later ones only while the law has no counterexample.
        """
        failures = int(passed.size - np.count_nonzero(passed))
        totals = self._add(law, residuals.size, float(residuals.max(initial=0.0)),
                           failures)
        if totals is not None:
            # the first failure: argmin finds the first False
            totals.counterexample = counterexample(int(passed.argmin()))

    def _add(self, law: str, trials: int, residual: float,
             failures: int) -> _Totals | None:
        """Add checks to ``law``'s totals; the totals if a failure among them
        still needs a counterexample."""
        totals = self._totals.get(law)
        if totals is None:
            totals = self._totals[law] = _Totals()
        totals.trials += trials
        if residual > totals.max_residual:
            totals.max_residual = residual
        if not failures:
            return None
        totals.failures += failures
        return totals if totals.counterexample is None else None

    def report(self) -> LawReport:
        report = LawReport()
        for law, totals in self._totals.items():
            report.record(
                law, totals.failures == 0, trials=totals.trials,
                max_residual=totals.max_residual,
                counterexample=totals.counterexample)
        return report


def run_law_suite(cat: SemiadditiveCategory, sampler: ArrowSampler | None = None,
                  trials: int = 100, tol: Tolerance | None = None,
                  seed: int = 0) -> LawReport:
    """Randomized check of the instance's defining equations.

    Per trial: monoid laws of homset addition, absorption by zero arrows,
    associativity and identity laws of composition, two-sided distributivity,
    the five biproduct axioms on a canonical witness, projection/injection
    cancellation and uniqueness for pair/copair, the factoring of a copair
    composed with a pair through a block sum, and agreement of
    :func:`sum_via_biproduct` with native addition.  Failures land in the
    report with a re-checkable counterexample; only ``trials`` below 1 raises.

    Trials are drawn a chunk at a time, in order, and each law is checked
    once for the whole chunk on the instance's batches (see
    :class:`_ListBatches`); the report is the one trial-by-trial checks
    would give.
    """
    if trials < 1:
        raise PreconditionError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    if sampler is None:
        sampler = cat.default_sampler()
    tally = LawTally(cat, tol)
    batches = cat._batches()
    for chunk in _trial_chunks(batches, trials,
                               lambda: _draw_suite_trial(batches, sampler, rng)):
        _check_suite_chunk(batches, tally, chunk)
    return tally.report()


def _draw_suite_trial(batches: "_ListBatches", sampler: ArrowSampler,
                      rng: random.Random) -> tuple[dict, tuple]:
    """One trial's objects and arrows, by name, in the order the laws use them."""
    x, y, z, w = (sampler.random_object(rng) for _ in range(4))
    carrier = batches.carrier(x, y)
    trial = {"x": x, "y": y, "z": z, "w": w}
    for name, src, tgt in (("f", x, y), ("g", x, y), ("h", x, y), ("u", y, z),
                           ("v", z, w), ("k", w, x), ("f1", z, x), ("f2", z, y),
                           ("into", z, carrier), ("g1", x, z), ("g2", y, z),
                           ("outof", carrier, z), ("hh", w, x), ("kk", w, y)):
        trial[name] = sampler.random_arrow(rng, src, tgt)
    return trial, (x, y, z, w)


def _chunk_checker(batches: "_ListBatches", tally: LawTally,
                   trial: Callable[[int], dict]):
    """``check(law, got, want, inputs)`` for stacks of one chunk.

    ``trial(i)`` gives trial ``i``'s arrows by name.  ``inputs`` names the
    ones a counterexample shows, separated by spaces; ``label=name`` shows
    arrow ``name`` under ``label``.
    """
    def check(law: str, got: _Stack, want: _Stack, inputs: str) -> None:
        residuals, passed = batches.compare(got, want, tally.tol)

        def counterexample(i: int) -> dict:
            arrows, named = trial(i), {}
            for entry in inputs.split():
                label, _, name = entry.partition("=")
                named[label] = arrows[name or label]
            return tally.counterexample(named, batches.arrow(got, i),
                                        batches.arrow(want, i))

        tally.check_batch(law, residuals, counterexample, passed)

    return check


def _check_suite_chunk(B: "_ListBatches", tally: LawTally,
                       chunk: list[dict]) -> None:
    """Every law of :func:`run_law_suite`, each checked once for the chunk.

    ``B`` stands in for the category: the constructions below take it as
    one and build stacks instead of arrows.
    """
    check = _chunk_checker(B, tally, chunk.__getitem__)
    X, Y, Z, W = (B.objects([t[name] for t in chunk]) for name in "xyzw")

    def stack(name: str, src: _Objects, tgt: _Objects) -> _Stack:
        return B.arrows([t[name] for t in chunk], src, tgt)

    f, g, h = stack("f", X, Y), stack("g", X, Y), stack("h", X, Y)
    check("add_associative", B.add(B.add(f, g), h), B.add(f, B.add(g, h)),
          "f g h")
    check("add_commutative", B.add(f, g), B.add(g, f), "f g")
    check("add_unit", B.add(f, B.zero(X, Y)), f, "f")

    check("zero_absorbs_left", B.compose(B.zero(Y, Z), f), B.zero(X, Z), "f")
    check("zero_absorbs_right", B.compose(f, B.zero(W, X)), B.zero(W, Y), "f")

    u, v = stack("u", Y, Z), stack("v", Z, W)
    check("compose_associative", B.compose(B.compose(v, u), f),
          B.compose(v, B.compose(u, f)), "f u v")
    check("identity_left", B.compose(B.identity(Y), f), f, "f")
    check("identity_right", B.compose(f, B.identity(X)), f, "f")

    check("distributes_left", B.compose(u, B.add(f, g)),
          B.add(B.compose(u, f), B.compose(u, g)), "u f g")
    k = stack("k", W, X)
    check("distributes_right", B.compose(B.add(f, g), k),
          B.add(B.compose(f, k), B.compose(g, k)), "f g k")

    wit = B.canonical_biproduct(X, Y)
    for law, got, want in _biproduct_cases(B, wit):
        check("witness_" + law, got, want, "")

    f1, f2 = stack("f1", Z, X), stack("f2", Z, Y)
    paired = pair(B, f1, f2, wit)
    check("pair_project1", B.compose(wit.pi1, paired), f1, "f1 f2")
    check("pair_project2", B.compose(wit.pi2, paired), f2, "f1 f2")
    into = stack("into", Z, wit.carrier)
    check("pair_unique",
          pair(B, B.compose(wit.pi1, into), B.compose(wit.pi2, into), wit),
          into, "h=into")

    g1, g2 = stack("g1", X, Z), stack("g2", Y, Z)
    copaired = copair(B, g1, g2, wit)
    check("copair_inject1", B.compose(copaired, wit.iota1), g1, "g1 g2")
    check("copair_inject2", B.compose(copaired, wit.iota2), g2, "g1 g2")
    outof = stack("outof", wit.carrier, Z)
    check("copair_unique",
          copair(B, B.compose(outof, wit.iota1), B.compose(outof, wit.iota2),
                 wit),
          outof, "h=outof")

    # a copair composed with a pair factors through the block sum of the
    # pointwise composites, bracketed by the diagonal and codiagonal
    hh, kk = stack("hh", W, X), stack("kk", W, Y)
    lhs = B.compose(copaired, pair(B, hh, kk, wit))
    w_src = B.canonical_biproduct(W, W)
    w_tgt = B.canonical_biproduct(Z, Z)
    block = oplus(B, B.compose(g1, hh), B.compose(g2, kk), w_src, w_tgt)
    rhs = B.compose(
        copair(B, B.identity(Z), B.identity(Z), w_tgt),
        B.compose(block, pair(B, B.identity(W), B.identity(W), w_src)))
    check("copair_pair_factors", lhs, rhs, "h=hh k=kk f=g1 g=g2")

    check("sum_via_biproduct", sum_via_biproduct(B, f, g), B.add(f, g), "f g")
