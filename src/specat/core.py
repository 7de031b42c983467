"""Arrow-algebra contract shared by all category instances.

A category instance supplies composition, homset addition with zero arrows,
identities, and canonical biproduct witnesses.  On top of that contract this
module derives pairing, copairing, block sums, addition-via-biproduct, and a
randomized law suite that exercises the defining equations of the structure.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
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

    def close(self, x: float, y: float) -> bool:
        return abs(x - y) <= self.abs + self.rel * max(abs(x), abs(y))


#: All-or-nothing comparison, used by the exact (relation) instances.
EXACT = Tolerance(0.0, 0.0)


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
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


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
        """JSON-safe payload from which the arrow can be rebuilt."""

    @abstractmethod
    def describe_object(self, obj: Any) -> Any: ...

    def arrow_to_payload(self, f: Arrow) -> Any:
        """JSON-safe entries of ``f``, as decoded by :meth:`arrow_from_payload`."""
        raise ParseError(f"cannot encode arrows for instance {self.name!r}")

    def arrow_from_payload(self, payload: Any, src: Any, tgt: Any) -> Arrow:
        """The arrow ``src -> tgt`` with the given entries; ParseError if malformed."""
        raise ParseError(f"cannot decode arrows for instance {self.name!r}")

    def object_from_payload(self, payload: Any) -> Any:
        """The object that :meth:`describe_object` spells as ``payload``."""
        raise ParseError(f"cannot decode objects for instance {self.name!r}")

    @abstractmethod
    def default_sampler(self, max_size: int | None = None) -> ArrowSampler: ...


# ---------------------------------------------------------------------------
# derived constructions


def _sub_grid(values: np.ndarray, rows, cols) -> np.ndarray:
    """The entries at these row and column positions; ``None`` keeps them all."""
    if rows is None or cols is None:
        return values[slice(None) if rows is None else rows,
                      slice(None) if cols is None else cols]
    return values[np.ix_(rows, cols)]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ArrowTypeError(message)


def check_zero_object(cat: SemiadditiveCategory, candidate: Any,
                      tol: Tolerance | None = None) -> LawReport:
    """Pass iff the zero endo-arrow on ``candidate`` equals its identity."""
    zero = cat.zero(candidate, candidate)
    ident = cat.identity(candidate)
    ok = cat.equal(zero, ident, tol)
    report = LawReport()
    report.record(
        "zero_object", ok, max_residual=cat.residual(zero, ident),
        counterexample=None if ok else {
            "identity": cat.describe_arrow(ident),
            "zero": cat.describe_arrow(zero),
        })
    return report


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

    def _of(self, law: str) -> _Totals:
        totals = self._totals.get(law)
        if totals is None:
            totals = self._totals[law] = _Totals()
        return totals

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
        totals = self._of(law)
        totals.trials += 1
        ok = self.cat.equal(got, want, self.tol)
        residual = self.cat.residual(got, want)
        if residual > totals.max_residual:
            totals.max_residual = residual
        if not ok:
            totals.failures += 1
            if totals.counterexample is None:
                totals.counterexample = self.counterexample(inputs, got, want)

    def check_batch(self, law: str, residuals: np.ndarray,
                    counterexample: Callable[[int], dict]) -> None:
        """A batch of exact checks, in order, given by their residuals.

        A check fails exactly when its residual is nonzero, as in an exact
        instance; ``counterexample(i)`` describes the failure of check ``i``
        and is called only for the first failure of the law.
        """
        totals = self._of(law)
        totals.trials += residuals.size
        if residuals.size:
            residual = float(residuals.max())
            if residual > totals.max_residual:
                totals.max_residual = residual
        failed = np.flatnonzero(residuals)
        if failed.size:
            totals.failures += failed.size
            if totals.counterexample is None:
                totals.counterexample = counterexample(int(failed[0]))

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
    """
    if trials < 1:
        raise PreconditionError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    if sampler is None:
        sampler = cat.default_sampler()
    tally = LawTally(cat, tol)
    check = tally.check

    for _ in range(trials):
        x = sampler.random_object(rng)
        y = sampler.random_object(rng)
        z = sampler.random_object(rng)
        w = sampler.random_object(rng)

        f = sampler.random_arrow(rng, x, y)
        g = sampler.random_arrow(rng, x, y)
        h = sampler.random_arrow(rng, x, y)
        check("add_associative", cat.add(cat.add(f, g), h),
              cat.add(f, cat.add(g, h)), {"f": f, "g": g, "h": h})
        check("add_commutative", cat.add(f, g), cat.add(g, f), {"f": f, "g": g})
        check("add_unit", cat.add(f, cat.zero(x, y)), f, {"f": f})

        check("zero_absorbs_left", cat.compose(cat.zero(y, z), f),
              cat.zero(x, z), {"f": f})
        check("zero_absorbs_right", cat.compose(f, cat.zero(w, x)),
              cat.zero(w, y), {"f": f})

        u = sampler.random_arrow(rng, y, z)
        v = sampler.random_arrow(rng, z, w)
        check("compose_associative", cat.compose(cat.compose(v, u), f),
              cat.compose(v, cat.compose(u, f)), {"f": f, "u": u, "v": v})
        check("identity_left", cat.compose(cat.identity(y), f), f, {"f": f})
        check("identity_right", cat.compose(f, cat.identity(x)), f, {"f": f})

        check("distributes_left", cat.compose(u, cat.add(f, g)),
              cat.add(cat.compose(u, f), cat.compose(u, g)),
              {"u": u, "f": f, "g": g})
        k = sampler.random_arrow(rng, w, x)
        check("distributes_right", cat.compose(cat.add(f, g), k),
              cat.add(cat.compose(f, k), cat.compose(g, k)),
              {"f": f, "g": g, "k": k})

        wit = cat.canonical_biproduct(x, y)
        for law, got, want in _biproduct_cases(cat, wit):
            check("witness_" + law, got, want, {})

        f1 = sampler.random_arrow(rng, z, x)
        f2 = sampler.random_arrow(rng, z, y)
        paired = pair(cat, f1, f2, wit)
        check("pair_project1", cat.compose(wit.pi1, paired), f1,
              {"f1": f1, "f2": f2})
        check("pair_project2", cat.compose(wit.pi2, paired), f2,
              {"f1": f1, "f2": f2})
        into = sampler.random_arrow(rng, z, wit.carrier)
        check("pair_unique",
              pair(cat, cat.compose(wit.pi1, into), cat.compose(wit.pi2, into), wit),
              into, {"h": into})

        g1 = sampler.random_arrow(rng, x, z)
        g2 = sampler.random_arrow(rng, y, z)
        copaired = copair(cat, g1, g2, wit)
        check("copair_inject1", cat.compose(copaired, wit.iota1), g1,
              {"g1": g1, "g2": g2})
        check("copair_inject2", cat.compose(copaired, wit.iota2), g2,
              {"g1": g1, "g2": g2})
        outof = sampler.random_arrow(rng, wit.carrier, z)
        check("copair_unique",
              copair(cat, cat.compose(outof, wit.iota1),
                     cat.compose(outof, wit.iota2), wit),
              outof, {"h": outof})

        # a copair composed with a pair factors through the block sum of the
        # pointwise composites, bracketed by the diagonal and codiagonal
        hh = sampler.random_arrow(rng, w, x)
        kk = sampler.random_arrow(rng, w, y)
        lhs = cat.compose(copair(cat, g1, g2, wit), pair(cat, hh, kk, wit))
        w_src = cat.canonical_biproduct(w, w)
        w_tgt = cat.canonical_biproduct(z, z)
        block = oplus(cat, cat.compose(g1, hh), cat.compose(g2, kk), w_src, w_tgt)
        rhs = cat.compose(
            copair(cat, cat.identity(z), cat.identity(z), w_tgt),
            cat.compose(block, pair(cat, cat.identity(w), cat.identity(w), w_src)))
        check("copair_pair_factors", lhs, rhs,
              {"h": hh, "k": kk, "f": g1, "g": g2})

        check("sum_via_biproduct", sum_via_biproduct(cat, f, g), cat.add(f, g),
              {"f": f, "g": g})

    return tally.report()
