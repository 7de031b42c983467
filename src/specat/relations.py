"""Lattice-valued relations over finite complete Heyting algebras.

An arrow from carrier ``A`` to carrier ``B`` is a grid of lattice elements
indexed by ``B x A`` (target rows, source columns).  Composition takes the
join over the middle carrier of pairwise meets; homset addition is the
pointwise join.  Ordinary relations are the instance over the two-element
lattice.

Only finite algebras are supported: every lattice law, and residuation for
the derived implication, is checked exhaustively at construction time, so a
``HeytingTable`` that exists is known to be a complete Heyting algebra.

Composition runs on level cuts.  A finite Heyting algebra is distributive,
so by Birkhoff's representation theorem each element ``x`` is determined by
the set of join-irreducibles ``j <= x``, and that set map sends meets to
intersections and joins to unions.  Cutting both relations at each
join-irreducible level therefore turns composition into one Boolean matrix
product per level, computed on BLAS; the per-level results are decoded back
to elements afterwards.  The cost is proportional to the number of levels:
1 for ``bool``, 2 for ``b4``, ``k - 1`` for ``chain(k)``, and in general the
number of chains covering the join-irreducibles times the longest of them.
Every table has this representation.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Any, Iterable, Sequence

import numpy as np

from .core import (
    ArrowSampler,
    ArrowTypeError,
    BiproductWitness,
    LatticeError,
    ParseError,
    PreconditionError,
    Tolerance,
    _GridCategory,
)

Label = Any
Carrier = tuple


def as_carrier(labels: Iterable[Label]) -> Carrier:
    carrier = tuple(labels)
    if len(set(carrier)) != len(carrier):
        raise ArrowTypeError(f"carrier labels must be pairwise distinct: {carrier!r}")
    return carrier


def _read_labels(index: dict, grid) -> list:
    """The indices of a sequence of label sequences, read as ``index[str(v)]``."""
    try:  # only a string equal to a key is found without str(): both agree
        return [[index[v] for v in row] for row in grid]
    except (KeyError, TypeError):
        return [[index[str(v)] for v in row] for row in grid]


class HeytingTable:
    """A finite complete Heyting algebra given by explicit meet/join tables.

    ``meet`` and ``join`` are square index tables over ``elements``.  The
    bottom and top elements and the implication table are derived, never
    taken as input: the implication of ``a`` and ``b`` is the join of all
    ``x`` with ``x meet a <= b``, and construction fails loudly (naming a
    violating triple) unless that operation actually residuates the meet.
    """

    __slots__ = ("name", "elements", "meet", "join", "implication",
                 "bottom", "top", "_index", "_labels", "_cuts")

    def __init__(self, elements: Sequence[str], meet, join, *,
                 name: str = "custom"):
        self.name = name
        # a string or an object would be read as its characters or its keys
        if isinstance(elements, (str, dict)):
            raise LatticeError(
                f"lattice elements must be a list of labels, got {elements!r:.40}")
        self.elements = tuple(str(e) for e in elements)
        if len(set(self.elements)) != len(self.elements):
            raise LatticeError("lattice elements must be pairwise distinct")
        k = len(self.elements)
        if k == 0:
            raise LatticeError("a lattice needs at least one element")
        self.meet = self._table(meet, k, "meet")
        self.join = self._table(join, k, "join")
        self._index = {label: i for i, label in enumerate(self.elements)}
        self._labels = np.array(self.elements, dtype=object)
        self._check_lattice_laws()
        self.bottom = self._find_unit(self.join, "join")
        self.top = self._find_unit(self.meet, "meet")
        leq = self.meet == np.arange(k)[:, None]
        self.implication = self._derive_implication(leq)
        self._check_residuation(leq)
        self._cuts = _LevelCuts.of(self, leq)

    @staticmethod
    def _table(table, k: int, which: str) -> np.ndarray:
        try:
            arr = np.array(table, dtype=np.int16)
        except ValueError as exc:
            raise LatticeError(
                f"{which} table must be {k}x{k}, got ragged rows") from exc
        if arr.shape != (k, k):
            raise LatticeError(f"{which} table must be {k}x{k}, got {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= k):
            raise LatticeError(f"{which} table contains an out-of-range index")
        arr.flags.writeable = False
        return arr

    # -- elementary queries -----------------------------------------------------

    def index(self, label: str) -> int:
        return self._index[str(label)]

    def label(self, i: int) -> str:
        return self.elements[i]

    def spell(self, indices: np.ndarray) -> list:
        """The labels of an array of element indices, as nested lists."""
        return self._labels.take(indices).tolist()

    def leq(self, i: int, j: int) -> bool:
        return self.meet[i, j] == i

    def meet_of(self, i: int, j: int) -> int:
        return int(self.meet[i, j])

    def join_of(self, i: int, j: int) -> int:
        return int(self.join[i, j])

    def implies(self, i: int, j: int) -> int:
        return int(self.implication[i, j])

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, HeytingTable):
            return NotImplemented
        return (self.elements == other.elements
                and np.array_equal(self.meet, other.meet)
                and np.array_equal(self.join, other.join))

    def __hash__(self):
        return hash((self.elements, self.meet.tobytes(), self.join.tobytes()))

    def __repr__(self) -> str:
        return f"HeytingTable({self.name!r}, {len(self.elements)} elements)"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "elements": list(self.elements),
            "meet": self.spell(self.meet),
            "join": self.spell(self.join),
        }

    # -- construction-time checks ------------------------------------------------

    def _violation(self, what: str, labels: tuple) -> LatticeError:
        pretty = ", ".join(repr(l) for l in labels)
        return LatticeError(f"{what} fails at ({pretty})")

    def _check_lattice_laws(self) -> None:
        k = len(self.elements)
        idx = np.arange(k)
        for which, table in (("meet", self.meet), ("join", self.join)):
            if not np.array_equal(table, table.T):
                x, y = np.argwhere(table != table.T)[0]
                raise self._violation(f"{which} commutativity",
                                      (self.label(x), self.label(y)))
            if not np.array_equal(np.diagonal(table), idx):
                x = int(np.nonzero(np.diagonal(table) != idx)[0][0])
                raise self._violation(f"{which} idempotency", (self.label(x),))
            # one x at a time over the whole (y, z) grid, so memory stays
            # quadratic in k and the first violation is in (x, y, z) order
            for x in range(k):
                bad = table[table[x]] != table[x][table]  # (x?y)?z vs x?(y?z)
                if bad.any():
                    y, z = np.argwhere(bad)[0]
                    raise self._violation(
                        f"{which} associativity",
                        (self.label(x), self.label(y), self.label(z)))
        absorb1 = self.join[idx[:, None], self.meet]
        if not np.array_equal(absorb1, np.broadcast_to(idx[:, None], (k, k))):
            x, y = np.argwhere(absorb1 != idx[:, None])[0]
            raise self._violation("absorption x v (x ^ y) = x",
                                  (self.label(x), self.label(y)))
        absorb2 = self.meet[idx[:, None], self.join]
        if not np.array_equal(absorb2, np.broadcast_to(idx[:, None], (k, k))):
            x, y = np.argwhere(absorb2 != idx[:, None])[0]
            raise self._violation("absorption x ^ (x v y) = x",
                                  (self.label(x), self.label(y)))

    def _find_unit(self, table: np.ndarray, which: str) -> int:
        k = len(self.elements)
        idx = np.arange(k)
        for e in range(k):
            if np.array_equal(table[e], idx):
                return e
        raise LatticeError(f"no unit element for {which} (lattice is unbounded)")

    # Both passes below take one x at a time over the whole (a, b) grid, where
    # leq[meet[x]][a, b] says (x ^ a) <= b; memory stays quadratic in k.

    def _derive_implication(self, leq: np.ndarray) -> np.ndarray:
        # a => b joins every x with (x ^ a) <= b
        imp = np.full(self.meet.shape, self.bottom, dtype=np.int16)
        for x in range(len(self.elements)):
            imp = np.where(leq[self.meet[x]], self.join[imp, x], imp)
        imp.flags.writeable = False
        return imp

    def _check_residuation(self, leq: np.ndarray) -> None:
        for x in range(len(self.elements)):
            bad = leq[self.meet[x]] != leq[x][self.implication]
            if bad.any():
                a, b = np.argwhere(bad)[0]
                raise self._violation(
                    "residuation (x ^ a) <= b iff x <= (a => b)",
                    (self.label(x), self.label(a), self.label(b)))

    @classmethod
    def from_label_tables(cls, elements: Sequence[str], meet, join, *,
                          name: str = "custom") -> "HeytingTable":
        """Build from tables whose cells are element labels rather than indices."""
        pos = {str(e): i for i, e in enumerate(elements)}

        def indices(table, which: str) -> list:
            try:
                # a string row would be read as its characters
                if any(isinstance(row, (str, dict)) for row in table):
                    raise TypeError(which)
                return _read_labels(pos, table)
            except KeyError as exc:
                raise LatticeError(f"unknown lattice element {exc.args[0]!r}") from exc
            except TypeError as exc:
                raise LatticeError(f"{which} table must be a list of rows") from exc

        return cls(elements, indices(meet, "meet"), indices(join, "join"), name=name)


@functools.lru_cache(maxsize=None)
def chain(k: int) -> HeytingTable:
    """The k-element chain with min/max structure.

    Its derived implication sends ``a => b`` to top when ``a <= b`` and to
    ``b`` otherwise, which is the usual truncation semantics for graded
    truth values; growing ``k`` refines the approximation of the unit
    interval.
    """
    if k < 1:
        raise LatticeError("a chain needs at least one element")
    if k == 1:
        labels = ["0"]
    elif k == 2:
        labels = ["0", "1"]
    else:
        labels = [str(Fraction(i, k - 1)) for i in range(k)]
    idx = np.arange(k)
    meet = np.minimum(idx[:, None], idx[None, :])
    join = np.maximum(idx[:, None], idx[None, :])
    return HeytingTable(labels, meet, join, name=f"chain{k}")


@functools.lru_cache(maxsize=None)
def bool_algebra() -> HeytingTable:
    table = chain(2)
    return HeytingTable(table.elements, table.meet, table.join, name="bool")


@functools.lru_cache(maxsize=None)
def b4() -> HeytingTable:
    """The four-element Boolean algebra {0, a, b, 1} with a, b incomparable."""
    elements = ("0", "a", "b", "1")
    meet = [
        [0, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 2, 2],
        [0, 1, 2, 3],
    ]
    join = [
        [0, 1, 2, 3],
        [1, 1, 3, 3],
        [2, 3, 2, 3],
        [3, 3, 3, 3],
    ]
    return HeytingTable(elements, meet, join, name="b4")


# Each float32 stack the level-cut kernel holds at once (the two cut
# operands and their product) stays near this size, so memory does not grow
# with the number of levels.
_CUT_CHUNK_BYTES = 1 << 20
# Size bound on a decode table: chains of join-irreducibles share one
# mixed-radix code while the product of their radices stays within it.
_DECODE_TABLE_MAX = 1 << 16


class _LevelCuts:
    """Relation composition through the level cuts of a table.

    Chains cover the join-irreducibles.  Below an element ``x`` the members
    of chain ``i`` form a prefix; its length ``digits[i, x]`` is a digit of
    ``x``, and the digits of a meet or a join are the minima or maxima of the
    digits.  So each digit of a composite is a max-min product of its
    factors' digits, which counts the levels ``t`` at which the Boolean
    product of the cuts ``digits[i] >= t`` is nonzero: one BLAS product per
    level.  Levels ``(t, i)`` run ``t``-major over ``t = 1..longest chain``;
    a shorter chain's cuts are empty at its missing levels.

    Decoding reads the digits as a mixed-radix code: ``weights`` holds each
    level's place value in the row of its chain's decode group, and
    ``tables[g]`` maps a code of group ``g`` to the join of the prefixes it
    names.  An element is the join over groups of its ``tables[g]`` entries.
    """

    __slots__ = ("digits", "thresholds", "weights", "tables", "join")

    def __init__(self, digits, place, tables, join):
        longest = int(digits.max(initial=0))
        self.digits = digits
        self.thresholds = np.arange(1, longest + 1, dtype=np.int16)
        self.weights = np.tile(place, longest)
        self.tables = tables
        self.join = join

    @classmethod
    def of(cls, table: HeytingTable, leq: np.ndarray) -> "_LevelCuts":
        """The kernel for ``table``, whose order ``leq[x, y]`` says ``x <= y``.

        A table that passed its lattice and residuation checks is
        distributive and so has a representation; the checks below raise
        LatticeError naming the table if the chain cover fails to give one.
        """
        k = len(table.elements)
        below = leq & ~np.eye(k, dtype=bool)
        strict = below.astype(np.float32)
        covers = below & ~(strict @ strict > 0)
        irreducible = np.flatnonzero(covers.sum(axis=0) == 1)
        # counting the elements below orders the join-irreducibles upwards
        height = leq.sum(axis=0).tolist()
        chains: list[list[int]] = []
        for j in sorted(irreducible.tolist(), key=height.__getitem__):
            for members in chains:
                if leq[members[-1], j]:
                    members.append(j)
                    break
            else:
                chains.append([j])
        digits = np.zeros((len(chains), k), dtype=np.int16)
        place = np.zeros((1, len(chains)), dtype=np.float32)
        tables = [np.array([table.bottom], dtype=np.int16)]
        for i, members in enumerate(chains):
            radix = len(tables[-1])
            if radix > 1 and radix * (len(members) + 1) > _DECODE_TABLE_MAX:
                tables.append(np.array([table.bottom], dtype=np.int16))
                place = np.vstack([place, np.zeros_like(place[:1])])
                radix = 1
            digit = digits[i] = leq[members].sum(axis=0, dtype=np.int16)
            if (digit[table.bottom] != 0
                    or not np.array_equal(digit[table.meet],
                                          np.minimum.outer(digit, digit))
                    or not np.array_equal(digit[table.join],
                                          np.maximum.outer(digit, digit))):
                raise _no_representation(table)
            place[-1, i] = radix
            tops = np.array([table.bottom] + members, dtype=np.int16)
            tables[-1] = table.join[tables[-1][None, :], tops[:, None]].ravel()
        kernel = cls(digits, place, tables, table.join)
        if not np.array_equal(kernel._decode(place @ digits), np.arange(k)):
            raise _no_representation(table)
        return kernel

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        out = None
        for table, code in zip(self.tables, codes):
            element = table[code.astype(np.intp)]
            out = element if out is None else self.join[out, element]
        return out

    def compose(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Values of ``g`` after ``f`` for index grids (..., n, mid) and
        (..., mid, m) with the same leading batch axes, if any."""
        *batch, n, mid = g.shape
        m = f.shape[-1]
        count = math.prod(batch)
        chains = len(self.digits)
        size = 4 * chains * count * max(n * mid, mid * m, n * m)
        step = max(1, _CUT_CHUNK_BYTES // max(size, 1))
        dg = np.take(self.digits, g, axis=1)
        df = np.take(self.digits, f, axis=1)
        # one level per entry of a new leading axis
        thresholds = self.thresholds.reshape((-1,) + (1,) * dg.ndim)
        codes = np.zeros((len(self.tables), count * n * m), dtype=np.float32)
        for s in range(0, len(thresholds), step):
            cut = thresholds[s:s + step]
            hits = np.matmul((dg >= cut).astype(np.float32),
                             (df >= cut).astype(np.float32))
            np.minimum(hits, 1, out=hits)
            # the place values repeat for every threshold
            codes += (self.weights[:, :len(cut) * chains]
                      @ hits.reshape(len(cut) * chains, count * n * m))
        return self._decode(codes).reshape(*batch, n, m)


def _no_representation(table: HeytingTable) -> LatticeError:
    return LatticeError(
        f"level cuts do not represent the lattice {table.name!r}")


def _lookup(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``table[a, b]`` for index arrays that broadcast, as one flat lookup."""
    return table.take(np.multiply(a, len(table), dtype=np.intp) + b)


def _check_algebras(a: HeytingTable, b: HeytingTable) -> None:
    if a is not b and a != b:
        raise ArrowTypeError("relations live over different algebras")


class LRelation:
    """A lattice-valued relation: a (target x source) grid of algebra elements.

    The cell at row ``b`` (a target label) and column ``a`` (a source label)
    holds the degree to which ``a`` relates to ``b``.
    """

    __slots__ = ("algebra", "source", "target", "values")

    def __init__(self, algebra: HeytingTable, source: Iterable[Label],
                 target: Iterable[Label], values):
        self.algebra = algebra
        self.source = as_carrier(source)
        self.target = as_carrier(target)
        try:
            arr = np.array(values, dtype=np.int16).reshape(len(self.target),
                                                           len(self.source))
        except ValueError as exc:
            raise ArrowTypeError(
                f"relation grid must be {len(self.target)}x{len(self.source)}"
            ) from exc
        if arr.size and (arr.min() < 0 or arr.max() >= len(algebra.elements)):
            raise ArrowTypeError("relation grid contains an out-of-range element")
        arr.flags.writeable = False
        self.values = arr

    # -- constructors -------------------------------------------------------------

    @classmethod
    def _derived(cls, algebra: HeytingTable, source: Carrier, target: Carrier,
                 values: np.ndarray) -> "LRelation":
        """A relation built by the package itself, skipping the checks.

        The carriers must already be checked and ``values`` must be an int16
        grid of in-range elements that nothing else writes to.
        """
        rel = cls.__new__(cls)
        rel.algebra, rel.source, rel.target = algebra, source, target
        values.flags.writeable = False
        rel.values = values
        return rel

    @classmethod
    def zero(cls, algebra: HeytingTable, source, target) -> "LRelation":
        return RelationCategory(algebra).zero(source, target)

    @classmethod
    def identity(cls, algebra: HeytingTable, carrier) -> "LRelation":
        return RelationCategory(algebra).identity(carrier)

    @classmethod
    def from_labels(cls, algebra: HeytingTable, source, target, grid) -> "LRelation":
        rows = [list(row) for row in grid]  # the reader may pass over them twice
        return cls(algebra, source, target, _read_labels(algebra._index, rows))

    @classmethod
    def from_pairs(cls, algebra: HeytingTable, source, target,
                   pairs: Iterable[tuple[Label, Label]]) -> "LRelation":
        """Build from (target, source) label pairs held at the top element."""
        source = as_carrier(source)
        target = as_carrier(target)
        grid = np.full((len(target), len(source)), algebra.bottom, dtype=np.int16)
        srcpos = {lab: i for i, lab in enumerate(source)}
        tgtpos = {lab: i for i, lab in enumerate(target)}
        for t, s in pairs:
            grid[tgtpos[t], srcpos[s]] = algebra.top
        return cls(algebra, source, target, grid)

    def to_pairs(self) -> set[tuple[Label, Label]]:
        """The (target, source) pairs holding a value other than bottom."""
        ts, ss = np.nonzero(self.values != self.algebra.bottom)
        return {(self.target[t], self.source[s]) for t, s in zip(ts, ss)}

    def value(self, target_label: Label, source_label: Label) -> str:
        t = self.target.index(target_label)
        s = self.source.index(source_label)
        return self.algebra.label(int(self.values[t, s]))

    # -- algebra ----------------------------------------------------------------

    def __matmul__(self, other: "LRelation") -> "LRelation":
        """Composition: join over the middle carrier of pairwise meets."""
        _check_algebras(self.algebra, other.algebra)
        if self.source != other.target:
            raise ArrowTypeError(
                f"cannot compose: middle carriers differ "
                f"({self.source!r} vs {other.target!r})")
        return LRelation._derived(
            self.algebra, other.source, self.target,
            self.algebra._cuts.compose(self.values, other.values))

    def __or__(self, other: "LRelation") -> "LRelation":
        """Pointwise join of parallel relations."""
        _check_algebras(self.algebra, other.algebra)
        if self.source != other.source or self.target != other.target:
            raise ArrowTypeError("cannot join relations with different carriers")
        return LRelation._derived(
            self.algebra, self.source, self.target,
            _lookup(self.algebra.join, self.values, other.values))

    def converse(self) -> "LRelation":
        return LRelation._derived(self.algebra, self.target, self.source,
                                  self.values.T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LRelation):
            return NotImplemented
        return (self.algebra == other.algebra
                and self.source == other.source
                and self.target == other.target
                and np.array_equal(self.values, other.values))

    __hash__ = None

    def __repr__(self) -> str:
        return (f"LRelation({self.algebra.name!r}, source={self.source!r}, "
                f"target={self.target!r}, "
                f"values={self.algebra.spell(self.values)!r})")


def tagged_union(left: Carrier, right: Carrier) -> Carrier:
    """Disjoint union carrier: left elements tagged 1, right elements tagged 2."""
    return tuple((1, a) for a in left) + tuple((2, b) for b in right)


class RelationCategory(_GridCategory):
    """Relations valued in one finite Heyting algebra, with carrier objects."""

    exact = True
    _dtype = np.int16

    def __init__(self, algebra: HeytingTable):
        self.algebra = algebra
        self._blank = algebra.bottom
        self._unit = algebra.top
        self.name = "rel" if algebra == bool_algebra() else f"rel-{algebra.name}"

    def compose(self, g: LRelation, f: LRelation) -> LRelation:
        return g @ f

    def add(self, f: LRelation, g: LRelation) -> LRelation:
        return f | g

    def zero_object(self) -> Carrier:
        return ()

    def generalized_biproduct(self, left, right,
                              left_iso: LRelation | None = None,
                              right_iso: LRelation | None = None) -> BiproductWitness:
        """Biproduct on the tagged disjoint union, with optional bijections.

        ``left_iso`` and ``right_iso`` must be self-inverse-under-converse
        relations on the factors; identities are used when omitted.  They
        are composed onto the canonical witness's projections.
        """
        w = self.canonical_biproduct(left, right)
        for iso, obj, name in ((left_iso, w.left, "left_iso"),
                               (right_iso, w.right, "right_iso")):
            if iso is not None:
                if iso.source != obj or iso.target != obj:
                    raise ArrowTypeError(f"{name} must be an endo-relation on {obj!r}")
                ident = self.identity(obj)
                if not (iso @ iso.converse() == ident
                        and iso.converse() @ iso == ident):
                    raise ArrowTypeError(f"{name} is not a bijective relation")
        pi1 = w.pi1 if left_iso is None else left_iso @ w.pi1
        pi2 = w.pi2 if right_iso is None else right_iso @ w.pi2
        return BiproductWitness(w.left, w.right, w.carrier, pi1, pi2,
                                pi1.converse(), pi2.converse())

    # bound in the class body, so a traced run times each instance's own
    equal = _GridCategory.equal

    def arrow_to_payload(self, f: LRelation) -> list:
        return self.algebra.spell(f.values)

    def arrow_from_payload(self, payload, src, tgt) -> LRelation:
        if not (isinstance(payload, list)
                and all(isinstance(row, list) for row in payload)):
            raise ParseError("relation grid must be a list of rows")
        if len(payload) != len(tgt):
            raise ParseError(
                f"relation grid has {len(payload)} rows, expected {len(tgt)}")
        try:
            grid = _read_labels(self.algebra._index, payload)
        except KeyError as exc:
            raise ParseError(f"unknown lattice element {exc.args[0]!r}") from exc
        for i, row in enumerate(grid):
            if len(row) != len(src):
                raise ParseError(
                    f"relation grid row {i} has {len(row)} entries, "
                    f"expected {len(src)}")
        values = np.array(grid, dtype=np.int16).reshape(len(tgt), len(src))
        return LRelation._derived(  # every cell came from the index
            self.algebra, as_carrier(src), as_carrier(tgt), values)

    def describe_arrow(self, f: LRelation) -> dict:
        return {
            "source": self.describe_object(f.source),
            "target": self.describe_object(f.target),
            "values": self.arrow_to_payload(f),
        }

    def describe_object(self, obj) -> list:
        return [encode_label(l) for l in obj]

    def object_from_payload(self, payload) -> Carrier:
        # a string or an object would be read as its characters or its keys
        if isinstance(payload, (str, dict)):
            raise ParseError(
                f"a carrier must be a list of labels, got {payload!r:.40}")
        return tuple(decode_label(l) for l in payload)

    def default_sampler(self, max_size: int | None = None) -> "RelationSampler":
        return RelationSampler(
            self.algebra, max_carrier=6 if max_size is None else max_size)

    # -- grid hooks (see _GridCategory) ---------------------------------------

    _object = staticmethod(as_carrier)
    _size = staticmethod(len)
    _carrier = staticmethod(tagged_union)

    def _sub_object(self, obj: Carrier, positions) -> Carrier:
        return as_carrier(obj[j] for j in positions)

    def _arrow(self, values: np.ndarray, src: Carrier, tgt: Carrier) -> LRelation:
        return LRelation._derived(self.algebra, src, tgt, values)

    def _admit(self, f: LRelation) -> None:
        _check_algebras(self.algebra, f.algebra)

    def _compose_cells(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        return self.algebra._cuts.compose(g, f)

    def _add_cells(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        return _lookup(self.algebra.join, f, g)

    def _cell_equal(self, a: np.ndarray, b: np.ndarray,
                    tol: Tolerance | None) -> np.ndarray:
        return a == b

    def _cell_residual(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # a float, so that np.add counts (over bools it is a logical or)
        return (a != b).astype(float)

    # a grid differs in as many cells as its parts together
    _residual_ufunc = np.add


def encode_label(label: Label):
    """JSON-safe image of a carrier label; tuples become lists."""
    if isinstance(label, tuple):
        return [encode_label(part) for part in label]
    return label


def decode_label(payload) -> Label:
    if isinstance(payload, dict):
        raise ParseError(f"a carrier label cannot be a JSON object, got {payload!r}")
    if isinstance(payload, list):
        return tuple(decode_label(part) for part in payload)
    return payload


class RelationSampler(ArrowSampler):
    """Random carriers up to a bound, cell values uniform over the algebra."""

    def __init__(self, algebra: HeytingTable, max_carrier: int = 6,
                 bottom_bias: float = 0.0):
        if max_carrier < 0:
            raise PreconditionError(
                f"max_carrier must be non-negative, got {max_carrier}")
        self.algebra = algebra
        self.max_carrier = max_carrier
        self.bottom_bias = bottom_bias

    def random_object(self, rng: random.Random) -> Carrier:
        size = rng.randrange(self.max_carrier + 1)
        return tuple(f"v{i}" for i in range(size))

    def random_arrow(self, rng: random.Random, src, tgt) -> LRelation:
        src = as_carrier(src)
        tgt = as_carrier(tgt)
        # cells in row-major order; each is bottom with probability
        # ``bottom_bias``, else ``rng.randrange(k)`` as CPython draws it:
        # ``k.bit_length()`` random bits, redrawn until they are below k
        k = len(self.algebra.elements)
        bits, draw_bits = k.bit_length(), rng.getrandbits
        bias, draw, bottom = self.bottom_bias, rng.random, self.algebra.bottom
        cells = []
        for _ in range(len(src) * len(tgt)):
            if bias and draw() < bias:
                cells.append(bottom)
                continue
            cell = draw_bits(bits)
            while cell >= k:
                cell = draw_bits(bits)
            cells.append(cell)
        arr = np.array(cells, dtype=np.int16).reshape(len(tgt), len(src))
        return LRelation._derived(self.algebra, src, tgt, arr)


REL = RelationCategory(bool_algebra())
