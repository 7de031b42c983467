"""Dense matrix instances over real, complex, and non-negative real scalars.

A matrix with ``t`` rows and ``s`` columns is an arrow from ``s`` to ``t``;
objects are the non-negative integers.  Composition is the matrix product,
homset addition the entrywise sum.  No solvers are shipped: inverses for
generalized biproduct witnesses are either supplied by the caller or, for
monomial matrices, read off directly.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import (
    ArrowSampler,
    ArrowTypeError,
    BiproductWitness,
    ParseError,
    PreconditionError,
    Tolerance,
    UnsupportedDomainError,
    _GridCategory,
    _Selection,
    _SelectionArrow,
    _unit_lines,
)


@dataclass(frozen=True)
class ScalarDomain:
    """A coefficient domain for dense matrices."""

    name: str
    dtype: Any
    nonnegative: bool = False

    @property
    def has_negation(self) -> bool:
        return not self.nonnegative

    @functools.cached_property
    def is_complex(self) -> bool:
        """Whether entries are complex, read from the dtype: a domain equal
        to ``COMPLEX`` reads and writes its entries as ``COMPLEX`` does."""
        return bool(np.issubdtype(self.dtype, np.complexfloating))

    def validate(self, values: np.ndarray) -> None:
        if not np.isfinite(values).all():
            raise ArrowTypeError(f"{self.name} matrix entries must be finite")
        if self.nonnegative and values.size and values.min() < 0:
            raise ArrowTypeError("non-negative domain rejects negative entries")

    def _matmul(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        """``g @ f``, validated: finite entries can overflow."""
        values = np.matmul(g, f)
        self.validate(values)
        return values

    def parse(self, token: str):
        """One entry written as text."""
        token = token.strip()
        try:
            return complex(token) if self.is_complex else float(token)
        except ValueError as exc:
            raise ParseError(f"bad {self.name} entry {token!r}") from exc


REAL = ScalarDomain("real", np.float64)
COMPLEX = ScalarDomain("complex", np.complex128)
NONNEGATIVE = ScalarDomain("nonnegative", np.float64, nonnegative=True)


def _check_domains(a: ScalarDomain, b: ScalarDomain) -> None:
    if a is not b and a != b:
        raise ArrowTypeError(f"domain mismatch: {a.name} vs {b.name}")


class ScalarMatrix:
    """Immutable dense matrix; as an arrow it maps its columns to its rows."""

    __slots__ = ("values", "domain")
    # no selection form (see ``core._GridCategory``); _SelectionMatrix has one
    _form = None

    def __init__(self, values, domain: ScalarDomain = REAL):
        arr = np.array(values, dtype=domain.dtype)
        if arr.ndim != 2:
            raise ArrowTypeError(f"matrix must be 2-d, got shape {arr.shape}")
        domain.validate(arr)
        arr.flags.writeable = False
        self.values = arr
        self.domain = domain

    # -- arrow interface ------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def source(self) -> int:
        return self.cols

    @property
    def target(self) -> int:
        return self.rows

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _derived(cls, values, domain: ScalarDomain) -> "ScalarMatrix":
        """A matrix built by the package itself, skipping the copy and checks.

        ``values`` is a ``core._Selection``, held as a ``_SelectionMatrix``,
        or a 2-d array of the domain's dtype, read-only, and written by
        nothing (it may be a view another arrow holds), whose entries the
        domain accepts; callers that combine entries arithmetically run
        ``domain.validate`` first, since finite entries can overflow.
        """
        if type(values) is _Selection:
            mat = _SelectionMatrix.__new__(_SelectionMatrix)
            mat._form = values
        else:
            mat = cls.__new__(cls)
            values.flags.writeable = False
            mat.values = values
        mat.domain = domain
        return mat

    @classmethod
    def zeros(cls, rows: int, cols: int, domain: ScalarDomain = REAL) -> "ScalarMatrix":
        return MatrixCategory(domain).zero(cols, rows)

    @classmethod
    def identity(cls, n: int, domain: ScalarDomain = REAL) -> "ScalarMatrix":
        return MatrixCategory(domain).identity(n)

    # -- algebra ----------------------------------------------------------------

    def __matmul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        _check_domains(self.domain, other.domain)
        if self.cols != other.rows:
            raise ArrowTypeError(
                f"cannot compose: left has {self.cols} columns, "
                f"right has {other.rows} rows")
        # a gather copies cells that were validated: only the kernel's
        # products are validated
        return ScalarMatrix._derived(
            MatrixCategory._product(self, other, MatrixCategory._blank,
                                    self.domain._matmul), self.domain)

    def __add__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        _check_domains(self.domain, other.domain)
        if self.values.shape != other.values.shape:
            raise ArrowTypeError(
                f"cannot add shapes {self.values.shape} and {other.values.shape}")
        return self._checked(self.values + other.values)

    def __sub__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        _check_domains(self.domain, other.domain)
        if not self.domain.has_negation:
            raise UnsupportedDomainError(
                "subtraction is unavailable in the non-negative domain")
        if self.values.shape != other.values.shape:
            raise ArrowTypeError(
                f"cannot subtract shapes {self.values.shape} and {other.values.shape}")
        return self._checked(self.values - other.values)

    def _checked(self, values: np.ndarray) -> "ScalarMatrix":
        self.domain.validate(values)
        return ScalarMatrix._derived(values, self.domain)

    def transpose(self) -> "ScalarMatrix":
        # a copy, not a view: a view's strides can send a later product
        # down another numpy code path with other rounding
        return ScalarMatrix._derived(np.array(self.values.T), self.domain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return (self.domain == other.domain
                and self.values.shape == other.values.shape
                and np.array_equal(self.values, other.values))

    __hash__ = None

    def __repr__(self) -> str:
        return (f"ScalarMatrix({self.values.tolist()!r}, "
                f"domain={self.domain.name!r})")


class _SelectionMatrix(_SelectionArrow, ScalarMatrix):
    """A matrix held by its selection form (see ``core._GridCategory``)."""

    __slots__ = ("_form",)

    @property
    def rows(self) -> int:
        return self._form.shape[0]

    @property
    def cols(self) -> int:
        return self._form.shape[1]


def is_monomial(m: ScalarMatrix) -> bool:
    """True when the matrix is square with exactly one nonzero per row and column."""
    if m.rows != m.cols:
        return False
    nz = m.values != 0
    return bool(np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1))


def monomial_inverse(m: ScalarMatrix) -> ScalarMatrix:
    """Inverse of a monomial matrix: transposed position pattern, reciprocal entries.

    General inversion is deliberately not provided; callers supply inverses
    for non-monomial basis changes.
    """
    if not is_monomial(m):
        raise ArrowTypeError("monomial_inverse requires a monomial matrix")
    inv = np.zeros_like(np.asarray(m.values))
    rows, cols = np.nonzero(m.values)
    inv[cols, rows] = 1.0 / m.values[rows, cols]
    return ScalarMatrix(inv, m.domain)


def _read_rows(lines: list[str], domain: ScalarDomain) -> np.ndarray | None:
    """Lines of comma-separated entries as a grid, read by one ``np.loadtxt``
    call; None where numpy refuses them, and the caller then reads them
    entry by entry with ``domain.parse``, as Python's ``float()`` or
    ``complex()`` would.

    numpy's grammar is not Python's: it refuses spellings Python accepts
    (``1_0``, ``j``, ``1+2J``, non-ASCII digits).  Its complex reader is
    looser in one place, reading ``1++2j`` and ``1+-2j``, which
    ``complex()`` rejects; complex text with ``++`` or ``+-`` is therefore
    refused here.
    """
    if domain.is_complex and any("++" in line or "+-" in line for line in lines):
        return None
    try:
        return np.loadtxt(lines, delimiter=",", dtype=domain.dtype,
                          comments=None, ndmin=2)
    except ValueError:
        return None


def _entry_kinds(payload) -> set:
    """The types of the entries of a grid given as rows."""
    return set(map(type, itertools.chain.from_iterable(payload)))


def _matrix_from_payload(payload, domain: ScalarDomain,
                         kinds: set | None = None) -> np.ndarray:
    """JSON numbers, and an integer or float array, convert straight to the
    domain's dtype; anything else (strings, bools, nulls, and arrays of
    them) is read as text, so bools stay rejected.  ``kinds`` is
    :func:`_entry_kinds` of ``payload``, if the caller has it.

    Rows of strings are read in bulk by :func:`_read_rows` when they are
    rectangular and no entry holds a comma or a line break; otherwise, or
    where numpy refuses them, one ``domain.parse`` call per entry gives the
    value or the ``ParseError``."""
    if isinstance(payload, np.ndarray) and payload.dtype.kind in "iuf":
        return np.array(payload, dtype=domain.dtype)
    if kinds is None:
        kinds = _entry_kinds(payload)
    if kinds <= {int, float}:
        try:
            return np.array(payload, dtype=domain.dtype)
        except OverflowError as exc:
            raise ParseError(f"{domain.name} entry out of range: {exc}") from exc
    if kinds == {str} and type(payload) is list:
        values = _read_text_rows(payload, domain)
        if values is not None:
            return values
    return np.array([[domain.parse(str(v)) for v in row] for row in payload],
                    dtype=domain.dtype)


def _read_text_rows(rows: list, domain: ScalarDomain) -> np.ndarray | None:
    """:func:`_read_rows` of rows of strings joined by commas, if each row
    is a list of as many entries as the first, at least one, none holding a
    comma or a line break, and no line is blank (numpy would skip it, with
    a warning if all are); else None."""
    width = len(rows[0]) if rows and type(rows[0]) is list else 0
    if not width or any(type(row) is not list for row in rows):
        return None
    lines = [",".join(row) for row in rows]
    if any(line.count(",") != width - 1 or "\n" in line or "\r" in line
           or line.isspace() or not line for line in lines):
        return None
    values = _read_rows(lines, domain)
    return values if values is not None and values.shape == (len(rows), width) else None


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in sorted order, and each key's index among them."""
    distinct = np.sort(keys)
    # sort and compare neighbours: np.unique took several times longer
    keep = np.ones(distinct.shape, dtype=bool)
    keep[1:] = distinct[1:] != distinct[:-1]
    distinct = distinct[keep]
    return distinct, np.searchsorted(distinct, keys)


def _spell_distinct(values: np.ndarray, spell) -> list:
    """``[[spell(v) for v in row] for row in values.tolist()]`` for a 2-d
    numeric array, calling ``spell`` once per distinct bit pattern.

    Entries are told apart by their bits, not by ``==``: -0.0 and 0.0 stay
    apart, and so do (-0+0j) and 0j.  A complex entry's real and imaginary
    words are ranked apart and their ranks paired.
    """
    flat = np.ascontiguousarray(values).reshape(-1)
    word = min(flat.itemsize, 8)
    words = flat.view(f"u{word}").reshape(-1, flat.itemsize // word)
    patterns, codes = _distinct(words[:, 0])
    patterns = patterns[:, None]
    for column in words.T[1:]:
        more, more_codes = _distinct(column)
        pairs, codes = _distinct(codes * len(more) + more_codes)
        patterns = np.column_stack((patterns[pairs // len(more)],
                                    more[pairs % len(more)]))
    distinct = np.ascontiguousarray(patterns).view(flat.dtype).reshape(-1)
    table = np.array(list(map(spell, distinct.tolist())), dtype=object)
    return table[codes].reshape(values.shape).tolist()


class MatrixCategory(_GridCategory):
    """Matrices over one scalar domain, with dimension objects."""

    exact = False
    _blank = 0
    _unit = 1

    def __init__(self, domain: ScalarDomain):
        self.domain = domain
        self._dtype = domain.dtype
        self.name = {"real": "mat-r", "complex": "mat-c",
                     "nonnegative": "mat-nn"}.get(domain.name, f"mat-{domain.name}")

    def compose(self, g: ScalarMatrix, f: ScalarMatrix) -> ScalarMatrix:
        return g @ f

    def add(self, f: ScalarMatrix, g: ScalarMatrix) -> ScalarMatrix:
        return f + g

    def zero_object(self) -> int:
        return 0

    def generalized_biproduct(self, f: ScalarMatrix, g: ScalarMatrix,
                              f_inv: ScalarMatrix | None = None,
                              g_inv: ScalarMatrix | None = None) -> BiproductWitness:
        """Witness built from invertible basis changes on each factor.

        Inverses are computed only for monomial matrices; otherwise the caller
        must pass them explicitly.  The basis changes are composed onto the
        canonical witness's projections, and their inverses onto its
        injections.
        """
        if f.rows != f.cols or g.rows != g.cols:
            raise ArrowTypeError("basis-change matrices must be square")
        if f_inv is None:
            f_inv = monomial_inverse(f)
        if g_inv is None:
            g_inv = monomial_inverse(g)
        w = self.canonical_biproduct(f.rows, g.rows)
        witness = BiproductWitness(w.left, w.right, w.carrier, f @ w.pi1,
                                   g @ w.pi2, w.iota1 @ f_inv, w.iota2 @ g_inv)
        witness.validate()
        return witness

    # bound in the class body, so a traced run times each instance's own
    equal = _GridCategory.equal

    def _grid_payload(self, values: np.ndarray) -> np.ndarray | list:
        """A fresh float64 copy of a real or non-negative grid, which
        ``formats.canonical_json`` spells from its bits with the bytes of its
        ``tolist()``; a complex grid as rows of ``str`` of its entries.  A
        row selection's payload (``arrow_to_payload``) holds these entries'
        blank and unit: ``0.0`` and ``1.0``, or ``"0j"`` and ``"(1+0j)"``.

        Adding 0 turns -0.0 into 0.0 and leaves every other value alone:
        BLAS kernels differ in the sign they give an exact zero, and a
        report spells no signed zero.
        """
        values = values + 0
        if self.domain.is_complex or np.iscomplexobj(values):
            return _spell_distinct(values, str)
        return values

    _payload_selections = True

    def _grid_from_payload(self, payload, src: int, tgt: int) -> ScalarMatrix:
        """A grid of integer 0s and 1s, or of the writer's blank and unit
        (``_payload_cells``), with at most one unit per row is read as a
        selection (see ``core._GridCategory``) and held by its positions
        alone: ``list.count`` and ``list.index`` find each row's unit in C;
        a grid holding a bool is none.  A selection's products are exact,
        so its grid is built from the positions, C-ordered, and a ``-0.0``
        among its blanks reads as ``0.0``."""
        kinds = None
        if type(payload) is list:
            kinds = _entry_kinds(payload)
            if len(payload) == tgt and bool not in kinds:
                cells = (0, 1) if kinds == {int} else self._payload_cells
                lines = _unit_lines(payload, src, *cells)
                if lines is not None:
                    return self._arrow(_Selection(self, lines, 0, (tgt, src)),
                                       src, tgt)
        arr = _matrix_from_payload(payload, self.domain, kinds)
        if arr.shape == (0,) and tgt == 0:
            arr = np.empty((0, src), arr.dtype)  # [] is how a matrix with no rows reads
        if arr.ndim != 2 or arr.shape != (tgt, src):
            raise ParseError(
                f"matrix block must be {tgt}x{src}, got {arr.shape}")
        self.domain.validate(arr)
        return self._arrow(arr, src, tgt)  # a fresh array: no copy needed

    def describe_arrow(self, f: ScalarMatrix) -> dict:
        """Shape and entries; the entries are :meth:`arrow_to_payload`'s."""
        return {"rows": f.rows, "cols": f.cols, "entries": self.arrow_to_payload(f)}

    def describe_object(self, obj: int) -> int:
        return int(obj)

    def object_from_payload(self, payload) -> int:
        # int() would read "2" and 2.9 as 2, and true as 1
        if isinstance(payload, (bool, str, float)):
            raise ParseError(
                f"a dimension must be an integer, got {payload!r:.40}")
        if int(payload) < 0:
            raise ParseError(f"a dimension must be non-negative, got {payload}")
        return int(payload)

    def default_sampler(self, max_size: int | None = None) -> "MatrixSampler":
        return MatrixSampler(self.domain,
                             max_dim=5 if max_size is None else max_size)

    # -- grid hooks (see _GridCategory) ---------------------------------------

    def _object(self, obj: int) -> int:
        if obj < 0:
            raise ArrowTypeError("dimensions must be non-negative")
        return obj

    def _size(self, obj: int) -> int:
        return obj

    def _carrier(self, left: int, right: int) -> int:
        return left + right

    def _sub_object(self, obj: int, positions) -> int:
        return len(positions)

    def _arrow(self, values, src: int, tgt: int) -> ScalarMatrix:
        return ScalarMatrix._derived(values, self.domain)

    def _admit(self, f: ScalarMatrix) -> None:
        _check_domains(self.domain, f.domain)

    def _valid(self, values: np.ndarray) -> np.ndarray:
        self.domain.validate(values)
        return values

    def _compose_cells(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        return self.domain._matmul(g, f)

    def _add_cells(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        return self._valid(f + g)

    def _cell_equal(self, a: np.ndarray, b: np.ndarray,
                    tol: Tolerance | None) -> np.ndarray:
        return (Tolerance() if tol is None else tol).close(a, b)

    def _cell_residual(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(a - b)

    # a grid deviates as far as the farthest of its cells
    _residual_ufunc = np.maximum


class MatrixSampler(ArrowSampler):
    """Random dimensions up to a bound; entries bounded, with some exact zeros."""

    def __init__(self, domain: ScalarDomain, max_dim: int = 5):
        if max_dim < 0:
            raise PreconditionError(f"max_dim must be non-negative, got {max_dim}")
        self.domain = domain
        self.max_dim = max_dim

    def random_object(self, rng: random.Random) -> int:
        return rng.randrange(self.max_dim + 1)

    def random_arrow(self, rng: random.Random, src: int, tgt: int) -> ScalarMatrix:
        # cells in row-major order, a quarter of them exact zeros; the others
        # are drawn as ``rng.uniform(lo, lo + span)`` computes them
        draw = rng.random
        lo, span = (0.0, 2.0) if self.domain.nonnegative else (-2.0, 4.0)
        cells = range(src * tgt)
        if self.domain.is_complex:
            entries = [0.0 if draw() < 0.25
                       else complex(lo + span * draw(), lo + span * draw())
                       for _ in cells]
        else:
            entries = [0.0 if draw() < 0.25 else lo + span * draw()
                       for _ in cells]
        arr = np.array(entries, dtype=self.domain.dtype).reshape(tgt, src)
        return ScalarMatrix._derived(arr, self.domain)


MAT_R = MatrixCategory(REAL)
MAT_C = MatrixCategory(COMPLEX)
MAT_NN = MatrixCategory(NONNEGATIVE)
