"""File formats: CSV matrices, JSON lattices/relations/decompositions,
whitespace edge lists, and DOT export of partitioned arrows.

Every loader raises :class:`ParseError` on malformed input, naming what went
wrong; serializers are deterministic so reports and fixtures diff cleanly.
"""

from __future__ import annotations

import itertools
import json
import re
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

from .core import (
    _BAND_CELLS,
    ParseError,
    SemiadditiveCategory,
    _GridCategory,
    _SelectionPayload,
)
from .functors import LatticeHom
from .matrices import (
    MatrixCategory,
    ScalarDomain,
    ScalarMatrix,
    _read_rows,
    _spell_distinct,
)
from .relations import (
    HeytingTable,
    LRelation,
    RelationCategory,
    b4,
    bool_algebra,
    chain,
    decode_label,
    encode_label,
)
from .spectral import Block, Partition, SparseGraph, SpectralDecomposition


def canonical_json(payload: Any) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    With an indent the stdlib encodes in pure Python, one generator step per
    value.  Here lists and dicts with ``str`` keys are laid out directly, and
    a flat list of scalars or a rectangular grid of them is spelled in bulk:
    if its leaves are all ``int`` or all ``str``, each distinct value is
    spelled once by json's rules and rows are assembled with ``str.join``;
    other scalars are spelled one by one.  Anything else (tuples,
    subclasses, other key types, unknown objects) goes to the stdlib
    encoder at the same depth, so its text and its exceptions are json's
    own.

    A numpy array may stand anywhere in ``payload``, and is written as its
    ``tolist()`` would be.  A non-empty 2-d ``ndarray`` of bools, integers
    or floats of at most 8 bytes is spelled from its bits, a band of about
    ``core._BAND_CELLS`` cells at a time, without building the lists; every
    other array goes through ``tolist()``, so a complex or object array
    raises json's own error.  Real and non-negative matrix payloads, and
    the equitable report's grids, arrive as such float arrays.

    A row selection's payload (``core._SelectionPayload``, the ``project``
    and ``inject`` grids of a split) is written from its positions: its
    blank and unit are spelled once, and each row is cut from the text of
    an all-blank row with the unit's text put in, so no cell becomes a
    Python object.
    """
    out: list[str] = []
    try:
        _encode(payload, 0, out)
    except RecursionError:
        # too deep or circular: json decides which, with its own exception
        return _FALLBACK.encode(payload) + "\n"
    out.append("\n")
    return "".join(out)


_INDENT = "  "


class _Encoder(json.JSONEncoder):
    """The stdlib encoder, reading a numpy array or a selection payload
    as its ``tolist()``."""

    def default(self, o):
        if isinstance(o, (np.ndarray, _SelectionPayload)):
            return o.tolist()
        return super().default(o)


_FALLBACK = _Encoder(sort_keys=True, indent=2)
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floatstr(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


_SPELL = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _floatstr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_BULK = ({int}, {str})


def _encode(obj, level: int, out: list) -> None:
    spell = _SPELL.get(type(obj))
    if spell is not None:
        out.append(spell(obj))
    elif type(obj) is list and obj:
        _encode_list(obj, level, out)
    elif type(obj) is dict and obj and set(map(type, obj)) == {str}:
        _encode_dict(obj, level, out)
    elif isinstance(obj, np.ndarray):
        _encode_array(obj, level, out)
    elif type(obj) is _SelectionPayload:
        _encode_selection(obj, level, out)
    else:
        out.append(_FALLBACK.encode(obj).replace("\n", "\n" + _INDENT * level))


def _spell_item(value) -> str:
    return _SPELL[type(value)](value)


def _encode_array(obj: np.ndarray, level: int, out: list) -> None:
    """``obj.tolist()``'s text.  A 2-d grid whose ``tolist()`` holds bools,
    ints or floats is spelled from its bits, one band of rows at a time, so
    no list of the whole grid and no list of all its cells' text is held."""
    if not (type(obj) is np.ndarray and obj.ndim == 2 and obj.size
            and obj.dtype.kind in "biuf" and obj.dtype.itemsize <= 8):
        _encode(obj.tolist(), level, out)
        return
    band = max(1, _BAND_CELLS // obj.shape[1])
    cells = _cell_sep(level).join
    _layout_grid((map(cells, _spell_distinct(obj[i:i + band], _spell_item))
                  for i in range(0, len(obj), band)), level, out)


def _encode_selection(obj: _SelectionPayload, level: int, out: list) -> None:
    """``obj.tolist()``'s text, a band of rows at a time: each row is the
    all-blank row's text with the unit's put in at the row's position."""
    blank, unit = _spell_item(obj.blank), _spell_item(obj.unit)
    sep = _cell_sep(level)
    blank_row = (blank + sep) * (obj.width - 1) + blank
    stride, cut = len(blank) + len(sep), len(blank)
    lines = obj.lines.tolist()
    band = max(1, _BAND_CELLS // obj.width)
    _layout_grid(([blank_row if at < 0 else
                   blank_row[:at * stride] + unit + blank_row[at * stride + cut:]
                   for at in lines[i:i + band]]
                  for i in range(0, len(lines), band)), level, out)


def _cell_sep(level: int) -> str:
    """What stands between two cells of a grid row at ``level``."""
    return ",\n" + _INDENT * (level + 2)


def _layout_grid(bands, level: int, out: list) -> None:
    """A non-empty grid laid out as json's indent lays it out, from bands of
    its rows' texts, each row's cells joined by ``_cell_sep(level)``."""
    outer = "\n" + _INDENT * level
    inner = outer + _INDENT
    row = inner + _INDENT
    between = inner + "]," + inner + "[" + row
    sep = "[" + inner + "[" + row
    for band in bands:
        out += (sep, between.join(band))
        sep = between
    out.append(inner + "]" + outer + "]")


def _spell_rows(rows: list, kinds: set) -> list:
    """Each row's scalars as json text.  With leaves of one bulk kind, each
    distinct value is spelled once."""
    if kinds not in _BULK:
        return [[_spell_item(v) for v in row] for row in rows]
    (kind,) = kinds
    table = dict.fromkeys(itertools.chain.from_iterable(rows))
    spell = _SPELL[kind]
    for value in table:
        table[value] = spell(value)
    return [map(table.__getitem__, row) for row in rows]


def _encode_list(obj: list, level: int, out: list) -> None:
    outer = "\n" + _INDENT * level
    inner = outer + _INDENT
    kinds = set(map(type, obj))
    if kinds <= _SPELL.keys():
        out += ("[" + inner, ("," + inner).join(_spell_rows([obj], kinds)[0]),
                outer + "]")
        return
    if kinds == {list} and obj[0] and len(set(map(len, obj))) == 1:
        leaves = set(map(type, itertools.chain.from_iterable(obj)))
        if leaves <= _SPELL.keys():
            # a rectangular grid of scalars
            _layout_grid([map(_cell_sep(level).join, _spell_rows(obj, leaves))],
                         level, out)
            return
    sep = "[" + inner
    for item in obj:
        out.append(sep)
        _encode(item, level + 1, out)
        sep = "," + inner
    out.append(outer + "]")


def _encode_dict(obj: dict, level: int, out: list) -> None:
    outer = "\n" + _INDENT * level
    inner = outer + _INDENT
    sep = "{" + inner
    for key in sorted(obj):
        out.append(sep + encode_basestring_ascii(key) + ": ")
        _encode(obj[key], level + 1, out)
        sep = "," + inner
    out.append(outer + "}")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 byte at offset {exc.start}") from exc


def _read_json(path) -> Any:
    return _decoded(path, _read_text(path))


def _decoded(path, text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc


# ---------------------------------------------------------------------------
# scalar matrices (CSV)


def load_matrix_csv(path, domain: ScalarDomain) -> ScalarMatrix:
    """A matrix from CSV text, one row per line.

    Each line is stripped; blank lines and lines starting with ``#`` are
    skipped.  Each comma-separated entry reads as ``domain.parse`` reads it,
    that is as Python's ``float()`` or ``complex()`` would, and every row
    must have as many entries as the first.

    The kept lines are read by one ``np.loadtxt`` call
    (:func:`matrices._read_rows`, which the decomposition reader shares).
    numpy's grammar is not Python's, so the entry-by-entry loop runs
    instead whenever numpy refuses the text, and then gives the value or
    the ``ParseError`` it always gave; numpy's message for a ragged row
    would also lack the line number.
    """
    text = _read_text(path)
    numbered = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            numbered.append((lineno, line))
    if not numbered:
        raise ParseError(f"{path}: no matrix rows found")
    values = _read_rows([line for _, line in numbered], domain)
    if values is None:
        values = _parse_rows(path, numbered, domain)
    domain.validate(values)
    return ScalarMatrix._derived(values, domain)


def _parse_rows(path, numbered: list, domain: ScalarDomain) -> np.ndarray:
    """The kept ``(line number, line)`` pairs, entry by entry."""
    rows = []
    width = None
    parse = domain.parse
    for lineno, line in numbered:
        entries = [parse(tok) for tok in line.split(",")]
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ParseError(
                f"{path}: line {lineno} has {len(entries)} entries, expected {width}")
        rows.append(entries)
    return np.array(rows, dtype=domain.dtype)


def _format_scalar(value) -> str:
    if isinstance(value, complex):
        return str(value).strip("()")
    return repr(value)


def save_matrix_csv(matrix: ScalarMatrix, path) -> None:
    rows = _spell_distinct(matrix.values, _format_scalar)
    Path(path).write_text("\n".join(map(",".join, rows)) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# lattices


# Validating a table takes time cubic in its size (on a 2-vCPU VM chain:512
# takes 2-3 s and chain:1024 about 20 s), so lattices read from input are
# bounded; library callers of HeytingTable and chain are not.
_MAX_INPUT_LATTICE = 512


def _check_lattice_size(what: str, count: int) -> None:
    if count > _MAX_INPUT_LATTICE:
        raise ParseError(f"lattice {what} has {count} elements; at most "
                         f"{_MAX_INPUT_LATTICE} are accepted from input")


def lattice_from_dict(payload: dict) -> HeytingTable:
    try:
        elements = payload["elements"]
        meet = payload["meet"]
        join = payload["join"]
        count = len(elements)
    except (KeyError, TypeError) as exc:
        raise ParseError("lattice JSON needs elements, meet, and join") from exc
    name = str(payload.get("name", "custom"))
    _check_lattice_size(repr(name), count)
    return HeytingTable.from_label_tables(elements, meet, join, name=name)


def resolve_lattice(spec: str) -> HeytingTable:
    """Resolve a --lattice selector: builtin name, chain size, or JSON path."""
    name = spec.removeprefix("builtin:")
    if name == "bool":
        return bool_algebra()
    if name == "b4":
        return b4()
    if name.startswith("chain:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad chain size in {spec!r}") from exc
        _check_lattice_size(repr(spec), k)
        return chain(k)
    if spec.startswith("builtin:"):
        raise ParseError(f"unknown builtin lattice {spec!r}")
    return lattice_from_dict(_read_json(spec))


# ---------------------------------------------------------------------------
# relations


def _object(cat: SemiadditiveCategory, payload, field: str):
    """``cat.object_from_payload(payload)``; its ParseError names ``field``."""
    try:
        return cat.object_from_payload(payload)
    except ParseError as exc:
        raise ParseError(f"{field}: {exc}") from exc


def relation_from_dict(payload: dict, algebra: HeytingTable) -> LRelation:
    cat = RelationCategory(algebra)
    try:
        source = _object(cat, payload["source"], "relation source")
        target = _object(cat, payload["target"], "relation target")
        values = payload["values"]
    except (KeyError, TypeError) as exc:
        raise ParseError("relation JSON needs source, target, and values") from exc
    return cat.arrow_from_payload(values, source, target)


def relation_to_dict(rel: LRelation) -> dict:
    return RelationCategory(rel.algebra).describe_arrow(rel)


def load_relation_json(path, algebra: HeytingTable) -> LRelation:
    return relation_from_dict(_read_json(path), algebra)


def save_relation_json(rel: LRelation, path) -> None:
    Path(path).write_text(canonical_json(relation_to_dict(rel)), encoding="utf-8")


# ---------------------------------------------------------------------------
# decompositions


def decomposition_from_dict(payload: dict,
                            cat: SemiadditiveCategory) -> SpectralDecomposition:
    try:
        carrier = _object(cat, payload["carrier"], "decomposition carrier")
        raw_blocks = payload["blocks"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("decomposition JSON needs carrier and blocks") from exc
    if not isinstance(raw_blocks, list):
        raise ParseError("decomposition blocks must be a list")
    blocks = []
    for i, raw in enumerate(raw_blocks, start=1):
        try:
            space = _object(cat, raw["space"], f"decomposition block {i} space")
            if i == 1:
                _require_carrier_width(cat, carrier, raw["project"])
            project = cat.arrow_from_payload(raw["project"], carrier, space)
            inject = cat.arrow_from_payload(raw["inject"], space, carrier)
            local = cat.arrow_from_payload(raw["local"], space, space)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"decomposition block {i} is malformed: {exc}") from exc
        blocks.append(Block(space, project, inject, local))
    if not blocks:
        raise ParseError("decomposition needs at least one block")
    return SpectralDecomposition(carrier, tuple(blocks))


def _require_carrier_width(cat: SemiadditiveCategory, carrier, project) -> None:
    """ParseError naming the carrier when the first row of ``project``, block
    1's projection as read from JSON, is not as wide as the carrier: reading
    the block would blame the block's shape, and a huge carrier would be
    spelled out in it."""
    if type(project) is _SelectionPayload and len(project.lines):
        width = project.width
    elif isinstance(project, list) and project and isinstance(project[0], list):
        width = len(project[0])
    else:
        return
    if isinstance(cat, _GridCategory) and width != cat._size(carrier):
        raise ParseError(f"decomposition carrier: block 1's project has {width} "
                         f"columns, so the carrier must have {width} positions")


def decomposition_to_dict(dec: SpectralDecomposition,
                          cat: SemiadditiveCategory) -> dict:
    return {
        "carrier": cat.describe_object(dec.carrier),
        "blocks": [
            {
                "space": cat.describe_object(b.space),
                "project": cat.arrow_to_payload(b.project),
                "inject": cat.arrow_to_payload(b.inject),
                "local": cat.arrow_to_payload(b.local),
            }
            for b in dec.blocks
        ],
    }


def load_decomposition_json(path, cat: SemiadditiveCategory) -> SpectralDecomposition:
    """The decomposition that ``decomposition_from_dict`` reads from the
    JSON text at ``path``.

    For a matrix instance the ``project`` and ``inject`` grids of the
    blocks are read in bulk (:func:`_scanned_decomposition`): a grid of the
    tokens ``0`` and ``1``, or of ``0.0`` and ``1.0`` as the writer spells
    a real selection, rectangular, with at most one unit per row, is
    checked byte by byte and held by its positions, so no Python number is
    made for its cells and no pass looks for its units.  Every other grid
    is decoded by ``json.loads``; the whole text is, when it holds a
    backslash or a ``#``, when it does not decode, or when a scanned grid
    is not a block's ``project`` or ``inject`` (nested elsewhere, or
    dropped by a later duplicate key).  The result, or the error and its
    message, is always that of ``json.loads`` and
    :func:`decomposition_from_dict`.
    """
    text = _read_text(path)
    payload = _scanned_decomposition(text) if isinstance(cat, MatrixCategory) else None
    return decomposition_from_dict(
        _decoded(path, text) if payload is None else payload, cat)


# a key naming a grid, up to the grid's first bracket; the end of a grid
_GRID_KEY = re.compile(r'"(?:project|inject)"[ \t\n\r]*:[ \t\n\r]*\[')
_GRID_END = re.compile(r"\][ \t\n\r]*\]")


def _scanned_decomposition(text: str) -> dict | None:
    """``json.loads(text)`` with its blocks' ``project`` and ``inject``
    grids that :func:`_scanned_grid` takes held as
    :class:`core._SelectionPayload` objects, or None where the plain path
    must read ``text``.

    Each grid taken is replaced by a placeholder string before decoding,
    ``#`` and a number.  A text holding a ``#`` or a backslash is not
    scanned.  Without escapes every decoded string is a raw substring of
    the text, so no string of the input can equal a placeholder; and no
    string can hold a quote, so a key matched is no part of a string.  A
    grid taken is a whole JSON value after a key's colon and holds no
    quote, so the rewritten text decodes exactly when ``text`` does, to
    the same values but the grids.  Each placeholder must then be found as
    a block's ``project`` or ``inject``, else the plain path reads the text
    again.
    """
    if "\\" in text or "#" in text:
        return None
    pieces, grids = [], {}
    kept = 0
    for key in _GRID_KEY.finditer(text):
        start = key.end() - 1
        # a grid holds no quote: the search stops at the next one
        stop = text.find('"', start)
        close = _GRID_END.search(text, start, len(text) if stop < 0 else stop)
        grid = close and _scanned_grid(text[start:close.end()])
        if grid is not None:
            placeholder = f"#{len(grids)}"
            pieces += (text[kept:start], '"', placeholder, '"')
            grids[placeholder] = grid
            kept = close.end()
    if not grids:
        return None
    pieces.append(text[kept:])
    try:
        payload = json.loads("".join(pieces))
    except (json.JSONDecodeError, RecursionError):
        return None
    blocks = payload.get("blocks") if type(payload) is dict else None
    found = 0
    for block in blocks if type(blocks) is list else ():
        for key in ("project", "inject") if type(block) is dict else ():
            value = block.get(key)
            if type(value) is str and value in grids:
                block[key] = grids[value]
                found += 1
    return payload if found == len(grids) else None


def _scanned_grid(span: str) -> _SelectionPayload | None:
    """The grid ``span`` spells, if it is a non-empty list of rows of as
    many tokens each, at least one, every token ``0`` and ``1``, or every
    one ``0.0`` and ``1.0``, and no row holds two units; else None.

    With whitespace dropped and a comma put after the last row, a grid of
    ``width`` tokens of ``size - 1`` bytes is a run of rows of
    ``size * width + 2`` bytes, read as one fixed-stride array: each row
    must equal ``[1,1,...,1],`` (or ``[1.0,...,1.0],``) once the first
    byte of each of its tokens is read with its low bit set.
    """
    dense = span.encode().translate(None, b" \t\n\r")
    size = 4 if dense[3:4] == b"." else 2
    token = b"1.0"[:size - 1]
    width = (dense.find(b"]") - 1) // size
    stride = size * width + 2
    if width < 1 or (len(dense) - 1) % stride:
        return None
    rows = np.frombuffer(dense[1:-1] + b",", np.uint8).reshape(-1, stride)
    template = b"[" + (token + b",") * (width - 1) + token + b"],"
    first = np.zeros(stride, np.uint8)
    first[1:size * width:size] = 1
    if not ((rows | first) == np.frombuffer(template, np.uint8)).all():
        return None
    units = np.flatnonzero(rows[:, 1:size * width:size] == ord("1"))
    at, column = np.divmod(units, width)
    if np.any(at[1:] == at[:-1]):
        return None  # two units in a row
    lines = np.full(len(rows), -1, np.intp)
    lines[at] = column
    return _SelectionPayload(lines, width, *((0, 1) if size == 2 else (0.0, 1.0)))


def save_decomposition_json(dec: SpectralDecomposition,
                            cat: SemiadditiveCategory, path) -> None:
    Path(path).write_text(canonical_json(decomposition_to_dict(dec, cat)),
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# graphs and partitions

_MAX_VERTEX = np.iinfo(np.int64).max


def load_graph_edges(path) -> SparseGraph:
    """Sparse graph from a whitespace edge list, one '0-based u v' per line.

    Every id from 0 to the largest must have an edge; the check runs on the
    edges alone, so a huge id costs no memory.
    """
    edges = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}: line {lineno} is not 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno} has non-integer vertex") from exc
        if u < 0 or v < 0:
            raise ParseError(f"{path}: line {lineno} has a negative vertex")
        if max(u, v) > _MAX_VERTEX:
            raise ParseError(f"{path}: line {lineno} has a vertex id above "
                             f"{_MAX_VERTEX}")
        edges.append((u, v))
    if not edges:
        raise ParseError(f"{path}: no edges found")
    pairs = np.array(edges, dtype=np.int64)
    return SparseGraph.from_edges(pairs[:, 0], pairs[:, 1])


def partition_from_dict(payload: dict, carrier: tuple) -> Partition:
    try:
        cells = [tuple(map(decode_label, cell)) for cell in payload["cells"]]
    except (KeyError, TypeError) as exc:
        raise ParseError("partition JSON needs a cells list") from exc
    return Partition(carrier, tuple(cells))


def partition_to_dict(partition: Partition) -> dict:
    return {"cells": [[encode_label(l) for l in cell] for cell in partition.cells]}


def load_partition_json(path, carrier: tuple) -> Partition:
    return partition_from_dict(_read_json(path), carrier)


# ---------------------------------------------------------------------------
# lattice homomorphisms


def hom_from_dict(payload: dict) -> LatticeHom:
    try:
        source_spec = payload["source"]
        target_spec = payload["target"]
        mapping = payload["map"]
    except (KeyError, TypeError) as exc:
        raise ParseError("hom JSON needs source, target, and map") from exc
    if not isinstance(mapping, dict):
        raise ParseError("hom map must be an object from source to target elements")
    source = (resolve_lattice(source_spec) if isinstance(source_spec, str)
              else lattice_from_dict(source_spec))
    target = (resolve_lattice(target_spec) if isinstance(target_spec, str)
              else lattice_from_dict(target_spec))
    return LatticeHom.from_labels(source, target, mapping)


def load_hom_json(path) -> LatticeHom:
    return hom_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# DOT export (presentation only)


def _dot_name(label) -> str:
    text = ".".join(str(p) for p in label) if isinstance(label, tuple) else str(label)
    return '"' + text.replace('"', r'\"') + '"'


def partitioned_dot(partition: Partition, arrow) -> str:
    """A directed graph with one cluster per cell and labelled edges.

    ``arrow`` may be a relation (edge label = lattice value), a square
    matrix (edge label = entry, zeros omitted) or a sparse graph (edge
    label 1).  Edges come in row-major order of the arrow's grid.
    """
    lines = ["digraph decomposition {"]
    for i, cell in enumerate(partition.cells):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="cell {i}";')
        for label in cell:
            lines.append(f"    {_dot_name(label)};")
        lines.append("  }")
    if isinstance(arrow, LRelation):
        targets, sources = np.nonzero(arrow.values != arrow.algebra.bottom)
        labels = arrow.algebra.spell(arrow.values[targets, sources])
        for t, s, label in zip(targets.tolist(), sources.tolist(), labels):
            lines.append(
                f"  {_dot_name(arrow.source[s])} -> "
                f'{_dot_name(arrow.target[t])} [label="{label}"];')
    elif isinstance(arrow, SparseGraph):
        for t, s in zip(arrow.rows().tolist(), arrow.indices.tolist()):
            lines.append(f'  {_dot_name(s)} -> {_dot_name(t)} [label="1"];')
    else:
        values = arrow.values if isinstance(arrow, ScalarMatrix) else np.asarray(arrow)
        for t, s in zip(*(axis.tolist() for axis in np.nonzero(values))):
            lines.append(
                f"  {_dot_name(s)} -> {_dot_name(t)} [label=\"{values[t, s]:g}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
