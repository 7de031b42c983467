"""File formats: CSV matrices, JSON lattices/relations/decompositions,
whitespace edge lists, and DOT export of partitioned arrows.

Every loader raises :class:`ParseError` on malformed input, naming what went
wrong; serializers are deterministic so reports and fixtures diff cleanly.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

from .core import ParseError, SemiadditiveCategory
from .functors import LatticeHom
from .matrices import ScalarDomain, ScalarMatrix, _spell_distinct
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
    if its leaves are all ``float``, all ``int`` or all ``str``, each
    distinct value is spelled once by json's rules and rows are assembled
    with ``str.join``.  Anything else (tuples, subclasses, other key types,
    unknown objects) goes to the stdlib encoder at the same depth, so its
    text and its exceptions are json's own.
    """
    out: list[str] = []
    try:
        _encode(payload, 0, out)
    except RecursionError:
        # too deep or circular: json decides which, with its own exception
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


_INDENT = "  "
_FALLBACK = json.JSONEncoder(sort_keys=True, indent=2)
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
_BULK = ({float}, {int}, {str})


def _encode(obj, level: int, out: list) -> None:
    spell = _SPELL.get(type(obj))
    if spell is not None:
        out.append(spell(obj))
    elif type(obj) is list and obj:
        _encode_list(obj, level, out)
    elif type(obj) is dict and obj and set(map(type, obj)) == {str}:
        _encode_dict(obj, level, out)
    else:
        out.append(_FALLBACK.encode(obj).replace("\n", "\n" + _INDENT * level))


def _spell_rows(rows: list, kinds: set) -> list:
    """Each row's scalars as json text.  With leaves of one bulk kind, each
    distinct value is spelled once: floats are keyed by bit pattern, so
    -0.0 and 0.0 stay apart and every NaN reads ``NaN``."""
    if kinds not in _BULK:
        return [[_SPELL[type(v)](v) for v in row] for row in rows]
    (kind,) = kinds
    if kind is float:
        return _spell_distinct(np.array(rows, dtype=np.float64), _floatstr)
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
            row = inner + _INDENT
            body = (inner + "]," + inner + "[" + row).join(
                map(("," + row).join, _spell_rows(obj, leaves)))
            out += ("[" + inner + "[" + row, body, inner + "]" + outer + "]")
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
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_json(path) -> Any:
    text = _read_text(path)
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

    The kept lines are parsed by one ``np.loadtxt`` call.  numpy's grammar
    is not Python's, so the entry-by-entry loop runs instead whenever numpy
    refuses the text, and then gives the value or the ``ParseError`` it
    always gave: numpy refuses spellings Python accepts (``1_0``, ``j``,
    ``1+2J``, non-ASCII digits), and its message for a ragged row lacks the
    line number.  numpy's complex reader is looser in one place, reading
    ``1++2j`` and ``1+-2j``, which ``complex()`` rejects; complex text with
    ``++`` or ``+-`` therefore goes to the loop as well.
    """
    text = _read_text(path)
    numbered = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            numbered.append((lineno, line))
    if not numbered:
        raise ParseError(f"{path}: no matrix rows found")
    values = None
    if not (domain.is_complex and ("++" in text or "+-" in text)):
        try:
            values = np.loadtxt([line for _, line in numbered], delimiter=",",
                                dtype=domain.dtype, comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None:
        values = _parse_rows(path, numbered, domain)
    return ScalarMatrix(values, domain)


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
    Path(path).write_text("\n".join(map(",".join, rows)) + "\n")


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
    Path(path).write_text(canonical_json(relation_to_dict(rel)))


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
            project = cat.arrow_from_payload(raw["project"], carrier, space)
            inject = cat.arrow_from_payload(raw["inject"], space, carrier)
            local = cat.arrow_from_payload(raw["local"], space, space)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"decomposition block {i} is malformed: {exc}") from exc
        blocks.append(Block(space, project, inject, local))
    if not blocks:
        raise ParseError("decomposition needs at least one block")
    return SpectralDecomposition(carrier, tuple(blocks))


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
    return decomposition_from_dict(_read_json(path), cat)


def save_decomposition_json(dec: SpectralDecomposition,
                            cat: SemiadditiveCategory, path) -> None:
    Path(path).write_text(canonical_json(decomposition_to_dict(dec, cat)))


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
