"""The bulk reader of matrix decompositions' 0/1 grids
(``formats._scanned_decomposition``) against ``json.loads`` of the whole
text and the list reader (``tests/_oracles.load_decomposition_json_slow``):
the same carrier, spaces, bits, dtypes and selection forms, or the same
error with the same message."""

from __future__ import annotations

import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specat import MAT_C, MAT_NN, MAT_R, ParseError, RelationCategory, b4
from specat.cli import main
from specat.core import _SelectionPayload
from specat.formats import (
    _scanned_decomposition,
    load_decomposition_json,
    save_decomposition_json,
)
from specat.spectral import Block, SpectralDecomposition

from ._oracles import load_decomposition_json_slow, public_type
from .test_golden import ROOT

INSTANCES = [MAT_R, MAT_NN, MAT_C]
_WHITESPACE = " \t\n\r"
# what a token of a grid may become: multi-digit, empty, nested, other
# numbers, other kinds, two tokens
_TOKENS = ["10", "01", "", "2", "0.5", "-0", "-0.0", "1.5", "1e0", "[0]",
           "true", "null", '"0"', "1,1", "0 1", "00", "0.", ".0", "0.00"]
_BYTES = '0123456789[]{},:" .-e#\\'


def _outcome(load, path, cat):
    """The carrier and each block's space and arrows (public class, bits,
    dtype, shape, form), or the error's type and message."""
    try:
        dec = load(path, cat)
    except Exception as exc:  # the exception must match as well
        return type(exc), str(exc)
    return dec.carrier, [
        (b.space, *[(public_type(f), f.values.tobytes(), f.values.dtype,
                     f.values.shape, None if f._form is None else
                     (f._form.axis, f._form.shape, f._form.lines.tolist()))
                    for f in (b.project, b.inject, b.local)])
        for b in dec.blocks]


def _same_as_plain(tmp_dir, cat, text):
    path = tmp_dir / "dec.json"
    path.write_text(text, encoding="utf-8")
    got = _outcome(load_decomposition_json, path, cat)
    assert got == _outcome(load_decomposition_json_slow, path, cat)
    return got


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scanned")


@st.composite
def _selection(draw, rows, width, floats):
    """Rows of blanks with at most one unit, maybe with one flaw: a row or
    a column more or fewer, a second unit, or a stray cell."""
    flaw = draw(st.sampled_from([None] * 6 + ["rows", "width", "unit", "cell"]))
    if flaw == "rows":
        rows = max(rows + draw(st.sampled_from([-1, 1])), 0)
    if flaw == "width":
        width = max(width + draw(st.sampled_from([-1, 1])), 0)
    blank, unit = (0.0, 1.0) if floats else (0, 1)
    grid = []
    for _ in range(rows):
        row = [blank] * width
        if width and draw(st.integers(0, 3)):
            row[draw(st.integers(0, width - 1))] = unit
        grid.append(row)
    if grid and width and flaw in ("unit", "cell"):
        row = grid[draw(st.integers(0, rows - 1))]
        row[draw(st.integers(0, width - 1))] = (unit if flaw == "unit" else
                                                 draw(st.sampled_from(
                                                     [2, -0.0, 0.5, True, "0"])))
        if flaw == "unit":
            row[draw(st.integers(0, width - 1))] = unit
    return grid


@st.composite
def _texts(draw):
    """(instance, JSON text) of a decomposition: compact, spaced, indented
    or with random whitespace between tokens, its grids spelled as ints or
    as the writer's floats, then maybe mutated: a token of a grid
    replaced, a byte replaced, or the text cut short."""
    cat = draw(st.sampled_from(INSTANCES))
    carrier = draw(st.integers(0, 5))
    floats = draw(st.booleans())
    blocks = []
    for space in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)):
        cells = st.sampled_from(["1+2j", "0j", 0, 1, 2.5] if cat is MAT_C
                                else [0, 1, 2.5, -1.0])
        blocks.append({
            "space": space,
            "project": draw(_selection(space, carrier, floats)),
            "inject": draw(_selection(carrier, space, floats)),
            "local": [[draw(cells) for _ in range(space)] for _ in range(space)],
        })
    payload = {"carrier": carrier, "blocks": blocks}
    style = draw(st.sampled_from(["compact", "spaced", "indent", "random"]))
    sort_keys = draw(st.booleans())
    if style == "indent":
        text = json.dumps(payload, indent=draw(st.integers(0, 3)),
                          sort_keys=sort_keys)
    else:
        text = json.dumps(payload, sort_keys=sort_keys,
                          separators=(", ", ": ") if style == "spaced"
                          else (",", ":"))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if style == "random":
        text = "".join(c + "".join(rng.choices(_WHITESPACE, k=rng.randrange(3)))
                       if c in "[],:{}" else c for c in text)
    mutation = draw(st.sampled_from([None, None, "token", "byte", "cut"]))
    digits = [i for i, c in enumerate(text) if c in "01"]
    if mutation == "token" and digits:
        at = rng.choice(digits)
        text = text[:at] + rng.choice(_TOKENS) + text[at + 1:]
    elif mutation == "byte":
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(_BYTES) + text[at + 1:]
    elif mutation == "cut":
        text = text[:rng.randrange(len(text))]
    return cat, text


_DEC = '{"carrier":2,"blocks":[{"space":1,%s,"local":[[1]]}]}'


@settings(max_examples=400, deadline=None)
@given(case=_texts())
@example(case=(MAT_R, _DEC % '"project":[[1,0]],"inject":[[1],[0]]'))
# a placeholder's spelling in the input, as is and escaped
@example(case=(MAT_R, _DEC % '"project":"#0","inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":"\\u00230","inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":[[1,0]],"inject":"\\u00230"'))
@example(case=(MAT_C, _DEC % '"pro\\u006aect":[[1,0]],"inject":[[1],[0]]'))
# ... taking the place of a scanned grid that a duplicate key dropped
@example(case=(MAT_R, _DEC % '"project":[[1,0]],"project":"#0","inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":[[1,0]],"project":"\\u00230",'
                             '"inject":[[1],[0]]'))
# duplicate keys: the last one wins, scanned or not
@example(case=(MAT_R, _DEC % '"project":[[1,0]],"project":[[0,1]],'
                             '"inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":[[1,0]],"project":[[0,2]],'
                             '"inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":[[0,2]],"project":[[0,1]],'
                             '"inject":[[1],[0]]'))
@example(case=(MAT_R, '{"carrier":2,"blocks":[{"space":1,"project":[[1,0]],'
                      '"inject":[[1],[0]],"local":[[1]]}],"blocks":[]}'))
# hostile spans: multi-digit, empty and missing tokens, ragged, two units,
# nested, inside a string, not a block's grid
@example(case=(MAT_R, _DEC % '"project":[[10,0]],"inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":[[01,0]],"inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":[[0,,1]],"inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":[[1,0,]],"inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":[[1,0],[0]],"inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":[[1,1]],"inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":[[[1,0]]],"inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":[[1,0]]],"inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"project":"[[1,0]]","inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"x":"\\"project\\":[[1,0]]","project":[[1,0]],'
                             '"inject":[[1],[0]]'))
@example(case=(MAT_R, _DEC % '"x":"a\\"project\\":[[1,0]]","project":[[1,0]],'
                             '"inject":[[1],[0]]'))
@example(case=(MAT_R, '{"carrier":2,"blocks":[{"space":1,"project":[[1,0]],'
                      '"inject":[[1],[0]],"local":[[{"inject":[[1]]}]]}]}'))
@example(case=(MAT_R, '{"carrier":{"project":[[1,0]]},"blocks":[]}'))
@example(case=(MAT_R, '[{"project":[[1,0]]}]'))
@example(case=(MAT_R, '{"carrier":2,"blocks":[{"space":1,"project":[[1,0]],'
                      '"inject":[[1],[0]],"local":[[1]]}],"x":{"project":[[1]]}}'))
@example(case=(MAT_R, '{"carrier":2,"blocks":[[{"project":[[1,0]]}]]}'))
# keys that are no keys, and a grid where a key is due
@example(case=(MAT_R, '{"carrier":2,"blocks":["project":[[1,0]]]}'))
@example(case=(MAT_R, '{"carrier":2,"blocks":[{[[1,0]]:1}]}'))
# a decode error after a scanned grid, and a carrier too narrow for block 1
@example(case=(MAT_R, _DEC % '"project":[[1,0]],"inject":[[1],[0]]]'))
@example(case=(MAT_R, _DEC.replace("2", "3", 1)
               % '"project":[[1,0]],"inject":[[1],[0]]'))
@example(case=(MAT_NN, _DEC % '"project":[[1.0,0.0]],"inject":[[1.0],[0.0]]'))
@example(case=(MAT_C, _DEC % '"project":[[1.0,0.0]],"inject":[[1.0],[0.0]]'))
@example(case=(MAT_R, _DEC % '"project":[[1.0,0]],"inject":[[1.0],[-0.0]]'))
def test_scanned_grids_read_as_json_loads_reads_them(tmp_dir, case):
    cat, text = case
    _same_as_plain(tmp_dir, cat, text)


@pytest.mark.parametrize("cat", INSTANCES, ids=lambda c: c.name)
@pytest.mark.parametrize("style", ["compact", "indent"])
def test_clean_grids_are_scanned_to_forms(tmp_dir, cat, style):
    """Every P and I of a compact 0/1 file (as perfbench writes them) and
    of an indented one is scanned; each reads as a form, as its list did."""
    rng = np.random.default_rng(3)
    cells = np.array_split(rng.permutation(9), 3)
    blocks = []
    for cell in cells:
        project = np.zeros((len(cell), 9), int)
        project[np.arange(len(cell)), cell] = 1
        blocks.append({"space": len(cell), "project": project.tolist(),
                       "inject": project.T.tolist(),
                       "local": np.eye(len(cell)).tolist()})
    payload = {"carrier": 9, "blocks": blocks}
    text = (json.dumps(payload, separators=(",", ":"), sort_keys=True)
            if style == "compact" else json.dumps(payload, indent=2))
    scanned = _scanned_decomposition(text)
    assert all(type(b[key]) is _SelectionPayload
               for b in scanned["blocks"] for key in ("project", "inject"))
    carrier, got = _same_as_plain(tmp_dir, cat, text)
    assert carrier == 9
    assert all(project[-1] is not None and inject[-1] is not None
               for _, project, inject, _ in got)


@pytest.mark.parametrize("cat", INSTANCES, ids=lambda c: c.name)
def test_saved_selections_are_scanned_where_they_read_as_forms(tmp_dir, cat):
    """The writer's own spelling of a selection, indented: ``0.0`` and
    ``1.0`` in a real instance are scanned; mat-c's strings are not."""
    identity = cat.identity(3)
    block = Block(2, cat.restrict(identity, [0, 2], None),
                  cat.restrict(identity, None, [0, 2]), cat.identity(2))
    path = tmp_dir / "saved.json"
    save_decomposition_json(SpectralDecomposition(3, (block,)), cat, path)
    text = path.read_text(encoding="utf-8")
    scanned = _scanned_decomposition(text)
    if cat is MAT_C:
        assert scanned is None
    else:
        assert type(scanned["blocks"][0]["project"]) is _SelectionPayload
    carrier, [(space, project, inject, _)] = _same_as_plain(tmp_dir, cat, text)
    assert (carrier, space) == (3, 2)
    assert project[-1] == (0, (2, 3), [0, 2])
    assert inject[-1] == (0, (3, 2), [0, -1, 1])


def test_relations_are_not_scanned():
    """A relation decomposition is read by ``json.loads`` alone."""
    with mock.patch("specat.formats._scanned_decomposition",
                    side_effect=AssertionError("scanned")):
        load_decomposition_json(ROOT / "fixtures/decomps/b4_diag2_dec.json",
                                RelationCategory(b4()))


@pytest.mark.parametrize("text", [
    _DEC % '"project":[[1,0]],"inject":[[1],[0]]]',
    '{"carrier":3,\n"blocks":[{"space":1,"project":[[1,0]],\n"inject":[[1],[0]],'
    '"local":[[1]]}]}',
], ids=["decode-error", "carrier"])
def test_errors_are_the_plain_readers_through_the_cli(tmp_path, capsys, text):
    """A decode error after a scanned grid gives the original text's line
    and column; a carrier too narrow for block 1 is named."""
    path = tmp_path / "dec.json"
    path.write_text(text, encoding="utf-8")
    csv = tmp_path / "f.csv"
    csv.write_text("1,0\n0,1\n", encoding="utf-8")
    with pytest.raises(ParseError) as plain:
        load_decomposition_json_slow(path, MAT_R)
    code = main(["verify", "--instance", "mat-r", "--arrow", str(csv),
                 "--decomposition", str(path)])
    assert (code, *capsys.readouterr()) == (2, "", f"error: {plain.value}\n")
