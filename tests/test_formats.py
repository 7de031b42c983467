import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specat import (
    MAT_C,
    MAT_NN,
    MAT_R,
    REL,
    ArrowTypeError,
    Block,
    LRelation,
    MatrixCategory,
    ParseError,
    Partition,
    RelationCategory,
    ScalarDomain,
    ScalarMatrix,
    SpectralDecomposition,
    b4,
    bool_algebra,
    chain,
)
from specat.formats import (
    _dot_name,
    canonical_json,
    decomposition_from_dict,
    decomposition_to_dict,
    hom_from_dict,
    lattice_from_dict,
    load_decomposition_json,
    load_graph_edges,
    load_matrix_csv,
    load_relation_json,
    partition_from_dict,
    partitioned_dot,
    relation_from_dict,
    relation_to_dict,
    resolve_lattice,
    save_decomposition_json,
    save_matrix_csv,
    save_relation_json,
)
from specat.matrices import _matrix_from_payload, _spell_distinct

from ._oracles import (
    canonical_json_slow,
    complex_payload_slow,
    listed,
    load_matrix_csv_slow,
    matrix_from_payload_slow,
    matrix_payload_slow,
)
from .test_spectral import path3_decomposition

B4 = b4()


class TestMatrixCsv:
    def test_round_trip_real(self, tmp_path):
        m = ScalarMatrix([[1.5, -2.0], [0.0, 1e-9]])
        path = tmp_path / "m.csv"
        save_matrix_csv(m, path)
        assert load_matrix_csv(path, MAT_R.domain) == m

    def test_round_trip_complex(self, tmp_path):
        path = tmp_path / "m.csv"
        for entries, text in [
            ([[1 + 2j, -1j], [0, 3]], "1+2j,-0-1j\n0j,3+0j\n"),
            ([[complex(-0.0, 0.0), complex(0.0, -0.0)],
              [complex(-0.0, -0.0), complex(1e16, -1e-5)]],
             "-0+0j,-0j\n-0-0j,1e+16-1e-05j\n"),
        ]:
            m = ScalarMatrix(entries, MAT_C.domain)
            save_matrix_csv(m, path)
            assert path.read_text() == text
            again = load_matrix_csv(path, MAT_C.domain)
            assert again.values.tobytes() == m.values.tobytes()

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_matrix_csv(path, MAT_R.domain)

    def test_bad_entry_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,zap\n")
        with pytest.raises(ParseError, match="zap"):
            load_matrix_csv(path, MAT_R.domain)

    @pytest.mark.parametrize("entry", ["1++2j", "1+-2j", "(1+-2j)"])
    def test_complex_text_numpy_alone_would_read_is_rejected(self, tmp_path,
                                                             entry):
        path = tmp_path / "m.csv"
        path.write_text(f"1,{entry}\n")
        with pytest.raises(ParseError) as err:
            load_matrix_csv(path, MAT_C.domain)
        assert str(err.value) == f"bad complex entry {entry!r}"

    @pytest.mark.parametrize("cat, text", [
        (MAT_R, "# a comment\n\n 1.5, -2e-3\r\n-0,7\n"),
        (MAT_NN, "0.25,1\n  # indented comment\n2,0\n"),
        (MAT_C, "(1+2j),-0.5-0.0j\n0.0+1.0j,3\n"),
    ])
    def test_plain_text_is_read_without_the_entry_loop(self, tmp_path, cat, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        want = load_matrix_csv_slow(path, cat.domain)
        with mock.patch("specat.formats._parse_rows", side_effect=AssertionError):
            got = load_matrix_csv(path, cat.domain)
        assert got.values.tobytes() == want.values.tobytes()

    def test_a_domain_equal_to_complex_reads_its_own_output(self, tmp_path):
        cat = MatrixCategory(ScalarDomain("complex", np.complex128))
        assert cat.domain == MAT_C.domain and cat.domain is not MAT_C.domain
        m = ScalarMatrix([[1 + 2j, complex(0.0, -0.5)]], cat.domain)
        payload = cat.arrow_to_payload(m)
        assert payload == [["(1+2j)", "-0.5j"]]
        assert cat.arrow_from_payload(payload, 2, 1) == m
        assert cat.arrow_from_payload([["1+2j", "j"]], 2, 1).values.tolist() \
            == [[1 + 2j, 1j]]
        path = tmp_path / "m.csv"
        path.write_text("1+2j,1+J\n")  # numpy refuses J: the entry loop reads it
        assert load_matrix_csv(path, cat.domain).values.tolist() == [[1 + 2j, 1 + 1j]]


# load_matrix_csv against the entry-by-entry loader it must reproduce

_CSV_SPELLINGS = st.sampled_from([
    "1_0", "j", "+j", "(j)", "1+j", "1+2J", "1+2j", "(1+2j)", "-0", "-0.0",
    "0", "-0j", "-0-0j", "0.0+0.0j", "1++2j", "1+-2j", "1-+2j", "1e400",
    "-1e400", "1e-320", "nan", "-nan", "inf", "-inf", "infj", "1+nanj", "",
    " ", "\xa01", "1\xa0", " 2 ", "\t3", "1 2", "#", "1#2", "0x10", "1e",
    "--1", "1+2i", "\u0661\u0662", "\uff11", "1.5e+3", "+.5", "5.",
])
_CSV_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.builds(complex, st.floats(), st.floats()).map(lambda v: str(v)),
    st.builds(lambda re, im: f"{re!r}{im:+}j", st.floats(allow_nan=False),
              st.floats(allow_nan=False)),
    st.integers(-10**20, 10**20).map(str))
_CSV_TOKENS = st.one_of(
    _CSV_SPELLINGS, _CSV_NUMBERS, _CSV_NUMBERS,
    _CSV_NUMBERS.map(lambda t: t + "#x"),
    # numpy reads both signs, complex() neither
    st.builds(lambda re, im: f"{re!r}+{im:+}j", st.floats(allow_nan=False),
              st.floats(allow_nan=False)))
_CSV_BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\u2028",
                               "\x1c", "\x85"])
_CSV_NOISE = st.sampled_from(["", "   ", "# comment, 1++2j", "  #x", "\t"])


@st.composite
def _csv_texts(draw):
    """CSV text with rows of drawn tokens, mostly rectangular, with comment
    and blank lines, mixed line breaks and now and then a trailing comma."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(_CSV_NOISE))
            continue
        cols = width + (draw(st.integers(-1, 1)) if draw(st.integers(0, 7)) == 0
                        else 0)
        line = ",".join(draw(_CSV_TOKENS) for _ in range(max(cols, 1)))
        if draw(st.integers(0, 9)) == 0:
            line += ","
        lines.append(line)
    text = ""
    for line in lines:
        text += line + draw(_CSV_BREAKS)
    return text


def _csv_outcome(path, domain, load):
    try:
        values = load(path, domain).values
    except Exception as exc:  # the exception must match as well
        return type(exc), str(exc)
    return values.dtype, values.shape, values.tobytes()


class TestMatrixCsvOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([MAT_R, MAT_C, MAT_NN]), _csv_texts())
    def test_matches_the_entry_loop(self, tmp_path_factory, cat, text):
        """Same values to the bit, or the same exception and message, on
        the bulk path and with numpy made to refuse every input."""
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_text(text, newline="")
        want = _csv_outcome(path, cat.domain, load_matrix_csv_slow)
        assert _csv_outcome(path, cat.domain, load_matrix_csv) == want
        with mock.patch("numpy.loadtxt", side_effect=ValueError("refused")):
            assert _csv_outcome(path, cat.domain, load_matrix_csv) == want


_SPELL_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e16, -1e16, 1e-5, 3.0, -7.0, 1.0, 0.5, math.nan,
                     math.inf, -math.inf]),
    st.floats())


@st.composite
def _spell_grids(draw, dtype):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    pool = draw(st.lists(st.builds(complex, _SPELL_PARTS, _SPELL_PARTS),
                         min_size=1, max_size=5))
    cells = [draw(st.sampled_from(pool)) for _ in range(rows * cols)]
    if dtype is np.float64:
        cells = [v.real for v in cells]
    return np.array(cells, dtype=dtype).reshape(rows, cols)


class TestSpellDistinct:
    @settings(max_examples=300, deadline=None)
    @given(_spell_grids(np.complex128))
    def test_complex_entries_read_as_str(self, values):
        assert _spell_distinct(values, str) == complex_payload_slow(values)

    @settings(max_examples=200, deadline=None)
    @given(_spell_grids(np.float64))
    def test_real_entries_read_as_repr(self, values):
        assert _spell_distinct(values, repr) == \
            [[repr(v) for v in row] for row in values.tolist()]

    def test_zero_signs_stay_apart(self):
        values = np.array([[complex(-0.0, 0.0), 0j, complex(0.0, -0.0),
                            complex(-0.0, -0.0)]])
        assert _spell_distinct(values, str) == [["(-0+0j)", "0j", "-0j",
                                                 "(-0-0j)"]]

    @pytest.mark.parametrize("cat", [MAT_R, MAT_NN, MAT_C])
    def test_payloads_spell_zeros_without_a_sign(self, cat):
        # BLAS kernels differ in the sign they give an exact zero, so a
        # report spells every zero as +0; other values are left alone
        parts = [-0.0, 0.0, -1.5, 2.0, 5e-324, -5e-324]
        if cat.domain.nonnegative:
            parts = [v for v in parts if math.copysign(1.0, v) > 0 or v == 0]
        if cat.domain.is_complex:
            values = [[complex(re, im) for im in parts] for re in parts]
            want = [[str(complex(re + 0.0, im + 0.0)) for im in parts]
                    for re in parts]
        else:
            values = [parts]
            want = [[repr(v + 0.0) for v in parts]]
        f = ScalarMatrix(values, cat.domain)
        spell = (lambda v: v) if cat.domain.is_complex else repr
        for entries in (cat.arrow_to_payload(f), cat.describe_arrow(f)["entries"]):
            assert [[spell(v) for v in row] for row in listed(entries)] == want
        assert "-0" not in canonical_json(cat.arrow_to_payload(f))
        assert math.copysign(1.0, f.values.real[0, 0]) == -1.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 4), st.integers(0, 4))
    def test_complex_arrows_are_described_entry_by_entry(self, seed, src, tgt):
        f = MAT_C.default_sampler().random_arrow(random.Random(seed), src, tgt)
        assert MAT_C.arrow_to_payload(f) == complex_payload_slow(f.values)
        assert MAT_C.describe_arrow(f)["entries"] == complex_payload_slow(f.values)


class TestLattice:
    def test_builtin_selectors(self):
        assert resolve_lattice("builtin:b4") == B4
        assert resolve_lattice("b4") == B4
        assert resolve_lattice("bool") == bool_algebra()
        assert resolve_lattice("chain:4") == chain(4)

    def test_unknown_builtin(self):
        with pytest.raises(ParseError):
            resolve_lattice("builtin:pentagon")

    def test_largest_input_chain_still_resolves(self):
        assert len(resolve_lattice("chain:512").elements) == 512
        with pytest.raises(ParseError, match="has 513 elements; at most 512"):
            resolve_lattice("chain:513")

    def test_dict_round_trip(self):
        rebuilt = lattice_from_dict(B4.to_dict())
        assert rebuilt == B4

    def test_file_round_trip(self, tmp_path, fixtures):
        loaded = resolve_lattice(str(fixtures / "lattices" / "b4.json"))
        assert loaded == B4


class TestRelationJson:
    def test_round_trip(self, tmp_path):
        rel = LRelation.from_labels(B4, ("a1", "a2"), ("b1",), [["a", "1"]])
        path = tmp_path / "r.json"
        save_relation_json(rel, path)
        assert load_relation_json(path, B4) == rel

    def test_tuple_labels_round_trip(self):
        cat = RelationCategory(B4)
        witness = cat.canonical_biproduct(("x",), ("y",))
        payload = relation_to_dict(witness.pi1)
        assert relation_from_dict(payload, B4) == witness.pi1

    def test_unknown_element_rejected(self):
        with pytest.raises(ParseError, match="unknown lattice element"):
            relation_from_dict(
                {"source": ["x"], "target": ["y"], "values": [["c"]]}, B4)

    def test_bad_grid_shape_rejected(self):
        with pytest.raises(ParseError, match="rows"):
            relation_from_dict(
                {"source": ["x"], "target": ["y", "z"], "values": [["a"]]}, B4)


class TestDecompositionJson:
    def test_relation_round_trip(self, tmp_path):
        cat = RelationCategory(B4)
        dec = path3_decomposition()
        path = tmp_path / "dec.json"
        save_decomposition_json(dec, cat, path)
        loaded = load_decomposition_json(path, cat)
        assert loaded.carrier == dec.carrier
        for got, want in zip(loaded.blocks, dec.blocks):
            assert got.space == want.space
            assert got.project == want.project
            assert got.inject == want.inject
            assert got.local == want.local

    def test_matrix_round_trip(self, tmp_path, fixtures):
        dec = load_decomposition_json(fixtures / "decomps" / "line3_dec.json",
                                      MAT_R)
        payload = decomposition_to_dict(dec, MAT_R)
        again = decomposition_from_dict(payload, MAT_R)
        assert again.blocks[1].inject.values.tolist() == [[0.0], [-1.0], [1.0]]

    def test_malformed_block_rejected(self):
        with pytest.raises(ParseError, match="block 1"):
            decomposition_from_dict(
                {"carrier": 2, "blocks": [{"space": 1}]}, MAT_R)

    @staticmethod
    def _one_block(local):
        return {"carrier": 1, "blocks": [
            {"space": 1, "project": [[1]], "inject": [[1.0]], "local": local}]}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(-2**80, 2**80),
        st.sampled_from([2**1024 - 2**971, -2**63 - 1, 10**308]),
        st.floats(), st.sampled_from([-0.0, 0.0])), min_size=1, max_size=4))
    def test_numbers_match_their_text_parse(self, row):
        payload = [row, row[::-1]]
        for cat in (MAT_R, MAT_C):
            got = _matrix_from_payload(payload, cat.domain)
            want = matrix_from_payload_slow(payload, cat is MAT_C)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True)
            number = ~np.isnan(want.real)
            assert (np.signbit(got.real) == np.signbit(want.real))[number].all()

    @pytest.mark.parametrize("cat", [MAT_R, MAT_C])
    @pytest.mark.parametrize("entry", [True, False, None, [1.0]])
    def test_non_numbers_rejected(self, cat, entry):
        with pytest.raises(ParseError, match="bad (real|complex) entry"):
            decomposition_from_dict(self._one_block([[entry]]), cat)

    @pytest.mark.parametrize("cat", [MAT_R, MAT_C])
    @pytest.mark.parametrize("entry", [10**400, -(2**1024), 10**5000],
                             ids=["1e400", "-2^1024", "1e5000"])
    def test_int_beyond_float_range_rejected(self, cat, entry):
        with pytest.raises(ParseError, match="out of range"):
            decomposition_from_dict(self._one_block([[entry]]), cat)

    def test_number_strings_still_parsed(self):
        dec = decomposition_from_dict(self._one_block([[" 2.5 "]]), MAT_R)
        assert dec.blocks[0].local.values.tolist() == [[2.5]]
        dec = decomposition_from_dict(self._one_block([["(1+2j)"]]), MAT_C)
        assert dec.blocks[0].local.values.tolist() == [[1 + 2j]]


INSTANCES = (MAT_R, MAT_C, MAT_NN, REL, RelationCategory(B4))


class TestPayloadCodecs:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(INSTANCES), st.integers(0, 2**32), st.booleans())
    def test_arrow_round_trip(self, cat, seed, witness):
        """Entries and objects come back from their JSON text, including
        empty objects and the tagged labels of biproduct carriers."""
        rng = random.Random(seed)
        sampler = cat.default_sampler(3)
        src, tgt = sampler.random_object(rng), sampler.random_object(rng)
        if witness:
            src = cat.canonical_biproduct(src, tgt).carrier
        f = sampler.random_arrow(rng, src, tgt)
        text = canonical_json({"entries": cat.arrow_to_payload(f),
                               "source": cat.describe_object(f.source),
                               "target": cat.describe_object(f.target)})
        payload = json.loads(text)
        source = cat.object_from_payload(payload["source"])
        target = cat.object_from_payload(payload["target"])
        assert (source, target) == (f.source, f.target)
        again = cat.arrow_from_payload(payload["entries"], source, target)
        assert again == f
        assert again.values.dtype == f.values.dtype
        key = "entries" if isinstance(cat, MatrixCategory) else "values"
        assert (listed(cat.describe_arrow(f)[key])
                == listed(cat.arrow_to_payload(f)))

    @pytest.mark.parametrize("cat, payload, src, tgt, outcome", [
        (MAT_R, [[1.0, 2.0]], 1, 2, "matrix block must be 2x1, got (1, 2)"),
        (MAT_R, [], 3, 2, "matrix block must be 2x3, got (0,)"),
        (MAT_R, [[]], 0, 0, "matrix block must be 0x0, got (1, 0)"),
        (MAT_R, [[True]], 1, 1, "bad real entry 'True'"),
        (MAT_C, [[None]], 1, 1, "bad complex entry 'None'"),
        (MAT_R, [[10**400]], 1, 1,
         "real entry out of range: int too large to convert to float"),
        (MAT_C, [[-(2**1024)]], 1, 1,
         "complex entry out of range: int too large to convert to float"),
        (RelationCategory(B4), [["a"]], ("x",), ("y", "z"),
         "relation grid has 1 rows, expected 2"),
        (RelationCategory(B4), [["c"]], ("x",), ("y",),
         "unknown lattice element 'c'"),
        (RelationCategory(B4), [["a", "b"]], ("x",), ("y",),
         "relation grid row 0 has 2 entries, expected 1"),
        (REL, [[True]], ("x",), ("y",), "unknown lattice element 'True'"),
        pytest.param(RelationCategory(B4), [["c", "a"], ["a"]], ("x", "w"),
                     ("y", "z"), "unknown lattice element 'c'",
                     id="labels-before-row-lengths"),
        pytest.param(REL, [[1]], ("x",), ("y",), [["1"]], id="number-as-label"),
        pytest.param(RelationCategory(B4), [[["a"]]], ("x",), ("y",),
                     ParseError("unknown lattice element \"['a']\""),
                     id="list-as-label"),
        pytest.param(RelationCategory(B4), [["a", "b"]], ("x", "x"), ("y",),
                     ArrowTypeError("carrier labels must be pairwise distinct: "
                                    "('x', 'x')"),
                     id="duplicate-carrier-label"),
        pytest.param(RelationCategory(B4), [], ("x",), (), [], id="no-targets"),
        pytest.param(RelationCategory(B4), [[], []], (), ("y", "z"), [[], []],
                     id="no-sources"),
    ])
    def test_malformed_payload_messages(self, cat, payload, src, tgt, outcome):
        """A string is the message of the ParseError raised, an exception the
        one raised, and a list the labels the grid reads as."""
        if isinstance(outcome, list):
            got = cat.arrow_from_payload(payload, src, tgt)
            assert got.values.shape == (len(tgt), len(src))
            assert cat.arrow_to_payload(got) == outcome
            return
        if isinstance(outcome, str):
            outcome = ParseError(outcome)
        with pytest.raises(type(outcome)) as err:
            cat.arrow_from_payload(payload, src, tgt)
        assert type(err.value) is type(outcome)
        assert str(err.value) == str(outcome)

    def test_matrix_without_rows_reads_from_empty_list(self):
        assert MAT_R.arrow_from_payload([], 3, 0) == MAT_R.zero(3, 0)


# matrix payloads as arrays, against the lists they replaced

MATRIX_INSTANCES = (MAT_R, MAT_NN, MAT_C)
_PAYLOAD_PARTS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0,
                     0.5, 2.0**53]),
    st.integers(-2**53, 2**53).map(float),
    st.floats(allow_nan=False, allow_infinity=False))
# 0xk and kx0 grids among the rest
_PAYLOAD_SHAPES = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.sampled_from([(0, 3), (3, 0), (0, 0), (1, 9), (9, 1)]))


@st.composite
def _payload_grid(draw, cat, shape):
    """A grid ``cat`` accepts, of few distinct values: -0.0 stays -0.0 in
    the non-negative domain, every other value is made non-negative."""
    pool = draw(st.lists(_PAYLOAD_PARTS, min_size=1, max_size=5))
    if cat.domain.nonnegative:
        pool = [v if v == 0 else abs(v) for v in pool]
    if cat.domain.is_complex:
        pool = [complex(v, draw(st.sampled_from(pool))) for v in pool]
    cells = [draw(st.sampled_from(pool)) for _ in range(math.prod(shape))]
    return np.array(cells, dtype=cat.domain.dtype).reshape(shape)


@st.composite
def _matrix_arrows(draw, cat=None, shape=None):
    """An arrow of a matrix instance whose grid is C- or F-ordered."""
    cat = cat or draw(st.sampled_from(MATRIX_INSTANCES))
    values = draw(_payload_grid(cat, shape or draw(_PAYLOAD_SHAPES)))
    if draw(st.booleans()):
        values = np.asfortranarray(values)
    return cat, ScalarMatrix(values, cat.domain)


@st.composite
def _matrix_decompositions(draw):
    """A one- or two-block decomposition of grids drawn as above."""
    cat = draw(st.sampled_from(MATRIX_INSTANCES))
    carrier = draw(st.integers(0, 4))
    blocks = []
    for space in draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)):
        arrows = [draw(_matrix_arrows(cat, shape))[1] for shape in
                  ((space, carrier), (carrier, space), (space, space))]
        blocks.append(Block(space, *arrows))
    return cat, SpectralDecomposition(carrier, tuple(blocks))


def _bits(grid, signed=True):
    """The bits, dtype and shape of an array or of an arrow's grid; unless
    ``signed``, with each -0.0 read as 0.0."""
    values = getattr(grid, "values", grid)
    if not signed:
        values = values + 0
    return values.tobytes(), values.dtype, values.shape


def _read_outcome(read, *args, signed=True):
    """The bits, dtype and shape read, or the type and text of the error."""
    try:
        return _bits(read(*args), signed)
    except Exception as exc:  # the exception must match as well
        return type(exc), str(exc)


def _decomposition_outcome(payload, cat, signed=True):
    try:
        dec = decomposition_from_dict(payload, cat)
    except Exception as exc:  # the exception must match as well
        return type(exc), str(exc)
    return dec.carrier, [(b.space, _bits(b.project, signed), _bits(b.inject, signed),
                          _bits(b.local, signed)) for b in dec.blocks]


class TestMatrixPayloadArrays:
    @settings(max_examples=300, deadline=None)
    @given(_matrix_arrows())
    def test_payloads_encode_as_the_lists_they_replace(self, case):
        cat, f = case
        slow = matrix_payload_slow(cat, f)
        assert canonical_json(cat.arrow_to_payload(f)) == canonical_json_slow(slow)
        assert canonical_json(cat.describe_arrow(f)) == canonical_json_slow(
            {"rows": f.rows, "cols": f.cols, "entries": slow})

    @settings(max_examples=150, deadline=None)
    @given(_matrix_decompositions())
    def test_decompositions_encode_as_the_lists_they_replace(self, case):
        cat, dec = case
        slow = {"carrier": dec.carrier, "blocks": [
            {"space": b.space, "project": matrix_payload_slow(cat, b.project),
             "inject": matrix_payload_slow(cat, b.inject),
             "local": matrix_payload_slow(cat, b.local)} for b in dec.blocks]}
        assert (canonical_json(decomposition_to_dict(dec, cat))
                == canonical_json_slow(slow))

    @settings(max_examples=150, deadline=None)
    @given(_matrix_arrows())
    def test_real_payloads_are_fresh_arrays_and_complex_ones_text(self, case):
        cat, f = case
        for payload in (cat.arrow_to_payload(f), cat.describe_arrow(f)["entries"]):
            if cat.domain.is_complex:
                assert type(payload) is list
                assert all(type(row) is list for row in payload)
                assert all(type(v) is str for row in payload for v in row)
                continue
            assert type(payload) is np.ndarray
            assert payload.dtype == np.float64 and payload.shape == f.values.shape
            assert not np.shares_memory(payload, f.values)
            assert not np.signbit(payload[payload == 0]).any()
            assert np.array_equal(payload, f.values)

    @settings(max_examples=150, deadline=None)
    @given(_matrix_decompositions())
    def test_decompositions_round_trip_in_both_forms(self, case):
        cat, dec = case
        payload = decomposition_to_dict(dec, cat)
        got = _decomposition_outcome(payload, cat)
        assert got == _decomposition_outcome(listed(payload), cat)
        want = [(b.space, _bits(b.project.values + 0), _bits(b.inject.values + 0),
                 _bits(b.local.values + 0)) for b in dec.blocks]
        assert got == (dec.carrier, want)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(MATRIX_INSTANCES), _PAYLOAD_SHAPES,
           st.sampled_from([np.float64, np.int64, np.uint64]), st.data())
    def test_array_payloads_read_as_their_lists(self, cat, shape, dtype, data):
        if dtype is np.float64:
            grid = data.draw(_payload_grid(MAT_NN if cat.domain.nonnegative
                                           else MAT_R, shape))
        else:
            info = np.iinfo(dtype)
            cells = data.draw(st.lists(
                st.one_of(st.sampled_from([info.min, info.max, 0, 1]),
                          st.integers(info.min, info.max)),
                min_size=math.prod(shape), max_size=math.prod(shape)))
            grid = np.array(cells, dtype=dtype).reshape(shape)
        if data.draw(st.booleans()):
            grid = np.asfortranarray(grid)
        rows, cols = shape
        # a 0/1 list may read as a selection, whose grid is built from its
        # positions with unsigned zeros: such grids compare sign-blind
        signed = not np.isin(grid, (0, 1)).all()
        assert (_read_outcome(cat.arrow_from_payload, grid, cols, rows, signed=signed)
                == _read_outcome(cat.arrow_from_payload, listed(grid), cols, rows,
                                 signed=signed))
        got = _matrix_from_payload(grid, cat.domain)
        want = matrix_from_payload_slow(grid, cat.domain.is_complex)
        assert got.dtype == want.dtype and got.shape == grid.shape
        assert got.tobytes() == want.reshape(grid.shape).tobytes()
        assert not np.shares_memory(got, grid)
        blocks = {"carrier": cols, "blocks": [
            {"space": rows, "project": grid, "inject": grid.T,
             "local": np.zeros((rows, rows), dtype)}]}
        assert (_decomposition_outcome(blocks, cat, signed)
                == _decomposition_outcome(listed(blocks), cat, signed))

    @pytest.mark.parametrize("cat", MATRIX_INSTANCES)
    @pytest.mark.parametrize("grid, message", [
        (np.array([[True, False]]), "bad {} entry 'True'"),
        (np.array([[False]]), "bad {} entry 'False'"),
        (np.array([["1.5", "x"]]), "bad {} entry 'x'"),
        (np.array([[1.0, None]], dtype=object), "bad {} entry 'None'"),
        (np.array([[10**400]], dtype=object),
         "{} entry out of range: int too large to convert to float"),
        (np.array([["2.5", "-0"]]), None),
        (np.array([[0.5, 2]], dtype=object), None),
    ], ids=["bool", "false", "str", "object-none", "object-huge", "str-numbers",
            "object-numbers"])
    def test_other_arrays_read_as_text_like_their_lists(self, cat, grid, message):
        """Bool, string and object arrays keep the text path: they read as
        their lists read, and bools stay rejected."""
        rows, cols = grid.shape
        got = _read_outcome(cat.arrow_from_payload, grid, cols, rows)
        assert got == _read_outcome(cat.arrow_from_payload, grid.tolist(), cols,
                                    rows)
        if message is not None:
            assert got == (ParseError, message.format(cat.domain.name))


class TestGraphAndPartition:
    def test_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a triangle\n0 1\n1 2\n2 0\n")
        graph = load_graph_edges(path)
        assert graph.dense().tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(ParseError, match="line 1"):
            load_graph_edges(path)

    def test_partition_payload(self):
        partition = partition_from_dict({"cells": [[1, 2], [0]]}, (0, 1, 2))
        assert partition.cells == ((0,), (1, 2))


class TestHomJson:
    def test_builtin_endpoints(self, fixtures):
        hom = hom_from_dict({
            "source": "builtin:b4", "target": "builtin:bool",
            "map": {"0": "0", "a": "1", "b": "0", "1": "1"}})
        assert hom.source == B4

    def test_inline_lattice_endpoints(self):
        payload = {"source": B4.to_dict(), "target": bool_algebra().to_dict(),
                   "map": {"0": "0", "a": "1", "b": "0", "1": "1"}}
        hom = hom_from_dict(payload)
        assert [hom.target.label(v) for v in hom.mapping] == ["0", "1", "0", "1"]


class TestDot:
    def test_relation_clusters_and_edges(self):
        rel = LRelation.from_labels(B4, ("u", "v"), ("u", "v"),
                                    [["0", "a"], ["0", "0"]])
        partition = Partition(("u", "v"), (("u",), ("v",)))
        dot = partitioned_dot(partition, rel)
        assert "subgraph cluster_0" in dot
        assert '"v" -> "u" [label="a"];' in dot

    def test_matrix_edges_skip_zeros(self):
        dot = partitioned_dot(Partition((0, 1), ((0,), (1,))),
                              np.array([[0.0, 2.5], [0.0, 0.0]]))
        assert '"1" -> "0" [label="2.5"];' in dot
        assert '"0" -> "0"' not in dot


def dot_by_full_scan(partition, arrow) -> str:
    """The DOT export as it once was: a scan of every cell of the grid."""
    lines = ["digraph decomposition {"]
    for i, cell in enumerate(partition.cells):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="cell {i}";')
        for label in cell:
            lines.append(f"    {_dot_name(label)};")
        lines.append("  }")
    if isinstance(arrow, LRelation):
        bottom = arrow.algebra.bottom
        for t in range(len(arrow.target)):
            for s in range(len(arrow.source)):
                v = int(arrow.values[t, s])
                if v != bottom:
                    lines.append(
                        f"  {_dot_name(arrow.source[s])} -> "
                        f"{_dot_name(arrow.target[t])} "
                        f'[label="{arrow.algebra.label(v)}"];')
    else:
        values = arrow.values if isinstance(arrow, ScalarMatrix) else np.asarray(arrow)
        for t in range(values.shape[0]):
            for s in range(values.shape[1]):
                v = values[t, s]
                if v != 0:
                    lines.append(
                        f"  {_dot_name(s)} -> {_dot_name(t)} [label=\"{v:g}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


class TestDotMatchesFullScan:
    def test_relation(self):
        rng = np.random.default_rng(3)
        carrier = ("u", ("v", 1), 'w"', 4)
        grid = [[B4.label(int(x)) for x in row]
                for row in rng.integers(0, 4, size=(4, 4))]
        rel = LRelation.from_labels(B4, carrier, carrier, grid)
        partition = Partition(carrier, (("u", 4), (("v", 1),), ('w"',)))
        assert partitioned_dot(partition, rel) == dot_by_full_scan(partition, rel)

    def test_matrix(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(5, 5)) * (rng.random((5, 5)) < 0.5)
        values[0, 0] = -0.0
        raw = values.copy()
        raw[1, 2] = np.nan
        partition = Partition(tuple(range(5)), ((0, 3), (1, 2, 4)))
        for arrow in (ScalarMatrix(values), raw,
                      ScalarMatrix(values + 1j * values.T, MAT_C.domain)):
            assert partitioned_dot(partition, arrow) == \
                dot_by_full_scan(partition, arrow)

    def test_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 0\n0 1\n2 2\n1 2\n0 3\n1 4\n")
        graph = load_graph_edges(path)
        partition = Partition(tuple(range(5)), ((0, 2), (1, 3, 4)))
        assert partitioned_dot(partition, graph) == \
            dot_by_full_scan(partition, graph.dense())


def test_canonical_json_is_stable():
    payload = {"b": 1, "a": [1.5, None, {"z": True, "y": "s"}]}
    assert canonical_json(payload) == canonical_json(dict(reversed(payload.items())))


# canonical_json against the stdlib encoder it must reproduce

_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0]),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                     -5e-324, 1e308, -1e308, 0.1, 1.0, 1e16]),
    st.floats())
_INTS = st.one_of(st.sampled_from([2**63, -2**63 - 1, 2**64, -10**40]),
                  st.integers())
_TEXT = st.one_of(
    st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u20ac\U0001f600", "\ud800",
                     '"\\/', "\n\t"]),
    st.text(max_size=6))
_SCALARS = st.one_of(_FLOATS, _INTS, st.booleans(), st.none(), _TEXT)


@st.composite
def _grids(draw):
    """Rectangular lists of lists of one leaf strategy, 0x0 up to 4x4."""
    leaf = draw(st.sampled_from([_FLOATS, _INTS, _TEXT, _SCALARS,
                                 st.sampled_from([True, 1, 1.0, False, 0])]))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return [[draw(leaf) for _ in range(cols)] for _ in range(rows)]


_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, _grids(), st.lists(st.lists(_SCALARS, max_size=3),
                                           max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(st.one_of(_INTS, _FLOATS, st.booleans(), st.none(),
                                  _TEXT), inner, max_size=3)),
    max_leaves=30)


def _outcome(encode, payload):
    try:
        return encode(payload)
    except Exception as exc:  # the exception must match as well
        return type(exc), str(exc)


class TestCanonicalJson:
    @settings(max_examples=400, deadline=None)
    @given(_PAYLOADS)
    def test_matches_stdlib_encoder(self, payload):
        assert _outcome(canonical_json, payload) == \
            _outcome(canonical_json_slow, payload)

    @settings(max_examples=300, deadline=None)
    @given(_grids())
    def test_grids_match_stdlib_encoder(self, grid):
        assert canonical_json(grid) == canonical_json_slow(grid)
        assert canonical_json({"g": [grid]}) == canonical_json_slow({"g": [grid]})

    @pytest.mark.parametrize("payload", [
        [[-0.0, 0.0], [math.nan, math.inf], [-math.inf, 5e-324],
         [1e308, -1e308]],
        [[2**64, -2**63 - 1], [1, 0]],
        [[True, 1], [1.0, 0]],
        [[1.5]], [[], []], [], {}, [[1], [2, 3]],
        {"a": [[np.float64(0.5)]], "b": (1, 2), "c": {3: "x", 1.5: None}},
        {"x": [["\u00e9", "\x00"], ["\ud800", '"']]},
        {"nested": {"grid": [[0.25] * 3] * 2, "cells": [[0, 1], [2]]}},
    ])
    def test_edge_payloads(self, payload):
        assert canonical_json(payload) == canonical_json_slow(payload)

    @pytest.mark.parametrize("payload", [
        {"a": 1, 2: "b"},
        [object()],
        {"grid": [[1.0, np.int64(2)]]},
        [[10 ** 5000]],
    ])
    def test_same_exceptions(self, payload):
        assert isinstance(_outcome(canonical_json_slow, payload), tuple)
        assert _outcome(canonical_json, payload) == \
            _outcome(canonical_json_slow, payload)

    def test_circular_references(self):
        loop: list = []
        loop.append(loop)
        via_dict: dict = {}
        via_dict["x"] = [via_dict]
        via_tuple: list = [1]
        via_tuple.append((via_tuple,))
        for payload in (loop, via_dict, via_tuple):
            assert _outcome(canonical_json, payload) == \
                (ValueError, "Circular reference detected")

    def test_shared_rows_are_not_circular(self):
        row = [0.5, 1.0]
        payload = {"grid": [row, row], "again": [[row], [row]]}
        assert canonical_json(payload) == canonical_json_slow(payload)

    def test_nesting_depth_as_stdlib(self):
        for depth in (50, 900, 5000):
            payload: list = [1.0]
            for _ in range(depth):
                payload = [payload]
            assert _outcome(canonical_json, payload) == \
                _outcome(canonical_json_slow, payload)


# numpy arrays in a payload, against the stdlib encoder on their tolist()

_INT64 = np.iinfo(np.int64)
_ARRAY_VALUES = {
    np.float64: _FLOATS,
    np.float32: st.floats(width=32),
    np.float16: st.floats(width=16),
    np.int64: st.one_of(st.sampled_from([_INT64.min, _INT64.max, 0, -1]),
                        st.integers(_INT64.min, _INT64.max)),
    np.uint8: st.integers(0, 255),
    np.uint64: st.integers(0, 2**64 - 1),
    np.bool_: st.booleans(),
    np.complex128: st.complex_numbers(),
    object: _SCALARS,
}
# 0xk, kx0, 0-d, 1-d and 3-d arrays go through tolist(); the last three are
# grids of more than one band
_SHAPES = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.sampled_from([(1, 1), (1, 9), (9, 1), (0, 3), (3, 0), (), (0,), (5,),
                     (2, 3, 2), (0, 2, 2), (3, 20000), (200, 200), (16385, 1)]))


class _Sub(np.ndarray):
    pass


_LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "reversed": lambda a: a[::-1] if a.ndim else a,
    "big-endian": lambda a: a.astype(a.dtype.newbyteorder(">")),
    "subclass": lambda a: a.view(_Sub),
}


@st.composite
def _arrays(draw):
    """An array of one dtype, its cells drawn from a few values."""
    dtype = draw(st.sampled_from(list(_ARRAY_VALUES)))
    pool = draw(st.lists(_ARRAY_VALUES[dtype], min_size=1, max_size=5))
    values = np.empty(len(pool), dtype=dtype)
    values[:] = pool
    shape = draw(_SHAPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    picks = rng.integers(len(pool), size=math.prod(shape))
    return _LAYOUTS[draw(st.sampled_from(list(_LAYOUTS)))](
        values[picks].reshape(shape))


_ARRAY_PAYLOADS = st.recursive(
    st.one_of(_arrays(), _SCALARS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=3),
        st.dictionaries(st.integers(), inner, max_size=2)),
    max_leaves=6)


class TestCanonicalJsonArrays:
    @settings(max_examples=250, deadline=None)
    @given(_ARRAY_PAYLOADS)
    def test_matches_stdlib_encoder_on_tolist(self, payload):
        assert _outcome(canonical_json, payload) == \
            _outcome(canonical_json_slow, listed(payload))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 20000), (200, 200),
                                       (16384, 1), (16385, 1), (1, 16385)])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8, np.bool_])
    def test_grids_of_many_bands(self, shape, dtype):
        specials = {np.float64: [-0.0, 0.0, math.nan, math.inf, -math.inf,
                                 5e-324, 0.1],
                    np.int64: [_INT64.min, _INT64.max, 0, 7],
                    np.uint8: [0, 1, 255], np.bool_: [False, True]}[dtype]
        rng = np.random.default_rng(math.prod(shape))
        grid = np.array(specials, dtype=dtype)[
            rng.integers(len(specials), size=shape)]
        payload = {"deep": [{"grid": grid}, [grid[:1]]], "grid": grid}
        assert canonical_json(payload) == canonical_json_slow(listed(payload))

    @pytest.mark.parametrize("grid", [
        np.array([[1 + 2j, 0j]]),
        np.array([[object(), 1.0]], dtype=object),
        np.array([[np.float64(1.0), np.int64(2)]], dtype=object),
        np.ones((2, 2), dtype=np.longdouble),
    ], ids=["complex", "object", "numpy-scalars", "longdouble"])
    def test_same_exceptions(self, grid):
        for payload in (grid, {"a": [grid]}, (grid,), {1: grid}):
            assert isinstance(_outcome(canonical_json_slow, listed(payload)),
                              tuple)
            assert _outcome(canonical_json, payload) == \
                _outcome(canonical_json_slow, listed(payload))
