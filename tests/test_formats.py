import numpy as np
import pytest

from specat import (
    MAT_C,
    MAT_R,
    LRelation,
    ParseError,
    Partition,
    RelationCategory,
    ScalarMatrix,
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

from .test_spectral import path3_decomposition

B4 = b4()


class TestMatrixCsv:
    def test_round_trip_real(self, tmp_path):
        m = ScalarMatrix([[1.5, -2.0], [0.0, 1e-9]])
        path = tmp_path / "m.csv"
        save_matrix_csv(m, path)
        assert load_matrix_csv(path, MAT_R.domain) == m

    def test_round_trip_complex(self, tmp_path):
        m = ScalarMatrix([[1 + 2j, -1j], [0, 3]], MAT_C.domain)
        path = tmp_path / "m.csv"
        save_matrix_csv(m, path)
        assert load_matrix_csv(path, MAT_C.domain) == m

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


class TestLattice:
    def test_builtin_selectors(self):
        assert resolve_lattice("builtin:b4") == B4
        assert resolve_lattice("b4") == B4
        assert resolve_lattice("bool") == bool_algebra()
        assert resolve_lattice("chain:4") == chain(4)

    def test_unknown_builtin(self):
        with pytest.raises(ParseError):
            resolve_lattice("builtin:pentagon")

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
