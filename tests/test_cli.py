import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from specat.cli import main

from ._oracles import canonical_json_slow, listed
from .conftest import FIXTURES
from .test_golden import COMMANDS, ROOT, _expected_codes


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestVerify:
    def test_b4_fixture_passes(self, capsys):
        code, out = run(
            capsys, "verify", "--instance", "rel-l", "--lattice", "builtin:b4",
            "--arrow", str(FIXTURES / "relations" / "b4_diag2_f.json"),
            "--decomposition", str(FIXTURES / "decomps" / "b4_diag2_dec.json"))
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["schema"] == "specat-report/2"
        assert report["timing_seconds"] is None

    def test_real_fixture_tight_tolerance(self, capsys):
        code, out = run(
            capsys, "verify", "--instance", "mat-r",
            "--arrow", str(FIXTURES / "matrices" / "line3_f.csv"),
            "--decomposition", str(FIXTURES / "decomps" / "line3_dec.json"),
            "--tol-abs", "1e-12", "--tol-rel", "0")
        assert code == 0

    def test_corrupted_local_fails_with_condition(self, capsys, tmp_path):
        payload = json.loads(
            (FIXTURES / "decomps" / "line3_dec.json").read_text())
        payload["blocks"][1]["local"] = [[2.0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out = run(
            capsys, "verify", "--instance", "mat-r",
            "--arrow", str(FIXTURES / "matrices" / "line3_f.csv"),
            "--decomposition", str(bad))
        assert code == 1
        report = json.loads(out)
        failing = [c["law"] for c in report["checks"] if not c["passed"]]
        assert "d" in failing

    def test_non_number_block_entries_exit_2(self, capsys, tmp_path):
        # a bool, and an int beyond float range, written as JSON numbers
        for local, message in (("true", "bad real entry"),
                               ("1" + "0" * 400, "out of range")):
            text = (FIXTURES / "decomps" / "line3_dec.json").read_text()
            bad = tmp_path / "bad.json"
            bad.write_text(text.replace(
                '"local": [\n        [\n          1.0\n        ]',
                '"local": [\n        [\n          ' + local + '\n        ]'))
            assert bad.read_text() != text
            code = main(["verify", "--instance", "mat-r",
                         "--arrow", str(FIXTURES / "matrices" / "line3_f.csv"),
                         "--decomposition", str(bad)])
            assert code == 2
            assert message in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        code, _ = run(
            capsys, "verify", "--instance", "mat-r",
            "--arrow", "nope.csv", "--decomposition", "nope.json")
        assert code == 2

    def test_wrong_shape_decomposition_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        payload = json.loads(
            (FIXTURES / "decomps" / "b4_diag2_dec.json").read_text())
        payload["carrier"] = ["c1", "c2", "c3"]
        bad.write_text(json.dumps(payload))
        code, _ = run(
            capsys, "verify", "--instance", "rel-l", "--lattice", "builtin:b4",
            "--arrow", str(FIXTURES / "relations" / "b4_diag2_f.json"),
            "--decomposition", str(bad))
        assert code in (2, 3)

    def test_unknown_lattice_element_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad_rel.json"
        bad.write_text(json.dumps(
            {"source": ["x"], "target": ["x"], "values": [["q"]]}))
        code, _ = run(
            capsys, "verify", "--instance", "rel-l", "--lattice", "builtin:b4",
            "--arrow", str(bad),
            "--decomposition", str(FIXTURES / "decomps" / "b4_diag2_dec.json"))
        assert code == 2


class TestSeparate:
    def test_relation_components_round_trip(self, capsys, tmp_path):
        rel_file = tmp_path / "f.json"
        rel_file.write_text(json.dumps({
            "source": ["1", "2", "3", "4"],
            "target": ["1", "2", "3", "4"],
            "values": [["0", "1", "0", "0"],
                       ["1", "0", "0", "0"],
                       ["0", "0", "0", "0"],
                       ["0", "0", "1", "0"]],
        }))
        code, out = run(capsys, "separate", "--instance", "rel",
                        "--arrow", str(rel_file))
        assert code == 0
        report = json.loads(out)
        cells = report["payload"]["partition"]["cells"]
        assert cells == [["1", "2"], ["3", "4"]]
        # emitted decompositions re-verify when fed back through verify
        dec_file = tmp_path / "dec.json"
        dec_file.write_text(json.dumps(report["payload"]["decomposition"]))
        code2, _ = run(capsys, "verify", "--instance", "rel",
                       "--arrow", str(rel_file),
                       "--decomposition", str(dec_file))
        assert code2 == 0

    def test_matrix_blocks(self, capsys, tmp_path):
        mat_file = tmp_path / "m.csv"
        mat_file.write_text("1,0,0\n0,2,3\n0,4,5\n")
        code, out = run(capsys, "separate", "--instance", "mat-r",
                        "--arrow", str(mat_file))
        assert code == 0
        report = json.loads(out)
        assert report["payload"]["partition"]["cells"] == [[0], [1, 2]]

    def test_connected_input_single_cell(self, capsys, tmp_path):
        mat_file = tmp_path / "m.csv"
        mat_file.write_text("1,2\n3,4\n")
        code, out = run(capsys, "separate", "--instance", "mat-r",
                        "--arrow", str(mat_file))
        assert code == 0
        assert len(json.loads(out)["payload"]["partition"]["cells"]) == 1

    def test_dot_output(self, capsys, tmp_path):
        mat_file = tmp_path / "m.csv"
        mat_file.write_text("1,0\n0,2\n")
        code, out = run(capsys, "separate", "--instance", "mat-r",
                        "--arrow", str(mat_file), "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_effective_zero_threshold_logged(self, capsys, tmp_path):
        mat_file = tmp_path / "m.csv"
        mat_file.write_text("1,0\n0,2\n")
        code, out = run(capsys, "separate", "--instance", "mat-r",
                        "--arrow", str(mat_file))
        assert code == 0
        assert json.loads(out)["payload"]["zero_tol"] == 1e-9

    def test_complex_instance(self, capsys, tmp_path):
        mat_file = tmp_path / "m.csv"
        mat_file.write_text("1+0j,0+0j\n0+0j,0+1j\n")
        dec_file = tmp_path / "dec.json"
        dec_file.write_text(json.dumps({
            "carrier": 2,
            "blocks": [
                {"space": 1, "project": [["1+0j", "0j"]],
                 "inject": [["1+0j"], ["0j"]], "local": [["1+0j"]]},
                {"space": 1, "project": [["0j", "1+0j"]],
                 "inject": [["0j"], ["1+0j"]], "local": [["0+1j"]]},
            ]}))
        code, _ = run(capsys, "verify", "--instance", "mat-c",
                      "--arrow", str(mat_file), "--decomposition", str(dec_file))
        assert code == 0
        code, out = run(capsys, "separate", "--instance", "mat-c",
                        "--arrow", str(mat_file))
        assert code == 0
        assert json.loads(out)["payload"]["partition"]["cells"] == [[0], [1]]


class TestEquitable:
    def test_star_graph(self, capsys):
        code, out = run(capsys, "equitable",
                        "--graph", str(FIXTURES / "graphs" / "star4.txt"))
        assert code == 0
        report = json.loads(out)
        assert report["payload"]["cells"] == [[0], [1, 2, 3]]
        assert report["payload"]["reduced"] == [[0.0, 1.0], [1.0, 0.0]]

    def test_disconnected_graph_exit_3(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n2 3\n")
        code, _ = run(capsys, "equitable", "--graph", str(graph))
        assert code == 3

    def test_user_partition_validated(self, capsys, tmp_path):
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"cells": [[0, 1], [2]]}))
        code, _ = run(capsys, "equitable",
                      "--graph", str(FIXTURES / "graphs" / "path3.txt"),
                      "--partition", str(part))
        assert code == 3

    def test_huge_vertex_id_exit_3_without_dense_allocation(self, capsys,
                                                           tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1000000000000 1000000000001\n")
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"cells": [[0, 1]]}))
        for extra in ((), ("--partition", str(part))):
            tracemalloc.start()
            try:
                code = main(["equitable", "--graph", str(graph), *extra])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            err = capsys.readouterr().err
            assert code == 3
            assert "vertex 2 has no edges" in err
            assert peak < 4 * 2**20

    def test_vertex_id_beyond_int64_exit_2(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(f"0 1\n1 {2**64}\n")
        code = main(["equitable", "--graph", str(graph)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_user_partition_accepted_when_equitable(self, capsys, tmp_path):
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"cells": [[0, 2], [1]]}))
        code, _ = run(capsys, "equitable",
                      "--graph", str(FIXTURES / "graphs" / "path3.txt"),
                      "--partition", str(part))
        assert code == 0


    @pytest.mark.parametrize("cells, label", [([[0, 1, 99]], "99"),
                                              ([[0, [1]], [2]], "(1,)")],
                             ids=["unknown", "nested"])
    def test_partition_naming_an_unknown_label_exits_3(self, capsys, tmp_path,
                                                       cells, label):
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"cells": cells}))
        code = main(["equitable", "--graph", str(FIXTURES / "graphs" / "path3.txt"),
                     "--partition", str(part)])
        assert code == 3
        assert capsys.readouterr().err == f"error: unknown carrier label {label}\n"


def _edge_text(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def _equitable_graphs() -> dict:
    """Edge lists of the fixture graphs and of generated connected graphs,
    each with a partition to validate or None; a 150-vertex path gives
    walk and residual grids of more than one band, and its discrete
    partition degrees and reduced grids of more than one band."""
    rng = np.random.default_rng(20)
    graphs = {path.stem: (path.read_text(), None)
              for path in sorted((FIXTURES / "graphs").glob("*.txt"))}
    path = _edge_text((i, i + 1) for i in range(149))
    graphs["path150"] = (path, None)
    graphs["path150-discrete"] = (path, [[v] for v in range(150)])
    graphs["cycle12"] = (_edge_text((i, (i + 1) % 12) for i in range(12)), None)
    graphs["tree40"] = (_edge_text((v, int(rng.integers(v)))
                                   for v in range(1, 40)), None)
    graphs["grid5x6"] = (_edge_text(
        [(6 * r + c, 6 * r + c + 1) for r in range(5) for c in range(5)]
        + [(6 * r + c, 6 * r + c + 6) for r in range(4) for c in range(6)]),
        None)
    tree = [(v, int(rng.integers(v))) for v in range(1, 30)]
    extra = [tuple(map(int, rng.integers(30, size=2))) for _ in range(25)]
    graphs["random30"] = (_edge_text(tree + extra), None)
    return graphs


EQUITABLE_GRAPHS = _equitable_graphs()


class TestEquitableReportEncoding:
    @pytest.mark.parametrize("name", sorted(EQUITABLE_GRAPHS))
    def test_output_is_the_stdlib_encoding_of_the_handler_result(
            self, capsys, tmp_path, name):
        """Every format prints what the handler's result gives through the
        stdlib encoder (json), ``render_text`` or the DOT builder, and the
        payload's four grids reach the encoder as arrays."""
        from specat import cli

        edges, cells = EQUITABLE_GRAPHS[name]
        graph = tmp_path / "g.txt"
        graph.write_text(edges)
        argv = ["equitable", "--graph", str(graph)]
        if cells is not None:
            part = tmp_path / "p.json"
            part.write_text(json.dumps({"cells": cells}))
            argv += ["--partition", str(part)]
        for fmt in ("json", "text", "dot"):
            args = cli._parser().parse_args([*argv, "--format", fmt])
            law_report, payload, dot = cli.cmd_equitable(args)
            for key in ("degrees", "reduced", "walk", "residual"):
                assert type(payload[key]) is np.ndarray, key
            report = {
                "schema": cli.SCHEMA,
                "job": cli._job_echo(args),
                "passed": law_report.passed,
                "checks": law_report.to_dict()["checks"],
                "payload": payload,
                "timing_seconds": None,
            }
            want = {"json": lambda: canonical_json_slow(listed(report)),
                    "text": lambda: cli.render_text(report),
                    "dot": dot}[fmt]()
            code, out = run(capsys, *argv, "--format", fmt)
            assert (code, out) == (0 if law_report.passed else 1, want)


class TestLaws:
    def test_rel_b4_seeded(self, capsys):
        code, out = run(capsys, "laws", "--instance", "rel-l",
                        "--lattice", "builtin:b4", "--trials", "15",
                        "--seed", "7")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_broken_lattice_file_names_triple(self, capsys, tmp_path):
        # five-element diamond: a lattice without residuation
        elements = ["0", "x", "y", "z", "1"]
        def meet(i, j):
            if i == j:
                return i
            if 0 in (i, j):
                return 0
            if 4 in (i, j):
                return i if j == 4 else j
            return 0
        def join(i, j):
            if i == j:
                return i
            if 4 in (i, j):
                return 4
            if 0 in (i, j):
                return i if j == 0 else j
            return 4
        table = {
            "elements": elements,
            "meet": [[elements[meet(i, j)] for j in range(5)] for i in range(5)],
            "join": [[elements[join(i, j)] for j in range(5)] for i in range(5)],
        }
        lattice = tmp_path / "diamond.json"
        lattice.write_text(json.dumps(table))
        code, _ = run(capsys, "laws", "--instance", "rel-l",
                      "--lattice", str(lattice), "--trials", "1")
        assert code == 3

    def test_functor_checks_included(self, capsys):
        code, out = run(capsys, "laws", "--instance", "rel-l",
                        "--lattice", "builtin:b4", "--trials", "10",
                        "--seed", "3", "--functor", "builtin:upper:a")
        assert code == 0
        laws = {c["law"] for c in json.loads(out)["checks"]}
        assert "additive" in laws and "sum_via_biproduct" in laws

    def test_functor_pass_over_the_pair_budget_exits_2_before_running(
            self, capsys, monkeypatch):
        # the exhaustive pass over chain:512 would check 1.4e11 pairs, for
        # hours; neither it nor the law suite may start
        from specat import cli, functors

        def never(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(functors, "_run_exhaustive_pass", never)
        monkeypatch.setattr(cli, "run_law_suite", never)
        code = main(["laws", "--instance", "rel", "--lattice",
                     "builtin:chain:512", "--functor", "builtin:upper:1",
                     "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: --functor: the exhaustive check over a 512-element "
            "lattice needs 137707913216 pairs; at most 67108864 are "
            "accepted\n")

    @pytest.mark.parametrize("lattice,element,passes", [
        ("b4", "a", 1), ("chain:8", "3/7", 1), ("chain:75", "1", 1),
        ("chain:76", "1", 0)])
    def test_functor_pass_runs_within_the_pair_budget(self, capsys, monkeypatch,
                                                     lattice, element, passes):
        # 2k^4 + 2k^3 + 2k^2 pairs: 64,136,250 at k = 75, 67,613,856 at 76
        from specat import functors

        calls = []
        run_pass = functors._run_exhaustive_pass

        def recorded(functor, tally, max_cells):
            calls.append(len(functor.source.algebra.elements))
            if calls[-1] <= 8:
                run_pass(functor, tally, max_cells)

        monkeypatch.setattr(functors, "_run_exhaustive_pass", recorded)
        code = main(["laws", "--instance", "rel", "--lattice",
                     f"builtin:{lattice}", "--functor",
                     f"builtin:upper:{element}", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == (0 if passes else 2)
        assert len(calls) == passes
        assert ("pairs; at most" in captured.err) is not bool(passes)

    @pytest.mark.parametrize("flag,value", [
        ("--max-size", "-2"), ("--max-size", "-1"),
        ("--max-size", "513"), ("--max-size", "100000"),
        ("--trials", "0"), ("--trials", "-5")])
    def test_out_of_range_bounds_exit_2_naming_the_flag(self, capsys, flag,
                                                         value):
        code = main(["laws", "--instance", "rel", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be")

    @pytest.mark.parametrize("instance", [
        ["mat-c"],
        ["rel-l", "--lattice", "builtin:chain:64", "--functor", "builtin:identity"]])
    def test_an_oversized_max_size_is_refused_before_drawing(self, capsys,
                                                             monkeypatch, instance):
        # the samplers build an arrow's cells as a Python list, past numpy's
        # allocation checks, so the bound is checked before the first draw
        from specat import matrices, relations

        for sampler in (matrices.MatrixSampler, relations.RelationSampler):
            monkeypatch.setattr(sampler, "random_object", None)
        code = main(["laws", "--instance", *instance, "--max-size", "100000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --max-size must be at most 512, got 100000\n"

    @pytest.mark.parametrize("max_size", [0, 1, 2])
    @pytest.mark.parametrize("instance", [
        ["mat-r"], ["mat-nn"],
        ["rel-l", "--lattice", "builtin:b4", "--functor", "builtin:upper:a"]])
    def test_max_size_bounds_every_sampled_object(self, capsys, monkeypatch,
                                                  instance, max_size):
        # both the law suite and the --functor check draw through a sampler;
        # every object either one draws must respect the bound, 0 included
        from specat import matrices, relations

        sizes = []
        for sampler in (matrices.MatrixSampler, relations.RelationSampler):
            def recording(self, rng, _draw=sampler.random_object):
                obj = _draw(self, rng)
                sizes.append(obj if isinstance(obj, int) else len(obj))
                return obj
            monkeypatch.setattr(sampler, "random_object", recording)
        code, out = run(capsys, "laws", "--instance", *instance,
                        "--trials", "20", "--max-size", str(max_size))
        assert code == 0
        assert json.loads(out)["job"]["max_size"] == max_size
        assert sizes and max(sizes) == max_size


class TestOutOfMemory:
    MESSAGE = ("Unable to allocate 233. GiB for an array with shape "
               "(5000, 5000, 5000) and data type int16")

    @pytest.mark.parametrize("handler,argv", [
        ("cmd_laws", ["laws", "--instance", "rel-l",
                      "--lattice", "builtin:chain:5000"]),
        ("cmd_equitable", ["equitable", "--graph", "any.txt"]),
    ])
    def test_memory_error_exits_3_with_numpys_message(self, capsys, monkeypatch,
                                                      handler, argv):
        # a handler that runs out of memory stands in for a real allocation
        # of that size; exit 1 would claim that a law failed
        from specat import cli

        def exhausted(args):
            raise MemoryError(self.MESSAGE)

        monkeypatch.setattr(cli, handler, exhausted)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: out of memory: {self.MESSAGE}\n"


class TestLibraryErrors:
    @pytest.mark.parametrize("error", [
        "ArrowTypeError", "PreconditionError", "LatticeError",
        "UnsupportedDomainError", "DecompositionError", "SpecatError"])
    def test_library_error_exits_3_with_its_message(self, capsys, monkeypatch,
                                                    error):
        # every library error but ParseError is a precondition violation,
        # whether or not some real input reaches it today
        from specat import cli, core

        def failing(args):
            raise getattr(core, error)("the operation's message")

        monkeypatch.setattr(cli, "cmd_laws", failing)
        code = main(["laws", "--instance", "rel"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: the operation's message\n"


def chain_table(k: int) -> dict:
    labels = [f"e{i}" for i in range(k)]
    idx = np.arange(k)
    pick = np.array(labels)
    return {"elements": labels,
            "meet": pick[np.minimum.outer(idx, idx)].tolist(),
            "join": pick[np.maximum.outer(idx, idx)].tolist()}


class TestLatticeBound:
    @pytest.mark.parametrize("source", ["builtin", "file", "hom"])
    def test_oversized_lattice_exits_2_before_building_a_table(
            self, capsys, monkeypatch, tmp_path, source):
        # validating a table takes time cubic in its size, so input naming
        # more than 512 elements is refused before any table is built
        from specat import relations

        def never(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(relations.HeytingTable, "__init__", never)
        if source == "builtin":
            spec, name = "builtin:chain:513", "'builtin:chain:513'"
        else:
            path = tmp_path / "big.json"
            path.write_text(json.dumps(chain_table(513)))
            spec, name = str(path), "'custom'"
        if source == "hom":
            hom = tmp_path / "hom.json"
            hom.write_text(json.dumps({"source": chain_table(513),
                                       "target": "bool", "map": {}}))
            argv = ["functor", "--hom", str(hom), "--arrow", "unread.json",
                    "--decomposition", "unread.json"]
        else:
            argv = ["laws", "--instance", "rel-l", "--lattice", spec]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: lattice {name} has 513 elements; "
                                "at most 512 are accepted from input\n")


class TestFunctor:
    def test_threshold_maps_fixture(self, capsys, tmp_path):
        # sum of the two three-carrier fixtures, decomposed with shared
        # projections, then pushed down to plain relations
        from specat import RelationCategory, b4, sum_decompositions
        from specat.formats import save_decomposition_json, save_relation_json
        from .test_spectral import path3_decomposition, loops3_decomposition

        cat = RelationCategory(b4())
        total = sum_decompositions(cat, path3_decomposition(),
                                   loops3_decomposition())
        arrow_file = tmp_path / "f.json"
        dec_file = tmp_path / "dec.json"
        save_relation_json(total.arrow, arrow_file)
        save_decomposition_json(total, cat, dec_file)
        code, out = run(capsys, "functor", "--lattice", "builtin:b4",
                        "--hom", str(FIXTURES / "homs" / "b4_upper_a.json"),
                        "--arrow", str(arrow_file),
                        "--decomposition", str(dec_file))
        assert code == 0
        report = json.loads(out)
        assert report["payload"]["image_arrow"]["values"] == [
            ["1", "1", "0"], ["0", "1", "0"], ["0", "0", "0"]]
        # the emitted image re-verifies in the target instance
        image_arrow = tmp_path / "image_f.json"
        image_dec = tmp_path / "image_dec.json"
        image_arrow.write_text(json.dumps(report["payload"]["image_arrow"]))
        image_dec.write_text(
            json.dumps(report["payload"]["image_decomposition"]))
        code2, _ = run(capsys, "verify", "--instance", "rel",
                       "--arrow", str(image_arrow),
                       "--decomposition", str(image_dec))
        assert code2 == 0

    def test_identity_builtin(self, capsys, tmp_path):
        code, out = run(
            capsys, "functor", "--lattice", "builtin:b4",
            "--hom", "builtin:identity",
            "--arrow", str(FIXTURES / "relations" / "b4_diag2_f.json"),
            "--decomposition", str(FIXTURES / "decomps" / "b4_diag2_dec.json"))
        assert code == 0
        report = json.loads(out)
        assert report["payload"]["image_arrow"]["values"] == [
            ["a", "0"], ["0", "b"]]

    def test_unknown_threshold_element_exit_2(self, capsys):
        code, _ = run(
            capsys, "functor", "--lattice", "builtin:b4",
            "--hom", "builtin:upper:zz",
            "--arrow", str(FIXTURES / "relations" / "b4_diag2_f.json"),
            "--decomposition", str(FIXTURES / "decomps" / "b4_diag2_dec.json"))
        assert code == 2

    def test_non_hom_file_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad_hom.json"
        bad.write_text(json.dumps({
            "source": "builtin:b4", "target": "builtin:bool",
            "map": {"0": "0", "a": "1", "b": "1", "1": "1"}}))
        code, _ = run(
            capsys, "functor", "--hom", str(bad),
            "--arrow", str(FIXTURES / "relations" / "b4_diag2_f.json"),
            "--decomposition", str(FIXTURES / "decomps" / "b4_diag2_dec.json"))
        assert code == 3


class Testdeterminism:
    def test_reports_byte_identical_across_runs(self, capsys, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out_file in (out_a, out_b):
            code, _ = run(capsys, "laws", "--instance", "rel-l",
                          "--lattice", "builtin:b4", "--trials", "10",
                          "--seed", "42", "--out", str(out_file))
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECAT_SEED", "9")
        _, out1 = run(capsys, "laws", "--instance", "rel", "--trials", "5")
        monkeypatch.setenv("SPECAT_SEED", "10")
        _, out2 = run(capsys, "laws", "--instance", "rel", "--trials", "5")
        report1, report2 = json.loads(out1), json.loads(out2)
        assert report1["job"]["seed"] == 9
        assert report2["job"]["seed"] == 10


DIAG2_ARROW = str(FIXTURES / "relations" / "b4_diag2_f.json")
DIAG2_DEC = str(FIXTURES / "decomps" / "b4_diag2_dec.json")
B4_TABLE = [["0", "0", "0", "0"], ["0", "a", "0", "a"], ["0", "0", "b", "b"],
            ["0", "a", "b", "1"]]
B4_JOIN = [["0", "a", "b", "1"], ["a", "a", "1", "1"], ["b", "1", "b", "1"],
           ["1", "1", "1", "1"]]


def relation_json(values, labels=("x",)) -> dict:
    return {"source": list(labels), "target": list(labels), "values": values}


def lattice_json(**tables) -> dict:
    return {"elements": ["0", "a", "b", "1"], "meet": B4_TABLE, "join": B4_JOIN,
            **tables}


# (payload, argv with the payload's file as {}); each of these ended in a
# traceback and exit 1 before its reader checked it
MALFORMED = {
    "relation-values-number": (relation_json(5), [
        "verify", "--instance", "rel-l", "--lattice", "builtin:b4",
        "--arrow", "{}", "--decomposition", DIAG2_DEC]),
    "relation-row-number": (relation_json([5]), [
        "verify", "--instance", "rel-l", "--lattice", "builtin:b4",
        "--arrow", "{}", "--decomposition", DIAG2_DEC]),
    "carrier-label-object": (relation_json([["0"]], [{"a": 1}]), [
        "verify", "--instance", "rel-l", "--lattice", "builtin:b4",
        "--arrow", "{}", "--decomposition", DIAG2_DEC]),
    "lattice-join-number": (lattice_json(join=5), [
        "laws", "--instance", "rel-l", "--lattice", "{}", "--trials", "1"]),
    "lattice-meet-ragged": (lattice_json(meet=B4_TABLE[:3] + [["0", "a"]]), [
        "laws", "--instance", "rel-l", "--lattice", "{}", "--trials", "1"]),
    "decomposition-blocks-number": ({"carrier": ["c1", "c2"], "blocks": 5}, [
        "verify", "--instance", "rel-l", "--lattice", "builtin:b4",
        "--arrow", DIAG2_ARROW, "--decomposition", "{}"]),
    "hom-map-number": ({"source": "builtin:b4", "target": "builtin:bool",
                        "map": 5}, [
        "functor", "--hom", "{}", "--arrow", DIAG2_ARROW,
        "--decomposition", DIAG2_DEC]),
    "json-too-deep": ("[" * 100000 + "]" * 100000, [
        "verify", "--instance", "rel-l", "--lattice", "builtin:b4",
        "--arrow", "{}", "--decomposition", DIAG2_DEC]),
}

LINE3_ARROW = str(FIXTURES / "matrices" / "line3_f.csv")
LINE3_DEC = json.loads((FIXTURES / "decomps" / "line3_dec.json").read_text())
DIAG2_DEC_JSON = json.loads((FIXTURES / "decomps" / "b4_diag2_dec.json").read_text())


def edited(payload: dict, block: int | None = None, **fields) -> dict:
    """A copy of ``payload`` with ``fields`` set on it, or on its block."""
    copy = json.loads(json.dumps(payload))
    (copy if block is None else copy["blocks"][block]).update(fields)
    return copy


# (payload, argv, exit code, start of the message); JSON of the wrong kind
# where an object or a lattice is read: int() and tuple() read each of these,
# and all but the decomposition carrier passed with exit 0; a negative
# dimension was read too, and failed later naming a block shape, as a huge
# one did, spelling all its digits
WRONG_KIND = {
    "relation-source-string": (
        relation_json([["0", "0"], ["0", "0"]], "ab") | {"source": "ab"},
        ["separate", "--instance", "rel-l", "--lattice", "builtin:b4",
         "--arrow", "{}"], 2,
        "relation source: a carrier must be a list of labels"),
    "relation-target-object": (
        relation_json([["0"]]) | {"target": {"x": 1}},
        ["separate", "--instance", "rel-l", "--lattice", "builtin:b4",
         "--arrow", "{}"], 2,
        "relation target: a carrier must be a list of labels"),
    "decomposition-carrier-string": (
        edited(DIAG2_DEC_JSON, carrier="c1c2"),
        ["verify", "--instance", "rel-l", "--lattice", "builtin:b4",
         "--arrow", DIAG2_ARROW, "--decomposition", "{}"], 2,
        "decomposition carrier: a carrier must be a list of labels"),
    "decomposition-space-string": (
        edited(DIAG2_DEC_JSON, 0, space="s"),
        ["verify", "--instance", "rel-l", "--lattice", "builtin:b4",
         "--arrow", DIAG2_ARROW, "--decomposition", "{}"], 2,
        "decomposition block 1 space: a carrier must be a list of labels"),
    "matrix-carrier-string": (
        edited(LINE3_DEC, carrier="3"),
        ["verify", "--instance", "mat-r", "--arrow", LINE3_ARROW,
         "--decomposition", "{}"], 2,
        "decomposition carrier: a dimension must be an integer"),
    "matrix-carrier-fraction": (
        edited(LINE3_DEC, carrier=3.9),
        ["verify", "--instance", "mat-r", "--arrow", LINE3_ARROW,
         "--decomposition", "{}"], 2,
        "decomposition carrier: a dimension must be an integer"),
    "matrix-carrier-negative": (
        edited(LINE3_DEC, carrier=-1),
        ["verify", "--instance", "mat-r", "--arrow", LINE3_ARROW,
         "--decomposition", "{}"], 2,
        "decomposition carrier: a dimension must be non-negative, got -1"),
    "matrix-carrier-huge": (
        edited(LINE3_DEC, carrier=10 ** 30),
        ["verify", "--instance", "mat-r", "--arrow", LINE3_ARROW,
         "--decomposition", "{}"], 2,
        "decomposition carrier: block 1's project has 3 columns, so the "
        "carrier must have 3 positions"),
    "matrix-space-bool": (
        edited(LINE3_DEC, 1, space=True),
        ["verify", "--instance", "mat-r", "--arrow", LINE3_ARROW,
         "--decomposition", "{}"], 2,
        "decomposition block 2 space: a dimension must be an integer"),
    "lattice-elements-string": (
        {"elements": "01", "meet": [["0", "0"], ["0", "1"]],
         "join": [["0", "1"], ["1", "1"]]},
        ["laws", "--instance", "rel-l", "--lattice", "{}", "--trials", "1"],
        3, "lattice elements must be a list of labels"),
    "lattice-meet-rows-strings": (
        {"elements": ["0", "1"], "meet": ["00", "01"],
         "join": [["0", "1"], ["1", "1"]]},
        ["laws", "--instance", "rel-l", "--lattice", "{}", "--trials", "1"],
        3, "meet table must be a list of rows"),
    "lattice-join-rows-strings": (
        {"elements": ["0", "1"], "meet": [["0", "0"], ["0", "1"]],
         "join": ["01", "11"]},
        ["laws", "--instance", "rel-l", "--lattice", "{}", "--trials", "1"],
        3, "join table must be a list of rows"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2_or_3_with_a_message(capsys, tmp_path, name):
    payload, argv = MALFORMED[name]
    path = tmp_path / "input.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code = main([str(path) if arg == "{}" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code in (2, 3)
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", sorted(WRONG_KIND))
def test_wrong_kind_json_is_refused_naming_what_was_read(capsys, tmp_path,
                                                         name):
    # carriers and dimensions are input errors, lattices invalid lattices
    payload, argv, exit_code, message = WRONG_KIND[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main([str(path) if arg == "{}" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err


TOLERANCE_JOBS = {
    "verify": ["verify", "--instance", "mat-r", "--arrow", LINE3_ARROW,
               "--decomposition", str(FIXTURES / "decomps" / "line3_dec.json")],
    "separate": ["separate", "--instance", "mat-r", "--arrow", LINE3_ARROW],
    "equitable": ["equitable", "--graph", str(FIXTURES / "graphs" / "path3.txt")],
    "laws": ["laws", "--instance", "rel", "--trials", "2"],
    "functor": ["functor", "--lattice", "builtin:b4", "--hom", "builtin:upper:a",
                "--arrow", DIAG2_ARROW, "--decomposition", DIAG2_DEC],
}


@pytest.mark.parametrize("job,flag,value", [
    *[(job, "--tol-abs", value) for job, value in
      zip(TOLERANCE_JOBS, ("-1", "nan", "inf", "-inf", "-1e-300"))],
    *[(job, "--tol-rel", value) for job, value in
      zip(TOLERANCE_JOBS, ("nan", "-1", "-inf", "inf", "NaN"))],
    ("separate", "--zero-tol", "nan"), ("separate", "--zero-tol", "-0.5"),
    ("separate", "--zero-tol", "inf")])
def test_tolerance_flags_must_be_finite_and_non_negative(capsys, job, flag,
                                                         value):
    """A NaN tolerance fails every comparison (and splits a matrix into
    singletons), a negative one fails exact agreement and an infinite one
    passes anything: each exits 2 naming the flag.  argparse reads ``-inf``
    as an option unless it is joined to its flag."""
    code = main([*TOLERANCE_JOBS[job], f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: {flag} must be finite and non-negative, "
                            f"got {float(value)}\n")


@pytest.mark.parametrize("job", sorted(TOLERANCE_JOBS))
@pytest.mark.parametrize("value", ["0", "-0", "1e-300", "1e300"])
def test_finite_non_negative_tolerances_are_accepted(capsys, job, value):
    flags = ["--tol-abs", value, "--tol-rel", value]
    if job == "separate":
        flags += ["--zero-tol", value]
    code = main([*TOLERANCE_JOBS[job], *flags])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert captured.err == ""
    assert json.loads(captured.out)["job"]["tol_abs"] == float(value)


@pytest.mark.parametrize("argv", [
    ["--instance", "rel-l", "--lattice", "builtin:b4", "--arrow", DIAG2_ARROW,
     "--zero-tol", "5"],
    ["--instance", "rel", "--arrow", "no-such-arrow.json", "--zero-tol", "0"],
], ids=["rel-l", "before-the-arrow-is-read"])
def test_zero_tol_is_refused_on_relation_instances(capsys, argv):
    """A relation's support is its non-bottom cells, so no threshold applies:
    the flag was echoed in the job and ignored."""
    code = main(["separate", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --zero-tol applies only to matrix instances\n"


def test_a_parser_built_once_prints_what_fresh_parsers_print(capsys):
    """Consecutive calls share one parser; each prints the bytes and returns
    the code that a call with a parser of its own does, an argparse error
    and help included."""
    from specat import cli

    runs = [
        ["laws", "--instance", "rel-l", "--lattice", "builtin:b4", "--trials", "3"],
        ["equitable", "--graph", str(FIXTURES / "graphs" / "star4.txt")],
        ["verify", "--instance", "nope", "--arrow", "a", "--decomposition", "d"],
        ["separate", "--instance", "rel-l", "--lattice", "builtin:b4",
         "--arrow", DIAG2_ARROW, "--format", "text"],
        ["laws", "--help"],
        ["laws", "--instance", "mat-r", "--trials", "2", "--seed", "5"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    cli._parser.cache_clear()
    shared = [call(argv) for argv in runs]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in fresh] == [0, 0, ("exit", 2), 0, ("exit", 0), 0]
    assert "invalid choice: 'nope'" in fresh[2][2]


# the input files of the golden commands that read all of them (exit 0 or 1)
_INPUTS = sorted((name, at) for name, argv in COMMANDS.items()
                 if name.endswith(".json") and _expected_codes()[name] < 2
                 for at, arg in enumerate(argv) if arg.startswith("fixtures/"))


@pytest.mark.parametrize("name, at", _INPUTS)
def test_a_byte_that_is_not_utf8_exits_2_naming_the_file(capsys, tmp_path, name, at):
    """Every kind of input file (CSV, relation, decomposition, lattice, hom,
    edge list) with a byte that is not UTF-8 in its middle is refused with
    one line naming the file and the byte's offset."""
    argv = [str(ROOT / arg) if arg.startswith("fixtures/") else arg
            for arg in COMMANDS[name]]
    data = Path(argv[at]).read_bytes()
    cut = len(data) // 2
    path = tmp_path / Path(argv[at]).name
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])
    argv[at] = str(path)
    assert (main(argv), *capsys.readouterr()) == (
        2, "", f"error: {path}: invalid UTF-8 byte at offset {cut}\n")
