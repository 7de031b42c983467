"""End-to-end acceptance checks, each at its stated tolerance.

Every criterion prints one pass/fail line (visible with ``pytest -s``) and
is also a regular assertion, so the suite gates on all of them.
"""

import functools
import itertools
import json
import random
import time

import numpy as np

from specat import (
    MAT_NN,
    MAT_R,
    LRelation,
    Partition,
    RelationCategory,
    Tolerance,
    b4,
    bool_algebra,
    chain,
    coarsest_equitable_partition,
    compose_decompositions,
    induced_functor,
    map_decomposition,
    principal_filter_hom,
    reduced_transition_matrix,
    residual_part,
    run_law_suite,
    separate_components,
    sum_decompositions,
    verify_decomposition,
    walk_matrix,
)
from specat.cli import main as cli_main
from specat.formats import load_decomposition_json, load_relation_json
from specat.relations import RelationSampler

from ._oracles import (
    bfs_components,
    coarsest_equitable_slow,
    relation_support_edges,
)
from .conftest import FIXTURES

B4 = b4()
REL_B4 = RelationCategory(B4)


def criterion(num: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {label}")
                raise
            print(f"PASS criterion {num}: {label}")
            return result

        return wrapper

    return decorate


def load_b4_pair(name_f: str, name_dec: str):
    arrow = load_relation_json(FIXTURES / "relations" / name_f, B4)
    dec = load_decomposition_json(FIXTURES / "decomps" / name_dec, REL_B4)
    return arrow, dec


@criterion(1, "shipped lattice-relation fixtures verify with zero residual")
def test_criterion_1_b4_fixtures_exact():
    started = time.perf_counter()
    fixtures = (
        ("b4_diag2_f.json", "b4_diag2_dec.json"),
        ("b4_path3_f1.json", "b4_path3_dec1.json"),
        ("b4_loops3_f2.json", "b4_loops3_dec2.json"),
    )
    for name_f, name_dec in fixtures:
        arrow, dec = load_b4_pair(name_f, name_dec)
        report = verify_decomposition(REL_B4, arrow, dec)
        assert report.passed, (name_f, [c.law for c in report.failures()])
        assert report.max_residual == 0.0
    assert time.perf_counter() - started < 1.0


@criterion(2, "shipped real-matrix fixture verifies at 1e-12")
def test_criterion_2_real_fixture_tight_tolerance():
    from specat.formats import load_matrix_csv

    f = load_matrix_csv(FIXTURES / "matrices" / "line3_f.csv", MAT_R.domain)
    dec = load_decomposition_json(FIXTURES / "decomps" / "line3_dec.json", MAT_R)
    report = verify_decomposition(MAT_R, f, dec, Tolerance(1e-12, 0.0))
    assert report.passed, [c.law for c in report.failures()]


@criterion(3, "law suites pass on all five instances, 100 seeded trials each")
def test_criterion_3_law_suites():
    started = time.perf_counter()
    suites = (
        (MAT_R, Tolerance(1e-9, 1e-9)),
        (MAT_NN, Tolerance(1e-9, 1e-9)),
        (RelationCategory(bool_algebra()), None),
        (REL_B4, None),
        (RelationCategory(chain(3)), None),
    )
    required = {"witness_a", "witness_b", "witness_c", "witness_d", "witness_e",
                "copair_pair_factors", "sum_via_biproduct"}
    for cat, tol in suites:
        report = run_law_suite(cat, trials=100, tol=tol, seed=2024)
        assert report.passed, (cat.name, [c.law for c in report.failures()])
        assert required <= {c.law for c in report.checks}
        if cat.exact is True:
            assert report.max_residual == 0.0
    assert time.perf_counter() - started < 30.0


@criterion(4, "combinators reproduce the summed and composed fixtures exactly")
def test_criterion_4_combinator_closure():
    f1, dec1 = load_b4_pair("b4_path3_f1.json", "b4_path3_dec1.json")
    f2, dec2 = load_b4_pair("b4_loops3_f2.json", "b4_loops3_dec2.json")
    dec1 = type(dec1)(dec1.carrier, dec1.blocks, arrow=f1)
    dec2 = type(dec2)(dec2.carrier, dec2.blocks, arrow=f2)

    total = sum_decompositions(REL_B4, dec1, dec2)
    lam1 = LRelation.from_labels(B4, ("x1", "x2"), ("x1", "x2"),
                                 [["a", "1"], ["0", "1"]])
    lam2 = LRelation.from_labels(B4, ("y1",), ("y1",), [["b"]])
    assert total.blocks[0].local == lam1
    assert total.blocks[1].local == lam2
    assert total.arrow == (f2 | f1)
    report = verify_decomposition(REL_B4, total.arrow, total)
    assert report.passed and report.max_residual == 0.0

    composed = compose_decompositions(REL_B4, dec1, dec2)
    assert composed.arrow == (f2 @ f1)
    report = verify_decomposition(REL_B4, composed.arrow, composed)
    assert report.passed and report.max_residual == 0.0


@criterion(5, "threshold functor preserves 200 component decompositions")
def test_criterion_5_functor_preservation():
    functor = induced_functor(principal_filter_hom(B4, "a"))
    rng = random.Random(777)
    sampler = RelationSampler(B4, max_carrier=6, bottom_bias=0.6)
    checked = 0
    for _ in range(200):
        carrier = tuple(f"n{i}" for i in range(rng.randrange(1, 7)))
        f = sampler.random_arrow(rng, carrier, carrier)
        _, dec = separate_components(f)
        assert verify_decomposition(REL_B4, f, dec).passed
        image, mapped = map_decomposition(functor, f, dec)
        report = verify_decomposition(functor.target, image, mapped)
        assert report.passed and report.max_residual == 0.0
        checked += 1
    assert checked == 200

    # fixture image: the summed fixture keeps exactly the three cells whose
    # value lies above the threshold element
    f1, dec1 = load_b4_pair("b4_path3_f1.json", "b4_path3_dec1.json")
    f2, dec2 = load_b4_pair("b4_loops3_f2.json", "b4_loops3_dec2.json")
    total = sum_decompositions(
        REL_B4,
        type(dec1)(dec1.carrier, dec1.blocks, arrow=f1),
        type(dec2)(dec2.carrier, dec2.blocks, arrow=f2))
    image, mapped = map_decomposition(functor, total.arrow, total)
    assert [[v for v in row] for row in image.values.tolist()] == [
        [1, 1, 0], [0, 1, 0], [0, 0, 0]]
    source_target_pairs = {
        (image.source.index(s) + 1, image.target.index(t) + 1)
        for (t, s) in image.to_pairs()}
    assert source_target_pairs == {(1, 1), (2, 1), (2, 2)}
    assert verify_decomposition(functor.target, image, mapped).passed


@criterion(6, "component separation matches BFS oracle on 200 random relations")
def test_criterion_6_components_oracle():
    rng = random.Random(4242)
    algebras = (bool_algebra(), B4)
    for trial in range(200):
        algebra = algebras[trial % 2]
        cat = RelationCategory(algebra)
        sampler = RelationSampler(algebra, max_carrier=8, bottom_bias=0.7)
        carrier = tuple(f"n{i}" for i in range(rng.randrange(1, 9)))
        f = sampler.random_arrow(rng, carrier, carrier)
        partition, dec = separate_components(f)
        n, edges = relation_support_edges(f)
        assert partition.positions() == bfs_components(n, edges)
        report = verify_decomposition(cat, f, dec)
        assert report.passed and report.max_residual == 0.0


def connected_graph_bitrows(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        seen = frontier = 1
        while frontier:
            grown = 0
            for v in range(n):
                if frontier >> v & 1:
                    grown |= rows[v]
            frontier = grown & ~seen
            seen |= grown
        if seen == (1 << n) - 1:
            yield rows


@criterion(7, "equitable partitions match exhaustive search on all graphs <= 6")
def test_criterion_7_equitable_oracle():
    expected_counts = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
    star = np.zeros((4, 4), dtype=int)
    star[0, 1:] = 1
    star[1:, 0] = 1
    star_partition = coarsest_equitable_partition(star)
    assert star_partition.cells == ((0,), (1, 2, 3))
    star_quotient = reduced_transition_matrix(star, star_partition)
    assert star_quotient.reduced.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    for n in range(1, 7):
        count = 0
        for rows in connected_graph_bitrows(n):
            count += 1
            adj = np.array([[(rows[i] >> j) & 1 for j in range(n)]
                            for i in range(n)], dtype=int)
            ours = tuple(tuple(cell) for cell in
                         coarsest_equitable_partition(adj).cells)
            assert ours == coarsest_equitable_slow(adj.tolist())
            if n < 2:
                continue
            quotient = reduced_transition_matrix(
                adj, Partition(tuple(range(n)), ours))
            sizes = np.array(quotient.cell_sizes)
            balance = sizes[:, None] * quotient.degrees
            assert np.array_equal(balance, balance.T)
            assert np.max(np.abs(quotient.reduced.values.sum(axis=1) - 1.0)) \
                <= 1e-12
            walk = walk_matrix(adj)
            drift = np.abs(quotient.average.values @ walk.values
                           - quotient.reduced.values @ quotient.average.values)
            assert np.max(drift) <= 1e-9
            residual = residual_part(walk, quotient)
            assert np.max(np.abs(quotient.average.values @ residual.values)) \
                <= 1e-9
        assert count == expected_counts[n]


def run_cli_twice(tmp_path, label, argv):
    outputs = []
    for attempt in ("x", "y"):
        out = tmp_path / f"{label}_{attempt}.json"
        code = cli_main(argv + ["--out", str(out)])
        outputs.append((code, out.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    return outputs[0][0], json.loads(outputs[0][1])


@criterion(8, "mutated fixtures fail naming their condition, bytes stable")
def test_criterion_8_negative_paths(tmp_path, capsys):
    # corrupt the first fixture's local arrow: reconstruction must fail
    payload = json.loads(
        (FIXTURES / "decomps" / "b4_diag2_dec.json").read_text())
    payload["blocks"][0]["local"] = [["a"]]
    bad_local = tmp_path / "bad_local.json"
    bad_local.write_text(json.dumps(payload))
    code, report = run_cli_twice(tmp_path, "local", [
        "verify", "--instance", "rel-l", "--lattice", "builtin:b4",
        "--arrow", str(FIXTURES / "relations" / "b4_diag2_f.json"),
        "--decomposition", str(bad_local), "--seed", "7"])
    assert code == 1
    failing = {c["law"] for c in report["checks"] if not c["passed"]}
    assert "d" in failing and "c" not in failing

    # corrupt an injection entry: the retract condition must fail
    payload = json.loads(
        (FIXTURES / "decomps" / "b4_diag2_dec.json").read_text())
    payload["blocks"][0]["inject"] = [["a"], ["a"]]
    bad_inject = tmp_path / "bad_inject.json"
    bad_inject.write_text(json.dumps(payload))
    code, report = run_cli_twice(tmp_path, "inject", [
        "verify", "--instance", "rel-l", "--lattice", "builtin:b4",
        "--arrow", str(FIXTURES / "relations" / "b4_diag2_f.json"),
        "--decomposition", str(bad_inject), "--seed", "7"])
    assert code == 1
    failing = {c["law"] for c in report["checks"] if not c["passed"]}
    assert "retract[1]" in failing

    # corrupt the real fixture's second local entry
    payload = json.loads((FIXTURES / "decomps" / "line3_dec.json").read_text())
    payload["blocks"][1]["local"] = [[2.0]]
    bad_real = tmp_path / "bad_real.json"
    bad_real.write_text(json.dumps(payload))
    code, report = run_cli_twice(tmp_path, "real", [
        "verify", "--instance", "mat-r",
        "--arrow", str(FIXTURES / "matrices" / "line3_f.csv"),
        "--decomposition", str(bad_real), "--seed", "7"])
    assert code == 1
    failing = {c["law"] for c in report["checks"] if not c["passed"]}
    assert "d" in failing
    capsys.readouterr()
