"""Command-line front end: verify | separate | equitable | laws | functor.

Exit codes: 0 all checks passed, 1 some check failed, 2 input or parse
error, 3 precondition violation (endpoint mismatch, invalid lattice or
partition, unsupported domain) or an input too large to hold in memory.
With a fixed seed the emitted report is byte-identical across runs;
wall-clock timing is only included on request so determinism survives.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import formats
from .core import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    ParseError,
    SpecatError,
    Tolerance,
    run_law_suite,
)
from .functors import (
    _exhaustive_pairs,
    check_cmon_functor,
    identity_hom,
    induced_functor,
    map_decomposition,
    principal_filter_hom,
)
from .matrices import MAT_C, MAT_NN, MAT_R, MatrixCategory
from .relations import RelationCategory, bool_algebra
from .spectral import (
    coarsest_equitable_partition,
    detect_blocks,
    reduced_transition_matrix,
    residual_part,
    separate_components,
    verify_decomposition,
    verify_quotient,
    walk_matrix,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

SCHEMA = "specat-report/2"

# `laws --functor` checks 2k^4 + 2k^3 + 2k^2 pairs over a k-element lattice:
# 2^26 (k = 75) take about 6 s, chain:512 (input may name it) would take hours
_MAX_FUNCTOR_PAIRS = 1 << 26


def make_category(instance: str, lattice_spec: str | None):
    if instance == "mat-r":
        return MAT_R
    if instance == "mat-c":
        return MAT_C
    if instance == "mat-nn":
        return MAT_NN
    if instance == "rel":
        return RelationCategory(bool_algebra())
    if instance == "rel-l":
        if not lattice_spec:
            raise ParseError("instance rel-l needs --lattice")
        return RelationCategory(formats.resolve_lattice(lattice_spec))
    raise ParseError(f"unknown instance {instance!r}")


def load_arrow(cat, path):
    if isinstance(cat, MatrixCategory):
        return formats.load_matrix_csv(path, cat.domain)
    return formats.load_relation_json(path, cat.algebra)


def resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SPECAT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"SPECAT_SEED must be an integer, got {env!r}") from exc
    return 0


def resolve_tolerance(args) -> Tolerance:
    return Tolerance(
        abs=args.tol_abs if args.tol_abs is not None else DEFAULT_TOL_ABS,
        rel=args.tol_rel if args.tol_rel is not None else DEFAULT_TOL_REL,
    )


def resolve_hom(spec: str, lattice_spec: str | None):
    if spec.startswith("builtin:"):
        name = spec.removeprefix("builtin:")
        if not lattice_spec:
            raise ParseError(f"builtin hom {spec!r} needs --lattice for its source")
        algebra = formats.resolve_lattice(lattice_spec)
        if name == "identity":
            return identity_hom(algebra)
        if name.startswith("upper:"):
            element = name.split(":", 1)[1]
            try:
                return principal_filter_hom(algebra, element)
            except KeyError as exc:
                raise ParseError(
                    f"unknown lattice element {exc.args[0]!r} in {spec!r}"
                ) from exc
        raise ParseError(f"unknown builtin hom {spec!r}")
    return formats.load_hom_json(spec)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report, payload, dot), where dot builds
# the DOT text on demand, or is None when there is no graph output


def cmd_verify(args):
    cat = make_category(args.instance, args.lattice)
    arrow = load_arrow(cat, args.arrow)
    dec = formats.load_decomposition_json(args.decomposition, cat)
    return verify_decomposition(cat, arrow, dec, resolve_tolerance(args)), {}, None


def cmd_separate(args):
    cat = make_category(args.instance, args.lattice)
    arrow = load_arrow(cat, args.arrow)
    if isinstance(cat, MatrixCategory):
        zero_tol = args.zero_tol if args.zero_tol is not None else DEFAULT_TOL_ABS
        partition, dec = detect_blocks(arrow, zero_tol)
    else:
        zero_tol = None
        partition, dec = separate_components(arrow)
    report = verify_decomposition(cat, arrow, dec, resolve_tolerance(args))
    payload = {
        "partition": formats.partition_to_dict(partition),
        "decomposition": formats.decomposition_to_dict(dec, cat),
        "zero_tol": zero_tol,
    }
    return report, payload, lambda: formats.partitioned_dot(partition, arrow)


def cmd_equitable(args):
    graph = formats.load_graph_edges(args.graph)
    if args.partition:
        partition = formats.load_partition_json(args.partition,
                                                tuple(range(graph.n)))
    else:
        partition = coarsest_equitable_partition(graph)
    quotient = reduced_transition_matrix(graph, partition)
    walk = walk_matrix(graph)
    residual = residual_part(walk, quotient)
    report = verify_quotient(quotient, walk, residual, resolve_tolerance(args))
    payload = {
        "cells": [list(cell) for cell in partition.cells],
        "degrees": quotient.degrees.tolist(),
        "reduced": quotient.reduced.values.tolist(),
        "walk": walk.values.tolist(),
        "residual": residual.values.tolist(),
    }
    return report, payload, lambda: formats.partitioned_dot(partition, graph)


def cmd_laws(args):
    if args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    if args.max_size is not None and args.max_size < 0:
        raise ParseError(f"--max-size must be non-negative, got {args.max_size}")
    cat = make_category(args.instance, args.lattice)
    if args.functor:
        hom = resolve_hom(args.functor, args.lattice)
        k = len(hom.source.elements)
        pairs = _exhaustive_pairs(k)
        if pairs > _MAX_FUNCTOR_PAIRS:
            raise ParseError(
                f"--functor: the exhaustive check over a {k}-element lattice "
                f"needs {pairs} pairs; at most {_MAX_FUNCTOR_PAIRS} are accepted")
    tol = resolve_tolerance(args)
    seed = resolve_seed(args)
    sampler = cat.default_sampler(args.max_size)
    report = run_law_suite(cat, sampler, trials=args.trials, tol=tol, seed=seed)
    if args.functor:
        functor = induced_functor(hom)
        report = report.merged(check_cmon_functor(
            functor, functor.source.default_sampler(args.max_size),
            trials=args.trials, tol=tol, seed=seed))
    return report, {}, None


def cmd_functor(args):
    hom = resolve_hom(args.hom, args.lattice)
    functor = induced_functor(hom)
    source_cat = functor.source
    target_cat = functor.target
    arrow = formats.load_relation_json(args.arrow, source_cat.algebra)
    dec = formats.load_decomposition_json(args.decomposition, source_cat)
    tol = resolve_tolerance(args)
    image, mapped = map_decomposition(functor, arrow, dec, tol)
    report = verify_decomposition(target_cat, image, mapped, tol)
    payload = {
        "hom": {
            "source": hom.source.name,
            "target": hom.target.name,
            "map": dict(zip(hom.source.elements, hom.target.spell(hom.mapping))),
        },
        "image_arrow": formats.relation_to_dict(image),
        "image_decomposition": formats.decomposition_to_dict(mapped, target_cat),
    }
    return report, payload, None


# ---------------------------------------------------------------------------
# parser and driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specat",
        description="verify and construct spectral decompositions of "
                    "endo-arrows over matrix and relation instances")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-abs", type=float, default=None)
    common.add_argument("--tol-rel", type=float, default=None)
    common.add_argument("--seed", type=int, default=None,
                        help="falls back to SPECAT_SEED, then 0")
    common.add_argument("--out", default=None, help="also write the report here")
    common.add_argument("--format", choices=("json", "text", "dot"),
                        default="json")
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock seconds in the report")

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--instance", required=True,
                          choices=("mat-r", "mat-c", "mat-nn", "rel", "rel-l"))
    instance.add_argument("--lattice", default=None,
                          help="path or builtin:bool|b4|chain:k (for rel-l)")

    p = sub.add_parser("verify", parents=[common, instance],
                       help="check a decomposition against an endo-arrow")
    p.add_argument("--arrow", required=True)
    p.add_argument("--decomposition", required=True)

    p = sub.add_parser("separate", parents=[common, instance],
                       help="split an endo-arrow along its support components")
    p.add_argument("--arrow", required=True)
    p.add_argument("--zero-tol", type=float, default=None,
                   help="magnitude below which a matrix entry counts as zero")

    p = sub.add_parser("equitable", parents=[common],
                       help="equitable partition and reduced walk matrix of a graph")
    p.add_argument("--graph", required=True, help="whitespace edge list, 0-based")
    p.add_argument("--partition", default=None,
                   help="validate this partition instead of computing one")

    p = sub.add_parser("laws", parents=[common, instance],
                       help="randomized law suite for an instance")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-size", type=int, default=None,
                   help="sampling bound on dimensions or carrier sizes")
    p.add_argument("--functor", default=None,
                   help="also check a hom-induced functor "
                        "(path or builtin:identity|upper:<element>)")

    p = sub.add_parser("functor", parents=[common],
                       help="map a decomposition through a lattice-hom functor")
    p.add_argument("--lattice", default=None,
                   help="source algebra for builtin homs")
    p.add_argument("--hom", required=True,
                   help="path or builtin:identity|upper:<element>")
    p.add_argument("--arrow", required=True)
    p.add_argument("--decomposition", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: building it takes about 1 ms."""
    return build_parser()


_JOB_FIELDS = ("subcommand", "instance", "lattice", "arrow", "decomposition",
               "graph", "partition", "hom", "functor", "trials", "max_size",
               "zero_tol", "tol_abs", "tol_rel", "seed", "format")


def _job_echo(args) -> dict:
    space = vars(args)
    job = {}
    for key in _JOB_FIELDS:
        if key == "seed":
            job[key] = resolve_seed(args)
        elif key in space:
            job[key] = space[key]
    return job


def render_text(report: dict) -> str:
    lines = [f"{report['job']['subcommand']}: "
             f"{'pass' if report['passed'] else 'FAIL'}"]
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        lines.append(f"  {status} {check['law']} "
                     f"(trials={check['trials']}, "
                     f"max_residual={check['max_residual']:g})")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the handler is looked up per call, not kept by the parser
    handler = globals()["cmd_" + args.subcommand]
    try:
        started = time.perf_counter()
        law_report, payload, dot = handler(args)
        elapsed = time.perf_counter() - started
        report = {
            "schema": SCHEMA,
            "job": _job_echo(args),
            "passed": law_report.passed,
            "checks": law_report.to_dict()["checks"],
            "payload": payload,
            "timing_seconds": elapsed if args.timing else None,
        }
        if args.format == "dot":
            if dot is None:
                raise ParseError(
                    f"{args.subcommand} has no graph output for --format dot")
            text = dot()
        elif args.format == "text":
            text = render_text(report)
        else:
            text = formats.canonical_json(report)
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
        return EXIT_PASS if report["passed"] else EXIT_FAIL
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SpecatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:
        # numpy's message names the shape and dtype it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
