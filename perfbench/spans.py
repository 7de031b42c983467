"""Span recorder for the traced run.

``Recorder.install`` wraps, from outside the package, every public function
of the seven specat modules (and every name another specat module imported
from them, such as ``verify_decomposition`` inside ``specat.cli``), plus the
kernel methods listed in ``METHODS`` at class level.  Each call becomes a
span ``(name, start, end, parent, job)`` kept in flat arrays in memory and
written out once at the end.  ``layer_metrics`` turns the spans into the
per-layer metrics; a span's self time is its duration minus that of its
direct children, so the self times of one job add up to the job's time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

MODULES = ("cli", "formats", "relations", "matrices", "core", "spectral",
           "functors")

# (module, class, method, span name)
METHODS = (
    ("relations", "LRelation", "__matmul__", "relations.compose"),
    ("relations", "LRelation", "__or__", "relations.join"),
    ("relations", "LRelation", "__init__", "relations.arrow_new"),
    ("relations", "RelationCategory", "equal", "relations.equal"),
    ("relations", "RelationCategory", "describe_arrow", "relations.describe"),
    ("relations", "HeytingTable", "__init__", "relations.table_build"),
    ("matrices", "ScalarMatrix", "__matmul__", "matrices.compose"),
    ("matrices", "ScalarMatrix", "__add__", "matrices.add"),
    ("matrices", "ScalarMatrix", "__init__", "matrices.arrow_new"),
    ("matrices", "MatrixCategory", "equal", "matrices.equal"),
    ("matrices", "MatrixCategory", "describe_arrow", "matrices.describe"),
    ("functors", "SemiadditiveFunctor", "apply_arrow", "functors.apply_arrow"),
)


def _law_trials(report) -> int:
    return sum(check.trials for check in report.checks)


def _file_bytes(args) -> int:
    return os.path.getsize(args[0]) if args and isinstance(args[0], str) else 0


# Work counted at a span boundary: span name -> (counter, f(args, result)).
WORK = {
    "relations.compose": ("relations.compose_cell_ops", lambda a, r: (
        len(a[0].target) * len(a[0].source) * len(a[1].source))),
    "matrices.compose": ("matrices.compose_flops", lambda a, r: (
        2 * a[0].rows * a[0].cols * a[1].cols)),
    "spectral.verify_decomposition": ("spectral.verify_laws",
                                      lambda a, r: len(r.checks)),
    "spectral.separate_components": ("spectral.split_blocks",
                                     lambda a, r: len(r[1].blocks)),
    "spectral.detect_blocks": ("spectral.split_blocks",
                               lambda a, r: len(r[1].blocks)),
    "spectral.coarsest_equitable_partition": ("spectral.refine_cells",
                                              lambda a, r: len(r.cells)),
    "core.run_law_suite": ("core.law_checks", lambda a, r: _law_trials(r)),
    "functors.check_cmon_functor": ("functors.check_laws",
                                    lambda a, r: _law_trials(r)),
    "functors.check_cmon_functor_exhaustive": ("functors.check_laws",
                                               lambda a, r: _law_trials(r)),
    "formats.canonical_json": ("formats.out_bytes", lambda a, r: len(r)),
}
for _loader in ("load_matrix_csv", "load_relation_json", "load_decomposition_json",
                "load_graph_edges", "load_partition_json", "load_hom_json"):
    WORK[f"formats.{_loader}"] = ("formats.parse_bytes",
                                  lambda a, r: _file_bytes(a))


class Recorder:
    """Spans of wrapped calls, in flat arrays indexed by span number."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[str, int], float] = {}
        self.job_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        work = WORK.get(span_name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.job.append(rec.job_id)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec._stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec._stack.pop()
                rec.start[i] = t0
                rec.end[i] = t1
            if work is not None:
                key = (work[0], rec.job_id)
                rec.counters[key] = rec.counters.get(key, 0) + work[1](args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the package's public functions and the kernel methods."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        # rebind every reference, including names imported into other modules
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(module, attr, wrappers[id(obj)])
        for short, cls_name, method, span_name in METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, method, self._wrap(span_name, vars(cls)[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "job": np.array(self.job, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _within(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each span, whether some proper ancestor is in ``mask``."""
    has_parent = parent >= 0
    up = np.where(has_parent, parent, 0)
    inside = has_parent & mask[up]
    up = np.where(has_parent, up, -1)
    while np.any(up >= 0):
        live = up >= 0
        nxt = np.where(live, up, 0)
        inside = inside | (live & inside[nxt])
        up = np.where(live, up[nxt], -1)
    return inside


def layer_metrics(rec: Recorder, jobs: list[int]) -> dict[str, float]:
    """Per-layer metrics, averaged per traced job, plus set-up table builds.

    ``jobs`` are the job ids of the traced phase; spans with job id -1 come
    from set-up.
    """
    a = rec.arrays()
    name = a["name"]
    dur = a["end"] - a["start"]
    parent = a["parent"].astype(np.int64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    in_jobs = np.isin(a["job"], jobs)
    count = max(len(jobs), 1)
    job_set = set(jobs)

    def is_(*targets):
        return np.isin(name, [rec._ids.get(t, -1) for t in targets])

    def total(mask, values=dur):
        return float(values[mask & in_jobs].sum()) / count

    def calls(mask):
        return float(np.count_nonzero(mask & in_jobs)) / count

    def outermost(mask):
        return mask & ~_within(parent, mask)

    def counter(key):
        return sum(v for (k, j), v in rec.counters.items()
                   if k == key and j in job_set) / count

    module_of = np.array([n.split(".")[0] for n in rec.names] + [""])
    module = module_of[name]
    job_s = float(dur[(parent < 0) & in_jobs].sum()) / count
    verify = is_("spectral.verify_decomposition")
    compose = is_("relations.compose", "matrices.compose")
    parse = outermost(is_(*(n for n in rec.names if n.startswith("formats.load_"))))
    serialize = outermost(is_("formats.canonical_json", "formats.partitioned_dot",
                              "formats.decomposition_to_dict",
                              "formats.partition_to_dict",
                              "formats.relation_to_dict"))
    functor_check = is_("functors.check_cmon_functor",
                        "functors.check_cmon_functor_exhaustive")
    m = {
        "relations.compose_calls": calls(is_("relations.compose")),
        "relations.compose_s": total(is_("relations.compose")),
        "relations.compose_cell_ops": counter("relations.compose_cell_ops"),
        "relations.table_build_s": float(
            dur[is_("relations.table_build") & (a["job"] == -1)].sum()),
        "relations.join_calls": calls(is_("relations.join")),
        "relations.join_s": total(is_("relations.join")),
        "relations.arrow_new_calls": calls(is_("relations.arrow_new")),
        "relations.arrow_new_s": total(is_("relations.arrow_new")),
        "relations.equal_s": total(is_("relations.equal")),
        "relations.describe_s": total(is_("relations.describe")),
        "matrices.compose_calls": calls(is_("matrices.compose")),
        "matrices.compose_s": total(is_("matrices.compose")),
        "matrices.compose_flops": counter("matrices.compose_flops"),
        "matrices.add_s": total(is_("matrices.add")),
        "matrices.arrow_new_s": total(is_("matrices.arrow_new")),
        "matrices.equal_s": total(is_("matrices.equal")),
        "matrices.describe_s": total(is_("matrices.describe")),
        "spectral.verify_calls": calls(verify),
        "spectral.verify_s": total(verify),
        "spectral.verify_self_s": total(verify, self_time),
        "spectral.verify_laws": counter("spectral.verify_laws"),
        "spectral.verify_composes": calls(compose & _within(parent, verify)),
        "spectral.split_s": total(is_("spectral.separate_components",
                                      "spectral.detect_blocks")),
        "spectral.split_blocks": counter("spectral.split_blocks"),
        "spectral.refine_s": total(is_("spectral.coarsest_equitable_partition")),
        "spectral.refine_cells": counter("spectral.refine_cells"),
        "spectral.quotient_s": total(outermost(is_(
            "spectral.reduced_transition_matrix", "spectral.walk_matrix",
            "spectral.residual_part"))),
        "formats.parse_s": total(parse),
        "formats.parse_mb": counter("formats.parse_bytes") / 1e6,
        "formats.serialize_s": total(serialize),
        "formats.out_mb": counter("formats.out_bytes") / 1e6,
        "core.law_suite_s": total(is_("core.run_law_suite")),
        "core.law_suite_self_s": total(is_("core.run_law_suite"), self_time),
        "core.law_checks": counter("core.law_checks"),
        "core.derived_s": total(outermost(is_(
            "core.pair", "core.copair", "core.oplus", "core.sum_via_biproduct",
            "core.fold_biproduct"))),
        "functors.check_s": total(functor_check),
        "functors.check_self_s": total(functor_check, self_time),
        "functors.check_laws": counter("functors.check_laws"),
        "functors.map_s": total(is_("functors.map_decomposition")),
        "functors.apply_calls": calls(is_("functors.apply_arrow")),
    }
    m["relations.compose_ops_per_s"] = (
        m["relations.compose_cell_ops"] / m["relations.compose_s"]
        if m["relations.compose_s"] else 0.0)
    m["formats.serialize_mb_per_s"] = (
        m["formats.out_mb"] / m["formats.serialize_s"]
        if m["formats.serialize_s"] else 0.0)
    for short in MODULES:
        m[f"{short}.self_s"] = total(module == short, self_time)
    m["trace.job_s"] = job_s
    covered = sum(m[f"{short}.self_s"] for short in MODULES)
    if abs(covered - job_s) > 1e-9 * max(job_s, 1.0):
        raise RuntimeError(f"self times add up to {covered}, not the job time {job_s}")
    return m
