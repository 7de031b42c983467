"""Job runner: one fresh process that imports specat and runs a manifest.

``run.py`` starts this script; it is not meant to be run by hand.  With
``--setup-only`` it times ``import specat`` plus resolving the workload's
lattices and homs, prints the seconds and exits.  Otherwise it replays the
manifest's job cycles in a closed loop (one job at a time, each started when
the previous one returned), checks every output, and writes per-job records,
the peak resident memory and, when traced, the spans and layer metrics.

No numpy or specat import happens before the set-up clock starts, so
``setup_s`` includes them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# Every timed phase ends on a cycle boundary, once it has run its seconds
# and at least MIN_JOBS jobs, so that at least ten samples lie beyond the
# TAIL_PERCENTILE-th percentile reported as job_s_tail.
TAIL_PERCENTILE = 75
MIN_JOBS = 40


def resolve_setup(setup: dict) -> None:
    from specat import cli, formats

    for lattice in setup["lattices"]:
        formats.resolve_lattice(f"builtin:{lattice}")
    for lattice, hom in setup["homs"]:
        cli.resolve_hom(f"builtin:{hom}", f"builtin:{lattice}")


def reference_s() -> float:
    """Seconds for a fixed mix of interpreter, small-numpy and allocation work.

    Nothing of specat runs here; the time tracks how fast the machine is at
    the moment, so that run.py can correct job times for load from
    elsewhere.
    """
    import numpy as np

    t0 = perf_counter()
    total = 0
    for i in range(10000):
        total += i * i % 7
    values = np.arange(256.0)
    for _ in range(50):
        values = np.maximum(values * 0.5, values[::-1])
    json.dumps(np.arange(8000.0).reshape(40, 200).tolist())
    return perf_counter() - t0


def run_job(job: dict) -> tuple[object, str, str, float]:
    """Run one job; return (exit code, stdout, stderr, seconds)."""
    import specat
    from specat import cli, functors

    out, err = io.StringIO(), io.StringIO()
    if job["argv"] is not None:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = cli.main(job["argv"])
            seconds = perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), seconds
    call = job["call"]
    algebra = specat.relations.b4()
    t0 = perf_counter()
    functor = functors.induced_functor(
        functors.principal_filter_hom(algebra, call["element"]))
    report = functors.check_cmon_functor_exhaustive(
        functor, max_cells=call["max_cells"])
    seconds = perf_counter() - t0
    text = json.dumps({"passed": report.passed, "payload": {},
                       "checks": report.to_dict()["checks"]})
    return (0 if report.passed else 1), text, "", seconds


class Phase:
    """Closed-loop replay of the job cycles, with output checks paused out."""

    def __init__(self, cycles: list[list[dict]], recorder=None):
        self.cycles = cycles
        self.recorder = recorder
        self.records: list[dict] = []
        self.wall = 0.0

    def run(self, seconds: float, min_jobs: int, max_cycles: int | None = None,
            first_id: int = 0) -> "Phase":
        from checks import check_output

        checking = 0.0
        started = perf_counter()
        cycle = 0
        while True:
            for index, job in enumerate(self.cycles[cycle % len(self.cycles)]):
                job_id = first_id + len(self.records)
                if self.recorder is not None:
                    self.recorder.job_id = job_id
                try:
                    code, out, err, elapsed = run_job(job)
                except Exception as exc:  # a crash counts as a failed job
                    code, out, err, elapsed = None, "", repr(exc), float("nan")
                mark = perf_counter()
                if self.recorder is not None:
                    self.recorder.job_id = -1
                reason = check_output(job, code, out, err)
                ref = reference_s()
                self.records.append({
                    "id": job_id, "cycle": cycle, "index": index,
                    "kind": job["kind"], **job["meta"],
                    "expected_exit": job["expect"]["exit"], "exit": code,
                    "seconds": elapsed, "ref_s": ref, "ok": reason is None,
                    "reason": reason})
                checking += perf_counter() - mark
            cycle += 1
            if max_cycles is not None:
                if cycle >= max_cycles:
                    break
            elif (perf_counter() - started - checking >= seconds
                  and len(self.records) >= min_jobs):
                break
        self.wall = perf_counter() - started - checking
        self.cycles_run = cycle
        return self

    @property
    def jobs_per_s(self) -> float:
        return len(self.records) / self.wall

    @property
    def median_ref_s(self) -> float:
        return statistics.median(r["ref_s"] for r in self.records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    manifest = json.loads(Path(args.manifest).read_text())

    t0 = perf_counter()
    import specat

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install(specat)
    resolve_setup(manifest["setup"])
    setup_s = perf_counter() - t0
    if args.setup_only:
        ref_s = sorted(reference_s() for _ in range(5))[2]
        print(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))
        return 0

    cycles = manifest["cycles"]
    result = {"setup_s": setup_s}
    if recorder is None:
        phase = Phase(cycles).run(args.seconds, MIN_JOBS)
        result["phases"] = {"timed": phase.records}
        result["timed"] = {"wall_s": phase.wall, "jobs_per_s": phase.jobs_per_s,
                           "cycles": phase.cycles_run}
    else:
        from spans import layer_metrics

        recorder.uninstall()
        plain = Phase(cycles).run(args.seconds / 3, 0)
        recorder.install(specat)
        traced = Phase(cycles, recorder).run(
            0, 0, max_cycles=plain.cycles_run, first_id=len(plain.records))
        recorder.uninstall()
        layers = layer_metrics(recorder, [r["id"] for r in traced.records])
        # both rates corrected for machine speed, as run.py does for jobs_per_s
        layers["trace.overhead"] = (traced.jobs_per_s * traced.median_ref_s
                                    / (plain.jobs_per_s * plain.median_ref_s))
        result["phases"] = {"untraced": plain.records, "traced": traced.records}
        result["layers"] = layers
        if args.spans:
            recorder.save(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
