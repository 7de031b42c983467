"""specat benchmark: one closed-loop client driving the specat CLI in-process.

    python3 perfbench/run.py --workload rel-decompose --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run generates its inputs from
``--seed`` under ``.perfbench-runs/``, times set-up in fresh processes, then
starts one worker process that replays the job cycles for ``--seconds``
seconds and checks every output.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced replay; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate  # noqa: E402
from worker import TAIL_PERCENTILE  # noqa: E402

# Set-up is timed in fresh processes until both minimums are met.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 1.5, 9
WORKER_TIMEOUT_S = 150
# One BLAS thread: the machine is shared and small, and one client in one
# process is the load being modelled.
BLAS_THREADS = 1

# The reference work (worker.reference_s) takes this long on the machine the
# benchmark was built on when it is not slowed by other load.
REFERENCE_NOMINAL_S = 0.003

UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_s_p50": "s", "job_s_tail": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if name == "relations.table_build_s":
        return "s"
    if name == "relations.compose_ops_per_s":
        return "1/s"
    if name == "formats.serialize_mb_per_s":
        return "MB/s"
    if name.endswith("_s"):
        return "s/job"
    if name.endswith("_mb"):
        return "MB/job"
    return "count/job"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], env=worker_env(),
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=True)


def provenance(seed: int, workload: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(Path("src/specat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10).stdout.strip() or None
    except OSError:
        revision = None
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "git_revision": revision, "source_sha256": digest.hexdigest(),
    }


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated p-th percentile of the samples."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(result: dict, setups: list[dict]) -> tuple[dict, dict, str]:
    """Speed-corrected end-to-end metrics, the raw ones, and a note.

    The machine this was built on is shared: identical work took up to 1.8x
    longer from one minute to the next.  So every job time is multiplied by
    the machine's speed around that job (the nominal reference time over the
    median of the reference times taken after it, the two jobs before it and
    the two after it), and every set-up by the speed measured in its own
    process.  This removes the machine's drift and leaves every change in
    the program's own speed in place.
    """
    timed = [r for r in result["phases"]["timed"] if math.isfinite(r["seconds"])]
    refs = [r["ref_s"] for r in timed]
    local = [statistics.median(refs[max(0, i - 2):i + 3]) for i in range(len(refs))]
    raw_times = [r["seconds"] for r in timed] or [0.0]
    times = [r["seconds"] * REFERENCE_NOMINAL_S / ref
             for r, ref in zip(timed, local)] or [0.0]
    slowdown = sum(raw_times) / sum(times) if sum(times) else 1.0
    beyond = sum(t > percentile(times, TAIL_PERCENTILE) for t in times)
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "jobs_per_s": result["timed"]["jobs_per_s"],
        "job_s_p50": percentile(raw_times, 50),
        "job_s_tail": percentile(raw_times, TAIL_PERCENTILE),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics = {
        "setup_s": statistics.median(
            s["setup_s"] * REFERENCE_NOMINAL_S / s["ref_s"] for s in setups),
        "jobs_per_s": raw["jobs_per_s"] * slowdown,
        "job_s_p50": percentile(times, 50),
        "job_s_tail": percentile(times, TAIL_PERCENTILE),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    note = (f"job_s_tail is p{TAIL_PERCENTILE} of {len(times)} samples, "
            f"{beyond} beyond it; machine at {1 / slowdown:.3f} of nominal speed")
    return metrics, raw, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/specat/cli.py").is_file():
        print("error: run from the root of a specat checkout "
              "(src/specat/cli.py not found)", file=sys.stderr)
        return 2

    run_dir = Path(".perfbench-runs") / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    manifest = generate(args.workload, args.seed, inputs)
    manifest_path = run_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    try:
        setups = []
        if not args.trace:
            while len(setups) < SETUP_MAX_REPEATS and (
                    len(setups) < SETUP_MIN_REPEATS
                    or sum(s["setup_s"] for s in setups) < SETUP_MIN_SECONDS):
                done = run_worker(["--manifest", str(manifest_path), "--setup-only"])
                setups.append(json.loads(done.stdout))
        result_path = run_dir / "result.json"
        run_worker(["--manifest", str(manifest_path), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--result", str(result_path),
                    "--spans", str(run_dir / "spans.npz")])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}\n{exc.stderr}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        manifest_path.unlink(missing_ok=True)
    result = json.loads(result_path.read_text())

    records = [r for phase in result["phases"].values() for r in phase]
    failed = sum(not r["ok"] for r in records)
    if args.trace:
        metrics = raw = result["layers"]
        units = {name: layer_unit(name) for name in metrics}
        note = (f"traced {len(result['phases']['traced'])} jobs; "
                f"trace.overhead = traced / untraced jobs_per_s")
    else:
        metrics, raw, note = end_to_end(result, setups)
        units = UNITS
    summary = {
        "provenance": provenance(args.seed, args.workload),
        "fail_ratio": failed / len(records), "note": note, "metrics": metrics,
        "raw_metrics": raw,
        "setup_samples": setups, "jobs": records,
    }
    (run_dir / "records.json").write_text(json.dumps(summary, indent=1))

    for record in records:
        if not record["ok"]:
            print(f"FAILED job {record['id']} ({record['kind']}): {record['reason']}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {note}")
    for name, value in metrics.items():
        extra = f"  (raw {raw[name]:.6g})" if raw[name] != value else ""
        print(f"  {name:32s} {value:14.6g} {units[name]}{extra}")
    print(f"  {'fail_ratio':32s} {failed / len(records):14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
