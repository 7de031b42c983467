"""Self-test of the benchmark at tiny sizes; takes under a minute.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that generation is a pure function
of the seed, that every metric BENCHMARK.json names is printed with its unit
in both modes on every workload, and that an output deliberately mislabelled
as valid is counted as a failure.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def tiny_generate(workload, seed, outdir):
    return workloads.generate(workload, seed, outdir, tiny=True)


def run_tiny(workload: str, trace: int, generate=tiny_generate) -> list[str]:
    run.generate = generate
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0, f"{workload} trace={trace} exited {code}"
    return out.getvalue().splitlines()


def check_determinism() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            dirs = [Path(tmp) / workload / name for name in ("a", "b", "c")]
            manifests = [
                json.dumps(workloads.generate(workload, seed, path, tiny=True))
                .replace(str(path), "")
                for path, seed in zip(dirs, (3, 3, 4))]
            assert manifests[0] == manifests[1], f"{workload}: same seed, other jobs"
            assert manifests[0] != manifests[2], f"{workload}: other seed, same jobs"
            files = sorted(p.name for p in dirs[0].iterdir())
            if not files:  # laws jobs are argv only
                continue
            same = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
            assert same[0] == files, f"{workload}: same seed, different inputs"
            other = filecmp.cmpfiles(dirs[0], dirs[2], files, shallow=False)
            assert other[0] != files, f"{workload}: other seed, same inputs"


def check_metrics_printed() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in workloads.WORKLOADS:
            lines = run_tiny(workload, trace)
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0, (workload, lines)
            for metric in spec[key]:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], (workload, metric, got)
                assert [metric["name"], metric["unit"]] in (
                    line.split()[0:3:2] for line in lines), (workload, metric["name"])
            assert set(result["metrics"]) == {m["name"] for m in spec[key]}
            assert any(line.split()[:1] == ["fail_ratio"] for line in lines)


def check_mislabelled_output_fails() -> None:
    def generate(workload, seed, outdir):
        """Tiny inputs with each failing verify job relabelled as valid."""
        manifest = tiny_generate(workload, seed, outdir)
        for cycle in manifest["cycles"]:
            job = next(j for j in cycle if j["expect"]["exit"] == 1)
            job["expect"] = {"exit": 0}
        return manifest

    lines = run_tiny("rel-decompose", 0, generate)
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0, lines[-1]
    failures = [l for l in lines if l.startswith("FAILED")]
    assert len(failures) == result["failed"], failures
    assert all("exit 1, expected 0" in l for l in failures), failures
    ratio = next(float(l.split()[1]) for l in lines if l.split()[:1] == ["fail_ratio"])
    assert abs(ratio - result["failed"] / result["attempted"]) < 1e-5, ratio


def main() -> int:
    check_determinism()
    check_mislabelled_output_fails()
    check_metrics_printed()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
