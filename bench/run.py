"""ngc-lab benchmark: three workloads, each timed end to end or traced by layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own
single-threaded process (``workloads.py``).  Set-up time is the median of
five processes timed from start until the package is imported and the fixed
inputs are built: four that stop there, and the measuring process itself.

The last line on stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are setup_s,
trials_per_s and peak_rss_mb; with ``--trace 1`` they are the per-layer
metrics of a run with every public ngc_lab layer function wrapped.  With
``--workload all`` (the default) the three workloads run in turn and the last
line maps each name to its object.  Each run's full record goes to
``bench/out/``.  Exit status: 0 when every check passed, 1 when a check
failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("large-instances", "tiny-draws", "claim-suites")
SETUP_SAMPLES = 5
CHILD_GRACE_S = 150  # beyond --seconds: warm-up round, last round, checks
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a workload process; return it and its seconds until READY."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    env = {**os.environ, **SINGLE_THREAD}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process did not start (exit {proc.returncode}): {' '.join(cmd)}")
    return proc, ready


def wait(proc: subprocess.Popen, timeout: float, what: str) -> str:
    """Collect a process's stdout; kill it if it outlives `timeout`."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} ran past {timeout}s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = spawn([*common, "--setup-only"])
        wait(proc, CHILD_GRACE_S, f"set-up process for {name}")
        setups.append(ready)
    proc, ready = spawn([*common, "--trace", str(trace)])
    setups.append(ready)
    out = wait(proc, seconds + CHILD_GRACE_S, name)
    if not out.strip():
        raise BenchError(f"{name} printed no result")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_samples_s"] = setups
    if trace:
        metrics = report["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "trials_per_s": {"value": report["trials_per_s"], "unit": "trials/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = {"argv": sys.argv, "nproc": os.cpu_count(), "result": result, "detail": report}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for msg in report["failures"]:
        print(f"{name}: FAIL: {msg}", file=sys.stderr)
    if report["failure_count"] > len(report["failures"]):
        print(f"{name}: ... {report['failure_count']} failures in all", file=sys.stderr)
    if trace:
        print(f"{name}: traced trials_per_s {report['trials_per_s']:.6g}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="ngc-lab benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ngc_lab" / "__init__.py").is_file():
        print(f"bench: no ngc_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name, result in results.items():
            print(f"{name}: {json.dumps(result)}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
