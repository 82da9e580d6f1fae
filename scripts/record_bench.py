"""Record one perf data point: every benchmark workload, untraced and traced.

Run from anywhere inside a checkout:

    python3 scripts/record_bench.py --out BENCH_<n>.json

It runs `perfbench/run.py` once per workload named in BENCHMARK.json, with
`--trace 0` (end-to-end metrics) and `--trace 1` (per-layer metrics), one
run at a time, every run with seed 1 and BENCHMARK.json's `run_seconds`, so
that any two such files were recorded under the same conditions. The JSON
file it writes holds, per run, the last stdout line of `run.py` (its result
object), the run's wall time and exit code, plus the host's usable cores,
the Python, numpy and scipy versions and the git commit of the checkout with
the paths that differ from it. Nothing here is timed inside the library;
compare two such files from the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.rstrip()  # porcelain lines start with a space


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _run(workload: str, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"workload": workload, "trace": trace, "seed": SEED, "seconds": seconds,
            "exit_code": proc.returncode, "wall_s": round(wall, 3), "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="file to write, e.g. BENCH_<n>.json")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            runs.append(_run(workload, spec["run_seconds"], trace))
            r = runs[-1]
            print(f"{workload} --trace {trace}: exit {r['exit_code']}, {r['wall_s']} s",
                  file=sys.stderr)
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "modified_paths": None if dirty is None else [ln[3:] for ln in dirty.splitlines()],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "versions": _versions(),
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if all(r["exit_code"] == 0 and r["result"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
