"""spherefield benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each workload runs in a fresh Python
process (worker.py) that imports spherefield from the checkout's src/.
Set-up is measured SETUPS times, each in its own fresh process that
scales its own time to reference speed, and reported as the median. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The lines before it
give the environment and every failed task with its seed and exception.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUPS = 5         # fresh processes whose set-up time is measured
BUDGET_S = 170     # for all processes of one run, which must end within 180 s

# Workload and metric names, and units, are those declared in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its result object."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(time.time()), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=deadline - time.monotonic())
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("@@result ")]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: worker exited {proc.returncode} without a result")
    return json.loads(lines[-1][len("@@result "):])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + BUDGET_S
    setups = [spawn(args, ["--setup-only"], deadline) for _ in range(SETUPS - 1)]
    res = spawn(args, [], deadline)
    setups.append(res)

    print(json.dumps({"env": res["env"],
                      "cycle_tasks": res["cycle_done"],
                      "cycle_busy_s": res["cycle_busy_s"],
                      "reference_s": res["reference_s"],
                      "setup_wall_s_each": [s["setup_wall_s"] for s in setups],
                      "setup_ref_s_each": [s["setup_ref_s"] for s in setups],
                      "setup_s_each": [s["setup_s"] for s in setups]}))
    for f in res["failures"]:
        print(json.dumps({"failed_task": f}))
    for p in res.get("growth_probe", []):
        print(json.dumps({"growth_probe_48": p}))

    if args.trace:
        values = dict(res["per_layer"])
        values["import.spherefield_s"] = statistics.median(s["import_s"] for s in setups)
        declared = SPEC["per_layer"]
    else:
        values = {
            "tasks_per_s": res["tasks_per_s"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        declared = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
