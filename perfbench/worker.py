"""One workload in one fresh process: set up, run the timed phase, gate, report.

Started by run.py, never by hand. The last stdout line is `@@result` and a
JSON object. With --setup-only the process stops once its first inputs
exist and its set-up is scaled, so that run.py can take the median of
several set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Stop measuring after the cycle that crosses this wall-clock limit, so a
# run ends well inside the 180 s it is given even on a slow machine.
WALL_LIMIT_S = 100.0

# The speed of a shared host drifts: on the 2-core VM this benchmark was
# written on, the same inputs ran 40% slower a few minutes later. A fixed
# reference kernel is timed before a cycle's first task and after every
# task, outside the timed intervals. Each task's seconds are multiplied by
# REF_NOMINAL_S / the mean of the reference times just before and after it,
# giving the figures of a host on which the kernel takes REF_NOMINAL_S.
# Each process scales its own set-up time the same way, by the median of
# SETUP_REFS reference times taken right after its set-up.
REF_NOMINAL_S = 0.010
SETUP_REFS = 5


class Reference:
    """Fixed work that is not spherefield code: big-integer arithmetic, dict
    updates and a numpy reduction over 8 MB. Of the kernels tried, this mix
    tracked the host's slowdowns best on every workload; a kernel of pure
    Python, even the gate oracle's own elimination, tracked them worst."""

    def __init__(self):
        import numpy as np

        self.big, self.mod = 3**400, 7**380
        self.array = np.random.default_rng(0).standard_normal(1 << 20)

    def seconds(self) -> float:
        """The faster of two back-to-back runs: the first run after a task
        can pay for memory the task freed."""
        return min(self._once(), self._once())

    def _once(self) -> float:
        start = time.perf_counter()
        acc = 1
        for i in range(600):
            acc = (acc * self.big + i) % self.mod
        counts: dict[int, int] = {}
        for i in range(20000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(4):
            self.array.sum()
        return time.perf_counter() - start


def import_spherefield():
    """Import spherefield from this checkout's src/, and from nowhere else."""
    if not (SRC / "spherefield" / "__init__.py").is_file():
        raise SystemExit(f"error: no spherefield sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spherefield

    if Path(spherefield.__file__).resolve().parent != SRC / "spherefield":
        raise SystemExit(f"error: spherefield imported from {spherefield.__file__}")


def cycle_rng(seed: int, cycle: int):
    # numpy is imported inside functions only, after spherefield, so that
    # the measured import time of spherefield includes its numpy import
    import numpy as np

    return np.random.default_rng([seed, cycle])


def run_cycle(wl, rec, counters, inputs, failures, cycle_seed, ref, ref_times):
    """Run every task of one cycle, appending reference times to ref_times.
    Returns (succeeded, attempted, busy seconds, busy seconds at reference
    speed)."""
    import spherefield as sf
    from workloads import GateError

    ok = busy = scaled = 0
    before = ref.seconds()
    ref_times.append(before)
    for task in wl.tasks:
        rec.begin_task(task.name)
        start = time.perf_counter()
        try:
            out, err = task.run(rec, inputs), None
        except sf.SphereFieldError as exc:
            err = exc
        took = time.perf_counter() - start
        rec.end_task()
        after = ref.seconds()
        ref_times.append(after)
        busy += took
        scaled += took * REF_NOMINAL_S / ((before + after) / 2)
        before = after
        if err is None:
            try:
                task.check(inputs, out, counters)
            except GateError as exc:
                err = exc
        out = None  # so that the next task runs without this output in memory
        if err is None:
            ok += 1
        else:
            failures.append({"task": task.name, "cycle_seed": cycle_seed,
                             "error": type(err).__name__, "message": str(err)})
    return ok, len(wl.tasks), busy, scaled


def per_layer(names, rec, counters, cycles):
    """Per-layer metrics per cycle, from spans and gate counters."""
    self_s, calls = rec.self_seconds(), rec.call_counts()
    failed = rec.call_counts(failed=True)
    out = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if stat == "s":
            out[name] = self_s.get(layer, 0.0) / cycles
        elif stat == "calls":
            out[name] = calls.get(layer, 0) / cycles
        elif stat == "failed":
            out[name] = failed.get(layer, 0) / cycles
        elif stat.endswith("_per_s"):
            busy = self_s.get(layer, 0.0)
            out[name] = counters.sums.get(layer + ".work", 0) / busy if busy else 0.0
        elif stat.startswith("max_"):
            out[name] = counters.maxima.get(name, 0)
        else:
            out[name] = counters.sums.get(name, 0) / cycles
    return out


def blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return f"default ({len(os.sched_getaffinity(0))}, one per usable core)"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="non-negative")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.time() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import_spherefield()
    import_s = time.perf_counter() - t0

    import numpy as np
    import scipy

    from spans import Counters, Recorder, Untraced
    from workloads import WORKLOADS, growth_probe

    wl = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix="perfbench-tmp-", dir=ROOT)
    try:
        inputs = wl.make_inputs(cycle_rng(args.seed, 0), workdir)
        setup_wall_s = time.time() - args.spawned_at
        ref = Reference()
        setup_ref_s = statistics.median(ref.seconds() for _ in range(SETUP_REFS))
        result = {"setup_wall_s": setup_wall_s, "setup_ref_s": setup_ref_s,
                  "setup_s": setup_wall_s * REF_NOMINAL_S / setup_ref_s,
                  "import_s": import_s}
        if args.setup_only:
            print("@@result " + json.dumps(result), flush=True)
            return 0

        failures: list[dict] = []
        counters = Counters()
        rec = Recorder() if args.trace else Untraced()
        # per cycle: tasks succeeded, timed seconds, and those at reference speed
        done, busy_s, scaled_s, ref_times = [], [], [], []
        untraced_done, untraced_scaled_s = [], []
        attempted = cycle = 0
        if args.trace:
            # An untraced warm-up cycle, so that neither pass of the first
            # cycle pays for the process's first allocations. Its tasks
            # count as attempted, and its failures are reported.
            _, attempted, _, _ = run_cycle(wl, Untraced(), Counters(), inputs, failures,
                                           [args.seed, 0], ref, [])
            inputs = wl.make_inputs(cycle_rng(args.seed, 0), workdir)

        def untraced_pass() -> int:
            """The current cycle again, untraced, on fresh copies of its inputs."""
            fresh = wl.make_inputs(cycle_rng(args.seed, cycle), workdir)
            ok, att, _, scaled = run_cycle(wl, Untraced(), Counters(), fresh, failures,
                                           [args.seed, cycle], ref, ref_times)
            untraced_done.append(ok)
            untraced_scaled_s.append(scaled)
            return att

        wall_start = time.perf_counter()
        while True:
            # in a traced run, the two passes of a cycle take turns at going first
            if args.trace and cycle % 2:
                attempted += untraced_pass()
            ok, att, busy, scaled = run_cycle(wl, rec, counters, inputs, failures,
                                              [args.seed, cycle], ref, ref_times)
            attempted += att
            done.append(ok)
            busy_s.append(busy)
            scaled_s.append(scaled)
            if args.trace and not cycle % 2:
                attempted += untraced_pass()
            cycle += 1
            if sum(busy_s) >= args.seconds or time.perf_counter() - wall_start > WALL_LIMIT_S:
                break
            inputs = wl.make_inputs(cycle_rng(args.seed, cycle), workdir)

        result.update(
            attempted=attempted,
            failed=len(failures),
            correct=not any(f["error"] == "GateError" for f in failures),
            failures=failures,
            cycle_done=done,
            cycle_busy_s=busy_s,
            reference_s=ref_times,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            env={
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas_threads": blas_threads(),
            },
        )
        if args.trace:
            # import time comes from all of the run's set-ups, in run.py
            names = [m["name"] for m in SPEC["per_layer"]
                     if m["name"] != "import.spherefield_s"]
            layers = per_layer(names, rec, counters, cycle)
            layers["trace.overhead_frac"] = 1 - (sum(done) / sum(scaled_s)) / (
                sum(untraced_done) / sum(untraced_scaled_s))
            if wl.name == "chain-grow":
                # a key no cycle uses, so the probe seeds differ from the tasks'
                probe = growth_probe(cycle_rng(args.seed, 2**32 - 1))
                result["growth_probe"] = probe
                layers["builder.grow_chain.at48_failed_frac"] = (
                    sum(p["error"] is not None for p in probe) / len(probe))
            result["per_layer"] = layers
        else:
            result["tasks_per_s"] = sum(done) / sum(scaled_s)
        print("@@result " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
