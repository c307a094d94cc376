"""Benchmark of ppbij: three workloads, end-to-end metrics untraced and
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload suite-small --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports ppbij from ./src
and forces the pure-Python kernel backend (PPBIJ_PURE=1).  One process
measures one workload: it repeats identical passes for about --seconds
seconds (at least two passes).  `--workload all` runs each workload in a
fresh process of its own and prints them together.

With --trace 0 the metrics are the end-to-end ones:
  wall_s          median over the run's passes of the seconds of one
                  pass, after set-up, scaled to a fixed machine speed.
                  On a shared virtual machine the same work runs up to
                  twice as slow in spells of a fraction of a second to
                  minutes, and the raw median spread by 20-46% between
                  runs.  So a fixed piece of the benchmark's own work is
                  timed next to each pass (reference.py): every ~25 ms
                  of the pass, at the start of a garbage collection
                  (workloads.PassClock).  Each stretch of the pass is
                  scaled by reference.REFERENCE_S over the time of the
                  samples around it; the samples' own time is left out.
                  The raw wall-clock median is printed too
  first_result_s  median seconds from the start of a pass to its first
                  result, scaled the same way: for suite-small, the first
                  result line that ppbij.cli.main writes to stdout;
                  series-full and bijection-large collect results until
                  the pass ends, so there it equals wall_s
  peak_rss_mb     peak RSS of this process; no workload starts a
                  process of its own, and the set-up probes are left out
  setup_s         median over fresh interpreters of importing ppbij.cli
                  and ppbij.checks and loading the grids, each scaled by
                  reference samples taken in that interpreter just before
                  and after (setup_probe.py); the probes run between
                  passes, so they sample the whole run
With --trace 1 the run makes one untraced pass and one traced pass, then
times the kernel microbenchmarks, and reports the per-layer metrics.
These times are raw wall-clock seconds, with no reference samples.

Every pass is checked against the golden records under golden/; the
last line of stdout is one JSON object with correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GRIDS = os.path.join(SRC, "ppbij", "verify_grids.json")

SETUP_PROBES = 24
MIN_PASSES = 2
MICRO_REPEAT = 5
CHILD_TIMEOUT_S = 900


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import ppbij
    with open(GRIDS, "rb") as fh:
        grid_version = "sha256:" + hashlib.sha256(fh.read()).hexdigest()[:16]
    compiled = importlib.util.find_spec("ppbij.kernels._speed") is not None
    return {
        "kernel_backend": ppbij.KERNEL_BACKEND,
        "compiled_backend": "built, not used" if compiled else "not built",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "grid_version": grid_version,
    }


def setup_sample() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py")],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float) -> tuple[list, list[float]]:
    """Identical passes until another one would end after `seconds`, and
    at least MIN_PASSES of them.  Between passes it takes set-up samples,
    as many as keep pace with the share of `seconds` spent, so that the
    SETUP_PROBES samples spread over the run.
    """
    passes, setups, took = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        passes.append(workload.run_pass())
        took.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        due = min(SETUP_PROBES, math.ceil(SETUP_PROBES * spent / seconds))
        while len(setups) < due:
            setups.append(setup_sample())
        spent = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and \
                spent + statistics.median(took) > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_sample())
    return passes, setups


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("yield_ratio", "efficiency")):
        return "ratio"
    return "count"


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()},
    }


def _print_passes(passes) -> None:
    for label, values in (("wall_s", [p.wall_s for p in passes]),
                          ("first_result_s",
                           [p.first_result_s for p in passes]),
                          ("raw wall-clock", [p.raw_s for p in passes])):
        q1, med, q3 = _quartiles(values)
        print(f"{label}: median {med:.4f} s, quartiles {q1:.4f}..{q3:.4f} s,"
              f" {len(values)} passes")
    notes = sorted({p.note for p in passes if p.note})
    for note in notes:
        print(f"note: {note}")


def run_untraced(workload, seconds: float) -> dict:
    passes, setups = measure(workload, seconds)
    rss = peak_rss_mb()
    _print_passes(passes)
    q1, med, q3 = _quartiles(setups)
    print(f"setup_s: median {med:.4f} s, quartiles {q1:.4f}..{q3:.4f} s, "
          f"{len(setups)} fresh interpreters")
    print(f"peak_rss_mb: {rss:.1f} MB")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6f}")
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "first_result_s": statistics.median(p.first_result_s for p in passes),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    return _result(attempted, failed, metrics)


def run_traced(workload) -> dict:
    import micro
    from ppbij.checks import CHECKS
    from tracing import Tracer

    gc.collect()
    plain = workload.run_pass(scaled=False)
    tracer = Tracer().install()
    try:
        gc.collect()
        traced = workload.run_pass(scaled=False)
    finally:
        tracer.uninstall()
    micro_times, micro_wrong = micro.run(MICRO_REPEAT)

    for line in tracer.table():
        print(line)
    print(f"untraced pass {plain.wall_s:.4f} s, traced pass "
          f"{traced.wall_s:.4f} s")
    for note in sorted({p.note for p in (plain, traced) if p.note}):
        print(f"note: {note}")

    metrics = tracer.metrics()
    for name in CHECKS:
        metrics[f"checks.{name}.busy_s"] = plain.busy.get(name, 0.0)
    # sum of entry time / (workers x wall time); every workload uses one
    # worker, so this is the share of the pass spent inside the checks.
    metrics["checks.pool.efficiency"] = sum(plain.busy.values()) / plain.wall_s
    metrics.update(micro_times)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    attempted = plain.attempted + traced.attempted + \
        len(micro_times) * MICRO_REPEAT
    failed = plain.failed + traced.failed + micro_wrong
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6f}")
    return _result(attempted, failed, metrics)


def run_one(args) -> int:
    import ppbij.checks  # noqa: F401  (the program's set-up, untimed here)
    import ppbij.cli  # noqa: F401
    workload = workloads.WORKLOADS[args.workload]()
    print("env: " + json.dumps(environment(), sort_keys=True))
    workload.prepare(args.seed)
    print(f"workload: {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        result = run_traced(workload)
    else:
        result = run_untraced(workload, args.seconds)
    print(json.dumps(result))
    return 0


def run_every_workload(args) -> int:
    """Each workload in a fresh process; prints each one's metrics."""
    combined = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"error: workload {name} exited with {out.returncode}",
                  file=sys.stderr)
            return out.returncode or 1
        combined[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print()
    for name, res in combined.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<18} {metric:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<18} {'fail_ratio':<44} "
              f"{res['failed'] / res['attempted']:>14.6g} "
              f"({res['failed']}/{res['attempted']})")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ppbij", "__init__.py")) \
            or not os.path.isfile(GRIDS):
        print(f"error: no ppbij sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    os.environ["PPBIJ_PURE"] = "1"
    sys.path.insert(0, SRC)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all":
        return run_every_workload(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
