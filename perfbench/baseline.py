"""Run the benchmark on several seeds, one fresh process per run, and
report each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median), and the same
for the raw wall-clock median of a pass, which run.py prints but does not
report as a metric (wall_s is scaled to a reference speed).

    python3 perfbench/baseline.py --runs 10 --seconds 40 --out perfbench/baseline.json

With --traced N it also makes N traced runs per workload on one seed
and reports whether the per-layer counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# The one-run figures ROADMAP.md gives for the seed code (pure backend,
# one core, Python 3.11.7), for comparison with the medians measured here.
ROADMAP_FIGURES = {
    "verify all --level small": "4.1 s pure, 3.8 s compiled",
    "verify all --level full": "312 s pure, 272 s compiled",
    "frobenius n=5 m=4": "254 s",
    "gexp (3,3,1)": "38 s",
    "gl n=3 m=3 N=5": "9.7 s",
}


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(l[5:]) for l in lines if l.startswith("env: "))
    raw = next((float(l.split()[3]) for l in lines
                if l.startswith("raw wall-clock: median ")), None)
    return {"env": env, "raw_wall_s": raw, **json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"roadmap_one_run_figures": ROADMAP_FIGURES, "workloads": {}}
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run(name, seed, args.seconds, 0)
            report["env"] = res["env"]
            attempted += res["attempted"]
            failed += res["failed"]
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            values.setdefault("raw_wall_s", []).append(res["raw_wall_s"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        entry = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                 "seconds": float(args.seconds),
                 "attempted": attempted, "failed": failed,
                 "end_to_end": {k: summary(v) for k, v in values.items()}}
        for metric, s in entry["end_to_end"].items():
            print(f"  {name} {metric}: median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f}",
                  flush=True)
        if args.traced:
            traced = [run(name, args.first_seed, args.seconds, 1)
                      for _ in range(args.traced)]
            layers = {k: [t["metrics"][k]["value"] for t in traced]
                      for k in traced[0]["metrics"]}
            entry["per_layer"] = {k: statistics.median(v)
                                  for k, v in layers.items()}
            entry["per_layer_counts_repeat"] = all(
                len(set(v)) == 1 for k, v in layers.items()
                if traced[0]["metrics"][k]["unit"] == "count")
            entry["traced_failed"] = sum(t["failed"] for t in traced)
            print(f"  {name} traced: counts repeat "
                  f"{entry['per_layer_counts_repeat']}", flush=True)
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
