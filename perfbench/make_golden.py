"""Write the golden records under golden/ from the current code.

    python3 perfbench/make_golden.py [--only NAME[,NAME]] [--seeds 128]

Run it only on code whose outputs are known to be right: the benchmark's
gate compares every later run against these files.  The records are
  suite-small.json      each result of `verify all --level small --json`
                        without `elapsed`, in declaration order
  series-full.json      the same for the series-full entries
  bijection-large.json  the output digest of bijection-large for each
                        seed in 0..seeds-1
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ["PPBIJ_PURE"] = "1"

import gate  # noqa: E402
import workloads  # noqa: E402


def _write(name: str, data) -> None:
    with open(gate.golden_path(name), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def suite_small() -> list[dict]:
    from ppbij import cli
    stream = workloads.ResultStream()
    with contextlib.redirect_stdout(stream):
        rc = cli.main(workloads.SMALL_ARGV)
    if rc != 0:
        raise SystemExit(f"verify all --level small exited with {rc}")
    return [gate.strip_elapsed(r) for r in stream.records()]


def series_full() -> list[dict]:
    from ppbij import checks
    out = []
    for entry in workloads.series_entries(checks.load_grids()["full"]):
        result = workloads.run_series_entry(entry)
        if not result.passed:
            raise SystemExit(f"{entry} fails: {result.first_diff}")
        out.append(gate.strip_elapsed(json.loads(json.dumps(result.to_json()))))
    return out


def bijection_large(seeds: int) -> dict:
    digests = {}
    for seed in range(seeds):
        wl = workloads.BijectionLarge()
        wl.matrices, wl.words = workloads.make_bijection_inputs(seed)
        wl.golden_digest = None
        res = wl.run_pass()
        if res.failed:
            raise SystemExit(f"bijection-large seed {seed}: {res.failed} "
                             "inputs fail their round trip")
        digests[str(seed)] = wl.last_digest
    return digests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", default="suite-small,series-full,"
                                          "bijection-large")
    parser.add_argument("--seeds", type=int, default=128)
    args = parser.parse_args()
    names = args.only.split(",")
    if "suite-small" in names:
        _write("suite-small", suite_small())
    if "series-full" in names:
        _write("series-full", series_full())
    if "bijection-large" in names:
        _write("bijection-large", bijection_large(args.seeds))


if __name__ == "__main__":
    main()
