"""Sweep the parameter tuples that `verify NAME` admits.

`tuples(budget)` lists, for each check of `checks.CHECKS` in turn, the
tuples within the per-parameter caps of the command line (`cli.CAP_BOX`
for k, m, --bound and a shape's rows and width, `cli.CAP_N` for every
--N, `cli.CAP_SMALL_N` for n) that no grid entry holds and whose work,
by the check's work model, is at most `budget`.  Each check's tuples
come in the order of `itertools.product` over its parameters.  A
parameter with a default may also be left out: gexp's n_max is then its
shape's size, which may pass `cli.CAP_N`.

`tests/test_sweep.py` runs every tuple below a small budget.  Run as a
script, this samples tuples up to `cli.CAP_WORK`, prints each that
fails and the microseconds per work unit of each check, and exits 1 on
a failure.  400 tuples take 40-50 s on a 2 vCPU machine (Python
3.11.7):

    PYTHONPATH=src python tests/sweep.py --seed 1 --count 400
"""

import argparse
import random
import sys
import time
from collections import defaultdict
from itertools import product

from ppbij import cli
from ppbij.checks import CHECKS, _run_entry, load_grids, work
from ppbij.core import Partition
from ppbij.enumeration import gen_partitions_in_box

# the values of each flag of `verify NAME` within its cap
DOMAINS = {
    "k": range(cli.CAP_BOX + 1),
    "m": range(cli.CAP_BOX + 1),
    "bound": range(cli.CAP_BOX + 1),
    "n": range(cli.CAP_SMALL_N + 1),
    "N": range(cli.CAP_N + 1),
    "mode": ("entries", "rows"),
    "shape": [list(lam) for lam in gen_partitions_in_box(cli.CAP_BOX,
                                                         cli.CAP_BOX)],
}


def _key(name: str, params: dict) -> tuple:
    """The check and its arguments, defaults resolved, as a hashable."""
    check = CHECKS[name]
    arguments = check.arguments((), dict(params))
    return (name, *(tuple(value) if isinstance(value, (Partition, list))
                    else value for value in arguments.values()))


def _candidates(name: str):
    """Each admitted tuple of check `name` as grid parameters; None
    leaves a parameter to its default.
    """
    params = CHECKS[name].params
    domains = [(None,) if p.flag is None
               else (*DOMAINS[p.flag], None) if p.default is not None
               else DOMAINS[p.flag] for p in params]
    for values in product(*domains):
        yield {p.key: value for p, value in zip(params, values)
               if value is not None}


def tuples(budget: int) -> list:
    """(grid entry, work) for each off-grid admitted tuple of work at
    most `budget`, check by check.  `checks._run_entry` runs an entry,
    and a check that raises gives a FAIL record.
    """
    seen = {_key(entry["check"], entry["params"])
            for entry in load_grids()["full"]}
    out = []
    for name in CHECKS:
        for params in _candidates(name):
            key = _key(name, params)
            if key in seen:
                continue
            seen.add(key)
            cost = work(name, params)
            if cost <= budget:
                out.append(({"check": name, "params": params}, cost))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=40)
    args = parser.parse_args(argv)
    admitted = tuples(cli.CAP_WORK)
    sample = random.Random(args.seed).sample(
        admitted, min(args.count, len(admitted)))
    spent = defaultdict(lambda: [0.0, 0])  # check -> [seconds, work]
    failures = 0
    for entry, cost in sample:
        t0 = time.perf_counter()
        record = _run_entry(entry)
        spent[entry["check"]][0] += time.perf_counter() - t0
        spent[entry["check"]][1] += cost
        if not record.passed:
            failures += 1
            print(f"FAIL {entry}: {record.first_diff or record.notes[:1]}")
    seconds = sum(spent_s for spent_s, _ in spent.values())
    print(f"{len(sample)} of {len(admitted)} admitted tuples, seed "
          f"{args.seed}, in {seconds:.1f} s: {failures} failed")
    for name in CHECKS:
        if name in spent:
            seconds, cost = spent[name]
            rate = f"{1e6 * seconds / cost:.2f}" if cost else "-"
            print(f"{name}: {rate} us per work unit over {cost} units")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
