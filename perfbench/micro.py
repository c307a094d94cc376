"""Kernel microbenchmarks: the four loads of benchmarks/bench_kernels.py,
run on the pure-Python backend only.

Each load returns a count that is checked against its known value, so a
kernel that gets faster by doing less work fails the gate.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import bench_kernels  # noqa: E402

# metric name -> (load, expected result)
LOADS = {
    "kernels.micro.pp_box_444_s": (bench_kernels.bench_pp_box, 232848),
    "kernels.micro.matrices_inverse_s": (bench_kernels.bench_matrices, 669),
    "kernels.micro.shape_443_s": (bench_kernels.bench_shape, 3626),
    "kernels.micro.lis_tail_4pow8_s": (bench_kernels.bench_lis, 207699),
}


def run(repeat: int) -> tuple[dict[str, float], int]:
    """Median time of each load over `repeat` calls, and the number of
    calls whose result differed from the expected value.
    """
    times: dict[str, float] = {}
    wrong = 0
    for name, (load, expected) in LOADS.items():
        samples = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            result = load(bench_kernels._pure)
            samples.append(time.perf_counter() - t0)
            wrong += result != expected
        times[name] = statistics.median(samples)
    return times, wrong
