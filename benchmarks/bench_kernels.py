"""The four kernel loads: enumeration and inverse-map loops on the
pure-Python kernels, each returning a count that fixes how much work it
did.  `perfbench/micro.py` times them; call one as `bench_pp_box(_pure)`.
"""

import itertools

from ppbij.kernels import _pure  # noqa: F401


def bench_pp_box(mod):
    return sum(1 for _ in mod.pp_box(4, 4, 4))


def bench_matrices(mod):
    weights = tuple(tuple(i + l - 1 for l in range(1, 5))
                    for i in range(1, 5))
    total = 0
    for _, entries in mod.matrices_weighted(4, 4, weights, 8):
        total += len(mod.phi_inverse_rows(entries, 4, 4))
    return total


def bench_shape(mod):
    return len(mod.pp_shape((4, 4, 3), 4, False))


def bench_lis(mod):
    total = 0
    for letters in itertools.product(range(1, 5), repeat=8):
        total += mod.lis_tail(letters, 4, 2)
    return total
