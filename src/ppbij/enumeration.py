"""Exhaustive generators for the combinatorial families (boxed plane
partitions, fillings of a fixed shape, inverse-map images of weighted
matrix windows, words, strict tableaux) and exact counters built on them
(content tallies, descent enumeration counts).

All generators are deterministic: each lists its family in a fixed
lexicographic order of a canonical encoding, so golden tests on listings
are order-stable.  Partitions in a box, words, compositions and the rows
of shape fillings and strict tableaux come from itertools (combinations
and products).  No generator recurses: the box generator walks its rows
depth-first on an explicit stack, and the shape and strict-tableau
generators extend every partial filling a whole row at a time.

Every generator wraps what it builds without a second check (see
`core`), except `gen_matrix_images`, whose images come from
`bijection.phi_inverse` and are validated there.  The tests compare the
wrapped members with what the validating constructors build.
`gen_matrix_images` pairs each image with its matrix's weighted sum,
which the window kernel streams with each matrix, so that a series check
enumerates only its enlarged window and reads the base window off the
pairs of weight at most the base bound.  No window is held as a list.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterator, Sequence

from . import kernels
from .bijection import phi_inverse
from .core import NMatrix, Partition, PlanePartition, Word


def gen_partitions_in_box(k: int, n: int) -> Iterator[Partition]:
    """All partitions with first part <= k and at most n parts.

    Yields C(k+n, n) partitions, the empty one first.
    """
    for parts in itertools.combinations_with_replacement(range(k + 1), n):
        # parts is weakly increasing, so its zeros lead
        yield Partition._from_parts(parts[parts.count(0):][::-1])


def gen_pp_box(k: int, n: int, m: int, max_volume: int | None = None
               ) -> Iterator[PlanePartition]:
    """All plane partitions in the k x n x m box, optionally restricted
    to volume <= max_volume.  A negative side or max_volume raises
    ValueError naming it.
    """
    for name, value in (("k", k), ("n", n), ("m", m),
                        ("max_volume", max_volume)):
        if value is not None and value < 0:
            raise ValueError(f"box {name}={value} is negative")
    yield from map(PlanePartition._from_rows,
                   kernels.pp_box(k, n, m, max_volume))


def gen_pp_shape(lam: Partition, m: int) -> Iterator[PlanePartition]:
    """All plane partitions of shape lam with entries in [1, m]."""
    for rows in kernels.pp_shape(lam.parts, m, strict=False):
        yield PlanePartition._from_rows(rows)


def gen_column_strict(lam: Partition, m: int) -> Iterator[PlanePartition]:
    """All column-strict fillings of lam with entries <= m (the
    combinatorial support of the Schur polynomial in m variables).
    """
    for rows in kernels.pp_shape(lam.parts, m, strict=True):
        yield PlanePartition._from_rows(rows)


def gen_matrix_images(n: int, m: int, bound: int,
                      weight: Callable[[int, int], int] | None = None
                      ) -> Iterator[tuple[int, PlanePartition]]:
    """(sum(D[i][l] * weight(i, l)), image) for each n x m N-matrix D
    whose weighted sum is at most bound, in the kernel's order.  Each
    image is `phi_inverse(D)`: a plane partition with at most n rows and
    entries <= m.

    The images of weight <= b are those of the window of bound b, so
    one pass over a window also yields every smaller window.

    weight defaults to the constant 1 (a plain total-sum bound) and must
    be positive everywhere, otherwise the family is infinite.
    """
    weight = weight or (lambda i, l: 1)
    grid = tuple(tuple(weight(i, l) for l in range(1, m + 1))
                 for i in range(1, n + 1))
    for total, entries in kernels.matrices_weighted(n, m, grid, bound):
        yield total, phi_inverse(NMatrix._from_entries(entries, n, m))


def gen_words(n: int, m: int) -> Iterator[Word]:
    """All m**n words of length n in the alphabet [m]."""
    for letters in itertools.product(range(1, m + 1), repeat=n):
        yield Word._from_letters(letters, m)


def gen_strict_tableaux(lam: Partition, n: int) -> Iterator[PlanePartition]:
    """All strict tableaux of shape lam with filling [n]: each value
    1..n occupies exactly one column.

    Built a whole row at a time: each partial tableau, with its own
    column of each value, grows by every strictly decreasing row under
    its last row (`kernels.strict_rows`, listed once per bounding row)
    that keeps each value in the column it holds, unless fewer cells
    remain than values unplaced.  The order is that of filtering all
    fillings of lam (`gen_pp_shape`): rows in decreasing lexicographic
    order, from the top row down.
    """
    if not lam.part(1) <= n <= lam.size():
        return
    # (rows, column (1-based) of each value or 0, values unplaced)
    partial = [((), [0] * (n + 1), n)]
    cells_left = lam.size()
    under: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for width in lam.parts:
        cells_left -= width
        grown = []
        for rows, column, unplaced in partial:
            bounds = rows[-1][:width] if rows else (n,) * width
            cands = under.get(bounds)
            if cands is None:
                cands = under[bounds] = kernels.strict_rows(bounds)
            for row in cands:
                left = unplaced
                for j, v in enumerate(row, 1):
                    if column[v] != j:
                        if column[v]:
                            break
                        left -= 1
                else:
                    if left <= cells_left:
                        col = column[:]
                        for j, v in enumerate(row, 1):
                            col[v] = j
                        grown.append((rows + (row,), col, left))
        partial = grown
    for rows, _, _ in partial:  # no cell is left, so no value unplaced
        yield PlanePartition._from_rows(rows)


def f_lambda(lam: Partition, n: int) -> int:
    """The number of strict tableaux of shape lam with filling [n]."""
    return sum(1 for _ in gen_strict_tableaux(lam, n))


def column_strict_contents(lam: Partition, m: int) -> Counter[tuple[int, ...]]:
    """The content vectors of the column-strict fillings of lam with
    entries <= m, tallied: (number of entries equal to 1, ..., to m)
    -> number of fillings with that content.
    """
    contents: Counter[tuple[int, ...]] = Counter()
    for pp in gen_column_strict(lam, m):
        entries = Counter(itertools.chain.from_iterable(pp.rows))
        contents[tuple(entries[v] for v in range(1, m + 1))] += 1
    return contents


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of `parts` nonnegative integers summing to
    `total`, in lexicographic order: stars and bars, the parts being the
    gaps between 0, parts - 1 weakly increasing cut points and total.
    """
    if parts == 0:
        if total == 0:
            yield ()
    elif total >= 0:
        for cut in itertools.combinations_with_replacement(
                range(total + 1), parts - 1):
            yield tuple(b - a for a, b in itertools.pairwise((0, *cut, total)))


def gen_matrices_column_sums(n: int, alpha: Sequence[int]) -> Iterator[NMatrix]:
    """All n-row N-matrices whose column sums are exactly alpha."""
    per_column = [list(compositions(a, n)) for a in alpha]
    for choice in itertools.product(*per_column):
        # with no columns, zip() would give no rows at all
        rows = tuple(zip(*choice)) if alpha else ((),) * n
        yield NMatrix._from_entries(rows, n, len(alpha))


def count_D_alpha(k: int | None, n: int, m: int, alpha: Sequence[int]) -> int:
    """The number of plane partitions in PP(k, n, m) whose value i sits in
    exactly alpha[i-1] columns, for i = 1..m.  k=None means unbounded row
    length; that case is counted through the matrix bijection (matrices
    with column sums alpha), which keeps the family finite.  Only images
    whose column counts are alpha are counted, so a faulty inverse map
    shows as a wrong count.
    """
    alpha = tuple(alpha)
    if len(alpha) != m:
        raise ValueError("alpha must have length m")
    if k is None:
        return sum(1 for D in gen_matrices_column_sums(n, alpha)
                   if phi_inverse(D).column_counts(m) == alpha)
    return sum(1 for pp in gen_pp_box(k, n, m) if pp.column_counts(m) == alpha)


def dominates(beta: Sequence[int], alpha: Sequence[int]) -> bool:
    """Dominance order on equal-length integer vectors: every prefix sum
    of beta weakly exceeds the matching prefix sum of alpha.
    """
    sa = sb = 0
    for a, b in zip(alpha, beta):
        sa += a
        sb += b
        if sb < sa:
            return False
    return True
