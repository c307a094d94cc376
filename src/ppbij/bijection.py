"""The plane-partition <-> N-matrix bijection and the word machinery
built on top of it (strict tableaux, longest-increasing-subsequence
statistics).
"""

from __future__ import annotations

from . import kernels
from .core import Cell, NMatrix, Partition, PlanePartition, Word


def phi(pp: PlanePartition, n: int, m: int) -> NMatrix:
    """Map a plane partition with at most n rows and entries <= m to its
    n x m descent-level-count matrix.
    """
    if pp.n_rows() > n or pp.max_entry() > m:
        raise ValueError("out of domain PP(inf,n,m)")
    counts = [[0] * m for _ in range(n)]
    for row, values in zip(counts, pp._descent_rows()):
        for v in values:
            row[v - 1] += 1
    # n x m counts of a validated plane partition's descents: nonnegative
    # by construction, so wrapped without a second check
    return NMatrix._from_entries(tuple(map(tuple, counts)), n, m)


def phi_inverse(D: NMatrix) -> PlanePartition:
    """The inverse map: the unique plane partition with at most n rows and
    entries <= m whose descent-level-count matrix is D.

    This and `word_to_strict_tableau` are the only code that turns the
    inverse kernels' rows into plane partitions, and both validate their
    image instead of wrapping it: wrapped unchecked, a kernel that
    writes every cell one level low passes `check_multivariate` on the
    matrix windows (`enumeration.gen_matrix_images` builds its images
    here) and `check_frobenius` and `check_greene` on the words, and
    only the constructor rejects its rows.  A check that compares the
    images with a direct tally (ROADMAP item 5, the labelled bijectivity
    comparison) is what would let this validation go.
    """
    return PlanePartition(kernels.phi_inverse_rows(D.entries, D.n_rows, D.n_cols))


def max_downright_path_weight(D: NMatrix, start: Cell, end: Cell) -> int:
    """Maximum entry sum over monotone down-right paths in D from start
    to end (steps (i,j)->(i+1,j) or (i,j+1)).
    """
    if start.i > end.i or start.j > end.j:
        raise ValueError("empty path set")
    if not (1 <= start.i and 1 <= start.j and end.i <= D.n_rows and end.j <= D.n_cols):
        raise ValueError("path endpoints outside the matrix")
    best_prev = [0] * (end.j - start.j + 1)
    for row in D.entries[start.i - 1:end.i]:
        # entries are nonnegative, so a missing neighbour counts as 0
        left = 0
        best_row = []
        for up, here in zip(best_prev, row[start.j - 1:end.j]):
            left = max(up, left) + here
            best_row.append(left)
        best_prev = best_row
    return best_prev[-1]


def word_to_strict_tableau(w: Word) -> PlanePartition:
    """The strict tableau with filling [n] associated to a word of
    length n: the inverse map applied to the word's m x n 0/1 matrix,
    whose column p holds a single 1 at row w_p.

    The tableau is validated, for the reason `phi_inverse` gives.
    """
    return PlanePartition(kernels.word_tableau_rows(w.letters))


def is_strict_tableau(pp: PlanePartition, n: int) -> bool:
    """True iff pp uses exactly the entries 1..n and each value occupies
    a single column.
    """
    column_of: dict[int, int] = {}
    for row in pp.rows:
        for j, v in enumerate(row):
            if column_of.setdefault(v, j) != j:
                return False
    return column_of.keys() == set(range(1, n + 1))


def strict_tableau_to_word(pp: PlanePartition, m: int) -> Word:
    """Read the word back off a strict tableau: the i-th letter is the
    deepest row index in which the value i appears.
    """
    n = pp.max_entry()
    if not is_strict_tableau(pp, n) or pp.n_rows() > m:
        raise ValueError("not a strict tableau")
    letters = [0] * n
    for i, row in enumerate(pp.rows, 1):
        for v in row:
            letters[v - 1] = i  # rows run downwards, so the deepest wins
    # every value 1..n is placed in a row 1..n_rows <= m, so the letters
    # are in range by construction
    return Word._from_letters(tuple(letters), m)


def greene_shape(w: Word) -> Partition:
    """The partition (L_m(w), ..., L_1(w)), trailing zeros trimmed, from
    one pass over the word.
    """
    # L_1 <= ... <= L_m, so the zeros to trim lead the kernel's tuple
    tails = kernels.lis_tails(w.letters, w.m)
    return Partition._from_parts(tails[tails.count(0):][::-1])
