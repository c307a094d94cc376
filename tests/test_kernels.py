"""The kernel package's exports, the box and shape kernels, the strict
rows, the inverse map's insertion and the kernel loads the benchmark
times.
"""

import gc
import importlib.util
import inspect
import random
from itertools import combinations_with_replacement, product
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ppbij import kernels
from ppbij.bijection import phi, phi_inverse
from ppbij.core import NMatrix
from ppbij.enumeration import gen_pp_box
from ppbij.kernels import _pure

MICRO = Path(__file__).resolve().parent.parent / "perfbench" / "micro.py"


def row_candidates_reference(bounds, max_sum):
    """The recursive row kernel the odometer replaced, kept as a
    reference: one call per cell, each cell taking every value from 1 to
    the least of the cell before it, its bound and the sum left.
    """
    out = []
    row = []

    def extend(prev, budget):
        pos = len(row)
        if pos >= len(bounds):
            return
        cap = min(prev, bounds[pos], budget)
        for v in range(1, cap + 1):
            row.append(v)
            out.append(tuple(row))
            extend(v, budget - v)
            row.pop()
    extend(bounds[0] if bounds else 0, max_sum)
    return out


def matrices_weighted_reference(n, m, weights, bound):
    """The recursive window kernel the odometer replaced, kept as a
    reference: one call per entry, row-major, each entry taking every
    value its weight lets into the bound left.  Each matrix comes with
    its weighted sum, the bound less the bound left.  With no entries it
    lists the empty matrix even at a negative bound, since the recursion
    ends before reading the bound.
    """
    flat_w = [weights[i][j] for i in range(n) for j in range(m)]
    if any(w <= 0 for w in flat_w):
        raise ValueError("weights must be positive")
    cells = n * m
    entries = [0] * cells
    results = []

    def fill(pos, budget):
        if pos == cells:
            results.append((bound - budget, tuple(
                tuple(entries[i * m:(i + 1) * m]) for i in range(n))))
            return
        w = flat_w[pos]
        for d in range(budget // w + 1):
            entries[pos] = d
            fill(pos + 1, budget - d * w)
        entries[pos] = 0

    fill(0, bound)
    return results


def pp_box_reference(k, n, m, max_volume=None):
    """The list-building box kernel the streaming one replaced, kept as a
    reference: candidate rows are listed afresh under every partial
    plane partition, bounded by the volume left, by the reference row
    kernel.
    """
    if max_volume is None:
        max_volume = k * n * m
    results = []
    rows = []

    def recurse(budget):
        results.append(tuple(rows))
        if len(rows) >= n:
            return
        bounds = rows[-1] if rows else (m,) * k
        for cand in row_candidates_reference(bounds, budget):
            rows.append(cand)
            recurse(budget - sum(cand))
            rows.pop()

    recurse(max_volume)
    return results


def pp_shape_reference(shape, m, strict=False):
    """The cell-by-cell shape kernel the row-at-a-time one replaced, kept
    as a reference: one recursive call per cell, row-major, each cell
    taking every value from its bound down to 1.
    """
    shape = tuple(shape)
    if not shape:
        return [()]
    if strict and len(shape) > m:
        return []
    n_rows = len(shape)
    grid = [[0] * shape[i] for i in range(n_rows)]
    results = []

    def fill(i, j):
        if i == n_rows:
            results.append(tuple(tuple(r) for r in grid))
            return
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        hi = m
        if j > 0:
            hi = min(hi, grid[i][j - 1])
        if i > 0 and j < shape[i - 1]:
            above = grid[i - 1][j]
            hi = min(hi, above - 1 if strict else above)
        for v in range(hi, 0, -1):
            grid[i][j] = v
            fill(ni, nj)
        grid[i][j] = 0

    fill(0, 0)
    return results


def insert_level_unit_reference(rows, level, i):
    """One insertion step of the inverse map on row lists, kept as a
    reference for the word map: fill the leftmost column of length < i
    with `level` down to row i, walking up the rows that have exactly
    that column's length.
    """
    n_rows = len(rows)
    width = len(rows[i - 1]) if i <= n_rows else 0
    top = min(i, n_rows)
    while top > 0 and len(rows[top - 1]) == width:
        top -= 1
    if top > 0 and rows[top - 1][width] < level:
        raise ValueError("invalid insertion")
    if i > n_rows:
        rows.extend([] for _ in range(i - n_rows))
    for row in rows[top:i]:
        row.append(level)


def lis_tail_reference(letters, m, i):
    """The left-to-right subsequence DP the one-pass tails replaced, kept
    as a reference: best[c] is the longest weakly increasing subsequence
    of the top i letters seen so far that ends with letter c.
    """
    lo = m - i + 1
    best = [0] * (m + 1)
    for a in letters:
        if a >= lo:
            prev = 0
            for c in range(lo, a + 1):
                if best[c] > prev:
                    prev = best[c]
            if prev + 1 > best[a]:
                best[a] = prev + 1
    return max(best)


def insert_column_reference(cols, level, i):
    """The column-list insertion step the row-form step replaced, kept as
    a reference: fill the leftmost column of length < i with `level` up
    to length i, scanning every column.
    """
    for c in cols:
        if len(c) < i:
            if c and c[-1] < level:
                raise ValueError("invalid insertion")
            c.extend([level] * (i - len(c)))
            return
    cols.append([level] * i)


def phi_inverse_by_columns(entries, n, m):
    """The inverse map built column by column with the reference step."""
    cols = []
    for l in range(m, 0, -1):
        for i in range(n, 0, -1):
            for _ in range(entries[i - 1][l - 1]):
                insert_column_reference(cols, l, i)
    n_rows = max((len(c) for c in cols), default=0)
    return tuple(
        tuple(c[r] for c in cols if len(c) > r) for r in range(n_rows)
    )


def phi_counts_reference(rows, n, m):
    """The count-matrix kernel that phi's descent tally replaced, kept as
    a reference: d[i][l] counts the cells of row i with value l above a
    smaller value (absent cells read 0).
    """
    d = [[0] * m for _ in range(n)]
    n_rows = len(rows)
    for i in range(n_rows):
        row = rows[i]
        below = rows[i + 1] if i + 1 < n_rows else ()
        for j in range(len(row)):
            v = row[j]
            under = below[j] if j < len(below) else 0
            if v > under:
                d[i][v - 1] += 1
    return tuple(tuple(r) for r in d)


@st.composite
def count_matrices(draw, max_dim=8, max_entry=3):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    row = st.lists(st.integers(0, max_entry), min_size=m, max_size=m)
    return n, m, draw(st.lists(row, min_size=n, max_size=n))


class TestSelection:
    def test_backend_reexports(self):
        assert kernels.BACKEND == "pure"
        for name in ("row_candidates", "pp_box", "pp_shape", "strict_rows",
                     "matrices_weighted", "phi_inverse_rows",
                     "word_tableau_rows", "lis_tail", "lis_tails"):
            assert hasattr(kernels, name)


def test_list_kernels_leave_no_reference_cycles():
    # a kernel that filled its list through a self-referring closure
    # would keep that list alive until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        kernels.row_candidates((3, 2), 4)
        kernels.pp_shape((2, 1), 3)
        list(kernels.matrices_weighted(2, 2, ((1, 1), (1, 2)), 3))
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestRowCandidates:
    def test_matches_reference_in_order(self):
        # every bounding row of width up to 4 with entries 0-4, in any
        # order, the empty one included, under every sum from -1 up to
        # one past the largest row's
        for width in range(5):
            for bounds in product(range(5), repeat=width):
                for max_sum in range(-1, sum(bounds) + 2):
                    assert kernels.row_candidates(bounds, max_sum) == \
                        row_candidates_reference(bounds, max_sum), \
                        (bounds, max_sum)

    @given(st.lists(st.integers(-1, 8), max_size=8), st.integers(-2, 40))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_random_bounds(self, bounds, max_sum):
        assert kernels.row_candidates(bounds, max_sum) == \
            row_candidates_reference(bounds, max_sum)

    def test_long_row(self):
        # one row per length: 2,000 cells are far past the recursion
        # limit the recursive kernel ran into
        rows = kernels.row_candidates((1,) * 2000, 2000)
        assert len(rows) == 2000
        assert rows[-1] == (1,) * 2000


class TestMatricesWeighted:
    GRIDS = {
        "ones": lambda i, l: 1,
        "hooks": lambda i, l: i + l - 1,
        "columns": lambda i, l: l,
        "mixed": lambda i, l: (2 * i + l) % 3 + 1,
    }

    @staticmethod
    def expected(n, m, grid, bound):
        # a negative bound admits no matrix, the empty one included
        if bound < 0:
            return []
        return matrices_weighted_reference(n, m, grid, bound)

    def test_streams(self):
        # the tracer times a generator function per resumption; a plain
        # function that returned a generator would be timed as one call
        # and counted with len()
        assert inspect.isgeneratorfunction(kernels.matrices_weighted)

    def test_matches_reference_in_order(self):
        # zero rows or columns and negative bounds included
        for name, weight in self.GRIDS.items():
            for n, m, bound in product(range(4), range(4), range(-2, 7)):
                grid = [[weight(i, l) for l in range(1, m + 1)]
                        for i in range(1, n + 1)]
                assert list(kernels.matrices_weighted(n, m, grid, bound)) == \
                    self.expected(n, m, grid, bound), (name, n, m, bound)

    @given(st.integers(0, 3).flatmap(lambda n: st.integers(0, 3).flatmap(
        lambda m: st.tuples(
            st.just(n), st.just(m),
            st.lists(st.lists(st.integers(1, 4), min_size=m, max_size=m),
                     min_size=n, max_size=n),
            st.integers(-3, 8)))))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_random_weights(self, case):
        # at most C(17, 8) = 24,310 matrices, when every weight is 1
        n, m, grid, bound = case
        assert list(kernels.matrices_weighted(n, m, grid, bound)) == \
            self.expected(n, m, grid, bound)

    def test_negative_bound_lists_nothing(self):
        ones = [[1, 1], [1, 1]]
        assert list(kernels.matrices_weighted(2, 2, ones, -1)) == []
        assert list(kernels.matrices_weighted(0, 2, [], -1)) == []
        assert list(kernels.matrices_weighted(2, 0, [[], []], -1)) == []

    def test_zero_size_windows(self):
        assert list(kernels.matrices_weighted(0, 3, [], 2)) == [(0, ())]
        assert list(kernels.matrices_weighted(2, 0, [[], []], 2)) == \
            [(0, ((), ()))]

    def test_wide_window(self):
        # 1,500 entries are far past the recursion limit the recursive
        # kernel ran into
        assert list(kernels.matrices_weighted(1, 1500, [[1] * 1500], 0)) == \
            [(0, ((0,) * 1500,))]


class TestShapeKernel:
    def test_matches_reference_in_order(self):
        # every shape in the 3x3 box, the empty one included
        shapes = [()] + [
            tuple(reversed(c)) for n in range(1, 4)
            for c in combinations_with_replacement(range(1, 4), n)]
        for shape, m, strict in product(shapes, range(5), (False, True)):
            assert kernels.pp_shape(shape, m, strict) == \
                pp_shape_reference(shape, m, strict), (shape, m, strict)


class TestStrictRows:
    def test_matches_filtered_product(self):
        # every bounding row of width up to 4 with entries up to 4, in
        # any order; the empty bounds have the one empty row
        for width in range(5):
            for bounds in product(range(5), repeat=width):
                expected = sorted(
                    (row for row in product(range(1, 5), repeat=width)
                     if all(a > b for a, b in zip(row, row[1:]))
                     and all(v <= b for v, b in zip(row, bounds))),
                    reverse=True)
                assert kernels.strict_rows(bounds) == expected, bounds


class TestBoxKernel:
    def test_streams(self):
        assert inspect.isgenerator(kernels.pp_box(2, 2, 2))

    def test_matches_reference_in_order(self):
        # every box up to 3x3x3, the zero-size ones included, and
        # volume-bounded boxes
        boxes = [(k, n, m, None) for k, n, m in product(range(4), repeat=3)]
        boxes += [(3, 3, 3, 4), (6, 6, 6, 6), (10, 10, 10, 10),
                  (2, 2, 2, 0), (0, 3, 3, 2), (3, 0, 3, 2), (3, 3, 0, 2)]
        for box in boxes:
            assert list(kernels.pp_box(*box)) == pp_box_reference(*box), box

    def test_candidate_budget(self, monkeypatch):
        # the candidate rows of the volume-bounded 10x10x10 box are capped
        # by the volume, not by the k*m cells of a row (~185k rows)
        received = [0]
        row_candidates = _pure.row_candidates

        def counting(bounds, max_sum):
            out = row_candidates(bounds, max_sum)
            received[0] += len(out)
            return out

        monkeypatch.setattr(_pure, "row_candidates", counting)
        assert len(list(gen_pp_box(10, 10, 10, max_volume=10))) == 1124
        assert 0 < received[0] <= 10_000


class TestInsertion:
    """The inverse map's insertion: the unit step inlined in
    kernels.word_tableau_rows and the level recurrence of
    kernels.phi_inverse_rows.
    """

    def test_single_insertion_step(self):
        # 2 fills an empty diagram down to row 2, then 1 opens a new
        # column to its right in row 1
        assert kernels.word_tableau_rows((1, 2)) == ((2, 1), (2,))

    def test_insertion_picks_leftmost_short_column(self):
        # 1 goes to row 2 of [[3, 2], [3]]: the second column is extended
        assert kernels.word_tableau_rows((2, 1, 2)) == ((3, 2), (3, 1))

    def test_batched_insertion(self):
        # the count matrix of [[3, 2], [2]] with three 1s more at row 2:
        # row 2 grows by three and row 1 grows to the same length
        assert kernels.phi_inverse_rows(((0, 1, 1), (3, 1, 0)), 2, 3) == \
            ((3, 2, 1, 1), (2, 1, 1, 1))

    @given(st.integers(1, 9).flatmap(
        lambda m: st.lists(st.integers(1, m), max_size=120)))
    @settings(max_examples=200, deadline=None)
    def test_word_step_matches_unit_steps(self, letters):
        # any word of up to 120 letters over up to 9: the word map adds
        # the cells of one reference step per letter, p = n..1
        rows = []
        for p in range(len(letters), 0, -1):
            insert_level_unit_reference(rows, p, letters[p - 1])
        assert kernels.word_tableau_rows(letters) == tuple(map(tuple, rows))

    def test_level_recurrence_matches_column_insertion(self):
        # dense 20 x 20 matrices, the largest the benchmark draws, and
        # the zero-size ones
        rng = random.Random(15)
        cases = [(20, 20, [[rng.randint(0, 3) for _ in range(20)]
                           for _ in range(20)]) for _ in range(4)]
        cases += [(20, 20, [[3] * 20] * 20), (0, 3, []), (3, 0, [[]] * 3),
                  (0, 0, [])]
        for n, m, entries in cases:
            assert kernels.phi_inverse_rows(entries, n, m) == \
                phi_inverse_by_columns(entries, n, m)


words_by_alphabet = st.integers(1, 9).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.integers(1, m), min_size=60, max_size=120)))


class TestGreeneTails:
    """kernels.lis_tails and kernels.lis_tail against the per-tail DP."""

    @given(words_by_alphabet)
    @settings(max_examples=150, deadline=None)
    def test_tails_match_reference(self, word):
        m, letters = word
        expected = tuple(lis_tail_reference(letters, m, i)
                         for i in range(1, m + 1))
        assert kernels.lis_tails(letters, m) == expected
        assert tuple(kernels.lis_tail(letters, m, i)
                     for i in range(1, m + 1)) == expected

    def test_empty_word_and_alphabet(self):
        assert kernels.lis_tails((), 3) == (0, 0, 0)
        assert kernels.lis_tails((), 0) == ()
        assert kernels.lis_tail((), 3, 2) == 0


class TestInverseMap:
    @given(count_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_column_insertion(self, matrix):
        n, m, entries = matrix
        assert kernels.phi_inverse_rows(entries, n, m) == \
            phi_inverse_by_columns(entries, n, m)

    @given(count_matrices())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, matrix):
        n, m, entries = matrix
        D = NMatrix(entries, n, m)
        assert phi(phi_inverse(D), n, m) == D

    @given(count_matrices())
    @settings(max_examples=150, deadline=None)
    def test_phi_matches_count_reference(self, matrix):
        n, m, entries = matrix
        pp = phi_inverse(NMatrix(entries, n, m))
        assert phi(pp, n, m).entries == phi_counts_reference(pp.rows, n, m)


def load_micro():
    """perfbench/micro.py, imported from its path (perfbench is not a
    package); it imports benchmarks/bench_kernels.py itself.
    """
    spec = importlib.util.spec_from_file_location("perfbench_micro", MICRO)
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    return micro


def test_bench_loads_return_expected_counts():
    # the benchmark counts a load whose result differs as a failure, so a
    # kernel change that breaks a load fails here first
    micro = load_micro()
    for metric, (load, expected) in micro.LOADS.items():
        assert load(micro.bench_kernels._pure) == expected, metric
