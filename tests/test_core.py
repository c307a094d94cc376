"""Value types and the statistics defined on them."""

from enum import IntEnum
from itertools import count, islice, product
from operator import index

import pytest
from hypothesis import example, given, settings, strategies as st

from ppbij.bijection import phi
from ppbij.core import Cell, NMatrix, Partition, PlanePartition, Word
from ppbij.enumeration import gen_pp_box
from ppbij.poly import VarTable
from ppbij.symfun import descent_monomial

# the two worked examples used throughout
EX_A = PlanePartition([[4, 4, 2], [4, 2, 1], [2, 2]])
EX_B = PlanePartition([[4, 4, 2], [4, 2, 2], [2, 2]])


class TestPartition:
    def test_trailing_zeros_trimmed(self):
        assert Partition([3, 2, 0, 0]) == Partition([3, 2])
        assert Partition([0, 0]) == Partition()
        # a long tail is trimmed with one slice, not one copy per zero
        assert Partition([1] + [0] * 100_000).parts == (1,)

    @pytest.mark.parametrize("parts", [[2, 0, 1], [0, 2], [3, 0, 0, 1]])
    def test_rejects_a_zero_before_a_part(self, parts):
        # only trailing zeros are dropped
        with pytest.raises(ValueError, match="weakly decreasing"):
            Partition(parts)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition([2, -1])

    def test_part_out_of_range(self):
        lam = Partition([3, 1])
        assert lam.part(1) == 3
        assert lam.part(2) == 1
        assert lam.part(5) == 0

    def test_conjugate(self):
        assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
        assert Partition().conjugate() == Partition()
        lam = Partition([4, 4, 2, 1])
        assert lam.conjugate().conjugate() == lam

    def test_rectangle(self):
        assert Partition.rectangle(3, 2) == Partition([3, 3])
        assert Partition.rectangle(0, 4) == Partition()


def plane_partition_rows_reference(rows):
    """The element-wise validation PlanePartition.__init__ replaced, kept
    as a reference: the stored rows, or ValueError with the same message.
    """
    raw = [tuple(index(v) for v in row) for row in rows]
    trimmed = []
    for row in raw:
        if any(v < 0 for v in row):
            raise ValueError("entries must be nonnegative")
        n = len(row)
        while n > 0 and row[n - 1] == 0:
            n -= 1
        if 0 in row[:n]:
            raise ValueError("zero entry inside a row")
        trimmed.append(row[:n])
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    if any(not r for r in trimmed):
        raise ValueError("empty row above a nonempty row")
    rows = tuple(trimmed)
    for a, b in zip(rows, rows[1:]):
        if len(b) > len(a):
            raise ValueError("row lengths must weakly decrease")
    for r in rows:
        for a, b in zip(r, r[1:]):
            if a < b:
                raise ValueError("rows must be weakly decreasing")
    for i in range(1, len(rows)):
        upper, lower = rows[i - 1], rows[i]
        for j, v in enumerate(lower):
            if v > upper[j]:
                raise ValueError("columns must be weakly decreasing")
    return rows


@st.composite
def plane_partition_grids(draw):
    """Suffix sums of a small 0..2 array: the rows of a plane partition
    of at most 4 rows and entries <= 4, padded with zeros to a rectangle.
    The zero tail makes rows of unequal length, and the zero cells repeat
    the entry below them in a column.
    """
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, 4))
    cells = draw(st.lists(st.integers(0, 2), min_size=n * k, max_size=n * k))
    grid = [cells[i * k:(i + 1) * k] for i in range(n)]
    rows = [[0] * k for _ in range(n)]
    for i in reversed(range(n)):
        for j in reversed(range(k)):
            rows[i][j] = min(4, grid[i][j]
                             + max(rows[i + 1][j] if i + 1 < n else 0,
                                   rows[i][j + 1] if j + 1 < k else 0))
    return rows


def plane_partitions():
    """The plane partitions of `plane_partition_grids`."""
    return plane_partition_grids().map(PlanePartition)


def without_zeros(rows):
    """A grid's rows with its zeros, and the rows left empty, dropped:
    the canonical rows, as tuples.
    """
    return tuple(filter(None, (tuple(filter(None, row)) for row in rows)))


# small arrays with a few negatives and zeros, mostly with sorted rows so
# that every check is reached often, and plane partitions with and
# without their zero padding (as lists and as tuples), which the
# constructor accepts in its first loop or after trimming
small_values = st.sampled_from([4, 3, 3, 2, 2, 2, 1, 1, 1, 0, -1])
canonical_rows = plane_partition_grids().map(without_zeros)
small_arrays = st.lists(
    st.lists(small_values, max_size=5).map(
        lambda row: sorted(row, reverse=True)) |
    st.lists(small_values, max_size=5),
    max_size=5) | plane_partition_grids() | canonical_rows | \
    canonical_rows.map(lambda rows: [list(row) for row in rows])


class TestPlanePartitionValidation:
    @given(small_arrays)
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_validation(self, rows):
        try:
            expected = plane_partition_rows_reference(rows)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                PlanePartition(rows)
            assert str(raised.value) == str(exc)
        else:
            assert PlanePartition(rows).rows == expected

    def test_canonical_trailing_zeros(self):
        assert PlanePartition([[2, 1, 0], [1, 0], []]) == \
            PlanePartition([[2, 1], [1]])

    def test_rejects_row_increase(self):
        with pytest.raises(ValueError):
            PlanePartition([[1, 2]])

    def test_rejects_column_increase(self):
        with pytest.raises(ValueError):
            PlanePartition([[1], [2]])

    def test_rejects_interior_zero(self):
        with pytest.raises(ValueError):
            PlanePartition([[2, 0, 1]])

    def test_rejects_ragged_growth(self):
        with pytest.raises(ValueError):
            PlanePartition([[1], [1, 1]])

    def test_empty(self):
        pp = PlanePartition()
        assert not pp
        assert pp.volume() == 0
        assert pp.shape() == Partition()

    def test_entry_reads_zero_outside(self):
        # absent cells are not stored: row 3 has two cells, there is no
        # row 7
        assert EX_A.rows[0][0] == 4
        assert len(EX_A.rows[2]) == 2
        assert len(EX_A.rows) == 3

    def test_json_roundtrip(self):
        assert PlanePartition.from_json(EX_A.to_json()) == EX_A


def descents_reference(pp):
    """The generator descent walk the per-row walk replaced, kept as a
    reference: (i, j, value) for each cell whose value strictly exceeds
    the value directly below (absent cells read 0), row by row.
    """
    rows = pp.rows
    for i, (row, below) in enumerate(zip(rows, rows[1:] + ((),)), 1):
        below += (0,) * (len(row) - len(below))
        for j, v, u in zip(count(1), row, below):
            if v > u:
                yield i, j, v


class TestDescentWalk:
    """Every descent reader against sums over descents_reference."""

    @given(plane_partitions())
    @example(PlanePartition())
    @example(PlanePartition([[3, 1, 1]]))
    @example(PlanePartition([[3, 2, 2, 1], [2, 1], [1]]))
    @example(PlanePartition([[2, 2], [2, 2], [2]]))
    @settings(max_examples=300, deadline=None)
    def test_readers_match_reference(self, pp):
        cells = list(descents_reference(pp))
        n_rows = pp.n_rows()
        assert pp.descent_count() == len(cells)
        assert pp.corner_volume() == sum(v for _, _, v in cells)
        assert pp.up_hook_volume() == sum(v + i - 1 for i, _, v in cells)
        assert pp.row_descent_counts() == tuple(
            sum(1 for i, _, _ in cells if i == row)
            for row in range(1, n_rows + 1))
        assert pp.descent_set() == frozenset(Cell(i, j) for i, j, _ in cells)
        levels = {}
        for i, j, v in cells:
            levels.setdefault((i, v), set()).add(j)
        assert pp.descent_level_sets() == {
            key: frozenset(js) for key, js in levels.items()}
        n, m = max(n_rows, 1), max(pp.max_entry(), 1)
        counts = [[0] * m for _ in range(n)]
        for i, _, v in cells:
            counts[i - 1][v - 1] += 1
        assert phi(pp, n, m).entries == tuple(map(tuple, counts))
        table = VarTable([("x", n), ("z", m)])
        exp = [0] * (n + m)
        for i, _, v in cells:
            exp[i - 1] += 1
            exp[n + v - 1] += 1
        assert descent_monomial(table, pp) == tuple(exp)

    def test_walk_is_built_once(self):
        pp = PlanePartition([[3, 2, 2, 1], [2, 1], [1]])
        walk = pp._descent_rows()
        assert pp._descent_rows() is walk
        assert walk == ((3, 2, 2, 1), (2, 1), (1,))

    def test_equality_and_hash_ignore_the_walk(self):
        # a plane partition whose walk is kept equals, and hashes as, one
        # whose walk is not built yet, whichever constructor made each
        rows = [[3, 2, 2, 1], [2, 1], [1]]
        builders = (PlanePartition, PlanePartition.from_json,
                    lambda rows: PlanePartition._from_rows(
                        tuple(map(tuple, rows))))
        for walked_by, fresh_by in product(builders, repeat=2):
            walked, fresh = walked_by(rows), fresh_by(rows)
            walked.descent_count()
            assert walked._walk is not None and fresh._walk is None
            assert walked == fresh and fresh == walked
            assert hash(walked) == hash(fresh)


class TestStatistics:
    def test_golden_volume_trace(self):
        assert EX_A.volume() == 21
        assert EX_A.trace() == 6
        assert EX_B.volume() == 22
        assert EX_B.trace() == 6

    def test_golden_descent_set(self):
        assert EX_A.descent_set() == frozenset(
            {Cell(1, 2), Cell(1, 3), Cell(2, 1), Cell(2, 3),
             Cell(3, 1), Cell(3, 2)})
        assert EX_A.descent_count() == 6

    def test_golden_descent_level_sets(self):
        assert EX_A.descent_level_sets() == {
            (1, 4): frozenset({2}),
            (1, 2): frozenset({3}),
            (2, 4): frozenset({1}),
            (2, 1): frozenset({3}),
            (3, 2): frozenset({1, 2}),
        }

    def test_golden_hook_volumes(self):
        assert EX_A.up_hook_volume() == 21
        assert EX_A.corner_volume() == 15
        assert EX_B.up_hook_volume() == 20

    def test_shape(self):
        assert EX_A.shape() == Partition([3, 3, 2])

    def test_column_counts(self):
        # columns of EX_A hold values {4,2}, {4,2}, {2,1}
        assert EX_A.column_counts(4) == (1, 3, 0, 2)
        with pytest.raises(ValueError):
            EX_A.column_counts(3)

    def test_row_descent_counts(self):
        assert EX_A.row_descent_counts() == (2, 2, 2)
        assert sum(EX_A.row_descent_counts()) == EX_A.descent_count()

    def test_corner_volume_from_column_counts(self):
        for pp in gen_pp_box(2, 2, 3):
            cc = pp.column_counts(3)
            assert pp.corner_volume() == sum(
                i * c for i, c in enumerate(cc, start=1))

    def test_corner_bounded_by_volume_and_uh(self):
        for pp in gen_pp_box(2, 3, 2):
            assert pp.up_hook_volume() >= pp.corner_volume()
            assert pp.volume() >= pp.corner_volume()

    def test_antinorm_positivity(self):
        for pp in gen_pp_box(2, 2, 2):
            assert (pp.corner_volume() == 0) == (not pp)


class TestMonoidLaws:
    def test_add_golden(self):
        s = PlanePartition([[2, 1]]).add(PlanePartition([[1], [1]]))
        assert s == PlanePartition([[3, 1], [1]])

    def test_volume_additive(self):
        pps = list(gen_pp_box(2, 2, 2))
        for p1 in pps:
            for p2 in pps:
                assert p1.add(p2).volume() == p1.volume() + p2.volume()

    def test_corner_volume_superadditive(self):
        pps = list(gen_pp_box(2, 2, 2))
        for p1 in pps:
            for p2 in pps:
                assert p1.add(p2).corner_volume() >= \
                    p1.corner_volume() + p2.corner_volume()

    def test_up_hook_not_superadditive_entrywise(self):
        # the minimal counterexample: the row depths of coincident
        # descents are counted once in the sum, twice in the parts
        col = PlanePartition([[1], [1]])
        assert col.up_hook_volume() == 2
        assert col.add(col).up_hook_volume() == 3

    def test_scaling_laws(self):
        for pp in gen_pp_box(2, 2, 2):
            for k in (1, 2, 3):
                sc = pp.scale(k)
                assert sc.corner_volume() == k * pp.corner_volume()
                assert sc.up_hook_volume() == \
                    pp.up_hook_volume() + (k - 1) * pp.corner_volume()
                assert sc.descent_set() == pp.descent_set()

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EX_A.scale(0)


class TestBoxPredicates:
    def test_exact_base_requires_full_rectangle(self):
        assert PlanePartition([[2, 2], [1, 1]]).exact_base(2, 2, 2)
        assert not PlanePartition([[2, 2], [1]]).exact_base(2, 2, 2)
        assert not PlanePartition([[2, 2]]).exact_base(2, 2, 2)
        assert PlanePartition().exact_base(0, 0, 3)
        assert not PlanePartition().exact_base(1, 1, 3)


def nmatrix_reference(entries, n_rows=None, n_cols=None):
    """The element-wise validation NMatrix.__init__ replaced, kept as a
    reference: the stored entries, or the same exception.
    """
    rows = tuple(tuple(index(v) for v in row) for row in entries)
    if n_rows is None:
        n_rows = len(rows)
    if n_cols is None:
        n_cols = len(rows[0]) if rows else 0
    n_rows, n_cols = index(n_rows), index(n_cols)
    if len(rows) != n_rows or any(len(r) != n_cols for r in rows):
        raise ValueError("ragged or mis-sized matrix")
    if any(v < 0 for r in rows for v in r):
        raise ValueError("entries must be nonnegative")
    return rows


def word_reference(letters, m):
    """The element-wise validation Word.__init__ replaced, kept as a
    reference: the stored letters, or the same exception.
    """
    letters = tuple(index(v) for v in letters)
    if index(m) < 0:
        raise ValueError("alphabet size must be nonnegative")
    if any(not 1 <= v <= m for v in letters):
        raise ValueError("letter out of alphabet range")
    return letters


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Index:
    """An integer-like object that is no int: it has only __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def raised_or_value(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestConstructorsMatchReferences:
    @pytest.mark.parametrize("args", [
        ([[1, 2], [3]],), ([[1], [2, 3]],), ([[1, 2]], 2),
        ([[1, 2]], 1, 3), ([[]],), ([[], []], 2, 0), ([], 0, 4),
        ([[-1]],), ([[0, 2], [1, -3]],), ([[1, 2], [3]], None, 3),
        ([["x"]],), ([[None]],), ([[1.5, "2"]],), ([[1, 2], [3, 4]], 2, 2),
        ([[-1, "x"]],), ([[-1], [2, 3]],), ([],), ([[0]], 1, 1),
        ([[1, 0], [0, 1]], 2.0, 2), ([[1]], 1, "1"), ([[1.5]], 1.0),
    ])
    def test_nmatrix(self, args):
        expected = raised_or_value(nmatrix_reference, *args)
        got = raised_or_value(lambda *a: NMatrix(*a).entries, *args)
        assert got == expected

    @pytest.mark.parametrize("letters, m", [
        ([1, 5], 4), ([0], 2), ([1], 0), ([], 0), ([], -1), ([3], -1),
        (["x"], 3), ([None], 3), ([2.0, "3"], 3), ([3, 1, 2], 3),
        ([-1, 2], 3), ([1, 2, 4, 3], 3), ([1, 2], 2.0), ([1.5], "2"),
    ])
    def test_word(self, letters, m):
        expected = raised_or_value(word_reference, letters, m)
        got = raised_or_value(lambda *a: Word(*a).letters, letters, m)
        assert got == expected

    @pytest.mark.parametrize("rows", [
        [[1.5]], [[2.0, 1]], [["2"]], [[2, "1"]], [[None]], [None],
        [[True, True], [True]], [[2, False]], [[-1]], [[2, 1], [-1]],
        [[2, -1]], [[2, 0, 1]], [[0, 1]], [[2, 1, 0], [1, 0], [0]],
        [[1], [], [1]], [[], [1]], [[]], [[], []], [], [[1, 2]],
        [[1], [2]], [[1], [1, 1]], [[2, 2], [0, 1]], [[3, 2], [2, 1], [1]],
        ((3, 2), (2, 1), (1,)), [(3, 2), [2]], (range(3, 0, -1),),
        [[Level.HIGH, Level.LOW], [Level.LOW]], [[Level.LOW, 2]],
        [[Index(2), 1], [Index(1)]], [[Index(1), Index(2)]], [[Index(-1)]],
        lambda: ((v for v in row) for row in [[2, 1], [1]]),
        lambda: (iter(row) for row in [[1], [2]]),
        [Cell(2, 1), Cell(1, 1)], [Cell(2, 0), [True]], [Cell(1, 2)],
        [[2, 1], [1, 1.0]], [[3, 2.5, 1]],
    ])
    def test_plane_partition(self, rows):
        # rows that a reading uses up (generators) come from a callable,
        # called once per reading
        make = rows if callable(rows) else lambda: rows
        expected = raised_or_value(plane_partition_rows_reference, make())
        got = raised_or_value(lambda r: PlanePartition(r).rows, make())
        assert got == expected
        if expected[:1] not in ((TypeError,), (ValueError,)):
            # stored as exact tuples of exact ints, whatever came in
            assert {type(got), *map(type, got)} <= {tuple}
            assert {type(v) for row in got for v in row} <= {int}

    def test_plane_partition_on_every_small_input(self):
        # every r x c grid with r, c <= 3 and at most 6 cells, and rows
        # of a few ragged lengths, over the entries -1..2: faults in
        # several rows at once, whose order the reference fixes
        lengths = [(c,) * r for r in range(4) for c in range(4) if r * c <= 6]
        lengths += [(3, 1), (1, 3), (2, 0, 2), (0, 2), (1, 2, 1), (2, 3)]
        inputs = 0
        for lens in lengths:
            for cells in product((-1, 0, 1, 2), repeat=sum(lens)):
                entries = iter(cells)
                rows = [list(islice(entries, n)) for n in lens]
                assert raised_or_value(lambda r: PlanePartition(r).rows,
                                       rows) == \
                    raised_or_value(plane_partition_rows_reference, rows)
                inputs += 1
        assert inputs == 10_683


class TestNMatrix:
    def test_dims_and_sums(self):
        D = NMatrix([[0, 1, 0], [2, 0, 1]])
        assert (D.n_rows, D.n_cols) == (2, 3)
        assert tuple(map(sum, D.entries)) == (1, 3)
        assert tuple(map(sum, zip(*D.entries))) == (2, 1, 1)
        assert D.entries[1][0] == 2

    def test_zero_dims_part_of_identity(self):
        assert NMatrix([[0] * 3] * 2) != NMatrix([[0] * 2] * 3)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            NMatrix([[1, 2], [3]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NMatrix([[-1]])

    def test_json_roundtrip(self):
        D = NMatrix([[0, 1], [2, 0]])
        assert NMatrix.from_json(D.to_json()) == D

    @pytest.mark.parametrize("rows, cols",
                             [(2.0, 2), (2, 2.0), ("2", 2), (2, "2")])
    def test_json_dimensions_must_be_integers(self, rows, cols):
        # read with operator.index like the entries, so a float dimension
        # is refused here rather than failing later in a kernel
        with pytest.raises(TypeError):
            NMatrix.from_json({"rows": rows, "cols": cols,
                               "data": [[1, 0], [0, 1]]})


class TestWord:
    def test_from_digits(self):
        w = Word.from_digits("132434", 4)
        assert w.letters == (1, 3, 2, 4, 3, 4)
        assert len(w) == 6

    @pytest.mark.parametrize("digits", [
        "\u0661\u0663\u0662", "\uff11\uff13\uff12", "1\u0663"],
        ids=["arabic-indic", "fullwidth", "mixed"])
    def test_from_digits_reads_ascii_digits_only(self, digits):
        # int() reads the decimal digits of every script
        with pytest.raises(ValueError, match="ASCII digits"):
            Word.from_digits(digits, 3)

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(ValueError):
            Word([1, 5], 4)
        with pytest.raises(ValueError):
            Word([0], 2)

    def test_empty_alphabet(self):
        # the empty word is the one word over no letters
        assert len(Word([], 0)) == 0
        with pytest.raises(ValueError, match="letter out of alphabet"):
            Word([1], 0)
        with pytest.raises(ValueError, match="nonnegative"):
            Word([], -1)
