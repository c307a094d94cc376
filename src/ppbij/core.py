"""Core value types: partitions, plane partitions, N-matrices, words.

All indices are 1-based (row i, column j, value level l); conversion to
0-based happens only inside implementations and at the JSON boundary.
All types are immutable and hashable, so they can be used freely as set
elements and dictionary keys during exhaustive enumeration.

Validation is a boundary.  Three kinds of value are built by the
validating public constructors, which check their input with builtin
passes and read each entry, and an `NMatrix`'s dimensions and a `Word`'s
alphabet size, with `operator.index`, so that a float or a numeric
string raises TypeError instead of being truncated:

- public, JSON and CLI input;
- the inverse-map images, built by `bijection.phi_inverse` and
  `bijection.word_to_strict_tableau` alone (see `phi_inverse` for why);
- the outputs of the code the checks test: the `MultiPoly` tallies of
  the statistics (wrapped, an exponent 2.0 from a faulty statistic
  would merge with 2 and pass) and `PlanePartition.add` and `scale`,
  whose laws `check_superadditivity` tests.

Every other value is made by trusted code (the kernels, itertools, or a
computation on validated values) and is wrapped without a second check
by the private classmethods `PlanePartition._from_rows`,
`Partition._from_parts`, `NMatrix._from_entries` and
`Word._from_letters`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import compress, count, zip_longest
from operator import gt, index, lt, mul


class Cell(namedtuple("Cell", "i j")):
    """A 1-based (row, column) position."""

    __slots__ = ()


class Partition:
    """A weakly decreasing sequence of positive integers.

    The empty partition is allowed.  Trailing zeros are never stored.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(map(index, parts))
        if 0 in parts:
            parts = tuple(filter(None, parts))
        if any(map(lt, parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        if parts and parts[-1] < 0:
            raise ValueError("parts must be positive")
        self.parts = parts

    @classmethod
    def _from_parts(cls, parts: tuple[int, ...]) -> "Partition":
        """Wrap parts computed from a validated value without checking
        them again: `parts` must already be a tuple of positive ints in
        weakly decreasing order.  Public input goes through __init__.
        """
        lam = object.__new__(cls)
        lam.parts = parts
        return lam

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, k):
        return self.parts[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("Partition", self.parts))

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def __bool__(self) -> bool:
        return bool(self.parts)

    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-based); 0 beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        return Partition._from_parts(tuple([
            sum(p > j for p in self.parts) for j in range(self.part(1))]))

    @staticmethod
    def rectangle(k: int, n: int) -> "Partition":
        """The rectangle (k^n): n rows of length k."""
        return Partition((k,) * n) if k > 0 else Partition()


class PlanePartition:
    """A 2D array of positive integers, weakly decreasing along rows and
    columns; absent cells read as 0.

    Stored canonically: zero entries are trimmed, so two plane partitions
    are equal iff their stored rows are equal.  The descent walk is built
    on first use and kept; it plays no part in equality or hashing.
    """

    __slots__ = ("rows", "_walk")

    def __init__(self, rows: Iterable[Iterable[int]] = ()):
        raw = [tuple(map(index, row)) for row in rows]
        trimmed = []
        unsorted = False
        for row in raw:
            if row != tuple(sorted(row, reverse=True)):
                # a weakly decreasing row can go wrong only at its end (a
                # negative entry, or zeros to trim), so only a row that
                # increases somewhere is checked entry by entry
                if min(row) < 0:
                    raise ValueError("entries must be nonnegative")
                n = len(row)
                while row[n - 1] == 0:
                    n -= 1
                row = row[:n]
                if 0 in row:
                    raise ValueError("zero entry inside a row")
                unsorted = True
            elif row and row[-1] <= 0:
                if row[-1] < 0:
                    raise ValueError("entries must be nonnegative")
                row = row[:row.index(0)]
            trimmed.append(row)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        if not all(trimmed):
            raise ValueError("empty row above a nonempty row")
        rows = tuple(trimmed)
        lengths = list(map(len, rows))
        if any(map(lt, lengths, lengths[1:])):
            raise ValueError("row lengths must weakly decrease")
        if unsorted:
            raise ValueError("rows must be weakly decreasing")
        for upper, lower in zip(rows, rows[1:]):
            if any(map(lt, upper, lower)):
                raise ValueError("columns must be weakly decreasing")
        self.rows = rows
        self._walk = None

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...]) -> "PlanePartition":
        """Wrap kernel output without validating it: `rows` must already
        be canonical (a tuple of nonempty int tuples forming a plane
        partition).  Public and JSON input goes through __init__.
        """
        pp = object.__new__(cls)
        pp.rows = rows
        pp._walk = None
        return pp

    def __eq__(self, other) -> bool:
        return isinstance(other, PlanePartition) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(("PlanePartition", self.rows))

    def __repr__(self) -> str:
        return f"PlanePartition({[list(r) for r in self.rows]})"

    def __bool__(self) -> bool:
        return bool(self.rows)

    def n_rows(self) -> int:
        return len(self.rows)

    def max_entry(self) -> int:
        return self.rows[0][0] if self.rows else 0

    # -- statistics ----------------------------------------------------

    def shape(self) -> Partition:
        return Partition._from_parts(tuple(map(len, self.rows)))

    def volume(self) -> int:
        return sum(map(sum, self.rows))

    def trace(self) -> int:
        return sum(
            row[i] for i, row in enumerate(self.rows) if i < len(row)
        )

    def _descent_rows(self, labels=None) -> tuple[tuple, ...]:
        """The descent walk: for each row i, the entries of its descent
        cells, left to right.  A descent cell's entry strictly exceeds
        the entry directly below it (absent cells read 0), so the cells
        past the end of the row below are all descents.  Given `labels`,
        one sequence per row parallel to it, the walk picks the labels of
        the descent cells instead of their entries.  Every descent
        statistic reduces this walk; the walk of the entries is built by
        the first call and returned by every later one.
        """
        if labels is None:
            if self._walk is None:
                self._walk = self._descent_rows(self.rows)
            return self._walk
        rows = self.rows
        return tuple([
            (*compress(label, map(gt, row, below)), *label[len(below):])
            for row, below, label in zip(rows, rows[1:] + ((),), labels)])

    def _descent_columns(self) -> tuple[tuple[int, ...], ...]:
        """For each row, the columns j of its descent cells."""
        return self._descent_rows(
            [range(1, len(row) + 1) for row in self.rows])

    def descent_set(self) -> frozenset[Cell]:
        """Cells whose entry strictly exceeds the entry directly below."""
        return frozenset(Cell(i, j)
                         for i, js in enumerate(self._descent_columns(), 1)
                         for j in js)

    def descent_count(self) -> int:
        return sum(map(len, self._descent_rows()))

    def descent_level_sets(self) -> dict[tuple[int, int], frozenset[int]]:
        """D_{i,l}: the columns j where row i has value l and a descent.

        Only nonempty sets appear in the returned map.
        """
        out: dict[tuple[int, int], set[int]] = {}
        walk = self._descent_columns()
        for i, (row, js) in enumerate(zip(self.rows, walk), 1):
            for j in js:
                out.setdefault((i, row[j - 1]), set()).add(j)
        return {key: frozenset(js) for key, js in out.items()}

    def up_hook_volume(self) -> int:
        """Sum of (entry + row - 1) over descent cells: the corner volume
        plus (i - 1) d_i summed over the rows.
        """
        walk = self._descent_rows()
        return sum(map(sum, walk)) + sum(map(mul, count(), map(len, walk)))

    def corner_volume(self) -> int:
        """Sum of entries over descent cells."""
        return sum(map(sum, self._descent_rows()))

    def column_counts(self, m: int) -> tuple[int, ...]:
        """c_i for i = 1..m: the number of columns containing value i."""
        if self.max_entry() > m:
            raise ValueError("value out of range")
        counts = [0] * (m + 1)  # counts[0] absorbs the absent cells
        for column in zip_longest(*self.rows, fillvalue=0):
            for v in set(column):
                counts[v] += 1
        return tuple(counts[1:])

    def row_descent_counts(self) -> tuple[int, ...]:
        """d_i: the number of descent cells in row i."""
        return tuple(map(len, self._descent_rows()))

    def add(self, other: "PlanePartition") -> "PlanePartition":
        """Entrywise sum; absent cells read 0."""
        return PlanePartition(
            map(sum, zip_longest(a, b, fillvalue=0))
            for a, b in zip_longest(self.rows, other.rows, fillvalue=()))

    def scale(self, k: int) -> "PlanePartition":
        """Every entry multiplied by k >= 1; the descent set is unchanged."""
        if k < 1:
            raise ValueError("scale factor must be positive")
        return PlanePartition([[k * v for v in row] for row in self.rows])

    def exact_base(self, k: int, n: int, m: int) -> bool:
        """Base shape exactly the k x n rectangle (n rows, every row of
        length k), entries <= m.
        """
        if not self.rows:
            return k == 0 or n == 0
        return (
            len(self.rows) == n
            and len(self.rows[0]) == k
            and len(self.rows[-1]) == k
            and self.rows[0][0] <= m
        )

    def to_json(self) -> list:
        return [list(r) for r in self.rows]

    @staticmethod
    def from_json(data) -> "PlanePartition":
        return PlanePartition(data)


class NMatrix:
    """A rectangular grid of nonnegative integers with explicit dimensions.

    Zero rows and columns are permitted; the dimensions are part of the
    value's identity.
    """

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]], n_rows: int | None = None,
                 n_cols: int | None = None):
        rows = tuple([tuple(map(index, row)) for row in entries])
        if n_rows is None:
            n_rows = len(rows)
        if n_cols is None:
            n_cols = len(rows[0]) if rows else 0
        n_rows, n_cols = index(n_rows), index(n_cols)
        if len(rows) != n_rows or \
                list(map(len, rows)).count(n_cols) != len(rows):
            raise ValueError("ragged or mis-sized matrix")
        if rows and n_cols and min(map(min, rows)) < 0:
            raise ValueError("entries must be nonnegative")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = rows

    @classmethod
    def _from_entries(cls, entries: tuple[tuple[int, ...], ...],
                      n_rows: int, n_cols: int) -> "NMatrix":
        """Wrap entries computed from a validated value without checking
        them again: `entries` must already be n_rows tuples of n_cols
        nonnegative ints.  Public and JSON input goes through __init__.
        """
        D = object.__new__(cls)
        D.n_rows = n_rows
        D.n_cols = n_cols
        D.entries = entries
        return D

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NMatrix)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash(("NMatrix", self.n_rows, self.n_cols, self.entries))

    def __repr__(self) -> str:
        return f"NMatrix({[list(r) for r in self.entries]})"

    def to_json(self) -> dict:
        return {
            "rows": self.n_rows,
            "cols": self.n_cols,
            "data": [list(r) for r in self.entries],
        }

    @staticmethod
    def from_json(data) -> "NMatrix":
        return NMatrix(data["data"], data["rows"], data["cols"])


class Word:
    """A finite sequence of letters from the alphabet {1, ..., m}."""

    __slots__ = ("letters", "m")

    def __init__(self, letters: Iterable[int], m: int):
        letters = tuple(map(index, letters))
        m = index(m)
        if m < 0:
            raise ValueError("alphabet size must be nonnegative")
        if letters and not 1 <= min(letters) <= max(letters) <= m:
            raise ValueError("letter out of alphabet range")
        self.letters = letters
        self.m = m

    @classmethod
    def _from_letters(cls, letters: tuple[int, ...], m: int) -> "Word":
        """Wrap letters computed from a validated value without checking
        them again: `letters` must already be a tuple of ints in 1..m.
        Public input goes through __init__.
        """
        w = object.__new__(cls)
        w.letters = letters
        w.m = m
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters and self.m == other.m

    def __hash__(self) -> int:
        return hash(("Word", self.letters, self.m))

    def __repr__(self) -> str:
        return f"Word({''.join(map(str, self.letters))}, m={self.m})"

    @staticmethod
    def from_digits(s: str, m: int) -> "Word":
        """Parse a word from a string of ASCII digits like '132434'."""
        if not s.isascii():  # int() also reads other scripts' digits
            raise ValueError("letters must be the ASCII digits 0-9")
        return Word([int(c) for c in s], m)
