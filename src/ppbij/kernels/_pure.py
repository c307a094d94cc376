"""Pure-Python kernels for the enumeration and bijection inner loops.

These functions work on plain tuples (rows of a plane partition as a tuple
of tuples, matrices as a tuple of row tuples), so that the hot loops build
no value objects.  Wrapping into the value types of ppbij.core happens in
the calling modules.
"""

from itertools import combinations, combinations_with_replacement
from operator import le

BACKEND = "pure"


def row_candidates(bounds, max_sum):
    """All weakly decreasing positive sequences r with r[j] <= bounds[j]
    and sum(r) <= max_sum, in lexicographic order (shorter prefixes first).

    bounds must itself be weakly decreasing.  The empty row is not included.
    Each next row opens a cell at 1 if one fits, else adds one to the
    last cell below its cap, clearing the cells after it.
    """
    out = []
    row = []
    caps = []  # the largest value each cell of row may take
    left = max_sum  # max_sum - sum(row)
    cap = min(bounds[0], max_sum) if bounds else 0  # the next cell's cap
    while True:
        if cap > 0:
            row.append(1)
            caps.append(cap)
        else:
            while row and row[-1] == caps[-1]:
                left += row.pop()
                caps.pop()
            if not row:
                return out
            row[-1] += 1
        left -= 1
        out.append(tuple(row))
        pos = len(row)
        cap = min(row[-1], bounds[pos], left) if pos < len(bounds) else 0


def pp_box(k, n, m, max_volume=None):
    """Yield all plane partitions in the k x n x m box, as row-tuples.

    Bounded by total volume when max_volume is given.  Deterministic
    order: depth-first by rows, rows in lexicographic order.

    The rows that fit under a bounding row are listed once per call,
    with their sums, up to min(sum(bounds), max_volume), and filtered
    by the volume left at each use.  The depth-first walk keeps an
    explicit stack, one (candidate iterator, volume left) frame per
    row below the current rows, so a member is yielded from this frame
    alone.
    """
    if max_volume is None:
        max_volume = k * n * m
    under = {}  # bounding row -> [(row, sum(row))] of the rows below it

    def candidates(bounds):
        cands = under.get(bounds)
        if cands is None:
            cap = min(sum(bounds), max_volume)
            cands = under[bounds] = [
                (row, sum(row)) for row in row_candidates(bounds, cap)]
        return iter(cands)

    rows = []
    yield ()
    if n < 1:
        return
    stack = [(candidates((m,) * k), max_volume)]
    while stack:
        cands, budget = stack[-1]
        for cand, size in cands:
            if size <= budget:
                rows.append(cand)
                yield tuple(rows)
                if len(rows) < n:
                    stack.append((candidates(cand), budget - size))
                    break
                rows.pop()
        else:
            stack.pop()
            if rows:
                rows.pop()


def pp_shape(shape, m, strict=False):
    """All fillings of the Young diagram `shape` with entries in [1, m],
    weakly decreasing along rows and (strictly, if strict) down columns.

    Returns row-tuples in deterministic depth-first order: rows in
    decreasing lexicographic order, from the top row down.  Built a whole
    row at a time: each filling of the rows so far is extended by every
    row that fits under its last row.  Those rows are listed once per
    bounding row from combinations_with_replacement, one less under each
    entry if strict.
    """
    if strict and len(shape) > m:
        return []
    drop = 1 if strict else 0
    fillings = [()]
    for width in shape:
        under = {}  # bounding row -> the rows that fit under it
        grown = []
        for rows in fillings:
            # the top row lies under (m, ..., m) once the drop is taken
            above = rows[-1] if rows else (m + drop,) * width
            cands = under.get(above)
            if cands is None:
                bounds = [v - drop for v in above[:width]]
                cands = under[above] = [
                    row for row in combinations_with_replacement(
                        range(bounds[0], 0, -1), width)
                    if all(map(le, row, bounds))]
            grown += [rows + (row,) for row in cands]
        fillings = grown
    return fillings


def strict_rows(bounds):
    """All strictly decreasing positive rows r of width len(bounds) with
    r[j] <= bounds[j], in decreasing lexicographic order.
    """
    return [row for row in combinations(range(max(bounds, default=0), 0, -1),
                                        len(bounds))
            if all(map(le, row, bounds))]


def matrices_weighted(n, m, weights, bound):
    """Yield (sum(d[i][l] * weights[i][l]), d) for every n x m matrix d
    of nonnegative integers whose weighted entry sum is at most bound,
    d as entry row-tuples.

    weights is an n x m grid of positive integers (pass all ones for a
    plain total-sum bound).  Deterministic row-major order, from the zero
    matrix: each next one adds one to the last entry that fits once the
    entries after it are cleared.  The weights are checked on the first
    step.
    """
    flat_w = [weights[i][j] for i in range(n) for j in range(m)]
    if any(w <= 0 for w in flat_w):
        raise ValueError("weights must be positive")
    if bound < 0:
        return
    entries = [0] * len(flat_w)
    rows = [slice(i * m, (i + 1) * m) for i in range(n)]
    left = bound  # bound minus the weighted sum of entries
    while True:
        yield bound - left, tuple([tuple(entries[r]) for r in rows])
        pos = len(entries) - 1
        while pos >= 0 and flat_w[pos] > left:
            left += entries[pos] * flat_w[pos]
            entries[pos] = 0
            pos -= 1
        if pos < 0:
            return
        entries[pos] += 1
        left -= flat_w[pos]


def phi_inverse_rows(entries, n, m):
    """Invert the descent-level-count map: rebuild the unique plane
    partition (row tuples) with at most n rows and entries <= m whose
    count matrix is `entries`.

    One pass per level l = m..1, bottom-up over the rows, appending
    level l: row i reaches at least the new length of row i+1 (a cell
    above a cell of level l holds at least l), and its d[i][l] descent
    cells of level l lie past that, so row i ends at
    max(len(row i), new len(row i+1)) + d[i][l].
    """
    rows = [[] for _ in range(n)]
    for l in range(m, 0, -1):
        width = 0  # the new length of the row below
        for i in range(n - 1, -1, -1):
            row = rows[i]
            have = len(row)
            if width < have:
                width = have
            width += entries[i][l - 1]
            if width > have:
                row += [l] * (width - have)
    return tuple(map(tuple, filter(None, rows)))


def word_tableau_rows(letters):
    """The inverse map on a word's 0/1 matrix, whose column p holds a
    single 1 at row letters[p-1]: rebuild the strict tableau (row
    tuples) for p = n..1, where p fills the leftmost column shorter than
    i = letters[p-1] down to row i.  That column ends row i, so p goes
    at the end of row i and of each row above it of the same length.
    """
    rows = [[] for _ in range(max(letters, default=0))]
    for p in range(len(letters), 0, -1):
        k = letters[p - 1] - 1
        row = rows[k]
        width = len(row)
        row.append(p)
        while k:
            k -= 1
            row = rows[k]
            if len(row) != width:
                break
            row.append(p)
    return tuple(map(tuple, rows))


def _lis_pass(letters, lo, m):
    """One right-to-left pass over the word's letters in lo..m.

    Let start[a] be the length of the longest weakly increasing
    subsequence of the letters read so far (a suffix of the word) that
    starts with letter a; a letter a read next starts one of length
    1 + max(start[b] for b >= a).  The pass keeps the suffix maxima
    best[a - lo] = max(start[b] for b >= a), raising the entries at and
    left of a that fall below the new value, and returns them.
    """
    best = [0] * (m - lo + 1)
    for a in reversed(letters):
        k = a - lo
        if k >= 0:
            v = best[k] + 1
            while k >= 0 and best[k] < v:
                best[k] = v
                k -= 1
    return best


def lis_tails(letters, m):
    """(L_1, ..., L_m): L_i is the length of the longest weakly
    increasing subsequence of the word using only the top i letters
    {m-i+1, ..., m}.  Such a subsequence starts at a letter
    a >= m-i+1, so L_i is the suffix maximum at m-i+1 of one pass.
    """
    return tuple(reversed(_lis_pass(letters, 1, m)))


def lis_tail(letters, m, i):
    """L_i alone: the pass of lis_tails over the top i letters only."""
    best = _lis_pass(letters, m - i + 1, m)
    return best[0] if best else 0
