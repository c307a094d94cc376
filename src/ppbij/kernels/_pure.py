"""Pure-Python kernels for the enumeration and bijection inner loops.

These functions work on plain tuples (rows of a plane partition as a tuple
of tuples, matrices as a tuple of row tuples), so that the hot loops build
no value objects.  Wrapping into the value types of ppbij.core happens in
the calling modules.
"""

BACKEND = "pure"


def row_candidates(bounds, max_sum):
    """All weakly decreasing positive sequences r with r[j] <= bounds[j]
    and sum(r) <= max_sum, in lexicographic order (shorter prefixes first).

    bounds must itself be weakly decreasing.  The empty row is not included.
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


def pp_box(k, n, m, max_volume=None):
    """Yield all plane partitions in the k x n x m box, as row-tuples.

    Bounded by total volume when max_volume is given.  Deterministic
    order: depth-first by rows, rows in lexicographic order.

    The rows that fit under a bounding row are listed once per call,
    with their sums, up to min(sum(bounds), max_volume), and filtered
    by the volume left at each use.
    """
    if max_volume is None:
        max_volume = k * n * m
    under = {}  # bounding row -> [(row, sum(row))] of the rows below it
    rows = []

    def candidates(bounds):
        cands = under.get(bounds)
        if cands is None:
            cap = min(sum(bounds), max_volume)
            cands = under[bounds] = [
                (row, sum(row)) for row in row_candidates(bounds, cap)]
        return cands

    def recurse(budget):
        yield tuple(rows)
        if len(rows) >= n:
            return
        for cand, size in candidates(rows[-1] if rows else (m,) * k):
            if size <= budget:
                rows.append(cand)
                yield from recurse(budget - size)
                rows.pop()

    yield from recurse(max_volume)


def pp_shape(shape, m, strict=False):
    """All fillings of the Young diagram `shape` with entries in [1, m],
    weakly decreasing along rows and (strictly, if strict) down columns.

    Returns row-tuples in deterministic depth-first order; cells are
    filled row-major.
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
        lo = 1
        for v in range(hi, lo - 1, -1):
            grid[i][j] = v
            fill(ni, nj)
        grid[i][j] = 0

    fill(0, 0)
    return results


def matrices_weighted(n, m, weights, bound):
    """All n x m matrices of nonnegative integers with weighted entry sum
    sum(d[i][l] * weights[i][l]) <= bound, as entry row-tuples.

    weights is an n x m grid of positive integers (pass all ones for a
    plain total-sum bound).  Deterministic row-major order.
    """
    flat_w = [weights[i][j] for i in range(n) for j in range(m)]
    if any(w <= 0 for w in flat_w):
        raise ValueError("weights must be positive")
    cells = n * m
    entries = [0] * cells
    results = []

    def fill(pos, budget):
        if pos == cells:
            results.append(
                tuple(tuple(entries[i * m:(i + 1) * m]) for i in range(n))
            )
            return
        w = flat_w[pos]
        for d in range(budget // w + 1):
            entries[pos] = d
            fill(pos + 1, budget - d * w)
        entries[pos] = 0

    fill(0, bound)
    return results


def insert_level(rows, level, i):
    """One insertion step of the inverse map, in place on `rows` (a list
    of row lists forming a plane partition): fill the leftmost column of
    length < i with `level` down to row i, opening a new column on the
    right when every column is at least i long.

    That column is the one at index len(rows[i-1]); the cells it gains
    are the ends of the rows above row i that have exactly that length,
    so the step costs the cells it adds.  Raises
    ValueError("invalid insertion") if the entry just above those cells
    is below `level`, leaving `rows` as it was.
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


def phi_inverse_rows(entries, n, m):
    """Invert the descent-level-count map: rebuild the unique plane
    partition (row tuples) with at most n rows and entries <= m whose
    count matrix is `entries`.

    Scan order: value column l = m..1, row index i = n..1, one single
    insertion (insert_level) per unit of d[i][l].
    """
    rows = []
    for l in range(m, 0, -1):
        for i in range(n, 0, -1):
            for _ in range(entries[i - 1][l - 1]):
                insert_level(rows, l, i)
    return tuple(map(tuple, rows))


def word_tableau_rows(letters):
    """The inverse map on a word's 0/1 matrix, whose column p holds a
    single 1 at row letters[p-1]: rebuild the strict tableau (row
    tuples) by inserting p at row letters[p-1] for p = n..1.
    """
    rows = []
    for p in range(len(letters), 0, -1):
        insert_level(rows, p, letters[p - 1])
    return tuple(map(tuple, rows))


def lis_tail(letters, m, i):
    """Length of the longest weakly increasing subsequence of the word
    using only the top i letters {m-i+1, ..., m}.
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
