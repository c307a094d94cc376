"""The faults the identity checks must catch, one table of mutants.

A mutant is a list of patches and a list of instances.  A patch is a
dotted target and a function that builds its replacement from the
original.  An instance is a check name, the check's arguments and the
label its first_diff must report: the whole label of an integer
comparison, "label:" before the monomial of a polynomial one, or None
when any differing comparison will do.

`tests/test_checks.py` runs every instance under its mutant, and every
mutant over the small grid.  A new fault is a new entry here.
"""

from itertools import compress, zip_longest
from operator import add, ge
from pkgutil import resolve_name
from typing import NamedTuple

from ppbij.core import Partition, PlanePartition, Word
from ppbij.enumeration import gen_pp_shape
from ppbij.poly import Truncation


class Mutant(NamedTuple):
    patches: list    # (dotted target, original -> replacement)
    instances: list  # (check name, arguments, first_diff label or None)


def apply(monkeypatch, mutant: Mutant):
    """Patch every target of the mutant with its replacement."""
    for target, build in mutant.patches:
        monkeypatch.setattr(target, build(resolve_name(target)))


def weak_descents(self, labels=None):
    """PlanePartition._descent_rows with >= in place of >: every cell
    whose value is at least the value below counts as a descent.
    """
    rows = self.rows
    if labels is None:
        labels = rows
    return [[*compress(label, map(ge, row, below)), *label[len(below):]]
            for row, below, label in zip(rows, rows[1:] + ((),), labels)]


def counts_one_row_up(entries):
    """The count matrix with the counts of each row i >= 2 moved to row
    i-1: row 1 holds d[1] + d[2] and the last row none.
    """
    if len(entries) < 2:
        return entries
    return [list(map(add, entries[0], entries[1])), *entries[2:],
            [0] * len(entries[0])]


def cells_one_level_low(kernel):
    """`kernel` with every cell of its row tuples one lower."""
    return lambda *args: tuple(tuple(v - 1 for v in row)
                               for row in kernel(*args))


_PP = "ppbij.core.PlanePartition."
_BOX = (2, 2, 2)
_WINDOW = (2, 2, 4)

MUTANTS = {
    # volume one too high on a nonempty plane partition
    "volume_one_high": Mutant(
        [(_PP + "volume",
          lambda volume: lambda self: volume(self) + (1 if self else 0))],
        [("macmahon_box", _BOX, None), ("qschur", _BOX, None),
         ("infinite_volume", (4,), None)]),
    # a weak inequality in the descent walk, which every descent
    # statistic reads
    "weak_descents": Mutant(
        [(_PP + "_descent_rows", lambda _: weak_descents)],
        [("uh_des", _WINDOW, None), ("multivariate", _WINDOW, None),
         ("cauchy_type", _WINDOW, None)]),
    # the content (entries equal to each value) in place of the column
    # counts
    "content_for_column_counts": Mutant(
        [(_PP + "column_counts", lambda _: lambda self, m: tuple(
            sum(row.count(v) for row in self.rows) for v in range(1, m + 1)))],
        [("gl", (2, 2, 3), None), ("gexp", (Partition([2, 1]),), None)]),
    # the up-hook volume loses its row-depth term and becomes the corner
    # volume: the descent side no longer matches the product
    "flat_up_hook": Mutant(
        [(_PP + "up_hook_volume", lambda _: PlanePartition.corner_volume)],
        [("uh_des", _WINDOW, None),
         ("equidistribution", (3,), "uh_vs_product:")]),
    # the trace sums the first column instead of the diagonal
    "first_column_trace": Mutant(
        [(_PP + "trace", lambda _: lambda self: sum(row[0]
                                                    for row in self.rows))],
        [("equidistribution", (3,), "vol_vs_product:")]),
    # the up-hook volume counts each descent one row too deep
    "deep_up_hook": Mutant(
        [(_PP + "up_hook_volume",
          lambda up_hook: lambda self: up_hook(self) + self.descent_count())],
        [("uh_restricted", ("entries", 2, 4), "series:"),
         ("uh_restricted", ("rows", 2, 4), "series:")]),
    # the product side's expansion stops one degree short of the cap; each
    # instance has an enumerated term of capped degree equal to the cap
    "series_one_degree_short": Mutant(
        [("ppbij.checks.product_series",
          lambda series: lambda table, factors, trunc: series(
              table, factors, Truncation(trunc.cap - 1, trunc.family)))],
        [("macmahon_box", _BOX, None), ("infinite_volume", (4,), None),
         ("multivariate", _WINDOW, None), ("cauchy_type", _WINDOW, None),
         ("gl", (2, 2, 3), None), ("uh_des", _WINDOW, None),
         ("equidistribution", (3,), None),
         ("uh_restricted", ("entries", 2, 4), None),
         ("corner_volume", _BOX, None)]),
    # the entrywise sum becomes the entrywise maximum, still a plane
    # partition, but the volume is no longer additive
    "entrywise_max": Mutant(
        [(_PP + "add", lambda _: lambda self, other: PlanePartition(
            map(max, zip_longest(a, b, fillvalue=0))
            for a, b in zip_longest(self.rows, other.rows, fillvalue=())))],
        [("superadditivity", _BOX, "violations")]),
    # the Kostka side fills shapes with weakly decreasing columns, which
    # the column-count tally of the box does not read
    "weak_columns": Mutant(
        [("ppbij.enumeration.gen_column_strict", lambda _: gen_pp_shape)],
        [("dalpha", (2, 2, 2, 2), "kostka_expansion_failures")]),
    # the elementary polynomials of the determinant side lose the last
    # value of every row
    "dropped_value": Mutant(
        [("ppbij.symfun.elementary_all",
          lambda elementary: lambda table, kmax, vals: elementary(
              table, kmax, vals[:-1]))],
        [("qschur", _BOX, None), ("corner_volume", _BOX, None)]),
    # every longest-subsequence length one too high on a nonempty word
    "high_tail": Mutant(
        [("ppbij.kernels.lis_tails",
          lambda tails: lambda letters, m: tuple(
              t + bool(letters) for t in tails(letters, m)))],
        [("greene", (3, 3), "mismatches")]),
    # the word read back off a strict tableau comes out reversed
    "reversed_reading": Mutant(
        [("ppbij.checks.strict_tableau_to_word",
          lambda reading: lambda st, m: Word(reading(st, m).letters[::-1],
                                             m))],
        [("frobenius", (3, 3), "roundtrip_failures")]),
    # every entry of the inverse image one lower (zeros trimmed).  The
    # enumeration module builds every image it reads through this one
    # name: the unbounded product-formula side of dalpha counts the
    # mismatches, and the matrix windows of the series checks move
    "wrong_inverse_map": Mutant(
        [("ppbij.enumeration.phi_inverse",
          lambda inverse: lambda D: PlanePartition(
              [[v - 1 for v in row] for row in inverse(D).rows]))],
        [("dalpha", (2, 2, 2, 2), "product_formula_failures"),
         ("multivariate", _WINDOW, "series:"),
         ("uh_des", _WINDOW, "series:"),
         ("equidistribution", (3,), "uh_vs_product:"),
         ("uh_restricted", ("entries", 2, 4), "series:"),
         ("uh_restricted", ("rows", 2, 4), "series:"),
         ("corner_volume", _BOX, "unbounded_q3:")]),
    # the inverse map credits row max(i-1, 1) in place of row i: the
    # recurrence grows row i-1 by d[i][l], and the word step fills each
    # new column down to the row above the letter's (row 1 stays row 1).
    # The corner volume and the column counts do not read the row index,
    # so corner_volume and dalpha cannot see this fault; each instance
    # has at least two rows.
    "insertion_one_row_short": Mutant(
        [("ppbij.kernels.phi_inverse_rows",
          lambda rows: lambda entries, n, m: rows(counts_one_row_up(entries),
                                                  n, m)),
         ("ppbij.kernels.word_tableau_rows",
          lambda rows: lambda letters: rows([max(a - 1, 1)
                                             for a in letters]))],
        [("multivariate", _WINDOW, None), ("uh_des", _WINDOW, None),
         ("equidistribution", (3,), None),
         ("uh_restricted", ("entries", 2, 4), None),
         ("uh_restricted", ("rows", 2, 4), None),
         ("frobenius", (3, 3), None), ("greene", (3, 3), None),
         ("superadditivity", _BOX, None)]),
    # the recurrence and the word step write level-1 in place of level
    # (the zeros they make at level 1 are trimmed)
    "insertion_one_level_low": Mutant(
        [("ppbij.kernels.phi_inverse_rows", cells_one_level_low),
         ("ppbij.kernels.word_tableau_rows", cells_one_level_low)],
        [("multivariate", _WINDOW, None), ("uh_des", _WINDOW, None),
         ("equidistribution", (3,), None),
         ("uh_restricted", ("entries", 2, 4), None),
         ("uh_restricted", ("rows", 2, 4), None),
         ("frobenius", (3, 3), None), ("greene", (3, 3), None),
         ("superadditivity", _BOX, None), ("corner_volume", _BOX, None),
         ("dalpha", (2, 2, 2, 2), None)]),
}
