"""Named identity checks, as data.

Each check computes both sides of one identity through disjoint code
paths (exhaustive enumeration / the matrix bijection on one side, a
closed-form product or determinant on the other) and reports exact
equality with a term-level diff.  There are no tolerances anywhere.

`CHECKS` maps each name to a spec, `Check`: the check's parameters,
each stated once (`Param`: keyword, grid key, `verify` flag, parser and
default), its work model and its sides.  A side is a function of the
check's arguments that returns labelled values; one runner,
`Check.__call__`, calls each side once, pairs the two values of each
label and builds the record.

Series checks enumerate over a finite window (volume-bounded plane
partitions, weight-bounded matrices or width-bounded shapes); the
finiteness argument is enforced at run time by comparing the truncated
output with that of the window enlarged by one step.  One pass over the
enlarged window yields both: every series side hands `_window_pair` one
item per object (a matrix image, or a filling of a shape), carrying the
least window that holds it, and those inside the base window are
tallied twice.  `_window_pair` returns the side's tally and that window
law.

Each record also carries a SHA-256 digest of each side's values, so a
fault that keeps every term count but changes a coefficient still shows
against a recorded run.

`run_all` runs the grid of one level.  The levels are nested: the grids
are one ordered list of entries, each naming the least level that runs
it (`load_grids`).
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter, namedtuple
from collections.abc import Callable, Iterator, Sequence
from operator import add

from .bijection import greene_shape, phi, phi_inverse, \
    strict_tableau_to_word, word_to_strict_tableau
from .core import NMatrix, Partition, PlanePartition
from .enumeration import column_strict_contents, compositions, \
    count_D_alpha, dominates, f_lambda, gen_matrix_images, \
    gen_partitions_in_box, gen_pp_box, gen_pp_shape, gen_words
from .poly import MultiPoly, Truncation, VarTable, format_monomial, \
    product_series
from .symfun import descent_monomial, family_vars, ones, q_powers, \
    schur_specialized


class CheckResult(namedtuple(
        "CheckResult", "check_name parameters passed lhs_summary rhs_summary "
        "first_diff elapsed notes digest", defaults=(None, None))):
    """Outcome of one identity check: pass/fail plus the first differing
    monomial when the two sides disagree.  Records compare by value and
    pickle, so a process pool can return them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # each record gets its own notes list
        return self if self.notes is not None else self._replace(notes=[])

    def to_json(self) -> dict:
        return {
            "check": self.check_name,
            "parameters": self.parameters,
            "pass": self.passed,
            "lhs": self.lhs_summary,
            "rhs": self.rhs_summary,
            "first_diff": list(self.first_diff) if self.first_diff else None,
            "digest": self.digest,
            "elapsed": round(self.elapsed, 6),
            "notes": self.notes,
        }


def _poly_diff(label: str, lhs: MultiPoly, rhs: MultiPoly):
    """First differing monomial (ascending graded-lex), or None."""
    if lhs.terms == rhs.terms:
        return None
    exps = sorted(set(lhs.terms) | set(rhs.terms), key=lambda e: (sum(e), e))
    names = lhs.table.var_names()
    for exp in exps:
        a, b = lhs.coefficient(exp), rhs.coefficient(exp)
        if a != b:
            mono = format_monomial(names, exp) or "1"
            return (f"{label}:{mono}", str(a), str(b))
    return None


def _side_digest(sides) -> str:
    """SHA-256 over (label, value) for each labelled side: a polynomial's
    terms sorted by exponent, any other value as its string.
    """
    # imported here, not with the module: hashlib maps OpenSSL (3-4 MB
    # of RSS, ~5 ms), which only a check's record needs
    import hashlib
    h = hashlib.sha256()
    for label, side in sides:
        value = sorted(side.terms.items()) if isinstance(side, MultiPoly) \
            else str(side)
        h.update(json.dumps([label, value], separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def _build(name: str, params: dict, pairs, t0: float,
           notes: list[str] | None = None) -> CheckResult:
    """Assemble a CheckResult from labelled (lhs, rhs) comparisons, which
    may mix MultiPoly and plain integer sides.
    """
    first_diff = None
    lhs_bits, rhs_bits = [], []
    for label, lhs, rhs in pairs:
        if isinstance(lhs, MultiPoly):
            lhs_bits.append(f"{label}: {len(lhs.terms)} terms")
            rhs_bits.append(f"{label}: {len(rhs.terms)} terms")
            if first_diff is None:
                first_diff = _poly_diff(label, lhs, rhs)
        else:
            lhs_bits.append(f"{label}: {lhs}")
            rhs_bits.append(f"{label}: {rhs}")
            if first_diff is None and lhs != rhs:
                first_diff = (label, str(lhs), str(rhs))
    digest = {"lhs": _side_digest((label, lhs) for label, lhs, _ in pairs),
              "rhs": _side_digest((label, rhs) for label, _, rhs in pairs)}
    return CheckResult(name, params, first_diff is None, "; ".join(lhs_bits),
                       "; ".join(rhs_bits), first_diff,
                       time.perf_counter() - t0, notes, digest)


# -- checks as data ----------------------------------------------------

# One parameter of a check: its keyword `name`, its `key` in the grids and
# the records, the `flag` of `verify NAME` that sets it (None: no flag),
# its `default` (None: required; a function: computed from the arguments
# before it) and `parse`, which turns a grid value into the argument where
# the two differ.
Param = namedtuple("Param", "name key flag default parse",
                   defaults=(None, None))


def _flagged(*names: str) -> tuple[Param, ...]:
    """Required parameters, each set by the verify flag of its name."""
    return tuple(Param(name, name, name) for name in names)


class Check:
    """One identity check as data: its name, its parameters, its work
    model and its sides.  The work model and each side take the check's
    arguments.  A side returns (label, value) pairs, each one value of a
    label, and (label, left, right) triples, each a law that the side
    checks on its own.  Every label has two values, the left one from
    the earlier side; a value labelled None is a note.

    Calling a check runs it.  It takes its parameters as positional
    values, as keywords by name, or as grid values by grid key; one left
    out, or given as None, takes its default.
    """

    # __name__ is check_NAME, so that what names a callable by its
    # __name__ (functools.update_wrapper, pytest's test ids) names a check
    # as it names a function
    __slots__ = ("name", "params", "work", "sides", "__name__")

    def __init__(self, name: str, params: tuple[Param, ...],
                 work: Callable[..., int], sides: tuple[Callable, ...]):
        self.name = name
        self.params = params
        self.work = work
        self.sides = sides
        self.__name__ = f"check_{name}"

    def arguments(self, args: tuple, kwargs: dict) -> dict:
        """The keyword arguments of the work model and the sides.  A
        parameter given twice, positionally and by keyword or by name and
        by grid key, is a TypeError, as it is for a Python function.
        """
        given = dict(zip((p.name for p in self.params), args))
        twice = [name for name in kwargs if name in given]
        given.update(kwargs)
        twice += [p.name for p in self.params
                  if p.key != p.name and p.name in given and p.key in given]
        if twice:
            raise TypeError(f"check {self.name!r} got multiple values for "
                            + ", ".join(twice))
        out = {}
        for p in self.params:
            value = given.pop(p.name, None)
            if p.key in given:
                value = given.pop(p.key)
                value = p.parse(value) if p.parse else value
            if value is None:
                if p.default is None:
                    raise TypeError(f"check {self.name!r} needs {p.name}")
                value = p.default(out) if callable(p.default) else p.default
            out[p.name] = value
        if given or len(args) > len(self.params):
            raise TypeError(f"check {self.name!r} takes "
                            + ", ".join(p.name for p in self.params))
        return out

    def __call__(self, *args, **kwargs) -> CheckResult:
        """Call each side once and compare the two values of each label,
        in the order in which the sides first give the labels.
        """
        arguments = self.arguments(args, kwargs)
        t0 = time.perf_counter()
        values: dict = {}
        for side in self.sides:
            for label, *value in side(**arguments):
                values.setdefault(label, []).extend(value)
        notes = values.pop(None, [])
        params = {}
        for p in self.params:
            value = arguments[p.name]
            # the grids hold a shape or a sequence as a list
            params[p.key] = list(value) \
                if isinstance(value, (Partition, tuple, list)) else value
        return _build(self.name, params,
                      [(label, *pair) for label, pair in values.items()],
                      t0, notes)


def _check(params: tuple[Param, ...], work: Callable[..., int],
           *sides: Callable[..., list]) -> Callable[[Callable], Check]:
    """Make the decorated function check_NAME the check NAME, whose first
    side it is, followed by `sides`.
    """
    return lambda first: Check(first.__name__.removeprefix("check_"),
                               params, work, (first, *sides))


_QT = VarTable([("q", 1)])
_TQT = VarTable([("t", 1), ("q", 1)])


def _q(power: int = 1) -> MultiPoly:
    return MultiPoly.var(_QT, "q", 1, power=power)


def _window_pair(label: str, table: VarTable, trunc: Truncation, window: int,
                 items) -> list:
    """A series check's enumerated side: its tally at `window` under
    `label`, and the law that the tally at window + 1 equals it, both
    truncated, from one pass over the enlarged window.  `items` yields
    one (weight, exponent) per object of the enlarged window, weight
    being the least window that holds the object.  Equal items are
    tallied first, at C speed, so the loop runs once per distinct item,
    not once per object.
    """
    base, enlarged = Counter(), Counter()
    for (weight, exp), times in Counter(items).items():
        enlarged[exp] += times
        if weight <= window:
            base[exp] += times
    lhs = MultiPoly(table, trunc.kept_terms(table, base))
    return [(label, lhs), ("window_stable", lhs,
                           MultiPoly(table, trunc.kept_terms(table, enlarged)))]


# -- work models -------------------------------------------------------
#
# A check's work model takes the check's arguments, defaults included, and
# returns the work its enumerated sides do, counted in the objects they
# build.  Where one visited item builds several objects, each counts;
# where an item's cost grows with its size, its entries or cells count.
# So a unit of work costs about the same, 0.5-21 us, in every check.  The
# models read closed forms: MacMahon's box count, m^n words, binomials
# and the size of a weighted matrix window.  By the equidistribution of
# the up-hook volume with the volume, the window of weights i+l-1 over
# an N x N grid, bounded by N, also counts the plane partitions of
# volume at most N.

# a window matrix builds its entries, its image's rows and the validated
# plane partition
PER_MATRIX = 3


def _box(k: int, n: int, m: int) -> int:
    return int(macmahon_count(k, n, m))


def _window(n: int, m: int, bound: int,
            weight: Callable[[int, int], int] = lambda i, l: 1) -> int:
    """The number of n x m N-matrices D with sum(D[i][l] * weight(i, l))
    at most bound, by a coin change over the cells' weights.
    """
    ways = [1] + [0] * bound
    for i in range(1, n + 1):
        for l in range(1, m + 1):
            w = weight(i, l)
            for t in range(w, bound + 1):
                ways[t] += ways[t - w]
    return sum(ways)


def _strict_rows(lam: Partition, n: int) -> int:
    """The row allowance of gen_strict_tableaux(lam, n): for each row of
    lam, the C(n + lam_1, lam_1) weakly decreasing rows of at most lam_1
    entries <= n, a bound on every list of strictly decreasing rows that
    kernels.strict_rows returns for it; none unless lam_1 <= n <= |lam|.
    """
    if not lam.part(1) <= n <= lam.size():
        return 0
    return len(lam) * math.comb(n + lam.part(1), n)


def _uh_restricted_work(mode: str, bound: int, N: int) -> int:
    rows, cols = (N, bound) if mode == "entries" else (bound, N)
    return PER_MATRIX * _window(rows, cols, N + 1, _hook)


def _frobenius_work(n: int, m: int) -> int:
    # the strict-tableau search of each shape, and for each word the
    # Word, its tableau and the word read back
    return sum(_strict_rows(lam, n) for lam in gen_partitions_in_box(n, m)) \
        + 3 * m ** n


def _gexp_work(lam: Partition, n_max: int) -> int:
    # the fillings of lam with entries in [1, n] and its strict tableaux;
    # a filling's rows, and its columns, are multisets of such entries
    return sum(min(math.prod(_multisets(n, p) for p in lam.parts),
                   math.prod(_multisets(n, p) for p in lam.conjugate().parts))
               + _strict_rows(lam, n) for n in range(n_max + 1))


def _dalpha_work(k: int, n: int, m: int, N_max: int) -> int:
    # the box tally; the column-strict fillings of the shapes inside rho,
    # at most the box; the column-strict fillings of their complements in
    # rho with entries <= n, at most the k x n x n box; the matrices of
    # column sums alpha over every alpha, which are the n x m matrices of
    # entry sum <= N_max; and the pairs of contents of each weight
    return (2 * _box(k, n, m) + _box(k, n, n)
            + PER_MATRIX * _window(n, m, N_max)
            + sum(_multisets(m, w) ** 2 for w in range(N_max + 1)))


def _superadditivity_work(k: int, n: int, m: int,
                          scales: Sequence[int]) -> int:
    # each pair builds a sum, a merged n x m matrix and its image, at a
    # cost that grows with the matrix's n*m entries and the at most k*n
    # cells of the sum and the image; each member builds its matrix and
    # its scalings
    count = _box(k, n, m)
    return (n * m + k * n) * count ** 2 + (2 + len(scales)) * count


def _fillings_work(width: int, n: int, m: int) -> int:
    # the fillings with entries <= m of the shapes in a width x n box are
    # the plane partitions of the width x n x m box, and each builds a
    # plane partition and its statistic; the filling kernel also makes one
    # pass per row of every shape, at most one per cell,
    # C(width + n, n) * width * n / 2 cells in all
    return 2 * _box(width, n, m) + math.comb(width + n, n) * width * n // 2


# -- individual checks -------------------------------------------------
#
# Each function check_NAME is the first side of the check NAME, which
# `_check` makes of it and of the sides defined before it.


def _hook(i: int, l: int) -> int:
    """The window weight of the up-hook volume: a descent of level l in
    row i adds i + l - 1 to it.
    """
    return i + l - 1


def _level(i: int, l: int) -> int:
    """The window weight of the corner volume: a descent of level l adds
    l to it.
    """
    return l


def _box_exponents(k: int, n: int, m: int) -> list[tuple[int, int]]:
    """(i+j+l-1, i+j+l-2) for each cell (i, j, l) of the k x n x m box:
    the exponents of MacMahon's product prod (1-q^a)/(1-q^b).
    """
    return [(i + j + l - 1, i + j + l - 2)
            for i in range(1, k + 1)
            for j in range(1, n + 1)
            for l in range(1, m + 1)]


def macmahon_count(k: int, n: int, m: int) -> int:
    """The number of plane partitions in the k x n x m box, from
    MacMahon's product formula prod (i+j+l-1)/(i+j+l-2).

    The numerators and the denominators are multiplied as integers and
    divided exactly.  A non-integer quotient comes back as a Fraction,
    so that it shows up as a mismatch in check_macmahon_box instead of
    being rounded away.
    """
    num = den = 1
    for a, b in _box_exponents(k, n, m):
        num *= a
        den *= b
    count, rest = divmod(num, den)
    if rest:
        # imported here, not with the module: fractions loads decimal
        # and numbers, which only a wrong product needs
        from fractions import Fraction
        return Fraction(num, den)
    return count


def _box_product(k: int, n: int, m: int) -> list:
    """MacMahon's product with the factors its numerator and denominator
    share cancelled: one (q^e, net multiplicity) factor per exponent.
    """
    net = Counter()
    for a, b in _box_exponents(k, n, m):
        net[a] -= 1
        net[b] += 1
    return [("q_poly", product_series(
                _QT, [(_q(e), mult) for e, mult in net.items() if mult],
                Truncation(k * n * m))),
            ("count", macmahon_count(k, n, m))]


def _volume_poly(pps: Iterator[PlanePartition], shift: int = 0) -> MultiPoly:
    """The volume generating polynomial of `pps` times q^shift, from each
    member's `volume()` tallied at C speed.
    """
    return MultiPoly(_QT, {(volume + shift,): count for volume, count
                           in Counter(map(PlanePartition.volume, pps)).items()})


@_check(_flagged("k", "n", "m"), _box, _box_product)
def check_macmahon_box(k: int, n: int, m: int) -> list:
    """Volume generating polynomial and cardinality of the boxed family
    against the classical product formulas.
    """
    lhs_poly = _volume_poly(gen_pp_box(k, n, m))
    return [("q_poly", lhs_poly), ("count", sum(lhs_poly.terms.values()))]


def _volume_product(N: int) -> list:
    return [("series", product_series(
        _QT, [(_q(i), i) for i in range(1, N + 1)], Truncation(N)))]


@_check(_flagged("N"), lambda N: _window(N, N, N, _hook), _volume_product)
def check_infinite_volume(N: int) -> list:
    """Coefficients of q^<=N of the unrestricted volume series against
    the infinite product, truncated.
    """
    return [("series", _volume_poly(gen_pp_box(N, N, N, max_volume=N)))]


def _rectangle_schur(k: int, n: int, m: int) -> list:
    rho = Partition.rectangle(k, n)
    return [("q_poly", schur_specialized(_QT, rho, q_powers(_QT, 1, n + m)))]


@_check(_flagged("k", "n", "m"), _box, _rectangle_schur)
def check_qschur(k: int, n: int, m: int) -> list:
    """q-shifted volume polynomial of the box against the principal
    specialization of the rectangular Schur polynomial.  The q-power
    prefactor is moved to the enumeration side so no negative exponents
    appear.
    """
    shift = k * math.comb(n + 1, 2)
    return [("q_poly", _volume_poly(gen_pp_box(k, n, m), shift))]


def _pair_product(n: int, m: int, N: int) -> list:
    """prod 1/(1 - x_i z_j) over n x-variables and m z-variables,
    truncated to total degree N.
    """
    table = VarTable([("x", n), ("z", m)])
    xs, zs = family_vars(table, "x"), family_vars(table, "z")
    return [("series", product_series(
        table, [(x * z, 1) for x in xs for z in zs], Truncation(N)))]


@_check(_flagged("n", "m", "N"),
        lambda n, m, N: PER_MATRIX * _window(n, m, N // 2 + 1), _pair_product)
def check_multivariate(n: int, m: int, N: int) -> list:
    """The two-alphabet descent generating function over all plane
    partitions with at most n rows and entries <= m, against the product
    over variable pairs; both sides truncated to total degree N.
    """
    table = VarTable([("x", n), ("z", m)])
    return _window_pair("series", table, Truncation(N), N // 2, (
        (w, descent_monomial(table, pp))
        for w, pp in gen_matrix_images(n, m, N // 2 + 1)))


@_check(_flagged("n", "m", "N"),
        lambda n, m, N: _fillings_work(N // 2 + 1, n, m), _pair_product)
def check_cauchy_type(n: int, m: int, N: int) -> list:
    """Sum of the refined two-alphabet polynomials over shapes with at
    most n rows against the Cauchy-type product, truncated to total
    degree N.  Each filling of each shape, entries <= m, is tallied at
    its descent monomial, so no polynomial is built per shape.

    Every monomial of a shape's polynomial has z-degree at least the
    number of columns and equal x- and z-degree, so shapes with first
    part above N/2 contribute nothing below degree N; the window check
    enforces that cutoff empirically.
    """
    table = VarTable([("x", n), ("z", m)])
    return _window_pair("series", table, Truncation(N), N // 2, (
        (lam.part(1), descent_monomial(table, pp))
        for lam in gen_partitions_in_box(N // 2 + 1, n)
        for pp in gen_pp_shape(lam, m)))


def _power_product(n: int, m: int, N: int) -> list:
    table = VarTable([("z", m)])
    return [("series", product_series(
        table, [(z, n) for z in family_vars(table, "z")], Truncation(N)))]


@_check(_flagged("n", "m", "N"),
        lambda n, m, N: _fillings_work(N + 1, n, m), _power_product)
def check_gl(n: int, m: int, N: int) -> list:
    """Sum of dual Grothendieck polynomials over shapes with at most n
    rows against prod 1/(1-z_i)^n, truncated to total degree N.  Each
    filling of each shape, entries <= m, is tallied at its column
    counts, so no polynomial is built per shape.
    """
    return _window_pair("series", VarTable([("z", m)]), Truncation(N), N, (
        (lam.part(1), pp.column_counts(m))
        for lam in gen_partitions_in_box(N + 1, n)
        for pp in gen_pp_shape(lam, m)))


def _cell_product(n: int, m: int, N: int) -> list:
    t = MultiPoly.var(_TQT, "t")
    factors = [(t * MultiPoly.var(_TQT, "q", 1, power=i + j - 1), 1)
               for i in range(1, m + 1) for j in range(1, n + 1)]
    return [("series", product_series(_TQT, factors, Truncation(N, "q")))]


@_check(_flagged("n", "m", "N"),
        lambda n, m, N: PER_MATRIX * _window(n, m, N + 1, _hook),
        _cell_product)
def check_uh_des(n: int, m: int, N: int) -> list:
    """Joint (descent count, up-hook volume) distribution over plane
    partitions with at most n rows and entries <= m, against the product
    over cells; q-degree truncated at N.
    """
    return _window_pair("series", _TQT, Truncation(N, "q"), N, (
        (w, (pp.descent_count(), pp.up_hook_volume()))
        for w, pp in gen_matrix_images(n, m, N + 1, weight=_hook)))


def _trace_product(N: int) -> list:
    if N == 0:
        return [("series", MultiPoly.one(_TQT))]
    factors = [(MultiPoly.var(_TQT, "t") *
                MultiPoly.var(_TQT, "q", 1, power=kk), kk)
               for kk in range(1, N + 1)]
    rhs = product_series(_TQT, factors, Truncation(N, "q"))
    return [("uh_vs_product", rhs), ("vol_vs_product", rhs)]


@_check(_flagged("N"),
        lambda N: N and (PER_MATRIX * _window(N + 1, N + 1, N + 1, _hook)
                         + _window(N, N, N, _hook)), _trace_product)
def check_equidistribution(N: int) -> list:
    """The unrestricted pair statistics (descents, up-hook volume) and
    (trace, volume) both match the product prod 1/(1-t q^k)^k up to
    q-degree N.
    """
    if N == 0:
        return [("series", MultiPoly.one(_TQT))]
    uh_side, window_law = _window_pair(
        "uh_vs_product", _TQT, Truncation(N, "q"), N,
        ((w, (pp.descent_count(), pp.up_hook_volume()))
         for w, pp in gen_matrix_images(N + 1, N + 1, N + 1, weight=_hook)))
    vol_side = MultiPoly(_TQT, Counter(
        (pp.trace(), pp.volume())
        for pp in gen_pp_box(N, N, N, max_volume=N)))
    return [uh_side, ("vol_vs_product", vol_side), window_law]


def _restricted_product(mode: str, bound: int, N: int) -> list:
    return [("series", product_series(
        _QT, [(_q(j), min(j, bound)) for j in range(1, N + 1)],
        Truncation(N)))]


@_check(_flagged("mode", "bound", "N"), _uh_restricted_work,
        _restricted_product)
def check_uh_restricted(mode: str, bound: int, N: int) -> list:
    """Up-hook volume series with one dimension fixed: entries <= bound
    (mode 'entries') or at most `bound` rows (mode 'rows'); against
    prod (1 - q^j)^(-min(j, bound)), truncated at q-degree N.
    """
    if mode not in ("entries", "rows"):
        raise ValueError("mode must be 'entries' or 'rows'")
    n_rows = N if mode == "entries" else bound
    n_cols = bound if mode == "entries" else N

    return _window_pair("series", _QT, Truncation(N), N, (
        (w, (pp.up_hook_volume(),))
        for w, pp in gen_matrix_images(n_rows, n_cols, N + 1, weight=_hook)))


def _corner_formulas(k: int, n: int, m: int, N: int) -> list:
    rho = Partition.rectangle(k, n)
    rhs1 = schur_specialized(_QT, rho, ones(_QT, n) + q_powers(_QT, 1, m))
    rhs2 = schur_specialized(_QT, rho, ones(_QT, n - 1) + q_powers(_QT, 1, m))
    rhs3 = product_series(_QT, [(_q(i), n) for i in range(1, m + 1)],
                          Truncation(N))
    slice_rhs = macmahon_count(k, n, m - 1) if m >= 1 else int(k * n == 0)
    return [("box_q1", rhs1), ("exact_q2", rhs2), ("unbounded_q3", rhs3),
            ("q2_at_1", slice_rhs)]


@_check((*_flagged("k", "n", "m"), Param("N", "N", "N", 5)),
        lambda k, n, m, N: (
            _box(k, n, m) + PER_MATRIX * _window(n, m, N + 1, _level)),
        _corner_formulas)
def check_corner_volume(k: int, n: int, m: int, N: int) -> list:
    """Corner-volume generating functions: boxed family against the
    Schur specialization with n leading ones; exact-base family with n-1
    leading ones; unbounded-row-length family against the product, up to
    q-degree N.  Also the q=1 slice of the exact-base identity against
    MacMahon's count of the box with largest entry m-1.
    """
    box, exact = Counter(), Counter()
    for (volume, is_exact), times in Counter(
            (pp.corner_volume(), pp.exact_base(k, n, m))
            for pp in gen_pp_box(k, n, m)).items():
        box[(volume,)] += times
        if is_exact:
            exact[(volume,)] += times
    lhs1, lhs2 = MultiPoly(_QT, box), MultiPoly(_QT, exact)
    unbounded = _window_pair("unbounded_q3", _QT, Truncation(N), N, (
        (w, (pp.corner_volume(),))
        for w, pp in gen_matrix_images(n, m, N + 1, weight=_level)))
    return [("box_q1", lhs1), ("exact_q2", lhs2), *unbounded,
            ("q2_at_1", sum(lhs2.terms.values()))]


@_check(_flagged("n", "m"), _frobenius_work,
        lambda n, m: [("sum_f", m ** n), ("distinct_images", m ** n)])
def check_frobenius(n: int, m: int) -> list:
    """Sum of strict-tableau counts over shapes in the n x m rectangle
    against m^n, plus exhaustive word <-> strict-tableau bijectivity.
    """
    total = sum(f_lambda(lam, n) for lam in gen_partitions_in_box(n, m))

    images = set()
    roundtrip_failures = 0
    for w in gen_words(n, m):
        st = word_to_strict_tableau(w)
        sh = st.shape()
        if not (sh.part(1) <= n and len(sh) <= m):
            roundtrip_failures += 1
        if strict_tableau_to_word(st, m) != w:
            roundtrip_failures += 1
        images.add(st)

    return [("sum_f", total), ("distinct_images", len(images)),
            ("roundtrip_failures", roundtrip_failures, 0)]


@_check((Param("lam", "lambda", "shape", parse=Partition),
         Param("n_max", "n_max", "N", lambda args: args["lam"].size())),
        _gexp_work,
        lambda lam, n_max: [(f"n={n}", f_lambda(lam, n))
                            for n in range(0, n_max + 1)])
def check_gexp(lam: Partition, n_max: int) -> list:
    """Plancherel-type expansion of the dual Grothendieck polynomial:
    the square-free coefficient over n variables equals the strict-
    tableau count f(n), for every n up to the shape's size (factorial
    denominators never materialize).  The polynomial weighs each filling
    of lam with entries <= n by its column counts, so that coefficient
    counts the fillings whose column counts are all 1.
    """
    return [(f"n={n}", sum(pp.column_counts(n) == (1,) * n
                           for pp in gen_pp_shape(lam, n)))
            for n in range(n_max + 1)]


# each word builds a Word, its tableau and its Greene shape
@_check(_flagged("n", "m"), lambda n, m: 3 * m ** n)
def check_greene(n: int, m: int) -> list:
    """Exhaustive over all words: the shape of the associated strict
    tableau equals the vector of longest weakly increasing subsequence
    lengths over shrinking tail alphabets.
    """
    mismatches = 0
    first = None
    for w in gen_words(n, m):
        sh = word_to_strict_tableau(w).shape()
        gr = greene_shape(w)
        if sh != gr:
            mismatches += 1
            if first is None:
                first = f"word {''.join(map(str, w.letters))}: {sh} != {gr}"
    notes = [(None, first)] if first else []
    return [("mismatches", mismatches, 0), *notes]


def _multisets(n: int, a: int) -> int:
    """The number of multisets of size a from n values; one empty one
    at n = 0.
    """
    return math.comb(n + a - 1, a) if n else int(a == 0)


@_check((*_flagged("k", "n", "m"), Param("N_max", "N_max", "N")),
        _dalpha_work)
def check_dalpha(k: int, n: int, m: int, N_max: int) -> list:
    """Descent enumeration counts: permutation symmetry, dominance
    monotonicity, the Kostka/skew-Schur expansion, the unbounded product
    formula, and the binomial chain; exhaustive over content vectors of
    weight at most N_max.

    The printed closed form for the single-value count is reported in
    the notes, never asserted (see the documented discrepancy between
    C(n+N, N) and C(n+N-1, N)).
    """
    D = Counter(pp.column_counts(m) for pp in gen_pp_box(k, n, m))

    # D_alpha = sum over lam inside rho = (k^n) of K_{lam,alpha}
    # s_{rho/lam}(1^n), for every alpha at once: one content tally and one
    # skew count per lam.  rho/lam turned a half turn is the straight shape
    # rest, so s_{rho/lam}(1^n) counts the column-strict fillings of rest
    expansion: Counter[tuple[int, ...]] = Counter()
    for lam in gen_partitions_in_box(k, n):
        rest = Partition._from_parts(tuple(filter(None, (
            k - lam.part(i) for i in range(n, 0, -1)))))
        skew = sum(column_strict_contents(rest, n).values())
        for content, count in column_strict_contents(lam, m).items():
            expansion[content] += count * skew
    sym_fail = mono_fail = kostka_fail = product_fail = chain_fail = 0

    alphas_by_weight = {w: list(compositions(w, m)) for w in range(N_max + 1)}

    for alphas in alphas_by_weight.values():
        ranked = [(alpha, tuple(sorted(alpha, reverse=True)))
                  for alpha in alphas]
        for alpha, sa in ranked:
            da = D[alpha]
            if da != D[sa]:
                sym_fail += 1
            if da != expansion[alpha]:
                kostka_fail += 1
            prod = math.prod(_multisets(n, a) for a in alpha)
            if count_D_alpha(None, n, m, alpha) != prod:
                product_fail += 1
        for alpha, sa in ranked:
            for beta, sb in ranked:
                # dominance is compared on the sorted vectors; by the
                # symmetry law the counts only depend on those
                if sb != sa and dominates(sb, sa) and D[alpha] < D[beta]:
                    mono_fail += 1

    notes = []
    for N in range(1, min(k, m, N_max) + 1):
        single = tuple([N] + [0] * (m - 1))
        ones_vec = tuple([1] * N + [0] * (m - N))
        lo, mid_hi = D[single], D[ones_vec]
        for alpha in alphas_by_weight[N]:
            if not lo <= D[alpha] <= mid_hi <= n ** N:
                chain_fail += 1
        printed = math.comb(n + N, N)
        shifted = math.comb(n + N - 1, N)
        match = ("C(n+N,N)" if lo == printed else
                 "C(n+N-1,N)" if lo == shifted else "neither binomial")
        notes.append(
            (None, f"D_(N={N},0,...)={lo}; printed C(n+N,N)={printed}, "
                   f"C(n+N-1,N)={shifted}: matches {match}"))

    return [("symmetry_failures", sym_fail, 0),
            ("monotonicity_failures", mono_fail, 0),
            ("kostka_expansion_failures", kostka_fail, 0),
            ("product_formula_failures", product_fail, 0),
            ("chain_failures", chain_fail, 0), *notes]


@_check((*_flagged("k", "n", "m"),
         Param("scales", "scales", None, (1, 2, 3))), _superadditivity_work)
def check_superadditivity(k: int, n: int, m: int,
                          scales: Sequence[int]) -> list:
    """Superadditivity of the up-hook and corner volumes, additivity of
    the volume, the scaling laws, the up-hook sandwich, and antinorm
    positivity, exhaustive over all pairs in the box.

    Two monoid structures appear.  The corner volume and the volume are
    checked under the entrywise sum.  The up-hook volume is not
    superadditive entrywise (two copies of the single column (1, 1) sum
    to (2, 2), whose up-hook volume is 3 < 2 + 2); it is checked under
    the sum transported through the descent-level-count bijection, where
    both statistics are linear in the matrix entries.
    """
    # each member's statistics and count matrix, read once for all pairs
    members = [(pp, pp.corner_volume(), pp.volume(), pp.up_hook_volume(),
                phi(pp, n, m).entries) for pp in gen_pp_box(k, n, m)]
    violations = 0
    for p1, c1, v1, u1, d1 in members:
        for p2, c2, v2, u2, d2 in members:
            s = p1.add(p2)
            if s.corner_volume() < c1 + c2:
                violations += 1
            if s.volume() != v1 + v2:
                violations += 1
            merged = NMatrix._from_entries(tuple(
                tuple(map(add, r1, r2)) for r1, r2 in zip(d1, d2)), n, m)
            t = phi_inverse(merged)
            if t.up_hook_volume() < u1 + u2:
                violations += 1
            if t.corner_volume() < c1 + c2:
                violations += 1
    for pp, corner, volume, up_hook, _ in members:
        if corner == 0 and pp:
            violations += 1
        if up_hook < corner or volume < corner:
            violations += 1
        for kk in scales:
            sc = pp.scale(kk)
            if sc.corner_volume() != kk * corner:
                violations += 1
            if sc.up_hook_volume() != up_hook + (kk - 1) * corner:
                violations += 1
            if not kk * corner <= sc.up_hook_volume() <= kk * up_hook:
                violations += 1
    return [("violations", violations, 0),
            (None, "up-hook superadditivity is taken under the "
                   "matrix-transported sum; entrywise it fails already at "
                   "[[1],[1]] + [[1],[1]]")]


# -- the suite ---------------------------------------------------------

CHECKS: dict[str, Check] = {check.name: check for check in (
    check_macmahon_box, check_infinite_volume, check_qschur,
    check_multivariate, check_cauchy_type, check_gl, check_uh_des,
    check_equidistribution, check_uh_restricted, check_corner_volume,
    check_frobenius, check_gexp, check_greene, check_dalpha,
    check_superadditivity)}


def work(name: str, params: dict) -> int:
    """The objects that check `name` builds on a grid entry's parameters."""
    check = CHECKS[name]
    return check.work(**check.arguments((), params))


# the run_all levels, least first
LEVELS = ("small", "full")
_GRIDS = os.path.join(os.path.dirname(__file__), "verify_grids.json")


def load_grids() -> dict:
    """The parameter grid of each run_all level, from one ordered list
    of entries in `verify_grids.json`.  Each entry names the least level
    that runs it: the levels are nested, so an entry of "small" is also
    one of "full", at the same place in the order.
    """
    with open(_GRIDS, encoding="utf-8") as fh:
        entries = json.load(fh)
    grids: dict[str, list] = {level: [] for level in LEVELS}
    for entry in entries:
        level = entry.pop("level", None)
        if level not in LEVELS:
            raise ValueError(f"grid entry {entry}: unknown level {level!r}")
        for name in LEVELS[LEVELS.index(level):]:
            grids[name].append(entry)
    return grids


def _run_entry(entry: dict) -> CheckResult:
    """Run one grid entry.  A check that raises becomes a FAIL record
    carrying the exception, so one broken entry does not abort the run.
    """
    t0 = time.perf_counter()
    check = CHECKS[entry["check"]]
    try:
        return check(**entry["params"])
    except Exception as exc:
        import traceback
        return CheckResult(
            entry["check"], dict(entry["params"]), False, "", "", None,
            time.perf_counter() - t0,
            [f"{type(exc).__name__}: {exc}", traceback.format_exc()])


def run_all(level: str = "small", workers: int = 1) -> Iterator[CheckResult]:
    """Run the whole named-check suite at the given level's parameter
    grid.  Results stream back in declaration order regardless of worker
    count; the pool never holds more processes than there are entries.
    """
    grids = load_grids()
    if level not in grids:
        raise ValueError(f"unknown level {level!r}")
    entries = grids[level]
    workers = min(workers, len(entries))
    if workers > 1:
        return _run_pooled(entries, workers)
    return map(_run_entry, entries)


def _run_pooled(entries: list[dict], workers: int) -> Iterator[CheckResult]:
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_run_entry, entries)
