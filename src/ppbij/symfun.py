"""Schur and dual Grothendieck polynomials, their Jacobi-Trudi
determinants, and the specializations used by the verification checks.

Symmetric polynomials are built over explicit value lists: a value is any
monomial MultiPoly (the constant 1, a power q^a, or a formal variable),
so the same code produces combinatorial polynomials, principal
specializations, and mixed lists like (1^{n-1}, z_1, ..., z_m).  The
VarTable is always passed first, so empty value lists need no special case.

The checks use the value lists, the determinant `schur_specialized` and
`descent_monomial`, and tally their fillings themselves.  The sums over
fillings (`schur_combinatorial`, `g_combinatorial`, `g_refined`) and
`g_jacobi_trudi` are references that the tests compare the determinants
and the checks' tallies with.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from itertools import chain

from .core import Partition, PlanePartition
from .enumeration import column_strict_contents, gen_pp_shape
from .poly import MultiPoly, VarTable, determinant, elementary_all


def family_vars(table: VarTable, family: str) -> list[MultiPoly]:
    """The variables of a family as monomial polynomials, in order."""
    return [MultiPoly.var(table, family, i)
            for i in range(1, table.arity(family) + 1)]


def ones(table: VarTable, count: int) -> list[MultiPoly]:
    return [MultiPoly.one(table)] * count


def q_powers(table: VarTable, lo: int, hi: int) -> list[MultiPoly]:
    """The value list (q^lo, q^{lo+1}, ..., q^hi)."""
    return [MultiPoly.var(table, "q", 1, power=a) for a in range(lo, hi + 1)]


def _weight(nvars: int, monomials: Sequence[tuple[tuple[int, ...], int]],
            content: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """prod vals^content as one (exponent, coefficient): the exponent is
    sum content * exp and the coefficient prod coef^content.
    """
    exp = [0] * nvars
    coef = 1
    for (v_exp, v_coef), e in zip(monomials, content):
        if e:
            exp = [a + e * b for a, b in zip(exp, v_exp)]
            coef *= v_coef ** e
    return tuple(exp), coef


def _content_sum(table: VarTable, vals: Sequence[MultiPoly],
                 contents: Counter[tuple[int, ...]]) -> MultiPoly:
    """Sum of count * prod vals^content over a tally of content vectors,
    one weight per distinct content.  Every value must be a monomial.
    """
    monomials = [v.single_term() for v in vals]
    terms: Counter[tuple[int, ...]] = Counter()
    for content, count in contents.items():
        exp, coef = _weight(table.nvars, monomials, content)
        terms[exp] += count * coef
    return MultiPoly(table, terms)


def descent_monomial(table: VarTable, pp: PlanePartition) -> tuple[int, ...]:
    """Exponent of prod x_i z_value over the descent cells (i, j) of pp."""
    exp = [0] * table.nvars
    walk = pp._descent_rows()
    for i, values in enumerate(walk, 1):
        exp[table.index("x", i)] += len(values)
    for v, c in Counter(chain.from_iterable(walk)).items():
        exp[table.index("z", v)] += c
    return tuple(exp)


def schur_combinatorial(table: VarTable, lam: Partition,
                        xs: Sequence[MultiPoly]) -> MultiPoly:
    """The Schur polynomial of shape lam in the values xs, summed over
    column-strict fillings weighted by entry multiplicities.
    """
    return _content_sum(table, xs, column_strict_contents(lam, len(xs)))


def _dual_jacobi_trudi(table: VarTable, lam: Partition,
                       row_values: Callable[[int], Sequence[MultiPoly]]
                       ) -> MultiPoly:
    """det[e_{lam'_i - i + j}(row_values(lam'_i))] of size lam_1, with
    e_0 = 1 and e_idx = 0 for idx < 0 or beyond the row's value count.
    The elementary polynomials are computed once per distinct value list.
    """
    conj = lam.conjugate()
    k = lam.part(1)
    zero = MultiPoly.zero(table)
    elementary: dict[tuple[MultiPoly, ...], list[MultiPoly]] = {}
    matrix = []
    for i in range(1, k + 1):
        c = conj.part(i)
        vals = tuple(row_values(c))
        if vals not in elementary:
            # no entry of the matrix has an index above lam'_1 + k - 1
            elementary[vals] = elementary_all(
                table, min(len(vals), conj.part(1) + k - 1), vals)
        e = elementary[vals]
        matrix.append([e[c - i + j] if 0 <= c - i + j < len(e) else zero
                       for j in range(1, k + 1)])
    return determinant(table, matrix)


def schur_specialized(table: VarTable, lam: Partition,
                      vals: Sequence[MultiPoly]) -> MultiPoly:
    """The Schur polynomial evaluated at a value list through the
    dual Jacobi-Trudi determinant det[e_{lam'_i - i + j}(vals)].
    """
    return _dual_jacobi_trudi(table, lam, lambda _: vals)


def g_combinatorial(table: VarTable, lam: Partition,
                    zs: Sequence[MultiPoly]) -> MultiPoly:
    """The dual Grothendieck polynomial of shape lam in the values zs:
    plane partitions of shape lam with entries <= len(zs), weighted by
    column counts.
    """
    m = len(zs)
    return _content_sum(
        table, zs,
        Counter(pp.column_counts(m) for pp in gen_pp_shape(lam, m)))


def g_refined(table: VarTable, lam: Partition) -> MultiPoly:
    """The two-alphabet refinement over a table with families x (arity
    n) and z (arity m): over plane partitions of shape lam with entries
    <= m, each descent cell (i,j) contributes x_i z_{value}.

    Zero when lam has more than n rows.  A test reference: the tests
    compare check_cauchy_type's tally of fillings with its sum over
    shapes.
    """
    if len(lam) > table.arity("x"):
        return MultiPoly.zero(table)
    return MultiPoly(table, Counter(
        descent_monomial(table, pp)
        for pp in gen_pp_shape(lam, table.arity("z"))))


def g_jacobi_trudi(table: VarTable, lam: Partition,
                   zs: Sequence[MultiPoly]) -> MultiPoly:
    """The Jacobi-Trudi determinant for the dual Grothendieck polynomial:
    det[e_{lam'_i - i + j}(1^{lam'_i - 1}, zs)] of size lam_1.
    """
    return _dual_jacobi_trudi(
        table, lam, lambda column: ones(table, column - 1) + list(zs))

