"""Schur and dual Grothendieck polynomials and their determinant forms."""

import itertools

import pytest

from ppbij.core import Partition
from ppbij.enumeration import gen_partitions_in_box
from ppbij.poly import MultiPoly, VarTable
from ppbij.symfun import family_vars, g_combinatorial, g_jacobi_trudi, \
    g_refined, ones, q_powers, schur_combinatorial, schur_specialized

ZT3 = VarTable([("z", 3)])


def zvars(m=3, table=None):
    return family_vars(table or ZT3, "z")


def shapes_in_cube():
    return [lam for lam in gen_partitions_in_box(3, 3)]


class TestSchur:
    def test_combinatorial_matches_determinant(self):
        for m in (1, 2, 3):
            table = VarTable([("z", m)])
            zs = family_vars(table, "z")
            for lam in shapes_in_cube():
                assert schur_combinatorial(table, lam, zs) == \
                    schur_specialized(table, lam, zs)

    def test_symmetry(self):
        zs = zvars()
        p = schur_combinatorial(ZT3, Partition([2, 1]), zs)
        for perm in itertools.permutations(range(3)):
            permuted = MultiPoly(ZT3, {tuple(exp[i] for i in perm): c
                                       for exp, c in p.terms.items()})
            assert permuted == p

    def test_empty_shape(self):
        assert schur_specialized(ZT3, Partition(), zvars()) == \
            MultiPoly.one(ZT3)
        # no values: s_() is the empty determinant 1, s_(1) the empty sum
        assert schur_specialized(ZT3, Partition(), []) == MultiPoly.one(ZT3)
        assert schur_specialized(ZT3, Partition([1]), []).is_zero()

    def test_too_many_rows_vanish(self):
        # a column-strict filling needs at least len(lam) distinct values
        zt1 = VarTable([("z", 1)])
        assert schur_combinatorial(zt1, Partition([1, 1]),
                                   zvars(1, zt1)).is_zero()

    def test_monomials_with_coefficients(self):
        # values 2*z1*z2, -z3^2 and the constant 3: each content's weight
        # is one monomial with the product of the coefficients' powers,
        # and the determinant side multiplies the values as polynomials
        z1, z2, z3 = zvars()
        vals = [z1 * z2 * 2, -(z3 ** 2), MultiPoly.one(ZT3) * 3]
        for lam in shapes_in_cube():
            assert schur_combinatorial(ZT3, lam, vals) == \
                schur_specialized(ZT3, lam, vals)

    def test_non_monomial_value_rejected(self):
        z1, z2, _ = zvars()
        with pytest.raises(ValueError, match="monomial"):
            schur_combinatorial(ZT3, Partition([1]), [z1 + z2])
        with pytest.raises(ValueError, match="monomial"):
            schur_combinatorial(ZT3, Partition([1]), [MultiPoly.zero(ZT3)])

    def test_principal_specialization(self):
        # s_(1,1)(q, q^2, q^3) = e_2 at those powers
        QT = VarTable([("q", 1)])
        got = schur_specialized(QT, Partition([1, 1]), q_powers(QT, 1, 3))
        assert got == MultiPoly(QT, {(3,): 1, (4,): 1, (5,): 1})


class TestDualGrothendieck:
    def test_jacobi_trudi_matches_combinatorial(self):
        for m in (1, 2, 3):
            table = VarTable([("z", m)])
            zs = family_vars(table, "z")
            for lam in shapes_in_cube():
                assert g_combinatorial(table, lam, zs) == \
                    g_jacobi_trudi(table, lam, zs)

    def test_rectangle_is_specialized_schur(self):
        for k in (1, 2, 3):
            for n in (1, 2, 3):
                for m in (1, 2, 3):
                    table = VarTable([("z", m)])
                    zs = family_vars(table, "z")
                    rho = Partition.rectangle(k, n)
                    assert g_combinatorial(table, rho, zs) == \
                        schur_specialized(table, rho, ones(table, n - 1) + zs)

    def test_sum_over_shapes_in_rectangle(self):
        for k in (1, 2):
            for n in (1, 2, 3):
                for m in (1, 2):
                    table = VarTable([("z", m)])
                    zs = family_vars(table, "z")
                    total = MultiPoly.zero(table)
                    for lam in gen_partitions_in_box(k, n):
                        total = total + g_combinatorial(table, lam, zs)
                    rho = Partition.rectangle(k, n)
                    assert total == \
                        schur_specialized(table, rho, ones(table, n) + zs)

    def test_branching_one_extra_value(self):
        table = VarTable([("z", 2)])
        zs = family_vars(table, "z")
        rho = Partition.rectangle(2, 2)
        lhs = g_combinatorial(table, rho, [MultiPoly.one(table)] + zs)
        rhs = MultiPoly.zero(table)
        for lam in gen_partitions_in_box(2, 2):
            rhs = rhs + g_combinatorial(table, lam, zs)
        assert lhs == rhs

    def test_symmetry(self):
        p = g_combinatorial(ZT3, Partition([2, 1]), zvars())
        for perm in itertools.permutations(range(3)):
            permuted = MultiPoly(ZT3, {tuple(exp[i] for i in perm): c
                                       for exp, c in p.terms.items()})
            assert permuted == p

    def test_top_degree_is_schur(self):
        zs = zvars()
        for lam in gen_partitions_in_box(2, 2):
            g = g_combinatorial(ZT3, lam, zs)
            top = MultiPoly(ZT3, {e: c for e, c in g.terms.items()
                                  if sum(e) == lam.size()})
            assert top == schur_combinatorial(ZT3, lam, zs)


class TestRefined:
    def test_zero_above_row_bound(self):
        table = VarTable([("x", 2), ("z", 2)])
        assert g_refined(table, Partition([1, 1, 1])).is_zero()

    def test_z_specialization(self):
        # forgetting the x alphabet recovers the one-alphabet polynomial
        lam = Partition([2, 1])
        n, m = 3, 2
        table = VarTable([("x", n), ("z", m)])
        refined = g_refined(table, lam)
        zt = VarTable([("z", m)])
        collapsed: dict = {}
        for exp, c in refined.terms.items():
            ze = tuple(exp[table.index("z", i)] for i in range(1, m + 1))
            collapsed[ze] = collapsed.get(ze, 0) + c
        assert MultiPoly(zt, collapsed) == \
            g_combinatorial(zt, lam, family_vars(zt, "z"))

    def test_balanced_degrees(self):
        table = VarTable([("x", 2), ("z", 2)])
        g = g_refined(table, Partition([2, 1]))
        for exp in g.terms:
            xdeg = sum(exp[table.family_slice("x")])
            zdeg = sum(exp[table.family_slice("z")])
            assert xdeg == zdeg

    def test_top_degree_component(self):
        # the top homogeneous part factors as x^shape times the Schur
        # polynomial in z
        lam = Partition([2, 1])
        n = m = 2
        table = VarTable([("x", n), ("z", m)])
        g = g_refined(table, lam)
        top = MultiPoly(table, {e: c for e, c in g.terms.items()
                                if sum(e) == 2 * lam.size()})
        zt = VarTable([("z", m)])
        schur = schur_combinatorial(zt, lam, family_vars(zt, "z"))
        expect_terms = {}
        for ze, c in schur.terms.items():
            exp = [0] * table.nvars
            for i in range(1, n + 1):
                exp[table.index("x", i)] = lam.part(i)
            for i in range(1, m + 1):
                exp[table.index("z", i)] = ze[i - 1]
            expect_terms[tuple(exp)] = c
        assert top == MultiPoly(table, expect_terms)

