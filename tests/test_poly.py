"""Exact polynomial arithmetic, truncated series, and determinants."""

import itertools
from operator import index

import pytest
from hypothesis import given, settings, strategies as st

from ppbij.checks import _box_exponents, _side_digest, check_macmahon_box, \
    macmahon_count
from ppbij.poly import MultiPoly, Truncation, VarTable, determinant, \
    elementary_all, product_series

T2 = VarTable([("x", 1), ("y", 1)])


def poly_strategy(table=T2, max_exp=3, max_coef=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * table.nvars)
    return st.dictionaries(exps, st.integers(-max_coef, max_coef), max_size=4) \
        .map(lambda d: MultiPoly(table, d))


def multipoly_terms_reference(table, terms):
    """The per-term validation that MultiPoly.__init__ replaced, kept as
    a reference: the stored terms, or the same exception.
    """
    clean = {}
    for exp, coef in dict(terms).items():
        exp = tuple(index(e) for e in exp)
        if len(exp) != table.nvars:
            raise ValueError("exponent vector has wrong length")
        if any(e < 0 for e in exp):
            raise ValueError("negative exponent")
        coef = index(coef)
        if coef:
            clean[exp] = coef
    return clean


# mostly small integers and exponent vectors of T2's length, so that
# acceptance is reached often, with negatives, zeros, non-integral values
# and vectors of other lengths
term_values = st.sampled_from(
    [0, 1, 1, 2, 2, 3, 0, 1, 2, 3, -1, -2, 1.5, 2.0, 0.0, "2", None])
raw_terms = st.dictionaries(
    st.tuples(term_values, term_values) |
    st.lists(term_values, max_size=3).map(tuple),
    term_values, max_size=3)


class TestConstructorMatchesReference:
    @given(st.sampled_from([T2, VarTable([])]), raw_terms)
    @settings(max_examples=400, deadline=None)
    def test_terms(self, table, terms):
        try:
            expected = multipoly_terms_reference(table, terms)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as raised:
                MultiPoly(table, terms)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
        else:
            got = MultiPoly(table, terms).terms
            assert got == expected
            assert all(type(v) is int
                       for exp, coef in got.items() for v in (*exp, coef))

    @pytest.mark.parametrize("coef", [0.0, None, "", 1.0])
    def test_coefficient_is_read_before_it_is_tested(self, coef):
        # a value that is not an integer raises, even where it is falsy
        with pytest.raises(TypeError):
            MultiPoly(T2, {(1, 0): coef})


class TestVarTable:
    def test_flattening(self):
        t = VarTable([("x", 2), ("z", 3), ("q", 1)])
        assert t.nvars == 6
        assert t.var_names() == ["x1", "x2", "z1", "z2", "z3", "q"]
        assert t.index("z", 2) == 3
        assert t.family_slice("z") == slice(2, 5)

    def test_duplicate_family_rejected(self):
        with pytest.raises(ValueError):
            VarTable([("x", 1), ("x", 2)])

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            T2.index("x", 2)

    @pytest.mark.parametrize("arity", [2.5, "2", None])
    def test_arity_must_be_an_integer(self, arity):
        with pytest.raises(TypeError):
            VarTable([("x", arity)])

    @pytest.mark.parametrize("name", [None, 3, b"x"])
    def test_family_name_must_be_a_string(self, name):
        with pytest.raises(TypeError):
            VarTable([(name, 1)])


class TestTruncation:
    TERMS = {(1, 2): 1, (2, 2): 3, (9, 1): -2, (0, 2): 5}

    def test_total_cap(self):
        assert Truncation(3).kept_terms(T2, self.TERMS) == {(1, 2): 1, (0, 2): 5}

    def test_family_cap(self):
        assert Truncation(1, "y").kept_terms(T2, self.TERMS) == {(9, 1): -2}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Truncation(-1)

    @pytest.mark.parametrize("cap", [2.5, "2", None])
    def test_cap_must_be_an_integer(self, cap):
        with pytest.raises(TypeError):
            Truncation(cap)


class TestArithmetic:
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(poly_strategy())
    @settings(max_examples=30, deadline=None)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero()
        assert a + MultiPoly.zero(T2) == a
        assert a * MultiPoly.one(T2) == a

    @given(poly_strategy(), poly_strategy())
    @settings(max_examples=40, deadline=None)
    def test_truncation_homomorphism(self, a, b):
        tr = Truncation(2)
        assert (a * b).truncate(tr) == \
            a.truncate(tr).mul_truncated(b.truncate(tr), tr)
        assert (a + b).truncate(tr) == a.truncate(tr) + b.truncate(tr)

    def test_powers(self):
        x = MultiPoly.var(T2, "x")
        y = MultiPoly.var(T2, "y")
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y
        assert (x + 1) ** 0 == MultiPoly.one(T2)
        with pytest.raises(ValueError):
            x ** -1

    def test_int_mixing(self):
        x = MultiPoly.var(T2, "x")
        assert 2 * x + 1 == MultiPoly(T2, {(1, 0): 2, (0, 0): 1})
        assert 1 - x == MultiPoly(T2, {(0, 0): 1, (1, 0): -1})

    def test_mismatched_tables_rejected(self):
        other = VarTable([("q", 1)])
        with pytest.raises(ValueError):
            MultiPoly.one(T2) + MultiPoly.one(other)


XQ = VarTable([("x", 2), ("q", 1)])
PRUNING_TRUNCATIONS = [
    None,
    Truncation(3),
    Truncation(1, "q"),
    Truncation(2, "x"),
]


def naive_product(a, b, trunc):
    """Every pair of terms multiplied, then truncated: the reference
    that mul_truncated's pruned loop must agree with.
    """
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(u + v for u, v in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    full = MultiPoly(a.table, out)
    return full if trunc is None else full.truncate(trunc)


class TestPrunedProduct:
    @pytest.mark.parametrize("trunc", PRUNING_TRUNCATIONS)
    @given(poly_strategy(XQ, max_exp=2, max_coef=2),
           poly_strategy(XQ, max_exp=2, max_coef=2))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_product(self, trunc, a, b):
        got = a.mul_truncated(b, trunc)
        assert got == naive_product(a, b, trunc)
        assert all(got.terms.values())
        assert all(len(e) == XQ.nvars for e in got.terms)

    @pytest.mark.parametrize("trunc", PRUNING_TRUNCATIONS)
    def test_cancelled_terms_are_dropped(self, trunc):
        # (x1 - q)(x1 + q) = x1^2 - q^2: the cross terms cancel to zero
        x1, q = MultiPoly.var(XQ, "x", 1), MultiPoly.var(XQ, "q")
        got = (x1 - q).mul_truncated(x1 + q, trunc)
        assert got == naive_product(x1 - q, x1 + q, trunc)
        assert (0, 0, 1) not in got.terms and (1, 0, 1) not in got.terms
        assert 0 not in got.terms.values()


class TestRendering:
    def test_str_deterministic_order(self):
        x = MultiPoly.var(T2, "x")
        y = MultiPoly.var(T2, "y")
        p = 1 + 2 * y + x * y - x ** 3
        assert str(p) == "-x^3 + x*y + 2*y + 1"
        assert str(MultiPoly.zero(T2)) == "0"

    def test_single_term(self):
        assert MultiPoly(T2, {(2, 0): 3}).single_term() == ((2, 0), 3)
        with pytest.raises(ValueError):
            MultiPoly(T2, {(2, 0): 1, (1, 1): 4}).single_term()


def product_series_reference(table, factors, trunc):
    """The expansion product_series replaced, kept as a reference: a
    truncated geometric series for each factor, multiplied in with
    mul_truncated once per unit of multiplicity, and 1 - mono once per
    unit of a negative multiplicity.
    """
    result = MultiPoly.one(table)
    for mono, mult in factors:
        exp, coef = mono.single_term()
        if sum(exp) == 0:
            raise ValueError("non-invertible truncation")
        deg = sum(exp[trunc.variables(table)])
        if deg == 0:
            raise ValueError("truncation does not bound the series")
        geo = MultiPoly(table, {tuple(e * j for e in exp): coef ** j
                                for j in range(trunc.cap // deg + 1)})
        factor = geo if mult >= 0 else 1 - mono
        for _ in range(abs(mult)):
            result = result.mul_truncated(factor, trunc)
    return result


TQ = VarTable([("t", 1), ("q", 1)])
SERIES_WINDOWS = [
    (T2, Truncation(0)),
    (T2, Truncation(5)),
    (T2, Truncation(4, "x")),
    (TQ, Truncation(6)),
    (TQ, Truncation(5, "q")),
]


@st.composite
def series_factors(draw):
    """A table, a truncation and (monomial, multiplicity) factors whose
    monomials have positive capped degree.
    """
    table, trunc = draw(st.sampled_from(SERIES_WINDOWS))
    capped = trunc.variables(table)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda exp: sum(exp[capped]) > 0)
    factors = draw(st.lists(
        st.tuples(exps, st.sampled_from([1, -1, 2, -2]), st.integers(-2, 3)),
        max_size=5))
    return table, trunc, [(MultiPoly(table, {exp: coef}), mult)
                          for exp, coef, mult in factors]


class TestSeries:
    def test_geometric_series(self):
        x = MultiPoly.var(T2, "x")
        assert product_series(T2, [(x, 1)], Truncation(3)) == \
            MultiPoly(T2, {(d, 0): 1 for d in range(4)})

    def test_rejects_constant(self):
        with pytest.raises(ValueError, match="non-invertible truncation"):
            product_series(T2, [(MultiPoly.one(T2), 1)], Truncation(3))

    def test_rejects_other_table(self):
        x = MultiPoly.var(T2, "x")
        with pytest.raises(ValueError, match="mismatched variable tables"):
            product_series(TQ, [(x, 1)], Truncation(3))

    def test_family_cap(self):
        t, q = MultiPoly.var(TQ, "t"), MultiPoly.var(TQ, "q")
        got = product_series(TQ, [(t * q ** 2, 1)], Truncation(5, "q"))
        assert got == 1 + t * q ** 2 + t ** 2 * q ** 4
        with pytest.raises(ValueError,
                           match="truncation does not bound the series"):
            product_series(TQ, [(t, 1)], Truncation(5, "q"))

    def test_product_series_matches_direct_expansion(self):
        x = MultiPoly.var(T2, "x")
        tr = Truncation(4)
        got = product_series(T2, [(x, 1), (x * x, 1)], tr)
        # partitions into parts 1 and 2: 1,1,2,2,3
        assert [got.coefficient((d, 0)) for d in range(5)] == [1, 1, 2, 2, 3]
        # no factors: the empty product
        assert product_series(T2, [], tr) == MultiPoly.one(T2)

    def test_product_series_multiplicity(self):
        x = MultiPoly.var(T2, "x")
        tr = Truncation(3)
        assert product_series(T2, [(x, 2)], tr) == \
            MultiPoly(T2, {(d, 0): d + 1 for d in range(4)})

    def test_negative_multiplicity_multiplies(self):
        # (1 - x)^2 / (1 - x) = 1 - x, and 1/(1 - 2x) * (1 - 2x) = 1
        x = MultiPoly.var(T2, "x")
        tr = Truncation(4)
        assert product_series(T2, [(x, -2), (x, 1)], tr) == 1 - x
        assert product_series(T2, [(2 * x, 1), (2 * x, -1)], tr) == \
            MultiPoly.one(T2)

    @given(series_factors())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        table, trunc, factors = case
        got = product_series(table, factors, trunc)
        assert got == product_series_reference(table, factors, trunc)
        assert all(got.terms.values())
        assert all(sum(e[trunc.variables(table)]) <= trunc.cap
                   for e in got.terms)

    def test_macmahon_right_side_matches_old_product(self):
        # the numerator multiplied in by mul_truncated, then the
        # denominators by the reference expansion; the record's digest
        # of the right side must be that of the old product
        qt = VarTable([("q", 1)])
        for k, n, m in itertools.product(range(4), range(4), range(5)):
            trunc = Truncation(k * n * m)
            exps = _box_exponents(k, n, m)
            old = MultiPoly.one(qt)
            for a, _ in exps:
                old = old.mul_truncated(
                    1 - MultiPoly.var(qt, "q", power=a), trunc)
            old = old.mul_truncated(product_series_reference(
                qt, [(MultiPoly.var(qt, "q", power=b), 1) for _, b in exps],
                trunc), trunc)
            expected = _side_digest([("q_poly", old),
                                     ("count", macmahon_count(k, n, m))])
            assert check_macmahon_box(k, n, m).digest["rhs"] == expected, \
                (k, n, m)


class TestElementary:
    def test_against_subsets(self):
        table = VarTable([("z", 4)])
        zs = [MultiPoly.var(table, "z", i) for i in range(1, 5)]
        e = elementary_all(table, 4, zs)
        for k in range(5):
            expect = MultiPoly.zero(table)
            for sub in itertools.combinations(zs, k):
                term = MultiPoly.one(table)
                for v in sub:
                    term = term * v
                expect = expect + term
            assert e[k] == expect

    def test_out_of_range_vanishes(self):
        zs = [MultiPoly.var(T2, "x")]
        e = elementary_all(T2, 2, zs)
        assert e[0] == MultiPoly.one(T2)
        assert e[2].is_zero()


def random_matrix(rng, table, n):
    return [[MultiPoly(table, {(rng.randrange(3), rng.randrange(3)):
                               rng.randrange(-3, 4)})
             for _ in range(n)] for _ in range(n)]


def leibniz(m, table):
    """The determinant as the signed sum over all permutations."""
    n = len(m)
    total = MultiPoly.zero(table)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b]
                         for a in range(n) for b in range(a + 1, n))
        term = MultiPoly.const(table, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


class TestDeterminant:
    def test_permutation_expansion_3x3(self):
        import random
        rng = random.Random(7)
        for _ in range(10):
            m = random_matrix(rng, T2, 3)
            expect = MultiPoly.zero(T2)
            for perm, sign in ((((0, 1, 2)), 1), ((0, 2, 1), -1),
                               ((1, 0, 2), -1), ((1, 2, 0), 1),
                               ((2, 0, 1), 1), ((2, 1, 0), -1)):
                term = MultiPoly.const(T2, sign)
                for i, j in enumerate(perm):
                    term = term * m[i][j]
                expect = expect + term
            assert determinant(T2, m) == expect

    def test_permutation_expansion_5x5(self):
        import random
        rng = random.Random(11)
        for _ in range(5):
            m = random_matrix(rng, T2, 5)
            assert determinant(T2, m) == leibniz(m, T2)

    def test_singular(self):
        x = MultiPoly.var(T2, "x")
        m = [[x, x], [x, x]]
        assert determinant(T2, m).is_zero()

    def test_empty_matrix(self):
        assert determinant(T2, []) == MultiPoly.one(T2)

    def test_identity(self):
        one, zero = MultiPoly.one(T2), MultiPoly.zero(T2)
        m = [[one if i == j else zero for j in range(5)] for i in range(5)]
        assert determinant(T2, m) == one
