"""Exhaustive generators and the exact counters built on them."""

import gc
import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from ppbij import kernels
from ppbij.bijection import is_strict_tableau, phi_inverse
from ppbij.core import NMatrix, Partition, PlanePartition, Word
from ppbij.enumeration import column_strict_contents, compositions, \
    count_D_alpha, dominates, f_lambda, gen_column_strict, \
    gen_matrices_column_sums, gen_matrix_images, gen_partitions_in_box, \
    gen_pp_box, gen_pp_shape, gen_strict_tableaux, gen_words


def box_product(k, n, m) -> int:
    """The classical closed form for the boxed count."""
    prod = Fraction(1)
    for i in range(1, k + 1):
        for j in range(1, n + 1):
            for l in range(1, m + 1):
                prod *= Fraction(i + j + l - 1, i + j + l - 2)
    assert prod.denominator == 1
    return int(prod)


GENERATORS = [
    ("partitions_in_box", lambda: gen_partitions_in_box(3, 3)),
    ("strict_tableaux", lambda: gen_strict_tableaux(Partition([2, 1]), 3)),
    ("pp_box", lambda: gen_pp_box(2, 2, 2)),
    ("compositions", lambda: compositions(3, 3)),
    ("matrices_column_sums", lambda: gen_matrices_column_sums(2, (2, 1))),
    ("matrix_images", lambda: gen_matrix_images(2, 2, 3)),
]


@pytest.mark.parametrize("name, make", GENERATORS)
@pytest.mark.parametrize("early", [False, True])
def test_generators_leave_no_reference_cycles(name, make, early):
    # whether exhausted or closed after one member, a generator must
    # leave no reference cycle, such as a self-referring closure, that
    # keeps its state alive until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        gen = make()
        if early:
            next(gen)
            gen.close()
        else:
            assert list(gen)
        del gen
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestPartitionsInBox:
    def test_count_is_binomial(self):
        for k in range(0, 4):
            for n in range(0, 4):
                got = list(gen_partitions_in_box(k, n))
                assert len(got) == math.comb(k + n, n)
                assert len(set(got)) == len(got)

    def test_all_fit(self):
        for lam in gen_partitions_in_box(3, 2):
            assert lam.part(1) <= 3 and len(lam) <= 2


class TestBoxedPlanePartitions:
    def test_counts_match_product(self):
        for k in range(1, 4):
            for n in range(1, 4):
                for m in range(1, 4):
                    got = list(gen_pp_box(k, n, m))
                    assert len(got) == box_product(k, n, m)
                    assert len(set(got)) == len(got)

    def test_twenty_in_the_222_box(self):
        assert sum(1 for _ in gen_pp_box(2, 2, 2)) == 20

    def test_members_fit(self):
        for pp in gen_pp_box(2, 3, 2):
            assert pp.n_rows() <= 3 and pp.max_entry() <= 2
            assert all(len(row) <= 2 for row in pp.rows)

    def test_volume_bound(self):
        full = {pp for pp in gen_pp_box(3, 3, 3) if pp.volume() <= 4}
        assert set(gen_pp_box(3, 3, 3, max_volume=4)) == full

    def test_exact_base_family(self):
        exact = [pp for pp in gen_pp_box(2, 2, 2) if pp.exact_base(2, 2, 2)]
        assert all(pp.shape() == Partition([2, 2]) for pp in exact)
        # removing the forced base layer is a volume-preserving-minus-kn
        # bijection onto the box with entries one smaller
        assert len(exact) == sum(1 for _ in gen_pp_box(2, 2, 1))

    @pytest.mark.parametrize("args, name", [
        ((-1, 2, 2), "k=-1"), ((2, -1, 2), "n=-1"), ((2, 2, -1), "m=-1"),
        ((2, 2, 2, -1), "max_volume=-1")])
    def test_negative_side_rejected(self, args, name):
        with pytest.raises(ValueError, match=name):
            list(gen_pp_box(*args))


class TestTrustedOutput:
    """Every generator but gen_matrix_images wraps what it builds without
    validating it: every member must be what the validating constructor
    builds from its rows, parts, letters or entries.
    """

    @staticmethod
    def assert_as_validated(pps):
        for pp in pps:
            checked = PlanePartition(pp.rows)
            assert pp.rows == checked.rows, pp.rows
            assert pp == checked and checked == pp
            assert hash(pp) == hash(checked)

    def test_box(self):
        for k, n, m in product(range(4), repeat=3):
            self.assert_as_validated(gen_pp_box(k, n, m))
        self.assert_as_validated(gen_pp_box(3, 3, 3, max_volume=4))

    def test_shape_fillings(self):
        for lam in gen_partitions_in_box(3, 3):
            for m in range(4):
                self.assert_as_validated(gen_pp_shape(lam, m))
                self.assert_as_validated(gen_column_strict(lam, m))

    def test_strict_tableaux(self):
        for n in range(5):
            for lam in gen_partitions_in_box(n, 4):
                self.assert_as_validated(list(gen_strict_tableaux(lam, n)))

    def test_partitions_words_and_column_sum_matrices(self):
        for k, n in product(range(4), repeat=2):
            for lam in gen_partitions_in_box(k, n):
                checked = Partition(lam.parts)
                assert lam.parts == checked.parts and lam == checked
                assert hash(lam) == hash(checked)
        for n, m in product(range(4), repeat=2):
            for w in gen_words(n, m):
                checked = Word(w.letters, m)
                assert w.letters == checked.letters and w == checked
                assert hash(w) == hash(checked)
        for n in range(4):
            for alpha in [(), (0,), (2,), (2, 1), (0, 3, 1)]:
                for D in gen_matrices_column_sums(n, alpha):
                    checked = NMatrix(D.entries, n, len(alpha))
                    assert D.entries == checked.entries and D == checked
                    assert hash(D) == hash(checked)


class TestShapeFillings:
    def test_single_cell(self):
        got = list(gen_pp_shape(Partition([1]), 3))
        assert [pp.rows for pp in got] == [((3,),), ((2,),), ((1,),)]

    def test_empty_shape(self):
        assert list(gen_pp_shape(Partition(), 2)) == [PlanePartition()]


class TestMatricesAndWords:
    def test_matrix_count_unweighted(self):
        # entry sum <= 2 over 4 cells: C(4,0)+C(4,1)... via stars and bars
        ones = [[1, 1], [1, 1]]
        got = [d for _, d in kernels.matrices_weighted(2, 2, ones, 2)]
        assert len(got) == sum(math.comb(4 + s - 1, s) for s in range(3))
        assert len(set(got)) == len(got)

    def test_matrix_weighted_bound(self):
        for w, d in kernels.matrices_weighted(2, 2, [[1, 2], [2, 3]], 3):
            assert sum(d[i - 1][l - 1] * (i + l - 1)
                       for i in range(1, 3) for l in range(1, 3)) == w <= 3

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            list(kernels.matrices_weighted(1, 2, [[0, 1]], 3))
        with pytest.raises(ValueError):
            list(gen_matrix_images(1, 2, 3, weight=lambda i, l: l - 1))

    @pytest.mark.parametrize("weight", [
        None, lambda i, l: i + l - 1, lambda i, l: l])
    def test_matrix_images_are_the_inverse_map_of_the_window(self, weight):
        # in the window's order, each matrix of the kernel's weighted sum
        # sum(d * w), paired with its image under the public inverse map
        for n, m, bound in product(range(4), range(4), range(5)):
            grid = [[(weight or (lambda i, l: 1))(i, l)
                     for l in range(1, m + 1)] for i in range(1, n + 1)]
            expected = [
                (sum(d * w for row, wrow in zip(entries, grid)
                     for d, w in zip(row, wrow)),
                 phi_inverse(NMatrix(entries, n, m)))
                for _, entries in kernels.matrices_weighted(n, m, grid, bound)]
            pairs = list(gen_matrix_images(n, m, bound, weight))
            assert pairs == expected
            assert all(w <= bound for w, _ in pairs)

    def test_matrix_images_are_validated(self, monkeypatch):
        # rows that are no plane partition raise instead of being wrapped
        monkeypatch.setattr(kernels, "phi_inverse_rows",
                            lambda entries, n, m: ((1,), (2,)))
        with pytest.raises(ValueError, match="columns must be weakly"):
            list(gen_matrix_images(1, 1, 1))

    def test_word_count(self):
        assert sum(1 for _ in gen_words(4, 3)) == 81

    def test_column_sum_family(self):
        for D in gen_matrices_column_sums(2, (2, 1)):
            assert tuple(map(sum, zip(*D.entries))) == (2, 1)
        assert sum(1 for _ in gen_matrices_column_sums(2, (2, 1))) == 6

    def test_column_sum_family_in_order(self):
        # each choice of column compositions transposed to rows, one row
        # at a time; no columns gives one n x 0 matrix
        for n in range(4):
            for alpha in product(range(3), repeat=n % 3 + 1):
                for cols in (alpha, ()):
                    expected = [
                        tuple(tuple(col[i] for col in choice)
                              for i in range(n))
                        for choice in product(*(compositions(a, n)
                                                 for a in cols))]
                    got = list(gen_matrices_column_sums(n, cols))
                    assert [D.entries for D in got] == expected, (n, cols)
                    assert all((D.n_rows, D.n_cols) == (n, len(cols))
                               for D in got)


def strict_tableaux_by_filter(lam, n):
    """Reference: every filling of lam with entries <= n, filtered for
    strict tableaux.
    """
    if not lam.part(1) <= n <= lam.size():
        return []
    return [pp for pp in gen_pp_shape(lam, max(n, 1))
            if is_strict_tableau(pp, n)]


class TestStrictTableaux:
    def test_golden_counts(self):
        assert f_lambda(Partition([2, 1]), 3) == 2
        assert f_lambda(Partition([1]), 1) == 1
        assert f_lambda(Partition(), 0) == 1
        assert f_lambda(Partition(), 2) == 0
        assert f_lambda(Partition(), -1) == 0
        assert f_lambda(Partition([2]), 1) == 0

    def test_matches_filter_in_order(self):
        for n in range(0, 5):
            for lam in gen_partitions_in_box(n, 4):
                assert list(gen_strict_tableaux(lam, n)) == \
                    strict_tableaux_by_filter(lam, n), (lam, n)

    @given(st.lists(st.integers(1, 3), max_size=3), st.integers(-1, 6))
    @settings(max_examples=100, deadline=None)
    def test_matches_filter_on_random_shapes(self, parts, n):
        # shapes in the 3x3 box with n from -1 up to 6, past the
        # exhaustive range, so the filter reads at most 41,580 fillings
        lam = Partition(sorted(parts, reverse=True))
        assert list(gen_strict_tableaux(lam, n)) == \
            strict_tableaux_by_filter(lam, n)

    def test_sum_over_shapes(self):
        cases = [(n, m) for n in range(1, 4) for m in range(1, 4)]
        for n, m in cases + [(5, 4), (6, 3)]:
            total = sum(f_lambda(lam, n)
                        for lam in gen_partitions_in_box(n, m))
            assert total == m ** n

    def test_members_are_strict(self):
        for st in gen_strict_tableaux(Partition([3, 2]), 4):
            cols = {}
            for row in st.rows:
                for j, v in enumerate(row):
                    cols.setdefault(v, set()).add(j)
            assert all(len(js) == 1 for js in cols.values())


class TestKostka:
    """Kostka numbers K_{lam,alpha}, read off the content tally."""

    def test_known_values(self):
        assert column_strict_contents(Partition([2, 1]), 3)[(1, 1, 1)] == 2
        assert column_strict_contents(Partition([2, 1]), 2)[(2, 1)] == 1
        assert column_strict_contents(Partition([3]), 3)[(1, 1, 1)] == 1
        assert column_strict_contents(Partition([1, 1, 1]), 2)[(2, 1)] == 0

    def test_weight_mismatch_is_zero(self):
        assert column_strict_contents(Partition([2]), 1)[(1,)] == 0

    def test_top_content(self):
        for lam in gen_partitions_in_box(3, 3):
            if lam:
                content = tuple(lam.parts) + (0,) * (3 - len(lam))
                assert column_strict_contents(lam, 3)[content] == 1

    def test_content_tally(self):
        # s_{21}(x1, x2, x3): each arrangement of (2, 1, 0) once, and
        # the content (1, 1, 1) twice
        got = column_strict_contents(Partition([2, 1]), 3)
        expect = {alpha: 1 for alpha in permutations((2, 1, 0))}
        expect[(1, 1, 1)] = 2
        assert got == expect


def skew_schur_ones(outer, inner, n):
    """The skew filler that the complement count replaced, kept as a
    reference: s_{outer/inner}(1^n), the number of column-strict fillings
    of the skew diagram with entries <= n, one recursive call per cell.
    """
    if any(inner.part(i) > outer.part(i) for i in range(1, len(inner) + 1)):
        raise ValueError("inner shape not contained in outer")
    cells = [(i, j)
             for i in range(1, len(outer) + 1)
             for j in range(inner.part(i) + 1, outer.part(i) + 1)]
    grid = {}
    count = 0

    def fill(pos):
        nonlocal count
        if pos == len(cells):
            count += 1
            return
        i, j = cells[pos]
        hi = n
        if (i, j - 1) in grid:
            hi = min(hi, grid[(i, j - 1)])
        if (i - 1, j) in grid:
            hi = min(hi, grid[(i - 1, j)] - 1)
        for v in range(1, hi + 1):
            grid[(i, j)] = v
            fill(pos + 1)
        grid.pop((i, j), None)

    fill(0)
    return count


class TestSkewSchurOnes:
    """The reference skew filler, and the complement count that
    check_dalpha reads in its place: for lam inside the k x n rectangle
    rho, rho/lam turned a half turn is a straight shape.
    """

    def test_complement_count_matches(self):
        for k, n, entries in product(range(5), range(4), range(4)):
            rho = Partition.rectangle(k, n)
            for lam in gen_partitions_in_box(k, n):
                rest = Partition(k - lam.part(i) for i in range(n, 0, -1))
                assert skew_schur_ones(rho, lam, entries) == \
                    sum(column_strict_contents(rest, entries).values()), \
                    (k, n, entries, lam)

    def test_empty_skew(self):
        assert skew_schur_ones(Partition([2, 1]), Partition([2, 1]), 3) == 1

    def test_straight_shape_matches_kostka_sum(self):
        lam = Partition([2, 2])
        contents = column_strict_contents(lam, 3)
        expect = sum(contents[alpha] for alpha in compositions(4, 3))
        assert skew_schur_ones(lam, Partition(), 3) == expect

    def test_containment_required(self):
        with pytest.raises(ValueError):
            skew_schur_ones(Partition([1]), Partition([2]), 2)


def compositions_reference(total, parts):
    """The recursive generator stars and bars replaced, kept as a
    reference: every first part from 0 to total, then the compositions
    of the rest.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions_reference(total - first, parts - 1):
            yield (first,) + rest


class TestCompositions:
    def test_matches_reference_in_order(self):
        # negative totals and zero parts included
        for total, parts in product(range(-2, 7), range(6)):
            assert list(compositions(total, parts)) == \
                list(compositions_reference(total, parts)), (total, parts)

    @given(st.integers(-3, 12), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_random_sizes(self, total, parts):
        assert list(compositions(total, parts)) == \
            list(compositions_reference(total, parts))

    def test_negative_total_is_empty(self):
        assert list(compositions(-1, 1)) == []
        assert list(compositions(-1, 0)) == []

    def test_many_parts(self):
        # 1,500 parts are far past the recursion limit the recursive
        # generator ran into
        assert list(compositions(0, 1500)) == [(0,) * 1500]

    def test_count(self):
        for total in range(0, 5):
            for parts in range(0, 4):
                got = list(compositions(total, parts))
                expect = math.comb(total + parts - 1, parts - 1) if parts \
                    else (1 if total == 0 else 0)
                assert len(got) == expect
                assert all(sum(c) == total and len(c) == parts for c in got)


class TestDAlpha:
    def test_unbounded_equals_wide_box(self):
        # a column count vector of weight N involves at most N columns
        for alpha in compositions(3, 2):
            wide = count_D_alpha(max(sum(alpha), 1), 2, 2, alpha)
            assert count_D_alpha(None, 2, 2, alpha) == wide

    def test_product_formula(self):
        assert count_D_alpha(None, 2, 2, (1, 1)) == 4
        assert count_D_alpha(None, 3, 3, (2, 0, 0)) == 6

    def test_length_validated(self):
        with pytest.raises(ValueError):
            count_D_alpha(2, 2, 2, (1,))

    def test_dominates(self):
        assert dominates((2, 0), (1, 1))
        assert not dominates((1, 1), (2, 0))
        assert dominates((1, 1), (1, 1))
