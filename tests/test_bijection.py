"""The plane-partition <-> matrix bijection and the word machinery."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ppbij import kernels
from ppbij.bijection import greene_shape, is_strict_tableau, \
    max_downright_path_weight, phi, phi_inverse, strict_tableau_to_word, \
    word_to_strict_tableau
from ppbij.checks import run_all
from ppbij.core import Cell, NMatrix, Partition, PlanePartition, Word
from ppbij.enumeration import gen_pp_box, gen_words
from ppbij.poly import MultiPoly

GOLDEN_PP = PlanePartition([[4, 4, 2], [4, 2, 1], [2, 2]])
GOLDEN_MATRIX = NMatrix([[0, 1, 0, 1], [1, 0, 0, 1], [0, 2, 0, 0]])


def gen_matrices(n, m, bound):
    """The n x m N-matrices with entry sum <= bound, from the matrix
    kernel.
    """
    for _, entries in kernels.matrices_weighted(n, m, [[1] * m] * n, bound):
        yield NMatrix(entries, n, m)


def word_to_matrix(w: Word) -> NMatrix:
    """The m x n 0/1 matrix with a single 1 per column, at row w_i in
    column i: the word map's input, kept as a reference that the
    letter-by-letter map is compared with through phi_inverse.
    """
    n = len(w)
    rows = [[0] * n for _ in range(w.m)]
    for pos, letter in enumerate(w):
        rows[letter - 1][pos] = 1
    return NMatrix(rows, w.m, n)


@st.composite
def long_words(draw):
    m = draw(st.integers(1, 9))
    letters = draw(st.lists(st.integers(1, m), min_size=60, max_size=120))
    return Word(letters, m)


class TestPhi:
    def test_golden_forward(self):
        assert phi(GOLDEN_PP, 3, 4) == GOLDEN_MATRIX

    def test_golden_backward(self):
        assert phi_inverse(GOLDEN_MATRIX) == GOLDEN_PP

    def test_empty(self):
        zero = NMatrix([[0, 0], [0, 0]])
        assert phi(PlanePartition(), 2, 2) == zero
        assert phi_inverse(zero) == PlanePartition()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            phi(GOLDEN_PP, 2, 4)   # too many rows
        with pytest.raises(ValueError):
            phi(GOLDEN_PP, 3, 3)   # entry too large

    def test_roundtrip_from_matrices(self):
        for n in range(1, 4):
            for m in range(1, 4):
                for D in gen_matrices(n, m, 5):
                    assert phi(phi_inverse(D), n, m) == D

    def test_roundtrip_from_plane_partitions(self):
        for pp in gen_pp_box(3, 3, 3):
            assert phi_inverse(phi(pp, 3, 3)) == pp
        for pp in gen_pp_box(2, 4, 2):
            assert phi_inverse(phi(pp, 4, 2)) == pp

    def test_weight_transport(self):
        for pp in gen_pp_box(3, 2, 3):
            D = phi(pp, 2, 3)
            assert tuple(map(sum, zip(*D.entries))) == pp.column_counts(3)
            rdc = pp.row_descent_counts()
            assert tuple(map(sum, D.entries)) == rdc + (0,) * (2 - len(rdc))
            assert sum(map(sum, D.entries)) == pp.descent_count()

    def test_statistics_linear_in_matrix(self):
        # both hook statistics read off the matrix entries directly
        for D in gen_matrices(2, 3, 4):
            pp = phi_inverse(D)
            uh = sum(D.entries[i - 1][l - 1] * (i + l - 1)
                     for i in range(1, 3) for l in range(1, 4))
            c = sum(D.entries[i - 1][l - 1] * l
                    for i in range(1, 3) for l in range(1, 4))
            assert pp.up_hook_volume() == uh
            assert pp.corner_volume() == c


class TestPathWeight:
    def test_golden(self):
        assert max_downright_path_weight(GOLDEN_MATRIX, Cell(1, 1), Cell(3, 4)) == 3

    def test_first_row_law(self):
        for n in range(1, 4):
            for m in range(1, 4):
                for D in gen_matrices(n, m, 4):
                    expect = phi_inverse(D).shape().part(1)
                    assert max_downright_path_weight(
                        D, Cell(1, 1), Cell(n, m)) == expect

    def test_lower_rows_law(self):
        # starting the path at row k instead tests the k-th row length
        for D in gen_matrices(3, 3, 4):
            sh = phi_inverse(D).shape()
            for k in range(1, 4):
                assert max_downright_path_weight(
                    D, Cell(k, 1), Cell(3, 3)) == sh.part(k)

    def test_empty_path_set(self):
        with pytest.raises(ValueError, match="empty path set"):
            max_downright_path_weight(GOLDEN_MATRIX, Cell(2, 2), Cell(1, 4))


class TestWordMaps:
    def test_word_to_matrix(self):
        w = Word([2, 1, 2], 3)
        assert word_to_matrix(w) == NMatrix([[0, 1, 0], [1, 0, 1], [0, 0, 0]])

    def test_matches_matrix_reference_on_short_words(self):
        # every word of length <= 6 over at most 4 letters, the empty
        # word over the empty alphabet included
        for m in range(5):
            for n in range(7):
                for w in gen_words(n, m):
                    assert word_to_strict_tableau(w) == \
                        phi_inverse(word_to_matrix(w)), w

    @given(long_words())
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_reference_on_long_words(self, w):
        st = word_to_strict_tableau(w)
        assert st == phi_inverse(word_to_matrix(w))
        assert strict_tableau_to_word(st, w.m) == w

    def test_golden_strict_tableau(self):
        st = word_to_strict_tableau(Word.from_digits("132434", 4))
        assert st == PlanePartition([[6, 5, 3, 1], [6, 5, 3], [6, 5, 2], [6, 4]])

    def test_word_roundtrip(self):
        for n, m in ((4, 3), (3, 4), (5, 2)):
            for w in gen_words(n, m):
                st = word_to_strict_tableau(w)
                assert is_strict_tableau(st, n)
                assert strict_tableau_to_word(st, m) == w

    def test_images_distinct(self):
        images = {word_to_strict_tableau(w) for w in gen_words(4, 3)}
        assert len(images) == 3 ** 4

    def test_is_strict_tableau_negatives(self):
        # value 1 appears in two different columns
        assert not is_strict_tableau(PlanePartition([[1, 1]]), 1)
        # value 2 missing from the filling
        assert not is_strict_tableau(PlanePartition([[3, 1]]), 3)
        assert is_strict_tableau(PlanePartition(), 0)

    def test_strict_tableau_to_word_rejects(self):
        with pytest.raises(ValueError, match="not a strict tableau"):
            strict_tableau_to_word(PlanePartition([[1, 1]]), 2)


class TestValidationBoundary:
    """The images of the two inverse maps are validated; the values that
    phi, strict_tableau_to_word, greene_shape, PlanePartition.shape and
    Partition.conjugate compute from a validated value are wrapped
    without a second check.
    """

    @pytest.fixture
    def inits(self, monkeypatch):
        """Counts of the validating constructors' calls, by class name."""
        calls = Counter()
        for cls in (Partition, PlanePartition, NMatrix, Word, MultiPoly):
            def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                        **kwargs):
                calls[_name] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        return calls

    def test_inverse_map_image_is_validated(self, monkeypatch):
        # rows that are no plane partition raise instead of being wrapped
        monkeypatch.setattr(kernels, "phi_inverse_rows",
                            lambda entries, n, m: ((1,), (2,)))
        with pytest.raises(ValueError, match="columns must be weakly"):
            phi_inverse(GOLDEN_MATRIX)

    def test_word_map_image_is_validated(self, monkeypatch):
        monkeypatch.setattr(kernels, "word_tableau_rows",
                            lambda letters: ((1,), (2,)))
        with pytest.raises(ValueError, match="columns must be weakly"):
            word_to_strict_tableau(Word([2, 1], 2))

    def test_round_trips_validate_one_plane_partition(self, inits):
        matrices = list(gen_matrices(3, 4, 3)) + [GOLDEN_MATRIX]
        words = list(gen_words(4, 3)) + [Word.from_digits("132434", 4)]
        for D in matrices:
            inits.clear()
            assert phi(phi_inverse(D), D.n_rows, D.n_cols) == D
            assert inits == {"PlanePartition": 1}
        for w in words:
            inits.clear()
            assert strict_tableau_to_word(
                word_to_strict_tableau(w), w.m).letters == w.letters
            assert inits == {"PlanePartition": 1}
        inits.clear()
        assert GOLDEN_PP.shape().parts == (3, 3, 2)
        assert not inits

    @staticmethod
    def assert_as_validated(value, checked):
        assert value == checked and checked == value
        assert hash(value) == hash(checked)

    def test_unchecked_wraps_equal_validated_values(self):
        for pp in gen_pp_box(3, 3, 3):
            D = phi(pp, 3, 3)
            self.assert_as_validated(D, NMatrix(D.entries, 3, 3))
            lam = pp.shape()
            self.assert_as_validated(lam, Partition(lam.parts))
        for m in range(5):
            for n in range(7):
                for w in gen_words(n, m):
                    st = word_to_strict_tableau(w)
                    back = strict_tableau_to_word(st, m)
                    self.assert_as_validated(back, Word(back.letters, m))
                    for lam in st.shape(), greene_shape(w):
                        self.assert_as_validated(lam, Partition(lam.parts))
                        conj = lam.conjugate()
                        self.assert_as_validated(conj, Partition(conj.parts))

    def test_small_grid_builds_no_word_or_matrix_through_init(self, inits):
        # the grid's words and matrices come from itertools, zip and the
        # bijection and are wrapped; its plane partitions include the
        # validated inverse-map images
        assert all(r.passed for r in run_all("small"))
        assert inits["Word"] == inits["NMatrix"] == 0
        assert inits["PlanePartition"] > 0


def brute_lis_tail(w: Word, i: int) -> int:
    """Reference implementation: try every subsequence."""
    lo = w.m - i + 1
    best = 0
    for r in range(len(w) + 1):
        for sub in itertools.combinations(w.letters, r):
            if all(v >= lo for v in sub) and \
                    all(a <= b for a, b in zip(sub, sub[1:])):
                best = max(best, r)
    return best


class TestGreene:
    def test_lis_tail_against_brute_force(self):
        for w in gen_words(5, 3):
            for i in range(1, 4):
                assert kernels.lis_tail(w.letters, 3, i) == \
                    brute_lis_tail(w, i)

    def test_tails_against_brute_force(self):
        # every word of length <= 6 over at most 4 letters
        for m in range(1, 5):
            for n in range(7):
                for w in gen_words(n, m):
                    tails = kernels.lis_tails(w.letters, m)
                    assert tails == tuple(brute_lis_tail(w, i)
                                          for i in range(1, m + 1)), w

    def test_golden_shape(self):
        assert greene_shape(Word.from_digits("132434", 4)) == \
            Partition([4, 3, 3, 2])

    def test_shape_matches_tableau(self):
        for n, m in ((4, 3), (5, 3)):
            for w in gen_words(n, m):
                assert greene_shape(w) == word_to_strict_tableau(w).shape()

    def test_constant_word(self):
        # every letter is the top letter, so both tail windows see the
        # whole word
        assert greene_shape(Word([2, 2, 2], 2)) == Partition([3, 3])
