"""The named identity checks and the suite runner."""

import hashlib
import inspect
import sys
from collections import Counter
from itertools import compress, zip_longest
from operator import add, ge

import pytest

from ppbij import checks, kernels
from ppbij.kernels import _pure
from ppbij.bijection import phi, phi_inverse, strict_tableau_to_word
from ppbij.checks import CHECKS, CheckResult, _build, _poly_diff, \
    check_cauchy_type, check_corner_volume, check_dalpha, \
    check_equidistribution, check_frobenius, check_gexp, check_gl, \
    check_greene, check_infinite_volume, check_macmahon_box, \
    check_multivariate, check_qschur, check_superadditivity, check_uh_des, \
    check_uh_restricted, _run_entry, load_grids, run_all
from ppbij.cli import main
from ppbij.core import Partition, PlanePartition, Word
from ppbij.enumeration import gen_matrix_images, gen_partitions_in_box, \
    gen_pp_box, gen_pp_shape
from ppbij.poly import MultiPoly, Truncation, VarTable, elementary_all, \
    product_series
from ppbij.symfun import descent_monomial, family_vars, g_combinatorial, \
    g_refined


class TestPolyDiff:
    def test_none_when_equal(self):
        t = VarTable([("q", 1)])
        p = MultiPoly(t, {(2,): 3})
        assert _poly_diff("s", p, p) is None

    def test_reports_lowest_disagreement(self):
        t = VarTable([("q", 1)])
        a = MultiPoly(t, {(1,): 1, (3,): 9})
        b = MultiPoly(t, {(1,): 1, (2,): 5})
        assert _poly_diff("s", a, b) == ("s:q^2", "0", "5")


class TestIndividualChecks:
    """One small instance per check; the acceptance suite runs the
    full grids.
    """

    def test_macmahon(self):
        assert check_macmahon_box(2, 2, 2).passed

    def test_infinite_volume(self):
        assert check_infinite_volume(4).passed
        assert check_infinite_volume(0).passed

    def test_infinite_volume_left_side_matches_oeis(self):
        # the volume tally infinite_volume enumerates at N = 10 against
        # the plane-partition numbers of OEIS A000219, copied from the
        # literature rather than computed
        a000219 = [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500]
        tally = Counter(pp.volume()
                        for pp in gen_pp_box(10, 10, 10, max_volume=10))
        assert [tally[v] for v in range(11)] == a000219
        assert sum(tally.values()) == sum(a000219)

    def test_qschur(self):
        assert check_qschur(2, 2, 2).passed
        assert check_qschur(1, 2, 1).passed  # asymmetric box

    def test_multivariate(self):
        assert check_multivariate(2, 1, 4).passed

    def test_cauchy_type(self):
        assert check_cauchy_type(2, 2, 4).passed

    def test_gl(self):
        assert check_gl(2, 2, 3).passed

    def test_uh_des(self):
        assert check_uh_des(2, 2, 4).passed

    def test_equidistribution(self):
        assert check_equidistribution(3).passed

    def test_uh_restricted(self):
        assert check_uh_restricted("entries", 2, 4).passed
        assert check_uh_restricted("rows", 2, 4).passed
        with pytest.raises(ValueError):
            check_uh_restricted("columns", 2, 4)

    def test_corner_volume(self):
        assert check_corner_volume(2, 2, 2).passed
        # a box with a zero side holds only the empty plane partition,
        # whose base is the empty k x 0 rectangle
        assert check_corner_volume(1, 0, 1).passed
        assert check_corner_volume(1, 1, 0).passed

    def test_frobenius(self):
        assert check_frobenius(2, 2).passed

    def test_gexp(self):
        assert check_gexp(Partition([2, 1])).passed

    def test_greene(self):
        assert check_greene(3, 3).passed

    def test_dalpha(self):
        r = check_dalpha(3, 2, 2, 3)
        assert r.passed
        # the single-value count is reported, not asserted
        assert any("matches" in note for note in r.notes)

    def test_superadditivity(self):
        assert check_superadditivity(2, 2, 2).passed

    @pytest.mark.parametrize("check, args", [
        (check_macmahon_box, (0, 0, 0)),
        (check_qschur, (0, 0, 0)),
        (check_uh_des, (0, 0, 2)),
        (check_gl, (1, 0, 2)),
        (check_cauchy_type, (0, 1, 2)),
        (check_uh_restricted, ("rows", 0, 3)),
        (check_uh_restricted, ("entries", 0, 3)),
        (check_dalpha, (1, 0, 1, 2)),
        (check_frobenius, (0, 0)),
        (check_greene, (0, 0)),
    ])
    def test_degenerate_instance(self, check, args):
        # a zero side leaves empty products, sums and determinants: the
        # enumerated side is the empty plane partition alone, or nothing;
        # over zero values only the empty multiset and the empty word
        # remain
        r = check(*args)
        assert r.passed, (r.first_diff, r.notes)

    @pytest.mark.parametrize("check, params", [
        ("macmahon_box", {"k": 2, "n": 2, "m": -1}),
        ("qschur", {"k": 2, "n": 2, "m": -1}),
        ("corner_volume", {"k": 2, "n": 2, "m": -1}),
        ("dalpha", {"k": 2, "n": 2, "m": -1, "N_max": 2}),
    ])
    def test_negative_side_is_a_fail_record(self, check, params):
        r = _run_entry({"check": check, "params": params})
        assert r.passed is False
        assert r.notes[0] == "ValueError: box m=-1 is negative"


def weak_descents(self, labels=None):
    """PlanePartition._descent_rows with >= in place of >: every cell
    whose value is at least the value below counts as a descent.
    """
    rows = self.rows
    if labels is None:
        labels = rows
    return [[*compress(label, map(ge, row, below)), *label[len(below):]]
            for row, below, label in zip(rows, rows[1:] + ((),), labels)]


# check name -> the mutation tests that inject a fault it must catch
MUTANTS: dict[str, list[str]] = {}


def catches(*checks):
    """Register the decorated mutation test under the checks it fails."""
    def register(test):
        for name in checks:
            MUTANTS.setdefault(name, []).append(test.__name__)
        return test
    return register


def check_name(fn) -> str:
    return next(name for name, check in CHECKS.items() if check is fn)


TALLIED_MUTANTS = [
    ("volume", check_macmahon_box, (2, 2, 2)),
    ("volume", check_qschur, (2, 2, 2)),
    ("descent_set", check_multivariate, (2, 2, 4)),
    ("descent_set", check_cauchy_type, (2, 2, 4)),
    ("column_counts", check_gl, (2, 2, 3)),
    ("column_counts", check_gexp, (Partition([2, 1]),)),
    ("volume", check_infinite_volume, (4,)),
]


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


# the checks that read the inverse map (phi_inverse, the word map or the
# matrix-window images), with instances of at least two rows
ROW_SENSITIVE = [
    (check_multivariate, (2, 2, 4)),
    (check_uh_des, (2, 2, 4)),
    (check_equidistribution, (3,)),
    (check_uh_restricted, ("entries", 2, 4)),
    (check_uh_restricted, ("rows", 2, 4)),
    (check_frobenius, (3, 3)),
    (check_greene, (3, 3)),
    (check_superadditivity, (2, 2, 2)),
]
LEVEL_SENSITIVE = ROW_SENSITIVE + [
    (check_corner_volume, (2, 2, 2)),
    (check_dalpha, (2, 2, 2, 2)),
]


# the checks whose product side is a product_series, each on an instance
# whose enumerated side has a term of capped degree equal to the cap
PRODUCT_SIDES = [
    (check_macmahon_box, (2, 2, 2)),
    (check_infinite_volume, (4,)),
    (check_multivariate, (2, 2, 4)),
    (check_cauchy_type, (2, 2, 4)),
    (check_gl, (2, 2, 3)),
    (check_uh_des, (2, 2, 4)),
    (check_equidistribution, (3,)),
    (check_uh_restricted, ("entries", 2, 4)),
    (check_corner_volume, (2, 2, 2)),
]


class TestMutationSensitivity:
    @catches("uh_des")
    def test_uh_off_by_one_is_caught(self, monkeypatch):
        # drop the row-depth term from the statistic; the joint
        # distribution check must notice and name a differing monomial
        def flat(self):
            return sum(self.rows[i - 1][j - 1] for i, j in self.descent_set())

        monkeypatch.setattr(PlanePartition, "up_hook_volume", flat)
        r = check_uh_des(2, 2, 4)
        assert not r.passed
        assert r.first_diff is not None

    @catches("uh_des")
    def test_descent_mutation_is_caught(self, monkeypatch):
        # a weak inequality in the descent walk breaks the volume
        # product identity
        monkeypatch.setattr(PlanePartition, "_descent_rows", weak_descents)
        r = check_uh_des(2, 2, 4)
        assert not r.passed

    def test_every_descent_statistic_reads_the_walk(self, monkeypatch):
        # the weak walk must move every descent statistic on one plane
        # partition with equal entries stacked in a column, so none of
        # them can bypass the walk the mutants above patch
        pp = PlanePartition([[4, 4, 2], [4, 2, 1], [2, 2]])
        xz = VarTable([("x", 3), ("z", 4)])
        stats = {
            "descent_count": PlanePartition.descent_count,
            "corner_volume": PlanePartition.corner_volume,
            "up_hook_volume": PlanePartition.up_hook_volume,
            "row_descent_counts": PlanePartition.row_descent_counts,
            "descent_set": PlanePartition.descent_set,
            "descent_level_sets": PlanePartition.descent_level_sets,
            "phi": lambda pp: phi(pp, 3, 4),
            "descent_monomial": lambda pp: descent_monomial(xz, pp),
        }
        strict = {name: stat(pp) for name, stat in stats.items()}
        monkeypatch.setattr(PlanePartition, "_descent_rows", weak_descents)
        for name, stat in stats.items():
            assert stat(pp) != strict[name], name

    @catches(*(check_name(check) for _, check, _ in TALLIED_MUTANTS))
    @pytest.mark.parametrize("stat, check, args", TALLIED_MUTANTS)
    def test_tallied_side_mutation_is_caught(self, monkeypatch, stat, check,
                                             args):
        # one fault in the statistic each enumerated side tallies: volume
        # one too high on a nonempty plane partition, a weak inequality
        # in the descent walk, or the content (entries equal to each
        # value) in place of the column counts
        volume = PlanePartition.volume
        mutants = {
            "volume": ("volume",
                       lambda self: volume(self) + (1 if self else 0)),
            # every descent statistic reads the one descent walk
            "descent_set": ("_descent_rows", weak_descents),
            "column_counts": ("column_counts", lambda self, m: tuple(
                sum(row.count(v) for row in self.rows)
                for v in range(1, m + 1))),
        }
        monkeypatch.setattr(PlanePartition, *mutants[stat])
        r = check(*args)
        assert r.passed is False
        assert r.first_diff is not None

    @catches("equidistribution")
    def test_flat_up_hook_fails_equidistribution(self, monkeypatch):
        # the up-hook volume loses its row-depth term: the descent side
        # no longer matches the product
        monkeypatch.setattr(PlanePartition, "up_hook_volume",
                            PlanePartition.corner_volume)
        r = check_equidistribution(3)
        assert r.passed is False
        assert r.first_diff[0].startswith("uh_vs_product:")

    @catches("equidistribution")
    def test_first_column_trace_fails_equidistribution(self, monkeypatch):
        # the trace sums the first column instead of the diagonal: the
        # volume side no longer matches the product
        monkeypatch.setattr(PlanePartition, "trace",
                            lambda self: sum(row[0] for row in self.rows))
        r = check_equidistribution(3)
        assert r.passed is False
        assert r.first_diff[0].startswith("vol_vs_product:")

    @catches("uh_restricted")
    @pytest.mark.parametrize("mode", ["entries", "rows"])
    def test_deep_up_hook_fails_uh_restricted(self, monkeypatch, mode):
        # the up-hook volume counts each descent one row too deep
        up_hook = PlanePartition.up_hook_volume
        monkeypatch.setattr(
            PlanePartition, "up_hook_volume",
            lambda self: up_hook(self) + self.descent_count())
        r = check_uh_restricted(mode, 2, 4)
        assert r.passed is False
        assert r.first_diff[0].startswith("series:")

    @catches(*(check_name(check) for check, _ in PRODUCT_SIDES))
    @pytest.mark.parametrize("check, args", PRODUCT_SIDES)
    def test_series_one_degree_short_is_caught(self, monkeypatch, check,
                                               args):
        # the product side's expansion stops one degree short of the cap
        def short(table, factors, trunc):
            return product_series(table, factors,
                                  Truncation(trunc.cap - 1, trunc.family))

        monkeypatch.setattr("ppbij.checks.product_series", short)
        r = check(*args)
        assert r.passed is False
        assert r.first_diff is not None

    @catches("superadditivity")
    def test_entrywise_max_fails_superadditivity(self, monkeypatch):
        # the entrywise sum becomes the entrywise maximum, still a plane
        # partition, but the volume is no longer additive
        monkeypatch.setattr(PlanePartition, "add", lambda self, other:
                            PlanePartition(
                                map(max, zip_longest(a, b, fillvalue=0))
                                for a, b in zip_longest(
                                    self.rows, other.rows, fillvalue=())))
        r = check_superadditivity(2, 2, 2)
        assert r.passed is False
        assert r.first_diff[0] == "violations"

    @catches("dalpha")
    def test_weak_columns_fail_dalpha_expansion(self, monkeypatch):
        # fill the Kostka side with weakly decreasing columns; the
        # column-count tally of the box does not read those fillings
        monkeypatch.setattr("ppbij.enumeration.gen_column_strict",
                            gen_pp_shape)
        r = check_dalpha(2, 2, 2, 2)
        assert r.passed is False
        assert r.first_diff[0] == "kostka_expansion_failures"

    @catches("qschur", "corner_volume")
    @pytest.mark.parametrize("check", [check_qschur, check_corner_volume])
    def test_dropped_value_fails_jacobi_trudi_side(self, monkeypatch,
                                                   check):
        # the elementary polynomials of the determinant side lose the
        # last value of every row
        monkeypatch.setattr(
            "ppbij.symfun.elementary_all",
            lambda table, kmax, vals: elementary_all(table, kmax, vals[:-1]))
        r = check(2, 2, 2)
        assert r.passed is False
        assert r.first_diff is not None

    @catches("greene")
    def test_high_tail_subsequence_fails_greene(self, monkeypatch):
        # every longest-subsequence length one too high on a nonempty
        # word: the Greene shape no longer matches the tableau shape
        lis_tails = kernels.lis_tails
        monkeypatch.setattr(
            kernels, "lis_tails",
            lambda letters, m: tuple(t + bool(letters)
                                     for t in lis_tails(letters, m)))
        r = check_greene(3, 3)
        assert r.passed is False
        assert r.first_diff[0] == "mismatches"

    @catches("frobenius")
    def test_reversed_reading_fails_frobenius(self, monkeypatch):
        # the word read back off a strict tableau comes out reversed
        monkeypatch.setattr(
            "ppbij.checks.strict_tableau_to_word",
            lambda st, m: Word(strict_tableau_to_word(st, m).letters[::-1],
                               m))
        r = check_frobenius(3, 3)
        assert r.passed is False
        assert r.first_diff[0] == "roundtrip_failures"

    @catches("dalpha")
    def test_wrong_inverse_map_fails_dalpha(self, monkeypatch):
        # lower every entry of the inverse image by one (zeros trimmed);
        # the unbounded product-formula side must count the mismatches
        def shifted(D):
            return PlanePartition([[v - 1 for v in row]
                                   for row in phi_inverse(D).rows])

        monkeypatch.setattr("ppbij.enumeration.phi_inverse", shifted)
        r = check_dalpha(2, 2, 2, 2)
        assert r.passed is False
        assert r.first_diff[0] == "product_formula_failures"

    @catches(*(check_name(check) for check, _ in ROW_SENSITIVE))
    @pytest.mark.parametrize("check, args", ROW_SENSITIVE)
    def test_insertion_one_row_short_is_caught(self, monkeypatch, check,
                                               args):
        # the inverse map credits row max(i-1, 1) in place of row i: the
        # recurrence grows row i-1 by d[i][l], and the word step fills
        # each new column down to the row above the letter's (row 1
        # stays row 1); the corner volume and the column counts do not
        # read the row index, so corner_volume and dalpha cannot see this
        # fault
        phi_inverse_rows = kernels.phi_inverse_rows
        word_tableau_rows = kernels.word_tableau_rows
        monkeypatch.setattr(
            kernels, "phi_inverse_rows", lambda entries, n, m:
            phi_inverse_rows(counts_one_row_up(entries), n, m))
        monkeypatch.setattr(
            kernels, "word_tableau_rows", lambda letters:
            word_tableau_rows([max(a - 1, 1) for a in letters]))
        r = check(*args)
        assert r.passed is False
        assert r.first_diff is not None

    @catches(*(check_name(check) for check, _ in LEVEL_SENSITIVE))
    @pytest.mark.parametrize("check, args", LEVEL_SENSITIVE)
    def test_insertion_one_level_low_is_caught(self, monkeypatch, check,
                                               args):
        # the recurrence and the word step write level-1 in place of
        # level (the zeros they make at level 1 are trimmed)
        for name in ("phi_inverse_rows", "word_tableau_rows"):
            monkeypatch.setattr(kernels, name,
                                cells_one_level_low(getattr(kernels, name)))
        r = check(*args)
        assert r.passed is False
        assert r.first_diff is not None

    def test_every_check_has_a_mutant(self):
        assert set(MUTANTS) == set(CHECKS)

    def test_every_product_series_side_has_the_short_mutant(self):
        calls = {name for name, check in CHECKS.items()
                 if "product_series(" in inspect.getsource(check)}
        assert calls == {check_name(check) for check, _ in PRODUCT_SIDES}
        for name in calls:
            assert "test_series_one_degree_short_is_caught" in MUTANTS[name]


def images_at(table, n, m, weight, stat):
    """lhs_at(window) as the series checks computed it before they read
    both windows off one pass, untruncated: the tally of stat over the
    window's matrix images, one enumeration per window.
    """
    def lhs_at(window):
        return MultiPoly(table, Counter(
            stat(pp) for _, pp in gen_matrix_images(n, m, window, weight)))
    return lhs_at


def shapes_at(table, n, poly):
    """lhs_at(width) for gl and cauchy_type, one enumeration per width,
    untruncated: the sum of poly(lam) over the shapes in the width x n
    box.
    """
    def lhs_at(width):
        terms = Counter()
        for lam in gen_partitions_in_box(width, n):
            terms.update(poly(lam).terms)
        return MultiPoly(table, terms)
    return lhs_at


_XZ = VarTable([("x", 2), ("z", 2)])
_Z = VarTable([("z", 2)])
_QT = VarTable([("q", 1)])
_TQT = VarTable([("t", 1), ("q", 1)])
_UH = lambda i, l: i + l - 1  # noqa: E731
_DES_UH = lambda pp: (pp.descent_count(), pp.up_hook_volume())  # noqa: E731

# (check, arguments, its base window, the reference at any window)
WINDOW_PAIRS = [
    (check_multivariate, (2, 2, 4), 2, images_at(
        _XZ, 2, 2, None, lambda pp: descent_monomial(_XZ, pp))),
    (check_uh_des, (2, 3, 4), 4, images_at(_TQT, 2, 3, _UH, _DES_UH)),
    (check_equidistribution, (3,), 3, images_at(_TQT, 4, 4, _UH, _DES_UH)),
    (check_uh_restricted, ("entries", 2, 4), 4, images_at(
        _QT, 4, 2, _UH, lambda pp: (pp.up_hook_volume(),))),
    (check_uh_restricted, ("rows", 2, 4), 4, images_at(
        _QT, 2, 4, _UH, lambda pp: (pp.up_hook_volume(),))),
    (check_corner_volume, (2, 2, 2, 4), 4, images_at(
        _QT, 2, 2, lambda i, l: l, lambda pp: (pp.corner_volume(),))),
    (check_gl, (2, 2, 3), 3, shapes_at(
        _Z, 2, lambda lam: g_combinatorial(_Z, lam, family_vars(_Z, "z")))),
    (check_cauchy_type, (2, 2, 5), 2, shapes_at(
        _XZ, 2, lambda lam: g_refined(_XZ, lam))),
]


@pytest.mark.parametrize("check, args, window, lhs_at", WINDOW_PAIRS)
def test_window_pair_matches_two_enumerations(monkeypatch, check, args,
                                              window, lhs_at):
    # before truncation (under a cap above every exponent), the one-pass
    # pair each series check compares equals enumerating the base and the
    # enlarged window separately
    pairs = []
    one_pass = checks._window_pair
    uncapped = Truncation(sys.maxsize)

    def record(table, trunc, base, items):
        items = list(items)
        pairs.append((base, one_pass(table, uncapped, base, items)))
        return one_pass(table, trunc, base, items)

    monkeypatch.setattr(checks, "_window_pair", record)
    assert check(*args).passed
    assert pairs == [(window, (lhs_at(window), lhs_at(window + 1)))]
    base, enlarged = pairs[0][1]
    assert base.terms and base != enlarged


class TestResultObject:
    def test_json_shape(self):
        r = check_macmahon_box(1, 1, 1)
        data = r.to_json()
        assert data["check"] == "macmahon_box"
        assert data["pass"] is True
        assert data["first_diff"] is None
        assert isinstance(data["elapsed"], float)

    def test_failure_carries_diff(self):
        r = CheckResult("x", {}, False, "a", "b", ("s:q", "1", "2"), 0.1)
        assert r.to_json()["first_diff"] == ["s:q", "1", "2"]

    def test_digest_pins_coefficients(self):
        # 1 + 2q and 1 + 3q have the same term count: only the digest
        # tells them apart in a record
        table = VarTable([("q", 1)])
        a = MultiPoly(table, {(0,): 1, (1,): 2})
        b = MultiPoly(table, {(0,): 1, (1,): 3})
        same = _build("x", {}, [("s", a, a), ("n", 4, 4)], 0.0)
        diff = _build("x", {}, [("s", a, b), ("n", 4, 4)], 0.0)
        assert same.lhs_summary == diff.rhs_summary
        assert same.digest["lhs"] == same.digest["rhs"] == diff.digest["lhs"]
        assert diff.digest["lhs"] != diff.digest["rhs"]
        relabelled = _build("x", {}, [("t", a, a), ("n", 4, 4)], 0.0)
        assert relabelled.digest["lhs"] != same.digest["lhs"]
        # the 1x1x1 box: 1 + q, and 2 plane partitions
        box = hashlib.sha256(b'["q_poly",[[[0],1],[[1],1]]]\n'
                             b'["count","2"]\n').hexdigest()
        assert check_macmahon_box(1, 1, 1).to_json()["digest"] == {
            "lhs": box, "rhs": box}


class TestSuite:
    def test_registry_complete(self):
        assert len(CHECKS) == 15

    def test_grids_reference_known_checks(self):
        grids = load_grids()
        assert set(grids) == {"small", "full"}
        for level, entries in grids.items():
            for entry in entries:
                assert entry["check"] in CHECKS

    def test_small_level_covers_every_check(self):
        grids = load_grids()
        assert {e["check"] for e in grids["small"]} == set(CHECKS)

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            run_all("huge")

    def test_workers_agree(self):
        serial = [r.to_json() for r in run_all("small")]
        parallel = [r.to_json() for r in run_all("small", workers=4)]
        strip = lambda d: {k: v for k, v in d.items() if k != "elapsed"}
        assert [strip(d) for d in serial] == [strip(d) for d in parallel]

    def test_raising_check_becomes_fail_record(self, monkeypatch, capsys):
        def boom(**params):
            raise RuntimeError("injected")

        monkeypatch.setitem(CHECKS, "greene", boom)
        results = list(run_all("small"))
        assert len(results) == len(load_grids()["small"]) == 117
        failed = [r for r in results if not r.passed]
        assert failed and all(r.check_name == "greene" for r in failed)
        assert len(failed) == sum(r.check_name == "greene" for r in results)
        for r in failed:
            assert r.first_diff is None
            assert r.notes[0] == "RuntimeError: injected"

        assert main(["verify", "all"]) == 1
        assert "FAIL greene" in capsys.readouterr().out

    def test_first_record_is_written_before_the_last_entry_starts(
            self, monkeypatch, capsys):
        entries = load_grids()["small"]
        seen = []

        def fake_entry(entry):
            if entry is entries[-1]:
                seen.append(capsys.readouterr().out)
            return CheckResult(entry["check"], entry["params"], True, "", "",
                               None, 0.0)

        monkeypatch.setattr("ppbij.checks.load_grids",
                            lambda: {"small": entries})
        monkeypatch.setattr("ppbij.checks._run_entry", fake_entry)
        assert main(["verify", "all", "--json"]) == 0
        assert len(seen) == 1
        assert seen[0].count("\n") == len(entries) - 1
        assert seen[0].startswith('{"check": "%s"' % entries[0]["check"])

    def test_pool_is_sized_by_the_entry_count(self, monkeypatch):
        # a stand-in executor that records its size and maps in-process,
        # so no process is started
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            Recorder)
        first = next(iter(run_all("small", workers=10 ** 6)))
        assert first.passed
        assert sizes == [len(load_grids()["small"])] == [117]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_rejected(self, capsys, workers):
        assert main(["verify", "all", "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err


class TestDisjointRowKernels:
    """pp_box is the only caller of kernels.row_candidates: the shape
    fillings (kernels.pp_shape) and the strict-tableau rows
    (kernels.strict_rows) that gexp, gl, cauchy_type, frobenius and the
    Kostka/skew-Schur side of dalpha read list their rows without it.
    """

    @staticmethod
    def recorded(monkeypatch):
        calls = []
        row_candidates = _pure.row_candidates

        def recording(bounds, max_sum):
            calls.append((bounds, max_sum))
            return row_candidates(bounds, max_sum)

        # the kernels' own calls, and those through the package
        monkeypatch.setattr(_pure, "row_candidates", recording)
        monkeypatch.setattr(kernels, "row_candidates", recording)
        return calls

    @pytest.mark.parametrize("entry", [
        e for e in load_grids()["small"]
        if e["check"] in ("gexp", "gl", "cauchy_type", "frobenius")],
        ids=lambda e: e["check"])
    def test_fillings_list_no_box_rows(self, monkeypatch, entry):
        calls = self.recorded(monkeypatch)
        assert _run_entry(entry).passed
        assert calls == []

    def test_dalpha_lists_the_box_rows_only(self, monkeypatch):
        calls = self.recorded(monkeypatch)
        list(kernels.pp_box(2, 2, 2))
        box = calls[:]
        del calls[:]
        assert check_dalpha(2, 2, 2, 2).passed
        assert calls == box != []


class TestWorkModels:
    # objects each enumerated item builds, in the models' units
    UNITS = {"pp_box": 1, "pp_shape": 1,
             "matrices_weighted": checks.PER_MATRIX, "gen_words": 3}
    # the checks whose model is exactly the units of what they enumerate
    EXACT = {"macmahon_box", "infinite_volume", "qschur", "multivariate",
             "uh_des", "equidistribution", "uh_restricted", "corner_volume",
             "greene"}

    def test_models_take_the_checks_parameters(self):
        def params(fn):
            return [(p.name, p.default)
                    for p in inspect.signature(fn).parameters.values()]

        assert set(checks.WORK) == set(CHECKS)
        for name, model in checks.WORK.items():
            assert params(model) == params(CHECKS[name]), name

    @pytest.mark.parametrize("entry", load_grids()["small"],
                             ids=lambda e: e["check"])
    def test_model_bounds_the_enumeration(self, monkeypatch, entry):
        built = Counter()

        def counted(name, kernel):
            def wrapper(*args, **kwargs):
                items = list(kernel(*args, **kwargs))
                built[name] += len(items)
                return items
            return wrapper

        for name in ("pp_box", "pp_shape", "matrices_weighted"):
            monkeypatch.setattr(kernels, name,
                                counted(name, getattr(kernels, name)))
        monkeypatch.setattr(checks, "gen_words",
                            counted("gen_words", checks.gen_words))
        assert _run_entry(entry).passed
        units = sum(self.UNITS[name] * count for name, count in built.items())
        model = checks.work(entry["check"], entry["params"])
        if entry["check"] in self.EXACT:
            assert model == units, built
        else:
            assert model >= units, built

    def test_corner_volume_enumerates_one_box(self, monkeypatch):
        boxes = []

        def pp_box(k, n, m, max_volume=None, _kernel=kernels.pp_box):
            boxes.append((k, n, m))
            return _kernel(k, n, m, max_volume)

        monkeypatch.setattr(kernels, "pp_box", pp_box)
        assert check_corner_volume(2, 2, 3, 5).passed
        assert boxes == [(2, 2, 3)]
