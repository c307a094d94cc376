"""The named identity checks and the suite runner."""

import hashlib
import inspect
import pickle
import sys
from collections import Counter

import pytest

from mutants import MUTANTS, apply, weak_descents
from ppbij import checks, kernels
from ppbij.kernels import _pure
from ppbij.bijection import phi
from ppbij.checks import CHECKS, CheckResult, _build, _poly_diff, \
    check_cauchy_type, check_corner_volume, check_dalpha, \
    check_equidistribution, check_frobenius, check_gexp, check_gl, \
    check_greene, check_infinite_volume, check_macmahon_box, \
    check_multivariate, check_qschur, check_superadditivity, check_uh_des, \
    check_uh_restricted, _run_entry, load_grids, run_all
from ppbij.cli import main
from ppbij.core import Partition, PlanePartition
from ppbij.enumeration import gen_matrix_images, gen_partitions_in_box, \
    gen_pp_box
from ppbij.poly import MultiPoly, Truncation, VarTable
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


# one case per instance of each mutant, named <mutant>-<check>, with the
# mode of a uh_restricted instance
MUTATION_CASES = [
    pytest.param(name, check, args, label, id="-".join(
        [name, check, *(a for a in args if isinstance(a, str))]))
    for name, mutant in MUTANTS.items()
    for check, args, label in mutant.instances]


class TestMutationSensitivity:
    @pytest.mark.parametrize("name, check, args, label", MUTATION_CASES)
    def test_mutant_is_caught(self, monkeypatch, name, check, args, label):
        apply(monkeypatch, MUTANTS[name])
        r = CHECKS[check](*args)
        assert r.passed is False
        assert r.first_diff is not None
        if label is not None:
            first = r.first_diff[0]
            assert (first.startswith(label) if label.endswith(":")
                    else first == label)

    @pytest.mark.parametrize("name", MUTANTS)
    def test_mutant_fails_the_small_grid(self, monkeypatch, name):
        # every check the mutant's instances name fails at least one
        # entry of the small grid
        apply(monkeypatch, MUTANTS[name])
        failed = {r.check_name for r in map(_run_entry, load_grids()["small"])
                  if not r.passed}
        assert {check for check, _, _ in MUTANTS[name].instances} <= failed

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

    def test_every_check_has_a_mutant(self):
        assert {check for mutant in MUTANTS.values()
                for check, _, _ in mutant.instances} == set(CHECKS)

    def test_every_product_series_side_has_the_short_mutant(self):
        calls = {name for name, check in CHECKS.items()
                 if "product_series(" in inspect.getsource(check)}
        short = MUTANTS["series_one_degree_short"].instances
        assert calls == {check for check, _, _ in short}


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

    def test_record_is_a_value(self):
        # --workers sends records back from the pool by pickling
        r = CheckResult("x", {"n": 2}, False, "a", "b", ("s:q", "1", "2"),
                        0.1, notes=["why"], digest={"lhs": "0", "rhs": "1"})
        assert pickle.loads(pickle.dumps(r)) == r
        assert r == CheckResult(
            check_name="x", parameters={"n": 2}, passed=False,
            lhs_summary="a", rhs_summary="b", first_diff=("s:q", "1", "2"),
            elapsed=0.1, notes=["why"], digest={"lhs": "0", "rhs": "1"})
        assert r != CheckResult("x", {"n": 2}, True, "a", "b", None, 0.1)
        fresh = [CheckResult("x", {}, True, "", "", None, 0.0)
                 for _ in range(2)]
        assert fresh[0].notes == [] and fresh[0].notes is not fresh[1].notes
        assert fresh[0].digest is None

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
