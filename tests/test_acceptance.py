"""End-to-end acceptance suite.

One test per acceptance criterion; every comparison is exact.  Stated
runtime budgets are asserted with generous slack only where a criterion
carries one, using wall-clock time around the relevant computation.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from ppbij import kernels
from ppbij.bijection import greene_shape, phi, phi_inverse, \
    word_to_strict_tableau
from ppbij.checks import check_cauchy_type, check_corner_volume, \
    check_dalpha, check_equidistribution, check_frobenius, check_gl, \
    check_greene, check_macmahon_box, check_multivariate, \
    check_superadditivity, check_uh_des, load_grids
from ppbij.core import NMatrix, Partition, PlanePartition, Word
from ppbij.enumeration import gen_partitions_in_box, gen_pp_box
from ppbij.poly import MultiPoly, VarTable
from ppbij.symfun import family_vars, g_combinatorial, g_jacobi_trudi, ones, \
    schur_specialized

GOLDEN_PP = PlanePartition([[4, 4, 2], [4, 2, 1], [2, 2]])
GOLDEN_MATRIX = NMatrix([[0, 1, 0, 1], [1, 0, 0, 1], [0, 2, 0, 0]])


def test_01_bijection_golden_example():
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        D = phi(GOLDEN_PP, 3, 4)
        back = phi_inverse(D)
        best = min(best, time.perf_counter() - t0)
    assert D == GOLDEN_MATRIX
    assert back == GOLDEN_PP
    assert best < 0.001


def test_02_roundtrip_suites():
    t0 = time.perf_counter()
    for pp in gen_pp_box(3, 3, 3):
        assert phi_inverse(phi(pp, 3, 3)) == pp
    for _, entries in kernels.matrices_weighted(3, 3, [[1] * 3] * 3, 5):
        D = NMatrix(entries, 3, 3)
        assert phi(phi_inverse(D), 3, 3) == D
    assert time.perf_counter() - t0 < 5.0


def test_03_macmahon_grid():
    t0 = time.perf_counter()
    for k in range(1, 4):
        for n in range(1, 4):
            for m in range(1, 4):
                assert check_macmahon_box(k, n, m).passed
    assert sum(1 for _ in gen_pp_box(2, 2, 2)) == 20
    assert time.perf_counter() - t0 < 10.0


def test_04_multivariate_identity():
    t0 = time.perf_counter()
    for n, m in ((1, 1), (2, 1), (2, 2)):
        assert check_multivariate(n, m, 4).passed
    assert time.perf_counter() - t0 < 30.0


def test_05_cauchy_and_shape_sum():
    t0 = time.perf_counter()
    assert check_cauchy_type(2, 2, 4).passed
    assert check_gl(2, 2, 3).passed
    assert time.perf_counter() - t0 < 30.0


def test_06_joint_distribution_and_slice():
    t0 = time.perf_counter()
    assert check_uh_des(2, 2, 5).passed
    assert check_equidistribution(4).passed
    # independent derivation of the t=1 slice up to degree 4
    coeffs = [0] * 5
    hooks = [[i + l - 1 for l in range(1, 6)] for i in range(1, 6)]
    for _, entries in kernels.matrices_weighted(5, 5, hooks, 4):
        coeffs[phi_inverse(NMatrix(entries, 5, 5)).up_hook_volume()] += 1
    assert coeffs == [1, 1, 3, 6, 13]
    assert time.perf_counter() - t0 < 30.0


def test_07_volume_example():
    pp = PlanePartition([[4, 4, 2], [4, 2, 2], [2, 2]])
    assert pp.up_hook_volume() == 20
    assert pp.volume() == 22


def test_08_corner_volume_identities():
    for k in range(1, 4):
        for n in range(1, 4):
            for m in range(1, 4):
                assert check_corner_volume(k, n, m, N=5).passed


def test_09_determinant_forms():
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                table = VarTable([("z", m)])
                zs = family_vars(table, "z")
                rho = Partition.rectangle(k, n)
                assert g_combinatorial(table, rho, zs) == \
                    schur_specialized(table, rho, ones(table, n - 1) + zs)
                total = MultiPoly.zero(table)
                for lam in gen_partitions_in_box(k, n):
                    total = total + g_combinatorial(table, lam, zs)
                assert total == \
                    schur_specialized(table, rho, ones(table, n) + zs)
    for m in (1, 2, 3):
        table = VarTable([("z", m)])
        zs = family_vars(table, "z")
        for lam in gen_partitions_in_box(3, 3):
            assert g_combinatorial(table, lam, zs) == \
                g_jacobi_trudi(table, lam, zs)


def test_10_strict_tableau_counts():
    for n in range(1, 5):
        for m in range(1, 5):
            assert check_frobenius(n, m).passed


def test_11_greene_analog():
    t0 = time.perf_counter()
    for n, m in ((4, 3), (5, 3), (6, 4)):
        assert check_greene(n, m).passed
    st = word_to_strict_tableau(Word.from_digits("132434", 4))
    assert st.shape() == Partition([4, 3, 3, 2])
    assert greene_shape(Word.from_digits("132434", 4)) == \
        Partition([4, 3, 3, 2])
    assert time.perf_counter() - t0 < 60.0


def test_12_descent_enumeration():
    r = check_dalpha(3, 2, 3, 4)
    assert r.passed
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            assert check_dalpha(3, n, m, 4).passed
    # the printed single-value bound is informational only
    assert any("matches" in note for note in r.notes)


def test_13_superadditivity_suite():
    r = check_superadditivity(2, 2, 2, scales=(1, 2, 3))
    assert r.passed
    assert r.first_diff is None


def test_14_mutation_sensitivity(monkeypatch):
    def flat(self):
        return sum(self.rows[i - 1][j - 1] for i, j in self.descent_set())

    monkeypatch.setattr(PlanePartition, "up_hook_volume", flat)
    r = check_uh_des(2, 2, 4)
    assert not r.passed
    assert r.first_diff is not None


GOLDEN_DIR = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def _golden_records(level: str) -> list[str]:
    """The golden records of a level: the lines of verify_full.jsonl at
    the entries that the level runs, in order.
    """
    grids = load_grids()
    lines = (GOLDEN_DIR / "verify_full.jsonl").read_text().splitlines()
    assert len(lines) == len(grids["full"])
    return [line for entry, line in zip(grids["full"], lines)
            if entry in grids[level]]


def _verify_all_matches_golden(level: str, *python_flags: str):
    """Run `verify all --json` at a level, under the given interpreter
    flags, and compare every record, minus its `elapsed`, with the
    level's golden records line by line.
    """
    # the child finds ppbij in this checkout's src whether or not the
    # package is installed or PYTHONPATH is set
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *python_flags, "-m", "ppbij.cli", "verify", "all",
         "--level", level, "--json"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = []
    for line in proc.stdout.splitlines():
        record = json.loads(line)
        del record["elapsed"]
        records.append(json.dumps(record))
    assert records == _golden_records(level)
    assert elapsed < 300.0


def test_15_full_small_suite_via_cli():
    _verify_all_matches_golden("small")
    # -O strips assert statements, so no result may depend on one
    _verify_all_matches_golden("small", "-O")


def test_16_full_suite_via_cli():
    _verify_all_matches_golden("full")
