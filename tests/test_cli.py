"""The command-line interface: outputs, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ppbij import cli
from ppbij.bijection import is_strict_tableau, strict_tableau_to_word, \
    word_to_strict_tableau
from ppbij.checks import CHECKS, CheckResult, load_grids
from ppbij.cli import main
from ppbij.core import PlanePartition, Word

GOLDEN_PP = "[[4,4,2],[4,2,1],[2,2]]"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def small_golden() -> list[tuple[dict, str]]:
    """Each entry of the small level with its golden record: the line of
    verify_full.jsonl at that entry.
    """
    grids = load_grids()
    lines = (GOLDEN / "verify_full.jsonl").read_text().splitlines()
    return [(entry, line) for entry, line in zip(grids["full"], lines)
            if entry in grids["small"]]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def verify_argv(entry) -> list[str]:
    """`verify NAME` with the flag of each parameter of a grid entry that
    its check's spec gives one (none sets superadditivity's scales).
    """
    argv = ["verify", entry["check"]]
    for p in CHECKS[entry["check"]].params:
        value = entry["params"].get(p.key)
        if p.flag and value is not None:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            argv += [f"--{p.flag}", str(value)]
    return argv


class TestMap:
    def test_phi_golden(self, capsys):
        code, out, _ = run(capsys, "map", "phi", "--pp", GOLDEN_PP,
                           "--n", "3", "--m", "4")
        assert code == 0
        assert json.loads(out) == [[0, 1, 0, 1], [1, 0, 0, 1], [0, 2, 0, 0]]

    def test_inv_zero_matrix(self, capsys):
        code, out, _ = run(capsys, "map", "inv", "--matrix",
                           '{"rows":2,"cols":2,"data":[[0,0],[0,0]]}')
        assert code == 0
        assert json.loads(out) == []

    def test_inv_accepts_bare_rows(self, capsys):
        code, out, _ = run(capsys, "map", "inv", "--matrix", "[[1,0],[0,1]]")
        assert code == 0
        assert json.loads(out) == [[2, 1], [2]]

    def test_word_golden(self, capsys):
        code, out, _ = run(capsys, "map", "word", "--w", "132434", "--m", "4")
        assert code == 0
        assert json.loads(out) == [[6, 5, 3, 1], [6, 5, 3], [6, 5, 2], [6, 4]]

    def test_word_of_any_length(self, capsys):
        # a letter is a digit <= 9 and takes at most 9 steps, so the word
        # length is not capped: here 120 letters
        word = "3121323" * 17 + "1"
        code, out, _ = run(capsys, "map", "word", "--w", word, "--m", "3")
        assert code == 0
        st = PlanePartition(json.loads(out))
        assert is_strict_tableau(st, 120)
        assert strict_tableau_to_word(st, 3) == Word.from_digits(word, 3)

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "map", "phi", "--pp", GOLDEN_PP,
                           "--n", "2", "--m", "4")
        assert code == 1
        assert "domain" in err

    def test_malformed_input_exit_2(self, capsys):
        code, _, err = run(capsys, "map", "phi", "--pp", "nope",
                           "--n", "3", "--m", "4")
        assert code == 2
        assert "malformed" in err

    @pytest.mark.parametrize("argv, what", [
        (["phi", "--pp", "[[2.5, 1]]", "--n", "1", "--m", "3"],
         "not a plane partition"),
        (["phi", "--pp", '[[2, "1"]]', "--n", "1", "--m", "3"],
         "not a plane partition"),
        (["inv", "--matrix", "[[1.5]]"], "not an N-matrix"),
        (["inv", "--matrix", '{"rows": 1, "cols": 2, "data": [[1, 2.0]]}'],
         "not an N-matrix"),
    ])
    def test_non_integral_entry_exit_2(self, capsys, argv, what):
        # entries are read with operator.index: no float or numeric
        # string is rounded to an integer
        code, out, err = run(capsys, "map", *argv)
        assert code == 2
        assert out == ""
        assert what in err and "integer" in err

    @pytest.mark.parametrize("matrix", [
        '{"rows": 2.0, "cols": 2, "data": [[1, 0], [0, 1]]}',
        '{"rows": 2, "cols": "2", "data": [[1, 0], [0, 1]]}',
    ], ids=["float-rows", "string-cols"])
    def test_non_integral_dimension_exit_2(self, capsys, matrix):
        # the dimensions are read like the entries: refused as input, not
        # left to raise a TypeError inside the inverse map
        code, out, err = run(capsys, "map", "inv", "--matrix", matrix)
        assert code == 2
        assert out == ""
        assert "not an N-matrix" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["map", "word", "--m", "3"], ["greene", "--m", "3"]],
        ids=["map-word", "greene"])
    @pytest.mark.parametrize("digits", [
        "\u0661\u0663\u0662", "\uff11\uff13\uff12"],
        ids=["arabic-indic", "fullwidth"])
    def test_non_ascii_digits_exit_2(self, capsys, argv, digits):
        code, out, err = run(capsys, *argv, "--w", digits)
        assert code == 2
        assert out == ""
        assert "bad word" in err and "ASCII digits" in err

    @pytest.mark.parametrize("argv, message", [
        (["phi", "--pp", "[[1]]", "--n", "1", "--m", "1", "--w", "12"],
         "map phi takes no --w"),
        (["inv", "--matrix", '{"rows":1,"cols":1,"data":[[1]]}', "--pp",
          "[[1]]", "--w", "3"], "map inv takes no --pp, --w"),
        (["word", "--w", "12", "--m", "2", "--n", "2", "--input", "x.json"],
         "map word takes no --input, --n"),
    ], ids=["phi", "inv", "word"])
    def test_flags_it_would_ignore_are_refused(self, capsys, argv, message):
        code, out, err = run(capsys, "map", *argv)
        assert code == 2 and out == ""
        assert message in err

    def test_json_roundtrips_schema(self, capsys):
        code, out, _ = run(capsys, "map", "phi", "--pp", GOLDEN_PP,
                           "--n", "3", "--m", "4", "--json")
        data = json.loads(out)
        assert data == {"rows": 3, "cols": 4,
                        "data": [[0, 1, 0, 1], [1, 0, 0, 1], [0, 2, 0, 0]]}


class TestStats:
    def test_golden_table(self, capsys):
        code, out, _ = run(capsys, "stats", "--pp", "[[4,4,2],[4,2,2],[2,2]]",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert data["volume"] == 22
        assert data["up_hook_volume"] == 20

    def test_corner_volume_golden(self, capsys):
        _, out, _ = run(capsys, "stats", "--pp", GOLDEN_PP, "--json")
        assert json.loads(out)["corner_volume"] == 15

    def test_empty_all_zero(self, capsys):
        code, out, _ = run(capsys, "stats", "--pp", "[]", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["volume"] == 0 and data["shape"] == []

    def test_text_output_deterministic(self, capsys):
        _, out1, _ = run(capsys, "stats", "--pp", GOLDEN_PP)
        _, out2, _ = run(capsys, "stats", "--pp", GOLDEN_PP)
        assert out1 == out2
        assert out1.splitlines()[1] == "volume 21"


class TestEnumerate:
    def test_box_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "box", "2", "2", "2")
        assert code == 0 and out.strip() == "20"

    def test_box_gf(self, capsys):
        code, out, _ = run(capsys, "enumerate", "box", "1", "1", "1",
                           "--gf", "q", "--stat", "volume")
        assert code == 0 and out.strip() == "1 + q"

    @pytest.mark.parametrize("argv, message", [
        (["box", "1", "1", "1", "--gf", "q"], "--gf needs --stat"),
        (["box", "1", "1", "1", "--stat", "volume"], "--stat needs --gf"),
        (["box", "1", "1", "1", "--gf", "q", "--stat", "volume", "--list"],
         "not a --list"),
        (["words", "--n", "2", "--m", "2", "--gf", "q", "--stat", "volume"],
         "enumerate words takes no --gf"),
        # an empty variable name printed `1 + ` for the box 1 1 1
        (["box", "1", "1", "1", "--gf", "", "--stat", "volume"],
         "--gf needs a variable name"),
        # each family reads its own options: the box printed 20, the
        # 2x2x2 count, and the words 4
        (["box", "2", "2", "2", "--n", "3", "--m", "3", "--shape", "1"],
         "enumerate box takes no --shape, --m, --n"),
        (["box", "2", "2", "2", "--n", "0"], "enumerate box takes no --n"),
        (["shape", "--shape", "2,1", "--m", "2", "--n", "1", "--list"],
         "enumerate shape takes no --n"),
        (["st", "2", "--shape", "2,1", "--n", "3", "--m", "2"],
         "enumerate st takes no dimensions, --m"),
        (["words", "5", "5", "5", "--n", "2", "--m", "2"],
         "enumerate words takes no dimensions"),
        (["words", "--n", "2", "--m", "2", "--shape", "1", "--list"],
         "enumerate words takes no --shape"),
    ])
    def test_flags_it_would_ignore_are_refused(self, capsys, argv, message):
        code, out, err = run(capsys, "enumerate", *argv)
        assert code == 2 and out == ""
        assert message in err

    def test_strict_tableaux(self, capsys):
        code, out, _ = run(capsys, "enumerate", "st", "--shape", "2,1",
                           "--n", "3")
        assert code == 0 and out.strip() == "2"

    def test_strict_tableaux_listing_golden(self, capsys):
        code, out, _ = run(capsys, "enumerate", "st", "--shape", "3,2",
                           "--n", "4", "--list")
        assert code == 0
        assert out == ("[[4, 3, 2], [4, 1]]\n"
                       "[[4, 3, 1], [4, 2]]\n"
                       "[[4, 2, 1], [3, 2]]\n")

    def test_words_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "words", "--n", "2",
                           "--m", "2", "--list")
        assert code == 0 and out == "11\n12\n21\n22\n"
        code, out, _ = run(capsys, "enumerate", "words", "--n", "2",
                           "--m", "2", "--list", "--json")
        assert code == 0
        assert json.loads(out) == [[1, 1], [1, 2], [2, 1], [2, 2]]

    def test_listing_sorted_stable(self, capsys):
        _, out1, _ = run(capsys, "enumerate", "box", "1", "2", "1", "--list")
        _, out2, _ = run(capsys, "enumerate", "box", "1", "2", "1", "--list")
        assert out1 == out2
        assert [json.loads(line) for line in out1.splitlines()] == \
            [[], [[1]], [[1], [1]]]

    def test_caps_enforced(self, capsys):
        code, _, err = run(capsys, "enumerate", "box", "6", "2", "2")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("argv, message", [
        # st's --n is capped at 12, as every --N, but named n
        (["enumerate", "st", "--shape", "2,1", "--n", "13"],
         "n=13 exceeds the cap 12"),
        (["enumerate", "st", "--shape", "2,1", "--n", "-1"],
         "n=-1 is negative"),
        # 13 is the weight of --alpha, not a --N that dalpha does not take
        (["dalpha", "--alpha", "7,6", "--n", "1", "--m", "2"],
         "alpha's weight=13 exceeds the cap 12"),
    ])
    def test_cap_messages_name_what_they_cap(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err and "N=" not in err

    @pytest.mark.parametrize("argv", [
        ["enumerate", "box", "5", "5", "5"],
        ["enumerate", "box", "4", "4", "5"],
        ["verify", "qschur", "--k", "5", "--n", "5", "--m", "5"],
        ["dalpha", "--alpha", "1,1,1,1,1", "--k", "5", "--n", "5",
         "--m", "5"],
        ["enumerate", "words", "--n", "10", "--m", "5"],
        ["verify", "superadditivity", "--k", "3", "--n", "3", "--m", "3"],
        ["verify", "uh_restricted", "--mode", "entries", "--bound", "2000",
         "--N", "2"],
        # negative parameters are rejected, with or without the caps
        ["verify", "gexp", "--shape", "2,1", "--N", "-3"],
        ["enumerate", "box", "-1", "2", "2"],
        ["enumerate", "box", "-1", "2", "2", "--unsafe-no-caps"],
        ["verify", "infinite_volume", "--N", "-1", "--unsafe-no-caps"],
        ["verify", "uh_restricted", "--mode", "rows", "--bound", "-1",
         "--N", "3"],
        ["verify", "multivariate", "--n", "-1", "--m", "2", "--N", "3",
         "--unsafe-no-caps"],
        ["enumerate", "words", "--n", "-2", "--m", "3"],
        # the work of gl and cauchy_type is the plane partitions of the
        # enlarged window's box; each of these ran past 30 s uncapped
        ["verify", "gl", "--n", "4", "--m", "4", "--N", "8"],
        ["verify", "cauchy_type", "--n", "5", "--m", "5", "--N", "10"],
        # the fillings of a shape lie in its bounding box
        ["enumerate", "shape", "--shape", "5,5,5,5,5", "--m", "5"],
        # 2,000,000 insertions at row 1 would build a 2,000,000-cell row
        ["map", "inv", "--matrix", "[[2000000]]"],
        # 600,000 insertions at row 2 add up to 1,200,000 cells
        ["map", "inv", "--matrix", "[[0], [600000]]"],
        # multivariate enumerates every 5x5 matrix of entry sum <= 7:
        # C(32, 7) = 3,365,856 of them
        ["verify", "multivariate", "--n", "5", "--m", "5", "--N", "12"],
        # 453,619 matrices of sum(l * d[i][l]) <= 13
        ["verify", "corner_volume", "--k", "1", "--n", "5", "--m", "5",
         "--N", "12"],
        # the 4x4 matrices of entry sum <= 12: C(28, 12) = 30,421,755
        ["verify", "dalpha", "--k", "4", "--n", "4", "--m", "4", "--N", "12"],
        # the matrices of column sums (3, 3, 3, 3): 35^4 = 1,500,625
        ["dalpha", "--alpha", "3,3,3,3", "--n", "5", "--m", "4"],
        # a shape has at most len(lam)^n strict tableaux: 3^12, 5^10,
        # 4^12 and 5^12 (2.4 s, 3.3 s and over 20 s twice, uncapped)
        ["enumerate", "st", "--shape", "5,5,5", "--n", "12"],
        ["enumerate", "st", "--shape", "5,5,5,5,5", "--n", "10"],
        ["enumerate", "st", "--shape", "5,5,5,5", "--n", "12"],
        ["enumerate", "st", "--shape", "5,5,5,5,5", "--n", "12"],
    ])
    def test_box_size_cap(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("argv, out", [
        (["verify", "gl", "--n", "2", "--m", "2", "--N", "5"], "1/1"),
        (["verify", "cauchy_type", "--n", "2", "--m", "2", "--N", "6"],
         "1/1"),
        (["enumerate", "shape", "--shape", "2,1", "--m", "2"], "5"),
        # C(21, 5) = 20,349 matrices
        (["verify", "multivariate", "--n", "4", "--m", "4", "--N", "8"],
         "1/1"),
        # gexp's variables are left to the work cap
        (["verify", "gexp", "--shape", "2,2", "--N", "9"], "1/1"),
    ])
    def test_work_caps_admit_small_instances(self, capsys, argv, out):
        code, got, _ = run(capsys, *argv)
        assert code == 0 and got.splitlines()[-1].startswith(out)

    def test_word_count_cap_admits_5_pow_8(self, capsys):
        code, out, _ = run(capsys, "enumerate", "words", "--n", "8",
                           "--m", "5")
        assert code == 0 and out.strip() == "390625"

    def test_caps_escape_hatch(self, capsys):
        code, out, _ = run(capsys, "enumerate", "box", "6", "1", "1",
                           "--unsafe-no-caps")
        assert code == 0 and out.strip() == "7"

    def test_uncapped_box_past_the_recursion_limit(self, capsys):
        # a row of 1,200 cells: the row kernel does not recurse per cell
        code, out, _ = run(capsys, "enumerate", "box", "1200", "1", "1",
                           "--unsafe-no-caps")
        assert code == 0 and out.strip() == "1201"


class TestPrintedEntryCaps:
    """map phi prints an n x m matrix, stats m column counts and greene
    m tail lengths: each count is capped before anything is built.
    """

    @pytest.mark.parametrize("argv", [
        ["stats", "--pp", "[[1]]", "--m", "1000000000"],
        ["greene", "--w", "1", "--m", "1000000000"],
        ["map", "phi", "--pp", "[[1]]", "--n", "1", "--m", "1000000000"],
        ["map", "phi", "--pp", "[[1]]", "--n", "1000000000", "--m", "1"],
    ])
    def test_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and "cap" in err

    def test_stats_caps_the_largest_entry(self, capsys):
        # without --m the column counts run up to the largest entry
        code, _, err = run(capsys, "stats", "--pp", "[[1000000000]]")
        assert code == 2 and "cap" in err


class TestDalpha:
    def test_boxed(self, capsys):
        code, out, _ = run(capsys, "dalpha", "--alpha", "1,1",
                           "--k", "2", "--n", "2", "--m", "2")
        assert code == 0 and out.strip() == "4"

    def test_unbounded(self, capsys):
        code, out, _ = run(capsys, "dalpha", "--alpha", "2,0,0",
                           "--n", "3", "--m", "3")
        assert code == 0 and out.strip() == "6"

    def test_unbounded_past_the_recursion_limit(self, capsys):
        # the compositions of 1 into 1,100 parts, one per row of the
        # column-sum matrix, are listed without recursing per part
        code, out, _ = run(capsys, "dalpha", "--alpha", "1", "--n", "1100",
                           "--m", "1", "--unsafe-no-caps")
        assert code == 0 and out.strip() == "1100"

    def test_alpha_length_checked(self, capsys):
        code, _, err = run(capsys, "dalpha", "--alpha", "1",
                           "--n", "2", "--m", "2")
        assert code == 2

    def test_negative_alpha_rejected(self, capsys):
        code, _, err = run(capsys, "dalpha", "--alpha=-1,2",
                           "--n", "2", "--m", "2")
        assert code == 2 and "negative" in err


class TestGreene:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "greene", "--w", "132434", "--m", "4",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert data["shape"] == [4, 3, 3, 2]
        assert data["L"] == [4, 3, 3, 2]

    def test_word_of_any_length(self, capsys):
        # 120 letters; the cap is on m, the number of tail lengths
        word = "3121323" * 17 + "1"
        code, out, _ = run(capsys, "greene", "--w", word, "--m", "3",
                           "--json")
        assert code == 0
        data = json.loads(out)
        shape = word_to_strict_tableau(Word.from_digits(word, 3)).shape()
        assert data["shape"] == list(shape.parts)
        # L_1 reads the 3s alone
        assert data["L"] == data["shape"] == [52, 51, 51]
        assert data["L"][2] == word.count("3")


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "macmahon_box",
                           "--k", "2", "--n", "2", "--m", "2")
        assert code == 0
        assert out.startswith("pass macmahon_box")

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "nope")
        assert code == 2

    def test_n_cap_names_n(self, capsys):
        # n is a box side here, not a word length
        code, _, err = run(capsys, "verify", "macmahon_box", "--k", "1",
                           "--n", "11", "--m", "1")
        assert code == 2
        assert "n=11 exceeds the cap 10" in err
        assert "word" not in err

    def test_missing_params_reported(self, capsys):
        code, _, err = run(capsys, "verify", "macmahon_box", "--k", "2")
        assert code == 2
        assert "check 'macmahon_box' needs: --m, --n\n" in err

    @pytest.mark.parametrize("argv, flags", [
        # the parameters lam and N_max are set by --shape and --N
        (["gexp"], "--shape"),
        (["dalpha", "--k", "2", "--n", "2", "--m", "2"], "--N"),
        (["uh_restricted", "--N", "3"], "--bound, --mode"),
    ])
    def test_missing_params_name_their_flags(self, capsys, argv, flags):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert f"check {argv[0]!r} needs: {flags}\n" in err

    @pytest.mark.parametrize("argv, message", [
        (["macmahon_box", "--k", "1", "--n", "1", "--m", "1", "--N", "5"],
         "verify macmahon_box takes no --N"),
        (["macmahon_box", "--k", "1", "--n", "1", "--m", "1", "--N", "5",
          "--shape", "9,9"], "verify macmahon_box takes no --N, --shape"),
        # the shape is refused before it is parsed
        (["greene", "--n", "3", "--m", "3", "--shape", "x"],
         "verify greene takes no --shape"),
        (["gexp", "--shape", "2,1", "--mode", "rows"],
         "verify gexp takes no --mode"),
        (["all", "--k", "3"], "verify all takes no --k"),
        (["all", "--level", "full", "--bound", "2", "--shape", "1"],
         "verify all takes no --bound, --shape"),
        (["macmahon_box", "--k", "1", "--n", "1", "--m", "1", "--level",
          "full", "--workers", "3"],
         "verify macmahon_box takes no --level, --workers"),
        (["greene", "--n", "3", "--m", "3", "--level", "small"],
         "verify greene takes no --level"),
        (["gexp", "--shape", "2,1", "--workers", "1"],
         "verify gexp takes no --workers"),
    ])
    def test_flags_it_would_ignore_are_refused(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("shape", ["6,6,6", "3,3,3"])
    def test_gexp_caps(self, capsys, shape):
        # 3,3,3 has every part within the caps; its 9 variables are
        # refused by the work cap
        code, _, err = run(capsys, "verify", "gexp", "--shape", shape)
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("N, message", [
        ("13", "N=13 exceeds the cap 12"),
        ("-3", "N=-3 is negative"),
    ])
    def test_gexp_N_is_checked_as_every_N(self, capsys, N, message):
        code, _, err = run(capsys, "verify", "gexp", "--shape", "2,1",
                           "--N", N)
        assert code == 2 and message in err

    @pytest.mark.parametrize("entry", [
        e for level in ("small", "full") for e in load_grids()[level]],
        ids=lambda e: e["check"])
    def test_caps_admit_every_grid_entry(self, capsys, monkeypatch, entry):
        argv = verify_argv(entry)
        ran = []

        def stub(e):
            ran.append(e)
            return CheckResult(e["check"], e["params"], True, "", "", None,
                               0.0)

        monkeypatch.setattr(cli, "_run_entry", stub)
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert len(ran) == 1

    @pytest.mark.parametrize("entry, golden", [
        pytest.param(entry, golden, id=entry["check"])
        for entry, golden in small_golden()])
    def test_prints_the_record_of_verify_all(self, capsys, entry, golden):
        # the flags its spec names give verify NAME the record that
        # verify all writes for the grid entry
        code, out, _ = run(capsys, *verify_argv(entry), "--json")
        record = json.loads(out)
        del record["elapsed"]
        assert code == 0 and json.dumps(record) == golden

    def test_raising_check_is_a_fail_record(self, capsys, monkeypatch):
        # one check, like verify all, reports an exception as a FAIL
        def boom(word):
            raise RuntimeError("injected")

        monkeypatch.setattr("ppbij.checks.greene_shape", boom)
        code, out, err = run(capsys, "verify", "greene", "--n", "2",
                             "--m", "2")
        assert code == 1 and err == ""
        assert out.startswith("FAIL greene n=2 m=2")
        assert "RuntimeError: injected" in out

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "gl", "--n", "2", "--m", "2",
                           "--N", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["check"] == "gl" and data["pass"] is True


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_both_input_sources_rejected(self, capsys):
        code, _, err = run(capsys, "stats", "--pp", "[]", "--input", "x.json")
        assert code == 2

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN_PP))
        code, out, _ = run(capsys, "stats", "--json")
        assert code == 0
        assert json.loads(out)["volume"] == 21


    @pytest.mark.parametrize("argv, message", [
        # a zero before a part, or an empty item, used to be dropped
        (["verify", "gexp", "--shape", "3,0,1"], "bad shape '3,0,1'"),
        (["enumerate", "shape", "--shape", "0,2", "--m", "2", "--list"],
         "bad shape '0,2'"),
        (["verify", "gexp", "--shape", "3,,1"], "bad shape '3,,1'"),
        (["enumerate", "st", "--shape", "2,1,", "--n", "3"],
         "bad shape '2,1,'"),
        (["dalpha", "--alpha", "1,,1", "--n", "2", "--m", "2"],
         "bad vector '1,,1'"),
    ])
    def test_bad_comma_list_is_refused(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err

    def test_empty_shape_is_the_empty_partition(self, capsys):
        code, out, _ = run(capsys, "enumerate", "shape", "--shape", "",
                           "--m", "2")
        assert code == 0 and out.strip() == "1"


class TestStartUp:
    def test_imports_only_what_a_run_executes(self):
        # -S: a site hook (a .pth file) that imports typing at start-up
        # would otherwise hide a module that ppbij itself loads
        code = ("import sys, ppbij.checks, ppbij.cli; "
                "ppbij.checks.load_grids(); print(*sorted(sys.modules))")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "ppbij.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "typing",
                             "importlib.resources", "fractions", "decimal",
                             "numbers"}


SUBCOMMANDS = ["map", "stats", "enumerate", "dalpha", "greene", "verify"]


class TestParser:
    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["--help"], ["-h", "verify"],
        *([name, "--help"] for name in SUBCOMMANDS),
        ["map"], ["verify"], ["verify", "nope"],
        ["verify", "all", "--bogus"], ["verify", "all", "extra"],
        ["verify", "all", "--level", "huge"]],
        ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_output_of_the_full_parser(self, capsys, monkeypatch, argv):
        # argparse wraps help and usage to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        got = run(capsys, *argv)
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda _: build([]))
        assert got == run(capsys, *argv)

    def test_builds_only_the_named_subcommand(self):
        def names(parser):
            sub, = (a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
            return list(sub.choices)

        assert names(cli._build_parser(["verify", "all"])) == ["verify"]
        assert names(cli._build_parser([])) == SUBCOMMANDS
        assert names(cli._build_parser(["-h", "verify"])) == SUBCOMMANDS

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        seen = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser",
                            lambda argv: seen.append(argv) or build(argv))
        monkeypatch.setattr(sys, "argv", ["ppbij", "verify", "nope"])
        assert main() == 2
        assert seen == [["verify", "nope"]]
        assert "unknown check 'nope'" in capsys.readouterr().err
