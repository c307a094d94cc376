"""Tests of the benchmark's own machinery: the correctness gate trips on
an altered golden record, a pass's time is scaled by the reference
samples around each of its spans, the tracer's counts repeat and its
patches are undone, and run.py refuses to run without the package
sources.
"""

import contextlib
import copy
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _series_prefix(count):
    from ppbij import checks
    entries = workloads.series_entries(checks.load_grids()["full"])[:count]
    return [json.loads(json.dumps(workloads.run_series_entry(e).to_json()))
            for e in entries]


def test_series_gate_trips_on_one_altered_golden_record():
    golden = gate.load_golden("series-full")[:4]
    records = _series_prefix(4)
    assert gate.count_failed(records, golden) == (4, 0)
    altered = copy.deepcopy(golden)
    altered[2]["lhs"] += "; tampered"
    assert gate.count_failed(records, altered) == (4, 1)


def test_suite_gate_reads_cli_lines_and_counts_fail_and_missing():
    from ppbij import cli
    stream = workloads.ResultStream()
    with contextlib.redirect_stdout(stream):
        assert cli.main(["verify", "macmahon_box", "--k", "1", "--n", "1",
                         "--m", "1", "--json"]) == 0
    records = stream.records()
    assert stream.first_at is not None and len(records) == 1
    golden = gate.load_golden("suite-small")
    assert gate.count_failed(records, golden[:1]) == (1, 0)
    altered = copy.deepcopy(golden[:1])
    altered[0]["parameters"]["m"] = 2
    assert gate.count_failed(records, altered) == (1, 1)
    failing = [dict(records[0], **{"pass": False})]
    assert gate.count_failed(failing, golden[:1]) == (1, 1)
    assert gate.count_failed(records, golden[:3]) == (3, 2)


def test_bijection_gate_trips_on_altered_digest():
    wl = workloads.BijectionLarge()
    wl.prepare(7)
    wl.matrices, wl.words = wl.matrices[:3], wl.words[:5]
    wl.golden_digest = None
    first = wl.run_pass()
    assert (first.attempted, first.failed) == (8, 0)
    wl.golden_digest = wl.last_digest
    assert wl.run_pass().failed == 0
    wl.golden_digest = "0" * 64
    assert wl.run_pass().failed == 8


def test_bijection_gate_checks_volume_and_trace_without_a_digest():
    n, m, rows = workloads.make_bijection_inputs(7)[0][0]
    outputs = workloads.matrix_outputs(n, m, rows)
    assert workloads.matrix_ok(rows, outputs, gate.Digest())
    for k in (0, 1):
        stats = copy.deepcopy(outputs[3])
        stats[k] += 1
        broken = outputs[:3] + (stats,) + outputs[4:]
        assert not workloads.matrix_ok(rows, broken, gate.Digest())


def test_pass_clock_scales_each_span_by_the_samples_around_it():
    import gc
    with workloads.PassClock() as clock:
        time.sleep(workloads.REFERENCE_EVERY_S)
        gc.collect()
        clock.mark_first_result(time.perf_counter())
    assert clock._collect not in gc.callbacks
    assert len(clock.refs) == len(clock.spans) + 1 == 3
    r = reference.REFERENCE_S
    clock.spans, clock.refs, clock.first = [2.0, 3.0], [r, r, 3 * r], (1, 1.0)
    wall, first, raw = clock.times()
    assert math.isclose(wall, 3.5) and math.isclose(first, 2.5) and raw == 5.0
    with workloads.PassClock(scaled=False) as plain:
        gc.collect()
    assert plain.refs == [] and plain.times()[0] == plain.times()[2]


def _traced_counts():
    import ppbij.checks
    tracer = Tracer().install()
    try:
        ppbij.checks.CHECKS["frobenius"](n=2, m=2)
        ppbij.checks.check_gl(n=1, m=1, N=2)
    finally:
        tracer.uninstall()
    return tracer.metrics()


def test_tracer_counts_repeat_and_patches_are_undone():
    import ppbij.checks
    import ppbij.enumeration
    from ppbij.core import PlanePartition
    originals = (ppbij.checks.gen_pp_box, ppbij.enumeration.gen_pp_box,
                 ppbij.checks.CHECKS["gl"], PlanePartition.__init__)
    first, second = _traced_counts(), _traced_counts()
    for name in ("core.PlanePartition.init.count", "poly.MultiPoly.init.terms",
                 "enumeration.strict_tableaux.examined", "kernels.items"):
        assert first[name] == second[name] > 0, name
    assert 0 < first["enumeration.strict_tableaux.yield_ratio"] <= 1
    assert (ppbij.checks.gen_pp_box, ppbij.enumeration.gen_pp_box,
            ppbij.checks.CHECKS["gl"], PlanePartition.__init__) == originals


def test_run_fails_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
