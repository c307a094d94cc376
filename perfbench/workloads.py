"""The three benchmark workloads.

Each workload prepares its inputs once (`prepare`) and then runs any
number of identical passes (`run_pass`).  A pass returns its time and
the time to its first result (both scaled to a reference speed, and the
raw time; see PassClock), how many operations it attempted and how many
failed the correctness gate, and the per-check busy time taken from the
results' `elapsed` fields.

The first result is the first result line the CLI writes (suite-small).
series-full and bijection-large call the library and collect their
results until the pass ends, so there the first result is the last and
first_result_s equals wall_s.

Calls into the package go through module attributes looked up at call
time (`bijection.phi_inverse(...)`, not a name imported once), so the
tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import time
from dataclasses import dataclass, field

import gate
import reference
from reference import REFERENCE_S

SMALL_ARGV = ["verify", "all", "--level", "small", "--json", "--workers", "1"]

# series-full runs the full-grid entries of these checks, in grid order.
SERIES_CHECKS = ("macmahon_box", "infinite_volume", "qschur", "multivariate",
                 "cauchy_type", "gl", "uh_des", "equidistribution",
                 "uh_restricted", "corner_volume", "gexp")

# Full-grid entries left out of every workload.  gexp (3,3,1) takes ~50 s
# and frobenius n=5 m=4 ~254 s per call, so repeating them for every run
# would take hours.  gl n=3 m=3 N=5 (12-17 s) and macmahon_box 4,4,4
# (3.5-5 s, a 145 MB heap) are left out so that a pass takes about a
# second: with them a pass took 17-21 s, two passes filled a run, and
# wall_s spread by 23-33% between runs on a shared 2-vCPU virtual
# machine.  Their costs come from mechanisms that kept entries also use: MultiPoly construction and arithmetic (gexp (3,2), gl 2,2,5,
# qschur, corner_volume), PlanePartition construction (the smaller boxes
# here, and frobenius n=4 m=4 in suite-small), and the strict-tableau
# filter (frobenius n=4 m=4).
EXCLUDED_ENTRIES = (
    {"check": "gexp", "params": {"lambda": [3, 3, 1]}},
    {"check": "frobenius", "params": {"n": 5, "m": 4}},
    {"check": "gl", "params": {"n": 3, "m": 3, "N": 5}},
    {"check": "macmahon_box", "params": {"k": 4, "n": 4, "m": 4}},
)

# A reference sample is taken at most this often during a pass.
REFERENCE_EVERY_S = 0.025

# bijection-large input sizes.
N_MATRICES = 250
N_WORDS = 500
MATRIX_DIMS = (12, 20)
MATRIX_MAX_ENTRY = 3
WORD_LENGTHS = (60, 120)
WORD_ALPHABETS = (3, 9)


class PassClock:
    """Times one pass, and the machine's speed while it runs.

    A reference sample (reference.sample) is taken before the pass, after
    it, and at the first start of a garbage collection once
    REFERENCE_EVERY_S of the pass have gone by since the last sample (the
    workloads start a collection every 4-26 ms).  The pass's time is cut
    into spans at the samples, and each span is scaled by REFERENCE_S over
    the mean of the two samples around it.  The samples' own time is left
    out of the pass.

    With scaled=False (the traced run) no sample is taken, and the scaled
    times equal the raw ones.
    """

    def __init__(self, scaled: bool = True):
        self.scaled = scaled
        self.spans: list[float] = []  # program time between samples
        self.refs: list[float] = []  # refs[k] and refs[k+1] bound spans[k]
        self.first: tuple[int, float] | None = None

    def __enter__(self) -> "PassClock":
        if self.scaled:
            self.refs.append(reference.sample())
            gc.callbacks.append(self._collect)
        self._since = time.perf_counter()
        return self

    def _collect(self, phase: str, info: dict) -> None:
        if phase == "start":
            now = time.perf_counter()
            if now - self._since >= REFERENCE_EVERY_S:
                self.spans.append(now - self._since)
                self.refs.append(reference.sample())
                self._since = time.perf_counter()

    def mark_first_result(self, at: float) -> None:
        if self.first is None:
            self.first = (len(self.spans), at - self._since)

    def __exit__(self, *exc) -> None:
        self.spans.append(time.perf_counter() - self._since)
        if self.scaled:
            gc.callbacks.remove(self._collect)
            self.refs.append(reference.sample())

    def _scales(self) -> list[float]:
        if not self.scaled:
            return [1.0] * len(self.spans)
        return [2 * REFERENCE_S / (a + b)
                for a, b in zip(self.refs, self.refs[1:])]

    def times(self) -> tuple[float, float, float]:
        """(scaled seconds of the pass, scaled seconds to the first
        result, raw seconds of the pass).  Without a first result mark the
        first result is the end of the pass.
        """
        scaled = [t * k for t, k in zip(self.spans, self._scales())]
        wall = sum(scaled)
        if self.first is None:
            return wall, wall, sum(self.spans)
        k, offset = self.first
        first = sum(scaled[:k]) + offset * self._scales()[k]
        return wall, first, sum(self.spans)


@dataclass
class PassResult:
    wall_s: float  # scaled to the reference speed (see PassClock)
    first_result_s: float  # likewise
    raw_s: float  # wall-clock seconds, samples left out
    attempted: int
    failed: int
    busy: dict[str, float] = field(default_factory=dict)
    note: str = ""


def _busy(records) -> dict[str, float]:
    busy: dict[str, float] = {}
    for rec in records:
        if rec is not None and "elapsed" in rec:
            busy[rec["check"]] = busy.get(rec["check"], 0.0) + rec["elapsed"]
    return busy


def _is_result_line(line: str) -> bool:
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return isinstance(obj, dict) and "check" in obj


class ResultStream(io.StringIO):
    """A stdout replacement that notes when the first result line is
    complete, and marks it on `clock` if one is given.
    """

    def __init__(self, clock: PassClock | None = None):
        super().__init__()
        self.clock = clock
        self.first_at: float | None = None
        self._pending = ""

    def write(self, s: str) -> int:
        if self.first_at is None:
            self._pending += s
            while self.first_at is None and "\n" in self._pending:
                line, self._pending = self._pending.split("\n", 1)
                if _is_result_line(line):
                    self.first_at = time.perf_counter()
                    if self.clock is not None:
                        self.clock.mark_first_result(self.first_at)
        return super().write(s)

    def records(self) -> list[dict]:
        out = []
        for line in self.getvalue().splitlines():
            if _is_result_line(line):
                out.append(json.loads(line))
        return out


class SuiteSmall:
    """`ppbij verify all --level small --json --workers 1` through
    `ppbij.cli.main`.
    """

    name = "suite-small"

    def prepare(self, seed: int) -> None:
        self.golden = gate.load_golden("suite-small")

    def run_pass(self, scaled: bool = True) -> PassResult:
        from ppbij import cli
        note = ""
        with PassClock(scaled) as clock:
            stream = ResultStream(clock)
            try:
                with contextlib.redirect_stdout(stream):
                    cli.main(SMALL_ARGV)
            except Exception as exc:  # the whole run counts as failed
                note = f"verify all raised {exc!r}"
        records = stream.records()
        attempted, failed = gate.count_failed(records, self.golden)
        return PassResult(*clock.times(), attempted, failed, _busy(records),
                          note)


def series_entries(full_grid: list[dict]) -> list[dict]:
    def excluded(entry):
        return any(entry["check"] == x["check"] and all(
            entry["params"].get(k) == v for k, v in x["params"].items())
            for x in EXCLUDED_ENTRIES)
    return [e for e in full_grid
            if e["check"] in SERIES_CHECKS and not excluded(e)]


def run_series_entry(entry: dict):
    from ppbij import checks, core
    params = dict(entry["params"])
    if entry["check"] == "gexp":
        params["lam"] = core.Partition(params.pop("lambda"))
    return checks.CHECKS[entry["check"]](**params)


class SeriesFull:
    """Full-grid entries of the series checks, called through
    `checks.CHECKS` in grid order.
    """

    name = "series-full"

    def prepare(self, seed: int) -> None:
        from ppbij import checks
        self.entries = series_entries(checks.load_grids()["full"])
        self.golden = gate.load_golden("series-full")

    def run_pass(self, scaled: bool = True) -> PassResult:
        results = []
        errors = []
        with PassClock(scaled) as clock:
            for entry in self.entries:
                try:
                    results.append(run_series_entry(entry))
                except Exception as exc:  # counted as a failed entry
                    results.append(None)
                    errors.append(
                        f"{entry['check']} {entry['params']}: {exc!r}")
        records = [None if r is None else json.loads(json.dumps(r.to_json()))
                   for r in results]
        attempted, failed = gate.count_failed(records, self.golden)
        return PassResult(*clock.times(), attempted, failed, _busy(records),
                          "; ".join(errors[:3]))


def make_bijection_inputs(seed: int):
    """Matrices (n, m, rows) and words (m, letters).  Sizes follow a
    fixed schedule, so every seed does comparable work; entries and
    letters are drawn from the seed.
    """
    rng = random.Random(seed)
    lo, hi = MATRIX_DIMS
    span = hi - lo + 1
    matrices = []
    for k in range(N_MATRICES):
        n, m = lo + k % span, lo + (k // span) % span
        matrices.append((n, m, [[rng.randint(0, MATRIX_MAX_ENTRY)
                                 for _ in range(m)] for _ in range(n)]))
    words = []
    lo_a, hi_a = WORD_ALPHABETS
    lo_l, hi_l = WORD_LENGTHS
    for k in range(N_WORDS):
        m = lo_a + k % (hi_a - lo_a + 1)
        length = lo_l + (k * 7) % (hi_l - lo_l + 1)
        words.append((m, [rng.randint(1, m) for _ in range(length)]))
    return matrices, words


def matrix_outputs(n: int, m: int, rows):
    """phi_inverse, the public JSON constructor, the statistics and phi
    on one matrix.
    """
    from ppbij import bijection, core
    D = core.NMatrix(rows, n, m)
    pp = bijection.phi_inverse(D)
    back = core.PlanePartition.from_json(pp.to_json())
    stats = [back.volume(), back.trace(), back.descent_count(),
             back.up_hook_volume(), back.corner_volume(),
             list(back.column_counts(m)), list(back.row_descent_counts())]
    return D, pp, back, stats, bijection.phi(back, n, m)


def matrix_ok(rows, outputs, digest: gate.Digest) -> bool:
    """Both round trips hold, the volume and the trace match the sums
    over the plane partition's JSON rows, and the other statistics match
    their linear forms in the matrix entries d[i][l].
    """
    D, pp, back, stats, again = outputs
    pp_rows = pp.to_json()
    digest.add([pp_rows, stats])
    cells = [(i, l, d) for i, row in enumerate(rows, 1)
             for l, d in enumerate(row, 1)]
    expected = [
        sum(map(sum, pp_rows)),
        sum(row[i] for i, row in enumerate(pp_rows) if i < len(row)),
        sum(d for _, _, d in cells),
        sum(d * (i + l - 1) for i, l, d in cells),
        sum(d * l for _, l, d in cells),
        [sum(col) for col in zip(*rows)],
        [sum(row) for row in rows],
    ]
    return back == pp and again == D and stats == expected


def word_outputs(m: int, letters):
    """Word -> strict tableau -> word, and the Greene-type shape."""
    from ppbij import bijection, core
    w = core.Word(letters, m)
    st = bijection.word_to_strict_tableau(w)
    return (w, st, bijection.strict_tableau_to_word(st, m),
            bijection.greene_shape(w), st.shape())


def word_ok(outputs, digest: gate.Digest) -> bool:
    w, st, back, greene, shape = outputs
    digest.add([st.to_json(), list(greene.parts)])
    return back == w and shape == greene


class BijectionLarge:
    """Large seeded inputs through the validated public path."""

    name = "bijection-large"

    def prepare(self, seed: int) -> None:
        self.matrices, self.words = make_bijection_inputs(seed)
        self.golden_digest = gate.load_golden("bijection-large").get(str(seed))

    def run_pass(self, scaled: bool = True) -> PassResult:
        mats: list = []
        words: list = []
        with PassClock(scaled) as clock:
            for n, m, rows in self.matrices:
                try:
                    mats.append(matrix_outputs(n, m, rows))
                except Exception:  # counted as a failed input
                    mats.append(None)
            for m, letters in self.words:
                try:
                    words.append(word_outputs(m, letters))
                except Exception:  # counted as a failed input
                    words.append(None)

        digest = gate.Digest()
        failed = sum(out is None or not matrix_ok(rows, out, digest)
                     for (_, _, rows), out in zip(self.matrices, mats))
        failed += sum(out is None or not word_ok(out, digest)
                      for out in words)
        attempted = len(self.matrices) + len(self.words)
        got = digest.hexdigest()
        if self.golden_digest is None:
            note = ("no golden digest for this seed; round trips and "
                    "statistics checked")
        elif got != self.golden_digest:
            note = f"digest {got[:16]} != golden {self.golden_digest[:16]}"
            failed = attempted
        else:
            note = "digest matches golden"
        self.last_digest = got
        return PassResult(*clock.times(), attempted, failed, {}, note)


WORKLOADS = {w.name: w for w in (SuiteSmall, SeriesFull, BijectionLarge)}
