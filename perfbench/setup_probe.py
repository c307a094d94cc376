"""One set-up sample: import ppbij.cli and ppbij.checks and load the
verification grids in a fresh interpreter; print the seconds it took,
scaled to the reference speed by reference samples taken in the same
interpreter just before and just after (see reference.py).

run.py starts this several times per run and reports the median as
setup_s.  It expects ppbij on PYTHONPATH.
"""

import time

import reference

SAMPLES = 5

before = [reference.sample() for _ in range(SAMPLES)]
t0 = time.perf_counter()
import ppbij.checks  # noqa: E402
import ppbij.cli  # noqa: E402,F401

ppbij.checks.load_grids()
took = time.perf_counter() - t0
after = [reference.sample() for _ in range(SAMPLES)]
print(repr(took * reference.scale(before + after)))
