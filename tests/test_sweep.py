"""Every off-grid tuple that `verify NAME` admits, up to a work budget,
passes; and the sweep catches a fault that both grids miss.
"""

import pytest

from ppbij import kernels
from ppbij.checks import _run_entry
from sweep import tuples

# 5,947 tuples, 3,925 of them with a zero parameter.  Listing them (the
# work of about 18,000 candidates) and running them takes 2.7-3.6 s on
# a 2 vCPU machine with Python 3.11.7.
BUDGET = 300


@pytest.fixture(scope="module")
def swept():
    return tuples(BUDGET)


def test_every_swept_tuple_passes(swept):
    failed = [(entry, record.first_diff or record.notes[:1])
              for entry, _ in swept
              for record in [_run_entry(entry)] if not record.passed]
    assert failed == []


def test_sweep_catches_rows_cut_past_8(monkeypatch, swept):
    # every row of an inverse image longer than 8 loses its last cell:
    # both grids pass under this fault, and uh_des 1,1,8 (work 30) fails
    # its window law
    inverse = kernels.phi_inverse_rows
    monkeypatch.setattr(kernels, "phi_inverse_rows", lambda *args: tuple(
        row[:-1] if len(row) > 8 else row for row in inverse(*args)))
    cheapest_first = sorted(swept, key=lambda item: item[1])
    assert any(not _run_entry(entry).passed for entry, _ in cheapest_first)
