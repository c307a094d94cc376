"""Correctness gate: compare a pass's outputs with the committed golden
records.

Grid entries (the suite workloads and series-full) are compared record by
record.  A golden record is a result's JSON without `elapsed`; an output
record matches when every key of its golden record holds the same value.
Keys the golden record does not name are ignored, so the program may add
fields such as timings without tripping the gate, but it may not change
or drop one.  A golden record has `"pass": true`, so a FAIL is a mismatch.

bijection-large is gated by a digest of all its outputs per seed.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_golden(name: str):
    with open(golden_path(name)) as fh:
        return json.load(fh)


def strip_elapsed(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "elapsed"}


def matches(record: dict | None, golden: dict) -> bool:
    return record is not None and all(
        k in record and record[k] == v for k, v in golden.items())


def count_failed(records: list[dict | None], golden: list[dict]) -> tuple[int, int]:
    """(attempted, failed) for records compared position by position with
    the golden list.  A missing record (None, or a short list) fails, and
    so does each record beyond the golden list.
    """
    attempted = max(len(records), len(golden))
    failed = 0
    for i in range(attempted):
        rec = records[i] if i < len(records) else None
        gold = golden[i] if i < len(golden) else None
        if gold is None or not matches(rec, gold):
            failed += 1
    return attempted, failed


class Digest:
    """Running SHA-256 over canonical JSON of each output."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, obj) -> None:
        self._h.update(json.dumps(obj, separators=(",", ":")).encode())
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()
