"""The output gate: compare an operation's output with its recorded
reference, and count the distance claims the output shows as verified.

Rules:
- table rows: same number of rows, and every field of the reference row
  (text and all numbers) equal; keys the reference lacks are ignored;
- verify records: same (q, m, check, status) one by one, so details such as
  the seed-dependent `conv-split-dual-search` text are not compared;
- a status may only move from `skipped` to `pass`, or from
  `oracle-skipped` to `oracle-verified`;
- a sweep with zero records fails;
- other outputs are compared by SHA-256 digest, and the library distance by
  value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from workloads import CSS_TRUE_DISTANCE_DESIGN, OUT

REFERENCE_FILE = "reference.json"
ALLOWED_MOVES = {("skipped", "pass"), ("oracle-skipped", "oracle-verified")}


@dataclass(frozen=True)
class Claims:
    attempted: int = 0
    verified: int = 0
    skipped: int = 0

    def __add__(self, other: "Claims") -> "Claims":
        return Claims(self.attempted + other.attempted, self.verified + other.verified,
                      self.skipped + other.skipped)


class Mismatch(Exception):
    """The output differs from the reference."""


def _status_ok(ref: str, got: str) -> bool:
    return got == ref or (ref, got) in ALLOWED_MOVES


def _rows(stdout: bytes) -> list[dict]:
    try:
        return json.loads(stdout)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        raise Mismatch(f"unreadable JSON output: {exc}") from None


def _digest(op, stdout: bytes, out_path: str) -> str:
    if OUT in op.argv:
        with open(out_path, "rb") as fh:
            stdout = fh.read()
    return hashlib.sha256(stdout).hexdigest()


def record(op, stdout: bytes, out_path: str, value) -> dict:
    """The reference entry for one operation's output."""
    if op.check == "table":
        return {"rows": _rows(stdout)}
    if op.check == "verify":
        return {"records": [[r["q"], r["m"], r["check"], r["status"]]
                            for r in _rows(stdout)]}
    if op.check == "digest":
        return {"sha256": _digest(op, stdout, out_path)}
    return {"value": value}


def check(op, ref: dict, stdout: bytes, out_path: str, value) -> Claims:
    """Claims shown by a correct output; raises Mismatch otherwise."""
    if op.check == "table":
        rows = _rows(stdout)
        if len(rows) != len(ref["rows"]):
            raise Mismatch(f"{len(rows)} rows, reference has {len(ref['rows'])}")
        for i, (want, got) in enumerate(zip(ref["rows"], rows)):
            for key, val in want.items():
                ok = (_status_ok(val, got.get(key)) if key == "status"
                      else got.get(key) == val)
                if not ok:
                    raise Mismatch(f"row {i} {key}: {got.get(key)!r} != {val!r}")
        css_rows = [r for r in rows if r["kind"] == "css"]
        return Claims(len(css_rows),
                      sum(r["status"] == "oracle-verified" for r in css_rows),
                      sum(r["status"] == "oracle-skipped" for r in css_rows))
    if op.check == "verify":
        rows = _rows(stdout)
        if not rows:
            raise Mismatch("the sweep reports zero checks")
        if len(rows) != len(ref["records"]):
            raise Mismatch(f"{len(rows)} records, reference has {len(ref['records'])}")
        for i, (want, r) in enumerate(zip(ref["records"], rows)):
            got = [r["q"], r["m"], r["check"], r["status"]]
            if got[:3] != want[:3] or not _status_ok(want[3], got[3]):
                raise Mismatch(f"record {i}: {got} != {want}")
        oracle_rows = [r for r in rows if r["check"].endswith("-distance-oracle")]
        return Claims(len(oracle_rows),
                      sum(r["status"] == "pass" for r in oracle_rows),
                      sum(r["status"] == "skipped" for r in oracle_rows))
    if op.check == "digest":
        got = _digest(op, stdout, out_path)
        if got != ref["sha256"]:
            raise Mismatch(f"digest {got[:12]} != {ref['sha256'][:12]}")
        return Claims()
    if value != ref["value"]:
        raise Mismatch(f"distance {value!r} != {ref['value']!r}")
    return Claims(1, int(value >= CSS_TRUE_DISTANCE_DESIGN), 0)
