"""The tables and the verify sweep, judged by the benchmark's output gate
against its frozen reference: the same rows and records, and a status may
only move from skipped to passing."""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from cosetcodes import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = json.loads((PERFBENCH / gate.REFERENCE_FILE).read_text(encoding="utf-8"))
OPS = WORKLOADS["tables"] + WORKLOADS["sweep"]


@pytest.mark.parametrize("op", OPS, ids=[op.ref for op in OPS])
def test_output_passes_the_gate(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(op.cli_argv(REFERENCE["seed"]))
    assert rc == 0
    gate.check(op, REFERENCE["ops"][op.ref], out.getvalue().encode(), "", None)
