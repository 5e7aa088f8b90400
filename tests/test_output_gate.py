"""Every benchmark workload's output, judged by the benchmark's output gate
against its frozen reference: the same rows and records, a status may only
move from skipped to passing, the digests match, and the library distance
is the recorded value."""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from cosetcodes import cli, css, oracle

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gate  # noqa: E402
from workloads import (CSS_TRUE_DISTANCE_ARGS, CSS_TRUE_DISTANCE_BUDGET,  # noqa: E402
                       OUT, WORKLOADS)

REFERENCE = json.loads((PERFBENCH / gate.REFERENCE_FILE).read_text(encoding="utf-8"))
OPS = [op for ops in WORKLOADS.values() for op in ops]


@pytest.mark.parametrize("op", OPS, ids=[op.ref for op in OPS])
def test_output_passes_the_gate(op, tmp_path):
    seed = REFERENCE["seed"]
    out_path = str(tmp_path / "out.dat")
    value = None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if op.call == "css_true_distance":
            value = oracle.css_true_distance(
                css.family_block_even(*CSS_TRUE_DISTANCE_ARGS),
                oracle.OracleBudget(CSS_TRUE_DISTANCE_BUDGET, seed=seed))
        else:
            argv = [out_path if a == OUT else a for a in op.cli_argv(seed)]
            assert cli.main(argv) == 0
    gate.check(op, REFERENCE["ops"][op.ref], out.getvalue().encode(), out_path, value)
