"""Self-test of the benchmark's output gate.

    python3 perfbench/selftest.py

Runs one operation per workload once, then judges its output against the
recorded reference (must pass) and against deliberately changed copies of
it: every change but an allowed status move must count the operation as
failed.  Also checks that a command
that exits with an error, and a sweep that reports zero checks, fail.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

import gate
from run import HERE, ROOT, Runner, load_json
from workloads import WORKLOADS, Op


def _change_number(ref):
    ref["rows"][0]["k"] += 1


def _unverify(ref):
    ref["rows"][0]["status"] = "oracle-verified"   # the output says oracle-skipped


def _fail_record(ref):
    ref["records"][0][3] = "fail"


def _skip_record(ref):
    ref["records"][0][3] = "skipped"   # the output's "pass" is an allowed move


def _drop_record(ref):
    ref["records"].pop()


def _change_digest(ref):
    ref["sha256"] = ("0" if ref["sha256"][0] != "0" else "1") + ref["sha256"][1:]


def _change_value(ref):
    ref["value"] += 1


# workload -> (operation to run, [(change to its reference, output still ok)])
CASES = {
    "tables": ("table1", [(_change_number, False), (_unverify, False)]),
    "sweep": ("verify_all", [(_fail_record, False), (_skip_record, True),
                             (_drop_record, False)]),
    "oracle": ("css_true_distance", [(_change_value, False)]),
    "scale": ("code_3_8", [(_change_digest, False)]),
}


def main() -> int:
    reference = load_json(os.path.join(HERE, gate.REFERENCE_FILE))["ops"]
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench-work"))
    problems = []

    def expect(label: str, res, ok: bool):
        state = "passes" if res.ok else f"fails ({res.why})"
        print(f"{label}: {state}", file=sys.stderr)
        if res.ok != ok:
            problems.append(label)

    try:
        runner = Runner(0, reference, work, deadline=float("inf"))
        for workload, (ref_key, changes) in CASES.items():
            op = next(o for o in WORKLOADS[workload] if o.ref == ref_key)
            run = runner.execute(op, trace=False)
            expect(f"{workload}/{ref_key} vs reference",
                   runner.judge(op, *run, reference[ref_key]), True)
            for change, ok in changes:
                changed = copy.deepcopy(reference[ref_key])
                change(changed)
                expect(f"{workload}/{ref_key} vs {change.__name__.strip('_')}",
                       runner.judge(op, *run, changed), ok)
        # a command that exits with an error
        bad_op = Op("table1", "table", ("table", "9", "--format", "json"))
        expect("table 9 (argparse error)",
               runner.judge(bad_op, *runner.execute(bad_op, False), reference["table1"]),
               False)
        # a sweep that reports zero checks
        empty = os.path.join(work, "empty")
        with open(empty + ".out", "w", encoding="utf-8") as fh:
            json.dump({"rows": []}, fh)
        sweep_op = WORKLOADS["sweep"][0]
        fake = {"t_import": 0.0, "wall": 0.0, "maxrss_kb": 0, "fields_built": 0,
                "rc": 0, "value": None}
        expect("sweep with zero checks",
               runner.judge(sweep_op, empty, 0, fake, 0.0, reference["verify_all"]), False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if problems:
        print(f"self-test FAILED: {problems}", file=sys.stderr)
        return 1
    print("self-test passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
