"""Record the reference outputs the gate compares against.

    python3 perfbench/record_reference.py

Runs every operation of every workload once, at seed 0, and rewrites
`perfbench/reference.json`.  Run it only on a commit whose outputs are
known to be right; the checked-in file was recorded at the commit named
in it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import gate
from run import HERE, ROOT, Runner, git_sha
from workloads import WORKLOADS


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=os.path.join(ROOT, ".perfbench-work"))
    ops = {}
    try:
        runner = Runner(0, {}, work, deadline=float("inf"))
        for workload in WORKLOADS.values():
            for op in workload:
                base, rc, result, _ = runner.execute(op, trace=False)
                if result is None or result["rc"] != 0:
                    print(f"{op.label}: failed (exit {rc})", file=sys.stderr)
                    return 1
                with open(base + ".out", "rb") as fh:
                    ops[op.ref] = gate.record(op, fh.read(), base + ".dat", result["value"])
                print(f"recorded {op.ref}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, gate.REFERENCE_FILE), "w", encoding="utf-8") as fh:
        json.dump({"recorded_at": git_sha(), "seed": 0, "ops": ops}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
