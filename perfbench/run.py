"""cosetcodes benchmark: run a workload's operations, each in a fresh
interpreter, check their outputs against the recorded reference, and print
the metrics as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics.  Run it from the root of a checkout: it builds nothing,
imports `cosetcodes` from `src/`, and keeps its scratch files in
`.perfbench-work/`, which it removes before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import gate
import spans
from gate import Claims, Mismatch
from workloads import MIN_PASSES, OUT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OP_SCRIPT = os.path.join(HERE, "op.py")
PROBES = 3          # import-only interpreters started per run, for setup_s
HARD_LIMIT_S = 165  # no operation may run past this point of a run
# One core per operation: the program is single-threaded apart from BLAS, and
# OpenBLAS's spinning worker threads made pass times vary by a quarter on a
# 2-core machine where one thread keeps them within a few percent.
OP_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


@dataclass
class OpResult:
    ok: bool
    why: str = ""
    setup_s: float | None = None
    wall_s: float = 0.0
    rss_mb: float = 0.0
    claims: Claims = field(default_factory=Claims)
    fields_built: int = 0
    layers: dict | None = None


class Runner:
    """Starts operation processes for one run and owns their scratch files."""

    def __init__(self, seed: int, reference: dict, work: str, deadline: float):
        self.seed = seed
        self.reference = reference
        self.work = work
        self.deadline = deadline
        self.count = 0

    def _spawn(self, spec: dict) -> tuple[str, int | None, dict | None, float]:
        """Run op.py on spec: (file stem, exit code, result, start time).

        The operation's stdout is in `<stem>.out` and its stderr in
        `<stem>.err`; an exit code of None means it was killed at the deadline.
        """
        self.count += 1
        base = os.path.join(self.work, f"op{self.count}")
        spec = dict(spec, root=ROOT, seed=self.seed, result=base + ".json",
                    spans=base + ".spans")
        if "argv" in spec:
            spec["argv"] = [base + ".dat" if a == OUT else a for a in spec["argv"]]
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            t_spawn = time.perf_counter()
            try:
                rc = subprocess.run([sys.executable, OP_SCRIPT, json.dumps(spec)],
                                    stdout=out, stderr=err, cwd=ROOT,
                                    env=OP_ENV, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                rc = None
        result = None
        if rc == 0 and os.path.exists(spec["result"]):
            result = load_json(spec["result"])
        return base, rc, result, t_spawn

    @staticmethod
    def _last_line(path: str) -> str:
        with open(path, "rb") as fh:
            lines = fh.read().decode(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def probe(self) -> tuple[float, dict]:
        """Start an interpreter that only imports cosetcodes.cli."""
        base, _rc, result, t_spawn = self._spawn({"probe": True})
        if result is None:
            raise SystemExit(f"cannot import cosetcodes: {self._last_line(base + '.err')}")
        return result["t_import"] - t_spawn, result

    def execute(self, op, trace: bool) -> tuple[str, int | None, dict | None, float]:
        return self._spawn({"argv": op.cli_argv(self.seed), "call": op.call,
                            "trace": trace})

    def run_op(self, op, trace: bool) -> OpResult:
        base, rc, result, t_spawn = self.execute(op, trace)
        res = self.judge(op, base, rc, result, t_spawn, self.reference[op.ref])
        if res.ok and trace:
            res.layers = spans.analyse(base + ".spans")
        for suffix in (".out", ".dat", ".spans"):
            if os.path.exists(base + suffix):
                os.remove(base + suffix)
        return res

    def judge(self, op, base: str, rc, result, t_spawn: float, ref: dict) -> OpResult:
        """The outcome of one executed operation, its output checked against ref."""
        if result is None:
            why = "timed out" if rc is None else self._last_line(base + ".err")
            return OpResult(False, f"{op.label}: exit {rc}: {why}")
        res = OpResult(False, setup_s=result["t_import"] - t_spawn, wall_s=result["wall"],
                       rss_mb=result["maxrss_kb"] / 1024, fields_built=result["fields_built"])
        with open(base + ".out", "rb") as fh:
            stdout = fh.read()
        try:
            if result["rc"] != 0:
                raise Mismatch(f"exit status {result['rc']}")
            res.claims = gate.check(op, ref, stdout, base + ".dat", result["value"])
            res.ok = True
        except Exception as exc:  # any unreadable output is a failed operation
            res.why = f"{op.label}: {type(exc).__name__}: {exc}"
        return res


@dataclass
class Pass:
    ops: list[OpResult]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.ops)

    @property
    def rss_mb(self) -> float:
        return max(r.rss_mb for r in self.ops)


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its operations."""
    out: dict[str, float] = dict.fromkeys(spans.KEYS, 0)
    for r in p.ops:
        for key, val in (r.layers or {}).items():
            out[key] += val
    claims = sum((r.claims for r in p.ops), Claims())
    words = out["oracle.words"]
    enum_s = out["oracle.span_min_weight.s"] + out["oracle.span_labels.s"]
    self_total = sum(v for k, v in out.items() if k.endswith(".self_s"))
    out.update({
        "gf.fields_built": sum(r.fields_built for r in p.ops),
        "oracle.words_per_s": words / enum_s if enum_s else 0.0,
        "oracle.claims_attempted": claims.attempted,
        "oracle.claims_skipped": claims.skipped,
        "oracle.verified_claims": claims.verified,
        "oracle.verified_ratio": claims.verified / claims.attempted if claims.attempted else 0.0,
        "trace.wall_s": p.wall_s,
        "trace.coverage": self_total / p.wall_s if p.wall_s else 0.0,
    })
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if not os.path.isfile(ref_path):
        return None  # a packed ref
    with open(ref_path, encoding="utf-8") as fh:
        return fh.read().strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, probe: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "blas_threads": probe.get("blas_threads"),
        "git_sha": git_sha(),
        "seed": seed,
    }


def load_json(name: str) -> dict:
    with open(name, encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, detail record) of one benchmark run."""
    t_start = time.perf_counter()
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference = load_json(os.path.join(HERE, gate.REFERENCE_FILE))["ops"]
    ops = WORKLOADS[workload]
    min_passes = MIN_PASSES.get(workload, 1)
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench-work"))
    try:
        runner = Runner(seed, reference, work, t_start + HARD_LIMIT_S)
        probes = [runner.probe() for _ in range(PROBES)]
        plain: list[Pass] = []
        traced: list[Pass] = []
        t_loop = time.perf_counter()
        while True:
            plain.append(Pass([runner.run_op(op, False) for op in ops]))
            if trace:
                traced.append(Pass([runner.run_op(op, True) for op in ops]))
            now = time.perf_counter()
            per_round = (now - t_loop) / len(plain)
            enough = now - t_loop >= seconds and (trace or len(plain) >= min_passes)
            if enough or now + per_round > t_start + HARD_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    results = [r for p in plain + traced for r in p.ops]
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAILED {r.why}", file=sys.stderr)
    setups = [s for s, _ in probes] + [r.setup_s for r in results if r.setup_s is not None]
    values = {
        "wall_s": statistics.median(p.wall_s for p in plain),
        "setup_s": len(ops) * statistics.median(setups),
        "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        "success_rate": 1 - len(failed) / len(results),
    }
    wanted = spec["end_to_end"]
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                      - statistics.median(p.wall_s for p in plain))
        wanted = spec["per_layer"]
    detail = {
        "workload": workload,
        "environment": environment(seed, probes[0][1]),
        "passes": len(plain),
        "samples": {
            "wall_s": [p.wall_s for p in plain],
            "traced_wall_s": [p.wall_s for p in traced],
            "setup_per_process_s": setups,
            "peak_rss_mb": [p.rss_mb for p in plain],
        },
        "all_values": values,
    }
    line = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return line, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cosetcodes", "cli.py")):
        print(f"no cosetcodes source under {ROOT}/src: run from a checkout",
              file=sys.stderr)
        return 2
    line, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
