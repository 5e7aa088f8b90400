"""The benchmark's workloads: which operations each one runs, in order.

An operation is one user command, run in a fresh interpreter.  `argv` is
passed to `cosetcodes.cli.main`; `call` names a library call that
`op.py` knows how to make.  `check` says how `gate.py` compares the output
with the recorded reference, and `ref` is the key of that reference.
"""

from __future__ import annotations

from dataclasses import dataclass

# `{out}` in an argv is replaced by a scratch file the harness owns; the
# digest of such an operation covers that file instead of stdout.
OUT = "{out}"


@dataclass(frozen=True)
class Op:
    ref: str
    check: str                      # "table" | "verify" | "digest" | "distance"
    argv: tuple[str, ...] = ()      # CLI arguments, without --seed
    call: str | None = None         # library call instead of the CLI

    def cli_argv(self, seed: int) -> list[str]:
        return list(self.argv) + ["--seed", str(seed)]

    @property
    def label(self) -> str:
        return " ".join(self.argv) if self.call is None else self.call


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # The paper's three parameter tables at the default oracle budget.
    "tables": (
        Op("table1", "table", ("table", "1", "--format", "json")),
        Op("table2", "table", ("table", "2", "--format", "json")),
        Op("table3", "table", ("table", "3", "--format", "json")),
    ),
    # The full verification sweep on the default (q <= 9, m <= 3) grid.
    "sweep": (
        Op("verify_all", "verify", ("verify", "all", "--format", "json")),
    ),
    # Codeword enumeration: minimum weight with early stop, then the exact
    # CSS distance through byte-set membership.
    "oracle": (
        Op("verify_css_q4", "verify",
           ("verify", "css", "--q", "4", "--budget", "17000000", "--format", "json")),
        Op("css_true_distance", "distance", call="css_true_distance"),
    ),
    # The advertised caps: large field construction and a large coset listing.
    "scale": (
        Op("code_2_12", "digest", ("code", "2", "12", "1", "3", "5")),
        Op("code_3_8", "digest", ("code", "3", "8", "1", "2")),
        Op("cosets_31_4", "digest", ("cosets", "31", "4", "--properties", "--out", OUT)),
    ),
}

# Untraced passes a run makes at least, whatever --seconds says.  One pass of
# `sweep` is 11-16 s of pure Python, and on a shared 2-vCPU virtual machine
# the processor's speed drifts by a fifth over tens of seconds, so a single
# pass is not a steady sample.
MIN_PASSES = {"sweep": 3}

# The library call of the `oracle` workload: css_true_distance of the
# block-even (q, m, c) = (4, 2, 4) pair under a 2^25-word budget.
CSS_TRUE_DISTANCE_ARGS = (4, 2, 4)
CSS_TRUE_DISTANCE_BUDGET = 2**25
CSS_TRUE_DISTANCE_DESIGN = 4
