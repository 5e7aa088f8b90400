"""Parameter-table regeneration.

The row selections (which q, m, c, i instances are printed) live in the
family registry; every row's parameters are recomputed from the family
constructors at call time, never read from stored constants.  CSS rows
additionally get their distance claims brute-force checked when the
oracle budget allows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import conv, css, families, oracle


@dataclass(frozen=True)
class TableRow:
    table: int
    kind: str          # "css" | "conv"
    family: str
    q: int
    m: int
    c: int | None
    i: int | None
    n: int
    k: int
    gamma: int | None
    mu: int | None
    dist: int
    text: str
    status: str        # "formula-match" | "oracle-verified" | "oracle-skipped"

    def to_dict(self):
        return asdict(self)


def _css_row(table: int, params: css.CssParams, budget) -> TableRow:
    verified = oracle.css_distance_at_least(params, params.printed_distance, budget)
    if verified is False:
        raise AssertionError(f"oracle contradicts distance claim for {params!r}")
    return TableRow(
        table=table, kind="css", family=params.family or "css",
        q=params.q, m=params.m, c=params.designed_distance, i=None,
        n=params.n, k=params.k, gamma=None, mu=None,
        dist=params.printed_distance, text=params.bracket(),
        status="oracle-skipped" if verified is None else "oracle-verified",
    )


def _conv_row(code: conv.ConvCode) -> TableRow:
    return TableRow(
        table=3, kind="conv", family=code.family or "conv",
        q=code.q, m=2, c=None, i=code.index,
        n=code.n, k=code.k, gamma=code.degree, mu=code.memory,
        dist=code.dfree_lb, text=code.bracket(),
        status="formula-match",
    )


def build_table(which: int, budget=oracle.OracleBudget()) -> list[TableRow]:
    """The printed rows of table `which`: the CSS tables 1 and 2 (with the
    oracle status of each distance claim) and the convolutional table 3
    (dimensions and degrees from matrix ranks over the expanded field)."""
    entries = families.rows(which)
    if not entries:
        raise ValueError(f"no table {which}; choose 1, 2 or 3")
    out = []
    for fam, args in entries:
        built = fam.build(**args)
        out.append(_css_row(which, built, budget) if fam.kind == "css"
                   else _conv_row(built))
    return out
