"""The registry of the paper's code families: one row per family.

A row names the family as output prints it, says which of m, c and i its
constructor takes besides q, names that constructor, gives the closed form
the paper claims and lists the printed table rows.  The tables, the verify
sweeps and the CLI all read their families from here.  Range checks stay
in the constructors; build looks a constructor up in its module at call
time and returns it, so a constructor's warning names the caller's line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import conv, css


@dataclass(frozen=True)
class Family:
    name: str                   # as output prints it, e.g. "css-block"
    params: tuple[str, ...]     # what the constructor takes besides q
    constructor: str            # its name in the css or conv module
    # (n, q, *params) -> the claimed k (css) or (k, degree, dfree) (conv)
    closed_form: Callable
    table: int | None = None
    instances: tuple[tuple[int, ...], ...] = ()  # (q, *params) per printed row

    @property
    def kind(self) -> str:
        return self.name.partition("-")[0]

    @property
    def build(self) -> Callable:
        """The constructor, (q, *params) -> CssParams | ConvCode."""
        return getattr(css if self.kind == "css" else conv, self.constructor)


def length(args: dict[str, int]) -> int:
    """n = q^m - 1 of an instance; the families without an m have m = 2."""
    return args["q"] ** args.get("m", 2) - 1


FAMILIES = (
    Family("css-block-full", (),
           "family_block_full",
           lambda n, q: q * q - 4 * q + 5,
           1, ((5,), (7,), (9,), (11,), (13,))),
    Family("css-block", ("c",),
           "family_block",
           lambda n, q, c: q * q - 4 * c + 5,
           1, ((5, 3),
               (7, 3), (7, 4), (7, 5), (7, 6),
               (8, 3), (8, 4), (8, 5), (8, 6), (8, 7),
               (9, 8),
               (11, 3), (11, 5), (11, 7), (11, 9),
               (13, 3), (13, 5), (13, 7), (13, 9), (13, 11))),
    Family("css-block-even", ("m", "c"),
           "family_block_even",
           lambda n, q, m, c: n - 2 * m * (c - 2) - m // 2 - 1,
           2, ((4, 2, 3), (4, 2, 4),
               (5, 2, 3), (5, 2, 4), (5, 2, 5),
               (8, 2, 3), (8, 2, 4), (8, 2, 5), (8, 2, 6), (8, 2, 7), (8, 2, 8),
               (4, 4, 3), (4, 4, 4),
               (5, 4, 3), (5, 4, 4), (5, 4, 5))),
    Family("css-ladder", ("m", "c"),
           "family_ladder",
           lambda n, q, m, c: n - m * (2 * c - 3) - 1,
           2, ((5, 3, 5),
               (7, 3, 5), (7, 3, 6), (7, 3, 7),
               (4, 4, 3), (4, 4, 4),
               (5, 4, 3), (5, 4, 4), (5, 4, 5))),
    Family("conv-split", (),
           "family_split",
           lambda n, q: (n - 2 * q + 1, 2 * q - 3, 2 * q + 1),
           3, ((4,), (5,), (7,), (8,), (9,), (11,), (13,), (16,))),
    Family("conv-wide-head", (),
           "family_split_wide_head",
           lambda n, q: (n - 2 * q, 2 * q - 4, 2 * q + 1),
           3, ((4,), (5,), (11,), (13,), (16,))),
    Family("conv-wider-head", ("i",),
           "family_split_wider_head",
           lambda n, q, i: (n - 2 * (q + i), 2 * (q - 2 - i), 2 * q + 1),
           3, ((4, 1),
               (5, 1), (5, 2),
               (7, 1), (7, 2), (7, 3), (7, 4),
               (16, 1), (16, 2), (16, 5), (16, 7), (16, 10), (16, 13))),
    Family("conv-short-parent", ("i",),
           "family_split_short_parent",
           lambda n, q, i: (n - 2 * q + 1, 2 * i + 1, q + i + 3),
           3, ((4, 1),
               (5, 1), (5, 2),
               (7, 1), (7, 2), (7, 3), (7, 4))),
    Family("conv-singleton-tail", (),
           "family_split_singleton_tail",
           lambda n, q: (n - 2 * q + 1, 1, q + 2)),
)

BY_NAME = {fam.name: fam for fam in FAMILIES}


def rows(*tables: int) -> list[tuple[Family, dict[str, int]]]:
    """(family, arguments) of every printed row of the given tables, in
    printed order: table by table, and family by family within a table,
    except that table 1 interleaves the block rows and the block-full rows
    (its c = q rows) by (q, c)."""
    out = []
    for table in tables:
        part = [(fam, dict(zip(("q",) + fam.params, values)))
                for fam in FAMILIES if fam.table == table
                for values in fam.instances]
        if table == 1:
            part.sort(key=lambda row: (row[1]["q"], row[1].get("c", row[1]["q"])))
        out += part
    return out
