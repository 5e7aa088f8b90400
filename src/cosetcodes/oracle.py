"""Independent brute-force verifiers: exact minimum distances by message
enumeration, exact CSS distances over set differences, a seeded sampled
upper bound for spans too large to enumerate, and the full sweep of
structural coset checks.

One enumerator, span_min_weight, walks the GF(p)-combinations of a basis
blockwise, in index order.  A CSS side (C minus its subcode S) is the
span of a basis of C whose first rows span S: S's words are exactly the
lowest indices, so the enumeration starts above them and no word is
tested for membership.

Results produced within budget are exact; over-budget requests raise
BudgetError (css_distance_at_least answers None) rather than approximating
silently.  Enumeration is deterministic; sweeps run one (q, m) pair at a
time, in sorted order, and skip pairs whose modulus is over
cosets.MAX_MODULUS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import cosets as cs
from . import cyclic
from .cyclic import CyclicCode
from .gf import FieldContext

DEFAULT_MAX_ENUMERATION = 10**7
_BLOCK = 1 << 16


class BudgetError(ValueError):
    """An enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_enumeration: int = DEFAULT_MAX_ENUMERATION
    seed: int = 0

    @classmethod
    def of(cls, budget) -> OracleBudget:
        """The budget that None (the default), an int (the enumeration cap)
        or an OracleBudget names."""
        if budget is None:
            return cls()
        if isinstance(budget, int):
            return cls(max_enumeration=budget)
        return budget


# ----------------------------------------------------------------------
# span enumeration over GF(p)
# ----------------------------------------------------------------------

def gf_p_generators(ctx: FieldContext, rows) -> list[list[int]]:
    """Expand GF(q)-generators into a GF(p)-generating list by multiplying
    each row with 1, x, ..., x^(e-1); the GF(p)-span equals the GF(q)-span."""
    out = []
    for row in rows:
        for t in range(ctx.e):
            s = ctx.p**t
            out.append([ctx.mul(v, s) for v in row])
    return out


def _digit_matrix(ctx: FieldContext, gens) -> np.ndarray:
    """The GF(p)-digits of gens, one row per generator, as float64 so that
    BLAS does the combination matmul; every digit sum stays far below 2^53,
    so the arithmetic is exact."""
    A = np.asarray(gens, dtype=np.int64)
    powers = np.array(ctx._powers, dtype=np.int64)
    digs = (A[:, :, None] // powers) % ctx.p
    return digs.reshape(A.shape[0], -1).astype(np.float64)


def _weights(ctx: FieldContext, B: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Symbol weights of the GF(p)-combinations coefs @ B."""
    p, e = ctx.p, ctx.e
    raw = np.rint(coefs @ B).astype(np.int32)
    digs = (raw & 1) if p == 2 else (raw % p)
    nonzero = digs[:, 0::e]
    for t in range(1, e):
        nonzero = nonzero | digs[:, t::e]
    return np.count_nonzero(nonzero, axis=1)


def span_min_weight(
    ctx: FieldContext,
    rows,
    limit: int,
    *,
    subcode_rows: int = 0,
    stop_below: int | None = None,
) -> int:
    """Exact minimum symbol weight over the words of the GF(q)-span of rows
    that are not in the span of its first `subcode_rows` rows (with the
    default 0, over the nonzero words).

    Combination i takes GF(p)-digit t of i as the coefficient of generator
    t, so the indices below p^(e * subcode_rows) are exactly the subcode's
    words and the enumeration starts above them.  With stop_below set,
    returns as soon as any weight below it is seen (fail-fast for
    'verify >= bound'); the full sweep still runs otherwise.
    """
    gens = gf_p_generators(ctx, rows)
    total = ctx.p ** len(gens)
    if total > limit:
        raise BudgetError(f"span of size {total} exceeds {limit}")
    first = ctx.p ** (ctx.e * subcode_rows)
    if first >= total:
        raise ValueError("span has no words outside the subcode")
    B = _digit_matrix(ctx, gens)
    radix = np.array([ctx.p**t for t in range(len(gens))], dtype=np.int64)
    best = len(rows[0]) + 1
    for start in range(first, total, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        coefs = ((idx[:, None] // radix) % ctx.p).astype(np.float64)
        blockmin = int(_weights(ctx, B, coefs).min())
        if blockmin == 0:
            raise AssertionError("generators are linearly dependent")
        best = min(best, blockmin)
        if stop_below is not None and best < stop_below:
            break
    return best


def sampled_min_weight(ctx: FieldContext, rows, sample: int, seed: int) -> int:
    """Least weight among the GF(p)-generators of the span of rows and
    `sample` seeded random GF(p)-combinations of them: an upper bound on
    the minimum nonzero weight."""
    gens = gf_p_generators(ctx, rows)
    dim = len(gens)
    B = _digit_matrix(ctx, gens)
    # all single generators first, then random combinations
    coefs = np.eye(dim)
    if sample > 0:
        rng = np.random.default_rng(seed)
        coefs = np.vstack([coefs, rng.integers(0, ctx.p, size=(sample, dim))])
    w = _weights(ctx, B, coefs)
    return int(w[w > 0].min())


# ----------------------------------------------------------------------
# code distances
# ----------------------------------------------------------------------

def _check_enum_budget(code: CyclicCode, bud: OracleBudget):
    size = code.q**code.k
    if size > bud.max_enumeration:
        raise BudgetError(
            f"{code!r} has {size} codewords, over budget {bud.max_enumeration}"
        )


def min_distance_bruteforce(code: CyclicCode, budget=None) -> int:
    """Exact minimum Hamming distance by enumerating all q^k codewords
    generated by g(x)."""
    bud = OracleBudget.of(budget)
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    _check_enum_budget(code, bud)
    return span_min_weight(
        code.base, cyclic.codeword_basis(code), bud.max_enumeration
    )


def verify_min_distance_at_least(code: CyclicCode, bound: int, budget=None) -> bool:
    """True iff every nonzero codeword has weight >= bound; stops at the
    first counterexample."""
    bud = OracleBudget.of(budget)
    if code.k == 0:
        return True
    _check_enum_budget(code, bud)
    got = span_min_weight(
        code.base, cyclic.codeword_basis(code), bud.max_enumeration,
        stop_below=bound,
    )
    return got >= bound


def css_distance_at_least(pair, bound: int, budget=None) -> bool | None:
    """Whether C1 and the dual of C2 both have minimum distance >= bound,
    so that the CSS pair reaches it; None when either enumeration is over
    budget (or the budget is 0)."""
    bud = OracleBudget.of(budget)
    if bud.max_enumeration <= 0:
        return None
    codes = (pair.outer, cyclic.dual_code(pair.inner))
    if any(code.q**code.k > bud.max_enumeration for code in codes):
        return None
    return all(verify_min_distance_at_least(code, bound, bud) for code in codes)


def css_true_distance(pair, budget=None) -> int | None:
    """Exact CSS distance: the minimum weight over (C1 minus C2) union
    (C2-dual minus C1-dual).  Returns None for a degenerate pair (C1 = C2,
    both differences empty).

    Each side enumerates a basis of the larger code whose first rows span
    the subcode: the shifts of the subcode's generator, then the first
    k - k_sub shifts of the code's own (their leading degrees are all
    distinct), so the subcode's words are skipped by index."""
    bud = OracleBudget.of(budget)
    if pair.k == 0:
        return None
    inner_dual = cyclic.dual_code(pair.inner)
    # C2 and C1-dual are subcodes of these two, so they are no larger
    for c in (pair.outer, inner_dual):
        _check_enum_budget(c, bud)
    sides = ((pair.outer, pair.inner), (inner_dual, cyclic.dual_code(pair.outer)))
    return min(
        span_min_weight(
            code.base,
            cyclic.codeword_basis(sub) + cyclic.codeword_basis(code)[:code.k - sub.k],
            bud.max_enumeration,
            subcode_rows=sub.k,
        )
        for code, sub in sides
    )


# ----------------------------------------------------------------------
# structural coset sweep
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    q: int
    m: int
    check: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""

    def to_dict(self):
        return {"q": self.q, "m": self.m, "check": self.check,
                "status": self.status, "detail": self.detail}


@dataclass
class SweepReport:
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == "fail"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self):
        return {"records": [r.to_dict() for r in self.records],
                "failures": len(self.failures)}


def _sweep_pair(q: int, m: int) -> list[CheckRecord]:
    recs: list[CheckRecord] = []
    n = q**m - 1

    def add(check, ok, detail=""):
        recs.append(CheckRecord(q, m, check, "pass" if ok else "fail", detail))

    def skip(check, why):
        recs.append(CheckRecord(q, m, check, "skipped", why))

    partition = cs.all_cosets(q, m)
    add("partition",
        sum(c.cardinality for c in partition) == n
        and len({x for c in partition for x in c.elements}) == n)

    # parity structure (odd q only)
    if q % 2 == 1:
        bad = [c for c in partition if len({x % 2 for x in c.elements}) != 1]
        add("parity-uniform", not bad, f"mixed-parity cosets: {bad[:3]}" if bad else "")
        consec = [
            c for c in partition
            if any((x + 1) % n in c.elements for x in c.elements) and c.cardinality > 1
        ]
        add("no-consecutive", not consec,
            f"cosets with consecutive elements: {consec[:3]}" if consec else "")
    else:
        skip("parity-uniform", "hypothesis: q odd")
        skip("no-consecutive", "hypothesis: q odd")

    # gap statistic
    if q >= 3:
        low = []
        for c in partition:
            g = cs.gap_stat(c)
            if g.value is not None and g.value < q - 1:
                low.append((c.rep, g.value))
        add("gap-lower-bound", not low, f"L below q-1 at: {low[:5]}" if low else "")
        if m >= 2:
            g1 = cs.gap_stat(cs.coset_of(q, m, 1))
            add("gap-equality-at-one", g1.value == q - 1,
                f"L of the coset of 1 is {g1.value}, expected {q - 1}")
        else:
            skip("gap-equality-at-one", "coset of 1 is a singleton for m = 1")
    else:
        skip("gap-lower-bound", "hypothesis: q >= 3")
        skip("gap-equality-at-one", "hypothesis: q >= 3")

    # complementary-coset properties
    ok_unique = ok_card = ok_oplus = ok_gap = ok_invol = True
    detail_unique = detail_card = detail_oplus = detail_gap = detail_invol = ""
    for c in partition:
        comps = {cs.coset_of(q, m, (n - x) % n).rep for x in c.elements}
        comp = cs.complementary(c)
        if comps != {comp.rep}:
            ok_unique = False
            detail_unique = f"coset {c.rep}: complements {sorted(comps)}"
        if comp.cardinality != c.cardinality:
            ok_card = False
            detail_card = f"coset {c.rep}"
        if cs.coset_oplus(c, comp).elements != (0,):
            ok_oplus = False
            detail_oplus = f"coset {c.rep}"
        if cs.gap_stat(c).value != cs.gap_stat(comp).value:
            ok_gap = False
            detail_gap = f"coset {c.rep}"
        if cs.complementary(comp).rep != c.rep:
            ok_invol = False
            detail_invol = f"coset {c.rep}"
    add("complement-unique", ok_unique, detail_unique)
    add("complement-cardinality", ok_card, detail_card)
    add("complement-oplus-zero", ok_oplus, detail_oplus)
    add("complement-gap-equal", ok_gap, detail_gap)
    add("complement-involution", ok_invol, detail_invol)

    # disjointness range, plus the minimum-representative fact for even m
    T = cs.disjointness_range(q, m)
    owner: dict[int, int] = {}
    clash = None
    minrep_bad = None
    for x in range(1, T + 1):
        if x % q == 0:
            continue
        c = cs.coset_of(q, m, x)
        if m % 2 == 0 and c.rep != x % n:
            minrep_bad = x
        for el in c.elements:
            if el in owner and owner[el] != x:
                clash = (owner[el], x)
            owner.setdefault(el, x)
    add("disjoint-range", clash is None,
        f"cosets of {clash} meet" if clash else f"range [1, {T}]")
    if m % 2 == 0:
        add("min-representative", minrep_bad is None,
            f"{minrep_bad} is not minimal in its coset" if minrep_bad else "")
    else:
        skip("min-representative", "stated for even m")

    # full-cardinality range
    bad_card = None
    for x in range(1, q ** ((m + 1) // 2) + 1):
        if cs.coset_of(q, m, x).cardinality != m:
            bad_card = x
            break
    add("cardinality-range", bad_card is None,
        f"coset of {bad_card} is small" if bad_card is not None else "")

    # ladder cosets for every admissible c
    cmax = 0
    while (cmax + 1) * q + 1 < q ** ((m + 1) // 2) - 1:
        cmax += 1
    if cmax == 0:
        skip("ladder", "no admissible c")
    else:
        try:
            for c in range(1, cmax + 1):
                cs.ladder_cosets(q, m, c)
            add("ladder", True, f"c up to {cmax}")
        except AssertionError as exc:
            add("ladder", False, str(exc))
    return recs


def coset_theorem_sweep(q_list: Iterable[int], m_list: Iterable[int]) -> SweepReport:
    """Run every structural coset check for each (q, m) pair; failures are
    report records, never exceptions.  Pairs whose modulus q^m - 1 is over
    cosets.MAX_MODULUS get one skipped record each, ahead of the rest."""
    pairs = sorted((q, m) for q in set(q_list) for m in set(m_list))
    over = [(q, m) for q, m in pairs if q**m - 1 > cs.MAX_MODULUS]
    report = SweepReport([
        CheckRecord(q, m, "all", "skipped", f"modulus over cap {cs.MAX_MODULUS}")
        for q, m in over
    ])
    for q, m in pairs:
        if (q, m) not in over:
            report.records.extend(_sweep_pair(q, m))
    return report
