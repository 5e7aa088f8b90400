"""Independent brute-force verifiers: exact minimum distances by message
enumeration, exact CSS distances over set differences, a seeded sampled
upper bound for spans too large to enumerate, and the full sweep of
structural coset checks.

One enumerator, span_min_weight, walks the GF(p)-combinations of a basis
in index order: digit t of index i is the coefficient of generator t.
Two tables, each built once by digit doubling, hold the combinations of
the low generators (at most _BLOCK words) and of the high ones; block h
of the walk is the low table plus word h of the high table, so no index
is decoded and nothing is multiplied or packed per block.  Words are
columns.  For p = 2 they are bit planes: digit t of 64 consecutive
symbols is one uint64, a block is one XOR per plane, and a weight is the
popcount of the OR of a word's e planes, summed over its ceil(n/64)
words.  For odd p each digit is one byte (wider for p > 128), and the
nonzero symbols are counted in the least dtype that holds n.  A CSS side
(C minus its subcode S) is the span of a basis of C whose first rows span
S: S's words are exactly the lowest indices, so the walk starts above
them and no word is tested for membership.

Results produced within budget are exact; over-budget requests raise
BudgetError (css_distance_at_least answers None) rather than approximating
silently.  Enumeration is deterministic; sweeps run one (q, m) pair at a
time, in sorted order, and skip pairs whose modulus is over
cosets.MAX_MODULUS.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from . import cosets as cs
from . import cyclic
from .cyclic import CyclicCode
from .gf import FieldContext, _digits, _mul

DEFAULT_MAX_ENUMERATION = 10**7
_BLOCK = 1 << 16


class BudgetError(ValueError):
    """An enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_enumeration: int = DEFAULT_MAX_ENUMERATION
    seed: int = 0


# ----------------------------------------------------------------------
# span enumeration over GF(p)
# ----------------------------------------------------------------------

def _digit_matrix(ctx: FieldContext, rows) -> np.ndarray:
    """The GF(p)-generators of the span of rows (each row times 1, x, ...,
    x^(e-1)) as columns of GF(p)-digits, e per symbol (row j*e + t holds
    digit t of symbol j): the word of coefficients c is D @ c % p."""
    gens = _mul(ctx, np.asarray(rows)[:, None, :], ctx.p ** np.arange(ctx.e)[:, None])
    return np.ascontiguousarray(_digits(ctx, gens).reshape(len(rows) * ctx.e, -1).T)


def _pack(ctx: FieldContext, digits: np.ndarray) -> np.ndarray:
    """The walk's words from digit columns.  For p = 2, bit planes: row
    w*e + t is a uint64 that holds digit t of the 64 symbols 64w..64w+63
    (zero past the last symbol).  For odd p, the digit rows as they are, in
    the least unsigned dtype that holds two digits' sum.  Either way rows
    t::e hold digit t."""
    p, e = ctx.p, ctx.e
    if p > 2:
        return digits.astype(np.min_scalar_type(2 * (p - 1)))
    n, cols = digits.shape[0] // e, digits.shape[1]
    words = -(-n // 64)
    bits = np.zeros((words * 64, e, cols), np.uint8)
    bits[:n] = digits.reshape(n, e, cols)
    planes = np.packbits(bits.reshape(words, 64, e, cols), axis=1)
    return planes.transpose(0, 2, 3, 1).copy().view(np.uint64).reshape(words * e, cols)


def _add_mod(p: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(A + B) mod p on unsigned digit arrays or bit planes (p = 2),
    broadcasting.  Odd p: a sum S below p wraps S - p around to more than
    S, so the minimum is S mod p."""
    if p == 2:
        return A ^ B
    S = A + B
    return np.minimum(S, S - p)


def _weights(ctx: FieldContext, words: np.ndarray) -> np.ndarray:
    """Symbol weights of the columns of a word array, bit planes (uint64)
    or digit rows: a symbol counts iff any of its e digits is nonzero.  The
    sum accumulates in the least dtype that holds the largest weight."""
    nonzero = words[0::ctx.e]
    for t in range(1, ctx.e):
        nonzero = nonzero | words[t::ctx.e]
    if nonzero.dtype == np.uint64:
        counts, most = np.bitwise_count(nonzero), 64 * len(nonzero)
    else:
        counts, most = nonzero != 0, len(nonzero)
    return counts.sum(axis=0, dtype=np.min_scalar_type(most))


def _combinations(p: int, G: np.ndarray) -> np.ndarray:
    """The p^c GF(p)-combinations of the c word columns of G, in index
    order (digit t of index i is the coefficient of column t), built by
    digit doubling: each column multiplies the table by p with p - 1 adds."""
    table = np.zeros((G.shape[0], 1), G.dtype)
    for t in range(G.shape[1]):
        parts = [table]
        for _ in range(p - 1):
            parts.append(_add_mod(p, parts[-1], G[:, t:t + 1]))
        table = np.concatenate(parts, axis=1)
    return table


def span_min_weight(
    ctx: FieldContext, rows, limit: int, *, subcode_rows: int = 0
) -> int:
    """Exact minimum symbol weight over the words of the GF(q)-span of rows
    that are not in the span of its first `subcode_rows` rows (with the
    default 0, over the nonzero words).

    The indices below p^(e * subcode_rows) are exactly the subcode's words,
    so the walk starts above them.  The low a generators, p^a <= _BLOCK,
    span a table L of p^a words and the rest a table H, both in index order;
    block h is L plus column h of H.  H holds total / p^a words: for p = 2
    at most 2^23 / 2^16 = 128 within the default budget of 10^7.  It
    outgrows L only for spans larger than p^(2a): 4.3e9 words for p = 2,
    2.4e8 for p = 5.
    """
    total = ctx.q ** len(rows)
    if total > limit:
        raise BudgetError(f"span of size {total} exceeds {limit}")
    first = ctx.q**subcode_rows
    if first >= total:
        raise ValueError("span has no words outside the subcode")
    p, G = ctx.p, _pack(ctx, _digit_matrix(ctx, rows))
    a = max(t for t in range(G.shape[1] + 1) if p**t <= _BLOCK)
    L, H = _combinations(p, G[:, :a]), _combinations(p, G[:, a:])
    size = p**a
    blocks = (_add_mod(p, L[:, max(first - h * size, 0):], H[:, h:h + 1])
              for h in range(first // size, H.shape[1]))
    best = min(int(_weights(ctx, block).min()) for block in blocks)
    if best == 0:
        raise AssertionError("generators are linearly dependent")
    return best


def sampled_min_weight(ctx: FieldContext, rows, sample: int, seed: int) -> int:
    """Least weight among the GF(p)-generators of the span of rows and
    `sample` seeded random GF(p)-combinations of them: an upper bound on
    the minimum nonzero weight."""
    D = _digit_matrix(ctx, rows)
    # all single generators first, then random combinations
    coefs = np.eye(D.shape[1], dtype=np.int64)
    if sample > 0:
        rng = np.random.default_rng(seed)
        coefs = np.vstack([coefs, rng.integers(0, ctx.p, size=(sample, D.shape[1]))])
    w = _weights(ctx, (D @ coefs.T) % ctx.p)
    return int(w[w > 0].min())


# ----------------------------------------------------------------------
# code distances
# ----------------------------------------------------------------------

def min_distance_bruteforce(code: CyclicCode, budget=OracleBudget()) -> int:
    """Exact minimum Hamming distance by enumerating all q^k codewords
    generated by g(x)."""
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    return span_min_weight(
        code.base, cyclic.codeword_basis(code), budget.max_enumeration
    )


def verify_min_distance_at_least(code: CyclicCode, bound: int,
                                 budget=OracleBudget()) -> bool:
    """True iff every nonzero codeword has weight >= bound."""
    return code.k == 0 or min_distance_bruteforce(code, budget) >= bound


def css_distance_at_least(pair, bound: int, budget=OracleBudget()) -> bool | None:
    """Whether C1 and the dual of C2 both have minimum distance >= bound,
    so that the CSS pair reaches it; None when either enumeration is over
    budget (always at budget 0)."""
    outer, inner = pair.outer, pair.inner
    # the dual of C2 has dimension n - k2, so it is only built when it fits
    if max(outer.q**outer.k, inner.q**(inner.n - inner.k)) > budget.max_enumeration:
        return None
    return all(verify_min_distance_at_least(code, bound, budget)
               for code in (outer, cyclic.dual_code(inner)))


def css_true_distance(pair, budget=OracleBudget()) -> int | None:
    """Exact CSS distance: the minimum weight over (C1 minus C2) union
    (C2-dual minus C1-dual).  Returns None for a degenerate pair (C1 = C2,
    both differences empty).

    Each side enumerates a basis of the larger code whose first rows span
    the subcode: the shifts of the subcode's generator, then the first
    k - k_sub shifts of the code's own (their leading degrees are all
    distinct), so the subcode's words are skipped by index."""
    if pair.k == 0:
        return None
    inner_dual = cyclic.dual_code(pair.inner)
    # C2 and C1-dual are subcodes of these two, so they are no larger
    for c in (pair.outer, inner_dual):
        if c.q**c.k > budget.max_enumeration:
            raise BudgetError(
                f"{c!r} has {c.q**c.k} codewords, over budget {budget.max_enumeration}")
    sides = ((pair.outer, pair.inner), (inner_dual, cyclic.dual_code(pair.outer)))
    return min(
        span_min_weight(
            code.base,
            np.vstack([cyclic.codeword_basis(sub),
                       cyclic.codeword_basis(code)[:code.k - sub.k]]),
            budget.max_enumeration,
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
        return asdict(self)


@dataclass
class SweepReport:
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == "fail"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def add(self, q: int, m: int, check: str, ok: bool | None, detail: str = ""):
        """Record one check: ok None is skipped, true passes, false fails."""
        status = "skipped" if ok is None else "pass" if ok else "fail"
        self.records.append(CheckRecord(q, m, check, status, detail))


def _sweep_pair(report: SweepReport, q: int, m: int) -> None:
    n = q**m - 1
    part = cs.partition(q, m)
    reps, cards, E = part.reps, part.cards, part.elements
    seen = np.zeros(n, bool)
    seen[E] = True
    report.add(q, m, "partition", int(cards.sum()) == n and bool(seen.all()))

    # parity structure (odd q only)
    if q % 2 == 1:
        bad = np.flatnonzero(part.mixed())[:3].tolist()
        report.add(q, m, "parity-uniform", not bad,
                   f"mixed-parity cosets: {list(map(part.coset, bad))}" if bad else "")
        # a singleton {x} never holds x + 1, as n >= 2 for odd q
        consec = (part.owner[(E + 1) % n] == np.arange(len(reps))[:, None]).any(axis=1)
        bad = np.flatnonzero(consec)[:3].tolist()
        report.add(q, m, "no-consecutive", not bad,
                   f"cosets with consecutive elements: {list(map(part.coset, bad))}"
                   if bad else "")
    else:
        report.add(q, m, "parity-uniform", None, "hypothesis: q odd")
        report.add(q, m, "no-consecutive", None, "hypothesis: q odd")

    # gap statistic; 0 stands for a singleton's absent gap
    gaps = part.gaps()
    if q >= 3:
        low = np.flatnonzero((cards > 1) & (gaps < q - 1))[:5]
        low = list(zip(reps[low].tolist(), gaps[low].tolist()))
        report.add(q, m, "gap-lower-bound", not low,
                   f"L below q-1 at: {low}" if low else "")
        if m >= 2:
            g1 = int(gaps[part.owner[1]]) or None
            report.add(q, m, "gap-equality-at-one", g1 == q - 1,
                       f"L of the coset of 1 is {g1}, expected {q - 1}")
        else:
            report.add(q, m, "gap-equality-at-one", None,
                       "coset of 1 is a singleton for m = 1")
    else:
        report.add(q, m, "gap-lower-bound", None, "hypothesis: q >= 3")
        report.add(q, m, "gap-equality-at-one", None, "hypothesis: q >= 3")

    # complementary-coset properties; a failing check names its last failing
    # coset
    comp = part.complements()
    unique = (part.owner[(n - E) % n] == comp[:, None]).all(axis=1)
    failing = {
        "complement-unique": ~unique,
        "complement-cardinality": cards[comp] != cards,
        "complement-oplus-zero": part.oplus(comp) != part.owner[0],
        "complement-gap-equal": gaps[comp] != gaps,
        "complement-involution": comp[comp] != np.arange(len(reps)),
    }
    for check, mask in failing.items():
        last = np.flatnonzero(mask)[-1:].tolist()
        detail = f"coset {part.coset(last[0]).rep}" if last else ""
        if last and check == "complement-unique":
            comps = {part.at((n - x) % n).rep for x in part.coset(last[0]).elements}
            detail += f": complements {sorted(comps)}"
        report.add(q, m, check, not last, detail)

    # disjointness range, plus the minimum-representative fact for even m; a
    # failing check names its last x, paired with the first x of its coset
    T = cs.disjointness_range(q, m)
    xs = np.arange(1, T + 1)
    xs = xs[xs % q != 0]
    idx = part.owner[xs % n]
    pairs = list(zip(idx.tolist(), xs.tolist()))
    least = dict(pairs[::-1])  # coset index -> least x in range it owns
    shared = [(least[i], x) for i, x in pairs if least[i] != x]
    clash = shared[-1] if shared else None
    report.add(q, m, "disjoint-range", clash is None,
               f"cosets of {clash} meet" if clash else f"range [1, {T}]")
    if m % 2 == 0:
        bad = xs[reps[idx] != xs % n][-1:].tolist()
        report.add(q, m, "min-representative", not bad,
                   f"{bad[0]} is not minimal in its coset" if bad else "")
    else:
        report.add(q, m, "min-representative", None, "stated for even m")

    # full-cardinality range; a failing check names its first x
    xs = np.arange(1, q ** ((m + 1) // 2) + 1)
    bad = xs[cards[part.owner[xs % n]] != m][:1].tolist()
    report.add(q, m, "cardinality-range", not bad,
               f"coset of {bad[0]} is small" if bad else "")

    # ladder cosets for every admissible c (at most q), checked once at the
    # largest: the ladder for a smaller c is a subset of its disjoint
    # full-size cosets, and its final elements a prefix of the consecutive run
    cmax = 0
    while cmax < q and (cmax + 1) * q + 1 < q ** ((m + 1) // 2) - 1:
        cmax += 1
    if cmax == 0:
        report.add(q, m, "ladder", None, "no admissible c")
    else:
        try:
            cs.ladder_cosets(q, m, cmax)
            report.add(q, m, "ladder", True, f"c up to {cmax}")
        except AssertionError as exc:
            report.add(q, m, "ladder", False, str(exc))


def coset_theorem_sweep(q_list: Iterable[int], m_list: Iterable[int]) -> SweepReport:
    """Run every structural coset check for each (q, m) pair; failures are
    report records, never exceptions.  Pairs whose modulus q^m - 1 is over
    cosets.MAX_MODULUS get one skipped record each, ahead of the rest."""
    pairs = sorted((q, m) for q in set(q_list) for m in set(m_list))
    over = [(q, m) for q, m in pairs if q**m - 1 > cs.MAX_MODULUS]
    report = SweepReport()
    for q, m in over:
        report.add(q, m, "all", None, f"modulus over cap {cs.MAX_MODULUS}")
    for q, m in pairs:
        if (q, m) not in over:
            _sweep_pair(report, q, m)
    return report
