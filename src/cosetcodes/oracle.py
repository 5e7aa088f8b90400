"""Independent brute-force verifiers: exact minimum distances by message
enumeration, an exact test of d >= c from the light words of one
information set, exact CSS distances over set differences, a seeded sampled
upper bound for spans too large to enumerate (drawn from the standard
library's random), and the full sweep of structural coset checks.

One enumerator, span_min_weight, walks the GF(p)-combinations of a basis
in index order: digit t of index i is the coefficient of generator t.
One table L holds the combinations of the low generators, as many as fit
in _BLOCK = 256 KB; each block of the walk is L plus one word, within a
range the last word plus a prefix sum of the generators above L, since
adding 1 to an index wraps its low digits from p - 1 to 0 and raises the
next.  So the blocks come in index order, no index is decoded and nothing
is multiplied or packed per block.  Whatever the span, the walk holds L
and one block; both fit in a core's L2 cache.
Words are columns.  For p = 2 they are bit planes: digit t of 64
consecutive symbols is one uint64, a block is one XOR per plane, and a
weight is the popcount of the OR of a word's e planes, summed over its
ceil(n/64) words.  For odd p each digit is one byte (wider for p > 128),
and the nonzero symbols are counted in the least dtype that holds n.
Scaling keeps a weight, so the walk takes one word per GF(q)-line.  A CSS
side, C minus its subcode S, is walked on a basis of C whose first rows
span S: its words are the lowest indices, skipped without a membership
test.  For odd p each block is formed and weighed in two buffers
allocated once per walk.

A yes/no question, whether every nonzero word weighs at least c, needs
no walk: _light_word brings the basis to RREF and weighs only the
messages of weight below c on its pivots, the first nonzero coefficient
1, in chunks of at most _BLOCK bytes, with the walk's packed words.
verify_min_distance_at_least and css_distance_at_least use it.

One gate, _price, compares each span's q^k words with the budget, from k,
before any generator, basis or dual is built; the low-weight test is priced
the same way, whatever its own word count.  Results within budget are
exact; over-budget requests raise BudgetError (css_distance_at_least
answers None) rather than approximating silently.  Enumeration is
deterministic; sweeps run one (q, m) pair at a time, in sorted order, read
a pair's coset elements a block of orbit rows at a time (cosets._by_blocks),
and skip pairs whose modulus is over cosets.MAX_MODULUS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, combinations, islice, repeat
from typing import Iterable

import numpy as np

from . import cosets as cs
from . import cyclic, gf
from .cyclic import CyclicCode
from .gf import FieldContext, _digits, _mul

DEFAULT_MAX_ENUMERATION = 10**7
_BLOCK = 1 << 18


class BudgetError(ValueError):
    """An enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_enumeration: int = DEFAULT_MAX_ENUMERATION
    seed: int = 0


def _price(limit: int, q: int, dim: int) -> None:
    """Raise BudgetError iff a span's q^dim words are over limit.  Past
    limit.bit_length(), q^dim >= 2^dim > limit, so no power is formed."""
    if dim > limit.bit_length() or q**dim > limit:
        raise BudgetError(f"span of {q}^{dim} words exceeds budget {limit}")


# ----------------------------------------------------------------------
# span enumeration over GF(p)
# ----------------------------------------------------------------------

def _digit_matrix(ctx: FieldContext, rows, mults=None) -> np.ndarray:
    """Each row times each of mults, by default 1, x, ..., x^(e-1) (the
    GF(p)-generators of the span of rows), as columns of GF(p)-digits, e per
    symbol: row j*e + t holds digit t of symbol j, and column i*len(mults)
    + l is row i times mults[l].  With the default, the word of
    coefficients c is D @ c % p."""
    if mults is None:
        mults = ctx.p ** np.arange(ctx.e)
    gens = _mul(ctx, np.asarray(rows)[:, None, :], mults[:, None])
    return np.ascontiguousarray(_digits(ctx, gens).reshape(len(rows) * len(mults), -1).T)


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


def _add_mod(p: int, A: np.ndarray, B: np.ndarray, out=None, wrap=None) -> np.ndarray:
    """(A + B) mod p on unsigned digit arrays or bit planes (p = 2),
    broadcasting.  Odd p: a sum S below p wraps S - p around to more than
    S, so the minimum is S mod p; S is formed in out and S - p in wrap when
    they are given."""
    if p == 2:
        return A ^ B
    S = np.add(A, B, out=out)
    return np.minimum(S, np.subtract(S, p, out=wrap), out=S)


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


def _blocks(ctx: FieldContext, rows, first: int):
    """Weights of the walk's blocks over the span of rows, in index order,
    for the ranges j = first .. k - 1.  Range j, indices [q^j, 2 q^j), is
    generator e*j plus each combination of the e*j below it: the words
    whose top nonzero coefficient c_j is 1, one per GF(q)-line.  L holds
    the combinations of the low a generators, p^a words of at most _BLOCK
    bytes, built by digit doubling.  While e*j <= a a range is one block, a
    prefix of L plus one word.  Above, block h is L plus one word, that of
    block h - 1 plus P[t] = G_a + ... + G_(a+t), t being the lowest nonzero
    base-p digit of h: from h - 1 to h, digits 0 .. t - 1 wrap from p - 1
    to 0 (each +1 mod p) and digit t goes up by 1.  So the blocks stay in
    index order, one add apart."""
    p, e, G = ctx.p, ctx.e, _pack(ctx, _digit_matrix(ctx, rows))
    add, width = partial(_add_mod, p), G.itemsize * len(G)
    a = sum(p**t * width <= _BLOCK for t in range(1, G.shape[1] + 1))
    L = np.zeros((len(G), 1), G.dtype)
    for t in range(a):
        L = np.concatenate([*accumulate(repeat(G[:, t:t + 1], p - 1), add, initial=L)], axis=1)
    P = [*accumulate((G[:, t:t + 1] for t in range(a, G.shape[1])), add)]
    # odd p: each block's sum and its wrap reuse two buffers, as freeing
    # them per block faulted them back in from the system
    bufs = () if p == 2 else (np.empty_like(L), np.empty_like(L))
    for j in range(first, len(rows)):
        A, word = L[:, :p ** min(e * j, a)], G[:, e * j:e * j + 1]
        out = [b[:, :A.shape[1]] for b in bufs]
        for h in range(p ** max(e * j - a, 0)):
            if h:  # t: the lowest nonzero base-p digit of h
                t = 0
                while h % p ** (t + 1) == 0:
                    t += 1
                word = add(word, P[t])
            yield _weights(ctx, _add_mod(p, A, word, *out))


def span_min_weight(
    ctx: FieldContext, rows, limit: int, *, subcode_rows: int = 0
) -> int:
    """Exact minimum symbol weight over the words of the GF(q)-span of rows
    outside the span of its first `subcode_rows` rows (with the default 0,
    the nonzero words): those of index p^(e * subcode_rows) and up, where
    _blocks starts."""
    _price(limit, ctx.q, len(rows))
    if subcode_rows >= len(rows):
        raise ValueError("span has no words outside the subcode")
    best = min(int(w.min()) for w in _blocks(ctx, rows, subcode_rows))
    if best == 0:
        raise AssertionError("generators are linearly dependent")
    return best


def sampled_min_weight(ctx: FieldContext, rows, sample: int, seed: int) -> int:
    """Least weight among the GF(p)-generators of the span of rows and
    `sample` random GF(p)-combinations of them: an upper bound on the
    minimum nonzero weight.  The coefficients come from the standard
    library's random.Random(seed), four bytes each taken mod p (bias below
    p / 2^32), and are weighed a slice at a time, the slice's two int64
    products at most _BLOCK bytes."""
    D = _digit_matrix(ctx, rows)
    rng, dim = random.Random(seed), D.shape[1]
    step = max(1, _BLOCK // (16 * len(D)))
    weights = [_weights(ctx, D)]  # all single generators first
    for start in range(0, sample, step):
        count = min(step, sample - start)
        coefs = np.frombuffer(rng.randbytes(4 * count * dim), "<u4") % ctx.p
        weights.append(_weights(ctx, D @ coefs.reshape(count, dim).T % ctx.p))
    w = np.concatenate(weights)
    return int(w[w > 0].min())


def _light_word(ctx: FieldContext, rows, bound: int) -> bool:
    """Whether the GF(q)-span of rows holds a nonzero word of weight below
    bound, decided from the messages of one information set.

    In the RREF R of rows the pivots carry the identity, so the word u R
    weighs wt(u) + wt(u P), P being R's other columns.  A word below bound
    has 1 <= wt(u) < bound, and scaling keeps a weight, so only the messages
    of weight 1 .. bound - 1 with first nonzero coefficient 1 are weighed
    (the first step of Prange's and Lee-Brickell's information-set methods):
    sum over i < bound of C(k, i) (q - 1)^(i - 1) words, never more than the
    walk's (q^k - 1)/(q - 1).  The words u P are packed as the walk packs
    its words and formed by weight class, a chunk of supports and
    coefficients at a time, so no chunk's array is over _BLOCK bytes.
    """
    R, pivots = gf.rref(ctx, rows)
    k, q, p = len(R), ctx.q, ctx.p
    if len(pivots) < k:
        raise AssertionError("generators are linearly dependent")
    # row j (q - 1) + l - 1 of W is the packed word l P[j], label l != 0
    P = np.delete(R, pivots, axis=1)
    W = _pack(ctx, _digit_matrix(ctx, P, np.arange(1, q))).T.copy()
    width = W.itemsize * W.shape[1]
    for i in range(1, min(bound - 1, k) + 1):
        tuples = (q - 1) ** (i - 1)  # coefficient tuples per support
        # words a chunk: they, and their i int64 row indices each, fit in _BLOCK
        chunk = max(1, _BLOCK // max(width, 8 * i))
        supports = combinations(range(k), i)
        while (S := np.fromiter(chain.from_iterable(islice(supports, max(1, chunk // tuples))),
                                np.intp).reshape(-1, i)).size:
            for start in range(0, tuples, chunk):
                # at[s] picks the rows of W for the support's s-th position:
                # coefficient 1 at s = 0, and after it 1 plus digit s - 1 of
                # the coefficient tuple's index in base q - 1
                t = np.arange(start, min(start + chunk, tuples))
                at = np.repeat((S.T * (q - 1))[:, :, None], len(t), axis=2)
                for s in range(1, i):
                    t, label = np.divmod(t, q - 1)
                    at[s] += label
                words = W[at[0].ravel()]
                for s in range(1, i):
                    words = _add_mod(p, words, W[at[s].ravel()])
                if (_weights(ctx, words.T) < bound - i).any():
                    return True
    return False


# ----------------------------------------------------------------------
# code distances
# ----------------------------------------------------------------------

def min_distance_bruteforce(code: CyclicCode, budget=OracleBudget()) -> int:
    """Exact minimum Hamming distance by enumerating all q^k codewords
    generated by g(x)."""
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    _price(budget.max_enumeration, code.q, code.k)  # before g(x) is built
    return span_min_weight(
        code.base, cyclic.codeword_basis(code), budget.max_enumeration
    )


def verify_min_distance_at_least(code: CyclicCode, bound: int,
                                 budget=OracleBudget()) -> bool:
    """True iff every nonzero codeword has weight >= bound, decided by
    _light_word on the shifts of g(x), without the exact minimum.  The code
    is priced at its q^k words, as for min_distance_bruteforce, before g(x)
    is built."""
    if code.k == 0:
        return True
    _price(budget.max_enumeration, code.q, code.k)
    return not _light_word(code.base, cyclic.codeword_basis(code), bound)


def _css_sides(pair, limit: int):
    """A CSS pair's sides, each a code and its subcode: (C1, C2) and (C2-dual,
    C1-dual), priced by k1 and n - k2 before either dual is built."""
    _price(limit, pair.q, pair.outer.k)
    _price(limit, pair.q, pair.n - pair.inner.k)
    return ((pair.outer, pair.inner),
            (cyclic.dual_code(pair.inner), cyclic.dual_code(pair.outer)))


def css_distance_at_least(pair, bound: int, budget=OracleBudget()) -> bool | None:
    """Whether C1 and the dual of C2 both have minimum distance >= bound,
    so that the CSS pair reaches it, each side decided by
    verify_min_distance_at_least; None when either side's q^k words are
    over budget (always at budget 0)."""
    try:
        sides = _css_sides(pair, budget.max_enumeration)
    except BudgetError:
        return None
    return all(verify_min_distance_at_least(code, bound, budget) for code, _ in sides)


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
    return min(
        span_min_weight(
            code.base,
            np.vstack([cyclic.codeword_basis(sub),
                       cyclic.codeword_basis(code)[:code.k - sub.k]]),
            budget.max_enumeration,
            subcode_rows=sub.k,
        )
        for code, sub in _css_sides(pair, budget.max_enumeration)
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
        # the fields in order; asdict would deep-copy these ints and strs
        return dict(vars(self))


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
    del seen

    # parity structure (odd q only)
    if q % 2 == 1:
        bad = np.flatnonzero(part.mixed())[:3].tolist()
        report.add(q, m, "parity-uniform", not bad,
                   f"mixed-parity cosets: {list(map(part.coset, bad))}" if bad else "")
        # a singleton {x} never holds x + 1, as n >= 2 for odd q
        def consec(b):
            return (part.owner[(E[b] + 1) % n] == np.arange(b.start, b.stop)[:, None]).any(axis=1)
        bad = np.flatnonzero(cs._by_blocks(consec, len(reps)))[:3].tolist()
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

    # complementary-coset properties, each mask built a block of rows at a
    # time and freed before the next; a failing check names its last failing
    # coset
    comp = part.complements()
    zero = part.oplus(comp) == part.owner[0]
    failing = {
        "complement-unique":
            lambda b: (part.owner[(n - E[b]) % n] != comp[b, None]).any(axis=1),
        "complement-cardinality": lambda b: cards[comp[b]] != cards[b],
        "complement-oplus-zero": lambda b: ~zero[b],
        "complement-gap-equal": lambda b: gaps[comp[b]] != gaps[b],
        "complement-involution": lambda b: comp[comp[b]] != np.arange(b.start, b.stop),
    }
    for check, mask in failing.items():
        last = np.flatnonzero(cs._by_blocks(mask, len(reps)))[-1:].tolist()
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
    # full-size cosets, and its final elements a prefix of the consecutive run;
    # c is admissible iff c q + 1 < q^ceil(m/2) - 1
    cmax = max(0, min(q, (q ** ((m + 1) // 2) - 3) // q))
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
    # q >= 2 and m >= 20 is past the cap, as in cosets.partition: q^m is not built
    over = [(q, m) for q, m in pairs if q >= 2 and m >= 20 or q**m - 1 > cs.MAX_MODULUS]
    report = SweepReport()
    for q, m in over:
        report.add(q, m, "all", None, f"modulus over cap {cs.MAX_MODULUS}")
    for q, m in sorted(set(pairs).difference(over)):
        _sweep_pair(report, q, m)
    return report
