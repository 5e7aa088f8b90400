import contextlib
import gc
import json
import random
import time
import tracemalloc
from dataclasses import astuple
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcodes import cli, conv, cosets, css, cyclic, gf, oracle
from cosetcodes.gf import make_field
from cosetcodes.oracle import (
    BudgetError,
    OracleBudget,
    coset_theorem_sweep,
    css_distance_at_least,
    css_true_distance,
    min_distance_bruteforce,
    sampled_min_weight,
    span_min_weight,
    verify_min_distance_at_least,
)

from test_gf import PRIME_POWERS_TO_1024, _ref_add, _ref_mul


# ---------------------------------------------------------------
# exact minimum distances
# ---------------------------------------------------------------

def test_repetition_style_code_has_full_distance():
    code = cyclic.code_from_cosets(3, 2, range(1, 8))
    assert code.k == 1
    assert min_distance_bruteforce(code) == 8


def test_single_coset_code_distance():
    # frozen by enumeration of all 3^6 codewords
    code = cyclic.code_from_cosets(3, 2, [1])
    assert min_distance_bruteforce(code) == 2


def test_block_full_q4_sides_meet_design():
    params = css.family_block_full(4)
    assert min_distance_bruteforce(params.outer) == 4
    assert min_distance_bruteforce(cyclic.dual_code(params.inner)) == 4


def test_distance_at_least_bch_bound():
    for exps in ([1], [0, 1], [1, 2], [0, 1, 2, 3]):
        code = cyclic.code_from_cosets(3, 2, exps)
        assert min_distance_bruteforce(code) >= cyclic.bch_bound(code)


def test_monotone_under_defining_set_inclusion():
    chain = [[1], [1, 2], [1, 2, 4]]
    dists = [min_distance_bruteforce(cyclic.code_from_cosets(3, 2, z))
             for z in chain]
    assert dists == sorted(dists)
    assert dists == [2, 4, 5]


def test_budget_refusal_is_loud():
    code = cyclic.code_from_cosets(5, 2, [0])  # 5^23 codewords
    with pytest.raises(BudgetError):
        min_distance_bruteforce(code)
    with pytest.raises(ValueError):
        min_distance_bruteforce(cyclic.code_from_cosets(3, 2, range(8)))  # k = 0


def test_verify_at_least_fail_fast_and_pass():
    code = cyclic.code_from_cosets(3, 2, [1])  # exact distance 2
    assert verify_min_distance_at_least(code, 2)
    assert not verify_min_distance_at_least(code, 3)


def test_span_min_weight_rejects_overbudget():
    code = cyclic.code_from_cosets(3, 2, [1])
    rows = cyclic.codeword_basis(code)
    with pytest.raises(BudgetError):
        span_min_weight(code.base, rows, limit=10)


def test_budget_refusal_builds_no_generator(monkeypatch):
    def refuse(*args):
        raise AssertionError("generator built for an over-budget code")

    monkeypatch.setattr(gf, "poly_with_roots", refuse)
    with pytest.raises(BudgetError):
        min_distance_bruteforce(cyclic.code_from_cosets(5, 2, [0]))  # 5^23 words


def test_span_refusal_names_the_power_not_its_digits():
    # 4^8000 has 4817 decimal digits, past Python's int-to-str limit of 4300
    rows = np.zeros((8000, 5), np.int64)
    with pytest.raises(BudgetError, match=r"^span of 4\^8000 words exceeds budget 10000000$"):
        span_min_weight(gf.field_for(4), rows, 10**7)


@settings(max_examples=300, deadline=None)
@given(pe=st.sampled_from(PRIME_POWERS_TO_1024), dim=st.integers(0, 3000),
       limit=st.integers(0, 10**12), shift=st.integers(-2, 2), at_edge=st.booleans())
@example(pe=(2, 1), dim=0, limit=0, shift=0, at_edge=False)
@example(pe=(2, 1), dim=1, limit=0, shift=0, at_edge=False)
@example(pe=(2, 1), dim=0, limit=2**39, shift=0, at_edge=True)
@example(pe=(2, 1), dim=0, limit=2**39 - 1, shift=-1, at_edge=True)
@example(pe=(2, 10), dim=0, limit=10**12, shift=1, at_edge=True)
def test_price_refuses_exactly_over_budget(pe, dim, limit, shift, at_edge):
    # at_edge puts dim within 2 of limit.bit_length(), where the gate
    # switches from forming q^dim to refusing without it
    q = pe[0] ** pe[1]
    if at_edge:
        dim = max(0, limit.bit_length() + shift)
    if q**dim > limit:
        with pytest.raises(BudgetError, match=rf"^span of {q}\^{dim} words exceeds budget {limit}$"):
            oracle._price(limit, q, dim)
    else:
        oracle._price(limit, q, dim)


# ---------------------------------------------------------------
# the span enumerator against a scalar reference
# ---------------------------------------------------------------

def _reference_generators(ctx, rows):
    """row * x^s for every row and s < e, the GF(p)-generators in index
    order, in plain Python."""
    return [[_ref_mul(ctx, ctx.p**s, v) for v in row] for row in rows for s in range(ctx.e)]


def _reference_weight(ctx, gens, coefs):
    """Symbol weight of the GF(p)-combination sum_t coefs[t] * gens[t]."""
    word = [0] * len(gens[0])
    for c, g in zip(coefs, gens):
        word = [_ref_add(ctx, w, _ref_mul(ctx, int(c), x)) for w, x in zip(word, g)]
    return sum(1 for w in word if w)


def _reference_min_weight(ctx, rows, subcode_rows):
    """Least weight over the combinations whose index is at least
    p^(e * subcode_rows), digit t of the index being generator t's
    coefficient."""
    gens = _reference_generators(ctx, rows)
    p = ctx.p
    return min(
        _reference_weight(ctx, gens, [i // p**t % p for t in range(len(gens))])
        for i in range(p ** (ctx.e * subcode_rows), p ** len(gens))
    )


# GF(2), GF(3), GF(4), GF(5), GF(8), GF(9), each with at most 729 words
ENUM_FIELDS = {(2, 1): 9, (3, 1): 6, (2, 2): 4, (5, 1): 4, (2, 3): 3, (3, 2): 3}
# for p = 2 the walk packs 64 symbols in a word: lengths on either side of
# one and two word boundaries, with at most 64 codewords per span
WORD_EDGES = [63, 64, 65, 127, 129]


@st.composite
def span_cases(draw):
    (p, e), kmax = draw(st.sampled_from(sorted(ENUM_FIELDS.items())))
    lengths = st.integers(1, 6)
    if p == 2:
        lengths |= st.sampled_from(WORD_EDGES)
    n = draw(lengths)
    k = draw(st.integers(1, kmax if n <= 6 else 6 // e))
    rows = [[draw(st.integers(0, p**e - 1)) for _ in range(n)] for _ in range(k)]
    subcode_rows = draw(st.integers(0, k - 1))
    # tiny blocks, in bytes, make the walk cross many of them, with the
    # subcode boundary inside the first block, on a block edge or beyond it
    block = draw(st.sampled_from([1, 4, oracle._BLOCK]) | st.integers(1, 1024))
    return (p, e), rows, subcode_rows, block


I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
I4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
# one nonzero symbol, the last: in the top bit of a word (n = 64) or alone
# in the next word (n = 65, 129), in a digit other than the lowest
LAST_64 = [[0] * 63 + [2], [1, 3] * 32]
LAST_65 = [[0] * 64 + [3], [2] * 65]
LAST_129 = [[0] * 128 + [6], [3] * 128 + [5]]


@settings(max_examples=80, deadline=None)
@given(span_cases())
# a block of 4 bytes holds one word here; the companions at 4 words (32
# bytes for one uint64 plane, 24 for GF(9)'s 6 digits, 96 for GF(8)'s three
# planes) put the edges at 4 and 3 words, as these comments name them
@example(((2, 1), I3, 1, 4))  # first index 2, inside block 0
@example(((2, 1), I3, 2, 4))  # first index 4, on a block edge
@example(((2, 1), I4, 3, 4))  # first index 8, past block 0
@example(((3, 2), [[1, 5, 0], [0, 1, 7]], 1, 4))  # GF(9): 9 past 3
@example(((2, 3), [[1, 3], [6, 1]], 1, 4))        # GF(8): 8 on an edge
@example(((2, 1), I3, 1, 32))
@example(((2, 1), I3, 2, 32))
@example(((2, 1), I4, 3, 32))
@example(((3, 2), [[1, 5, 0], [0, 1, 7]], 1, 24))
@example(((2, 3), [[1, 3], [6, 1]], 1, 96))
@example(((3, 1), [[1, 2, 0], [2, 1, 0]], 0, 4))  # dependent rows
@example(((2, 2), [[1, 0], [0, 1], [1, 1]], 1, 4))
@example(((2, 1), [[1, 0, 0], [1, 0, 0], [0, 1, 0]], 2, 4))  # dependent subcode
@example(((2, 2), LAST_64, 0, 4))
@example(((2, 2), LAST_64, 1, 4))
@example(((2, 2), LAST_65, 0, oracle._BLOCK))
@example(((2, 3), LAST_129, 0, 4))
@example(((2, 3), LAST_129, 1, oracle._BLOCK))
# one word per GF(q)-line: with blocks of 4 words (the companions' bytes:
# 16 and 20 for 4 and 5 GF(5) digits, 96 for three planes, 32 for GF(9)'s 8
# digits), q^subcode_rows >= 4 skips block 0, and each range [q^j, 2 q^j)
# starts on a block edge; the least weight lies only in the second half of
# the top range
@example(((5, 1), [[0, 4, 0, 4], [4, 0, 1, 4], [4, 3, 2, 0]], 1, 4))
@example(((5, 1), [[1, 3, 3, 0, 0], [2, 0, 0, 0, 0], [1, 0, 4, 3, 3], [1, 3, 0, 3, 1]], 2, 4))
@example(((2, 3), [[2, 1, 0, 0], [1, 1, 2, 2], [3, 5, 5, 1]], 1, 4))
@example(((3, 2), [[0, 3, 0, 5], [3, 5, 7, 3], [4, 5, 2, 4]], 1, 4))
@example(((5, 1), [[0, 4, 0, 4], [4, 0, 1, 4], [4, 3, 2, 0]], 1, 16))
@example(((5, 1), [[1, 3, 3, 0, 0], [2, 0, 0, 0, 0], [1, 0, 4, 3, 3], [1, 3, 0, 3, 1]], 2, 20))
@example(((2, 3), [[2, 1, 0, 0], [1, 1, 2, 2], [3, 5, 5, 1]], 1, 96))
@example(((3, 2), [[0, 3, 0, 5], [3, 5, 7, 3], [4, 5, 2, 4]], 1, 32))
# one least-weight line, r0 + a r1 with a = x (label 2) in GF(4): the walk
# meets it only as r1 + a^2 r0, and in GF(9) only as r1 + x r0 (label 3)
@example(((2, 2), [[2, 1, 1, 2], [1, 0, 2, 1]], 0, oracle._BLOCK))
@example(((3, 2), [[8, 1, 5, 6], [5, 3, 8, 7]], 0, 4))
# minimum weights above 255, the largest an 8-bit count holds
@example(((3, 1), [[1] * 300], 0, oracle._BLOCK))
@example(((2, 1), [[1] * 300], 0, oracle._BLOCK))
def test_span_min_weight_matches_reference(case):
    (p, e), rows, subcode_rows, block = case
    ctx = make_field(p, e)
    k = len(rows)
    # some word outside the subcode's indices is zero iff the rows past the
    # subcode are dependent modulo its span
    dependent = gf.rank(ctx, rows) < gf.rank(ctx, rows[:subcode_rows]) + k - subcode_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BLOCK", block)
        if dependent:
            with pytest.raises(AssertionError, match="linearly dependent"):
                span_min_weight(ctx, rows, ctx.q**k, subcode_rows=subcode_rows)
            return
        got = span_min_weight(ctx, rows, ctx.q**k, subcode_rows=subcode_rows)
    assert got == _reference_min_weight(ctx, rows, subcode_rows)


def test_span_min_weight_does_not_depend_on_the_split():
    # 4^10 words of weight >= 4, 16 bytes each: L holds 2^12, 2^6 and 1 of
    # them at 2^16, 2^10 and 2^4 bytes, and 2^16, 2^10 and 2^4 at the three
    # companions; each range of 4^j with 2j > a steps its word by prefix
    # sums of the 2j - a generators above L, 18 of them at 2^4 bytes
    code = css.family_block_full(4).outer
    rows = cyclic.codeword_basis(code)
    got = {0: set(), 3: set()}
    for block in (1 << 16, 1 << 10, 1 << 4, 1 << 20, 1 << 14, 1 << 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_BLOCK", block)
            for subcode_rows in got:
                got[subcode_rows].add(span_min_weight(
                    code.base, rows, code.q**code.k, subcode_rows=subcode_rows))
    assert got[0] == {4} and len(got[3]) == 1


def _words_weighed(ctx, rows, subcode_rows, block):
    """span_min_weight's result and the number of columns it weighs, with
    oracle._BLOCK set to block."""
    weighed, weights = [], oracle._weights

    def counting(ctx, words):
        weighed.append(words.shape[1])
        return weights(ctx, words)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BLOCK", block)
        mp.setattr(oracle, "_weights", counting)
        got = span_min_weight(ctx, rows, ctx.q**len(rows), subcode_rows=subcode_rows)
    return got, sum(weighed)


@pytest.mark.parametrize("p,e,k", [(2, 2, 5), (5, 1, 4), (2, 3, 3), (3, 2, 3)])
def test_span_min_weight_walks_one_word_per_line(p, e, k):
    # with one word per block, and with the whole span in block 0 at the
    # real _BLOCK, the walk weighs exactly the words whose top nonzero
    # coefficient is 1: (q^k - q^s) / (q - 1) of the q^k - q^s outside the
    # subcode (GF(4), k = 5, s = 0: 341, not 1023)
    ctx = make_field(p, e)
    q = ctx.q
    for block in (1, oracle._BLOCK):
        for subcode_rows in range(k):
            assert _words_weighed(ctx, np.eye(k, dtype=np.int64), subcode_rows, block) == (
                1, (q**k - q**subcode_rows) // (q - 1))


@pytest.mark.parametrize("subcode_rows", [0, 3, 8, 9])
def test_span_min_weight_walks_one_word_per_line_across_blocks(subcode_rows):
    # 4^10 words at the real _BLOCK, 2^18 bytes or 2^14 words: the ranges of
    # 4^0 .. 4^6 are prefixes of L plus one word, and those of 4^7 .. 4^9
    # whole blocks, L plus one word for each value of the coefficients above
    # L's, 1, 4 and 16 of them (s = 0: 349,525 lines, where walking all of the
    # first block would weigh 360,447 words)
    code = css.family_block_full(4).outer
    rows = cyclic.codeword_basis(code)
    got, weighed = _words_weighed(code.base, rows, subcode_rows, oracle._BLOCK)
    assert weighed == (4**10 - 4**subcode_rows) // 3 and got >= 4


def _traced_peak(call, *args):
    """The traced peak in bytes of call(*args)."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_span_min_weight_peaks_below_one_and_a_half_mb():
    # 4^10 words: L, 2^14 bit-plane words, is 256 KB, and so is each
    # block, so the walk peaks at 0.7 MB; with 2^16-word blocks it peaked
    # at 3.15 MB
    code = css.family_block_full(4).outer
    rows = cyclic.codeword_basis(code)
    peak = _traced_peak(span_min_weight, code.base, rows, code.q**code.k)
    assert peak < 1.5e6, f"the walk peaked at {peak / 1e6:.2f} MB"


def test_span_min_weight_holds_nothing_once_it_returns():
    # the walk's tables go when it returns, not with the cyclic collector:
    # a walk that left them in a reference cycle held 256 KB each until the
    # next collection
    code = css.family_block_full(4).outer
    rows = cyclic.codeword_basis(code)
    gc.disable()
    tracemalloc.start()
    try:
        span_min_weight(code.base, rows, code.q**code.k)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 1e5, f"the walk left {held / 1e6:.2f} MB held"


class _Stop(Exception):
    pass


@pytest.mark.parametrize("p,e,k,n", [(2, 1, 34, 64), (2, 2, 17, 15)])
def test_span_min_weight_memory_does_not_follow_the_span(monkeypatch, p, e, k, n):
    # 2^34 and 4^17 words, stopped after three blocks: the walk holds a
    # table of at most _BLOCK bytes, where a table of the high generators'
    # combinations, 2^20 words of 8 and 16 bytes, peaked at 16.9 and 33.8 MB
    ctx = make_field(p, e)
    rows = np.random.default_rng(k).integers(0, ctx.q, (k, n))
    calls, weights = [], oracle._weights

    def stopping(ctx, words):
        if len(calls) == 3:
            raise _Stop
        calls.append(words.shape[1])
        return weights(ctx, words)

    monkeypatch.setattr(oracle, "_weights", stopping)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            span_min_weight(ctx, rows, ctx.q**k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, f"the walk peaked at {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("p,e,k", [(2, 1, 9), (3, 1, 6), (2, 2, 5), (5, 1, 4)])
def test_span_min_weight_does_not_depend_on_the_block_bytes(p, e, k):
    # _BLOCK at width * p^t bytes for every t from 0 to k * e, width being
    # one packed word's bytes: L holds p^t words, and the ranges are
    # prefixes of L, or blocks of p^t words whose word steps by prefix sums
    # of the generators above L; every split weighs one word per line and
    # finds the minimum
    ctx = make_field(p, e)
    q, rng = ctx.q, random.Random(p * k)
    rows = [[int(i == j) for j in range(k)] + [rng.randrange(q) for _ in range(3)]
            for i in range(k)]
    width = oracle._pack(ctx, oracle._digit_matrix(ctx, rows))[:, :1].nbytes
    for subcode_rows in range(k):
        least = _reference_min_weight(ctx, rows, subcode_rows)
        for t in range(k * e + 1):
            assert _words_weighed(ctx, rows, subcode_rows, width * p**t) == (
                least, (q**k - q**subcode_rows) // (q - 1))


@settings(max_examples=60, deadline=None)
@given(span_cases())
# one word per block over GF(3) and GF(4): the word steps through prefix
# sums of up to 5 and 6 generators, its low digits wrapping at each step
@example(((3, 1), [[1, 0, 0, 0, 2, 1], [0, 1, 0, 0, 1, 1], [0, 0, 1, 0, 2, 2],
                   [0, 0, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1], [2, 0, 1, 0, 0, 1]], 0, 1))
@example(((2, 2), [[1, 2, 3], [3, 1, 0], [0, 2, 1], [2, 2, 2]], 1, 4))
def test_span_walk_weighs_its_lines_in_index_order(case):
    # the weights of every block, in the order weighed, are those of the
    # indices [q^j, 2 q^j) for j = subcode_rows .. k - 1, in increasing index
    (p, e), rows, subcode_rows, block = case
    ctx = make_field(p, e)
    weighed, weights = [], oracle._weights

    def recording(ctx, words):
        weighed.append(weights(ctx, words))
        return weighed[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BLOCK", block)
        mp.setattr(oracle, "_weights", recording)
        with contextlib.suppress(AssertionError):  # dependent rows weigh a 0
            span_min_weight(ctx, rows, ctx.q ** len(rows), subcode_rows=subcode_rows)
    gens, q = _reference_generators(ctx, rows), ctx.q
    expected = [_reference_weight(ctx, gens, [i // p**t % p for t in range(len(gens))])
                for j in range(subcode_rows, len(rows)) for i in range(q**j, 2 * q**j)]
    assert np.concatenate(weighed).tolist() == expected


def test_span_min_weight_rejects_a_span_inside_its_subcode():
    ctx = make_field(2, 2)
    with pytest.raises(ValueError):
        span_min_weight(ctx, [[1, 2], [0, 1]], 16, subcode_rows=2)


def _reference_sampled(ctx, rows, sample, seed):
    gens = _reference_generators(ctx, rows)
    dim = len(gens)
    coefs = [[int(i == t) for t in range(dim)] for i in range(dim)]
    # four little-endian bytes per coefficient, mod p, all drawn at once
    draws = random.Random(seed).randbytes(4 * sample * dim)
    coefs += [[int.from_bytes(draws[4 * (i * dim + t):4 * (i * dim + t + 1)], "little") % ctx.p
               for t in range(dim)] for i in range(sample)]
    return min(w for w in (_reference_weight(ctx, gens, c) for c in coefs) if w)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 2), (5, 1)]),
    st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5), min_size=1, max_size=3),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
)
def test_sampled_min_weight_matches_reference(field, rows, sample, seed):
    ctx = make_field(*field)
    rows[0][0] = 1  # a nonzero generator, so some weight is positive
    assert sampled_min_weight(ctx, rows, sample, seed) == \
        _reference_sampled(ctx, rows, sample, seed)


@pytest.mark.parametrize("block", [1, 24, 320])
@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 4), min_size=5, max_size=5), min_size=1, max_size=3),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_sampled_min_weight_in_slices_matches_reference(block, rows, sample, seed):
    # over GF(5) the digit matrix has 5 rows, two int64 temporaries of 80
    # bytes per combination, so these slices hold one, one and four
    # combinations: drawn slice by slice, the coefficients are those of one
    # draw of them all
    ctx = make_field(5, 1)
    rows[0][0] = 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BLOCK", block)
        got = sampled_min_weight(ctx, rows, sample, seed)
    assert got == _reference_sampled(ctx, rows, sample, seed)


def test_sampled_min_weight_peaks_below_two_mb():
    # the q = 4 split family's degree-2 kernel, 19 rows of length 45, with
    # 2,000 draws: each slice's two int64 products hold at most _BLOCK
    # bytes, so the call peaks near 0.5 MB; one int64 product over all 2,038
    # combinations peaked at 3.58 MB
    G = conv.family_split(4).generator
    kernel = gf.nullspace(G.field, conv._sliding_check_stack(G, 2))
    peak = _traced_peak(sampled_min_weight, G.field, kernel, 2000, 0)
    assert peak < 2e6, f"the sampled search peaked at {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------
# the low-weight test on an information set
# ---------------------------------------------------------------

# (q, m), n = q^m - 1, and the largest k a drawn code may have: at most
# 6,561 words for the reference enumeration
LIGHT_FIELDS = {(2, 4): 12, (2, 5): 12, (3, 2): 8, (3, 3): 8, (4, 2): 6,
                (5, 2): 5, (7, 2): 4, (8, 2): 4, (9, 2): 4}


@st.composite
def small_cyclic_codes(draw, kmax=12):
    """A cyclic code over GF(2), GF(3), GF(4), GF(5), GF(7), GF(8) or GF(9)
    whose nonzeros are drawn cosets, each kept while k stays at most kmax
    and the field's bound."""
    (q, m), most = draw(st.sampled_from(sorted(LIGHT_FIELDS.items())))
    most = min(most, kmax)
    parts = cosets.all_cosets(q, m)
    order = draw(st.permutations(range(len(parts))))
    kept, k = set(), 0
    for j in order[:draw(st.integers(1, len(parts)))]:
        if k + parts[j].cardinality <= most:
            kept.add(j)
            k += parts[j].cardinality
    return cyclic.code_from_cosets(q, m, [c.rep for j, c in enumerate(parts) if j not in kept])


def _light_word_answers(code, block=None):
    """verify_min_distance_at_least against min_distance_bruteforce at
    every bound from 1 to d + 2, with _BLOCK at block bytes if given."""
    d = min_distance_bruteforce(code)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(oracle, "_BLOCK", block)
        got = [verify_min_distance_at_least(code, bound) for bound in range(1, d + 3)]
    return got, [d >= bound for bound in range(1, d + 3)]


@settings(max_examples=120, deadline=None)
@given(small_cyclic_codes())
# the whole space, where P has no columns and every word of weight 1 has
# wt(u) = 1 = c - 1 at c = 2; and k = 1, d = 8, where no class reaches c - 1
@example(cyclic.code_from_cosets(2, 2, []))
@example(cyclic.code_from_cosets(3, 2, range(1, 8)))
def test_light_word_test_matches_reference(code):
    got, want = _light_word_answers(code)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(small_cyclic_codes(kmax=6), st.integers(1, 1024))
# one word a chunk, each support's tuples split one by one
@example(cyclic.code_from_cosets(4, 2, [0, 1, 2, 3, 5, 7]), 1)
@example(cyclic.code_from_cosets(5, 2, [0, 1, 2, 3, 4, 6, 7, 8, 9, 12, 18, 19]), 1)
def test_light_word_test_in_small_chunks_matches_reference(code, block):
    # chunks of a few words or index rows, so that chunk edges fall inside
    # each weight class: between supports and inside a support's tuples
    got, want = _light_word_answers(code, block)
    assert got == want


def test_light_word_test_rejects_dependent_rows(monkeypatch):
    ctx = make_field(3, 1)
    with pytest.raises(AssertionError, match="linearly dependent"):
        oracle._light_word(ctx, [[1, 2, 0], [2, 1, 0]], 1)
    code = cyclic.code_from_cosets(3, 2, [1])
    rows = cyclic.codeword_basis(code)
    rows[-1] = rows[0]
    monkeypatch.setattr(cyclic, "codeword_basis", lambda code: rows)
    with pytest.raises(AssertionError, match="linearly dependent"):
        verify_min_distance_at_least(code, 2)


def test_css_distance_at_least_does_not_walk_the_span(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("css_distance_at_least walked a span")

    monkeypatch.setattr(oracle, "span_min_weight", refuse)
    params = css.family_block_even(4, 2, 3)
    assert css_distance_at_least(params, 3, OracleBudget(17_000_000)) is True


def test_light_word_test_memory_does_not_follow_the_word_count(monkeypatch):
    # block-full(7)'s C1 at c = 7: k = 37 over GF(7), 1.87e10 light words,
    # stopped after 100 chunks, inside the weight-4 class; one chunk's
    # indices and words are each at most _BLOCK bytes, where the 279,720
    # words of the weight-3 class at once would take about 10 MB
    code = css.family_block_full(7).outer
    rows = cyclic.codeword_basis(code)
    calls, weights = [], oracle._weights

    def stopping(ctx, words):
        if len(calls) == 100:
            raise _Stop
        calls.append(words.shape[1])
        return weights(ctx, words)

    monkeypatch.setattr(oracle, "_weights", stopping)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            oracle._light_word(code.base, rows, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, f"the test peaked at {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------
# CSS distances
# ---------------------------------------------------------------

def test_css_true_distance_small_instance():
    params = css.family_block_full(3)
    assert css_true_distance(params) == 3


def test_css_true_distance_degenerate_pair_is_none():
    code = cyclic.code_from_cosets(3, 2, [0, 1])
    assert css_true_distance(css.css_from_pair(code, code)) is None


def test_css_true_distance_respects_budget():
    params = css.family_block(4, 3)
    with pytest.raises(BudgetError):
        css_true_distance(params, OracleBudget(max_enumeration=10**6))


def test_css_distance_at_least_checks_both_sides():
    params = css.family_block_full(3)
    assert css_distance_at_least(params, 3) is True
    assert css_distance_at_least(params, 4) is False
    assert css_distance_at_least(params, 3, OracleBudget(max_enumeration=242)) is None


def test_css_distance_at_least_over_budget_builds_no_dual(monkeypatch):
    def refuse(code):
        raise AssertionError("dual_code called on an over-budget row")

    monkeypatch.setattr(cyclic, "dual_code", refuse)
    # [[15, 9]]_4: C1 and the dual of C2 both have 4^12 words, over 10^7
    assert css_distance_at_least(css.family_block(4, 3), 3) is None


def test_css_true_distance_over_budget_builds_no_dual(monkeypatch):
    def refuse(code):
        raise AssertionError("dual_code called on an over-budget pair")

    params = css.family_block(4, 3)
    monkeypatch.setattr(cyclic, "dual_code", refuse)
    with pytest.raises(BudgetError):
        css_true_distance(params, OracleBudget(max_enumeration=10**6))


def test_css_distance_at_least_refuses_large_q_without_the_power():
    # C1 has 997^994005 words; pricing from the dimension forms no such int
    params = css.family_block(997, 3)
    start = time.perf_counter()
    assert css_distance_at_least(params, 3) is None
    assert time.perf_counter() - start < 0.5


def _nested_pairs(q, m, cap):
    """Every (outer, inner) pair of defining sets, as coset representatives,
    with outer a union of cosets, inner a superset of it, and at most cap
    words in C1 and in the dual of C2."""
    n = q**m - 1
    partition = cosets.all_cosets(q, m)
    out = []
    # per coset: 0 in neither set, 1 in inner only, 2 in both
    for where in product((0, 1, 2), repeat=len(partition)):
        z1 = [c for c, w in zip(partition, where) if w == 2]
        z2 = [c for c, w in zip(partition, where) if w >= 1]
        k1 = n - sum(c.cardinality for c in z1)
        k2 = n - sum(c.cardinality for c in z2)
        if q**k1 <= cap and q ** (n - k2) <= cap:
            out.append((q, m, [c.rep for c in z1], [c.rep for c in z2]))
    return out


def _reference_span(code):
    """Every GF(q)-combination of the codeword basis, in plain Python."""
    ctx = code.base
    add = [[_ref_add(ctx, a, b) for b in range(ctx.q)] for a in range(ctx.q)]
    words = {(0,) * code.n}
    for row in cyclic.codeword_basis(code):
        multiples = [[_ref_mul(ctx, c, b) for b in row] for c in range(ctx.q)]
        words = {tuple(add[a][b] for a, b in zip(w, mult))
                 for w in words for mult in multiples}
    return words


def _reference_css_distance(outer, inner):
    c1, c2 = _reference_span(outer), _reference_span(inner)
    c1d = _reference_span(cyclic.dual_code(outer))
    c2d = _reference_span(cyclic.dual_code(inner))
    return min((sum(1 for x in w if x) for w in (c1 - c2) | (c2d - c1d)),
               default=None)


# 4^6 words admit no nested pair at (4, 2): k1 <= 6 and n - k2 <= 6 would
# need k2 > k1, so that alphabet takes the least cap that admits one
NESTED_PAIRS = _nested_pairs(3, 2, 4**6) + _nested_pairs(4, 2, 4**8)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(NESTED_PAIRS))
# degenerate: C1 and the dual of C2 have weight-3 words, all inside the
# subcodes, so a side that enumerates any subcode word reads 3, not 6
@example((4, 2, [2, 5, 7, 11], [2, 5, 7, 10, 11]))
def test_css_true_distance_matches_reference(instance):
    q, m, z1, z2 = instance
    outer = cyclic.code_from_cosets(q, m, z1)
    inner = cyclic.code_from_cosets(q, m, z2)
    assert css_true_distance(css.css_from_pair(outer, inner)) == \
        _reference_css_distance(outer, inner)


# ---------------------------------------------------------------
# the coset sweep
# ---------------------------------------------------------------

def test_sweep_small_grid_all_pass():
    report = coset_theorem_sweep([3, 5, 7], [2, 3])
    assert report.passed
    checks = {r.check for r in report.records}
    assert {"parity-uniform", "no-consecutive", "gap-lower-bound",
            "gap-equality-at-one", "complement-unique",
            "complement-cardinality", "complement-oplus-zero",
            "complement-gap-equal", "complement-involution",
            "disjoint-range", "min-representative", "cardinality-range",
            "ladder", "partition"} <= checks


def test_sweep_records_match_the_recorded_sweep(capsys):
    # recorded from the per-coset sweep that the array checks replaced
    path = Path(__file__).parent / "data" / "coset_sweep_records.json"
    expected = [tuple(r) for r in json.loads(path.read_text())]
    grids = (([2, 3, 4, 5, 7, 8, 9], [1, 2, 3]), ([27], [2]))
    assert [astuple(r) for qs, ms in grids
            for r in coset_theorem_sweep(qs, ms).records] == expected
    # the CLI's default grid: prime powers 3 <= q <= 9, 2 <= m <= 3
    assert cli.main(["verify", "cosets", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["q"], r["m"], r["check"], r["status"], r["detail"]) for r in rows] == [
        r for r in expected if 3 <= r[0] <= 9 and r[1] >= 2]


def test_sweep_records_match_the_recorded_short_coset_sweep():
    # m = 4, 5 and 6 hold cosets of 1, 2 and 3 elements below m, whose rows
    # in the partition repeat their orbits; recorded from the sweep that
    # sliced each row to its coset's cardinality
    path = Path(__file__).parent / "data" / "coset_sweep_short_cosets.json"
    expected = [tuple(r) for r in json.loads(path.read_text())]
    assert [astuple(r) for r in
            coset_theorem_sweep([2, 3, 4, 5, 7], [4, 5, 6]).records] == expected


def _corrupted_partition(q, m, swaps, rotations):
    """The partition mod q^m - 1 with the owners of each pair of residues
    in swaps exchanged, and each coset whose representative is in rotations
    listed from its second element, which then stands as its rep.  The
    arrays go into the instance dict, which a cached_property reads first."""
    part = cosets.partition(q, m)
    owner, reps, elements = part.owner.copy(), part.reps.copy(), part.elements.copy()
    for x, y in swaps:
        owner[[x, y]] = owner[[y, x]]
    for rep in rotations:
        i = int(np.flatnonzero(part.reps == rep)[0])
        k = int(part.cards[i])
        elements[i, :k] = np.roll(elements[i, :k], -1)
        reps[i] = elements[i, 0]
    bad = cosets.Partition(q, part.n, m, reps)
    vars(bad).update(owner=owner, cards=part.cards, elements=elements)
    return bad


# the range checks' records, recorded from the per-residue coset_of sweep
# that the array lookups replaced
@pytest.mark.parametrize("q,m,swaps,rotations,expected", [
    # x = 7 and x = 8 now own the cosets of 2 and 4; x = 3 and x = 5 own
    # the singletons {6} and {12}
    (5, 2, [(7, 10), (3, 6), (8, 20), (5, 12)], [], [
        ("disjoint-range", "fail", "cosets of (4, 8) meet"),
        ("min-representative", "fail", "8 is not minimal in its coset"),
        ("cardinality-range", "fail", "coset of 3 is small")]),
    # {1, 3} listed as {3, 1}, {5, 7} as {7, 5}
    (3, 2, [], [1, 5], [
        ("disjoint-range", "pass", "range [1, 6]"),
        ("min-representative", "fail", "5 is not minimal in its coset"),
        ("cardinality-range", "pass", "")]),
    # odd m: x = 2 owns {13}, x = 5 the coset of 4
    (3, 3, [(2, 13), (5, 12)], [], [
        ("disjoint-range", "fail", "cosets of (4, 5) meet"),
        ("min-representative", "skipped", "stated for even m"),
        ("cardinality-range", "fail", "coset of 2 is small")]),
])
def test_sweep_range_checks_fail_on_a_corrupted_partition(
        monkeypatch, q, m, swaps, rotations, expected):
    bad, real = _corrupted_partition(q, m, swaps, rotations), cosets._partition
    monkeypatch.setattr(cosets, "_partition",
                        lambda q_, n: bad if (q_, n) == (q, q**m - 1) else real(q_, n))
    records = coset_theorem_sweep([q], [m]).records
    assert [(r.check, r.status, r.detail) for r in records
            if r.check in {c for c, _, _ in expected}] == expected


def test_sweep_ladder_stops_at_q():
    report = coset_theorem_sweep([3, 4, 5], [5])
    assert report.passed
    ladder = [(r.q, r.detail) for r in report.records if r.check == "ladder"]
    assert ladder == [(3, "c up to 3"), (4, "c up to 4"), (5, "c up to 5")]


def test_sweep_even_q_skips_parity():
    report = coset_theorem_sweep([2], [2])
    rec = next(r for r in report.records if r.check == "parity-uniform")
    assert rec.status == "skipped"
    assert "odd" in rec.detail


def test_sweep_respects_modulus_cap():
    # 3^13 - 1 is over cosets.MAX_MODULUS = 10^6
    report = coset_theorem_sweep([3], [13])
    assert report.records == [
        oracle.CheckRecord(3, 13, "all", "skipped", "modulus over cap 1000000")
    ]


def test_sweep_decides_each_pair_once():
    # 20,000 pairs, all but eleven over the cap: each pair is classified once,
    # and no q^m is built for m >= 20
    t0 = time.perf_counter()
    report = coset_theorem_sweep([3], range(2, 20001))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"the sweep took {elapsed:.2f}s"
    # the skipped pairs come first, then the checked ones, each in order of m
    over = [oracle.CheckRecord(3, m, "all", "skipped", "modulus over cap 1000000")
            for m in range(13, 20001)]
    assert report.records[:len(over)] == over
    assert report.records[len(over):] == coset_theorem_sweep([3], range(2, 13)).records


def test_sweep_refuses_an_invalid_q():
    # q = 1 puts no modulus over the cap, so it reaches the partition, which raises
    with pytest.raises(ValueError, match="need q >= 2"):
        coset_theorem_sweep([1, 3], [2, 25])


def _sweep_peak(qs):
    """The traced peak in bytes of coset_theorem_sweep(qs, [2]), started
    with no partition cached."""
    cosets._partition.cache_clear()
    tracemalloc.start()
    try:
        assert coset_theorem_sweep(qs, [2]).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_keeps_one_partition():
    # three pairs near the modulus cap, n about 10^6 each: the cache lets
    # each pair's partition go before the next is built, so the peak is
    # about one pair's, 18.4 MB against 17.9 MB; it was 25.8 MB while the
    # last partition stayed cached during the next build, and with every
    # partition cached it would be 50.8 MB
    one, three = _sweep_peak([983]), _sweep_peak([983, 991, 997])
    assert three < 1.1 * one, f"three pairs peaked at {three / 1e6:.1f} MB, one at {one / 1e6:.1f} MB"
    assert cosets._partition.cache_info().currsize <= 1


def test_sweep_checks_peak_below_eight_mb():
    # q = 983, m = 2: 483,635 cosets in an 11.6 MB partition, whose arrays
    # are all read before tracing.  The checks read every element a block
    # of orbit rows at a time, so besides one block the sweep holds arrays
    # of one entry per coset (gaps and complements, 1.9 MB each); with
    # (E + 1) % n, (n - E) % n, their owner gathers and oplus's sums over
    # the whole partition it peaked at 15.0 MB
    part = cosets.partition(983, 2)
    part.owner, part.elements, part.cards
    tracemalloc.start()
    try:
        assert coset_theorem_sweep([983], [2]).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"the sweep peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("rows", [1, 5])
def test_sweep_does_not_depend_on_the_block(monkeypatch, rows):
    # 44 cosets at (5, 3): one block at the default size, and 44 or 9 here,
    # the last one short; the whole-partition questions and every record
    part = cosets.partition(5, 3)
    comp = part.complements()
    whole = part.gaps(), part.mixed(), part.oplus(comp)
    records = coset_theorem_sweep([5, 7], [3]).records
    monkeypatch.setattr(cosets, "_ROWS", rows)
    for got, want in zip((part.gaps(), part.mixed(), part.oplus(comp)), whole):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert coset_theorem_sweep([5, 7], [3]).records == records


def test_sweep_report_status_rule():
    report = oracle.SweepReport()
    for ok in (None, True, False):
        report.add(3, 2, "check", ok, "why")
    assert [r.status for r in report.records] == ["skipped", "pass", "fail"]
    assert report.failures == [oracle.CheckRecord(3, 2, "check", "fail", "why")]


def test_sweep_failure_details_name_the_cosets(monkeypatch):
    # every coset is made mixed-parity, and every gap 1
    monkeypatch.setattr(cosets.Partition, "mixed",
                        lambda self: np.ones(len(self.reps), bool))
    monkeypatch.setattr(cosets.Partition, "gaps",
                        lambda self: np.ones(len(self.reps), np.int64))
    report = coset_theorem_sweep([3], [2])
    status = {r.check: (r.status, r.detail) for r in report.records}
    first3 = cosets.all_cosets(3, 2)[:3]
    assert status["parity-uniform"] == ("fail", f"mixed-parity cosets: {first3}")
    assert status["gap-lower-bound"] == ("fail", "L below q-1 at: [(1, 1), (2, 1), (5, 1)]")
    assert status["gap-equality-at-one"] == ("fail", "L of the coset of 1 is 1, expected 2")
    assert status["complement-gap-equal"] == ("pass", "")

    # every coset is made its own complement, though {1, 3} and {5, 7}
    # complement each other
    monkeypatch.setattr(cosets.Partition, "complements",
                        lambda self: np.arange(len(self.reps)))
    report = coset_theorem_sweep([3], [2])
    status = {r.check: (r.status, r.detail) for r in report.records}
    assert status["complement-unique"] == ("fail", "coset 5: complements [1]")
    assert status["complement-oplus-zero"] == ("fail", "coset 5")
    assert status["complement-involution"] == ("pass", "")


def test_sweep_complement_unique_names_a_split_coset(monkeypatch):
    # residue 7 is misfiled with the coset {1, 3}, so the negations 7 and 5
    # of that coset fall in two cosets
    real = cosets.partition(3, 2)
    owner = real.owner.copy()
    owner[7] = owner[1]
    fake = cosets.Partition(3, 8, 2, real.reps)
    vars(fake).update(owner=owner, cards=real.cards, elements=real.elements)
    monkeypatch.setattr(cosets, "_partition", lambda q, n: fake)
    report = coset_theorem_sweep([3], [2])
    status = {r.check: (r.status, r.detail) for r in report.records}
    assert status["complement-unique"] == ("fail", "coset 1: complements [1, 5]")


def test_sweep_complement_failure_names_the_last_failing_coset(monkeypatch):
    # every coset's oplus with its complement is made the coset of 1
    monkeypatch.setattr(cosets.Partition, "oplus",
                        lambda self, other: np.full(len(self.reps), self.owner[1]))
    report = coset_theorem_sweep([3], [2])
    status = {r.check: (r.status, r.detail) for r in report.records}
    last = cosets.all_cosets(3, 2)[-1].rep
    assert status["complement-oplus-zero"] == ("fail", f"coset {last}")
    assert all(status[check] == ("pass", "") for check in (
        "complement-unique", "complement-cardinality",
        "complement-gap-equal", "complement-involution"))
