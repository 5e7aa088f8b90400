from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcodes import cosets, css, cyclic, oracle
from cosetcodes.oracle import (
    BudgetError,
    OracleBudget,
    coset_theorem_sweep,
    css_true_distance,
    min_distance_bruteforce,
    span_min_weight,
    verify_min_distance_at_least,
)


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
    add = [[ctx.add(a, b) for b in range(ctx.q)] for a in range(ctx.q)]
    words = {(0,) * code.n}
    for row in cyclic.codeword_basis(code):
        multiples = [[ctx.mul(c, b) for b in row] for c in range(ctx.q)]
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
