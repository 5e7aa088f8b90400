import itertools
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcodes import cli, cosets, cyclic, families, gf, verify
from cosetcodes.cyclic import (
    DefiningSet,
    bch_bound,
    code_from_cosets,
    codeword_basis,
    contains_dual,
    dual_code,
    dual_defining_set,
    nested,
    parity_check_matrix,
)
from cosetcodes.gf import Poly, field_for, make_field, subfield_embedding
from cosetcodes.tables import build_table

from test_gf import _ref_add, _ref_mul, _ref_neg, _ref_x_pow_minus_one, _tables
from test_partition import _ref_complementary, _ref_from_exponents


# ---------------------------------------------------------------
# construction
# ---------------------------------------------------------------

def test_code_with_four_leading_cosets_q5():
    code = code_from_cosets(5, 2, [0, 1, 2, 3])
    assert code.defining.size == 7
    assert code.k == 17  # q^2 - 2q + 2
    assert set(code.defining.exponents) == {0, 1, 2, 3, 5, 10, 15}


def test_empty_defining_set_gives_full_code():
    code = code_from_cosets(5, 2, [])
    assert code.k == 24
    assert code.generator.tolist() == [1]
    assert bch_bound(code) == 1


def test_single_coset_code_q3():
    code = code_from_cosets(3, 2, [1])
    assert code.defining.exponents == (1, 3)
    assert code.k == 6


def test_generator_roots_are_exactly_the_defining_set():
    code = code_from_cosets(3, 2, [1])
    emb = subfield_embedding(code.ext, code.base)
    lifted = emb._up[code.generator].tolist()
    exp, _ = _tables(code.ext)
    for z in range(code.n):
        acc = 0
        x = exp[z]
        for c in reversed(lifted):
            acc = _ref_add(code.ext, _ref_mul(code.ext, acc, x), c)
        assert (acc == 0) == (z in code.defining.exponents)


def test_generator_is_built_once_on_first_read(monkeypatch):
    calls = []
    real = gf.poly_with_roots
    monkeypatch.setattr(gf, "poly_with_roots",
                        lambda *args: calls.append(args) or real(*args))
    code = code_from_cosets(4, 2, [1, 2, 3])
    assert calls == []
    g = code.generator
    assert code.generator is g
    assert len(calls) == 1
    assert g.tolist() == real(code.ext, code.q, code.defining.exponents).tolist()


def test_codes_compare_and_hash_on_their_cosets():
    # the same cosets, named by different exponents in a different order
    a = code_from_cosets(5, 2, [7, 1, 0])
    b = code_from_cosets(5, 2, [0, 5, 35, 1])
    assert a == b and hash(a) == hash(b)
    a.generator  # a built generator is not part of the value
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != code_from_cosets(5, 2, [0, 1])


def test_codes_build_their_extension_field_on_first_read():
    # ext is fixed by base and m, so it is no part of a code's value: two
    # codes from the same coset {1, 4} mod 15 are equal whether or not one
    # of them has built GF(16)
    a, b = code_from_cosets(4, 2, [1]), code_from_cosets(4, 2, [4])
    assert "ext" not in vars(a) and "ext" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert a.ext is gf.make_field(2, 4) and a.ext is a.ext
    assert "ext" in vars(a) and "ext" not in vars(b)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_defining_set_closed_under_multiplier():
    ds = DefiningSet.from_exponents(5, 2, [1, 7])
    zs = set(ds.exponents)
    assert {(z * 5) % 24 for z in zs} == zs


# every (q, m) with q in {2, 3, 4, 5, 7, 8, 9} and n = q^m - 1 <= 80
_SMALL_LENGTHS = [(q, m) for q in (2, 3, 4, 5, 7, 8, 9) for m in range(1, 7)
                  if q**m - 1 <= 80]


def _as_poly(code):
    """The code's generator label array as a Poly, for the reference
    product and division."""
    return Poly(code.base, code.generator.tolist())


def _reference_generator(q, m, exponents):
    """The generator the slow way: for each q-cyclotomic coset met by the
    exponents, the scalar product of (x - alpha^j) over its elements in
    GF(q^m), lowered to GF(q); the cosets' polynomials multiplied by
    Poly.__mul__."""
    base = field_for(q)
    ext = make_field(base.p, base.e * m)
    emb = subfield_embedding(ext, base)
    n = q**m - 1
    orbits = {frozenset((i * q**t) % n for t in range(m)) for i in exponents}
    exp, _ = _tables(ext)
    g = Poly(base, [1])
    for orbit in orbits:
        coeffs = [1]
        for j in orbit:
            c = _ref_neg(ext, exp[j])
            nxt = [0] * (len(coeffs) + 1)
            for t, a in enumerate(coeffs):
                nxt[t + 1] = _ref_add(ext, nxt[t + 1], a)
                nxt[t] = _ref_add(ext, nxt[t], _ref_mul(ext, a, c))
            coeffs = nxt
        g = g * Poly(base, emb._down[coeffs].tolist())
    return g


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SMALL_LENGTHS), st.data())
def test_generator_matches_per_coset_reference(qm, data):
    q, m = qm
    n = q**m - 1
    exponents = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    code = code_from_cosets(q, m, exponents)
    assert _as_poly(code) == _reference_generator(q, m, exponents)
    assert _ref_x_pow_minus_one(code.base, n).divmod(_as_poly(code))[1].is_zero


# ---------------------------------------------------------------
# the run-based distance bound
# ---------------------------------------------------------------

def test_bch_bound_run_of_four():
    code = code_from_cosets(5, 2, [0, 1, 2, 3])
    assert bch_bound(code) == 5


@pytest.mark.parametrize("q,s_plus_1", [(5, 1), (5, 2), (5, 3), (7, 4)])
def test_bch_bound_single_coset_is_two(q, s_plus_1):
    code = code_from_cosets(q, 2, [s_plus_1])
    assert bch_bound(code) == 2


def test_bch_bound_wraps_around():
    # q=3, m=2: exponents {7, 0, 1} contain the cyclic run 7, 0, 1
    ds = DefiningSet.from_exponents(3, 2, [7, 0, 1])
    assert set(ds.exponents) == {0, 1, 3, 5, 7}
    assert bch_bound(ds) == 4


def test_bch_bound_full_set():
    ds = DefiningSet.from_exponents(3, 2, range(8))
    assert bch_bound(ds) == 9


# ---------------------------------------------------------------
# duality
# ---------------------------------------------------------------

def test_dual_of_full_code_is_zero_code():
    code = code_from_cosets(5, 2, [])
    assert dual_defining_set(code).exponents == tuple(range(24))


def test_dual_defining_set_of_block_inner_code():
    # inner code excluding the cosets of 6..9 (q=5): its dual's defining
    # set is the negation of the excluded block and carries a length-4 run
    z2 = [x for x in range(24)
          if cosets.coset_of(5, 2, x).rep not in (6, 7, 8, 9)]
    inner = code_from_cosets(5, 2, z2)
    d = dual_code(inner)
    assert d.defining.exponents == (3, 8, 13, 15, 16, 17, 18)
    assert bch_bound(d) == 5
    assert d.k == inner.n - inner.k


def test_self_reciprocal_dual_is_complement():
    # Z = C_1 union C_19 is closed under negation mod 24
    code = code_from_cosets(5, 2, [1, 19])
    dual = dual_defining_set(code)
    assert set(dual.exponents) == set(range(24)) - set(code.defining.exponents)


def _ref_dual_defining_set(code):
    """{0..n-1} minus -Z, residue by residue."""
    n = code.n
    neg = {(-z) % n for z in code.defining.exponents}
    return _ref_from_exponents(code.q, code.m, [x for x in range(n) if x not in neg])


@st.composite
def _exponent_lists(draw):
    """(q, m, exponents) with n = q^m - 1 <= 80: from none to 2n exponents
    in [-2n, 3n), so residues repeat and the defining set falls on either
    side of n/2."""
    q, m = draw(st.sampled_from(_SMALL_LENGTHS))
    n = q**m - 1
    size = draw(st.integers(0, 2 * n))
    return q, m, draw(st.lists(st.integers(-2 * n, 3 * n - 1), min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(_exponent_lists())
@example((3, 2, [])).via("the empty set")
@example((4, 2, [-1, 14, 29, 44, -16, 3])).via("one residue five ways")
@example((2, 6, list(range(-63, 63)))).via("every residue twice")
@example((4, 2, [10**20, -(10**20), 2**63])).via("exponents past int64")
def test_defining_sets_match_per_exponent_reference(case):
    q, m, exponents = case
    assert DefiningSet.from_exponents(q, m, exponents) == _ref_from_exponents(q, m, exponents)
    code = code_from_cosets(q, m, exponents)
    assert dual_defining_set(code) == _ref_dual_defining_set(code)


# the set scans that the residue masks replaced, on sets of Python ints

def _ref_longest_cyclic_run(zs, n):
    """The longest run of consecutive residues mod n in zs, read from each
    run start."""
    if not zs:
        return 0
    if len(zs) == n:
        return n
    best = 0
    for z in sorted(zs):
        if (z - 1) % n in zs:
            continue  # not a run start
        length = 1
        while (z + length) % n in zs:
            length += 1
        best = max(best, length)
    return best


def _ref_contains_dual(zs, n):
    """Z meets -Z nowhere."""
    return not any(-z % n in zs for z in zs)


def _ref_nested(outer_zs, inner_zs):
    """Z(outer) is a subset of Z(inner)."""
    return outer_zs <= inner_zs


def _ref_dual_exponents(zs, n):
    """{0..n-1} minus -Z."""
    return set(range(n)) - {-z % n for z in zs}


def _walked(q, n, exponents):
    return {x for a in exponents for x in cosets._orbit(q, n, a)}


def _ref_css_sets(name, args):
    """Z(outer) and Z(inner) of a CSS family instance, walked: the cosets
    of 0..c-2, and every residue outside the cosets of the family's
    excluded exponents."""
    q, m = args["q"], args.get("m", 2)
    c = args.get("c", q)
    n = q**m - 1
    half = q ** (m // 2)
    excluded = {"css-block-full": range(q + 1, 2 * q), "css-block": range(q + 1, q + c),
                "css-block-even": range(half + 1, half + c),
                "css-ladder": [j * q + 1 for j in range(1, c)]}[name]
    return _walked(q, n, range(c - 1)), set(range(n)) - _walked(q, n, excluded)


_PRIME_POWERS = [q for q in range(2, 101) if len(gf.prime_factors(q)) == 1]

# every CSS family instance of length n <= 10^4 (block with c < q, as
# c = q is block-full)
_CSS_INSTANCES = (
    [("css-block-full", {"q": q}) for q in _PRIME_POWERS[1:]]
    + [("css-block", {"q": q, "c": c}) for q in _PRIME_POWERS[1:] for c in range(2, q)]
    + [(name, {"q": q, "m": m, "c": c}) for q in _PRIME_POWERS[1:] for m in range(1, 9)
       if q**m - 1 <= 10**4 for c in range(2, q + 1)
       for name, admissible in (("css-block-even", m % 2 == 0),
                                ("css-ladder", (c - 1) * q + 1 < q ** ((m + 1) // 2) - 1))
       if admissible])


@st.composite
def _set_pairs(draw):
    """(q, m, xs, ys) with q a prime power, n = q^m - 1 <= 10^4, and each
    exponent list a run, which may wrap, plus a few scattered exponents; ys
    holds xs half the time."""
    q, m = draw(st.sampled_from([(q, m) for q in _PRIME_POWERS for m in range(1, 14)
                                 if q**m - 1 <= 10**4]))
    n = q**m - 1

    def exponents():
        start = draw(st.integers(-2 * n, 3 * n - 1))
        run = list(range(start, start + draw(st.integers(0, min(n, 60)))))
        return run + draw(st.lists(st.integers(-2 * n, 3 * n - 1), max_size=6))

    xs = exponents()
    return q, m, xs, exponents() + (xs if draw(st.booleans()) else [])


@settings(max_examples=120, deadline=None)
@given(_set_pairs(), st.sampled_from(_CSS_INSTANCES))
@example((3, 2, [], [1]), ("css-block", {"q": 5, "c": 3})).via("the empty set")
@example((5, 2, list(range(24)), [0]), ("css-block-full", {"q": 7})).via("the full set")
@example((3, 2, [7, 0, 1], [7, 0, 1, 2]),
         ("css-block-even", {"q": 4, "m": 4, "c": 3})).via("a run from n - 1 to 0")
@example((7, 1, [5, 0, -3], [2]), ("css-ladder", {"q": 4, "m": 4, "c": 3})).via("m = 1")
@example((4, 2, [-5, 99999999999999999999999], [-(10**20), 2**63]),
         ("css-ladder", {"q": 5, "m": 3, "c": 5})).via("negative and past-int64 exponents")
def test_mask_operations_match_the_set_references(case, instance):
    q, m, xs, ys = case
    n = q**m - 1
    z1, z2 = _walked(q, n, xs), _walked(q, n, ys)
    a, b = code_from_cosets(q, m, xs), code_from_cosets(q, m, ys)
    assert a.defining == _ref_from_exponents(q, m, xs)
    assert a.defining.exponents == tuple(sorted(z1)) and a.k == n - len(z1)
    assert bch_bound(a) == 1 + _ref_longest_cyclic_run(z1, n)
    assert contains_dual(a) is _ref_contains_dual(z1, n)
    assert nested(a, b) is _ref_nested(z1, z2) and nested(b, a) is _ref_nested(z2, z1)
    dual = dual_defining_set(a)
    assert dual == _ref_dual_defining_set(a)
    assert set(dual.exponents) == _ref_dual_exponents(z1, n)
    assert bch_bound(dual) == 1 + _ref_longest_cyclic_run(_ref_dual_exponents(z1, n), n)
    name, args = instance
    params = families.BY_NAME[name].build(**args)
    outer, inner = _ref_css_sets(name, args)
    assert params.outer.defining.exponents == tuple(sorted(outer))
    assert params.inner.defining.exponents == tuple(sorted(inner))
    assert cyclic.nested(params.outer, params.inner) is _ref_nested(outer, inner)
    assert params.distance_lb == 1 + min(
        _ref_longest_cyclic_run(outer, params.n),
        _ref_longest_cyclic_run(_ref_dual_exponents(inner, params.n), params.n))


def test_contains_dual_examples():
    assert contains_dual(code_from_cosets(5, 2, [1])) is True
    assert contains_dual(code_from_cosets(5, 2, [0])) is False
    assert contains_dual(code_from_cosets(5, 2, [1, 19])) is False


def test_nested_examples():
    outer = code_from_cosets(5, 2, range(4))
    z2 = [x for x in range(24)
          if cosets.coset_of(5, 2, x).rep not in (6, 7, 8, 9)]
    inner = code_from_cosets(5, 2, z2)
    assert nested(outer, inner) is True
    assert nested(outer, outer) is True
    a = code_from_cosets(5, 2, [1])
    b = code_from_cosets(5, 2, [2])
    assert nested(a, b) is False
    with pytest.raises(ValueError):
        nested(a, code_from_cosets(3, 2, [1]))


# ---------------------------------------------------------------
# parity-check matrices
# ---------------------------------------------------------------

def test_check_matrix_ranks_q4():
    parent = code_from_cosets(4, 2, [0, 1, 2, 3, 5, 6, 7])
    assert len(parity_check_matrix(parent, [0, 1, 2, 3, 5, 6, 7])) == 12
    assert len(parity_check_matrix(parent, [0, 1, 2, 3])) == 7
    assert len(parity_check_matrix(parent, [5, 6, 7])) == 5


def test_check_matrix_all_ones_row():
    code = code_from_cosets(5, 2, [0])
    H = parity_check_matrix(code, [0])
    assert H.tolist() == [[1] * 24]


def test_check_matrix_rejects_bad_exponent():
    code = code_from_cosets(5, 2, [0])
    with pytest.raises(ValueError):
        parity_check_matrix(code, [24])


@pytest.mark.parametrize("q,m,exps", [
    (3, 2, [1]), (3, 2, [0, 1]), (5, 2, [0, 1, 2, 3]), (4, 2, [1, 5]),
])
def test_codewords_lie_in_check_matrix_nullspace(q, m, exps):
    code = code_from_cosets(q, m, exps)
    H = parity_check_matrix(code, code.defining.reps)
    assert len(H) == code.n - code.k
    assert not gf.mat_vec(code.base, H, codeword_basis(code)).any()


def _ref_parity_check_matrix(code, rows):
    """The whole-matrix form: every exponent's row expanded, then the first
    maximal independent subset of all the expanded rows."""
    n = code.n
    rows = np.array(rows, dtype=np.int64)
    raw = gf.expand_matrix(code.ext, code.base,
                           code.ext._np_exp[np.outer(rows, np.arange(n)) % n])
    return raw[gf.independent_rows(code.base, raw)]


# small lengths: q^m - 1 <= 255
CHECK_MATRIX_GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                     (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (8, 1), (8, 2), (9, 1),
                     (9, 2), (16, 1), (16, 2)]


@st.composite
def check_matrix_rows(draw):
    """(q, m, exponents) with plain repeats and same-coset pairs
    (a, a q^j mod n) mixed in anywhere."""
    q, m = draw(st.sampled_from(CHECK_MATRIX_GRID))
    n = q**m - 1
    rows = draw(st.lists(st.integers(0, n - 1), max_size=8))
    for a in draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else ():
        rows.insert(draw(st.integers(0, len(rows))),
                    a * q ** draw(st.integers(0, m - 1)) % n)
    return q, m, rows


@settings(max_examples=200, deadline=None)
@given(check_matrix_rows())
@example((4, 2, [1, 4]))
@example((9, 2, [1, 9, 1, 0, 0]))
@example((2, 4, []))
def test_check_matrix_matches_whole_matrix_selection(case):
    q, m, rows = case
    code = code_from_cosets(q, m, rows)
    assert parity_check_matrix(code, rows).tolist() == \
        _ref_parity_check_matrix(code, rows).tolist()


def test_check_matrix_over_gf2_peaks_below_three_and_a_half_stacks(monkeypatch):
    # a cold build, with the field built and no block kept: the (3, 12, 4095)
    # stack is 0.59 MB in int32 (1.18 MB in int64); the elimination copies it
    # once and XORs each step's int32 product into that copy.  The bound
    # stays at 3.5 int64 stacks, 4.13 MB: the build takes about 3.0 MB, and
    # took 3.77 MB while expand_matrix returned int64
    code = code_from_cosets(2, 12, [1, 3, 5])
    blocks, _ = cyclic.check_matrix_blocks(code, [1, 3, 5])
    monkeypatch.setattr(cyclic, "_BLOCKS", {})
    tracemalloc.start()
    try:
        H = parity_check_matrix(code, [1, 3, 5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.shape == (36, 4095) and blocks.dtype == np.int32
    assert peak < 3.5 * blocks.size * 8, f"peaked at {peak / 1e6:.2f} MB"


@st.composite
def overlapping_rows(draw):
    """(q, m, A, B): rows B that overlap the rows A in exponents, in other
    exponents of the same cosets, and in new cosets."""
    q, m, warm = draw(check_matrix_rows())
    n = q**m - 1
    same = st.tuples(st.sampled_from(warm), st.integers(0, m - 1)).map(
        lambda a: a[0] * q ** a[1] % n) if warm else st.nothing()
    return q, m, warm, draw(st.lists(st.one_of(same, st.integers(0, n - 1)), max_size=8))


@settings(max_examples=200, deadline=None)
@given(overlapping_rows())
@example((4, 2, [1, 5], [4, 5, 2, 1]))
@example((2, 4, [], [3, 0]))
def test_kept_blocks_give_the_cold_check_matrix(case):
    q, m, warm, rows = case
    code = code_from_cosets(q, m, warm)
    cyclic._BLOCKS.clear()
    cold = parity_check_matrix(code, rows)
    cyclic._BLOCKS.clear()
    parity_check_matrix(code, warm)
    H = parity_check_matrix(code, rows)
    assert (H.dtype, H.shape, H.tobytes()) == (cold.dtype, cold.shape, cold.tobytes())
    assert H.tolist() == _ref_parity_check_matrix(code, rows).tolist()


def test_kept_blocks_are_read_only_and_check_matrices_are_copies(monkeypatch):
    monkeypatch.setattr(cyclic, "_BLOCKS", {})
    code = code_from_cosets(4, 2, [1, 2, 3])
    blocks, keep = cyclic.check_matrix_blocks(code, [1, 2])  # a cold build, returned itself
    kept = cyclic._BLOCKS[code.ext, code.base]
    assert sorted(kept) == [1, 2]
    for block, mask in [(blocks, keep), *kept.values()]:
        assert not block.flags.writeable and not mask.flags.writeable
    H = parity_check_matrix(code, [2, 3, 1])  # one new block, stacked with the kept ones
    expected = H.tolist()
    H[:] = 0
    assert parity_check_matrix(code, [2, 3, 1]).tolist() == expected
    assert parity_check_matrix(code, [1, 2]).tolist() == blocks[keep].tolist()


def _expanded_rows(monkeypatch):
    """The row count of each gf.expand_matrix call from now on, with no
    block kept."""
    calls, expand = [], gf.expand_matrix
    monkeypatch.setattr(cyclic, "_BLOCKS", {})
    monkeypatch.setattr(gf, "expand_matrix",
                        lambda ext, base, rows: calls.append(len(rows)) or expand(ext, base, rows))
    return calls


def test_table_3_expands_each_coset_block_once(monkeypatch):
    # 557 blocks in 66 calls while each call expanded all of its rows
    calls = _expanded_rows(monkeypatch)
    build_table(3)
    assert (sum(calls), len(calls)) == (138, 8)


def test_verify_all_expands_each_coset_block_once(monkeypatch):
    # 460 blocks in 63 calls while each call expanded all of its rows
    calls = _expanded_rows(monkeypatch)
    assert cli.main(["verify", "all", "--format", "json", "--out", os.devnull]) == 0
    assert (sum(calls), len(calls)) == (190, 9)


# ---------------------------------------------------------------
# algebraic identities (small sample; the full sweep runs in acceptance)
# ---------------------------------------------------------------

@pytest.mark.parametrize("q,m,exps", [
    (3, 2, [1]), (3, 2, [0, 2, 5]), (5, 2, [0, 1, 2, 3]),
    (7, 2, [1, 9]), (4, 3, [1, 3]),
])
def test_generator_times_check_poly_is_xn_minus_one(q, m, exps):
    code = code_from_cosets(q, m, exps)
    g = _as_poly(code)
    h, rem = _ref_x_pow_minus_one(code.base, code.n).divmod(g)
    assert rem.is_zero
    assert g * h == _ref_x_pow_minus_one(code.base, code.n)


def _ref_is_generator(code):
    """The code's generator g generates it, by polynomial division alone:
    g*h = x^n - 1 for the quotient h of Poly.divmod, g is monic of degree
    |Z|, and x - alpha^z divides g, lifted into the extension, for each z
    in Z."""
    g = _as_poly(code)
    xn1 = _ref_x_pow_minus_one(code.base, code.n)
    if g.is_zero:
        return False
    h, rem = xn1.divmod(g)
    if not (rem.is_zero and g * h == xn1):
        return False
    if g.degree != code.defining.size or g.coeffs[-1] != 1:
        return False
    ext, up = code.ext, subfield_embedding(code.ext, code.base)._up
    lifted = Poly(ext, [int(up[c]) for c in g.coeffs])
    return all(lifted.divmod(Poly(ext, [_ref_neg(ext, int(ext._np_exp[z])), 1]))[1].is_zero
               for z in code.defining.exponents)


@st.composite
def generator_candidates(draw):
    """Codes over one identity-sweep field pair, each a random union of up
    to four cosets, each with a candidate generator: its own, that of
    another random union, or its own with one coefficient changed."""
    q, m = draw(st.sampled_from(verify._identity_instances()))
    reps = cosets.partition(q, m).reps.tolist()
    unions = st.lists(st.sampled_from(reps), max_size=4)
    out = []
    for _ in range(draw(st.integers(1, 4))):
        code = code_from_cosets(q, m, draw(unions))
        kind = draw(st.sampled_from(["own", "other", "changed"]))
        g = code.generator.tolist()
        if kind == "other":
            g = code_from_cosets(q, m, draw(unions)).generator.tolist()
        elif kind == "changed":
            i = draw(st.integers(0, len(g) - 1))
            g[i] = (g[i] + draw(st.integers(1, q - 1))) % q  # another label
        # a cached_property reads the instance dict first
        code.__dict__["generator"] = np.array(g)
        out.append(code)
    return out


@settings(max_examples=150, deadline=None)
@given(generator_candidates())
def test_batched_root_test_matches_division_reference(codes):
    verdicts = verify._generators_match(codes)
    assert verdicts.tolist() == [_ref_is_generator(code) for code in codes]


def test_every_sweep_check_matrix_is_cut_from_the_shared_blocks(monkeypatch):
    cut = []
    exact = verify._check_matrices

    def recorded(part, codes):
        matrices = list(exact(part, codes))
        cut.extend(zip(codes, matrices))
        return iter(matrices)

    monkeypatch.setattr(verify, "_check_matrices", recorded)
    assert verify.verify_cyclic_identities().passed
    # the 190 single-coset codes and both sides of the 25 CSS rows with n <= 80
    assert len(cut) == 240
    for code, H in cut:
        assert H.tolist() == parity_check_matrix(code, code.defining.reps).tolist()


def _failures(report):
    return {(r.q, r.m, r.check): r.detail for r in report.records if r.status == "fail"}


@pytest.mark.parametrize("index", [0, 1, 2])
def test_identity_sweep_fails_on_a_changed_generator_coefficient(monkeypatch, index):
    # the generator of the coset {2, 10} mod 24, (x - alpha^2)(x - alpha^10)
    q, m, rep = 5, 2, 2
    exact = gf.poly_with_roots

    def changed(ext, base_q, exponents):
        g = exact(ext, base_q, exponents)
        if (ext.q, base_q) == (q**m, q) and sorted(exponents) == [2, 10]:
            g = g.copy()
            g[index] = (g[index] + 1) % q
        return g

    monkeypatch.setattr(gf, "poly_with_roots", changed)
    # the changed g no longer vanishes on its coset, so its shifts fail the
    # check matrix too
    assert _failures(verify.verify_cyclic_identities()) == {
        (q, m, "generator-times-check"): f"coset {rep}",
        (q, m, "nullspace-equivalence"): f"coset {rep}: codeword fails parity checks"}


def test_identity_sweep_fails_on_a_dropped_check_row(monkeypatch):
    q, m, rep = 5, 2, 1
    exact = cyclic.check_matrix_blocks

    def dropped(code, rows):
        blocks, keep = exact(code, rows)
        if (code.q, code.m) == (q, m):
            i = list(rows).index(rep)
            keep = keep.copy()
            keep[i, np.flatnonzero(keep[i])[0]] = False
        return blocks, keep

    monkeypatch.setattr(cyclic, "check_matrix_blocks", dropped)
    failed = _failures(verify.verify_cyclic_identities())
    assert failed.pop((q, m, "nullspace-equivalence")) == f"coset {rep}: check rank 1 != 2"
    # the family sides over GF(5) whose defining sets hold the coset of 1
    assert failed
    assert {check for _, _, check in failed} <= {"family-identities-outer",
                                                 "family-identities-inner"}
    assert all(key[:2] == (q, m) and ": check rank " in detail
               for key, detail in failed.items())


def test_identity_sweep_fails_on_a_changed_gf9_check_entry(monkeypatch):
    # GF(9) is the sweep's one odd-p base field with e > 1: the change steps
    # only the entry's x digit, which mat_vec reads through its digit matrix
    q, m, rep = 9, 2, 1
    exact = verify._check_matrices

    def changed(part, codes):
        matrices = list(exact(part, codes))
        if (part.q, part.n) == (q, q**m - 1):
            # the single-coset codes come first, in coset order
            i = part.reps.tolist().index(rep)
            H = matrices[i] = matrices[i].copy()
            H[-1, 3] = H[-1, 3] % 3 + 3 * ((H[-1, 3] // 3 + 1) % 3)
        return iter(matrices)

    monkeypatch.setattr(verify, "_check_matrices", changed)
    assert _failures(verify.verify_cyclic_identities()) == {
        (q, m, "nullspace-equivalence"): f"coset {rep}: codeword fails parity checks"}


def test_designed_distance_cap_for_block_sets():
    # defining set = cosets of s+1..s+c with s+c <= q-2 caps the bound at c+2
    for q in (5, 7, 9, 11, 13):
        for s in range(q - 2):
            for c in range(1, q - 1 - s):
                ds = DefiningSet.from_exponents(q, 2, range(s + 1, s + c + 1))
                delta = bch_bound(ds)
                assert delta <= c + 2
                if c == 1:
                    assert delta == 2


# ---------------------------------------------------------------
# the dual-containing criteria in the identity sweep
# ---------------------------------------------------------------

def _ref_union_scan(partition, comp):
    """Both dual-containing criteria on every union of up to four cosets,
    one union at a time, with partition[comp[i]] standing as the complement
    of partition[i]: the note naming the last union where they disagree,
    or empty."""
    n = partition[0].n
    masks = [(c.rep,
              sum(1 << x for x in c.elements),
              sum(1 << (-x % n) for x in c.elements),
              sum(1 << x for x in partition[j].elements))
             for c, j in zip(partition, comp)]
    detail = ""
    for r in range(1, 5):
        for combo in itertools.combinations(masks, r):
            z = neg = comp = 0
            for _, elements, negations, complement in combo:
                z |= elements
                neg |= negations
                comp |= complement
            if (z & neg == 0) != (z & comp == 0):
                detail = (f"criteria disagree on the union of cosets "
                          f"{[mask[0] for mask in combo]} mod {n}")
    return detail


def _ref_pair_scan(partition, comp):
    """The unions of one or two cosets, as bitmasks over the Coset objects,
    in combinations_with_replacement order: the note naming the last union
    on which the criteria disagree, or empty."""
    n = partition[0].n
    masks = [(c.rep,
              sum(1 << x for x in c.elements),
              sum(1 << (-x % n) for x in c.elements),
              sum(1 << x for x in partition[j].elements))
             for c, j in zip(partition, comp)]
    bad = [sorted({ra, rb}) for (ra, za, na, ca), (rb, zb, nb, cb)
           in itertools.combinations_with_replacement(masks, 2)
           if ((za | zb) & (na | nb) == 0) != ((za | zb) & (ca | cb) == 0)]
    return f"criteria disagree on the union of cosets {bad[-1]} mod {n}" if bad else ""


@st.composite
def complement_maps(draw):
    """An identity-sweep instance (q, m), a kind of complement map and a
    permutation of the coset indices, which orders the pairing of a random
    involution."""
    q, m = draw(st.sampled_from(verify._identity_instances()))
    kind = draw(st.sampled_from(["true", "identity", "involution"]))
    order = draw(st.permutations(range(len(cosets.all_cosets(q, m)))))
    return q, m, kind, order


@settings(max_examples=40, deadline=None)
@given(complement_maps())
# an involution that moves the same cosets as the true map: every single
# coset agrees, and only a union of two cosets tells the criteria apart
@example((5, 2, "involution", list(range(14))))
def test_criteria_pair_scan_matches_the_four_coset_scan(case):
    q, m, kind, order = case
    partition = cosets.all_cosets(q, m)
    n = partition[0].n
    index = {c.rep: i for i, c in enumerate(partition)}
    comp = np.array([index[_ref_complementary(c).rep] for c in partition])
    if kind != "true":
        # the identity map; for an involution, the true map's fixed points
        # with the other cosets paired off at random
        moved = [i for i in order if comp[i] != i] if kind == "involution" else []
        comp = np.arange(len(partition))
        for a, b in zip(moved[::2], moved[1::2]):
            comp[a], comp[b] = b, a
    detail = verify._criteria_disagreement(cosets.partition(q, m), comp)
    assert bool(detail) == bool(_ref_union_scan(partition, comp.tolist()))
    assert detail == _ref_pair_scan(partition, comp.tolist())
    if detail:
        match = re.fullmatch(
            r"criteria disagree on the union of cosets \[([\d, ]+)\] mod (\d+)",
            detail)
        assert match and int(match.group(2)) == n
        reps = {int(x) for x in match.group(1).split(", ")}
        members = [index[rep] for rep in reps if rep in index]
        assert len(members) == len(reps) <= 2
        z = {x for i in members for x in partition[i].elements}
        meets_negation = any(-x % n in z for x in z)
        complement_is_member = any(comp[i] in members for i in members)
        assert meets_negation != complement_is_member
