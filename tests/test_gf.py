import copy
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcodes import gf
from cosetcodes.cosets import coset_of
from cosetcodes.gf import Poly, make_field, subfield_embedding


def _tables(ctx):
    """The antilog list (entry i is the label of alpha^i) and the log list
    (entry 0 is None) of a field, read from its int32 tables."""
    log = ctx._np_log.tolist()
    log[0] = None
    return ctx._np_exp.tolist(), log


def _digitwise(p, e, a, b, sign=1):
    """a + sign * b in GF(p^e), one base-p digit at a time."""
    return sum(((a // p**t + sign * (b // p**t)) % p) * p**t for t in range(e))


# scalar GF(q) arithmetic off the _add/_mul kernel: digit-wise sums and
# log/antilog products read from the field's tables

def _ref_add(ctx, a, b):
    return _digitwise(ctx.p, ctx.e, a, b)


def _ref_neg(ctx, a):
    return _digitwise(ctx.p, ctx.e, 0, a, -1)


def _ref_mul(ctx, a, b):
    if a == 0 or b == 0:
        return 0
    return int(ctx._np_exp[(int(ctx._np_log[a]) + int(ctx._np_log[b])) % (ctx.q - 1)])


def _ref_inv(ctx, a):
    return int(ctx._np_exp[-int(ctx._np_log[a]) % (ctx.q - 1)])


# ---------------------------------------------------------------
# field construction
# ---------------------------------------------------------------

def test_make_field_gf3_smallest_generator():
    f = make_field(3, 1)
    assert f.q == 3
    assert f.alpha == 2
    # 2 generates GF(3)^*: 2^1 = 2, 2^2 = 1
    assert sorted(_tables(f)[0]) == [1, 2]


def test_make_field_gf2_trivial_group():
    f = make_field(2, 1)
    assert f.alpha == 1
    assert _tables(f) == ([1], [None, 0])


def test_make_field_gf25_table_and_order():
    f = make_field(5, 2)
    exp, _ = _tables(f)
    assert len(exp) == 24
    # antilog is a bijection onto the nonzero elements
    assert sorted(exp) == list(range(1, 25))
    # alpha has order exactly 24: no earlier return to 1
    assert all(exp[i] != 1 for i in range(1, 24))
    assert _ref_mul(f, exp[23], f.alpha) == 1


def test_make_field_gf9_defining_poly_is_lex_smallest_primitive():
    f = make_field(3, 2)
    found = f.defining
    # exhaustive search over smaller coefficient tuples: none may be primitive
    for c0, c1 in itertools.product(range(3), repeat=2):
        cand = (c0, c1, 1)
        if cand >= found:
            break
        assert not _reference_is_primitive(list(cand), 3, 2)
    assert _reference_is_primitive(list(found), 3, 2)


@pytest.mark.parametrize("p,e,f,message", [
    (2, 4, (1, 1, 1, 1, 1), "not primitive"),  # x has order 5: labels repeat
    (2, 2, (0, 0, 1), "not primitive"),        # x^2 = 0: label 3 is missed
    (2, 1, (0, 1), "order q-1"),               # the one power is 1, but x = 0
])
def test_field_context_rejects_a_non_primitive_defining_polynomial(p, e, f, message):
    with pytest.raises(AssertionError, match=message):
        gf.FieldContext(p, e, f)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(ValueError):
        make_field(2, 21)  # over the size cap


def test_make_field_is_cached_and_deterministic():
    assert make_field(7, 1) is make_field(7, 1)
    assert make_field(3, 2).defining == (2, 1, 1)


def test_factor_prime_power():
    assert gf.factor_prime_power(8) == (2, 3)
    assert gf.factor_prime_power(9) == (3, 2)
    assert gf.factor_prime_power(13) == (13, 1)
    with pytest.raises(ValueError):
        gf.factor_prime_power(12)
    with pytest.raises(ValueError):
        gf.factor_prime_power(1)
    # past the field cap q is refused before trial division up to sqrt(q)
    with pytest.raises(ValueError, match=r"^field size 2305843009213693951 exceeds cap"):
        gf.factor_prime_power(2**61 - 1)
    with pytest.raises(ValueError, match=r"^field size 2305843009213693951\^1 exceeds cap"):
        gf.require_field(2**61 - 1, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49])
def test_field_axioms_exhaustive(q):
    # the _add/_mul kernel on whole label grids: x on one axis, and (a, b, c)
    # on three, so every triple is one element of a q x q x q array
    f = gf.field_for(q)
    add, mul = (lambda u, v: gf._add(f, u, v)), (lambda u, v: gf._mul(f, u, v))
    x = np.arange(q)
    assert (add(x, 0) == x).all() and (mul(x, 1) == x).all() and not mul(x, 0).any()
    assert not add(x, [_ref_neg(f, a) for a in range(q)]).any()
    assert (mul(x[1:], [_ref_inv(f, a) for a in range(1, q)]) == 1).all()
    a, b, c = np.ix_(x, x, x)
    assert (mul(a, mul(b, c)) == mul(mul(a, b), c)).all()
    assert (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()


def test_log_antilog_roundtrip():
    exp, log = _tables(make_field(2, 4))
    for i in range(15):
        assert log[exp[i]] == i
    assert log[0] is None


# ---------------------------------------------------------------
# field construction against the unpruned scalar reference
# ---------------------------------------------------------------

def _reference_candidates(p, e):
    """Every monic degree-e candidate in lexicographic order of
    (c0, ..., c_{e-1}): the search before the constant term was pruned."""
    coeffs = [0] * e
    while True:
        yield coeffs + [1]
        i = e - 1
        while i >= 0 and coeffs[i] == p - 1:
            coeffs[i] = 0
            i -= 1
        if i < 0:
            return
        coeffs[i] += 1


def _reference_tables(p, e, f):
    """alpha, exp and log by the scalar walk: multiply by x one power at a
    time, shifting the digits and reducing by the monic f."""
    q = p**e

    def times_x(a):
        digs = [0] + [(a // p**t) % p for t in range(e)]
        c = digs.pop()
        digs = [(d - c * f[j]) % p for j, d in enumerate(digs)]
        return sum(d * p**t for t, d in enumerate(digs))

    exp, log = [0] * (q - 1), [None] * q
    val = 1
    for i in range(q - 1):
        assert log[val] is None
        exp[i], log[val] = val, i
        val = times_x(val)
    assert val == 1
    return times_x(1), exp, log


def _reference_is_primitive(f, p, e):
    """x has order p^e - 1 modulo the monic f, with x^k mod f taken by
    square-and-multiply on digit-list polynomials over GF(p)."""
    def mul_mod(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        for i in range(len(out) - 1, e - 1, -1):
            c = out[i]
            out[i] = 0
            for j in range(e):
                out[i - e + j] = (out[i - e + j] - c * f[j]) % p
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def x_pow(k):
        result, base = [1], mul_mod([0, 1], [1])
        while k:
            if k & 1:
                result = mul_mod(result, base)
            base = mul_mod(base, base)
            k >>= 1
        return result

    order = p**e - 1
    return (all(x_pow(order // r) != [1] for r in gf.prime_factors(order))
            and x_pow(order) == [1])


def _prime_powers_to(q_max):
    return [(p, e) for p in range(2, q_max + 1) if gf.prime_factors(p) == [p]
            for e in range(1, q_max.bit_length()) if p**e <= q_max]


PRIME_POWERS_TO_1024 = _prime_powers_to(1024)


@pytest.mark.parametrize("p,e", PRIME_POWERS_TO_1024)
def test_make_field_matches_unpruned_scalar_reference(p, e):
    f = next(f for f in _reference_candidates(p, e) if _reference_is_primitive(f, p, e))
    ctx = make_field(p, e)
    assert ctx.defining == tuple(f)
    assert (ctx.alpha, *_tables(ctx)) == _reference_tables(p, e, f)


@pytest.mark.parametrize("p,e,defining", [
    (2, 12, (1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1)),
    (3, 8, (2, 0, 0, 0, 0, 1, 0, 0, 1)),
    (5, 6, (2, 0, 0, 0, 0, 1, 1)),
])
def test_make_field_pinned_at_scale(p, e, defining):
    # pinned from the unpruned search, which takes seconds at these sizes
    ctx = make_field(p, e)
    assert ctx.defining == defining
    assert (ctx.alpha, *_tables(ctx)) == _reference_tables(p, e, defining)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIME_POWERS_TO_1024))
def test_pruned_candidates_are_not_primitive(pe):
    p, e = pe
    kept = list(gf._candidate_polys(p, e))
    every = list(_reference_candidates(p, e))
    assert kept == [f for f in every if f in kept]
    pruned = [f for f in every if f not in kept]
    assert pruned and not any(_reference_is_primitive(f, p, e) for f in pruned)


# every prime power up to 4096, and e = 1 with the primes just below 2^20,
# each side drawn about half the time
PRIMITIVITY_FIELDS = st.sampled_from(_prime_powers_to(4096)) | st.sampled_from(
    [(p, 1) for p in range(2**20 - 100, 2**20) if gf.prime_factors(p) == [p]])


@settings(max_examples=400, deadline=None)
@given(PRIMITIVITY_FIELDS, st.data())
def test_is_primitive_matches_list_reference(pe, data):
    p, e = pe
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e)) + [1]
    assert gf._is_primitive(f, p, e) == _reference_is_primitive(f, p, e)


def test_make_field_at_the_cap():
    for p, e in [(2, 20), (3, 12)]:
        t0 = time.perf_counter()
        # uncached, so the tables are freed when the test ends
        ctx = make_field.__wrapped__(p, e)
        elapsed = time.perf_counter() - t0
        q = p**e
        assert elapsed < 5.0, f"GF({p}^{e}) took {elapsed:.2f}s"
        exp, log = _tables(ctx)
        assert sorted(exp) == list(range(1, q))
        assert all(log[v] == i for i, v in enumerate(exp))
        assert log[0] is None
        assert _ref_mul(ctx, exp[q - 2], ctx.alpha) == 1
    with pytest.raises(ValueError):
        make_field(2, 21)


# ---------------------------------------------------------------
# minimal polynomials: poly_with_roots over one coset
# ---------------------------------------------------------------

def _minimal_polynomial(ext, q, i):
    m = ext.e // gf.factor_prime_power(q)[1]
    return gf.poly_with_roots(ext, q, coset_of(q, m, i).elements)


def test_minimal_polynomial_of_one_is_x_minus_one():
    f9 = make_field(3, 2)
    assert _minimal_polynomial(f9, 3, 0).tolist() == [2, 1]


def test_minimal_polynomial_singleton_coset_is_linear():
    f25 = make_field(5, 2)
    base = make_field(5, 1)
    mp = _minimal_polynomial(f25, 5, 6).tolist()
    assert len(mp) == 2 and mp[-1] == 1
    # its root, lifted back into the extension, is alpha^6
    emb = subfield_embedding(f25, base)
    root = _ref_neg(base, mp[0])
    assert emb._up[root] == _tables(f25)[0][6]


def test_minimal_polynomial_of_alpha_has_degree_two_over_gf3():
    f9 = make_field(3, 2)
    mp = _minimal_polynomial(f9, 3, 1).tolist()
    assert len(mp) == 3
    assert all(0 <= c < 3 for c in mp)
    # alpha's minimal polynomial is the defining polynomial itself
    assert tuple(mp) == f9.defining


@pytest.mark.parametrize("q,m", [(3, 2), (2, 2), (2, 3), (4, 2)])
def test_minimal_polynomials_multiply_to_xn_minus_one(q, m):
    p, e = gf.factor_prime_power(q)
    ext = make_field(p, e * m)
    base = make_field(p, e)
    n = q**m - 1
    seen = set()
    product = Poly(base, [1])
    for i in range(n):
        orbit = frozenset(
            (i * q**t) % n for t in range(m)
        )
        if orbit in seen:
            continue
        seen.add(orbit)
        product = _ref_poly_mul(product, Poly(base, _minimal_polynomial(ext, q, i).tolist()))
    assert product == _ref_x_pow_minus_one(base, n)


@pytest.mark.parametrize("q,m", [(3, 2), (5, 2), (3, 3)])
def test_minimal_polynomial_degree_equals_coset_size(q, m):
    p, e = gf.factor_prime_power(q)
    ext = make_field(p, e * m)
    for i in range(q**m - 1):
        mp = _minimal_polynomial(ext, q, i)
        assert len(mp) - 1 == coset_of(q, m, i).cardinality


def test_minimal_polynomial_range_errors():
    f9 = make_field(3, 2)
    with pytest.raises(ValueError):
        gf.poly_with_roots(f9, 3, [8])
    with pytest.raises(ValueError, match=r"^exponent 9 out of range \[0, 8\)$"):
        gf.poly_with_roots(f9, 3, [0, 4, 9, -1])
    with pytest.raises(ValueError, match=r"^exponent -1 out of range \[0, 8\)$"):
        gf.poly_with_roots(f9, 3, (j for j in [4, -1, 9]))
    with pytest.raises(ValueError, match=rf"^exponent {2**70} out of range \[0, 8\)$"):
        gf.poly_with_roots(f9, 3, [0, 2**70])
    with pytest.raises(ValueError):
        gf.poly_with_roots(f9, 2, [1])  # GF(2) not a subfield of GF(9)


def test_poly_with_roots_rejects_a_set_not_closed_under_q():
    f9 = make_field(3, 2)
    # alpha alone: x - alpha has a coefficient outside GF(3)
    with pytest.raises(ValueError, match=r"^6 is not in the embedded subfield$"):
        gf.poly_with_roots(f9, 3, [1])
    assert gf.poly_with_roots(f9, 3, []).tolist() == [1]
    # a read-only label array, constant term first
    g = gf.poly_with_roots(f9, 3, [1, 3])
    assert g.ndim == 1 and not g.flags.writeable
    assert g.tolist() == list(f9.defining)


# ---------------------------------------------------------------
# subfield embeddings
# ---------------------------------------------------------------

@pytest.mark.parametrize("pq,ext_e", [((3, 1), 2), ((2, 2), 4), ((2, 2), 6), ((5, 1), 2)])
def test_embedding_is_a_field_homomorphism(pq, ext_e):
    p, eb = pq
    base = make_field(p, eb)
    ext = make_field(p, ext_e)
    emb = subfield_embedding(ext, base)
    up = emb._up.tolist()
    for a in range(base.q):
        for b in range(base.q):
            assert up[_ref_add(base, a, b)] == _ref_add(ext, up[a], up[b])
            assert up[_ref_mul(base, a, b)] == _ref_mul(ext, up[a], up[b])
            assert emb._down[up[a]] == a


def test_embedding_rejects_non_subfield():
    with pytest.raises(ValueError):
        subfield_embedding(make_field(2, 3), make_field(2, 2))


def _ref_embedding(ext, base):
    """gamma and the lift table by the scalar search: gamma is the first
    alpha^(t * stride), t = 0, 1, ..., that is a root of the base defining
    polynomial."""
    stride = (ext.q - 1) // (base.q - 1)
    ext_exp, base_exp = _tables(ext)[0], _tables(base)[0]
    for t in range(base.q - 1):
        if _ref_evaluate(ext, base.defining, ext_exp[(t * stride) % (ext.q - 1)]) == 0:
            gamma_log = (t * stride) % (ext.q - 1)
            break
    else:
        raise AssertionError("no root of base defining polynomial in extension")
    up = [0] * base.q
    for s in range(base.q - 1):
        up[base_exp[s]] = ext_exp[(gamma_log * s) % (ext.q - 1)]
    return ext_exp[gamma_log], up


# (q^m, q) for every embedding `verify all` builds
VERIFY_ALL_FIELD_PAIRS = [(9, 3), (27, 3), (81, 3), (16, 4), (64, 4), (256, 4), (25, 5),
                          (125, 5), (625, 5), (49, 7), (343, 7), (64, 8), (81, 9),
                          (121, 11), (169, 13)]


@pytest.mark.parametrize("ext_q,base_q", VERIFY_ALL_FIELD_PAIRS + [
    (2, 2), (8, 2), (9, 9), (1024, 1024), (4096, 64), (2187, 3), (1024, 32)])
def test_embedding_matches_scalar_search(ext_q, base_q):
    ext, base = gf.field_for(ext_q), gf.field_for(base_q)
    emb = subfield_embedding(ext, base)
    gamma, up = _ref_embedding(ext, base)
    assert emb._up[base.alpha] == gamma
    assert emb._up.tolist() == up
    down = {v: i for i, v in enumerate(up)}
    assert emb._down.tolist() == [down.get(y, -1) for y in range(ext.q)]


# ---------------------------------------------------------------
# matrix expansion
# ---------------------------------------------------------------

def test_expand_identity_entry():
    f9, f3 = make_field(3, 2), make_field(3, 1)
    out = gf.expand_matrix(f9, f3, [[1]])
    assert out.tolist() == [[1], [0]]


def test_expand_orthogonality_equivalence():
    # v.u = 0 in the extension iff v is orthogonal to every expanded row
    rng = np.random.default_rng(7)
    f9, f3 = make_field(3, 2), make_field(3, 1)
    n = 6
    for _ in range(25):
        u = [int(x) for x in rng.integers(0, 9, size=n)]
        rows = gf.expand_matrix(f9, f3, [u])
        emb = subfield_embedding(f9, f3)
        for _ in range(20):
            v = [int(x) for x in rng.integers(0, 3, size=n)]
            ext_dot = 0
            for vi, ui in zip(v, u):
                ext_dot = _ref_add(f9, ext_dot, _ref_mul(f9, int(emb._up[vi]), ui))
            expanded_zero = not gf.mat_vec(f3, rows, [v]).any()
            assert (ext_dot == 0) == expanded_zero


def test_expand_nullspace_exhaustive_small():
    # over all base-field vectors: M v = 0 in the extension iff the expanded
    # matrix annihilates v
    f9, f3 = make_field(3, 2), make_field(3, 1)
    emb = subfield_embedding(f9, f3)
    rng = np.random.default_rng(11)
    n = 4
    M = [[int(x) for x in rng.integers(0, 9, size=n)] for _ in range(2)]
    expanded = gf.expand_matrix(f9, f3, M)
    for v in itertools.product(range(3), repeat=n):
        ext_zero = True
        for row in M:
            acc = 0
            for vi, ui in zip(v, row):
                acc = _ref_add(f9, acc, _ref_mul(f9, int(emb._up[vi]), ui))
            if acc:
                ext_zero = False
                break
        assert ext_zero == (not gf.mat_vec(f3, expanded, [v]).any())


def test_expand_nullspace_exhaustive_gf4():
    f16, f4 = make_field(2, 4), make_field(2, 2)
    emb = subfield_embedding(f16, f4)
    rng = np.random.default_rng(5)
    n = 8
    M = [[int(x) for x in rng.integers(0, 16, size=n)] for _ in range(2)]
    expanded = gf.expand_matrix(f16, f4, M)
    for v in itertools.product(range(4), repeat=n):
        ext_zero = True
        for row in M:
            acc = 0
            for vi, ui in zip(v, row):
                acc = _ref_add(f16, acc, _ref_mul(f16, int(emb._up[vi]), ui))
            if acc:
                ext_zero = False
                break
        assert ext_zero == (not gf.mat_vec(f4, expanded, [v]).any())


def test_expand_raw_rows_and_rank_q4():
    # the four leading Vandermonde rows over GF(16) expand to 8 raw rows of
    # rank 7 over GF(4)
    f16, f4 = make_field(2, 4), make_field(2, 2)
    n = 15
    exp = _tables(f16)[0]
    rows = [[exp[(i * j) % n] for j in range(n)] for i in range(4)]
    raw = gf.expand_matrix(f16, f4, rows)
    assert len(raw) == 8
    assert gf.rank(f4, raw) == 7


def test_expand_matrix_in_row_blocks_matches_its_rows():
    # 2,500 rows of length 15 over GF(16) hold 150,000 digits, more than one
    # block of 2^17: the expansion is the stack of each row's own
    f16, f4 = make_field(2, 4), make_field(2, 2)
    M = np.random.default_rng(3).integers(0, 16, size=(2500, 15), dtype=np.int32)
    want = np.vstack([gf.expand_matrix(f16, f4, row[None]) for row in M])
    assert np.array_equal(gf.expand_matrix(f16, f4, M), want)


def test_expand_matrix_peaks_within_twice_its_result():
    # the head of conv's wider-head family at q = 64, i = 61: 126 int32 rows
    # of length 4095 over GF(4096), 8.3 MB once expanded over GF(64).  Each
    # block's digits are at most 2^17 int64, so the call peaks near 10.8 MB;
    # with the whole (126, 4095, 12) digit array and its product with the
    # basis change it peaked at 103 MB
    ext, base = gf.field_for(4096), gf.field_for(64)
    rows = ext._np_exp[np.outer(np.arange(1, 127), np.arange(4095)) % 4095]
    subfield_embedding(ext, base)
    tracemalloc.start()
    try:
        out = gf.expand_matrix(ext, base, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (252, 4095)
    assert peak < 2 * out.nbytes, f"expand_matrix peaked at {peak / 1e6:.1f} MB"


def test_expand_uses_polynomial_basis():
    # at m = 2 the basis is [1, alpha], so alpha has coordinates (0, 1)
    f9, f3 = make_field(3, 2), make_field(3, 1)
    out = gf.expand_matrix(f9, f3, [[f9.alpha]])
    assert out.tolist() == [[0], [1]]


# ---------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------

def test_rank_trivial_cases():
    f5 = make_field(5, 1)
    assert gf.rank(f5, [[0, 0], [0, 0]]) == 0
    assert gf.rank(f5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert gf.rank(f5, [[1, 2], [2, 4]]) == 1
    assert gf.rank(f5, [[1, 2], [2, 3]]) == 2


def test_rank_over_extension_field():
    f4 = make_field(2, 2)
    # rows over GF(4): second is 3 * first (3 = alpha^2)
    assert gf.rank(f4, [[1, 2], [3, _ref_mul(f4, 3, 2)]]) == 1


def test_independent_rows_keeps_first_maximal_subset():
    f3 = make_field(3, 1)
    rows = [[1, 1, 0], [2, 2, 0], [0, 1, 1], [1, 2, 1]]
    # row1 = 2*row0; row3 = row0 + row2
    assert gf.independent_rows(f3, rows) == [0, 2]


def test_nullspace_annihilates_and_has_right_dimension():
    f7 = make_field(7, 1)
    rows = [[1, 2, 3, 4], [2, 4, 6, 1]]
    ns = gf.nullspace(f7, rows)
    assert len(ns) == 4 - gf.rank(f7, rows)
    assert gf.mat_vec(f7, rows, ns).tolist() == [[0, 0]] * len(ns)


# ---------------------------------------------------------------
# the vectorised kernel and elimination against scalar references
# ---------------------------------------------------------------

def _ref_rref(ctx, rows):
    """Scalar Gauss-Jordan with the _ref_* arithmetic: (rows, pivots)."""
    A = [list(r) for r in rows]
    pivots = []
    for c in range(len(A[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        s = _ref_inv(ctx, A[r][c])
        A[r] = [_ref_mul(ctx, s, x) for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = _ref_neg(ctx, A[i][c])
                A[i] = [_ref_add(ctx, x, _ref_mul(ctx, f, y)) for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return A, pivots


def _ref_independent_rows(ctx, rows):
    """Greedy: keep a row iff it raises the rank of the rows kept so far."""
    keep = []
    for i, row in enumerate(rows):
        if len(_ref_rref(ctx, [rows[j] for j in keep] + [row])[1]) > len(keep):
            keep.append(i)
    return keep


def _ref_nullspace(ctx, rows):
    R, pivots = _ref_rref(ctx, rows)
    ncols = len(rows[0])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = _ref_neg(ctx, R[i][f])
        basis.append(v)
    return basis


# tables (q <= 512, with GF(9) and GF(25) as odd extensions), the XOR path
# without a table (GF(2^10)) and the Zech path (GF(3^7))
REFERENCE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2),
                    (2, 4), (2, 10), (3, 7)]


@st.composite
def field_matrices(draw):
    ctx = make_field(*draw(st.sampled_from(REFERENCE_FIELDS)))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entry = st.one_of(st.sampled_from([0, 1]), st.integers(0, ctx.q - 1))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    # some rows become combinations of earlier ones, so the rank falls short
    for i in range(1, nrows):
        if draw(st.booleans()):
            j = draw(st.integers(0, i - 1))
            a, b = draw(st.integers(0, ctx.q - 1)), draw(st.integers(0, ctx.q - 1))
            rows[i] = [_ref_add(ctx, _ref_mul(ctx, a, x), _ref_mul(ctx, b, y))
                       for x, y in zip(rows[j], rows[i - 1])]
    v = [draw(entry) for _ in range(ncols)]
    return ctx, rows, v


def _ref_dot(ctx, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = _ref_add(ctx, acc, _ref_mul(ctx, x, y))
    return acc


@settings(max_examples=300, deadline=None)
@given(field_matrices(), st.data())
def test_linear_algebra_matches_scalar_gauss_jordan(case, data):
    ctx, rows, v = case
    R, pivots = gf.rref(ctx, rows)
    ref_R, ref_pivots = _ref_rref(ctx, rows)
    assert (R.tolist(), pivots) == (ref_R, ref_pivots)
    assert gf.rank(ctx, rows) == len(ref_pivots)
    assert gf.independent_rows(ctx, rows) == _ref_independent_rows(ctx, rows)
    assert gf.nullspace(ctx, rows).tolist() == _ref_nullspace(ctx, rows)
    # mat_vec gives one row of results per row of V
    vector = st.lists(st.integers(0, ctx.q - 1), min_size=len(v), max_size=len(v))
    V = [v] + data.draw(st.lists(vector, max_size=4))
    assert gf.mat_vec(ctx, rows, V).tolist() == [[_ref_dot(ctx, row, u) for row in rows]
                                                 for u in V]


def _ref_mat_vec(ctx, rows, V):
    """M v^T by elementwise products and a digit sum over the row, for
    every p."""
    prods = gf._mul(ctx, np.atleast_2d(rows), np.asarray(V)[:, None, :])
    return gf._labels(ctx, gf._digits(ctx, prods).sum(axis=2) % ctx.p)


# the odd-p fields of the identity sweep, GF(25) and GF(27), the table-less
# GF(3^7), and GF(4) and GF(8) for the XOR path
@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 7),
                        (2, 2), (2, 3)]),
       st.integers(0, 80), st.integers(0, 80), st.integers(0, 80),
       st.integers(0, 2**32 - 1))
@example((3, 2), 80, 80, 80, 0)
@example((3, 7), 80, 80, 80, 1)
@example((5, 2), 0, 5, 3, 2)
@example((3, 3), 4, 0, 3, 3)
@example((7, 1), 4, 6, 0, 4)
def test_mat_vec_matches_digit_sum_reference(pe, nrows, ncols, nvecs, seed):
    # the check matrices and codeword bases of the identity sweep: n <= 80,
    # up to 80 rows each; some entries are 0 or 1, as in check matrices
    ctx = make_field(*pe)
    rng = np.random.default_rng(seed)
    M, V = (np.where(rng.random((rows, ncols)) < 0.3, rng.integers(0, 2, (rows, ncols)),
                     rng.integers(0, ctx.q, (rows, ncols))) for rows in (nrows, nvecs))
    got = gf.mat_vec(ctx, M, V)
    assert got.shape == (nvecs, nrows)
    assert got.tolist() == _ref_mat_vec(ctx, M, V).tolist()


@st.composite
def field_stacks(draw):
    """A field and a (B, r, c) stack over it whose matrices have mixed
    ranks: zero rows and multiples of earlier rows are mixed in, and B, r
    and c may each be 0."""
    ctx = make_field(*draw(st.sampled_from(REFERENCE_FIELDS)))
    count, nrows, ncols = (draw(st.integers(0, 4)), draw(st.integers(0, 5)),
                           draw(st.integers(0, 6)))
    entry = st.one_of(st.sampled_from([0, 1]), st.integers(0, ctx.q - 1))
    stack = []
    for _ in range(count):
        rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
        for i in range(1, nrows):
            if draw(st.booleans()):
                a = draw(st.integers(0, ctx.q - 1))
                rows[i] = [_ref_mul(ctx, a, x) for x in rows[draw(st.integers(0, i - 1))]]
        stack.append(rows)
    return ctx, np.array(stack, dtype=np.int64).reshape(count, nrows, ncols)


@settings(max_examples=300, deadline=None)
@given(field_stacks())
@example((make_field(3, 1), np.zeros((2, 0, 3), dtype=np.int64)))
@example((make_field(2, 2), np.ones((3, 2, 0), dtype=np.int64)))
@example((make_field(2, 10), np.zeros((0, 2, 2), dtype=np.int64)))
def test_stacked_elimination_matches_scalar_gauss_jordan(case):
    ctx, stack = case
    R, mask = gf._eliminate(ctx, stack)
    assert R.shape == stack.shape and mask.shape == (len(stack), stack.shape[2])
    ranks, keep = [], []
    for b, rows in enumerate(stack.tolist()):
        ref_R, ref_pivots = _ref_rref(ctx, rows) if rows else ([], [])
        assert R[b].tolist() == ref_R
        assert np.flatnonzero(mask[b]).tolist() == ref_pivots
        ranks.append(len(ref_pivots))
        keep.append(_ref_independent_rows(ctx, rows))
    assert gf.rank(ctx, stack) == ranks
    assert all(type(r) is int for r in gf.rank(ctx, stack))
    rows_mask = gf.independent_rows(ctx, stack)
    assert rows_mask.shape == stack.shape[:2]
    assert [np.flatnonzero(m).tolist() for m in rows_mask] == keep


@pytest.mark.parametrize("q", [q for q in range(2, 65) if len(gf.prime_factors(q)) == 1])
def test_tables_match_scalar_arithmetic(q):
    # p = 2 adds by XOR at every size, so only odd p has an add table; the
    # kernel on the whole q x q label grid against digit-wise sums and
    # log/antilog products
    f = gf.field_for(q)
    assert (f._add_table is None) == (f.p == 2)
    a, b = np.ix_(range(q), range(q))
    assert (gf._add(f, a, b) == _digitwise(f.p, f.e, a, b)).all()
    exp, log = _tables(f)
    products = [[exp[(log[x] + log[y]) % (q - 1)] if x and y else 0 for y in range(q)]
                for x in range(q)]
    assert gf._mul(f, a, b).tolist() == f._mul_table.tolist() == products


@pytest.mark.parametrize("p,e", _prime_powers_to(512))
def test_tables_match_the_table_free_kernel(p, e):
    # the tables come from int32 digit sums and one gather from the
    # circulant of the exp table; the kernel's Zech and log/exp paths, run
    # on a copy of the field that has no tables, are the reference
    f = make_field(p, e)
    bare = copy.copy(f)
    bare._add_table = bare._mul_table = None
    a, b = np.ix_(range(f.q), range(f.q))
    assert f._mul_table.dtype == np.int32
    assert np.array_equal(f._mul_table, gf._mul(bare, a, b))
    if p > 2:
        assert f._add_table.dtype == np.int32
        assert np.array_equal(f._add_table, gf._add(bare, a, b))


@pytest.mark.parametrize("p,e,bound", [(2, 9, 3e6), (7, 3, 2e6)])
def test_make_field_tables_peak_near_their_size(p, e, bound):
    # GF(2^9) has a 1 MB int32 multiplication table, GF(7^3) two 0.47 MB
    # tables; each is built with at most one q x q int32 temporary.  Through
    # the table-free kernel on q x q int64 index grids the builds peaked at
    # 5.5 and 3.1 MB
    tracemalloc.start()
    try:
        gf.make_field.__wrapped__(p, e)  # a fresh build, not the cache's
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"GF({p}^{e}) peaked at {peak / 1e6:.2f} MB"


@st.composite
def addends(draw, q):
    """A label and a second operand: any label, zero, or its negation."""
    a = draw(st.just(0) | st.integers(0, q - 1))
    kind = draw(st.sampled_from(["any", "zero", "negation"]))
    b = draw(st.integers(0, q - 1)) if kind == "any" else 0
    return a, b, kind == "negation"


# odd characteristic: GF(3) and GF(9) read the tables that the Zech path
# filled, the others run it on every call; GF(2^10) adds by XOR with no table
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(3, 1), (3, 2), (5, 4), (3, 7), (3, 12), (2, 10)]), st.data())
def test_zech_add_matches_digitwise_reference(pe, data):
    p, e = pe
    f = make_field(p, e)
    cases = data.draw(st.lists(addends(f.q), min_size=1, max_size=30))
    a = [x for x, _, _ in cases]
    b = [_digitwise(p, e, 0, x, -1) if neg else y for x, y, neg in cases]
    got = gf._add(f, np.array(a), np.array(b))
    assert got.tolist() == [_digitwise(p, e, x, y) for x, y in zip(a, b)]
    assert all(got[i] == 0 for i, (_, _, neg) in enumerate(cases) if neg)
    assert gf._add(f, a[0], b[0]) == got[0]  # on scalars


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(2, 10), (5, 4), (3, 7)]), st.data())
def test_scalar_add_matches_digitwise_reference(pe, data):
    # above q = 512 there is no table: two int labels go through the _add
    # kernel and come back as one scalar
    p, e = pe
    f = make_field(p, e)
    a, b = (data.draw(st.integers(0, f.q - 1)) for _ in range(2))
    total = gf._add(f, a, b)
    assert np.ndim(total) == 0
    assert int(total) == _digitwise(p, e, a, b)


# ---------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------

def test_poly_mul_divmod_roundtrip():
    f5 = make_field(5, 1)
    a = Poly(f5, [1, 2, 0, 3])
    b = Poly(f5, [4, 1])
    prod = a * b
    quot, rem = prod.divmod(b)
    assert quot == a and rem.is_zero
    quot, rem = _ref_poly_add(prod, Poly(f5, [2])).divmod(b)
    assert quot == a and rem == Poly(f5, [2])


def test_poly_normalization_and_degree():
    f3 = make_field(3, 1)
    assert Poly(f3, [1, 2, 0, 0]).degree == 1
    assert Poly(f3, [0, 0]).degree == -1
    assert Poly.zero(f3).is_zero
    assert _ref_x_pow_minus_one(f3, 4).coeffs == (2, 0, 0, 0, 1)


def _ref_x_pow_minus_one(ctx, n):
    """x^n - 1 over ctx, as a Poly."""
    return Poly(ctx, [_ref_neg(ctx, 1)] + [0] * (n - 1) + [1])


def _ref_poly_add(a, b):
    ctx = a.ctx
    x, y = a.coeffs, b.coeffs
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] = _ref_add(ctx, out[i], c)
    return Poly(ctx, out)


def _ref_poly_mul(a, b):
    ctx = a.ctx
    if a.is_zero or b.is_zero:
        return Poly.zero(ctx)
    exp, log = _tables(ctx)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            lx = log[x]
            for j, y in enumerate(b.coeffs):
                if y:
                    out[i + j] = _ref_add(ctx, out[i + j], exp[(lx + log[y]) % (ctx.q - 1)])
    return Poly(ctx, out)


def _ref_divmod(a, b):
    """Schoolbook division: one scalar step per quotient term and divisor
    coefficient."""
    ctx = a.ctx
    rem = list(a.coeffs)
    d = b.degree
    if a.degree < d:
        return Poly.zero(ctx), Poly(ctx, rem)
    quot = [0] * (a.degree - d + 1)
    inv_lead = _ref_inv(ctx, b.coeffs[-1])
    for i in range(a.degree, d - 1, -1):
        if rem[i]:
            f = _ref_mul(ctx, rem[i], inv_lead)
            quot[i - d] = f
            for j, c in enumerate(b.coeffs):
                rem[i - d + j] = _ref_add(ctx, rem[i - d + j], _ref_neg(ctx, _ref_mul(ctx, f, c)))
    return Poly(ctx, quot), Poly(ctx, rem)


def _ref_evaluate(ctx, coeffs, x):
    """The polynomial with coefficients coeffs, constant term first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = _ref_add(ctx, _ref_mul(ctx, acc, x), c)
    return acc


# small fields (with add/mul tables), and the table-free paths: XOR in
# GF(2^10), digit-wise addition in GF(5^4)
POLY_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 10), (5, 4)]


@st.composite
def field_polys(draw):
    ctx = make_field(*draw(st.sampled_from(POLY_FIELDS)))
    # sparse or all-zero coefficient lists half the time
    coeff = st.one_of(st.integers(0, ctx.q - 1), st.just(0))
    a = Poly(ctx, draw(st.lists(coeff, max_size=12)))
    b = Poly(ctx, draw(st.lists(coeff, max_size=6)))
    return a, b


def _poly_case(p, e, a, b):
    ctx = make_field(p, e)
    return Poly(ctx, a), Poly(ctx, b)


@settings(max_examples=500, deadline=None)
@given(field_polys())
@example(_poly_case(3, 1, [], [1, 2]))                         # zero dividend
@example(_poly_case(2, 10, [5, 1000], [1, 2, 3, 1023]))        # deg(a) < deg(b), XOR
@example(_poly_case(5, 4, [1, 2, 3, 4, 600, 7], [9, 0, 311]))  # non-monic, digits
@example(_poly_case(3, 2, [1, 2, 3], [0, 0]))                  # zero divisor
def test_poly_arithmetic_matches_scalar_references(case):
    a, b = case
    for u, v in [(a, b), (b, a)]:
        results = [u * v]
        assert results == [_ref_poly_mul(u, v)]
        if v.is_zero:
            with pytest.raises(ZeroDivisionError):
                u.divmod(v)
        else:
            quot, rem = u.divmod(v)
            assert (quot, rem) == _ref_divmod(u, v)
            assert rem.degree < v.degree and _ref_poly_add(quot * v, rem) == u
            results += [quot, rem]
        assert all(type(c) is int for f in results for c in f.coeffs)
