import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcodes import conv, cyclic, gf, oracle
from cosetcodes.conv import (
    PolyMatrix,
    build_conv,
    check_reduced_basic,
    family_split,
    family_split_short_parent,
    family_split_singleton_tail,
    family_split_wide_head,
    family_split_wider_head,
    free_distance_upper,
    split_parity,
)
from cosetcodes.gf import field_for, make_field

from test_gf import _ref_add, _ref_mul


# ---------------------------------------------------------------
# splitting
# ---------------------------------------------------------------

def test_split_ranks_q4():
    parent = cyclic.code_from_cosets(4, 2, [0, 1, 2, 3, 5, 6, 7])
    h0, h1 = split_parity(parent, range(4), range(5, 8))
    assert (len(h0), len(h1)) == (7, 5)


def test_split_ranks_wide_head_q5():
    parent = cyclic.code_from_cosets(5, 2, [0, 1, 2, 3, 4, 6, 7, 8, 9])
    h0, h1 = split_parity(parent, [0, 1, 2, 3, 4, 6], [7, 8, 9])
    assert (len(h0), len(h1)) == (10, 6)


def test_split_empty_tail():
    parent = cyclic.code_from_cosets(4, 2, range(4))
    h0, h1 = split_parity(parent, range(4), [])
    assert h0.shape == (7, 15) and h1.shape == (0, 15)


def test_matrices_are_label_arrays_that_keep_their_width():
    parent = cyclic.code_from_cosets(4, 2, range(4))
    zero_code = cyclic.code_from_cosets(2, 4, range(15))
    kappa0 = PolyMatrix(field=field_for(4), blocks=np.zeros((1, 0, 15), np.int64))
    full_rank = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]
    for M, n in [(cyclic.parity_check_matrix(parent, []), 15),
                 (split_parity(parent, range(4), [])[1], 15),
                 (gf.nullspace(make_field(5, 1), full_rank), 3),
                 (cyclic.codeword_basis(zero_code), 15),
                 (kappa0.leading_matrix(), 15)]:
        assert isinstance(M, np.ndarray) and M.shape == (0, n)


def test_split_rejects_overlap_and_bad_cover():
    parent = cyclic.code_from_cosets(4, 2, [0, 1, 2, 3, 5, 6, 7])
    with pytest.raises(ValueError, match="overlap"):
        split_parity(parent, range(5), range(4, 8))
    with pytest.raises(ValueError, match="cover"):
        split_parity(parent, range(4), [5, 6])


def test_split_rejects_rank_inversion():
    parent = cyclic.code_from_cosets(4, 2, [0, 1, 2, 3, 5, 6, 7])
    with pytest.raises(ValueError, match="rank condition"):
        split_parity(parent, [5, 6, 7], range(4))


# ---------------------------------------------------------------
# family parameters (table values)
# ---------------------------------------------------------------

@pytest.mark.parametrize("q,expected", [
    (4, "(15, 8, 5; 1, dfree >= 9)_4"),
    (5, "(24, 15, 7; 1, dfree >= 11)_5"),
    (8, "(63, 48, 13; 1, dfree >= 17)_8"),
])
def test_family_split(q, expected):
    assert family_split(q).bracket() == expected


def test_family_wide_head_q16():
    assert family_split_wide_head(16).bracket() == "(255, 223, 28; 1, dfree >= 33)_16"


@pytest.mark.parametrize("q,i,expected", [
    (7, 2, "(48, 30, 6; 1, dfree >= 15)_7"),
    (7, 4, "(48, 35, 9; 1, dfree >= 14)_7"),
])
def test_family_wider_and_short(q, i, expected):
    got = {
        "(48, 30, 6; 1, dfree >= 15)_7": family_split_wider_head,
        "(48, 35, 9; 1, dfree >= 14)_7": family_split_short_parent,
    }[expected](q, i)
    assert got.bracket() == expected


def test_family_singleton_tail():
    code = family_split_singleton_tail(4)
    assert code.bracket() == "(15, 8, 1; 1, dfree >= 6)_4"
    assert code.degree == 1 and code.memory == 1


def test_family_range_errors():
    with pytest.raises(ValueError):
        family_split(3)
    with pytest.raises(ValueError):
        family_split_wider_head(4, 2)  # i > q-3
    with pytest.raises(ValueError):
        family_split_short_parent(4, 0)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16])
def test_closed_forms_from_ranks_up_to_q16(q):
    n = q * q - 1
    cases = [
        (family_split(q), n - 2 * q + 1, 2 * q - 3, 2 * q + 1),
        (family_split_wide_head(q), n - 2 * q, 2 * q - 4, 2 * q + 1),
        (family_split_wider_head(q, 1), n - 2 * (q + 1), 2 * (q - 3), 2 * q + 1),
        (family_split_wider_head(q, q - 3), n - 2 * (2 * q - 3), 2, 2 * q + 1),
        (family_split_short_parent(q, 1), n - 2 * q + 1, 3, q + 4),
        (family_split_short_parent(q, q - 3), n - 2 * q + 1, 2 * q - 5, 2 * q),
        (family_split_singleton_tail(q), n - 2 * q + 1, 1, q + 2),
    ]
    for code, k, gamma, dfree in cases:
        assert (code.n, code.k, code.degree, code.memory) == (n, k, gamma, 1)
        assert code.dfree_lb == dfree


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_derived_bound_dominates_claim(q):
    codes = [family_split(q), family_split_wide_head(q),
             family_split_wider_head(q, 1), family_split_short_parent(q, 1),
             family_split_singleton_tail(q)]
    for code in codes:
        assert code.dfree_lb <= code.dfree_lb_derived <= code.d_parent_lb
        assert code.dfree_lb_derived == min(code.d0_lb + code.d1_lb,
                                            code.d_parent_lb)


def test_degree_comes_from_tail_rank_and_rows():
    code = family_split(5)
    G = code.generator
    assert G.kappa == 9  # 2q - 1
    assert G.memory == 1
    assert code.degree == G.degree == 7  # 2q - 3 nonzero rows in the D-part
    assert G.row_degrees == (1,) * 7 + (0,) * 2


def test_generator_is_a_read_only_copy():
    source = np.array([[[1, 2, 0], [0, 1, 3]]])
    G = PolyMatrix(field=make_field(2, 2), blocks=source)
    source[0, 0, 0] = 3
    assert G.blocks.tolist() == [[[1, 2, 0], [0, 1, 3]]]
    with pytest.raises(ValueError):
        G.blocks[0, 0, 0] = 3


def test_codes_compare_and_hash_on_their_split():
    # the generator is left out: parent, head and tail fix it
    a, b = family_split(4), family_split(4)
    assert a.generator is not b.generator
    assert a == b and hash(a) == hash(b)
    assert a != family_split_wide_head(4)


# ---------------------------------------------------------------
# reduced/basic checking
# ---------------------------------------------------------------

@pytest.mark.parametrize("q", [4, 5])
def test_families_pass_reduced_basic(q):
    for code in (family_split(q), family_split_wide_head(q),
                 family_split_singleton_tail(q)):
        rep = check_reduced_basic(code.generator)
        assert rep.passed, rep.summary()


def test_identity_with_zero_columns_is_reduced_basic():
    f = make_field(2, 2)
    rows = ((1, 0, 0, 0), (0, 1, 0, 0))
    rep = check_reduced_basic(PolyMatrix(field=f, blocks=(rows,)))
    assert rep.passed


def test_duplicated_row_fails_rank_check():
    f = make_field(2, 2)
    h0 = ((1, 2, 0), (1, 2, 0))
    h1 = ((0, 0, 0), (0, 0, 0))
    rep = check_reduced_basic(PolyMatrix(field=f, blocks=(h0, h1)))
    assert not rep.rank_condition_ok
    assert not rep.passed
    assert "inconclusive" in rep.summary()


# ---------------------------------------------------------------
# bounded free-distance search
# ---------------------------------------------------------------

def test_dual_search_consistent_with_claim_q4():
    code = family_split(4)
    exact0 = free_distance_upper(code, 0)  # kernel small enough to enumerate
    assert exact0 >= code.dfree_lb
    sampled = free_distance_upper(code, 2, sample=1500, seed=3)
    assert sampled >= code.dfree_lb


def test_dual_search_consistent_with_claim_q5():
    code = family_split(5)
    assert free_distance_upper(code, 0) >= code.dfree_lb


def test_dual_search_budget_and_sampling():
    code = family_split(4)
    with pytest.raises(oracle.BudgetError):
        free_distance_upper(code, 2)  # kernel far beyond the default budget
    a = free_distance_upper(code, 2, sample=500, seed=9)
    b = free_distance_upper(code, 2, sample=500, seed=9)
    assert a == b  # deterministic under a fixed seed


@pytest.mark.parametrize("sample,seed", [(2000, 0), (1500, 3), (500, 9)])
def test_sampled_dual_search_values_q4(sample, seed):
    # frozen: the seeded draws fix the bound, whatever kernel weighs them
    assert free_distance_upper(family_split(4), 2, sample=sample, seed=seed) == 11


def test_block_code_embedding_matches_oracle():
    head = cyclic.code_from_cosets(4, 2, range(4))
    tail = cyclic.code_from_cosets(4, 2, [])
    blk = build_conv(head, tail)
    assert blk.memory == 0
    assert free_distance_upper(blk, 0) == oracle.min_distance_bruteforce(head)


def test_build_conv_of_empty_pieces_is_the_full_space():
    empty = cyclic.code_from_cosets(4, 2, [])
    code = build_conv(empty, empty)
    assert code.bracket() == "(15, 15, 0; 0, dfree >= 1)_4"
    assert code.generator.blocks.shape == (1, 0, 15)


def test_build_conv_rejects_mismatched_fields():
    with pytest.raises(ValueError):
        build_conv(cyclic.code_from_cosets(4, 2, [0]),
                   cyclic.code_from_cosets(5, 2, [1]))


# ---------------------------------------------------------------
# array paths against scalar references
# ---------------------------------------------------------------

def _ref_row_degrees(G):
    out = []
    for i in range(G.kappa):
        deg = 0
        for d, mat in enumerate(G.blocks.tolist()):
            if any(mat[i]):
                deg = d
        out.append(deg)
    return tuple(out)


def _ref_memory(G):
    mu = 0
    for d, mat in enumerate(G.blocks.tolist()):
        if any(any(row) for row in mat):
            mu = d
    return mu


def _ref_evaluate(G, s):
    """sum_d G_d s^d, one scalar add and multiply per entry."""
    ctx = G.field
    out, *rest = G.blocks.tolist()
    power = 1
    for mat in rest:
        power = _ref_mul(ctx, power, s)
        for i, row in enumerate(mat):
            out[i] = [_ref_add(ctx, a, _ref_mul(ctx, b, power)) for a, b in zip(out[i], row)]
    return out


def _ref_leading_matrix(G):
    degs = _ref_row_degrees(G)
    return [G.blocks.tolist()[degs[i]][i] for i in range(G.kappa)]


def _ref_sliding_check_stack(G, max_degree):
    """One row per (shift, generator row), entry by entry."""
    n, kappa = G.n, G.kappa
    blocks = len(G.blocks)
    width = n * (max_degree + 1)
    rows = []
    for j in range(-(blocks - 1), max_degree + 1):
        for r in range(kappa):
            row = [0] * width
            nonzero = False
            for d, mat in enumerate(G.blocks.tolist()):
                t = j + d
                if 0 <= t <= max_degree and any(mat[r]):
                    row[t * n:(t + 1) * n] = mat[r]
                    nonzero = True
            if nonzero:
                rows.append(row)
    return rows


@st.composite
def poly_matrices(draw):
    """Memory 0-2, kappa 1-5, n 1-8 over GF(2), ..., GF(9), with zero rows."""
    ctx = field_for(draw(st.sampled_from([2, 3, 4, 5, 8, 9])))
    blocks, kappa, n = (draw(st.integers(1, 3)), draw(st.integers(1, 5)),
                        draw(st.integers(1, 8)))
    row = st.one_of(st.just((0,) * n),
                    st.tuples(*[st.integers(0, ctx.q - 1)] * n))
    mats = tuple(tuple(draw(row) for _ in range(kappa)) for _ in range(blocks))
    return PolyMatrix(field=ctx, blocks=mats)


def _same_row_space(ctx, A, B, width):
    A = np.asarray(A, dtype=np.int64).reshape(-1, width)
    B = np.asarray(B, dtype=np.int64).reshape(-1, width)
    return gf.rank(ctx, A) == gf.rank(ctx, B) == gf.rank(ctx, np.vstack([A, B]))


@settings(max_examples=300, deadline=None)
@given(poly_matrices(), st.integers(0, 3))
def test_array_paths_match_scalar_references(G, max_degree):
    ctx = G.field
    assert G.row_degrees == _ref_row_degrees(G)
    assert G.memory == _ref_memory(G)
    assert G.degree == sum(_ref_row_degrees(G))
    assert G.leading_matrix().tolist() == _ref_leading_matrix(G)
    values = [_ref_evaluate(G, s) for s in range(ctx.q)]
    assert G.evaluate(range(ctx.q)).tolist() == values
    rep = check_reduced_basic(G)
    assert rep.failed_evaluations == tuple(
        s for s in range(ctx.q) if gf.rank(ctx, values[s]) != G.kappa)
    assert rep.leading_rank == gf.rank(ctx, _ref_leading_matrix(G))
    stack = conv._sliding_check_stack(G, max_degree)
    assert _same_row_space(ctx, stack, _ref_sliding_check_stack(G, max_degree),
                           G.n * (max_degree + 1))


def _ref_check_reduced_basic(G):
    """The report from q + 2 separate rank calls: the constant block, each
    evaluation G(s), and the leading matrix."""
    ctx, kappa = G.field, G.kappa
    rank_h0 = gf.rank(ctx, G.blocks[0])
    failed = tuple(s for s in range(ctx.q)
                   if gf.rank(ctx, _ref_evaluate(G, s)) != kappa)
    lead_rank = gf.rank(ctx, _ref_leading_matrix(G))
    return conv.BasicnessReport(
        kappa=kappa, rank_h0=rank_h0, rank_condition_ok=rank_h0 == kappa,
        failed_evaluations=failed, leading_rank=lead_rank,
        leading_ok=lead_rank == kappa)


@settings(max_examples=200, deadline=None)
@given(poly_matrices())
@example(PolyMatrix(field=field_for(4), blocks=np.zeros((2, 0, 3), dtype=np.int64)))
def test_batched_basicness_check_matches_separate_ranks(G):
    rep = check_reduced_basic(G)
    assert rep == _ref_check_reduced_basic(G)
    assert all(type(x) is int for x in (rep.rank_h0, rep.leading_rank,
                                        *rep.failed_evaluations))


@pytest.mark.parametrize("q", [4, 5])
def test_batched_basicness_check_on_the_families(q):
    for build in (family_split, family_split_wide_head, family_split_singleton_tail):
        G = build(q).generator
        assert check_reduced_basic(G) == _ref_check_reduced_basic(G)


@pytest.mark.parametrize("max_degree", [0, 2])
def test_sliding_stack_kernel_matches_reference_q4(max_degree):
    G = family_split(4).generator
    assert gf.nullspace(G.field, conv._sliding_check_stack(G, max_degree)).tolist() == \
        gf.nullspace(G.field, _ref_sliding_check_stack(G, max_degree)).tolist()
