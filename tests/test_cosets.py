import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcodes import cli
from cosetcodes.cosets import (
    all_cosets,
    coset_of,
    disjointness_range,
    ladder_cosets,
    partition,
)

from test_partition import _ref_complementary

SMALL_GRID = [(q, m) for q in (3, 5, 7, 9) for m in (2, 3)]


def _listing(q, m, capsys):
    """The rows of `cosets q m --properties --format json`, by rep."""
    assert cli.main(["cosets", str(q), str(m), "--properties", "--format", "json"]) == 0
    return {row["rep"]: row for row in json.loads(capsys.readouterr().out)["rows"]}


def _gap(q, m, a):
    """The partition's gap of the coset of a; None for a singleton."""
    part = partition(q, m)
    return int(part.gaps()[part.owner[a % part.n]]) or None


def _oplus(q, m, a, b):
    """The partition's oplus of the cosets of a and b; None where the coset
    of b holds no witness."""
    part = partition(q, m)
    other = np.full(len(part.reps), part.owner[b % part.n])
    i = int(part.oplus(other)[part.owner[a % part.n]])
    return None if i < 0 else part.coset(i)


# ---------------------------------------------------------------
# construction
# ---------------------------------------------------------------

def test_coset_of_zero_is_singleton():
    c = coset_of(5, 2, 0)
    assert c.elements == (0,) and c.cardinality == 1


def test_coset_of_one_mod_24():
    assert coset_of(5, 2, 1).elements == (1, 5)


def test_coset_of_reduces_input_first():
    assert coset_of(5, 2, 25) == coset_of(5, 2, 1)
    assert coset_of(5, 2, -1) == coset_of(5, 2, 23)


def test_coset_orbit_order_mod_26():
    c = coset_of(3, 3, 4)
    assert c.elements == (4, 12, 10)
    assert c.rep == 4


@pytest.mark.parametrize("q,m", SMALL_GRID)
def test_coset_invariants(q, m):
    n = q**m - 1
    for c in all_cosets(q, m):
        assert c.rep == min(c.elements)
        assert len(set(c.elements)) == c.cardinality
        assert (c.rep * q**c.cardinality) % n == c.rep
        assert m % c.cardinality == 0


def test_all_cosets_partitions():
    assert [c.elements for c in all_cosets(3, 2)] == [
        (0,), (1, 3), (2, 6), (4,), (5, 7)]
    assert [c.elements for c in all_cosets(2, 2)] == [(0,), (1, 2)]
    for q, m in [(4, 2), (7, 2)]:
        n = q**m - 1
        assert sum(c.cardinality for c in all_cosets(q, m)) == n


def test_all_cosets_size_cap():
    with pytest.raises(ValueError):
        all_cosets(3, 13)


def test_degenerate_modulus():
    assert all_cosets(2, 1) == [coset_of(2, 1, 0)]
    assert coset_of(2, 1, 5).elements == (0,)


# ---------------------------------------------------------------
# parity
# ---------------------------------------------------------------

def test_parity_class_examples(capsys):
    listed = _listing(5, 2, capsys)
    assert listed[2]["parity"] == "even"
    assert listed[1]["parity"] == "odd"
    assert _listing(3, 2, capsys)[0]["parity"] == "even"


def test_parity_class_refuses_even_q(capsys):
    # parity structure is only claimed for odd q
    assert not any("parity" in row for row in _listing(4, 2, capsys).values())


@pytest.mark.parametrize("q,m", SMALL_GRID)
def test_parity_uniform_and_no_consecutive(q, m):
    n = q**m - 1
    for c in all_cosets(q, m):
        assert len({x % 2 for x in c.elements}) == 1
        els = set(c.elements)
        assert not any(x + 1 in els for x in els if x + 1 < n)


# ---------------------------------------------------------------
# gap statistic
# ---------------------------------------------------------------

def test_gap_examples():
    assert _gap(5, 2, 1) == 4
    assert _gap(5, 2, 0) is None
    assert _gap(5, 2, 19) == 4


@pytest.mark.parametrize("q,m", SMALL_GRID)
def test_gap_lower_bound_and_equality_at_one(q, m):
    for c in all_cosets(q, m):
        g = _gap(q, m, c.rep)
        if g is not None:
            assert g >= q - 1
    assert _gap(q, m, 1) == q - 1


def _gap_reference(c):
    """The minimum |x - y| over every pair of distinct elements: the slow
    reference for the partition's gaps."""
    els = c.elements
    if len(els) == 1:
        return None
    return min(
        abs(els[j] - els[l]) for j in range(len(els)) for l in range(j + 1, len(els))
    )


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([(q, m) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
                     for m in range(1, 17) if q**m - 1 <= 70000]),
    st.integers(min_value=0, max_value=10**6),
)
def test_gap_matches_pairwise_reference(qm, a):
    q, m = qm
    assert _gap(q, m, a) == _gap_reference(coset_of(q, m, a))


# ---------------------------------------------------------------
# complementary cosets
# ---------------------------------------------------------------

def test_complementary_examples():
    c19 = _ref_complementary(coset_of(5, 2, 1))
    assert c19.rep == 19 and set(c19.elements) == {19, 23}
    zero = coset_of(5, 2, 0)
    assert _ref_complementary(zero) == zero
    c2 = coset_of(7, 2, 2)
    assert _ref_complementary(_ref_complementary(c2)) == c2


@pytest.mark.parametrize("q,m", SMALL_GRID)
def test_complementary_properties(q, m):
    n = q**m - 1
    part = partition(q, m)
    assert part.reps[part.complements()].tolist() == [
        _ref_complementary(c).rep for c in all_cosets(q, m)]
    for c in all_cosets(q, m):
        comp = _ref_complementary(c)
        # unique: every element's negation lands in the same coset
        assert {coset_of(q, m, n - x).rep for x in c.elements} == {comp.rep}
        assert comp.cardinality == c.cardinality
        assert _gap(q, m, comp.rep) == _gap(q, m, c.rep)
        assert _ref_complementary(comp) == c


def test_coset_oplus_annihilates_complementary_pair():
    assert _oplus(5, 2, 1, _ref_complementary(coset_of(5, 2, 1)).rep).elements == (0,)
    assert _oplus(5, 2, 0, 0).elements == (0,)
    assert _oplus(3, 2, 2, _ref_complementary(coset_of(3, 2, 2)).rep).elements == (0,)


def test_coset_oplus_reports_failed_congruence():
    # no element w of the coset {2, 10} of 2 gives 1 + w = 0 mod 24
    assert _oplus(5, 2, 1, 2) is None


# ---------------------------------------------------------------
# disjointness ranges
# ---------------------------------------------------------------

def test_disjointness_range_values():
    assert disjointness_range(3, 2) == 6
    assert disjointness_range(4, 2) == 8
    assert disjointness_range(3, 3) == 8


def test_disjointness_range_guarantee_small():
    # q=3, m=2: cosets of 1, 2, 4, 5 pairwise disjoint
    seen = {}
    for x in (1, 2, 4, 5):
        for el in coset_of(3, 2, x).elements:
            assert el not in seen
            seen[el] = x


@pytest.mark.parametrize("q,m", [(3, 2), (5, 2), (4, 2), (3, 4), (5, 3)])
def test_disjointness_range_guarantee(q, m):
    T = disjointness_range(q, m)
    owner = {}
    for x in range(1, T + 1):
        if x % q == 0:
            continue
        c = coset_of(q, m, x)
        if m % 2 == 0:
            assert c.rep == x
        for el in c.elements:
            assert owner.setdefault(el, x) == x


# ---------------------------------------------------------------
# special cosets and ladders
# ---------------------------------------------------------------

def test_special_coset_cardinality():
    # for even m the coset of q^(m/2) + 1 has only m/2 elements
    assert coset_of(5, 2, 6).elements == (6,)
    assert coset_of(3, 2, 4).elements == (4,)
    assert coset_of(3, 4, 10).elements == (10, 30)
    for q, m in [(4, 2), (7, 2), (3, 6), (5, 4)]:
        c = coset_of(q, m, q ** (m // 2) + 1)
        assert (c.rep, c.cardinality) == (q ** (m // 2) + 1, m // 2)


def test_ladder_cosets_examples():
    l33 = ladder_cosets(3, 3, 2)
    assert [c.elements for c in l33] == [(4, 12, 10), (7, 21, 11)]
    l53 = ladder_cosets(5, 3, 2)
    lasts = [(s * 5**2) % 124 for s in (6, 11)]
    assert lasts == [26, 27]
    assert [c.rep for c in l53] == [6, 11]
    assert len(ladder_cosets(3, 3, 1)) == 1


def test_ladder_hypothesis_violation():
    with pytest.raises(ValueError):
        ladder_cosets(3, 2, 1)  # cq+1 = 4 not < q - 1 = 2
    with pytest.raises(ValueError):
        ladder_cosets(3, 5, 4)  # cq+1 = 13 < 26, but c > q
    for m in (0, -2):  # q^ceil(m/2) - 1 is 0, or a float
        with pytest.raises(ValueError, match=f"need m >= 1, got m={m}"):
            ladder_cosets(4, m, 2)


@pytest.mark.parametrize("q,m", [(3, 3), (5, 3), (3, 4), (5, 4), (7, 3)])
def test_ladder_all_admissible(q, m):
    n = q**m - 1
    c = 1
    while (c * q + 1) < q ** ((m + 1) // 2) - 1:
        ladder = ladder_cosets(q, m, c)
        lasts = [((j * q + 1) * q ** (m - 1)) % n for j in range(1, c + 1)]
        assert lasts == list(range(lasts[0], lasts[0] + c))
        assert all(cs.cardinality == m for cs in ladder)
        c += 1
    assert c > 1  # the grid only contains (q, m) with at least one admissible c
