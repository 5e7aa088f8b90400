"""The memoised coset partition against the slow orbit walk it replaces,
and the production dual-containing test against both criteria."""

import operator

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcodes import cosets
from cosetcodes.cosets import (
    _coset_by_walk,
    _orbit,
    all_cosets,
    coset_of,
    cosets_of,
)
from cosetcodes.cyclic import DefiningSet, contains_dual


def _ref_gap_stat(c):
    """The least difference between neighbouring sorted elements of a
    coset; None for a singleton, where no pair exists."""
    els = sorted(c.elements)
    return min(map(operator.sub, els[1:], els), default=None)


def _ref_parity_class(c):
    """'even' or 'odd': the common parity of all elements (odd q only)."""
    parities = {x % 2 for x in c.elements}
    assert c.q % 2 == 1 and len(parities) == 1, f"mixed parity in {c!r}"
    return "even" if parities == {0} else "odd"


def _ref_complementary(c):
    """The coset of n - rep(c), by walking its orbit."""
    return _coset_by_walk(c.q, c.n, c.n - c.rep)


def _ref_coset_oplus(c1, c2bar):
    """The coset of rep(c1) + w for the witness w in c2bar with
    rep(c1) + w = 0 mod n, i.e. {0}; None if c2bar holds no witness."""
    n = c1.n
    return next((_coset_by_walk(c1.q, n, c1.rep + w) for w in c2bar.elements
                 if (c1.rep + w) % n == 0), None)


@st.composite
def q_m(draw, n_max=2000):
    """(q, m) with 2 <= q and 1 <= n = q^m - 1 <= n_max; q need not be a
    prime power, since cosets are plain modular arithmetic."""
    m = draw(st.integers(1, 10))
    q_max = 2
    while (q_max + 1) ** m - 1 <= n_max:
        q_max += 1
    return draw(st.integers(2, q_max)), m


@settings(max_examples=200, deadline=None)
@given(q_m(), st.integers(-10**6, 10**6))
def test_coset_of_matches_orbit_walk(qm, a):
    q, m = qm
    assert coset_of(q, m, a) == _coset_by_walk(q, q**m - 1, a)


@settings(max_examples=40, deadline=None)
@given(q_m())
def test_all_cosets_matches_orbit_walk(qm):
    q, m = qm
    n = q**m - 1
    walked = {_coset_by_walk(q, n, a) for a in range(n)}
    assert all_cosets(q, m) == sorted(walked, key=lambda c: c.rep)


@settings(max_examples=200, deadline=None)
@given(q_m(), st.integers(-10**6, 10**6))
def test_complementary_matches_orbit_walk(qm, a):
    q, m = qm
    c = coset_of(q, m, a)
    assert coset_of(q, m, -c.rep) == _ref_complementary(c)


@settings(max_examples=60, deadline=None)
@given(q_m())
@example((2, 1)).via("n = 1")
@example((7, 1)).via("m = 1")
def test_partition_arrays_match_orbit_walk(qm):
    q, m = qm
    n = q**m - 1
    part = cosets.partition(q, m)
    walked = [_coset_by_walk(q, n, x) for x in range(n)]
    reps = sorted({c.rep for c in walked})
    assert part.reps.tolist() == reps
    assert part.owner.dtype == np.int32
    assert [reps[i] for i in part.owner.tolist()] == [c.rep for c in walked]
    assert part.elements.shape == (len(reps), m)
    for rep, k, row in zip(reps, part.cards.tolist(), part.elements.tolist()):
        c = _coset_by_walk(q, n, rep)
        assert k == c.cardinality
        assert row == [rep * q**j % n for j in range(m)]
        assert tuple(row[:k]) == c.elements


@settings(max_examples=60, deadline=None)
@given(q_m(), st.integers(0, 10**6))
@example((2, 1), 0).via("n = 1")
@example((5, 1), 1).via("m = 1")
@example((3, 4), 0).via("cosets of 1 and 2 elements below m = 4")
@example((2, 6), 0).via("cosets of 1, 2 and 3 elements below m = 6")
def test_partition_properties_match_scalar_functions(qm, shift):
    q, m = qm
    n = q**m - 1
    part = cosets.partition(q, m)
    walked = [_coset_by_walk(q, n, rep) for rep in part.reps.tolist()]
    assert part.gaps().tolist() == [_ref_gap_stat(c) or 0 for c in walked]
    assert part.mixed().tolist() == [len({x % 2 for x in c.elements}) == 2 for c in walked]
    if q % 2 == 1:
        assert [("odd" if r % 2 else "even") for r in part.reps.tolist()] == list(
            map(_ref_parity_class, walked))
    comp = part.complements()
    assert part.reps[comp].tolist() == [_ref_complementary(c).rep for c in walked]
    # oplus with the complements, and with an arbitrary pairing that may
    # hold no witness
    for other in (comp, (comp + shift) % len(walked)):
        expect = [getattr(_ref_coset_oplus(c, walked[o]), "rep", None)
                  for c, o in zip(walked, other.tolist())]
        got = part.oplus(other).tolist()
        assert [None if i < 0 else int(part.reps[i]) for i in got] == expect


def test_all_cosets_returns_a_fresh_list_of_equal_cosets():
    first, second = all_cosets(5, 2), all_cosets(5, 2)
    assert first is not second
    assert first == second
    first.clear()
    assert len(all_cosets(5, 2)) == len(second)


def test_moduli_over_the_cap_walk_the_orbit(monkeypatch):
    def no_partition(q, n):
        raise AssertionError(f"partition built for n = {n}")

    monkeypatch.setattr(cosets, "_partition", no_partition)
    n = 2**20 - 1
    assert n > cosets.MAX_MODULUS
    c = coset_of(2, 20, -3)
    assert c == _coset_by_walk(2, n, n - 3)
    assert coset_of(2, 20, 3) == _coset_by_walk(2, n, 3)
    walked = {_coset_by_walk(2, n, a) for a in (6, -3, 3, 2 * n + 3, 1)}
    assert cosets_of(2, 20, [6, -3, 3, 2 * n + 3, 1]) == sorted(walked, key=lambda c: c.rep)
    # past int64 the walk keeps Python ints: residues >= 2^63 reduce exactly
    n = 2**70 - 1
    assert coset_of(2, 70, -1) == _coset_by_walk(2, n, n - 1)
    assert cosets_of(2, 70, [-1, 2**69, n + 2**69]) == [
        _coset_by_walk(2, n, 1), _coset_by_walk(2, n, n - 1)]
    # and so does the dual-containing test, with no array over the residues
    assert contains_dual(DefiningSet.from_exponents(2, 70, [1, 3]))
    assert not contains_dual(DefiningSet.from_exponents(2, 70, [1, -1]))
    assert not contains_dual(DefiningSet.from_exponents(2, 70, [0]))


@settings(max_examples=200, deadline=None)
@given(q_m(n_max=400), st.lists(st.integers(-10**4, 10**4), max_size=6))
def test_contains_dual_matches_both_criteria(qm, exponents):
    q, m = qm
    n = q**m - 1
    ds = DefiningSet.from_exponents(q, m, exponents)
    z = {x for a in exponents for x in _orbit(q, n, a)}
    assert set(ds.exponents) == z
    by_negation = z.isdisjoint({-x % n for x in z})
    by_complements = all(z.isdisjoint(_orbit(q, n, -a)) for a in exponents)
    assert contains_dual(ds) is by_negation is by_complements
