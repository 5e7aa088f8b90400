"""The memoised coset partition against the slow orbit walk it replaces,
and the production dual-containing test against both criteria."""

import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcodes import cosets
from cosetcodes.cosets import (
    _coset_by_walk,
    _orbit,
    all_cosets,
    coset_of,
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


def _ref_from_exponents(q, m, exponents):
    """The defining set the slow way: one orbit walk per exponent.  Its
    exponents, built from the reps on first read, are checked against the
    walked orbits."""
    n = q**m - 1
    by_rep = {}
    for a in exponents:
        c = _coset_by_walk(q, n, a)
        by_rep[c.rep] = c
    members = tuple(sorted(by_rep.values(), key=lambda c: c.rep))
    flat = sorted(x for c in members for x in c.elements)
    ds = DefiningSet(n=n, q=q, reps=tuple(c.rep for c in members))
    assert ds.exponents == tuple(flat)
    return ds


def _ref_coset_oplus(c1, c2bar):
    """The coset of rep(c1) + w for the witness w in c2bar with
    rep(c1) + w = 0 mod n, i.e. {0}; None if c2bar holds no witness."""
    n = c1.n
    return next((_coset_by_walk(c1.q, n, c1.rep + w) for w in c2bar.elements
                 if (c1.rep + w) % n == 0), None)


def _ref_partition(q, n):
    """owner, reps, cards and elements of the partition modulo n = q^m - 1
    by int64 products x * q mod n: the slow reference for the digit
    rotations of cosets._partition."""
    m = 1
    while q**m <= n:
        m += 1
    x = np.arange(n, dtype=np.int64)
    least, image = x.copy(), x
    for _ in range(m - 1):
        image = image * q % n
        np.minimum(least, image, out=least)
    reps = np.flatnonzero(least == x)
    index = np.empty(n, np.int64)
    index[reps] = np.arange(len(reps))
    owner = index[least]
    elements = np.empty((len(reps), m), np.int64)
    elements[:, 0] = reps
    for j in range(1, m):
        elements[:, j] = elements[:, j - 1] * q % n
    return owner, reps, np.bincount(owner, minlength=len(reps)), elements


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


@pytest.mark.parametrize("q,m", [
    (2, 1),  # n = 1
    (9, 1),  # m = 1
    (2, 19),
    (31, 4),  # the listing's cap
    (1000, 2),  # n = 999,999: q^m = 10^6, the largest rotation grid under the cap
])
def test_partition_matches_int64_reference(q, m):
    n = q**m - 1
    part = cosets._partition.__wrapped__(q, n)  # a fresh build, not the cache's
    names = ("owner", "reps", "cards", "elements")
    for name, ref in zip(names, _ref_partition(q, n)):
        got = getattr(part, name)
        assert got.dtype == np.int32, name
        assert not got.flags.writeable, name
        assert np.array_equal(got, ref), name


def test_partition_at_the_cap_peaks_below_12_mb():
    # at n = 923,520 the build finds the 231,135 reps a chunk of 59,582
    # residues at a time: the reps, 0.9 MB, their copy joined from the
    # chunks, and one chunk's residues, running minimum and rotation images
    # peak at 2.1 MB.  owner, elements and cards, 3.7, 3.7 and 0.9 MB, are
    # built on first read into their own arrays, a block of orbit rows at a
    # time, for 9.5 MB in all.  The build that made all four arrays at once
    # peaked at 10.2 MB, and the int64 products of _ref_partition peak at
    # 48.0 MB
    tracemalloc.start()
    try:
        part = cosets._partition.__wrapped__(31, 923520)
        build = tracemalloc.get_traced_memory()[1]
        part.owner, part.elements, part.cards
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build < 3e6, f"the partition build peaked at {build / 1e6:.1f} MB"
    assert peak < 12e6, f"the partition's arrays peaked at {peak / 1e6:.1f} MB"


@settings(max_examples=100, deadline=None)
@given(q_m(), st.integers(0, 10**4), st.integers(0, 4100))
@example((2, 1), 0, 5).via("n = 1")
@example((7, 1), 3, 10).via("m = 1")
@example((2, 6), 11, 5).via("cosets of 1, 2 and 3 elements below m = 6")
def test_row_blocks_match_int64_reference(qm, start, length):
    # the listing's reading of a block of rows, the last block running past
    # the final coset: its rows, its cardinalities and its complements'
    # reps n - max(row), with none of the n-sized arrays built
    q, m = qm
    n = q**m - 1
    owner, reps, cards, elements = _ref_partition(q, n)
    part = cosets._partition.__wrapped__(q, n)
    start %= len(reps) + 1
    blk = slice(start, start + length)
    rows, comps = part.rows(blk), reps[owner[(n - reps) % n]][blk]
    assert rows.dtype == np.int32 and np.array_equal(rows, elements[blk])
    assert np.array_equal(cosets._cards(rows), cards[blk])
    assert np.array_equal((n - rows.max(axis=1)) % n, comps)
    assert not {"owner", "elements", "cards"} & vars(part).keys()
    assert np.array_equal(part.reps[part.complements()][blk], comps)


@settings(max_examples=60, deadline=None)
@given(q_m(), st.data())
def test_partition_row_slices_match_the_whole_partition(qm, data):
    # the listing asks for gaps and complements one block of rows at a
    # time, the last block running past the final coset
    part = cosets.partition(*qm)
    a = data.draw(st.integers(0, len(part.reps)), label="start")
    b = data.draw(st.integers(a, len(part.reps) + 5), label="stop")
    rows = slice(a, b)
    assert np.array_equal(part.gaps(rows), part.gaps()[rows])
    assert np.array_equal(part.complements(rows), part.complements()[rows])


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
    # below the cap too: coset_of walks one orbit, with no partition
    assert coset_of(31, 4, 5) == _coset_by_walk(31, 31**4 - 1, 5)
    n = 2**20 - 1
    assert n > cosets.MAX_MODULUS
    c = coset_of(2, 20, -3)
    assert c == _coset_by_walk(2, n, n - 3)
    assert coset_of(2, 20, 3) == _coset_by_walk(2, n, 3)
    exponents = [6, -3, 3, 2 * n + 3, 1]
    walked = {_coset_by_walk(2, n, a) for a in exponents}
    ds = DefiningSet.from_exponents(2, 20, exponents)
    assert ds.reps == tuple(sorted(c.rep for c in walked))
    assert ds.exponents == tuple(sorted(x for c in walked for x in c.elements))
    assert ds == _ref_from_exponents(2, 20, exponents)
    # past int64 the walk keeps Python ints: residues >= 2^63 reduce exactly
    n = 2**70 - 1
    assert coset_of(2, 70, -1) == _coset_by_walk(2, n, n - 1)
    # no code has a length past the field cap, so no defining set has one
    with pytest.raises(ValueError, match=r"^modulus 2\^70 - 1 exceeds cap 1048575$"):
        DefiningSet.from_exponents(2, 70, [-1, 2**69, n + 2**69])


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
