"""The memoised coset partition against the slow orbit walk it replaces,
and the production dual-containing test against both criteria."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcodes import cosets
from cosetcodes.cosets import _coset_by_walk, _orbit, all_cosets, complementary, coset_of
from cosetcodes.cyclic import DefiningSet, contains_dual


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
    n = q**m - 1
    c = coset_of(q, m, a)
    assert complementary(c) == _coset_by_walk(q, n, n - c.rep)


def test_all_cosets_returns_a_fresh_list_of_shared_cosets():
    first, second = all_cosets(5, 2), all_cosets(5, 2)
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
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
    assert complementary(c) == _coset_by_walk(2, n, 3)


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
