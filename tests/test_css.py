import tracemalloc
import warnings

import pytest

from cosetcodes import cyclic, families
from cosetcodes.css import (
    css_from_pair,
    family_block,
    family_block_even,
    family_block_full,
    family_ladder,
)


# ---------------------------------------------------------------
# family parameters (table values)
# ---------------------------------------------------------------

@pytest.mark.parametrize("q,expected", [
    (3, "[[8, 2, d >= 3]]_3"),
    (7, "[[48, 26, d >= 7]]_7"),
    (9, "[[80, 50, d >= 9]]_9"),
])
def test_family_block_full(q, expected):
    assert family_block_full(q).bracket() == expected


@pytest.mark.parametrize("q,c,expected", [
    (4, 3, "[[15, 9, d >= 3]]_4"),
    (13, 11, "[[168, 130, d >= 11]]_13"),
    (5, 2, "[[24, 22, d >= 2]]_5"),
    (5, 4, "[[24, 14, d >= 4]]_5"),
])
def test_family_block(q, c, expected):
    assert family_block(q, c).bracket() == expected


@pytest.mark.parametrize("q,m,c,expected", [
    (4, 2, 4, "[[15, 5, d >= 4]]_4"),
    (5, 4, 5, "[[624, 597, d >= 5]]_5"),
    (3, 2, 2, "[[8, 6, d >= 2]]_3"),
])
def test_family_block_even(q, m, c, expected):
    assert family_block_even(q, m, c).bracket() == expected


@pytest.mark.parametrize("q,m,c,expected", [
    (5, 3, 5, "[[124, 102, d >= 5]]_5"),
    (7, 3, 7, "[[342, 308, d >= 7]]_7"),
    (4, 4, 3, "[[255, 242, d >= 3]]_4"),
])
def test_family_ladder(q, m, c, expected):
    assert family_ladder(q, m, c).bracket() == expected


def test_derived_sets_come_from_mask_operations(monkeypatch):
    # a dual set, a dual code and a CSS inner code are each a complement or
    # negation of a mask: none goes back through the exponents
    code = cyclic.code_from_cosets(5, 2, [1, 2, 3])
    made, real = [], cyclic.DefiningSet.from_exponents

    def counted(cls, q, m, exponents):
        made.append(real(q, m, exponents))
        return made[-1]

    monkeypatch.setattr(cyclic.DefiningSet, "from_exponents", classmethod(counted))
    dual = cyclic.dual_code(code)
    assert cyclic.dual_defining_set(code) == dual.defining and made == []
    assert dual.k == code.n - code.k and cyclic.dual_code(dual) == code
    for build in (lambda: family_block_full(5), lambda: family_block(7, 4),
                  lambda: family_block_even(3, 4, 3), lambda: family_ladder(4, 4, 3)):
        made.clear()
        pair = build()
        # the outer code's cosets and the excluded cosets, and no more
        assert len(made) == 2 and made[0] == pair.outer.defining
        assert pair.inner.defining.exponents == tuple(
            x for x in range(pair.n) if x not in made[1].exponents)
        assert pair.inner.k == pair.n - pair.inner.defining.size


def test_block_pair_at_q_997_holds_its_masks_only():
    # n = 994,008: each defining set is a mask of one byte per residue, so
    # the pair holds about 2 MB and peaks at 6 MB; it held 21.9 MB (42.8 MB
    # at the peak) while a set kept its half a million coset reps as ints
    tracemalloc.start()
    try:
        pair = family_block(997, 5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.bracket() == "[[994008, 993994, d >= 5]]_997"
    assert held < 4e6, f"the pair holds {held / 1e6:.1f} MB"
    assert peak < 12e6, f"the pair's build peaked at {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------
# pairing
# ---------------------------------------------------------------

def test_degenerate_pair_has_no_logical_space():
    code = cyclic.code_from_cosets(5, 2, [0, 1])
    params = css_from_pair(code, code)
    assert params.k == 0


def test_css_from_pair_rejects_non_nested():
    a = cyclic.code_from_cosets(5, 2, [1])
    b = cyclic.code_from_cosets(5, 2, [2])
    with pytest.raises(ValueError):
        css_from_pair(a, b)


def test_block_at_c_equals_q_warns_and_matches_full():
    with pytest.warns(UserWarning):
        at_edge = family_block(5, 5)
    full = family_block_full(5)
    assert at_edge.outer.defining == full.outer.defining
    assert at_edge.inner.defining == full.inner.defining
    assert (at_edge.n, at_edge.k, at_edge.distance_lb) == (full.n, full.k, full.distance_lb)


def test_registry_warning_names_the_callers_line():
    with pytest.warns(UserWarning, match="c = q reproduces family_block_full") as record:
        families.BY_NAME["css-block"].build(q=3, c=3)
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_block_full_is_block_at_q(q):
    full = family_block_full(q)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        edge = family_block(q, q)
    assert full.outer.defining == edge.outer.defining
    assert full.inner.defining == edge.inner.defining


@pytest.mark.parametrize("q,c", [(4, 3), (5, 3), (7, 4)])
def test_block_even_at_m2_reproduces_block(q, c):
    a = family_block(q, c)
    b = family_block_even(q, 2, c)
    assert a.outer.defining == b.outer.defining
    assert a.inner.defining == b.inner.defining


def test_family_range_errors():
    with pytest.raises(ValueError):
        family_block_full(2)
    with pytest.raises(ValueError):
        family_block_full(6)  # not a prime power
    with pytest.raises(ValueError):
        family_block(5, 1)
    with pytest.raises(ValueError):
        family_block(5, 6)
    with pytest.raises(ValueError):
        family_block_even(5, 3, 3)  # odd m
    with pytest.raises(ValueError):
        family_ladder(5, 2, 3)  # ladder hypothesis fails at m = 2


# ---------------------------------------------------------------
# structural invariants over every printed instance
# ---------------------------------------------------------------

def _all_table_instances():
    for fam, args in families.rows(1, 2):
        yield fam.build(**args)


def test_every_instance_is_nested_with_recounted_dimension():
    for params in _all_table_instances():
        assert cyclic.nested(params.outer, params.inner)
        assert params.k == params.outer.k - params.inner.k > 0
        # dimensions recomputed from coset cardinalities
        assert params.outer.k == params.n - params.outer.defining.size
        assert params.inner.k == params.n - params.inner.defining.size


def test_distance_bound_equals_design_on_every_instance():
    # the run-based bound lands exactly on the designed distance for every
    # printed instance (the outer run has exact length c-1)
    for params in _all_table_instances():
        assert params.distance_lb == params.designed_distance


def test_closed_form_dimensions():
    for fam, args in families.rows(1):
        params = fam.build(**args)
        q, c = params.q, params.designed_distance
        assert params.k == q * q - 4 * c + 5
    for q, m, c in families.BY_NAME["css-block-even"].instances:
        n = q**m - 1
        assert family_block_even(q, m, c).k == n - 2 * m * (c - 2) - m // 2 - 1
    for q, m, c in families.BY_NAME["css-ladder"].instances:
        n = q**m - 1
        assert family_ladder(q, m, c).k == n - m * (2 * c - 3) - 1
