"""CSS-type qudit code parameters from nested pairs of cyclic codes.

A nested pair C2 in C1 yields an [[n, k1 - k2, D]] qudit code whose distance
is at least the smaller of the two run-based bounds, for C1 and for the dual
of C2.  Each of the four parameter families checks its range, builds its
outer code from the cosets of 0..c-2 (checking m and GF(q^m) before any
excluded coset is computed) and calls _pair_excluding, which returns the
family's parameters with its c as the design.  The inner code's defining
set is the complement of the excluded cosets' residue mask; no coset
partition is built.  The families keep the coset listing's modulus cap,
MAX_MODULUS, and refuse larger moduli.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from . import cyclic
from .cosets import MAX_MODULUS, ladder_cosets
from .cyclic import CyclicCode
from .gf import require_prime_power


@dataclass(frozen=True)
class CssParams:
    """Parameters of one CSS pair.

    distance_lb is min(bch_bound(outer), bch_bound(dual of inner)).
    designed_distance is the family's target (None for ad-hoc pairs); it is
    what parameter tables print.
    """

    n: int
    q: int
    m: int
    k: int
    distance_lb: int
    designed_distance: int | None
    family: str | None
    outer: CyclicCode
    inner: CyclicCode

    @property
    def k1(self) -> int:
        return self.outer.k

    @property
    def k2(self) -> int:
        return self.inner.k

    @property
    def printed_distance(self) -> int:
        return self.designed_distance if self.designed_distance is not None else self.distance_lb

    def bracket(self) -> str:
        return f"[[{self.n}, {self.k}, d >= {self.printed_distance}]]_{self.q}"

    def __repr__(self):
        return f"CssParams({self.bracket()})"


def css_from_pair(
    outer: CyclicCode,
    inner: CyclicCode,
    designed_distance: int | None = None,
    family: str | None = None,
) -> CssParams:
    """CSS parameters from a nested pair (inner must be a subcode of outer)."""
    if not cyclic.nested(outer, inner):
        raise ValueError("inner is not a subcode of outer")
    d_lb = min(cyclic.bch_bound(outer), cyclic.bch_bound(cyclic.dual_defining_set(inner)))
    return CssParams(
        n=outer.n, q=outer.q, m=outer.m, k=outer.k - inner.k,
        distance_lb=d_lb, designed_distance=designed_distance,
        family=family, outer=outer, inner=inner,
    )


def _pair_excluding(outer: CyclicCode, c: int, excluded_exponents, family: str) -> CssParams:
    """The pair with design c: the given outer code, from the cosets of
    0..c-2; inner from every coset except those of the given exponents."""
    if outer.n > MAX_MODULUS:
        raise ValueError(f"modulus {outer.n} exceeds cap {MAX_MODULUS}")
    excluded = cyclic.DefiningSet.from_exponents(outer.q, outer.m, excluded_exponents)
    Z = cyclic.DefiningSet(outer.n, outer.q, (~excluded.mask).tobytes())
    inner = replace(outer, defining=Z, k=outer.n - Z.size)
    return css_from_pair(outer, inner, designed_distance=c, family=family)


def family_block_full(q: int) -> CssParams:
    """[[q^2-1, q^2-4q+5, d >= q]]: length q^2-1, the widest mirrored-block
    defining sets."""
    require_prime_power(q, 3)
    outer = cyclic.code_from_cosets(q, 2, range(q - 1))
    return _pair_excluding(outer, q, range(q + 1, 2 * q), "css-block-full")


def family_block(q: int, c: int) -> CssParams:
    """[[q^2-1, q^2-4c+5, d >= c]] for 2 <= c <= q; c = q reproduces
    family_block_full and warns."""
    require_prime_power(q, 3)
    if not 2 <= c <= q:
        raise ValueError(f"need 2 <= c <= q, got c={c}")
    if c == q:
        warnings.warn(
            "c = q reproduces family_block_full; the stated range is c < q",
            stacklevel=2,
        )
    outer = cyclic.code_from_cosets(q, 2, range(c - 1))
    return _pair_excluding(outer, c, range(q + 1, q + c), "css-block")


def family_block_even(q: int, m: int, c: int) -> CssParams:
    """[[n, n - 2m(c-2) - m/2 - 1, d >= c]] for even m: the excluded block
    starts right after q^(m/2), where one coset has only m/2 elements."""
    require_prime_power(q, 3)
    if m < 2 or m % 2 != 0:
        raise ValueError(f"need even m >= 2, got m={m}")
    if not 2 <= c <= q:
        raise ValueError(f"need 2 <= c <= q, got c={c}")
    outer = cyclic.code_from_cosets(q, m, range(c - 1))
    half = q ** (m // 2)
    return _pair_excluding(outer, c, range(half + 1, half + c), "css-block-even")


def family_ladder(q: int, m: int, c: int) -> CssParams:
    """[[n, n - m(2c-3) - 1, d >= c]]: the inner code excludes the ladder
    cosets of q+1, 2q+1, ..., (c-1)q+1, whose final orbit elements are
    consecutive."""
    require_prime_power(q, 3)
    if not 2 <= c <= q:
        raise ValueError(f"need 2 <= c <= q, got c={c}")
    outer = cyclic.code_from_cosets(q, m, range(c - 1))
    # checks the ladder hypothesis (c-1)q+1 < q^ceil(m/2) - 1 and structure
    ladder = ladder_cosets(q, m, c - 1)
    return _pair_excluding(outer, c, [lc.rep for lc in ladder], "css-ladder")
