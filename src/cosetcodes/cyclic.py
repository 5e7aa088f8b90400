"""Cyclic and BCH-style codes of length q^m - 1 over GF(q), built from
defining sets of cyclotomic cosets.

A defining set holds its coset representatives and exponents as ints.  A
code is a value object: defining set and dimension, with the generator
polynomial built on first read as a read-only label array.  The run-based
designed-distance bound, duals, the dual-containing test and parity-check
matrices (expanded over the base field, and cut from blocks reduced coset
by coset) all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf
from .cosets import union_of
from .gf import FieldContext


@dataclass(frozen=True)
class DefiningSet:
    """A union of cyclotomic cosets: its sorted coset representatives and exponents."""

    n: int
    q: int
    reps: tuple[int, ...]
    exponents: tuple[int, ...]

    @classmethod
    def from_exponents(cls, q: int, m: int, exponents) -> "DefiningSet":
        """The union of the cosets of the exponents (each reduced mod n)."""
        reps, flat = union_of(q, m, exponents)
        return cls(n=q**m - 1, q=q, reps=reps, exponents=flat)

    @property
    def size(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class CyclicCode:
    """Cyclic code over GF(q) of length n = q^m - 1 with defining set Z.

    g divides x^n - 1, its roots are exactly alpha^z for z in Z, and
    k = n - |Z|.  g is a read-only label array, constant term first, built
    on first read; codes compare and hash without it.
    """

    base: FieldContext
    ext: FieldContext
    q: int
    m: int
    n: int
    defining: DefiningSet
    k: int

    @cached_property
    def generator(self) -> np.ndarray:
        return gf.poly_with_roots(self.ext, self.q, self.defining.exponents)

    def __repr__(self):
        return f"CyclicCode[{self.n}, {self.k}]_{self.q}"


def code_from_cosets(q: int, m: int, exponents) -> CyclicCode:
    """Cyclic code whose defining set Z is the union of the cosets of the
    given exponents."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    base = gf.field_for(q)
    ext = gf.make_field(base.p, base.e * m)
    n = q**m - 1
    defining = DefiningSet.from_exponents(q, m, exponents)
    return CyclicCode(base=base, ext=ext, q=q, m=m, n=n, defining=defining,
                      k=n - defining.size)


def _longest_cyclic_run(exponents, n: int) -> int:
    if not exponents:
        return 0
    zs = sorted(exponents)
    if len(zs) == n:
        return n
    present = set(zs)
    best = 0
    for z in zs:
        if (z - 1) % n in present:
            continue  # not a run start
        length = 1
        while (z + length) % n in present:
            length += 1
        best = max(best, length)
    return best


def bch_bound(code) -> int:
    """1 + the longest cyclic run of consecutive exponents in the defining
    set: the run-based lower bound on minimum distance.  Accepts a
    CyclicCode or a DefiningSet; an empty set gives 1."""
    ds = code.defining if isinstance(code, CyclicCode) else code
    return 1 + _longest_cyclic_run(ds.exponents, ds.n)


def dual_defining_set(code: CyclicCode) -> DefiningSet:
    """Defining set of the Euclidean dual: {0..n-1} minus -Z mod n."""
    keep = np.ones(code.n, bool)
    keep[-np.array(code.defining.exponents, dtype=np.int64) % code.n] = False
    return DefiningSet.from_exponents(code.q, code.m, np.flatnonzero(keep))


def dual_code(code: CyclicCode) -> CyclicCode:
    return code_from_cosets(code.q, code.m, dual_defining_set(code).reps)


def contains_dual(code) -> bool:
    """True iff the code contains its Euclidean dual, i.e. Z intersect -Z
    is empty, tested on the exponents as Python ints, so any modulus
    works.  This is equivalent to no member coset's complementary coset
    being itself a member; the verify sweep checks that the two criteria
    agree.  Accepts a CyclicCode or a bare DefiningSet.
    """
    ds = code.defining if isinstance(code, CyclicCode) else code
    zs = set(ds.exponents)
    return not any(-z % ds.n in zs for z in zs)


def nested(outer: CyclicCode, inner: CyclicCode) -> bool:
    """True iff inner is a subcode of outer, i.e. Z(outer) is a subset of
    Z(inner) (equivalently g_outer divides g_inner)."""
    if (outer.n, outer.q) != (inner.n, inner.q):
        raise ValueError("codes have different length or alphabet")
    return set(outer.defining.exponents) <= set(inner.defining.exponents)


def check_matrix_blocks(code: CyclicCode, rows) -> tuple[np.ndarray, np.ndarray]:
    """parity_check_matrix's (R, m, n) stack of expanded blocks, one for the
    first exponent of each coset in `rows`, and the (R, m) mask of the rows
    that one stacked independent_rows call keeps.  The m rows of a block
    span the minimal ideal of its coset, and since gcd(n, q) = 1 the ideals
    of distinct cosets form a direct sum (MacWilliams & Sloane, ch. 8): a
    later exponent of a coset adds no row, each block keeps what it would
    keep alone, and any ordered subset of the blocks, cut by their masks,
    is the check matrix of its exponents."""
    n, q, m = code.n, code.q, code.m
    rows = np.asarray(list(rows), dtype=np.int64)
    bad = rows[(rows < 0) | (rows >= n)]
    if bad.size:
        raise ValueError(f"exponent {bad[0]} out of range [0, {n})")
    # keep the first exponent of each coset, keyed by its least element;
    # rows * q^j < n^2 <= 2^40, and no partition is needed at any modulus
    least = (rows[:, None] * q ** np.arange(m) % n).min(axis=1)
    first = {}
    for i, x in enumerate(least.tolist()):
        first.setdefault(x, i)
    rows = rows[list(first.values())]
    raw = gf.expand_matrix(code.ext, code.base,
                           code.ext._np_exp[np.outer(rows, np.arange(n)) % n])
    blocks = raw.reshape(len(rows), m, n)
    return blocks, gf.independent_rows(code.base, blocks)


def parity_check_matrix(code: CyclicCode, rows) -> np.ndarray:
    """Check matrix over GF(q) from the Vandermonde-style extension rows
    (1, alpha^i, alpha^(2i), ...) for each exponent i in `rows`, expanded
    over the polynomial basis, with linearly dependent rows removed (first
    maximal independent subset, in row order), made coset by coset."""
    blocks, keep = check_matrix_blocks(code, rows)
    return blocks[keep]


def codeword_basis(code: CyclicCode) -> np.ndarray:
    """The k cyclic shifts x^j g(x), j = 0..k-1, as length-n vectors: a
    GF(q)-basis of the code."""
    g = code.generator
    rows = np.zeros((code.k, code.n), dtype=np.int64)
    shifts = np.arange(code.k)[:, None]
    rows[shifts, shifts + np.arange(len(g))] = g
    return rows
