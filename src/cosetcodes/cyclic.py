"""Cyclic and BCH-style codes of length q^m - 1 over GF(q), built from
defining sets of cyclotomic cosets.

A defining set is its residue mask, marked and read through the digit
rotations of cosets: every set question, and the dual's set, is one
operation on it, with no coset partition, at any modulus up to the field
cap.  A code is a value object: base field, defining set and
dimension.  GF(q^m) is built on first read, by the parts that need it: the
generator polynomial, a read-only label array also built on first read,
and the check matrices.  The run bound, duals, the dual-containing test
and parity-check matrices (expanded over the base field, and cut from
blocks reduced coset by coset, each built once per process) live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import cosets, gf
from .gf import FieldContext


@dataclass(frozen=True)
class DefiningSet:
    """A union of cyclotomic cosets mod n, valued by its mask `bits`, a byte per residue;
    `mask` views it, and `exponents`, `reps` (least rotations) and `size` come on first read."""

    n: int
    q: int
    bits: bytes = field(repr=False)

    @classmethod
    def from_exponents(cls, q: int, m: int, exponents) -> "DefiningSet":
        """The union of the cosets of the exponents (each reduced mod n); a
        modulus past the field cap, which no code has, is refused."""
        n = cosets._modulus(q, min(m, 21))  # 2^21 - 1 is past the cap: q^m is not built
        if n >= gf.MAX_FIELD_SIZE:
            raise ValueError(f"modulus {q}^{m} - 1 exceeds cap {gf.MAX_FIELD_SIZE - 1}")
        try:
            xs = np.asarray(exponents, dtype=np.int64) % n
        except OverflowError:  # an exponent past int64
            xs = np.array([a % n for a in exponents], dtype=np.int64)
        hit = np.zeros(n, bool)
        for ys in cosets._rotations(q, n, xs.astype(np.int32)):
            hit[ys] = True
        return cls(n=n, q=q, bits=hit.tobytes())

    @cached_property
    def mask(self) -> np.ndarray:
        return np.frombuffer(self.bits, bool)

    @cached_property
    def exponents(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.mask).tolist())

    @cached_property
    def reps(self) -> tuple[int, ...]:
        xs = np.flatnonzero(self.mask).astype(np.int32)
        return tuple(xs[cosets._least_rotation(self.q, self.n, xs) == xs].tolist())

    @cached_property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass(frozen=True)
class CyclicCode:
    """Cyclic code over GF(q) of length n = q^m - 1 with defining set Z.

    g divides x^n - 1, its roots are exactly alpha^z for z in Z, and
    k = n - |Z|.  The extension field ext = GF(q^m), fixed by base and m,
    and g, a read-only label array, constant term first, are each built on
    first read; codes compare and hash without them.
    """

    base: FieldContext
    q: int
    m: int
    n: int
    defining: DefiningSet
    k: int

    @cached_property
    def ext(self) -> FieldContext:
        return gf.make_field(self.base.p, self.base.e * self.m)

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
    p, e = gf.factor_prime_power(q)
    gf.require_field(p, e * m)  # before GF(q) is built; ext is built on first read
    base = gf.make_field(p, e)
    n = q**m - 1
    defining = DefiningSet.from_exponents(q, m, exponents)
    return CyclicCode(base=base, q=q, m=m, n=n, defining=defining, k=n - defining.size)


def _negated(mask: np.ndarray) -> np.ndarray:
    """The mask of -Z: x is in -Z iff n - x mod n is in Z, so it is the
    mask reversed and rolled by one."""
    return np.concatenate((mask[:1], mask[:0:-1]))


def bch_bound(code) -> int:
    """1 + the longest cyclic run of consecutive exponents in the defining
    set: the run-based lower bound on minimum distance.  Accepts a
    CyclicCode or a DefiningSet; an empty set gives 1."""
    mask = (code.defining if isinstance(code, CyclicCode) else code).mask
    # rotated to start at a non-member (at 0 if there is none), no run
    # wraps; each run lies between a rise and a fall of the padded mask
    start = int(mask.argmin())
    padded = np.concatenate(([False], mask[start:], mask[:start], [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return 1 + int((edges[1::2] - edges[::2]).max(initial=0))


def dual_defining_set(code: CyclicCode) -> DefiningSet:
    """Defining set of the Euclidean dual: {0..n-1} minus -Z mod n."""
    return DefiningSet(code.n, code.q, (~_negated(code.defining.mask)).tobytes())


def dual_code(code: CyclicCode) -> CyclicCode:
    dual = dual_defining_set(code)
    return replace(code, defining=dual, k=code.n - dual.size)


def contains_dual(code) -> bool:
    """True iff the code contains its Euclidean dual, i.e. Z intersect -Z
    is empty.  This is equivalent to no member coset's complementary coset
    being itself a member; the verify sweep checks that the two criteria
    agree.  Accepts a CyclicCode or a bare DefiningSet.
    """
    mask = (code.defining if isinstance(code, CyclicCode) else code).mask
    return not (mask & _negated(mask)).any()


def nested(outer: CyclicCode, inner: CyclicCode) -> bool:
    """True iff inner is a subcode of outer, i.e. Z(outer) is a subset of
    Z(inner) (equivalently g_outer divides g_inner)."""
    if (outer.n, outer.q) != (inner.n, inner.q):
        raise ValueError("codes have different length or alphabet")
    return not (outer.defining.mask & ~inner.defining.mask).any()


_BLOCKS: dict = {}  # (ext, base) -> {exponent: (block, keep-mask)}, read-only


def check_matrix_blocks(code: CyclicCode, rows) -> tuple[np.ndarray, np.ndarray]:
    """parity_check_matrix's (R, m, n) stack of expanded blocks, one for the
    first exponent of each coset in `rows`, and the (R, m) mask of the rows
    that one stacked independent_rows call keeps.  The m rows of a block
    span the minimal ideal of its coset, and since gcd(n, q) = 1 the ideals
    of distinct cosets form a direct sum (MacWilliams & Sloane, ch. 8): a
    later exponent of a coset adds no row, each block keeps what it would
    keep alone, and any ordered subset of the blocks, cut by their masks,
    is the check matrix of its exponents.

    So each exponent's block and mask are built once per process and kept
    in _BLOCKS; a call expands and reduces only the exponents not kept yet.
    When it keeps none of them, it returns the new read-only arrays
    themselves; otherwise a new stack of the kept ones."""
    n, q, m = code.n, code.q, code.m
    rows = np.asarray(list(rows), dtype=np.int64)
    bad = rows[(rows < 0) | (rows >= n)]
    if bad.size:
        raise ValueError(f"exponent {bad[0]} out of range [0, {n})")
    # keep the first exponent of each coset, keyed by its representative
    first = {}
    for x, i in zip(cosets._least_rotation(q, n, rows).tolist(), rows.tolist()):
        first.setdefault(x, i)
    rows = list(first.values())
    memo = _BLOCKS.setdefault((code.ext, code.base), {})
    fresh = np.array([x for x in rows if x not in memo], dtype=np.int64)
    if fresh.size or not rows:
        raw = gf.expand_matrix(code.ext, code.base,
                               code.ext._np_exp[np.outer(fresh, np.arange(n)) % n])
        blocks = raw.reshape(len(fresh), m, n)
        keep = gf.independent_rows(code.base, blocks)
        blocks.flags.writeable = keep.flags.writeable = False
        memo.update(zip(fresh.tolist(), zip(blocks, keep)))
        if len(fresh) == len(rows):
            return blocks, keep
    return (np.stack([memo[x][0] for x in rows]),
            np.stack([memo[x][1] for x in rows]))


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
