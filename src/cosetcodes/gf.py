"""Exact arithmetic in GF(p^e) plus the finite-field linear algebra the rest
of the library is built on.

Elements of GF(p^e) are labelled by the integers 0..p^e-1: the base-p digits
of a label are the coefficients of the element written in the polynomial
basis 1, x, x^2, ... of GF(p)[x]/(f), where f is the field's defining
polynomial.  Multiplication goes through log/antilog tables indexed by the
chosen primitive element; addition is XOR for p = 2 and, for odd p, goes
through the Zech logarithms Z(k) = log(1 + alpha^k), one int32 table of
q - 1 entries.  The context stores each table once, as an int32 array.
For q <= 512 the context also holds a full q x q multiplication table
and, for odd p, an addition table built by the Zech path.

make_field searches the monic polynomials in lexicographic order for the
first primitive one, skipping every constant term that no primitive
polynomial has, so the search at the 2^20 cap tests a handful of
candidates.  One companion matrix W of the defining polynomial serves both
the search and the tables: x^k mod f is the unit digit row times W^k, which
the primitivity test takes by square-and-multiply and the log/antilog
tables build in doubling blocks of digit rows, one small matrix product per
block.  The construction checks that the powers of alpha hit every nonzero
label exactly once.

Array arithmetic goes through one elementwise kernel, _add and _mul on
broadcasting label arrays (XOR for p = 2 at every size; for odd p, table
lookups for q <= 512, and above that Zech logarithms and log/exp
multiplication), next to one digit codec, _digits and _labels.  For odd
p, mat_vec is one integer matrix product over GF(p): each entry acts on
digit rows as its e x e matrix, the regular representation of GF(p^e).
The linear algebra has one elimination loop, _eliminate, over a
(B, r, c) stack of matrices: each step clears one pivot column in every
matrix that has a pivot there, so a whole stack takes c steps.  rref,
rank, independent_rows, nullspace and expand_matrix's coordinate change
(built once per field pair, in the cached SubfieldEmbedding) are views
on it; rank and independent_rows also take a stack, and return the B
ranks or a (B, r) mask of the kept rows.
A matrix is a 2-D int label array: the linear algebra takes any 2-D
sequence, and every matrix it or expand_matrix returns is an array, so an
empty one keeps its width.
Generator polynomials come from one root product, poly_with_roots: the
product of (x - alpha^j) over a whole defining set, taken in the extension
with the same kernel and lowered to the base field by one lookup in the
subfield embedding's inverse table, and returned as a read-only label
array, constant term first.  One Horner's rule, _horner, evaluates the
embedding's root search, conv's polynomial matrices and the identity
sweep's generators at arrays of points.

Every function in this module is a pure function of its inputs.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

MAX_FIELD_SIZE = 1 << 20


# ----------------------------------------------------------------------
# integer helpers
# ----------------------------------------------------------------------

def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^e with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = min(prime_factors(q))
    e = 0
    r = q
    while r % p == 0:
        r //= p
        e += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def require_prime_power(q: int, minimum: int):
    """Raise ValueError unless q is a prime power and at least minimum."""
    factor_prime_power(q)
    if q < minimum:
        raise ValueError(f"need q >= {minimum}, got {q}")


# ----------------------------------------------------------------------
# x^k modulo the defining polynomial, on the companion matrix
# ----------------------------------------------------------------------

def _companion(f, p):
    """The companion matrix W of the monic f over GF(p): row t holds the
    digits of x^(t+1) mod f, so a digit row v times W is v times x.

    Its dtype is the narrowest that holds a sum of e digit products, so no
    product of two such matrices overflows and no operand is cast."""
    e = len(f) - 1
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if np.iinfo(t).max >= e * (p - 1) ** 2)
    W = np.zeros((e, e), dtype=dtype)
    W[:-1, 1:] = np.eye(e - 1, dtype=dtype)
    W[-1] = [-c % p for c in f[:e]]
    return W


def _is_primitive(f, p, e):
    """True iff x generates the full multiplicative group mod the monic f.

    An element of order p^e - 1 can only exist when the quotient ring is the
    field GF(p^e), so this test subsumes irreducibility.  x^k is the unit
    row times W^k, by square-and-multiply on the squares W^(2^i)."""
    order = p**e - 1
    squares = [_companion(f, p)]
    for _ in range(order.bit_length() - 1):
        squares.append((squares[-1] @ squares[-1]) % p)
    one = np.zeros(e, dtype=squares[0].dtype)
    one[0] = 1

    def x_pow_is_one(k):
        row = one
        for i, S in enumerate(squares):
            if k >> i & 1:
                row = (row @ S) % p
        return np.array_equal(row, one)

    return x_pow_is_one(order) and not any(
        x_pow_is_one(order // r) for r in prime_factors(order))


def _power_digits(p, f, count):
    """Digit rows of x^0, ..., x^(count-1) modulo the monic f over GF(p).

    Built in doubling blocks: with row t of W holding the digits of
    x^(L+t) mod f, the rows L..2L-1 are the rows 0..L-1 times W, and the
    next block's W is W times W.  The first W is the companion matrix; at
    2^20 its int8 rows take 20 MB."""
    W = _companion(f, p)
    D = np.zeros((count, len(f) - 1), dtype=W.dtype)
    D[0, 0] = 1
    L = 1
    while L < count:
        b = min(L, count - L)
        D[L:L + b] = (D[:b] @ W) % p
        W = (W @ W) % p
        L *= 2
    return D


# ----------------------------------------------------------------------
# field context
# ----------------------------------------------------------------------

class FieldContext:
    """A realized GF(p^e) with log/antilog tables for a primitive element.

    Not constructed directly; use make_field(p, e).
    """

    def __init__(self, p: int, e: int, defining: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.defining = defining
        self._powers = tuple(p**t for t in range(e))
        # the labels of alpha^0..alpha^(q-1); einsum, unlike _labels, does
        # not cast all the digit rows to int64 at once (168 MB at 2^20)
        labels = np.einsum("it,t->i", _power_digits(p, defining, self.q),
                           np.array(self._powers, dtype=np.int64))
        exp = labels[:-1]
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(self.q - 1)
        # q - 1 powers hit every nonzero label iff none repeats and none is 0
        if not np.array_equal(exp[log[1:]], np.arange(1, self.q)):
            raise AssertionError("defining polynomial is not primitive")
        if labels[-1] != 1:
            raise AssertionError("alpha does not have order q-1")
        self.alpha = int(labels[1])
        # the one copy of the tables; _np_log[0] is 0
        self._np_exp = exp.astype(np.int32)
        self._np_log = log.astype(np.int32)
        # Zech logarithms for odd p: _zech[k] is the log of 1 + alpha^k, or
        # -1 where that sum is 0; adding 1 changes only digit 0 of a label,
        # so a digit 0 that reaches p wraps to 0 with no carry
        self._zech = None
        if p > 2:
            one_plus = self._np_exp + 1
            one_plus[one_plus % p == 0] -= p
            self._zech = self._np_log[one_plus]
            self._zech[one_plus == 0] = -1
        self._add_table = None
        self._mul_table = None
        if self.q <= 512:
            self._build_tables()

    # -- construction internals ----------------------------------------

    def _build_tables(self):
        # the kernel's table-free paths, run before either table exists; p = 2
        # adds by XOR, so it has no add table
        idx = np.arange(self.q)
        if self.p > 2:
            self._add_table = _add(self, idx[:, None], idx[None, :]).astype(np.int32)
        self._mul_table = _mul(self, idx[:, None], idx[None, :])

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def make_field(p: int, e: int) -> FieldContext:
    """GF(p^e) with the lexicographically smallest primitive defining
    polynomial (coefficients compared as tuples from the constant term up).

    The choice fixes a canonical primitive element, so generator
    polynomials and log tables are reproducible across runs.
    """
    if prime_factors(p) != [p]:
        raise ValueError(f"p={p} is not prime")
    if e < 1:
        raise ValueError(f"e={e} must be >= 1")
    if e > 20 or p**e > MAX_FIELD_SIZE:  # 2^21 is past the cap: no huge power is built
        raise ValueError(f"field size {p}^{e} exceeds cap {MAX_FIELD_SIZE}")
    for f in _candidate_polys(p, e):
        if _is_primitive(f, p, e):
            return FieldContext(p, e, tuple(f))
    raise AssertionError(f"no primitive polynomial of degree {e} over GF({p})")


def _candidate_polys(p, e):
    """Monic degree-e candidates in lexicographic order of (c0, ..., c_{e-1}),
    skipping every c0 that no primitive polynomial has.

    A primitive f has (-1)^e * c0 equal to the norm of its root, which is a
    primitive root mod p (Lidl & Niederreiter, Finite Fields, Thm 3.18); so
    the skipped candidates cannot be primitive and the first primitive
    candidate is the same with or without the skip."""
    for c0 in range(p):
        if _is_primitive_root((-1) ** e * c0 % p, p):
            for rest in itertools.product(range(p), repeat=e - 1):
                yield [c0, *rest, 1]


def _is_primitive_root(g, p):
    """True iff g generates the multiplicative group mod the prime p."""
    return g != 0 and all(pow(g, (p - 1) // r, p) != 1 for r in prime_factors(p - 1))


@lru_cache(maxsize=None)
def field_for(q: int) -> FieldContext:
    """GF(q) for a prime power q."""
    p, e = factor_prime_power(q)
    return make_field(p, e)


# ----------------------------------------------------------------------
# polynomials over a field context
# ----------------------------------------------------------------------

# a test reference only (ROADMAP aim 3), kept here as perfbench/spans.py wraps Poly.__mul__
class Poly:
    """Dense polynomial over a FieldContext, coefficients lowest degree first."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __mul__(self, other):
        ctx = self.ctx
        if self.is_zero or other.is_zero:
            return Poly.zero(ctx)
        short, long = sorted((self.coeffs, other.coeffs), key=len)
        long = np.array(long, dtype=np.int64)
        out = np.zeros(len(short) + len(long) - 1, dtype=np.int64)
        for i, c in enumerate(short):
            out[i:i + len(long)] = _add(ctx, out[i:i + len(long)], _mul(ctx, long, c))
        return Poly(ctx, out.tolist())

    def divmod(self, other) -> tuple["Poly", "Poly"]:
        ctx = self.ctx
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        if self.degree < d:
            return Poly.zero(ctx), self
        inv_lead = ctx._np_exp[-ctx._np_log[other.coeffs[-1]] % (ctx.q - 1)]
        # -other / lead: adding rem[i] times it clears rem[i]
        step = _mul(ctx, np.array(other.coeffs, dtype=np.int64), _mul(ctx, inv_lead, ctx.p - 1))
        rem = np.array(self.coeffs, dtype=np.int64)
        quot = np.zeros(self.degree - d + 1, dtype=np.int64)
        for i in range(self.degree, d - 1, -1):
            quot[i - d] = rem[i]
            rem[i - d:i + 1] = _add(ctx, rem[i - d:i + 1], _mul(ctx, step, rem[i]))
        return Poly(ctx, _mul(ctx, quot, inv_lead).tolist()), Poly(ctx, rem.tolist())

    def __repr__(self):
        return f"Poly({self.ctx!r}, {list(self.coeffs)})"


# ----------------------------------------------------------------------
# subfield embeddings and matrix expansion
# ----------------------------------------------------------------------

class SubfieldEmbedding:
    """The canonical copy of GF(q) inside GF(q^m).

    The image of the base field's primitive element is the root of the base
    defining polynomial with the smallest discrete log in the extension;
    that pins one specific field homomorphism, deterministically.  It also
    holds expand_matrix's coordinate change, built once per field pair.
    """

    def __init__(self, ext: FieldContext, base: FieldContext):
        if ext.p != base.p or ext.e % base.e != 0:
            raise ValueError(f"{base!r} is not a subfield of {ext!r}")
        self.ext = ext
        self.base = base
        self.m = ext.e // base.e
        # gamma = alpha^(t * stride) for the least t that makes it a root of
        # the base defining polynomial (its GF(p) digits are the same labels
        # in ext); for m = 1 that t is 1, or 0 in GF(2), so only t < 2 are tried
        stride = (ext.q - 1) // (base.q - 1)
        count = base.q - 1 if self.m > 1 else min(2, base.q - 1)
        logs = np.arange(count, dtype=np.int64) * stride
        values = _horner(ext, np.array(base.defining, dtype=np.int64), ext._np_exp[logs])
        roots = np.flatnonzero(values == 0)
        if not roots.size:
            raise AssertionError("no root of base defining polynomial in extension")
        gamma_log = int(logs[roots[0]])
        # _up takes alpha_base^s to gamma^s; _down inverts it (-1 off the copy)
        self._up = np.zeros(base.q, dtype=np.int64)
        self._up[base._np_exp] = ext._np_exp[gamma_log * np.arange(base.q - 1) % (ext.q - 1)]
        self._down = np.full(ext.q, -1, dtype=np.int32)
        self._down[self._up] = np.arange(base.q)
        # expand_matrix's coordinate change over GF(p): column (j, t) of B
        # holds the digits of _up[x^t] * alpha^j; its inverse is the right
        # half of rref([B | I])
        p, em = ext.p, ext.e
        cols = _mul(ext, ext._np_exp[:self.m, None], self._up[list(base._powers)])
        B = _digits(ext, cols).reshape(em, em).T
        R, pivots = rref(make_field(p, 1), np.hstack([B, np.eye(em, dtype=np.int64)]))
        if pivots != list(range(em)):
            raise AssertionError("polynomial basis is dependent over the base field")
        self._to_basis = R[:, em:].T


@lru_cache(maxsize=None)
def subfield_embedding(ext: FieldContext, base: FieldContext) -> SubfieldEmbedding:
    return SubfieldEmbedding(ext, base)


def poly_with_roots(ctx_ext: FieldContext, base_q: int, exponents) -> np.ndarray:
    """Monic polynomial over GF(base_q) whose roots are alpha^j, one linear
    factor for each exponent j (0 <= j < ctx_ext.q - 1), as a read-only 1-D
    label array of its coefficients, constant term first.

    The product is taken in the extension and then lowered to GF(base_q),
    which succeeds iff the exponents are a union of base_q-cyclotomic cosets
    (closed under j -> base_q * j); otherwise the lowering's ValueError
    says which coefficient is not in the subfield."""
    emb = subfield_embedding(ctx_ext, field_for(base_q))
    n = ctx_ext.q - 1
    # no dtype: an exponent past int64 makes an object array, still checked
    js = np.array(list(exponents))
    bad = (js < 0) | (js >= n)
    if bad.any():
        raise ValueError(f"exponent {js[bad.argmax()]} out of range [0, {n})")
    roots = ctx_ext._np_exp[js.astype(np.int64)]
    g = np.zeros(len(js) + 1, dtype=np.int64)
    g[0] = 1
    for d, c in enumerate(_mul(ctx_ext, roots, ctx_ext.p - 1)):
        # g <- g * (x + c), c = -root: g[t] <- g[t - 1] + c * g[t]
        shifted = np.concatenate(([0], g[:d + 1]))
        g[:d + 2] = _add(ctx_ext, shifted, _mul(ctx_ext, g[:d + 2], c))
    low = emb._down[g]
    if (low < 0).any():
        raise ValueError(f"{g[low.argmin()]} is not in the embedded subfield")
    low.flags.writeable = False
    return low


def expand_matrix(ctx_ext: FieldContext, base: FieldContext, rows) -> np.ndarray:
    """Expand a matrix over GF(q^m) into one over GF(q).

    Each extension-field row becomes m rows of base-field coordinates with
    respect to the polynomial basis 1, alpha, ..., alpha^(m-1).  A
    base-field vector is orthogonal to an extension row iff it is
    orthogonal to all m expanded rows.  The coordinate change comes from
    the cached subfield embedding.
    """
    emb = subfield_embedding(ctx_ext, base)
    A = np.asarray(rows, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if A.size and (A.min() < 0 or A.max() >= ctx_ext.q):
        raise ValueError("matrix entries out of field range")
    r, n = A.shape
    coords = (_digits(ctx_ext, A).reshape(-1, ctx_ext.e) @ emb._to_basis) % ctx_ext.p
    labels = _labels(base, coords.reshape(r, n, emb.m, base.e))  # (r, n, m)
    return labels.transpose(0, 2, 1).reshape(r * emb.m, n)


# ----------------------------------------------------------------------
# elementwise kernel on label arrays
# ----------------------------------------------------------------------

def _digits(ctx: FieldContext, A) -> np.ndarray:
    """The base-p digits of the labels A, lowest first, on a new last axis."""
    return (np.asarray(A, dtype=np.int64)[..., None] // np.array(ctx._powers)) % ctx.p


def _labels(ctx: FieldContext, D) -> np.ndarray:
    """The labels whose base-p digits lie on the last axis of D."""
    return D @ np.array(ctx._powers)


def _add(ctx: FieldContext, A, B) -> np.ndarray:
    """A + B elementwise over GF(q), broadcasting.  XOR for p = 2 at every
    size; for odd p, the table for q <= 512 and above that
    a + b = alpha^(log a + Z(log b - log a)) by the Zech logarithms Z."""
    if ctx.p == 2:
        return np.bitwise_xor(A, B)
    if ctx._add_table is not None:
        return ctx._add_table[A, B]
    exp, log, order = ctx._np_exp, ctx._np_log, ctx.q - 1
    A, B = np.broadcast_arrays(A, B)
    out = np.where(A == 0, B, A)
    nz = (A != 0) & (B != 0)
    la = log[A[nz]]
    z = ctx._zech[(log[B[nz]] - la) % order]
    out[nz] = np.where(z < 0, 0, exp[(la + z) % order])
    return out


def _mul(ctx: FieldContext, A, B) -> np.ndarray:
    """A * B elementwise over GF(q), broadcasting."""
    if ctx._mul_table is not None:
        return ctx._mul_table[A, B]
    exp, log = ctx._np_exp, ctx._np_log
    A, B = np.broadcast_arrays(A, B)
    out = np.zeros(A.shape, dtype=np.int32)
    nz = (A != 0) & (B != 0)
    out[nz] = exp[(log[A[nz]] + log[B[nz]]) % (ctx.q - 1)]
    return out


def _horner(ctx: FieldContext, coeffs, s) -> np.ndarray:
    """The polynomials with coefficients coeffs (degree on axis 0, constant
    term first) evaluated at s over GF(q), by Horner's rule; s broadcasts
    against coeffs[0]."""
    out = np.zeros(np.broadcast_shapes(np.shape(s), np.shape(coeffs)[1:]), dtype=np.int64)
    for c in coeffs[::-1]:
        out = _add(ctx, _mul(ctx, out, s), c)
    return out


# ----------------------------------------------------------------------
# linear algebra over GF(q)
# ----------------------------------------------------------------------

def _eliminate(ctx: FieldContext, stack) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination on every matrix of a (B, r, c) stack at
    once: the stack of their reduced row echelon forms and the (B, c) mask
    of their pivot columns.  Step c pivots, in every matrix that has a
    nonzero at or below its next pivot row, on the first such row, and
    clears column c in all its other rows; so a stack takes c steps."""
    A = np.array(stack)
    B, nrows, ncols = A.shape
    mask = np.zeros((B, ncols), dtype=bool)
    filled = np.zeros(B, dtype=np.int64)  # pivots found so far, per matrix
    below = np.arange(nrows)
    for c in range(ncols):
        if (filled == nrows).all():
            break
        cand = (A[:, :, c] != 0) & (below >= filled[:, None])
        bs = np.flatnonzero(cand.any(axis=1))
        if not bs.size:
            continue
        r, piv = filled[bs], cand[bs].argmax(axis=1)
        A[bs, r], A[bs, piv] = A[bs, piv], A[bs, r]
        # rows from r down are 0 left of column c, so only columns c: change
        inv = ctx._np_exp[-ctx._np_log[A[bs, r, c]] % (ctx.q - 1)]
        A[bs, r, c:] = _mul(ctx, A[bs, r, c:], inv[:, None])
        # every other row += (-row[c]) * pivot row
        factor = A[bs, :, c]
        factor[np.arange(bs.size), r] = 0
        minus = _mul(ctx, A[bs, r, c:], ctx.p - 1)
        sel = slice(None) if bs.size == B else bs  # a view when all pivot
        A[sel, :, c:] = _add(ctx, A[sel, :, c:], _mul(ctx, factor[:, :, None], minus[:, None]))
        mask[bs, c] = True
        filled[bs] += 1
    return A, mask


def rref(ctx: FieldContext, rows) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    R, mask = _eliminate(ctx, np.atleast_2d(rows)[None])
    return R[0], np.flatnonzero(mask[0]).tolist()


def independent_rows(ctx: FieldContext, rows):
    """Indices of the first maximal linearly independent subset, in order:
    the pivot columns of the transpose's RREF.  On a (B, r, c) stack, the
    (B, r) mask of the rows that each matrix keeps."""
    A = np.asarray(rows)
    if A.ndim == 3:
        return _eliminate(ctx, A.swapaxes(1, 2))[1]
    return rref(ctx, np.atleast_2d(A).T)[1]


def rank(ctx: FieldContext, rows):
    """Row rank over GF(q); on a (B, r, c) stack, the list of the B ranks."""
    A = np.asarray(rows)
    if A.ndim == 3:
        return independent_rows(ctx, A).sum(axis=1).tolist()
    return len(independent_rows(ctx, A))


def nullspace(ctx: FieldContext, rows) -> np.ndarray:
    """Basis of { v : M v^T = 0 } over GF(q)."""
    R, pivots = rref(ctx, rows)
    ncols = R.shape[1]
    free = np.delete(np.arange(ncols), pivots)  # np.setdiff1d imports numpy.ma
    basis = np.zeros((len(free), ncols), dtype=np.int32)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = _mul(ctx, R[:len(pivots), free].T, ctx.p - 1)
    return basis


def mat_vec(ctx: FieldContext, rows, V) -> np.ndarray:
    """M v^T over GF(q) for each row v of V: one row of results per row.

    For p = 2 the products are XOR-reduced.  For odd p it is one int64
    product over GF(p), whose right factor holds at row (j, t), column
    (i, s) digit s of M[i, j] * x^t; a sum has n * e terms <= (p - 1)^2."""
    M, V = np.atleast_2d(rows), np.asarray(V)
    if ctx.p == 2:
        return np.bitwise_xor.reduce(_mul(ctx, M, V[:, None, :]), axis=2)
    (r, n), e = M.shape, ctx.e
    acts = _digits(ctx, _mul(ctx, M.T[:, None], np.array(ctx._powers)[:, None]))
    sums = _digits(ctx, V).reshape(len(V), n * e) @ acts.reshape(n * e, r * e)
    return _labels(ctx, (sums % ctx.p).reshape(len(V), r, e))
