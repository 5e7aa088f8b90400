"""Exact arithmetic in GF(p^e) plus the finite-field linear algebra the rest
of the library is built on.

Elements of GF(p^e) are labelled by the integers 0..p^e-1: the base-p digits
of a label are the coefficients of the element written in the polynomial
basis 1, x, x^2, ... of GF(p)[x]/(f), where f is the field's defining
polynomial.  Multiplication goes through log/antilog tables indexed by the
chosen primitive element; addition is digit-wise mod p.

Field contexts are immutable after construction and safe to share between
threads; every function in this module is a pure function of its inputs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_FIELD_SIZE = 1 << 20


# ----------------------------------------------------------------------
# integer helpers
# ----------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


# ----------------------------------------------------------------------
# polynomial arithmetic over GF(p) on digit lists (construction only)
# ----------------------------------------------------------------------

def _gfp_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _gfp_poly_mod(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(df):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _gfp_poly_pow_x(k, f, p):
    """x^k reduced modulo the monic polynomial f, as a digit list."""
    result = [1]
    base = _gfp_poly_mod([0, 1], f, p)
    while k:
        if k & 1:
            result = _gfp_poly_mod(_gfp_poly_mul(result, base, p), f, p)
        base = _gfp_poly_mod(_gfp_poly_mul(base, base, p), f, p)
        k >>= 1
    return result


def _is_primitive(f, p, e):
    """True iff x generates the full multiplicative group mod the monic f.

    An element of order p^e - 1 can only exist when the quotient ring is the
    field GF(p^e), so this test subsumes irreducibility.
    """
    order = p**e - 1
    for r in prime_factors(order):
        if _gfp_poly_pow_x(order // r, f, p) == [1]:
            return False
    return _gfp_poly_pow_x(order, f, p) == [1]


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
        exp = [0] * (self.q - 1)
        log: list[int | None] = [None] * self.q
        alpha = self._alpha_from_defining()
        val = 1
        for i in range(self.q - 1):
            exp[i] = val
            if log[val] is not None:
                raise AssertionError("defining polynomial is not primitive")
            log[val] = i
            val = self._mul_by_alpha(val, alpha)
        if val != 1:
            raise AssertionError("alpha does not have order q-1")
        self.exp = exp
        self.log = log
        self.alpha = alpha
        self._add_table = None
        self._np_exp = None
        self._np_log = None
        if self.q <= 512:
            self._build_add_table()

    # -- construction internals ----------------------------------------

    def _alpha_from_defining(self) -> int:
        if self.e == 1:
            return (-self.defining[0]) % self.p
        return self.p  # the element x

    def _mul_by_alpha(self, a: int, alpha: int) -> int:
        if self.e == 1:
            return (a * alpha) % self.p
        # multiply by x: shift digits once, reduce by the defining polynomial
        digs = list(self.digits(a))
        digs = [0] + digs
        c = digs.pop()
        if c:
            for j in range(self.e):
                digs[j] = (digs[j] - c * self.defining[j]) % self.p
        return self.from_digits(digs)

    def _build_add_table(self):
        p, e, q = self.p, self.e, self.q
        idx = np.arange(q, dtype=np.int64)
        digs = (idx[:, None] // np.array(self._powers, dtype=np.int64)) % p
        table = ((digs[:, None, :] + digs[None, :, :]) % p * np.array(self._powers)).sum(axis=2)
        self._add_table = table.astype(np.int32)

    # -- representation helpers -----------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        p = self.p
        return tuple((a // pw) % p for pw in self._powers)

    def from_digits(self, digs) -> int:
        return sum(d * pw for d, pw in zip(digs, self._powers))

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return int(self._add_table[a, b])
        if self.p == 2:
            return a ^ b
        p = self.p
        return sum(((a // pw + b // pw) % p) * pw for pw in self._powers)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        return sum(((-(a // pw)) % p) * pw for pw in self._powers)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    # -- numpy views -------------------------------------------------------

    def np_tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._np_exp is None:
            self._np_exp = np.array(self.exp, dtype=np.int32)
            log = [0] * self.q
            for v in range(1, self.q):
                log[v] = self.log[v]
            self._np_log = np.array(log, dtype=np.int32)
        return self._np_exp, self._np_log

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def make_field(p: int, e: int) -> FieldContext:
    """GF(p^e) with the lexicographically smallest primitive defining
    polynomial (coefficients compared as tuples from the constant term up).

    The choice fixes a canonical primitive element, so generator
    polynomials and log tables are reproducible across runs.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if e < 1:
        raise ValueError(f"e={e} must be >= 1")
    if p**e > MAX_FIELD_SIZE:
        raise ValueError(f"field size {p}^{e} exceeds cap {MAX_FIELD_SIZE}")
    for f in _candidate_polys(p, e):
        if _is_primitive(f, p, e):
            return FieldContext(p, e, tuple(f))
    raise AssertionError(f"no primitive polynomial of degree {e} over GF({p})")


def _candidate_polys(p, e):
    # monic degree-e candidates in lexicographic order of (c0, ..., c_{e-1})
    coeffs = [0] * e
    while True:
        yield coeffs + [1]
        i = e - 1
        while i >= 0 and coeffs[i] == p - 1:
            coeffs[i] = 0
            i -= 1
        if i < 0:
            return
        coeffs[i] += 1


@lru_cache(maxsize=None)
def field_for(q: int) -> FieldContext:
    """GF(q) for a prime power q."""
    p, e = factor_prime_power(q)
    return make_field(p, e)


# ----------------------------------------------------------------------
# polynomials over a field context
# ----------------------------------------------------------------------

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

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,))

    @classmethod
    def x_pow_minus_one(cls, ctx, n: int):
        coeffs = [0] * (n + 1)
        coeffs[0] = ctx.neg(1)
        coeffs[n] = 1
        return cls(ctx, coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __add__(self, other):
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return Poly(ctx, out)

    def __sub__(self, other):
        ctx = self.ctx
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(ctx.sub(a, b))
        return Poly(ctx, out)

    def __mul__(self, other):
        ctx = self.ctx
        if self.is_zero or other.is_zero:
            return Poly.zero(ctx)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                la = ctx.log[a]
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = ctx.add(
                            out[i + j], ctx.exp[(la + ctx.log[b]) % (ctx.q - 1)]
                        )
        return Poly(ctx, out)

    def divmod(self, other) -> tuple["Poly", "Poly"]:
        ctx = self.ctx
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(ctx), Poly(ctx, rem)
        quot = [0] * (dq + 1)
        inv_lead = ctx.inv(other.coeffs[-1])
        for i in range(len(rem) - 1, len(other.coeffs) - 2, -1):
            c = rem[i]
            if c:
                f = ctx.mul(c, inv_lead)
                quot[i - (len(other.coeffs) - 1)] = f
                for j, oc in enumerate(other.coeffs):
                    rem[i - (len(other.coeffs) - 1) + j] = ctx.sub(
                        rem[i - (len(other.coeffs) - 1) + j], ctx.mul(f, oc)
                    )
        return Poly(ctx, quot), Poly(ctx, rem)

    def evaluate(self, x: int) -> int:
        ctx = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, x), c)
        return acc

    def __repr__(self):
        return f"Poly({self.ctx!r}, {list(self.coeffs)})"


# ----------------------------------------------------------------------
# subfield embeddings and matrix expansion
# ----------------------------------------------------------------------

class SubfieldEmbedding:
    """The canonical copy of GF(q) inside GF(q^m).

    The image of the base field's primitive element is the root of the base
    defining polynomial with the smallest discrete log in the extension;
    that pins one specific field homomorphism, deterministically.
    """

    def __init__(self, ext: FieldContext, base: FieldContext):
        if ext.p != base.p or ext.e % base.e != 0:
            raise ValueError(f"{base!r} is not a subfield of {ext!r}")
        self.ext = ext
        self.base = base
        self.m = ext.e // base.e
        stride = (ext.q - 1) // (base.q - 1)
        defining = base.defining
        gamma_log = None
        for t in range(base.q - 1):
            cand = ext.exp[(t * stride) % (ext.q - 1)]
            acc = 0
            for c in reversed(defining):
                acc = ext.add(ext.mul(acc, cand), c % ext.p)
            if acc == 0:
                gamma_log = (t * stride) % (ext.q - 1)
                break
        if gamma_log is None:
            raise AssertionError("no root of base defining polynomial in extension")
        up = [0] * base.q
        for s in range(base.q - 1):
            up[base.exp[s]] = ext.exp[(gamma_log * s) % (ext.q - 1)]
        self.gamma = ext.exp[gamma_log]
        self._up = up
        self._down = {v: i for i, v in enumerate(up)}

    def lift(self, x: int) -> int:
        return self._up[x]

    def lower(self, y: int) -> int:
        try:
            return self._down[y]
        except KeyError:
            raise ValueError(f"{y} is not in the embedded subfield") from None


@lru_cache(maxsize=None)
def subfield_embedding(ext: FieldContext, base: FieldContext) -> SubfieldEmbedding:
    return SubfieldEmbedding(ext, base)


def minimal_polynomial(ctx_ext: FieldContext, base_q: int, i: int) -> Poly:
    """Monic polynomial over GF(base_q) whose roots are alpha^j for j in the
    base_q-coset of i modulo ctx_ext.q - 1."""
    n = ctx_ext.q - 1
    if not 0 <= i < n:
        raise ValueError(f"exponent {i} out of range [0, {n})")
    p, eb = factor_prime_power(base_q)
    if ctx_ext.p != p or ctx_ext.e % eb != 0:
        raise ValueError(f"GF({base_q}) is not a subfield of {ctx_ext!r}")
    base = make_field(p, eb)
    emb = subfield_embedding(ctx_ext, base)
    orbit = [i]
    j = (i * base_q) % n
    while j != i:
        orbit.append(j)
        j = (j * base_q) % n
    # product of (x - alpha^j), computed in the extension
    coeffs = [1]
    for j in orbit:
        root = ctx_ext.exp[j % n] if n > 0 else 1
        c = ctx_ext.neg(root)
        nxt = [0] * (len(coeffs) + 1)
        for t, a in enumerate(coeffs):
            nxt[t + 1] = ctx_ext.add(nxt[t + 1], a)
            nxt[t] = ctx_ext.add(nxt[t], ctx_ext.mul(a, c))
        coeffs = nxt
    return Poly(base, [emb.lower(c) for c in coeffs])


def expand_matrix(ctx_ext: FieldContext, base: FieldContext, rows, basis=None):
    """Expand a matrix over GF(q^m) into one over GF(q).

    Each extension-field row becomes m rows of base-field coordinates with
    respect to `basis` (default: the polynomial basis 1, alpha, ...,
    alpha^(m-1)).  A base-field vector is orthogonal to an extension row iff
    it is orthogonal to all m expanded rows.
    """
    emb = subfield_embedding(ctx_ext, base)
    m = emb.m
    if basis is None:
        basis = [ctx_ext.exp[j] for j in range(m)] if ctx_ext.q > 2 else [1]
    if len(basis) != m:
        raise ValueError(f"basis must have {m} elements, got {len(basis)}")
    p = ctx_ext.p
    eb = base.e
    em = ctx_ext.e
    # coordinate-change matrix over GF(p): column (j, t) holds the digits of
    # lift(x^t) * basis[j]
    cols = []
    for j in range(m):
        for t in range(eb):
            prod = ctx_ext.mul(emb.lift(p**t), basis[j])
            cols.append(ctx_ext.digits(prod))
    B = [[cols[c][r] for c in range(em)] for r in range(em)]
    Binv = _invert_mod_p(B, p)
    if Binv is None:
        raise ValueError("basis is not linearly independent over the base field")

    A = np.asarray(rows, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if A.size and (A.min() < 0 or A.max() >= ctx_ext.q):
        raise ValueError("matrix entries out of field range")
    r, n = A.shape
    powers = np.array([p**t for t in range(em)], dtype=np.int64)
    digs = (A[:, :, None] // powers) % p                     # (r, n, em)
    Binv_np = np.array(Binv, dtype=np.int64)
    coords = (digs.reshape(-1, em) @ Binv_np.T) % p          # (r*n, em)
    coords = coords.reshape(r, n, m, eb)
    base_pows = np.array([p**t for t in range(eb)], dtype=np.int64)
    labels = (coords * base_pows).sum(axis=3)                # (r, n, m)
    out = []
    for ri in range(r):
        for j in range(m):
            out.append([int(v) for v in labels[ri, :, j]])
    return out


def _invert_mod_p(M, p):
    n = len(M)
    A = [list(map(lambda v: v % p, row)) + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(M)]
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, n):
            if A[r][col] % p:
                piv = r
                break
        if piv is None:
            return None
        A[row], A[piv] = A[piv], A[row]
        inv = pow(A[row][col], -1, p)
        A[row] = [(v * inv) % p for v in A[row]]
        for r in range(n):
            if r != row and A[r][col]:
                f = A[r][col]
                A[r] = [(a - f * b) % p for a, b in zip(A[r], A[row])]
        row += 1
    return [r[n:] for r in A]


# ----------------------------------------------------------------------
# linear algebra over GF(q)
# ----------------------------------------------------------------------

def _np_rows(ctx, rows) -> np.ndarray:
    A = np.asarray(rows, dtype=np.int32)
    if A.ndim == 1:
        A = A[None, :]
    return A


def _row_scale(ctx, row, s):
    if s == 1:
        return row.copy()
    exp, log = ctx.np_tables()
    out = np.zeros_like(row)
    nz = row != 0
    out[nz] = exp[(log[row[nz]] + ctx.log[s]) % (ctx.q - 1)]
    return out


def _row_sub(ctx, a, b):
    p = ctx.p
    if p == 2:
        return a ^ b
    if ctx.e == 1:
        return (a - b) % p
    powers = np.array(ctx._powers, dtype=np.int32)
    da = (a[:, None] // powers) % p
    db = (b[:, None] // powers) % p
    return (((da - db) % p) * powers).sum(axis=1).astype(np.int32)


def _row_submul(ctx, a, b, f):
    """a - f*b for a scalar f."""
    if f == 0:
        return a
    return _row_sub(ctx, a, _row_scale(ctx, b, f))


def independent_rows(ctx: FieldContext, rows) -> list[int]:
    """Indices of the first maximal linearly independent subset, in order."""
    A = _np_rows(ctx, rows)
    basis: list[tuple[int, np.ndarray]] = []
    keep = []
    for idx in range(A.shape[0]):
        r = A[idx].copy()
        for pc, br in basis:
            f = int(r[pc])
            if f:
                r = _row_submul(ctx, r, br, f)
        nz = np.nonzero(r)[0]
        if nz.size:
            pc = int(nz[0])
            r = _row_scale(ctx, r, ctx.inv(int(r[pc])))
            basis.append((pc, r))
            keep.append(idx)
    return keep


def rank(ctx: FieldContext, rows) -> int:
    """Row rank over GF(q) by Gaussian elimination."""
    A = _np_rows(ctx, rows)
    if A.size == 0:
        return 0
    return len(independent_rows(ctx, A))


def rref(ctx: FieldContext, rows) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    A = _np_rows(ctx, rows).copy()
    nrows, ncols = A.shape
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = _row_scale(ctx, A[r], ctx.inv(int(A[r, c])))
        for i in range(nrows):
            if i != r and A[i, c]:
                A[i] = _row_submul(ctx, A[i], A[r], int(A[i, c]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return A, pivots


def nullspace(ctx: FieldContext, rows) -> list[list[int]]:
    """Basis of { v : M v^T = 0 } over GF(q)."""
    A = _np_rows(ctx, rows)
    ncols = A.shape[1]
    R, pivots = rref(ctx, A)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = ctx.neg(int(R[i, f]))
        basis.append(v)
    return basis


def _elementwise_mul(ctx, A, B):
    exp, log = ctx.np_tables()
    out = np.zeros(np.broadcast_shapes(A.shape, B.shape), dtype=np.int32)
    Ab = np.broadcast_to(A, out.shape)
    Bb = np.broadcast_to(B, out.shape)
    nz = (Ab != 0) & (Bb != 0)
    out[nz] = exp[(log[Ab[nz]] + log[Bb[nz]]) % (ctx.q - 1)]
    return out


def _gf_sum(ctx, A, axis):
    p = ctx.p
    if p == 2:
        return np.bitwise_xor.reduce(A, axis=axis)
    if ctx.e == 1:
        return A.sum(axis=axis) % p
    powers = np.array(ctx._powers, dtype=np.int64)
    digs = (A[..., None] // powers) % p
    return ((digs.sum(axis=axis) % p) * powers).sum(axis=-1).astype(np.int32)


def mat_vec(ctx: FieldContext, rows, v) -> list[int]:
    """M v^T over GF(q)."""
    A = _np_rows(ctx, rows)
    vv = np.asarray(v, dtype=np.int32)
    prods = _elementwise_mul(ctx, A, vv[None, :])
    return [int(x) for x in _gf_sum(ctx, prods, axis=1)]


def dot(ctx: FieldContext, u, v) -> int:
    return mat_vec(ctx, [u], v)[0]
