"""q-ary cyclotomic cosets modulo n = q^m - 1 and their structure.

Everything here is plain modular arithmetic; no field tables are involved.
All values are immutable and all functions are pure.  For n up to
MAX_MODULUS a partition is its int32 coset representatives, and every
coset question is a lookup into numpy arrays built from them on first
read.  Only the last partition built is cached; its build holds no n-sized
array, so the last one's arrays go before any are built.  Multiplying by q
modulo q^m - 1 rotates the m base-q digits of a residue, so the build needs
no division.  Larger moduli walk the orbit instead.  The gap, parity,
complement and oplus structure are arrays over the orbit rows, computed a
block of rows at a time (_by_blocks); the gaps and the coset listing read
their rows from the representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

MAX_MODULUS = 10**6


@dataclass(frozen=True)
class Coset:
    """One q-ary cyclotomic coset modulo n.

    `elements` lists the orbit in multiplication order starting from the
    minimum element: rep, rep*q, rep*q^2, ... reduced mod n.
    """

    n: int
    q: int
    rep: int
    elements: tuple[int, ...]

    @property
    def cardinality(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"Coset(q={self.q}, n={self.n}, {{{', '.join(map(str, self.elements))}}})"


def _orbit(q: int, n: int, a: int) -> list[int]:
    a %= n
    out = [a]
    j = (a * q) % n
    while j != a:
        out.append(j)
        j = (j * q) % n
    return out


def _coset_by_walk(q: int, n: int, a: int) -> Coset:
    """The coset of a, by walking its orbit: the slow reference for the
    partition, and the only path above MAX_MODULUS."""
    rep = min(_orbit(q, n, a))
    return Coset(n=n, q=q, rep=rep, elements=tuple(_orbit(q, n, rep)))


@dataclass(frozen=True, eq=False)
class Partition:
    """All cosets modulo n = q^m - 1, sorted by representative.

    Row i of rows() is reps[i] q^j mod n for j < m: the orbit of coset i,
    its first cards[i] entries, repeated m / cards[i] times, so a min, any
    or all along a whole row is the same as over the orbit.  owner[x] is
    the index of the coset containing residue x, so the complement of coset
    i is owner[(n - reps[i]) % n].  owner, elements (every row) and cards
    are built on first read, a block of rows at a time.
    """

    q: int
    n: int
    m: int
    reps: np.ndarray  # int32, like every array built from it

    def rows(self, blk: slice = slice(None)) -> np.ndarray:
        """The orbit rows of the cosets in blk: x q mod n rotates x's digits."""
        out = np.empty((len(self.reps[blk]), self.m), np.int32)
        out[:, 0] = self.reps[blk]
        for j in range(1, self.m):
            hi, lo = np.divmod(out[:, j - 1], self.q ** (self.m - 1))
            out[:, j] = lo * self.q + hi
        return out

    @cached_property
    def elements(self) -> np.ndarray:
        out = np.empty((len(self.reps), self.m), np.int32)
        for s, e in _chunks(len(self.reps), _ROWS):
            out[s:e] = self.rows(slice(s, e))
        out.flags.writeable = False  # shared by every caller through the cache
        return out

    @cached_property
    def cards(self) -> np.ndarray:
        out = np.empty(len(self.reps), np.int32)
        for s, e in _chunks(len(self.reps), _ROWS):
            out[s:e] = _cards(self.elements[s:e])
        out.flags.writeable = False
        return out

    @cached_property
    def owner(self) -> np.ndarray:
        out = np.empty(self.n, np.int32)
        for s, e in _chunks(len(self.reps), _ROWS):  # each row repeats its own orbit
            out[self.rows(slice(s, e))] = np.arange(s, e, dtype=np.int32)[:, None]
        out.flags.writeable = False
        return out

    def coset(self, i: int) -> Coset:
        """Coset i, built from row i of `elements`."""
        els = tuple(self.elements[i, : self.cards[i]].tolist())
        return Coset(n=self.n, q=self.q, rep=els[0], elements=els)

    def at(self, x: int) -> Coset:
        """The coset containing residue x, 0 <= x < n."""
        return self.coset(int(self.owner[x]))

    def hit(self, exponents) -> np.ndarray:
        """True for each coset holding one of the exponents, reduced mod n."""
        try:
            xs = np.asarray(exponents, dtype=np.int64) % self.n
        except OverflowError:  # an exponent past int64
            xs = np.array([a % self.n for a in exponents], dtype=np.int64)
        out = np.zeros(len(self.reps), bool)
        out[self.owner[xs]] = True
        return out

    def gaps(self, rows: slice = slice(None)) -> np.ndarray:
        """The gap per coset of `rows`: the least difference between adjacent
        sorted elements, 0 for singletons, whose rows hold no positive
        difference."""
        a, b, _ = rows.indices(len(self.reps))
        def block(r):
            d = np.diff(np.sort(self.rows(slice(a + r.start, a + r.stop)), axis=1), axis=1)
            return np.min(d, axis=1, where=d > 0, initial=self.n) % self.n
        return _by_blocks(block, max(b - a, 0))

    def mixed(self) -> np.ndarray:
        """True for each coset with both even and odd elements."""
        E = self.elements
        return _by_blocks(lambda b: (E[b] % 2 != E[b, :1] % 2).any(axis=1), len(E))

    def complements(self, rows: slice = slice(None)) -> np.ndarray:
        """The complementary coset of each coset of `rows`, as coset
        indices."""
        return self.owner[(self.n - self.reps[rows]) % self.n]

    def oplus(self, other: np.ndarray) -> np.ndarray:
        """The oplus of coset i with coset other[i] per coset, as coset
        indices: the coset of reps[i] + w for the witness w of coset other[i]
        with reps[i] + w = 0 mod n; -1 where coset other[i] holds no
        witness."""
        def block(b):
            return ((self.reps[b, None] + self.elements[other[b]]) % self.n == 0).any(axis=1)
        return np.where(_by_blocks(block, len(other)), self.owner[0], -1)


_CHUNK = 1 << 16  # residues per step of the partition build
_ROWS = 1 << 12  # orbit rows per block of a whole-partition question


def _chunks(n: int, step: int):
    """The bounds (s, e) of consecutive slices of range(n), step long."""
    return ((s, min(s + step, n)) for s in range(0, n, step))


def _by_blocks(f, count: int) -> np.ndarray:
    """f(rows) on consecutive slices of _ROWS orbit rows that cover
    range(count), concatenated (f(slice(0, 0)) when count is 0): a question
    about every coset holds one block's temporaries at a time."""
    return np.concatenate([f(slice(s, e)) for s, e in _chunks(count, _ROWS)]
                          or [f(slice(0, 0))])


def _cards(rows: np.ndarray) -> np.ndarray:
    """The size of each coset of some orbit rows, met m / size times."""
    return len(rows.T) // sum(col == rows[:, 0] for col in rows.T)


@lru_cache(maxsize=1)  # the sweep visits each (q, m) once
def _partition(q: int, n: int) -> Partition:
    m = 1  # n = q^m - 1
    while q**m <= n:
        m += 1
    # x is a rep iff it is the least of its m digit rotations.  Rotation j
    # maps x = a w + b, b < w = q^(m-j), to b q^j + a (q^m = 1 mod n), entry
    # (a, b) of a grid of width w over consecutive x.  A chunk is whole rows
    # of every grid (the last cut at x = n): one int32 broadcast per rotation.
    top, reps = q ** (m - 1), []
    for s, e in _chunks(n, top * max(1, _CHUNK // top)):
        x = np.arange(s, e, dtype=np.int32)
        least = x.copy()
        for w in (q**i for i in range(1, m)):
            grid = np.arange(0, q**m, q**m // w, dtype=np.int32)
            grid = grid + np.arange(s // w, -(-e // w), dtype=np.int32)[:, None]
            np.minimum(least, grid.ravel()[:e - s], out=least)
        reps.append(np.flatnonzero(least == x).astype(np.int32) + s)
    reps = np.concatenate(reps)
    reps.flags.writeable = False
    return Partition(q, n, m, reps)


def partition(q: int, m: int) -> Partition:
    """The partition of {0, ..., n-1} into cosets modulo n = q^m - 1."""
    if q < 2 or m < 1:
        raise ValueError("need q >= 2 and m >= 1")
    # n >= 2^m - 1 and n >= q - 1 are past the cap; n may have millions of digits
    if m >= 20 or q - 1 > MAX_MODULUS:
        raise ValueError(f"modulus {q}^{m} - 1 exceeds cap {MAX_MODULUS}")
    n = q**m - 1
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds cap {MAX_MODULUS}")
    return _partition(q, n)


def _modulus(q: int, m: int) -> int:
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return q**m - 1


def coset_of(q: int, m: int, a: int) -> Coset:
    """The q-ary coset of a modulo q^m - 1 (a is reduced first)."""
    n = _modulus(q, m)
    return _coset_by_walk(q, n, a) if n > MAX_MODULUS else _partition(q, n).at(a % n)


def union_of(q: int, m: int, exponents) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sorted coset representatives and sorted elements of the union of
    the cosets of the exponents modulo q^m - 1 (each reduced first): one
    Partition.hit mask, or an orbit walk per exponent above MAX_MODULUS."""
    n = _modulus(q, m)
    if n > MAX_MODULUS:
        orbits = {min(o): o for o in (_orbit(q, n, int(a)) for a in exponents)}
        return tuple(sorted(orbits)), tuple(sorted(x for o in orbits.values() for x in o))
    part = _partition(q, n)
    hit = part.hit(exponents)
    return tuple(part.reps[hit].tolist()), tuple(np.flatnonzero(hit[part.owner]).tolist())


def all_cosets(q: int, m: int) -> list[Coset]:
    """Partition of {0, ..., n-1} into cosets, sorted by representative."""
    part = partition(q, m)
    return list(map(part.coset, range(len(part.reps))))


def disjointness_range(q: int, m: int) -> int:
    """Largest T such that any distinct x, y in [1, T] not divisible by q
    are guaranteed to lie in distinct cosets.

    Even m uses the improved bound 2*q^(m/2); odd m falls back to the
    general-range bound min(q^ceil(m/2) - 1, n - 1).
    """
    if q < 2 or m < 1:
        raise ValueError("need q >= 2 and m >= 1")
    n = q**m - 1
    if m % 2 == 0:
        return 2 * q ** (m // 2)
    return min(q ** ((m + 1) // 2) - 1, n - 1)


def ladder_cosets(q: int, m: int, c: int) -> list[Coset]:
    """The cosets of q+1, 2q+1, ..., cq+1: pairwise disjoint, each of
    cardinality m, disjoint from the cosets of 1..c, with final orbit
    elements forming c consecutive integers.

    Hypothesis: m >= 1, 1 <= c <= q and cq + 1 < q^ceil(m/2) - 1.  The
    bound c <= q is needed: for c >= q + 1 the first ladder coset, of q + 1,
    is itself one of the cosets of 1..c.

    Checked: m elements, least element jq + 1, consecutive last elements.
    Distinct least elements above c then make distinct cosets, none the
    coset of an i <= c, which holds i.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if not 1 <= c <= q:
        raise ValueError(f"hypothesis violated: need 1 <= c <= {q}, got c={c}")
    bound = q ** ((m + 1) // 2) - 1
    if not c * q + 1 < bound:
        raise ValueError(
            f"hypothesis violated: {c}*{q}+1 = {c * q + 1} is not < {bound}"
        )
    out = [coset_of(q, m, j * q + 1) for j in range(1, c + 1)]
    for j, cs in enumerate(out, start=1):
        if cs.cardinality != m:
            raise AssertionError(f"{cs!r} does not have {m} elements")
        if min(cs.elements) != j * q + 1:
            raise AssertionError(f"{j * q + 1} is not minimal in its coset {cs!r}")
    lasts = [cs.elements[-1] for cs in out]
    for a, b in zip(lasts, lasts[1:]):
        if b != a + 1:
            raise AssertionError(f"final elements {lasts} are not consecutive")
    return out
