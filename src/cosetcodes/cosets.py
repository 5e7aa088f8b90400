"""q-ary cyclotomic cosets modulo n = q^m - 1 and their structure.

Everything here is plain modular arithmetic; no field tables are involved.
All values are immutable and all functions are pure.  Multiplying by q
modulo q^m - 1 rotates the m base-q digits of a residue; _rotations is that
map on arrays, and the partition, its orbit rows and cyclic's defining sets
all read their cosets from it.  coset_of walks one orbit with Python ints,
at any modulus.  For n up to MAX_MODULUS a partition is its int32 coset
representatives, the residues that are the least of their rotations, and
every whole-partition question is a lookup into numpy arrays built from
them on first read.  Only the last partition built is cached; its build
holds no n-sized array, so the last one's arrays go before any are built.
The gap, parity, complement and oplus structure are arrays over the orbit
rows, computed a block of rows at a time (_by_blocks); the gaps and the
coset listing read their rows from the representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

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
    """The coset of a, by walking its orbit: coset_of, and the slow
    reference for the partition."""
    rep = min(_orbit(q, n, a))
    return Coset(n=n, q=q, rep=rep, elements=tuple(_orbit(q, n, rep)))


def _rotations(q: int, n: int, xs: np.ndarray):
    """The residues xs (below n = q^m - 1), then their images x q^j mod n
    for 0 < j < m, each the last with its top digit h moved to the bottom:
    (x - h q^(m-1)) q + h.  No value reaches n, so the dtype of xs holds
    every step."""
    top = (n + 1) // q  # q^(m-1)
    yield xs
    power = q
    while power <= n:  # q^j for 0 < j < m
        h = xs // top
        xs = xs - h * top
        xs *= q
        xs += h
        yield xs
        power *= q


def _least_rotation(q: int, n: int, xs: np.ndarray) -> np.ndarray:
    """The representative of each residue's coset: its least digit rotation."""
    return reduce(np.minimum, _rotations(q, n, xs))


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
        """The orbit rows of the cosets in blk."""
        return np.stack(list(_rotations(self.q, self.n, self.reps[blk])), axis=1)

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


_CHUNK = 1 << 14  # residues per step of the partition build
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
    reps = []
    for s, e in _chunks(n, _CHUNK):  # x is a rep iff it is its least rotation
        x = np.arange(s, e, dtype=np.int32)
        reps.append(x[_least_rotation(q, n, x) == x])
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
    return _coset_by_walk(q, _modulus(q, m), a)


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
